"""Spans recorded around the program's public functions, from outside.

An installed ``SpanRecorder`` replaces each target function with a wrapper at
the name its callers look it up by (a module global or a class attribute),
and puts the originals back when it is closed. Each span records its name,
start, end, parent and run id. The parent comes from a per-thread stack, so
a span started in a worker thread of the protocol's pool has no parent.
Spans stay in per-thread column buffers in memory until ``table`` joins
them.
"""

from __future__ import annotations

import functools
import importlib
import threading
from array import array
from time import perf_counter
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: (span name, "module" or "module:Class", attribute). The module is the one
#: whose globals the caller reads, e.g. ``fedicl.protocol.knn_context``.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("protocol.run", "fedicl.protocol", "run"),
    ("protocol.step1", "fedicl.protocol", "step1_relabel"),
    ("protocol.step2", "fedicl.protocol", "step2_answer"),
    ("protocol.aggregate", "fedicl.protocol", "aggregate"),
    ("data.knn", "fedicl.protocol", "knn_context"),
    ("core.save_traces", "fedicl.protocol", "save_traces"),
    ("core.charge", "fedicl.protocol", "charge_protocol_round"),
    ("lsa.predict", "fedicl.backend", "predict_closed_form"),
    ("backend.render", "fedicl.backend", "render_prompt"),
    ("backend.lsa", "fedicl.backend:LsaBackend", "answer"),
    ("backend.remote", "fedicl.backend:RemoteBackend", "answer"),
    ("data.embed", "fedicl.data:IdentityEmbedder", "embed"),
    ("data.embed_many", "fedicl.data:Embedder", "embed_many"),
    ("core.export_csv", "fedicl.core:CommLedger", "export_csv"),
)
SPAN_NAMES = tuple(t[0] for t in TARGETS)


def _resolve(owner_path: str):
    module_name, _, class_name = owner_path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class _ThreadBuffer:
    def __init__(self):
        self.name = array("i")
        self.parent = array("q")   # index in this buffer, -1 for none
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = []


class SpanRecorder:
    """Wraps ``TARGETS`` while installed; ``close`` restores the originals.

    One recorder may be installed and closed many times; its spans add up.
    """

    def __init__(self):
        self.run_id = 0
        self.missing: List[str] = []
        self._buffers: List[_ThreadBuffer] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._targets = []   # (owner, attr, owned, original, wrapper)
        for index, (name, owner_path, attr) in enumerate(TARGETS):
            try:
                owner = _resolve(owner_path)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{name} ({owner_path}.{attr})")
                continue
            self._targets.append((owner, attr, attr in vars(owner), original,
                                  self._wrap(index, original)))

    def install(self) -> None:
        for owner, attr, _owned, _original, wrapper in self._targets:
            setattr(owner, attr, wrapper)

    def close(self) -> None:
        for owner, attr, owned, original, _wrapper in reversed(self._targets):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _ThreadBuffer()
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _wrap(self, name_index: int, fn):
        recorder = self

        def traced(*args, **kwargs):
            buf = recorder._buffer()
            i = len(buf.start)
            stack = buf.stack
            buf.name.append(name_index)
            buf.parent.append(stack[-1] if stack else -1)
            buf.run.append(recorder.run_id)
            buf.end.append(0.0)
            stack.append(i)
            buf.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                buf.end[i] = perf_counter()
                stack.pop()

        return functools.wraps(fn)(traced)

    def table(self) -> Dict[str, np.ndarray]:
        """Every span so far as columns; ``parent`` indexes the joined rows."""
        cols = {k: [] for k in ("name", "parent", "run", "start", "end",
                                "thread")}
        offset = 0
        with self._lock:
            buffers = list(self._buffers)
        for thread, buf in enumerate(buffers):
            n = len(buf.start)
            # copies, so that no view pins the buffer against later appends
            parent = np.frombuffer(buf.parent, dtype=np.int64)[:n].copy()
            parent[parent >= 0] += offset
            cols["name"].append(
                np.frombuffer(buf.name, dtype=np.int32)[:n].copy())
            cols["parent"].append(parent)
            cols["run"].append(np.frombuffer(buf.run, dtype=np.int32)[:n].copy())
            cols["start"].append(np.frombuffer(buf.start)[:n].copy())
            cols["end"].append(np.frombuffer(buf.end)[:n].copy())
            cols["thread"].append(np.full(n, thread, dtype=np.int32))
            offset += n
        return {k: (np.concatenate(v) if v else np.zeros(0))
                for k, v in cols.items()}


def self_times(table: Dict[str, np.ndarray]) -> np.ndarray:
    """Duration of each span minus the time its direct children cover.

    Children share their parent's thread and run one after another, so
    their durations add up to the time they cover.
    """
    dur = table["end"] - table["start"]
    child = np.zeros_like(dur)
    has_parent = table["parent"] >= 0
    np.add.at(child, table["parent"][has_parent], dur[has_parent])
    return dur - child


def covered(intervals: Sequence[Tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def save_run(table: Dict[str, np.ndarray], run_id: int, path) -> None:
    """Write the spans of one run to an ``.npz`` file, parents renumbered."""
    keep = table["run"] == run_id
    new_index = np.cumsum(keep) - 1
    parent = table["parent"][keep]
    columns = {k: v[keep] for k, v in table.items()}
    columns["parent"] = np.where(parent >= 0, new_index[parent], -1)
    np.savez(path, names=np.array(SPAN_NAMES), **columns)
