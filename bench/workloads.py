"""The benchmark's three workloads: inputs from a seed, one run, its gate.

Each workload builds its inputs from the seed alone and hands the program
only those inputs. ``setup`` is what a user pays before a run (generating
inputs, building backends, starting the stub server); ``reference`` is the
benchmark's own expected output, computed once and not timed; ``run`` is
the timed unit; ``check`` returns the reasons a run's output is wrong.
``spans`` names the trace spans that must fire on the workload; every other
span must not fire there.

Why each workload exists, and the layers it is expected to load, is written
in ``bench/BASELINE.md``.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from fedicl import cli, core, protocol, theory
from fedicl.backend import GenerationParams, LsaBackend, RemoteBackend
from stub_llm import REPLY

MAX_WORKERS = 2
STUB_SCRIPT = Path(__file__).resolve().with_name("stub_llm.py")
GATE_TOL = 1e-9

PROTOCOL_SPANS = frozenset({
    "protocol.run", "protocol.step1", "protocol.step2", "protocol.aggregate",
    "core.save_traces", "core.charge", "core.export_csv"})


@dataclass
class RunOutput:
    value: protocol.ProtocolResult
    wall_s: float          # the timed call only
    cpu_s: float           # CPU time of this process during the timed call
    counters: Dict[str, float] = field(default_factory=dict)


def timed(call: Callable[[], object]) -> RunOutput:
    wall0, cpu0 = time.perf_counter(), time.process_time()
    value = call()
    return RunOutput(value, time.perf_counter() - wall0,
                     time.process_time() - cpu0)


# ---------------------------------------------------------------------------
# Regression through the LSA backend (full context and kNN context)
# ---------------------------------------------------------------------------

@dataclass
class LsaInstance:
    clients: list
    queries: tuple
    gamma: np.ndarray
    config: protocol.ProtocolConfig
    synthesize_s: float
    expected: Optional[List[np.ndarray]] = None   # labels after each round


class LsaWorkload:
    """``protocol.run`` on ``cli.synthesize_instance`` regression data."""

    def __init__(self, name: str, clients: int, examples: int, queries: int,
                 dim: int, rounds: int, context_count: Optional[int],
                 spans: frozenset):
        self.name = name
        self.size = dict(clients=clients, examples=examples, queries=queries,
                         dim=dim, rounds=rounds, context_count=context_count)
        self.ops = rounds * clients * (examples + queries)
        self.spans = PROTOCOL_SPANS | spans

    def setup(self, seed: int) -> LsaInstance:
        s = self.size
        cfg = {"d": s["dim"], "num_clients": s["clients"],
               "examples_per_client": s["examples"],
               "num_queries": s["queries"]}
        t0 = time.perf_counter()
        datasets, queries, gamma = cli.synthesize_instance(cfg, seed)
        synthesize_s = time.perf_counter() - t0
        clients = [protocol.ClientState(client_id=ds.client_id, original=ds,
                                        backend=LsaBackend(gamma))
                   for ds in datasets]
        config = protocol.ProtocolConfig(
            rounds=s["rounds"], variant="fedicl", aggregation="average",
            context_count=s["context_count"], seed=seed)
        return LsaInstance(clients, queries, gamma, config, synthesize_s)

    def reference(self, inst: LsaInstance) -> None:
        if self.size["context_count"] is None:
            inst.expected = _theory_labels(inst)
        else:
            inst.expected = _knn_reference_labels(inst,
                                                  self.size["context_count"])

    def run(self, inst: LsaInstance, out_dir: Path) -> RunOutput:
        return _run_protocol(inst.config, inst.clients, inst.queries, out_dir)

    def check(self, inst: LsaInstance, out: RunOutput) -> List[str]:
        traces = out.value.traces
        if len(traces) != len(inst.expected):
            return [f"{len(traces)} rounds traced, expected "
                    f"{len(inst.expected)}"]
        errors = []
        for trace, want in zip(traces, inst.expected):
            got = np.array([lab.value for lab in trace.aggregated.labels])
            dev = float(np.max(np.abs(got - want)))
            if not dev <= GATE_TOL:
                errors.append(f"round {trace.round}: labels deviate from the "
                              f"reference by {dev:.3e} > {GATE_TOL:g}")
        return errors

    def close(self, inst: LsaInstance) -> None:
        pass


def _theory_labels(inst: LsaInstance) -> List[np.ndarray]:
    """Query labels after each round from the recursion w_{k+1} = 1/2 H w_k
    + 1/2 w_lim, the check ``fedicl simulate --verify-theory`` makes."""
    datasets = [c.original for c in inst.clients]
    state = theory.TheoryState.initialize(datasets, inst.queries, inst.gamma)
    state = theory.iterate_recursion(state, inst.config.effective_rounds)
    xm = np.asarray(inst.queries, dtype=float)
    return [xm @ w for w in state.w_trace[1:]]


def _knn_reference_labels(inst: LsaInstance, k: int) -> List[np.ndarray]:
    """Independent numpy replay of the fedicl variant with kNN context.

    Exhaustive search with a stable sort (distance ties keep pool order),
    then the closed-form predictor x^T Gamma^-1 (1/k sum y_j x_j).
    """
    def predict(pool_x, pool_y, q):
        nearest = np.argsort(np.linalg.norm(pool_x - q[None, :], axis=1),
                             kind="stable")[:k]
        moment = pool_x[nearest].T @ pool_y[nearest] / len(nearest)
        return float(q @ np.linalg.solve(inst.gamma, moment))

    xq = np.asarray(inst.queries, dtype=float)
    local = [(np.asarray([ex.covariate for ex in c.original.examples]),
              np.asarray([ex.label.value for ex in c.original.examples]))
             for c in inst.clients]
    labels = np.zeros(len(xq))
    out = []
    for _ in range(inst.config.effective_rounds):
        answers = []
        for x, y in local:
            relabeled = np.array([predict(xq, labels, xn) for xn in x])
            pool_x = np.vstack([x, x])
            pool_y = np.concatenate([y, relabeled])
            answers.append([predict(pool_x, pool_y, q) for q in xq])
        labels = np.mean(np.asarray(answers), axis=0)
        out.append(labels)
    return out


# ---------------------------------------------------------------------------
# Text QA through remote backends against the stub server
# ---------------------------------------------------------------------------

_SYLLABLES = ("ka", "lo", "mi", "ne", "su", "ta", "ri", "po", "de", "vu",
              "ba", "zo", "fe", "gi", "hu", "ja")


class StubServer:
    """The stub chat-completions server in a child process."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(STUB_SCRIPT)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line.strip().isdigit():
            self.close()
            raise RuntimeError(f"stub server did not start: {line!r}")
        self.url = f"http://127.0.0.1:{int(line)}"

    def _call(self, path: str, method: str) -> dict:
        req = urllib.request.Request(self.url + path, method=method,
                                     data=b"" if method == "POST" else None)
        with urllib.request.urlopen(req, timeout=10) as resp:
            return json.loads(resp.read())

    def reset(self) -> None:
        self._call("/reset", "POST")

    def stats(self) -> dict:
        return self._call("/stats", "GET")

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()    # the stub exits when its stdin closes
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


@dataclass
class TextInstance:
    stub: StubServer
    clients: list
    queries: tuple
    config: protocol.ProtocolConfig


class RemoteTextWorkload:
    """Text QA, one ``RemoteBackend`` per client, ``fusion`` aggregation."""

    name = "remote_text"
    spans = PROTOCOL_SPANS | {"backend.remote", "backend.render"}

    def __init__(self, clients=8, examples=20, queries=10, rounds=3):
        self.size = dict(clients=clients, examples=examples, queries=queries,
                         rounds=rounds)
        self.ops = rounds * clients * (examples + queries)

    def setup(self, seed: int) -> TextInstance:
        s = self.size
        rng = np.random.default_rng(seed)
        serial = itertools.count()

        def words(lo, hi):
            return " ".join(
                "".join(rng.choice(_SYLLABLES, size=rng.integers(1, 4)))
                for _ in range(rng.integers(lo, hi + 1)))

        def question():   # numbered, so every question is distinct
            return f"Q{next(serial)}: what is the {words(6, 12)}?"

        datasets = [core.ClientDataset(client_id=cid, examples=tuple(
            core.Example(covariate=question(),
                         label=core.TextLabel(words(1, 3)))
            for _ in range(s["examples"])))
            for cid in range(1, s["clients"] + 1)]
        queries = tuple(question() for _ in range(s["queries"]))
        config = protocol.ProtocolConfig(rounds=s["rounds"], variant="fedicl",
                                         aggregation="fusion", seed=seed)
        stub = StubServer()
        try:
            clients = [protocol.ClientState(client_id=ds.client_id,
                                            original=ds,
                                            backend=RemoteBackend(stub.url))
                       for ds in datasets]
        except BaseException:
            stub.close()
            raise
        return TextInstance(stub, clients, queries, config)

    def reference(self, inst: TextInstance) -> None:
        pass

    def run(self, inst: TextInstance, out_dir: Path) -> RunOutput:
        inst.stub.reset()
        out = _run_protocol(inst.config, inst.clients, inst.queries, out_dir)
        out.counters.update(
            {f"stub.{k}": v for k, v in inst.stub.stats().items()})
        return out

    def check(self, inst: TextInstance, out: RunOutput) -> List[str]:
        s = self.size
        errors = []
        result = out.value
        labels = [lab for trace in result.traces
                  for answers in trace.per_client_answers.values()
                  for lab in answers]
        labels += list(result.final.labels)
        wrong = sum(1 for lab in labels
                    if getattr(lab, "answer", None) != REPLY)
        if wrong:
            errors.append(f"{wrong} answers differ from the stub reply")
        answers = s["rounds"] * s["clients"] * (s["examples"] + s["queries"])
        posts, refused = out.counters["stub.posts"], out.counters["stub.refused"]
        if out.counters["stub.answered"] != answers:
            errors.append(f"stub answered {out.counters['stub.answered']} "
                          f"requests, expected {answers}")
        if posts != answers + refused:
            errors.append(f"stub saw {posts} POSTs, expected {answers} "
                          f"answers + {refused} refused")
        # nominal accounting: every payload is charged at the token cap;
        # questions go down once, labels go down and answers up every round
        cap = GenerationParams().max_tokens
        per_client = s["queries"] * cap * (2 * s["rounds"] + 1)
        want = s["clients"] * per_client
        got = result.ledger.total("tokens")
        if got != want:
            errors.append(f"ledger holds {got} tokens, formula gives {want}")
        return errors

    def close(self, inst: TextInstance) -> None:
        inst.stub.close()


# ---------------------------------------------------------------------------

def _run_protocol(config, clients, queries, out_dir: Path) -> RunOutput:
    """One ``protocol.run`` with its trace file plus the ledger CSV, as
    ``fedicl simulate`` writes them."""
    trace_path = out_dir / "traces.jsonl"

    def call():
        result = protocol.run(config, clients, queries,
                              trace_path=str(trace_path),
                              max_workers=MAX_WORKERS)
        result.ledger.export_csv(str(out_dir / "ledger.csv"))
        return result

    out = timed(call)
    out.counters.update(trace_bytes=os.path.getsize(trace_path),
                        ledger_entries=len(out.value.ledger.entries))
    return out


WORKLOADS = {w.name: w for w in (
    LsaWorkload("lsa_full", clients=20, examples=100, queries=50, dim=8,
                rounds=5, context_count=None,
                spans=frozenset({"backend.lsa", "lsa.predict"})),
    LsaWorkload("lsa_knn", clients=10, examples=100, queries=50, dim=8,
                rounds=3, context_count=10,
                spans=frozenset({"backend.lsa", "lsa.predict", "data.knn",
                                 "data.embed", "data.embed_many"})),
    RemoteTextWorkload(),
)}
