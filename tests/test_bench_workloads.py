"""The benchmark's LSA workload at a tiny size: a change that breaks its
1e-9 gate, or the program API it uses, fails here and not only in a
benchmark run."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from fedicl.core import real_values
from fedicl.data import KNN_BLOCK_ELEMENTS

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # for its stub_llm import
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for @dataclass
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("context_count,examples,queries",
                         [(None, 6, 4), (2, 6, 4), (3, 64, 140)],
                         ids=["None", "2", "3-in-blocks"])
def test_lsa_workload_passes_its_gate(monkeypatch, tmp_path, context_count,
                                      examples, queries):
    if examples > 6:   # step 2's pool: 2 * examples rows, and a block has
        # at most KNN_BLOCK_ELEMENTS // (2 * examples) queries: 2 blocks
        assert queries * 2 * examples > KNN_BLOCK_ELEMENTS
    workloads = load_workloads(monkeypatch)
    workload = workloads.LsaWorkload(
        "tiny", clients=3, examples=examples, queries=queries, dim=2,
        rounds=2, context_count=context_count, spans=frozenset())
    inst = workload.setup(seed=5)
    workload.reference(inst)
    try:
        out = workload.run(inst, tmp_path)
        assert len(out.value.traces) == 2
        assert workload.check(inst, out) == []
        # the gate is not vacuous: a reference off by 1e-6 fails it
        inst.expected = [labels + 1e-6 for labels in inst.expected]
        assert len(workload.check(inst, out)) == 2
    finally:
        workload.close(inst)
    assert np.isfinite(real_values(out.value.final.labels)).all()


def test_remote_text_workload_passes_its_gate(monkeypatch, tmp_path):
    workloads = load_workloads(monkeypatch)
    workload = workloads.RemoteTextWorkload(clients=2, examples=3, queries=2,
                                            rounds=2)
    inst = workload.setup(seed=5)
    try:
        workload.reference(inst)
        out = workload.run(inst, tmp_path)
        assert len(out.value.traces) == 2
        assert workload.check(inst, out) == []
        assert out.counters["stub.answered"] == 2 * 2 * (3 + 2)
        # the observed rows hold what the stub reported
        observed = {"uplink": 0, "downlink": 0}
        for e in out.value.ledger.entries:
            if e.unit == "observed_tokens":
                observed[e.direction] += e.payload_units
        assert observed == {
            "uplink": out.counters["stub.prompt_tokens"],
            "downlink": out.counters["stub.answered"]
            * len(workloads.REPLY.split())}
        # the gate is not vacuous: a POST it cannot account for fails it
        out.counters["stub.posts"] += 1
        assert len(workload.check(inst, out)) == 1
    finally:
        workload.close(inst)
