"""The benchmark's traced pass wraps engine functions by name; a rename or
an inlining that removes one of them would void every traced run."""

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np

from fedicl import protocol
from fedicl.backend import LsaBackend, RemoteBackend
from fedicl.core import ClientDataset, Example, RealLabel, TextLabel
from fedicl.lsa import gamma
from fedicl.protocol import ClientState, ProtocolConfig, run

from mock_llm import MockLlmServer
from test_bench_workloads import load_workloads

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
KNN_SPANS = {"data.knn", "data.embed", "data.embed_many"}


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_target_resolves():
    assert load_tracing().SpanRecorder().missing == []


def traced_span_counts(context_count, clients=3, rounds=2, trace_path=None):
    """Span name -> count over one small LSA run under the recorder."""
    tracing = load_tracing()
    rng = np.random.default_rng(40)
    g = gamma(np.eye(2), 5)
    datasets = [ClientDataset(cid, tuple(
        Example(tuple(x), RealLabel(float(x.sum())))
        for x in rng.standard_normal((6, 2)))) for cid in range(1, clients + 1)]
    queries = tuple(tuple(x) for x in rng.standard_normal((5, 2)))
    recorder = tracing.SpanRecorder()
    recorder.install()
    try:
        run(ProtocolConfig(rounds=rounds, context_count=context_count),
            [ClientState(ds.client_id, ds, LsaBackend(g)) for ds in datasets],
            queries, trace_path=trace_path, max_workers=2)
    finally:
        recorder.close()
    names = recorder.table()["name"].astype(int)
    return Counter(tracing.SPAN_NAMES[i] for i in names)


def test_full_context_run_fires_one_backend_call_per_client_step(tmp_path):
    counts = traced_span_counts(context_count=None,
                                trace_path=tmp_path / "traces.jsonl")
    # the run writes its traces in one call, which the benchmark times
    assert counts["core.save_traces"] == 1
    assert counts["backend.lsa"] == counts["lsa.predict"] == 3 * 2 * 2
    assert counts["protocol.step1"] == counts["protocol.step2"] == 3 * 2
    assert not KNN_SPANS & set(counts)


def test_knn_run_searches_once_per_client_step_and_embeds_through_embed_many():
    counts = traced_span_counts(context_count=2)
    assert "core.save_traces" not in counts   # no trace_path, no traces
    # one search per (client, step) for the whole run, not one per round
    assert counts["data.knn"] == 3 * 2
    assert counts["data.embed_many"] == 2 * counts["data.knn"]
    # the identity embedder embeds each array of covariates in one call
    assert counts["data.embed"] == counts["data.embed_many"]
    # one backend call per (client, step, round), as with full context
    assert counts["backend.lsa"] == counts["lsa.predict"] == 3 * 2 * 2


def test_text_run_fires_every_span_of_the_remote_text_workload(monkeypatch,
                                                                tmp_path):
    spans = load_workloads(monkeypatch).RemoteTextWorkload.spans
    tracing = load_tracing()
    recorder = tracing.SpanRecorder()
    with MockLlmServer(reply="a reply") as srv:
        clients = [ClientState(cid, ClientDataset(cid, tuple(
            Example(f"question {cid}.{i}?", TextLabel(f"answer {i}"))
            for i in range(2))), RemoteBackend(srv.url)) for cid in (1, 2)]
        recorder.install()
        try:
            # through the module, as the benchmark calls it: the recorder
            # wraps ``protocol.run`` there
            result = protocol.run(
                ProtocolConfig(rounds=2, aggregation="fusion"), clients,
                ("What causes tides?",), trace_path=tmp_path / "traces.jsonl",
                max_workers=2)
            result.ledger.export_csv(tmp_path / "ledger.csv")
        finally:
            recorder.close()
    names = recorder.table()["name"].astype(int)
    fired = {tracing.SPAN_NAMES[i] for i in names}
    # as the benchmark's span check: each of its spans fires, no other does
    assert fired == spans
    assert not KNN_SPANS & fired
    assert not {"backend.lsa", "lsa.predict"} & fired
