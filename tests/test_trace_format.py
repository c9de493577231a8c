"""The bytes ``save_traces`` writes.

The files ``tests/data/golden_*.jsonl`` were written, before the writer
built its own lines, as ``json.dumps`` of each trace's fields (the
``reference_line`` below): an LSA run with full context and ``theory_w``
(``lsa_traces(None)``), a kNN run (``lsa_traces(3)``), a text run
(``text_traces()``) and a hand-built trace with non-finite labels
(``nonfinite_traces()``). The writer must reproduce each byte for byte.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fedicl import core, theory
from fedicl.backend import LmBackend, LsaBackend
from fedicl.core import (ClientDataset, Dataset, Example, RealColumn,
                         RealLabel, RoundTrace, TextLabel)
from fedicl.lsa import gamma
from fedicl.protocol import ClientState, ProtocolConfig, run

DATA = Path(__file__).parent / "data"


def reference_line(trace: RoundTrace) -> str:
    """A trace line as ``json.dumps`` makes it from the trace's fields."""
    covs = trace.aggregated.covariates
    obj = {
        "round": trace.round,
        "per_client_answers": {
            str(cid): core.labels_to_json(labs)
            for cid, labs in sorted(trace.per_client_answers.items())},
        "aggregated": {
            "covariates": (list(covs) if isinstance(covs, tuple)
                           else covs.tolist()),
            "labels": core.labels_to_json(trace.aggregated.labels)},
    }
    if trace.theory_w is not None:
        obj["theory_w"] = list(trace.theory_w)
    return json.dumps(obj) + "\n"


def lsa_traces(context_count):
    """Three rounds of ``fedicl`` on the LSA backend (3 clients, 6 examples
    each, 4 queries, d=3); with full context, each trace holds the
    recursion's ``theory_w``."""
    rng = np.random.default_rng(15)
    g = gamma(np.eye(3), 7)
    w_true = rng.standard_normal(3)
    datasets = [ClientDataset(cid, tuple(
        Example(tuple(x), RealLabel(float(x @ w_true)))
        for x in rng.standard_normal((6, 3)))) for cid in (1, 2, 3)]
    queries = tuple(tuple(x) for x in rng.standard_normal((4, 3)))
    w_trace = None
    if context_count is None:
        state = theory.TheoryState.initialize(datasets, queries, g)
        w_trace = theory.iterate_recursion(state, 3).w_trace
    return run(ProtocolConfig(rounds=3, context_count=context_count),
               [ClientState(ds.client_id, ds, LsaBackend(g))
                for ds in datasets],
               queries, theory_w_trace=w_trace).traces


class EchoBackend(LmBackend):
    """Answers each question with its reverse, quoted, and the size of the
    context it was given."""

    max_tokens = 8

    def answer(self, context, queries, neighbours=None, usage=None):
        return tuple(TextLabel(f'“{q[::-1]}” \\ "{len(context)}"')
                     for q in queries)


def text_traces():
    """Two rounds of ``fedicl`` with fusion over non-ASCII questions with
    quotes, backslashes, a newline and a line separator."""
    clients = [ClientDataset(cid, tuple(
        Example(question, TextLabel(answer)) for question, answer in pairs))
        for cid, pairs in ((1, [('Wie weit ist "der Mond"?', "384 400 km"),
                                ("月は何色？", "灰色")]),
                           (2, [("Où est la gare?\n", "là-bas"),
                                ("a\\b\tc", "🌙")]))]
    queries = ("Qu'est-ce qu'un «quark» ?", 'say "hi"', "naïve\u2028line")
    return run(ProtocolConfig(rounds=2, aggregation="fusion"),
               [ClientState(ds.client_id, ds, EchoBackend())
                for ds in clients], queries).traces


def nonfinite_traces():
    """Two rounds that share one query column: NaN, ±inf and -0.0 labels,
    the extremes of the float range, and client ids whose text order is not
    their numeric order."""
    queries = Dataset(covariates=[[1.0, -0.0], [5e-324, 1e16], [-2.5, 0.1]],
                      labels=RealColumn([math.nan, math.inf, -0.0]))
    first = RoundTrace(
        round=1,
        per_client_answers={
            10: RealColumn([math.nan, -math.inf, 1e-300]),
            2: RealColumn([-0.0, math.inf, 1.7976931348623157e308])},
        aggregated=queries, theory_w=(0.5, -0.0))
    second = RoundTrace(
        round=2,
        per_client_answers={10: RealColumn([0.1, 2.0, 1e16]),
                            2: RealColumn([5e-324, -1e-7, 123456789.125])},
        aggregated=queries.with_labels(RealColumn([0.0, 1.5, -3.0])),
        theory_w=(0.25, 1.0))
    return [first, second]


def shared_queries(traces):
    """The traces with the first one's query covariates, one object, in
    each, as the traces of a run share them."""
    first = traces[0].aggregated
    return [RoundTrace(t.round, t.per_client_answers,
                       first.with_labels(t.aggregated.labels), t.theory_w)
            for t in traces]


@pytest.mark.parametrize("name", ["lsa_full", "lsa_knn", "text"])
def test_saving_loaded_golden_traces_reproduces_the_file(tmp_path, name):
    golden = DATA / f"golden_{name}.jsonl"
    loaded = core.load_traces(golden)
    traces = shared_queries(loaded)
    assert traces == loaded
    core.save_traces(traces, tmp_path / "traces.jsonl")
    assert (tmp_path / "traces.jsonl").read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("name,make", [
    ("text", text_traces), ("nonfinite", nonfinite_traces)])
def test_saving_built_traces_reproduces_the_golden_file(tmp_path, name, make):
    core.save_traces(make(), tmp_path / "traces.jsonl")
    golden = DATA / f"golden_{name}.jsonl"
    assert (tmp_path / "traces.jsonl").read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("context_count", [None, 3])
def test_saved_run_traces_are_the_json_dumps_of_their_fields(
        tmp_path, context_count):
    traces = lsa_traces(context_count)
    assert (traces[0].theory_w is None) == (context_count is not None)
    core.save_traces(traces, tmp_path / "traces.jsonl")
    assert ((tmp_path / "traces.jsonl").read_text()
            == "".join(map(reference_line, traces)))
    assert core.load_traces(tmp_path / "traces.jsonl") == traces


def test_a_saved_line_has_the_documented_layout(tmp_path):
    core.save_traces(nonfinite_traces()[:1], tmp_path / "traces.jsonl")
    line = (tmp_path / "traces.jsonl").read_text()
    obj = json.loads(line)
    assert list(obj) == ["round", "per_client_answers", "aggregated",
                         "theory_w"]
    assert list(obj["per_client_answers"]) == ["2", "10"]
    assert list(obj["aggregated"]) == ["covariates", "labels"]
    assert obj["aggregated"]["covariates"][0] == [1.0, -0.0]
    assert line.startswith('{"round": 1, "per_client_answers": {"2": '
                           '[{"y": -0.0}, {"y": Infinity}, ')


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=20),
       st.lists(st.floats(), min_size=1, max_size=20))
def test_saved_real_columns_load_back(tmp_path_factory, finite, mixed):
    path = tmp_path_factory.mktemp("traces") / "traces.jsonl"
    covs = [[float(i)] for i in range(len(finite))]
    trace = RoundTrace(
        round=1, per_client_answers={1: RealColumn(finite)},
        aggregated=Dataset(covariates=covs, labels=RealColumn(finite)))
    core.save_traces([trace], path)
    assert path.read_text() == reference_line(trace)
    assert core.load_traces(path) == [trace]
    # JSON writes NaN and ±inf as NaN and ±Infinity, which json.loads and
    # load_traces read back
    trace = RoundTrace(
        round=1, per_client_answers={1: RealColumn(mixed)},
        aggregated=Dataset(covariates=[[0.0]] * len(mixed),
                           labels=RealColumn(mixed)))
    core.save_traces([trace], path)
    assert path.read_text() == reference_line(trace)
    written = [lab["y"] for lab in json.loads(path.read_text())
               ["per_client_answers"]["1"]]
    np.testing.assert_array_equal(written, mixed)
    # JSON keeps the sign of a zero or an infinity, not that of a NaN
    assert [math.copysign(1, v) for v in written if not math.isnan(v)] == [
        math.copysign(1, v) for v in mixed if not math.isnan(v)]
    # NaN != NaN, so the columns are compared with NaN equal to NaN
    (loaded,) = core.load_traces(path)
    assert (loaded.round, list(loaded.per_client_answers)) == (1, [1])
    for column in (loaded.per_client_answers[1], loaded.aggregated.labels):
        np.testing.assert_array_equal(column.values, mixed)
    np.testing.assert_array_equal(loaded.aggregated.covariates,
                                  [[0.0]] * len(mixed))


def test_a_trace_with_non_finite_labels_loads_back_to_its_bytes(tmp_path):
    golden = DATA / "golden_nonfinite.jsonl"
    core.save_traces(core.load_traces(golden), tmp_path / "traces.jsonl")
    assert (tmp_path / "traces.jsonl").read_bytes() == golden.read_bytes()
