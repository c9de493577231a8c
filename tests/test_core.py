
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fedicl import core
from fedicl.core import (ClientDataset, CommLedger, Dataset, Example,
                         RealLabel, RoundTrace, TextLabel)
from fedicl.data import load_dataset, save_dataset
from fedicl.protocol import charge_protocol_round


def test_ledger_single_append():
    ledger = CommLedger()
    ledger.record([(1, "downlink", 1, 100, "tokens")])
    assert ledger.total("tokens") == 100


def test_ledger_additivity():
    ledger = CommLedger()
    ledger.record([(1, "downlink", 1, 100, "tokens")])
    ledger.record([(1, "uplink", 1, 50, "tokens")])
    assert ledger.total("tokens") == 150


def test_ledger_totals_grouped_by_unit():
    ledger = CommLedger()
    ledger.record([(1, "downlink", 1, 3, "tokens")])
    ledger.record([(1, "downlink", 1, 4, "tokens")])
    ledger.record([(2, "uplink", 2, 128, "bits")])
    assert ledger.total("tokens") == 7
    assert ledger.total("bits") == 128


def test_ledger_empty_total_zero():
    assert [CommLedger().total(unit) for unit in core.UNITS] == [0] * len(
        core.UNITS)


def test_ledger_rejects_negative_payload():
    with pytest.raises(ValueError):
        CommLedger().record([(1, "downlink", 1, -1, "tokens")])


@pytest.mark.parametrize("bad,error", [
    ((2, "uplink", 1, -1, "bits"), "negative payload: -1"),
    ((2, "sideways", 1, 5, "bits"), "unknown direction: 'sideways'"),
    ((2, "uplink", 1, 5, "bytes"), "unknown unit: 'bytes'"),
    ((2, "uplink", 1, 1.5, "bits"), "payload_units must be an int"),
    ((2, "uplink", 1, True, "bits"), "payload_units must be an int")],
    ids=["negative", "direction", "unit", "float", "bool"])
def test_ledger_appends_every_row_or_none(bad, error):
    ledger = CommLedger()
    ledger.record([(1, "downlink", 1, 100, "tokens")])
    good = (2, "downlink", 1, 7, "bits")
    with pytest.raises((TypeError, ValueError), match=error):
        ledger.record(iter([good, bad, good]))
    assert ledger.entries == [(1, "downlink", 1, 100, "tokens")]
    ledger.record(iter([good, good]))
    assert ledger.total("bits") == 14


@given(st.lists(st.tuples(st.integers(1, 9), st.sampled_from(core.DIRECTIONS),
                          st.integers(1, 5), st.integers(0, 1000),
                          st.sampled_from(core.UNITS)), max_size=30),
       st.randoms())
def test_ledger_total_invariant_under_reordering(entries, rnd):
    a, b = CommLedger(), CommLedger()
    for e in entries:
        a.record([e])
    shuffled = list(entries)
    rnd.shuffle(shuffled)
    for e in shuffled:
        b.record([e])
    assert ([a.total(unit) for unit in core.UNITS]
            == [b.total(unit) for unit in core.UNITS])


def test_multi_client_token_budget_hand_total():
    # L=3 clients, K=6 rounds, M=114 queries, 256-token answers; questions
    # charged only in round 1, labels/answers every round.
    L, K, M, tok = 3, 6, 114, 256
    ledger = CommLedger()
    payloads = [(cid, tok, tok) for cid in range(1, L + 1)]
    for k in range(1, K + 1):
        charge_protocol_round(ledger, k, payloads, M, "tokens", [{}] * L)
    hand = L * M * (tok + tok) + L * M * tok            # round 1 down+up
    hand += (K - 1) * (L * M * tok + L * M * tok)       # rounds 2..K
    assert ledger.total("tokens") == hand
    # per-round payload is constant from round 2 onward
    per_round = {ledger.round_total(k, "tokens") for k in range(2, K + 1)}
    assert len(per_round) == 1


def test_query_set_shape_invariant():
    with pytest.raises(ValueError):
        Dataset(covariates=((1.0,), (2.0,)), labels=(RealLabel(0.0),))
    qs = Dataset(covariates=((1.0,), (2.0,)),
                 labels=(RealLabel(0.0), RealLabel(1.0)))
    assert len(qs) == 2


def test_covariate_validation():
    with pytest.raises(ValueError):
        core.as_covariate([1.0, float("nan")])
    with pytest.raises(ValueError):
        core.as_covariate([])
    assert core.as_covariate("why is the sky blue?") == "why is the sky blue?"


def test_client_dataset_dimension_check():
    with pytest.raises(ValueError):
        ClientDataset(1, (Example((1.0,), RealLabel(0.0)),
                          Example((1.0, 2.0), RealLabel(0.0))))
    with pytest.raises(ValueError):
        ClientDataset(1, (Example((1.0,), RealLabel(0.0)),
                          Example("q", RealLabel(0.0))))


def test_dataset_columns_are_checked_once_and_read_only():
    xs = np.array([[1.0, 2.0], [3.0, 4.0]])
    ds = ClientDataset(1, covariates=xs, labels=(RealLabel(1.0),
                                                  RealLabel(2.0)))
    xs[0, 0] = 99.0  # the dataset holds its own copy
    assert ds.covariates[0, 0] == 1.0 and ds.dim == 2
    with pytest.raises(ValueError):
        ds.covariates[0, 0] = 5.0
    with pytest.raises(AttributeError):
        ds.labels = ()
    for bad in ([[1.0, float("nan")]], [[float("inf"), 0.0]], [[]]):
        with pytest.raises(ValueError):
            ClientDataset(1, covariates=bad, labels=(RealLabel(0.0),))
    with pytest.raises(ValueError):
        ClientDataset(1, covariates=xs, labels=(RealLabel(0.0),))
    with pytest.raises(TypeError):
        core.Dataset([Example((1.0,), RealLabel(0.0))], covariates=[[1.0]],
                     labels=(RealLabel(0.0),))
    text = ClientDataset(2, covariates=("q1", "q2"),
                         labels=(TextLabel("a"), TextLabel("b")))
    assert text.covariates == ("q1", "q2") and text.dim is None


def test_derived_datasets_share_the_checked_covariates():
    ds = ClientDataset(3, (Example((1.0,), RealLabel(1.0), category="a"),
                           Example((2.0,), RealLabel(2.0), category="b")))
    relabeled = ds.with_labels([RealLabel(5.0), RealLabel(6.0)])
    assert relabeled.covariates is ds.covariates
    assert relabeled.client_id == 3
    assert core.real_values(relabeled.labels).tolist() == [5.0, 6.0]
    with pytest.raises(ValueError):
        ds.with_labels([RealLabel(5.0)])
    both = core.concat([ds, relabeled])
    assert type(both) is core.Dataset
    assert both.covariates.tolist() == [[1.0], [2.0], [1.0], [2.0]]
    assert both.labels == tuple(ds.labels) + tuple(relabeled.labels)
    # the records' categories stay on the records
    assert both.examples == tuple(Example(x, y) for x, y in (
        ((1.0,), RealLabel(1.0)), ((2.0,), RealLabel(2.0)),
        ((1.0,), RealLabel(5.0)), ((2.0,), RealLabel(6.0))))
    with pytest.raises(ValueError):
        both.covariates[0, 0] = 0.0
    with pytest.raises(ValueError):
        core.concat([ds, ClientDataset(4, (Example("q", TextLabel("a")),))])


def test_dataset_examples_derive_from_the_columns():
    records = (Example((1.0, 2.0), RealLabel(0.5), category="algebra"),
               Example((3.0, 4.0), RealLabel(-1.0)))
    ds = ClientDataset(1, records)
    # covariates and labels: a record's category is not a column
    assert ds.examples == tuple(Example(ex.covariate, ex.label)
                                for ex in records)
    assert not hasattr(ds, "categories")
    assert ClientDataset(1, ds.examples) == ds
    assert ds != ClientDataset(2, records)


def test_real_labels_are_one_read_only_column(tmp_path):
    labels = (RealLabel(1.5), RealLabel(-2.0), RealLabel(0.1))
    ds = ClientDataset(1, covariates=[[1.0], [2.0], [3.0]], labels=labels)
    column = ds.labels
    assert isinstance(column, core.RealColumn)
    assert column.values.tolist() == [1.5, -2.0, 0.1]
    assert column == labels and labels == column and list(column) == [*labels]
    assert column != labels[:2] and column != labels[:2] + (TextLabel("a"),)
    assert column != list(labels)  # as a tuple is not equal to a list
    assert column[-1] == RealLabel(0.1) and type(column[-1].value) is float
    assert column[1:] == labels[1:]
    assert core.real_values(column) is column.values
    with pytest.raises(ValueError):
        column.values[0] = 9.0
    with pytest.raises(AttributeError):
        column.values = np.zeros(3)
    text = ClientDataset(2, (Example("q", TextLabel("a")),))
    assert type(text.labels) is tuple
    # a JSONL round trip, of dataset records and of traces, keeps it equal
    path = tmp_path / "data.jsonl"
    save_dataset(ds.examples, path)
    loaded = ClientDataset(1, load_dataset(path))
    assert loaded == ds and isinstance(loaded.labels, core.RealColumn)
    trace = RoundTrace(round=1, per_client_answers={1: column},
                       aggregated=Dataset(covariates=ds.covariates,
                                          labels=column))
    core.save_traces([trace], tmp_path / "traces.jsonl")
    (back,) = core.load_traces(tmp_path / "traces.jsonl")
    assert back == trace
    assert isinstance(back.per_client_answers[1], core.RealColumn)


@pytest.mark.parametrize("label", [RealLabel(1.5), TextLabel("paris"),
                                   TextLabel("")])
def test_label_json_round_trip(label):
    assert core.label_from_json(core.label_to_json(label)) == label
    # traces and dataset records share one label schema
    record = core.example_to_json(Example("q", label))
    assert record == {"question": "q", **core.label_to_json(label)}


def test_example_json_round_trip():
    for ex in [Example((1.0, 2.0), RealLabel(0.5), category="algebra"),
               Example("what is 2+2?", TextLabel("4")),
               Example("pick one", TextLabel("A"), category="quiz")]:
        assert core.example_from_json(core.example_to_json(ex)) == ex


def test_round_trace_round_trip(tmp_path):
    qs = Dataset(covariates=((1.0,), (2.0,)),
                 labels=(RealLabel(0.25), RealLabel(-1.0)))
    trace = RoundTrace(round=1,
                       per_client_answers={1: (RealLabel(0.5), RealLabel(-2.0)),
                                           2: (RealLabel(0.0), RealLabel(0.0))},
                       aggregated=qs, theory_w=(0.125,))
    path = tmp_path / "traces.jsonl"
    text = RoundTrace(round=2,
                      per_client_answers={1: (TextLabel("a"), TextLabel("b"))},
                      aggregated=Dataset(
                          covariates=("q1", "q2"),
                          labels=(TextLabel("a"), TextLabel(""))))
    core.save_traces([trace, text], path)
    assert core.load_traces(path) == [trace, text]


def test_round_trace_reads_the_older_aggregated_round_key(tmp_path):
    line = {"round": 1, "per_client_answers": {"1": [{"y": 0.5}]},
            "aggregated": {"covariates": [[1.0]], "labels": [{"y": 0.5}],
                           "round": 2}}
    trace = RoundTrace.from_json(line)
    assert trace.aggregated == Dataset(covariates=[[1.0]],
                                       labels=[RealLabel(0.5)])
    # the round lives in the trace alone; it is written once
    core.save_traces([trace], tmp_path / "traces.jsonl")
    saved = json.loads((tmp_path / "traces.jsonl").read_text())
    assert "round" not in saved["aggregated"]
    assert saved["round"] == 1


def test_ledger_csv_export(tmp_path):
    ledger = CommLedger()
    ledger.record([(1, "downlink", 2, 10, "bits")])
    path = tmp_path / "ledger.csv"
    ledger.export_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "round,direction,client_id,payload_units,unit"
    assert lines[1] == "1,downlink,2,10,bits"
