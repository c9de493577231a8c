import csv
import json
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fedicl import cli, core, data, protocol, theory
from fedicl.backend import GenerationParams
from fedicl.core import Example, RealLabel, TextLabel

from mock_llm import MockLlmServer


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run_cli(tmp_path, mode, config=None, out="out", extra=()):
    args = [mode, "--output", str(tmp_path / out)]
    if config is not None:
        args += ["--config", config]
    args += list(extra)
    return cli.main(args), tmp_path / out


# ---------------------------------------------------------------------------
# theory mode
# ---------------------------------------------------------------------------

def test_theory_matched_moments(tmp_path):
    cfg = write_config(tmp_path, {
        "dataset": {"construction": "matched_moments", "d": 2},
        "protocol": {"rounds": 12}})
    code, out = run_cli(tmp_path, "theory", cfg)
    assert code == cli.EXIT_PASS
    report = json.loads((out / "theory_report.json").read_text())
    assert report["pass"] is True
    assert all(abs(r - 0.5) <= 1e-9 for r in report["ratios"])


def test_theory_explicit_instance_fixed_point(tmp_path):
    cfg = write_config(tmp_path, {"dataset": {
        "gamma": [[3.0]],
        "clients": [[{"x": [1.0], "y": 1.0}]],
        "server": [[1.0]]}, "protocol": {"rounds": 10}})
    code, out = run_cli(tmp_path, "theory", cfg)
    assert code == cli.EXIT_PASS
    report = json.loads((out / "theory_report.json").read_text())
    assert report["w_star"] == pytest.approx([3 / 17], abs=1e-12)
    assert report["w_limit"] == pytest.approx([1 / 3], abs=1e-12)


def test_theory_explicit_instance_with_unequal_client_sizes(tmp_path):
    cfg = write_config(tmp_path, {"dataset": {
        "gamma": [[3.0]],
        "clients": [[{"x": [1.0], "y": 1.0}],
                    [{"x": [1.0], "y": 1.0}, {"x": [2.0], "y": 2.0}]],
        "server": [[1.0]]}, "protocol": {"rounds": 10}})
    code, out = run_cli(tmp_path, "theory", cfg)
    assert code == cli.EXIT_PASS
    report = json.loads((out / "theory_report.json").read_text())
    # each client's moment over its own size: (1/1 + 5/2) / 2 = 1.75
    assert report["w_limit"] == pytest.approx([1.75 / 3], abs=1e-12)


def test_theory_synthetic_default_passes(tmp_path):
    cfg = write_config(tmp_path, {"dataset": {"d": 2, "num_clients": 2,
                                              "examples_per_client": 50,
                                              "num_queries": 8},
                                  "protocol": {"rounds": 15}, "seed": 4})
    code, out = run_cli(tmp_path, "theory", cfg)
    assert code == cli.EXIT_PASS


def test_theory_noncontractive_exit_code_and_report(tmp_path):
    # single example x = sqrt(6) with Gamma = [3]: H = 6*6/9 = 4 >= 2
    x = float(np.sqrt(6.0))
    cfg = write_config(tmp_path, {"dataset": {
        "gamma": [[3.0]],
        "clients": [[{"x": [x], "y": 1.0}]],
        "server": [[x]]}, "protocol": {"rounds": 5}})
    code, out = run_cli(tmp_path, "theory", cfg)
    assert code == cli.EXIT_NONCONTRACTIVE
    report = json.loads((out / "theory_report.json").read_text())
    assert report["pass"] is False


def test_malformed_config_exit_code(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, out = run_cli(tmp_path, "theory", str(bad))
    assert code == cli.EXIT_CONFIG
    assert not (out / "theory_report.json").exists()


def test_missing_required_key_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, {"dataset": {"clients": []},
                                  "protocol": {"rounds": 3}})
    code, _ = run_cli(tmp_path, "theory", cfg)
    assert code == cli.EXIT_CONFIG
    assert "missing dataset.gamma" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate mode
# ---------------------------------------------------------------------------

SIM_CFG = {"dataset": {"d": 2, "num_clients": 3, "examples_per_client": 4,
                       "num_queries": 3},
           "protocol": {"rounds": 5},
           "backend": {"kind": "lsa"},
           "seed": 13}


NOT_SPD = [[1.0, 0.0], [0.0, -1.0]]
REMOTE_CFG = dict(SIM_CFG, protocol={"rounds": 2})


def remote(**backend):
    return dict(REMOTE_CFG, backend=dict({"kind": "remote"}, **backend))


def protocol_with(**settings):
    return dict(SIM_CFG, protocol=dict(SIM_CFG["protocol"], **settings))


#: kNN context on the LSA backend: the labels grow every round until they
#: overflow
DIVERGING_CFG = {"seed": 7, "dataset": {"d": 2, "num_clients": 2,
                                        "examples_per_client": 10,
                                        "num_queries": 6},
                 "protocol": {"rounds": 2000, "context_count": 2}}


#: what theory says of a run the recursion does not model
UNMODELED = "config error: the recursion does not model this run's"

#: an instance spelled out in the dataset section
EXPLICIT_CFG = {"gamma": [[3.0]], "clients": [[{"x": [1.0], "y": 1.0}]],
                "server": [[1.0]]}

#: an instance of vector covariates with text labels
TEXT_LABELS_CFG = {"gamma": [[3.0]], "server": [[1.0], [2.0]],
                   "clients": [[{"x": [1.0], "answer": "one"},
                                {"x": [2.0], "answer": "two"}]]}
TEXT_LABELS = ("config error: the backends of an 'average' run read real "
               "labels, not the text labels of client 1")


@pytest.mark.parametrize("mode,config,message", [
    ("theory", {"dataset": {"gamma": NOT_SPD, "server": [[1.0, 0.0]],
                            "clients": [[{"x": [1.0, 0.0], "y": 1.0}]]}},
     "gamma must be positive definite"),
    ("simulate", dict(SIM_CFG, dataset={
        "gamma": NOT_SPD, "server": [[1.0, 0.0]],
        "clients": [[{"x": [1.0, 0.0], "y": 1.0}]]}),
     "gamma must be positive definite"),
    ("theory", {"dataset": {"lambda": NOT_SPD}},
     "lambda must be positive definite"),
    ("simulate", dict(SIM_CFG, dataset={"lambda": NOT_SPD}),
     "lambda must be positive definite"),
    ("theory", {"dataset": {"d": 0}}, "non-empty"),
    ("simulate", dict(SIM_CFG, dataset={"d": 0}), "non-empty"),
    ("theory", {"protocol": {"rounds": 0}}, "rounds must be >= 1"),
    ("theory", {"dataset": {"examples_per_client": 0}},
     "at least one example"),
    ("simulate", dict(SIM_CFG, dataset={"examples_per_client": 0}),
     "at least one example"),
    ("theory", [1, 2], "must hold a JSON object"),
    ("simulate", "not an object", "must hold a JSON object"),
    ("simulate", protocol_with(context_count=2.5),
     "context_count must be an int"),
    ("simulate", protocol_with(context_count=True),
     "context_count must be an int"),
    ("simulate", protocol_with(rounds=2.5), "rounds must be an int"),
    ("simulate", remote(max_retries=-1), "max_retries must be >= 0"),
    ("simulate", remote(timeout_ms=0), "timeout_ms must be > 0"),
    ("simulate", remote(context_count=5),
     "not a setting: backend.context_count"),
    ("simulate", remote(template="haiku"), "not a setting: backend.template"),
    ("simulate", dict(REMOTE_CFG, protocol=dict(REMOTE_CFG["protocol"],
                                                options=["A", "B"])),
     "not a setting: protocol.options"),
    ("simulate", dict(SIM_CFG, protocol=3), "protocol must be a JSON object"),
    ("simulate", dict(SIM_CFG, backend=[]), "backend must be a JSON object"),
    ("simulate", dict(SIM_CFG, dataset="x"), "dataset must be a JSON object"),
    ("simulate", remote(endpoint="localhost:8000"), "URL with a host"),
    ("simulate", remote(endpoint="ftp://x"), "URL with a host"),
    ("simulate", remote(temperature=float("nan")),
     "temperature must be a finite"),
    ("simulate", remote(temperature=True), "temperature must be a number"),
    ("simulate", remote(temperature="0.5"), "temperature must be a number"),
    ("simulate", remote(model_name=5), "model_name must be a str"),
    ("theory", {"dataset": {"gamma": [[1.0, 0.0], [0.0, 1.0]],
                            "server": [[1.0, 0.0]],
                            "clients": [[{"x": [1.0, 0.0], "y": "nan"}]]}},
     "not finite"),
    ("theory", {"theory": 5}, "not a setting: theory"),
    ("theory", {"theory": {"d": 3, "rounds": 4}}, "not a setting: theory"),
    ("simulate", dict(SIM_CFG, theory={"clients": [], "gamma": [[1.0]]}),
     "not a setting: theory"),
    ("theory", dict(SIM_CFG, protocol={"aggregation": "average"}),
     "not a setting: protocol.aggregation"),
    ("theory", {"dataset": {"gamma": [[1.0]], "server": [[1.0]]}},
     "missing dataset.clients"),
    ("simulate", dict(SIM_CFG, dataset={
        "gamma": np.eye(3).tolist(), "server": [[1.0, 0.0]],
        "clients": [[{"x": [1.0, 0.0], "y": 1.0}]]},
        protocol={"variant": "fedicl_free"}), "differ in dimension"),
    ("simulate", dict(SIM_CFG, dataset={"d": 2, "lambda": np.eye(3).tolist()},
                      protocol={"context_count": 2}),
     "config error: dataset: gamma and the covariates differ in dimension"),
    ("partition", {"partition": 1, "dataset": {"path": __file__}},
     "partition must be a JSON object"),
    # json reads Infinity and NaN; the settings are checked before the data
    ("partition", {"partition": {"num_clients": 2, "alpha": float("inf")},
                   "dataset": {"path": __file__}},
     "config error: partition: alpha must be positive and finite"),
    ("partition", {"partition": {"num_clients": 2, "alpha": 1.0,
                                 "prior": [float("nan"), 1.0]},
                   "dataset": {"path": __file__}},
     "config error: partition: prior must be a probability vector"),
    # a list-valued setting must be a JSON array, not a number, a string
    # or an object (whose keys would be read as its entries)
    ("partition", {"partition": {"num_clients": 2, "alpha": 1.0,
                                 "prior": 5}, "dataset": {"path": __file__}},
     "config error: partition: prior must be a list, got 5"),
    ("partition", {"partition": {"num_clients": 2, "alpha": 1.0,
                                 "prior": {"a": 0.5, "b": 0.5}},
                   "dataset": {"path": __file__}},
     "config error: partition: prior must be a list, got {'a': 0.5"),
    ("partition", {"partition": {"num_clients": 2, "alpha": 1.0,
                                 "prior": "ab"}, "dataset": {"path": __file__}},
     "config error: partition: prior must be a list, got 'ab'"),
    ("simulate", dict(remote(), dataset={"client_paths": "c1.jsonl",
                                         "query_path": __file__}),
     "config error: dataset: client_paths must be a list, got 'c1.jsonl'"),
    ("simulate", dict(remote(), dataset={"client_paths": {__file__: 1},
                                         "query_path": __file__}),
     "config error: dataset: client_paths must be a list, got {"),
    ("simulate", dict(remote(), dataset=dict(EXPLICIT_CFG,
                                             server={"a": [1.0]})),
     "config error: dataset: server must be a list, got {'a': [1.0]}"),
    ("theory", {"dataset": dict(EXPLICIT_CFG, clients="ab")},
     "config error: dataset: clients must be a list, got 'ab'"),
    ("theory", {"dataset": dict(EXPLICIT_CFG, clients=["ab"])},
     "config error: dataset: clients[0] must be a list, got 'ab'"),
    ("simulate", dict(SIM_CFG, dataset=EXPLICIT_CFG,
                      protocol={"seed": -1}), "seed must be >= 0"),
    # simulate runs these unverified; theory has no verdict to give
    ("theory", DIVERGING_CFG, f"{UNMODELED} protocol.context_count;"),
    ("theory", protocol_with(variant="fedicl_free"),
     f"{UNMODELED} protocol.variant;"),
    ("theory", protocol_with(variant="fedicl_gt"),
     f"{UNMODELED} protocol.variant;"),
    ("theory", protocol_with(init_mode="random"),
     f"{UNMODELED} protocol.init_mode;"),
    ("theory", remote(), f"{UNMODELED} backend.kind;"),
    ("theory", {"dataset": {"construction": "matched_moment"}},
     "config error: dataset: unknown construction: 'matched_moment'"),
    ("simulate", dict(SIM_CFG, dataset={"construction": None}),
     "config error: dataset: unknown construction: None"),
    # an LSA backend reads real labels, which these runs of text labels
    # hold nowhere; the recursion checks the other runs before simulating
    ("simulate", dict(SIM_CFG, dataset=TEXT_LABELS_CFG,
                      protocol={"init_mode": "random"}), TEXT_LABELS),
    ("simulate", dict(SIM_CFG, dataset=TEXT_LABELS_CFG,
                      protocol={"context_count": 1}), TEXT_LABELS),
    ("simulate", dict(SIM_CFG, dataset=TEXT_LABELS_CFG,
                      protocol={"variant": "fedicl_gt"}), TEXT_LABELS),
], ids=["theory-gamma-not-spd", "simulate-gamma-not-spd",
        "theory-lambda-not-spd",
        "simulate-lambda-not-spd", "theory-d-0", "simulate-d-0",
        "theory-rounds-0", "theory-no-examples", "simulate-no-examples",
        "theory-list-config", "simulate-string-config", "float-context-count",
        "bool-context-count", "float-rounds", "negative-retries",
        "zero-timeout", "backend-context-count", "backend-template",
        "protocol-options", "protocol-not-object",
        "backend-not-object", "dataset-not-object", "endpoint-no-scheme",
        "endpoint-ftp", "nan-temperature", "bool-temperature",
        "str-temperature", "int-model-name", "theory-nan-label",
        "theory-not-object", "theory-moved-key", "simulate-theory-key",
        "theory-aggregation", "theory-explicit-no-clients",
        "simulate-gamma-dimension", "simulate-synthetic-gamma-dimension",
        "partition-not-object", "partition-infinite-alpha",
        "partition-nan-prior", "int-prior", "object-prior", "str-prior",
        "str-client-paths", "object-client-paths", "object-server",
        "str-clients", "str-client-rows", "negative-seed", "theory-knn", "theory-free",
        "theory-gt", "theory-random-init", "theory-remote",
        "theory-unknown-construction", "simulate-null-construction",
        "random-init-text-labels", "knn-text-labels", "gt-text-labels"])
def test_a_config_the_program_rejects_exits_2(tmp_path, capsys, monkeypatch,
                                              mode, config, message):
    with MockLlmServer() as srv:
        monkeypatch.setenv("FEDICL_ENDPOINT", srv.url)  # for remote backends
        code, out = run_cli(tmp_path, mode, write_config(tmp_path, config))
        assert srv.requests == []
    assert code == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (out / "traces.jsonl").exists()
    assert not (out / "theory_report.json").exists()


def test_fedicl_free_runs_on_text_labels_it_never_reads(tmp_path):
    cfg = write_config(tmp_path, dict(SIM_CFG, dataset=TEXT_LABELS_CFG,
                                      protocol={"variant": "fedicl_free"}))
    code, out = run_cli(tmp_path, "simulate", cfg)
    assert code == cli.EXIT_PASS
    assert (out / "traces.jsonl").exists()


def every_key_config(tmp_path):
    """A config that sets every key of every section but those of the
    other dataset constructions, for all four commands."""
    return {"seed": 5,
            "dataset": {"d": 2, "num_clients": 2, "examples_per_client": 4,
                        "num_queries": 3, "t_prompt": 8,
                        "lambda": [[1.0, 0.0], [0.0, 2.0]],
                        "path": make_corpus_file(tmp_path)[0]},
            "partition": {"num_clients": 2, "alpha": 0.5,
                          "prior": [0.5, 0.5], "seed": 3},
            "protocol": {"rounds": 3, "variant": "fedicl",
                         "context_count": None, "init_mode": "zeros",
                         "seed": 1},
            "backend": {"kind": "lsa", "endpoint": "http://127.0.0.1:9",
                        "temperature": 0.2, "max_tokens": 64,
                        "model_name": "m", "timeout_ms": 1000,
                        "max_retries": 1}}


@pytest.mark.parametrize("construction", [
    {}, {"construction": "matched_moments"}, EXPLICIT_CFG],
    ids=["synthetic", "matched-moments", "explicit"])
def test_every_key_of_the_config_is_read_by_every_command(tmp_path,
                                                          construction):
    config = every_key_config(tmp_path)
    config["dataset"].update(construction)
    cfg = write_config(tmp_path, config)
    for mode in ("theory", "simulate", "partition"):
        code, _ = run_cli(tmp_path, mode, cfg, out=mode)
        assert code == cli.EXIT_PASS, mode
    code, _ = run_cli(tmp_path, "report", cfg, out="report", extra=[
        "--traces", str(tmp_path / "simulate" / "traces.jsonl")])
    assert code == cli.EXIT_PASS


@pytest.mark.parametrize("section,value,line", [
    ("backend", {"max_tokens": 2.5},
     "config error: backend: max_tokens must be an int, got 2.5"),
    ("backend", {"temperature": "hot"},
     "config error: backend: temperature must be a number, got 'hot'"),
    ("backend", {"max_retries": -1},
     "config error: backend: max_retries must be >= 0"),
    ("backend", {"kind": "bogus"},
     "config error: unknown backend kind: 'bogus'"),
    ("protocol", {"variant": "nope"},
     "config error: protocol: unknown variant: 'nope'"),
    ("protocol", {"rounds": 0},
     "config error: protocol: rounds must be >= 1"),
    ("backend", {"kind": "remote", "endpoint": "ftp://x"},
     "config error: endpoint must be an http or https URL with a host, "
     "got 'ftp://x'"),
    ("backend", {"endpoint": "ftp://x"},
     "config error: endpoint must be an http or https URL with a host, "
     "got 'ftp://x'"),
    ("backend", {"kind": "remote", "endpoint": None},
     "config error: remote backend needs backend.endpoint or "
     "FEDICL_ENDPOINT"),
    ("backend", {"endpoint": 5},
     "config error: backend: endpoint must be a str, got 5"),
], ids=["float-max-tokens", "str-temperature", "negative-retries",
        "unknown-kind", "unknown-variant", "zero-rounds", "ftp-endpoint",
        "lsa-ftp-endpoint", "remote-without-endpoint", "int-endpoint"])
def test_theory_and_partition_reject_the_run_settings_simulate_rejects(
        tmp_path, capsys, monkeypatch, section, value, line):
    monkeypatch.delenv("FEDICL_ENDPOINT", raising=False)
    config = every_key_config(tmp_path)
    config[section].update(value)
    cfg = write_config(tmp_path, config)
    for mode in ("simulate", "theory", "partition"):
        code, out = run_cli(tmp_path, mode, cfg, out=mode)
        assert code == cli.EXIT_CONFIG, mode
        assert capsys.readouterr().err == line + "\n", mode
        assert not out.exists(), mode


@pytest.mark.parametrize("section,key", [
    (None, "sed"), ("dataset", "num_client"), ("protocol", "round"),
    ("backend", "max_token"), ("partition", "alpah")],
    ids=["top-level", "dataset", "protocol", "backend", "partition"])
@pytest.mark.parametrize("mode", ["theory", "simulate", "partition"])
def test_a_key_no_command_reads_exits_2(tmp_path, capsys, mode, section,
                                        key):
    config = every_key_config(tmp_path)
    (config if section is None else config[section])[key] = 1
    code, out = run_cli(tmp_path, mode, write_config(tmp_path, config))
    assert code == cli.EXIT_CONFIG
    name = key if section is None else f"{section}.{key}"
    assert capsys.readouterr().err == f"config error: not a setting: {name}\n"
    assert not out.exists()


@pytest.mark.parametrize("mode", ["theory", "simulate", "partition"])
def test_every_unknown_key_is_named_in_config_order(tmp_path, capsys, mode):
    config = every_key_config(tmp_path)
    config["sed"] = 4
    config["dataset"]["num_client"] = 3
    config["protocol"].update(round=2, contxt_count=1)
    config["backend"]["max_token"] = 8
    code, _ = run_cli(tmp_path, mode, write_config(tmp_path, config))
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: not a setting: sed, dataset.num_client, "
        "protocol.round, protocol.contxt_count, backend.max_token\n")


def test_synthesize_instance_draws_arrays_with_per_row_labels():
    for seed in range(1, 8):
        for d in (1, 2, 3, 8, 16):
            cfg = {"d": d, "num_clients": 2, "examples_per_client": 9,
                   "num_queries": 5}
            clients, queries, _ = cli.synthesize_instance(cfg, seed)
            w_true = cli._substream(seed, "instance").standard_normal(d)
            assert isinstance(queries, np.ndarray)
            assert queries.shape == (5, d) and not queries.flags.writeable
            for ds in clients:
                assert ds.labels.values.tolist() == [
                    float(x @ w_true) for x in ds.covariates]


@pytest.mark.parametrize("backend,want", [
    ({}, GenerationParams()),
    ({"temperature": 1, "model_name": "m", "max_tokens": 16},
     GenerationParams(temperature=1.0, model_name="m", max_tokens=16)),
    ({"temperature": 0.5, "timeout_ms": 2000, "max_retries": 0},
     GenerationParams(temperature=0.5, timeout_ms=2000, max_retries=0)),
], ids=["defaults", "int-temperature", "float-temperature"])
def test_a_valid_backend_config_builds_the_params_it_gives(backend, want):
    config = remote(endpoint="http://127.0.0.1:9", **backend)
    pconf, kind, endpoint, params = cli._run_settings(config, 0)
    assert (kind, endpoint, params) == ("remote", "http://127.0.0.1:9", want)
    assert pconf.aggregation == "fusion"
    # the body's temperature is a JSON float, as float() made it before
    assert type(params.temperature) is float


@pytest.mark.parametrize("mode,config", [
    ("theory", {"protocol": {"rounds": 2.5}}),
    ("theory", {"protocol": {"rounds": True}}),
    ("theory", {"dataset": {"d": True}}),
    ("simulate", dict(SIM_CFG, dataset=dict(SIM_CFG["dataset"],
                                            num_clients=2.7))),
    ("simulate", dict(SIM_CFG, dataset=dict(SIM_CFG["dataset"], d=True))),
    ("simulate", dict(SIM_CFG, backend={"kind": "lsa", "max_tokens": 2.5})),
    ("simulate", dict(SIM_CFG, seed=1.5)),
    ("simulate", dict(SIM_CFG, protocol={"rounds": 2, "seed": 1.5})),
], ids=["theory-float-rounds", "theory-bool-rounds", "theory-bool-d",
        "float-num-clients", "bool-d", "float-max-tokens", "float-seed",
        "float-protocol-seed"])
def test_a_count_that_is_not_an_int_exits_2(tmp_path, capsys, mode, config):
    code, out = run_cli(tmp_path, mode, write_config(tmp_path, config))
    assert code == cli.EXIT_CONFIG
    assert "must be an int" in capsys.readouterr().err
    assert not (out / "traces.jsonl").exists()
    assert not (out / "theory_report.json").exists()


def test_simulate_verify_theory(tmp_path):
    cfg = write_config(tmp_path, SIM_CFG)
    code, out = run_cli(tmp_path, "simulate", cfg)
    assert code == cli.EXIT_PASS
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["theory_ok"] is True
    assert max(metrics["max_theory_deviation_per_round"]) <= 1e-9
    assert len(core.load_traces(out / "traces.jsonl")) == 5
    assert (out / "ledger.csv").exists()


@pytest.mark.parametrize("protocol_cfg", [
    {"variant": "fedicl"}, {"variant": "fedicl_ub"},
    {"init_mode": "backend_generated"}], ids=["fedicl", "ub", "lsa-init"])
def test_simulate_verify_theory_passes_on_the_runs_it_models(tmp_path,
                                                            protocol_cfg):
    cfg = dict(SIM_CFG, protocol=dict(SIM_CFG["protocol"], **protocol_cfg))
    code, out = run_cli(tmp_path, "simulate", write_config(tmp_path, cfg))
    assert code == cli.EXIT_PASS
    assert json.loads((out / "metrics.json").read_text())["theory_ok"] is True
    assert all(t.theory_w is not None
               for t in core.load_traces(out / "traces.jsonl"))


@pytest.mark.parametrize("protocol_cfg", [
    {"variant": "fedicl_free"}, {"variant": "fedicl_gt"},
    {"context_count": 3}, {"variant": "fedicl_ub", "context_count": 3},
    {"init_mode": "random"}],
    ids=["free", "gt", "knn", "ub-knn", "random-init"])
def test_simulate_verify_theory_rejects_runs_the_recursion_does_not_model(
        tmp_path, protocol_cfg):
    # the run goes ahead unverified: no theory_w, no verification keys
    cfg = write_config(tmp_path, dict(
        SIM_CFG, protocol=dict(SIM_CFG["protocol"], **protocol_cfg)))
    code, out = run_cli(tmp_path, "simulate", cfg)
    assert code == cli.EXIT_PASS
    traces = core.load_traces(out / "traces.jsonl")
    assert traces and all(t.theory_w is None for t in traces)
    assert json.loads((out / "metrics.json").read_text()) == {
        "rounds": len(traces)}


def test_simulate_exits_1_when_a_modeled_run_leaves_the_recursion(
        tmp_path, monkeypatch):
    iterate = theory.iterate_recursion

    def shifted(state, rounds):
        state = iterate(state, rounds)
        return replace(state, w_trace=tuple(w + 1e-6 for w in state.w_trace))

    monkeypatch.setattr(theory, "iterate_recursion", shifted)
    code, out = run_cli(tmp_path, "simulate", write_config(tmp_path, SIM_CFG))
    assert code == cli.EXIT_FAIL
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["theory_ok"] is False
    assert min(metrics["max_theory_deviation_per_round"]) > 1e-9


def test_simulate_exits_4_when_a_run_diverges(tmp_path, capsys):
    # numpy's overflow warnings would raise here: the run must give none
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(tmp_path, "simulate",
                            write_config(tmp_path, DIVERGING_CFG))
    assert code == cli.EXIT_NONCONTRACTIVE
    traces = core.load_traces(out / "traces.jsonl")
    assert len(traces) == 2000
    finite = [np.isfinite(core.real_values(t.aggregated.labels)).all()
              for t in traces]
    first = finite.index(False) + 1
    assert first > 1
    assert capsys.readouterr().err == (
        f"run diverged: round {first}'s labels are not finite\n")
    assert json.loads((out / "metrics.json").read_text()) == {"rounds": 2000}
    assert (out / "ledger.csv").read_text().count("\n") > 2000
    code, _ = run_cli(tmp_path, "report", out="report",
                      extra=["--traces", str(out / "traces.jsonl")])
    assert code == cli.EXIT_PASS


def test_theory_and_simulate_check_one_instance(tmp_path):
    config = {"dataset": {"d": 3, "num_clients": 4, "examples_per_client": 6,
                          "num_queries": 5, "t_prompt": 4},
              "protocol": {"rounds": 4}, "seed": 21}
    cfg = write_config(tmp_path, config)
    code, tout = run_cli(tmp_path, "theory", cfg, out="theory")
    assert code == cli.EXIT_PASS
    code, sout = run_cli(tmp_path, "simulate", cfg, out="simulate")
    assert code == cli.EXIT_PASS
    state = theory.TheoryState.initialize(*cli.load_instance(config, 21))
    state = theory.iterate_recursion(state, 4)
    report = json.loads((tout / "theory_report.json").read_text())
    assert len(report["w_limit"]) == 3
    assert report["w_limit"] == state.w_limit.tolist()
    traces = core.load_traces(sout / "traces.jsonl")
    assert [list(t.theory_w) for t in traces] == [
        w.tolist() for w in state.w_trace[1:]]
    assert json.loads((sout / "metrics.json").read_text())["theory_ok"]


#: explicit clients of equal sizes and of sizes 1 and 3, on one Gamma
AGREEMENT_CLIENTS = {
    "equal": [[{"x": [1.0, 0.0], "y": 1.0}, {"x": [0.5, -1.0], "y": 0.25}],
              [{"x": [0.5, 1.0], "y": -1.0}, {"x": [1.0, 2.0], "y": 0.5}]],
    "unequal": [[{"x": [1.0, 0.0], "y": 1.0}],
                [{"x": [0.5, 1.0], "y": -1.0}, {"x": [1.0, 2.0], "y": 0.5},
                 {"x": [-1.0, 0.25], "y": 2.0}]]}


@pytest.mark.parametrize("sizes", ["equal", "unequal"])
@pytest.mark.parametrize("variant", ["fedicl", "fedicl_ub"])
def test_theory_reports_the_recursion_simulate_verifies(tmp_path, variant,
                                                        sizes):
    config = {"dataset": {"gamma": [[2.0, 0.5], [0.5, 1.5]],
                          "clients": AGREEMENT_CLIENTS[sizes],
                          "server": [[1.0, 1.0], [0.5, -1.0]]},
              "protocol": {"rounds": 6, "variant": variant}}
    cfg = write_config(tmp_path, config)
    code, tout = run_cli(tmp_path, "theory", cfg, out="theory")
    assert code == cli.EXIT_PASS
    code, sout = run_cli(tmp_path, "simulate", cfg, out="simulate")
    assert code == cli.EXIT_PASS
    report = json.loads((tout / "theory_report.json").read_text())
    theory_w = [list(t.theory_w) for t in core.load_traces(
        sout / "traces.jsonl")]
    # from w_1 = 0, simulate's first iterate w_2 is half of w_limit
    assert report["w_limit"] == [2 * w for w in theory_w[0]]
    # fedicl_ub runs one client holding every client's examples
    clients, queries, gamma_mat = cli.load_instance(config, 0)
    state = theory.iterate_recursion(theory.TheoryState.initialize(
        [core.concat(clients)] if variant == "fedicl_ub" else clients,
        queries, gamma_mat), 6)
    assert theory_w == [w.tolist() for w in state.w_trace[1:]]
    assert report["w_limit"] == state.w_limit.tolist()
    assert report["w_star"] == state.w_star.tolist()
    assert report["h_norm"] == state.h_norm and report["rounds"] == 6


@pytest.mark.parametrize("variant", ["fedicl", "fedicl_ub"])
def test_simulate_verifies_explicit_clients_of_unequal_sizes(tmp_path,
                                                             variant):
    clients = [[{"x": [1.0, 0.0], "y": 1.0}],
               [{"x": [0.5, 1.0], "y": -1.0}, {"x": [1.0, 2.0], "y": 0.5},
                {"x": [-1.0, 0.25], "y": 2.0}]]
    cfg = write_config(tmp_path, {
        "dataset": {"gamma": [[2.0, 0.5], [0.5, 1.5]], "clients": clients,
                    "server": [[1.0, 1.0], [0.5, -1.0]]},
        "protocol": {"rounds": 6, "variant": variant}})
    code, out = run_cli(tmp_path, "simulate", cfg)
    assert code == cli.EXIT_PASS
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["theory_ok"] is True
    assert len(metrics["max_theory_deviation_per_round"]) == 6


def test_simulate_verifies_the_matched_moment_instance(tmp_path):
    cfg = write_config(tmp_path, {
        "dataset": {"construction": "matched_moments", "d": 3},
        "protocol": {"rounds": 5}})
    code, out = run_cli(tmp_path, "simulate", cfg)
    assert code == cli.EXIT_PASS
    assert json.loads((out / "metrics.json").read_text())["theory_ok"] is True


def test_simulate_gt_variant_single_round(tmp_path):
    cfg = dict(SIM_CFG)
    cfg["protocol"] = {"rounds": 6, "variant": "fedicl_gt"}
    code, out = run_cli(tmp_path, "simulate", write_config(tmp_path, cfg))
    assert code == cli.EXIT_PASS
    assert len(core.load_traces(out / "traces.jsonl")) == 1


def test_simulate_same_seed_byte_identical(tmp_path):
    cfg = write_config(tmp_path, SIM_CFG)
    run_cli(tmp_path, "simulate", cfg, out="a")
    run_cli(tmp_path, "simulate", cfg, out="b")
    assert (tmp_path / "a/traces.jsonl").read_bytes() == \
        (tmp_path / "b/traces.jsonl").read_bytes()
    assert (tmp_path / "a/ledger.csv").read_bytes() == \
        (tmp_path / "b/ledger.csv").read_bytes()


def test_simulate_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, SIM_CFG)
    run_cli(tmp_path, "simulate", cfg, out="a")
    run_cli(tmp_path, "simulate", cfg, out="c", extra=["--seed", "99"])
    assert (tmp_path / "a/traces.jsonl").read_bytes() != \
        (tmp_path / "c/traces.jsonl").read_bytes()


def test_simulate_seed_flag_seeds_the_protocol_as_the_config_seed_does(
        tmp_path):
    # random C_1 comes from the protocol seed, the instance from the root seed
    protocol_cfg = dict(SIM_CFG["protocol"], init_mode="random")
    flagged = write_config(tmp_path, dict(SIM_CFG, protocol=protocol_cfg),
                           name="flagged.json")
    seeded = write_config(tmp_path, dict(SIM_CFG, protocol=protocol_cfg,
                                         seed=99), name="seeded.json")
    run_cli(tmp_path, "simulate", flagged, out="flag", extra=["--seed", "99"])
    run_cli(tmp_path, "simulate", seeded, out="config")
    assert (tmp_path / "flag/traces.jsonl").read_bytes() == \
        (tmp_path / "config/traces.jsonl").read_bytes()


def test_simulate_from_dataset_files(tmp_path):
    rng = np.random.default_rng(17)
    paths = []
    for cid in (1, 2):
        examples = [Example(tuple(x), RealLabel(float(x.sum())))
                    for x in rng.standard_normal((4, 2))]
        p = tmp_path / f"client_{cid}.jsonl"
        data.save_dataset(examples, p)
        paths.append(str(p))
    queries = [Example(tuple(x), RealLabel(0.0))
               for x in rng.standard_normal((3, 2))]
    qpath = tmp_path / "queries.jsonl"
    data.save_dataset(queries, qpath)
    cfg = write_config(tmp_path, {
        "dataset": {"client_paths": paths, "query_path": str(qpath),
                    "d": 2},
        "protocol": {"rounds": 3},
        "backend": {"kind": "lsa"}})
    # file-backed datasets carry no Gamma, so the lsa backend is unavailable
    code, _ = run_cli(tmp_path, "simulate", cfg)
    assert code == cli.EXIT_CONFIG


def test_simulate_verify_theory_needs_synthetic_setup(tmp_path, capsys):
    # client files give no Gamma, so theory has no recursion to check
    p = tmp_path / "c.jsonl"
    data.save_dataset([Example((1.0,), RealLabel(1.0))], p)
    q = tmp_path / "q.jsonl"
    data.save_dataset([Example((1.0,), RealLabel(0.0))], q)
    cfg = write_config(tmp_path, {
        "dataset": {"client_paths": [str(p)], "query_path": str(q)}})
    code, out = run_cli(tmp_path, "theory", cfg)
    assert code == cli.EXIT_CONFIG
    assert "client files give none" in capsys.readouterr().err
    assert not (out / "theory_report.json").exists()


def test_simulate_rejects_an_empty_query_file(tmp_path, capsys):
    p = tmp_path / "c.jsonl"
    data.save_dataset([Example((1.0,), RealLabel(1.0))], p)
    q = tmp_path / "q.jsonl"
    q.write_text("\n")
    # a config valid but for the query file; the endpoint is never contacted
    cfg = write_config(tmp_path, {
        "dataset": {"client_paths": [str(p)], "query_path": str(q)},
        "backend": {"kind": "remote", "endpoint": "http://127.0.0.1:9"}})
    code, out = run_cli(tmp_path, "simulate", cfg)
    assert code == cli.EXIT_CONFIG
    assert "at least one covariate" in capsys.readouterr().err
    assert not (out / "traces.jsonl").exists()


def write_files(tmp_path, client_records, query_records):
    """Client files and a query file of JSONL records, as a dataset
    section."""
    paths = []
    for cid, records in enumerate(client_records, 1):
        path = tmp_path / f"client_{cid}.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        paths.append(str(path))
    qpath = tmp_path / "queries.jsonl"
    qpath.write_text("".join(json.dumps(r) + "\n" for r in query_records))
    return {"client_paths": paths, "query_path": str(qpath)}


TEXT_CLIENTS = [[{"question": "What orbits the Earth?", "answer": "the Moon"},
                 {"question": "What is H2O?", "answer": "water"}]]
TEXT_QUERIES = [{"question": "What causes tides?", "answer": ""}]
VECTOR_CLIENTS = [[{"x": [1.0, 0.0], "y": 1.0}, {"x": [0.0, 1.0], "y": 2.0}]]
VECTOR_QUERIES = [{"x": [0.5, 0.5], "y": 0.0}]


@pytest.mark.parametrize("clients,queries,protocol_cfg,kind,message", [
    (VECTOR_CLIENTS, VECTOR_QUERIES, {"variant": "fedicl_lb"}, "remote",
     "server reference set"),
    (TEXT_CLIENTS, TEXT_QUERIES, {"context_count": 1}, "remote",
     "needs an embedder"),
    (TEXT_CLIENTS, VECTOR_QUERIES, {"context_count": 1}, "remote",
     "needs an embedder"),
    (TEXT_CLIENTS, TEXT_QUERIES + VECTOR_QUERIES, {}, "remote",
     "text and vector covariates mixed"),
    (VECTOR_CLIENTS, VECTOR_QUERIES, {}, "lsa", "client files give none"),
    (TEXT_CLIENTS, TEXT_QUERIES, {"init_mode": "random"}, "remote",
     "needs vector queries"),
    ([], TEXT_QUERIES, {}, "remote", "no clients"),
    (VECTOR_CLIENTS + [[{"x": [1.0, 0.0, 2.0], "y": 1.0}]], VECTOR_QUERIES,
     {"variant": "fedicl_ub"}, "remote", "cannot merge"),
], ids=["lb", "text-knn", "text-clients-knn", "mixed-queries", "lsa-files",
        "text-random", "no-clients", "ub-unequal-dims"])
def test_simulate_rejects_a_run_it_cannot_make(tmp_path, capsys, clients,
                                               queries, protocol_cfg, kind,
                                               message):
    with MockLlmServer() as srv:
        cfg = write_config(tmp_path, {
            "dataset": write_files(tmp_path, clients, queries),
            "protocol": dict({"rounds": 2}, **protocol_cfg),
            "backend": {"kind": kind, "endpoint": srv.url}})
        code, out = run_cli(tmp_path, "simulate", cfg)
        assert srv.requests == []
    assert code == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (out / "traces.jsonl").exists()


@pytest.mark.parametrize("missing", [
    "client_paths", "query_path", "dataset_path", "traces"])
def test_a_missing_input_file_exits_2(tmp_path, capsys, missing):
    gone = str(tmp_path / "gone.jsonl")
    files = write_files(tmp_path, VECTOR_CLIENTS, VECTOR_QUERIES)
    mode, extra = "simulate", []
    # a config valid but for the file; the endpoint is never contacted
    config = {"dataset": files,
              "backend": {"kind": "remote", "endpoint": "http://127.0.0.1:9"}}
    if missing == "client_paths":
        files["client_paths"].append(gone)
    elif missing == "query_path":
        files["query_path"] = gone
    elif missing == "dataset_path":
        mode, config = "partition", {"dataset": {"path": gone}, "partition": {
            "num_clients": 2, "alpha": 1.0}}
    else:
        mode, config, extra = "report", None, ["--traces", gone]
    if config is not None:
        config = write_config(tmp_path, config)
    code, _ = run_cli(tmp_path, mode, config, extra=extra)
    assert code == cli.EXIT_CONFIG
    assert gone in capsys.readouterr().err


@pytest.mark.parametrize("size", [{"num_clients": 0}, {"num_queries": 0}])
def test_simulate_rejects_a_synthetic_dataset_with_nothing_to_run(
        tmp_path, capsys, size):
    cfg = dict(SIM_CFG, dataset=dict(SIM_CFG["dataset"], **size))
    code, out = run_cli(tmp_path, "simulate", write_config(tmp_path, cfg))
    assert code == cli.EXIT_CONFIG
    assert ("num_clients and num_queries must be >= 1"
            in capsys.readouterr().err)
    assert not (out / "traces.jsonl").exists()


def test_simulate_text_files_end_to_end(tmp_path):
    with MockLlmServer(reply="the Moon's pull") as srv:
        cfg = write_config(tmp_path, {
            "dataset": write_files(tmp_path, TEXT_CLIENTS * 2, TEXT_QUERIES),
            "protocol": {"rounds": 2},
            "backend": {"kind": "remote", "endpoint": srv.url}})
        code, out = run_cli(tmp_path, "simulate", cfg)
        # 2 rounds x 2 clients x (2 examples + 1 query)
        assert len(srv.requests) == 12
        observed = sum(u["prompt_tokens"] + u["completion_tokens"]
                       for u in srv.usages)
    assert code == cli.EXIT_PASS
    (_, last) = core.load_traces(out / "traces.jsonl")
    assert last.aggregated.labels == (TextLabel("the Moon's pull"),)
    # ledger.csv: per round and client, a downlink and an uplink row of
    # nominal tokens and of the tokens the endpoint reported
    with open(out / "ledger.csv") as fh:
        rows = list(csv.DictReader(fh))
    units = Counter(row["unit"] for row in rows)
    assert units == {"tokens": 2 * 2 * 2, "observed_tokens": 2 * 2 * 2}
    assert sum(int(row["payload_units"]) for row in rows
               if row["unit"] == "observed_tokens") == observed


def test_simulate_backend_failure_exits_3(tmp_path):
    with MockLlmServer(script=[(400, {"error": "bad request"}, {})]) as srv:
        cfg = write_config(tmp_path, {
            "dataset": write_files(tmp_path, TEXT_CLIENTS, TEXT_QUERIES),
            "protocol": {"rounds": 2},
            "backend": {"kind": "remote", "endpoint": srv.url}})
        code, out = run_cli(tmp_path, "simulate", cfg)
    assert code == cli.EXIT_BACKEND
    assert (out / "traces.jsonl").read_text() == ""


@pytest.mark.parametrize("count", [-5, 1.5, True, "12"],
                         ids=["negative", "float", "bool", "str"])
def test_simulate_exits_3_on_a_reply_whose_token_count_is_bad(
        tmp_path, capsys, count):
    bad = {"choices": [{"message": {"content": "the Moon"}}],
           "usage": {"prompt_tokens": count, "completion_tokens": 2}}
    with MockLlmServer(script=[(200, bad, {})]) as srv:
        cfg = write_config(tmp_path, {
            "dataset": write_files(tmp_path, TEXT_CLIENTS, TEXT_QUERIES),
            "backend": {"kind": "remote", "endpoint": srv.url}})
        code, out = run_cli(tmp_path, "simulate", cfg)
    assert code == cli.EXIT_BACKEND
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("backend error: client 1: step 1 backend "
                               "failure: malformed response body: token "
                               "counts are not ints >= 0")
    assert not (out / "ledger.csv").exists()


def text_run(tmp_path, url, **protocol_cfg):
    """A remote text run of two rounds against ``url``."""
    return {"dataset": write_files(tmp_path, TEXT_CLIENTS, TEXT_QUERIES),
            "protocol": dict({"rounds": 2}, **protocol_cfg),
            "backend": {"kind": "remote", "endpoint": url}}


HTTP_400 = "request failed after retries: HTTP 400"


@pytest.mark.parametrize("mode,config,extra,code,line", [
    ("simulate", lambda tmp_path, url: dict(SIM_CFG, dataset=EXPLICIT_CFG),
     ["--seed", "-3"], cli.EXIT_CONFIG,
     "config error: protocol: seed must be >= 0"),
    ("simulate", text_run, [], cli.EXIT_BACKEND,
     f"backend error: client 1: step 1 backend failure: {HTTP_400}"),
    ("simulate", lambda tmp_path, url: text_run(
        tmp_path, url, init_mode="backend_generated"), [], cli.EXIT_BACKEND,
     f"backend error: client 1: C_1 backend failure: {HTTP_400}"),
    ("simulate", lambda tmp_path, url: DIVERGING_CFG, [],
     cli.EXIT_NONCONTRACTIVE, "run diverged: round "),
    # theory and partition take the seed as simulate does
    ("theory", lambda tmp_path, url: SIM_CFG, ["--seed", "-3"],
     cli.EXIT_CONFIG, "config error: protocol: seed must be >= 0"),
    ("partition", lambda tmp_path, url: {
        "dataset": {"path": make_corpus_file(tmp_path)[0]},
        "partition": {"num_clients": 2, "alpha": 1.0}}, ["--seed", "-3"],
     cli.EXIT_CONFIG, "config error: protocol: seed must be >= 0"),
], ids=["bad-config", "failing-round", "failing-c-1", "diverging-knn-run",
        "theory-negative-seed", "partition-negative-seed"])
def test_each_failure_of_simulate_has_its_exit_code_and_one_stderr_line(
        tmp_path, capsys, mode, config, extra, code, line):
    # the stub answers the first request 400, which ends a run
    with MockLlmServer(script=[(400, {"error": "bad request"}, {})]) as srv:
        got, _ = run_cli(tmp_path, mode, write_config(
            tmp_path, config(tmp_path, srv.url)), extra=extra)
        assert len(srv.requests) == (code == cli.EXIT_BACKEND)
    assert got == code
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(line)


@pytest.mark.parametrize("kind,aggregation", [
    ("remote", "average"), ("remote", "majority"), ("lsa", "majority"),
    ("lsa", "fusion")],
    ids=["remote-average", "remote-majority", "lsa-majority", "lsa-fusion"])
def test_simulate_rejects_an_aggregation_the_backend_cannot_feed(
        tmp_path, capsys, kind, aggregation):
    # the backend kind picks the aggregation: the key is not a setting
    cfg = write_config(tmp_path, dict(
        SIM_CFG, protocol={"rounds": 2, "aggregation": aggregation},
        backend={"kind": kind, "endpoint": "http://127.0.0.1:9"}))
    code, out = run_cli(tmp_path, "simulate", cfg)
    assert code == cli.EXIT_CONFIG
    assert "not a setting: protocol.aggregation" in capsys.readouterr().err
    assert not (out / "traces.jsonl").exists()


def test_simulate_remote_without_an_endpoint_exits_2(tmp_path, capsys,
                                                     monkeypatch):
    monkeypatch.delenv("FEDICL_ENDPOINT", raising=False)
    config = text_run(tmp_path, None)
    del config["backend"]["endpoint"]
    code, out = run_cli(tmp_path, "simulate", write_config(tmp_path, config))
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: remote backend needs backend.endpoint or "
        "FEDICL_ENDPOINT\n")
    assert not (out / "traces.jsonl").exists()


def test_simulate_unknown_backend_kind(tmp_path):
    cfg = dict(SIM_CFG, backend={"kind": "quantum"})
    code, _ = run_cli(tmp_path, "simulate", write_config(tmp_path, cfg))
    assert code == cli.EXIT_CONFIG


def test_theory_explicit_instance_without_clients(tmp_path):
    cfg = write_config(tmp_path, {"dataset": {"gamma": [[3.0]], "clients": [],
                                              "server": [[1.0]]}})
    code, out = run_cli(tmp_path, "theory", cfg)
    assert code == cli.EXIT_CONFIG
    assert not (out / "theory_report.json").exists()


def test_simulate_engine_value_error_propagates(tmp_path, monkeypatch):
    def broken_run(*args, **kwargs):
        raise ValueError("engine bug")

    monkeypatch.setattr(protocol, "run", broken_run)
    with pytest.raises(ValueError, match="engine bug"):
        run_cli(tmp_path, "simulate", write_config(tmp_path, SIM_CFG))


@pytest.mark.parametrize("backend", [
    {"kind": "lsa"}, {"kind": "remote", "endpoint": "http://unused"}])
def test_simulate_builds_one_backend_per_client(tmp_path, monkeypatch,
                                                backend):
    seen = []

    def capture(config, clients, *args, **kwargs):
        seen.extend(clients)
        raise protocol.ProtocolError("stop after capture")

    monkeypatch.setattr(protocol, "run", capture)
    cfg = write_config(tmp_path, dict(SIM_CFG, backend=backend))
    code, _ = run_cli(tmp_path, "simulate", cfg)
    assert code == cli.EXIT_BACKEND
    assert [c.client_id for c in seen] == [1, 2, 3]
    assert len({id(c.backend) for c in seen}) == 3


# ---------------------------------------------------------------------------
# partition mode
# ---------------------------------------------------------------------------

def make_corpus_file(tmp_path, n=40):
    rng = np.random.default_rng(5)
    cats = ("algebra", "history")
    examples = [Example((float(i),), RealLabel(0.0),
                        category=cats[int(rng.integers(2))])
                for i in range(n)]
    path = tmp_path / "corpus.jsonl"
    data.save_dataset(examples, path)
    return str(path), examples


def test_partition_outputs_and_manifest(tmp_path):
    corpus_path, examples = make_corpus_file(tmp_path)
    cfg = write_config(tmp_path, {"dataset": {"path": corpus_path},
                                  "partition": {"num_clients": 3,
                                                "alpha": 1.0, "seed": 2}})
    code, out = run_cli(tmp_path, "partition", cfg)
    assert code == cli.EXIT_PASS
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(int(k) for k in manifest) == list(range(len(examples)))
    loaded = []
    for cid in (1, 2, 3):
        loaded.extend(data.load_dataset(out / f"client_{cid}.jsonl"))
    assert sorted(loaded, key=lambda e: e.covariate) == sorted(
        examples, key=lambda e: e.covariate)


def test_partition_files_hold_the_corpus_lines_the_manifest_gives(tmp_path):
    # two records of "a" among 38 of "b": at alpha 0.001 a client's mix is
    # one category, and a client drawn to "a" finds two, so the shortfall
    # loop fills it from "b"
    corpus = [Example((float(i), i / 7), RealLabel(i / 3),
                      category="a" if i in (5, 17) else "b")
              for i in range(40)]
    path = tmp_path / "corpus.jsonl"
    data.save_dataset(corpus, path)
    cfg = write_config(tmp_path, {"dataset": {"path": str(path)},
                                  "partition": {"num_clients": 4,
                                                "alpha": 0.001, "seed": 1}})
    code, out = run_cli(tmp_path, "partition", cfg)
    assert code == cli.EXIT_PASS
    lines = path.read_bytes().splitlines(keepends=True)
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(map(int, manifest)) == list(range(len(lines)))
    assert set(manifest.values()) == {1, 2, 3, 4}
    for cid in (1, 2, 3, 4):
        want = b"".join(line for i, line in enumerate(lines)
                        if manifest[str(i)] == cid)
        assert (out / f"client_{cid}.jsonl").read_bytes() == want
    mixed = [cid for cid in (1, 2, 3, 4) if len({
        ex.category for ex in data.load_dataset(out / f"client_{cid}.jsonl")
    }) == 2]
    assert mixed   # the shortfall loop ran


def test_partition_deterministic_across_runs(tmp_path):
    corpus_path, _ = make_corpus_file(tmp_path)
    cfg = write_config(tmp_path, {"dataset": {"path": corpus_path},
                                  "partition": {"num_clients": 2,
                                                "alpha": 0.5, "seed": 7}})
    run_cli(tmp_path, "partition", cfg, out="p1")
    run_cli(tmp_path, "partition", cfg, out="p2")
    assert (tmp_path / "p1/manifest.json").read_bytes() == \
        (tmp_path / "p2/manifest.json").read_bytes()


def test_partition_rejects_examples_without_a_category(tmp_path, capsys):
    path = tmp_path / "plain.jsonl"
    data.save_dataset([Example((0.0,), RealLabel(0.0)),
                       Example((1.0,), RealLabel(1.0))], path)
    cfg = write_config(tmp_path, {"dataset": {"path": str(path)},
                                  "partition": {"num_clients": 2,
                                                "alpha": 1.0}})
    code, out = run_cli(tmp_path, "partition", cfg)
    assert code == cli.EXIT_CONFIG
    assert "every example needs a category" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_partition_names_the_line_of_a_record_without_a_category(tmp_path,
                                                                 capsys):
    path = tmp_path / "mixed.jsonl"
    lines = [{"x": [0.0], "y": 0.0, "category": "a"}, None,
             {"x": [1.0], "y": 1.0, "category": "b"},
             {"x": [2.0], "y": 2.0}, {"x": [3.0], "y": 3.0}]
    path.write_text("".join("\n" if obj is None else json.dumps(obj) + "\n"
                            for obj in lines))
    cfg = write_config(tmp_path, {"dataset": {"path": str(path)},
                                  "partition": {"num_clients": 2,
                                                "alpha": 1.0}})
    code, out = run_cli(tmp_path, "partition", cfg)
    assert code == cli.EXIT_CONFIG
    # the blank second line counts: the first record without one is line 4
    assert capsys.readouterr().err == (
        f"config error: dataset: {path}:4: record has no category, and "
        f"every example needs a category for partitioning\n")
    assert not out.exists()


def partition_categories(tmp_path, categories, prior):
    """Run ``partition`` on one example per entry of ``categories`` over two
    clients: the exit code, and the categories of the examples written."""
    path = tmp_path / "corpus.jsonl"
    data.save_dataset([Example((float(i),), RealLabel(0.0), category=cat)
                       for i, cat in enumerate(categories)], path)
    cfg = write_config(tmp_path, {"dataset": {"path": str(path)},
                                  "partition": {"num_clients": 2,
                                                "alpha": 1.0,
                                                "prior": prior}})
    code, out = run_cli(tmp_path, "partition", cfg)
    written = sorted(ex.category for cid in (1, 2) if code == cli.EXIT_PASS
                     for ex in data.load_dataset(out / f"client_{cid}.jsonl"))
    return code, written


def test_partition_counts_the_empty_category_beside_another(tmp_path):
    # "" is a category: a prior over "" and "a" fits, one entry does not
    code, written = partition_categories(tmp_path, ["a", "", "a", ""],
                                         [0.5, 0.5])
    assert code == cli.EXIT_PASS
    assert written == ["", "", "a", "a"]
    code, _ = partition_categories(tmp_path, ["a", "", "a", ""], [1.0])
    assert code == cli.EXIT_CONFIG


def test_partition_over_one_empty_category(tmp_path):
    code, written = partition_categories(tmp_path, ["", "", ""], [1.0])
    assert code == cli.EXIT_PASS
    assert written == ["", "", ""]


# ---------------------------------------------------------------------------
# report mode
# ---------------------------------------------------------------------------

def test_report_rows_and_deviation_column(tmp_path):
    cfg = write_config(tmp_path, SIM_CFG)
    code, out = run_cli(tmp_path, "simulate", cfg)
    assert code == cli.EXIT_PASS
    code, rout = run_cli(tmp_path, "report", out="rep",
                         extra=["--traces", str(out / "traces.jsonl")])
    assert code == cli.EXIT_PASS
    with open(rout / "report.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["round"]) for r in rows] == [1, 2, 3, 4, 5]
    assert all(float(r["max_theory_deviation"]) <= 1e-9 for r in rows)
    assert all(int(r["num_queries"]) == 3 for r in rows)


def test_report_reads_the_non_finite_labels_simulate_can_write(tmp_path):
    golden = Path(__file__).parent / "data" / "golden_nonfinite.jsonl"
    code, rout = run_cli(tmp_path, "report", out="rep",
                         extra=["--traces", str(golden)])
    assert code == cli.EXIT_PASS
    with open(rout / "report.csv") as fh:
        rows = list(csv.DictReader(fh))
    # round 1 aggregated NaN and inf labels, round 2 finite ones
    assert [r["max_theory_deviation"] for r in rows][:1] == ["nan"]
    assert np.isfinite(float(rows[1]["max_theory_deviation"]))


def test_report_requires_traces(tmp_path):
    code, _ = run_cli(tmp_path, "report")
    assert code == cli.EXIT_CONFIG


def test_report_rejects_an_empty_trace_file(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code, _ = run_cli(tmp_path, "report", extra=["--traces", str(empty)])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: no traces in {empty}\n"


def test_report_rejects_rounds_that_disagree_on_the_query_count(tmp_path,
                                                                capsys):
    def line(k, covariates):
        return json.dumps({"round": k, "per_client_answers": {},
                           "aggregated": {"covariates": covariates,
                                          "labels": [{"y": 0.5}] * len(
                                              covariates),
                                          "round": k + 1}}) + "\n"

    path = tmp_path / "uneven.jsonl"
    path.write_text(line(1, [[1.0]]) + line(2, [[1.0], [2.0]]))
    code, _ = run_cli(tmp_path, "report", extra=["--traces", str(path)])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: {path}: trace rounds disagree on query count\n")


@pytest.mark.parametrize("aggregated,theory_w", [
    ({"covariates": [[1.0, 0.0]], "labels": [{"y": 0.5}]}, [0.1, 0.2, 0.3]),
    ({"covariates": [[1.0]], "labels": [{"answer": "four"}]}, [0.1]),
], ids=["w-of-another-size", "text-labels"])
def test_report_rejects_a_deviation_it_cannot_compute(tmp_path, capsys,
                                                      aggregated, theory_w):
    path = tmp_path / "traces.jsonl"
    path.write_text(json.dumps({"round": 1, "per_client_answers": {},
                                "aggregated": aggregated,
                                "theory_w": theory_w}) + "\n")
    code, out = run_cli(tmp_path, "report", extra=["--traces", str(path)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: ") and err.count("\n") == 1
    assert not (out / "report.csv").exists()


def test_report_reads_older_trace_lines_and_rejects_an_empty_query_set(
        tmp_path):
    line = {"round": 1, "per_client_answers": {"1": [{"y": 0.5}]},
            "aggregated": {"covariates": [[1.0]], "labels": [{"y": 0.5}],
                           "round": 2}}
    older = tmp_path / "older.jsonl"
    older.write_text(json.dumps(line) + "\n")
    code, _ = run_cli(tmp_path, "report", out="rep",
                      extra=["--traces", str(older)])
    assert code == cli.EXIT_PASS
    empty = tmp_path / "empty.jsonl"
    empty.write_text(json.dumps(dict(line, aggregated={
        "covariates": [], "labels": []})) + "\n")
    code, _ = run_cli(tmp_path, "report", out="rep2",
                      extra=["--traces", str(empty)])
    assert code == cli.EXIT_CONFIG
