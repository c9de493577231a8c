"""Config-driven entry points.

Four commands share one JSON config file with a ``seed`` and sections
{dataset, partition, protocol, backend}:

    theory     contraction check of the run simulate makes, JSON report
    simulate   full protocol run: traces JSONL, ledger CSV, metrics JSON
    partition  Dirichlet split into per-client JSONL files plus a manifest
    report     per-round metric tables (CSV) from saved traces

The partition, protocol and backend sections go whole to the types that
own them (PartitionSpec, ProtocolConfig, GenerationParams), which hold
their defaults and checks; each command but report checks protocol and
backend alike, and partition splits over its examples' categories. Exit
codes: 0 pass, 1 verification failure, 2 config error (a key that no
command reads among them), 3 backend error, 4 non-contractive configuration.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
from dataclasses import fields
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import core, data, lsa, protocol, theory
from .backend import (GenerationParams, LsaBackend, RemoteBackend,
                      _split_url)
from .core import ConfigError

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_BACKEND = 3
EXIT_NONCONTRACTIVE = 4


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    if not isinstance(config, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return config


def _substream(seed: int, name: str) -> np.random.Generator:
    # all randomness flows from one root seed split into named substreams;
    # crc32 keeps the split stable across processes
    import zlib
    if seed < 0:
        raise ValueError("seed must be >= 0")
    return np.random.default_rng(np.random.SeedSequence(
        entropy=seed, spawn_key=(zlib.crc32(name.encode()),)))


def _section(config: dict, name: str) -> dict:
    section = config.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be a JSON object")
    return section


def _int(cfg: dict, key: str, default: int) -> int:
    return core.check_int(key, cfg.get(key, default))


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"missing dataset.{key}")
    return cfg[key]


def _list(cfg: dict, key: str) -> list:
    """The ``dataset`` setting ``key``, which must be a JSON array."""
    return core.check_list(key, _require(cfg, key))


def _matrix(cfg: dict, key: str) -> np.ndarray:
    """The ``dataset`` setting ``key``: a JSON array of arrays of numbers."""
    value = _require(cfg, key)
    try:
        return np.array(core.check_list(key, value), dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{key} must be a matrix of numbers, got "
                         f"{value!r}") from None


def _path(key: str, value) -> str:
    """``value``, the file that the ``dataset`` setting ``key`` names, if
    it is a str: ``open`` takes an int (or a bool) for a file descriptor."""
    if not isinstance(value, str):
        raise ConfigError(f"dataset.{key} must be a path, got {value!r}")
    return value


@contextlib.contextmanager
def _parsing(where: str):
    """Report a value the block rejects, or a file it cannot read, as a
    config error in ``where``."""
    try:
        yield
    except (KeyError, TypeError, ValueError, OSError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


# ---------------------------------------------------------------------------
# Synthetic regression instances (theory / LSA simulate modes)
# ---------------------------------------------------------------------------

def synthesize_instance(cfg: dict, seed: int):
    """Sample clients, server queries, and Gamma from config parameters."""
    d = _int(cfg, "d", 2)
    num_clients = _int(cfg, "num_clients", 2)
    n = _int(cfg, "examples_per_client", 5)
    m = _int(cfg, "num_queries", 4)
    if min(num_clients, m) < 1:
        raise ValueError("num_clients and num_queries must be >= 1")
    t_prompt = _int(cfg, "t_prompt", 10)
    lam = _matrix(cfg, "lambda") if "lambda" in cfg else np.eye(d)
    rng = _substream(seed, "instance")
    gamma_mat = lsa.gamma(lam, t_prompt)
    w_true = rng.standard_normal(d)
    clients = []
    for cid in range(1, num_clients + 1):
        xs = rng.standard_normal((n, d))
        clients.append(core.ClientDataset(cid, covariates=xs, labels=(
            core.RealColumn(np.vecdot(xs, w_true)))))
    queries = core.covariate_column(rng.standard_normal((m, d)))
    return clients, queries, gamma_mat


def load_instance(config: dict, seed: int):
    """The clients, queries and Gamma (None for client files) that both
    ``theory`` and ``simulate`` run, from the ``dataset`` section."""
    cfg = _section(config, "dataset")
    with _parsing("dataset"):
        if cfg.get("construction", "matched_moments") != "matched_moments":
            raise ValueError(f"unknown construction: {cfg['construction']!r}")
        if "client_paths" in cfg:
            # pre-partitioned client files (see partition mode), query file
            query_path = _path("query_path", _require(cfg, "query_path"))
            clients = [data.load_dataset(_path(f"client_paths[{i}]", path))
                       for i, path in enumerate(_list(cfg, "client_paths"))]
            queries = [ex.covariate for ex in data.load_dataset(query_path)]
            gamma_mat = None
        elif "construction" in cfg:
            # covariates {+/- v_j}, the columns of sqrt(d * Gamma), whose
            # second moment is Gamma: H_cont = I, the error halves a round
            d = _int(cfg, "d", 2)
            gamma_mat = lsa.gamma(_matrix(cfg, "lambda") if "lambda" in cfg
                                  else np.eye(d), _int(cfg, "t_prompt", 2))
            root = np.linalg.cholesky(gamma_mat * d)
            queries = [s * root[:, j] for j in range(d) for s in (1.0, -1.0)]
            clients = [[core.Example(tuple(v), core.RealLabel(float(i)))
                        for i, v in enumerate(queries, start=1)]]
        elif {"gamma", "clients", "server"} & set(cfg):
            # an instance spelled out verbatim
            gamma_mat = lsa._check_spd(_matrix(cfg, "gamma"), "gamma")
            clients = [[core.example_from_json(r) for r in
                        core.check_list(f"clients[{i}]", rows)]
                       for i, rows in enumerate(_list(cfg, "clients"))]
            queries = _list(cfg, "server")
        else:
            clients, queries, gamma_mat = synthesize_instance(cfg, seed)
        clients = [ds if isinstance(ds, core.ClientDataset) else
                   core.ClientDataset(cid, tuple(ds))
                   for cid, ds in enumerate(clients, start=1)]
        if any(gamma_mat is not None and ds.dim != len(gamma_mat)
               for ds in clients):
            raise ValueError("gamma and the covariates differ in dimension")
        return clients, core.covariate_column(queries), gamma_mat


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

#: the keys each section may hold: those the dataset constructions and
#: partition read, and the fields of the type each other section builds
_SETTINGS = {
    "dataset": {"client_paths", "query_path", "construction", "d", "lambda",
                "t_prompt", "gamma", "clients", "server", "num_clients",
                "examples_per_client", "num_queries", "path"},
    "partition": {f.name for f in fields(data.PartitionSpec)},
    "protocol": {f.name for f in fields(protocol.ProtocolConfig)}
    - {"aggregation"},
    "backend": {f.name for f in fields(GenerationParams)}
    | {"kind", "endpoint"}}


def _check_settings(config: dict) -> None:
    unknown = [key for key in config if key not in {"seed", *_SETTINGS}]
    unknown += [f"{name}.{key}" for name, keys in _SETTINGS.items()
                for key in _section(config, name) if key not in keys]
    if unknown:
        raise ConfigError(f"not a setting: {', '.join(unknown)}")


def _run_settings(config: dict, seed: int):
    """The protocol config, backend kind, endpoint and generation params
    of a config: ``main`` reads them once, for each command but report.
    An endpoint, from the config or ``FEDICL_ENDPOINT``, is checked as
    ``RemoteBackend`` checks it, and the remote kind needs one."""
    bcfg = dict(_section(config, "backend"))
    kind = bcfg.pop("kind", "lsa")
    endpoint = bcfg.pop("endpoint", None) or os.environ.get("FEDICL_ENDPOINT")
    with _parsing("protocol"):
        pconf = protocol.ProtocolConfig(
            **{"seed": seed, **_section(config, "protocol")},
            aggregation="average" if kind == "lsa" else "fusion")
    with _parsing("backend"):
        params = GenerationParams(**bcfg)
    if kind not in ("lsa", "remote"):
        raise ConfigError(f"unknown backend kind: {kind!r}")
    if kind == "remote" and not endpoint:
        raise ConfigError("remote backend needs backend.endpoint or "
                          "FEDICL_ENDPOINT")
    if endpoint is not None:
        if not isinstance(endpoint, str):
            raise ConfigError(f"backend: endpoint must be a str, got "
                              f"{endpoint!r}")
        _split_url(endpoint.rstrip("/"), ("http", "https"), "endpoint")
    return pconf, kind, endpoint, params


def _unmodeled(pconf: protocol.ProtocolConfig) -> List[str]:
    """The settings of a run that the recursion, from w_1 = 0, does not
    model: it models fedicl or fedicl_ub with full context on the lsa
    backend, from C_1 = 0 (zeros, or LSA answers with no context)."""
    return [key for key, modeled in (
        ("backend.kind", pconf.aggregation == "average"),
        ("protocol.variant", pconf.variant in ("fedicl", "fedicl_ub")),
        ("protocol.context_count", pconf.context_count is None),
        ("protocol.init_mode",
         pconf.init_mode in ("zeros", "backend_generated"))) if not modeled]


def _recursion(pconf: protocol.ProtocolConfig, clients, queries,
               gamma_mat: Optional[np.ndarray]) -> theory.TheoryState:
    """The recursion of the run ``pconf`` makes of an instance, over its
    rounds: fedicl_ub runs one client holding every client's examples."""
    if gamma_mat is None:
        raise ConfigError("recursion needs gamma, and client files give none")
    with _parsing("dataset"):
        state = theory.TheoryState.initialize(
            [core.concat(clients)] if pconf.variant == "fedicl_ub"
            else clients, queries, gamma_mat)
    return theory.iterate_recursion(state, pconf.effective_rounds)


def cmd_theory(config: dict, output_dir: str, seed: int,
               pconf: protocol.ProtocolConfig) -> int:
    if unmodeled := _unmodeled(pconf):
        raise ConfigError(f"the recursion does not model this run's "
                          f"{', '.join(unmodeled)}; simulate runs it "
                          f"unverified")
    state = _recursion(pconf, *load_instance(config, seed))
    report = theory.verify_contraction(state)
    os.makedirs(output_dir, exist_ok=True)
    obj = dict(report.to_json(), w_star=None if state.w_star is None
               else state.w_star.tolist(), w_limit=state.w_limit.tolist())
    with open(os.path.join(output_dir, "theory_report.json"), "w") as fh:
        json.dump(obj, fh, indent=2)
    if not report.contractive:
        return EXIT_NONCONTRACTIVE
    return EXIT_PASS if report.passed else EXIT_FAIL


def _theory_deviation(trace: core.RoundTrace) -> float:
    """Largest gap between the round's labels and the recursion's x^T w."""
    labels = core.real_values(trace.aggregated.labels)
    xm = core.covariate_matrix(trace.aggregated.covariates)
    return float(np.max(np.abs(labels - xm @ np.array(trace.theory_w))))


def cmd_simulate(config: dict, output_dir: str, seed: int,
                 pconf: protocol.ProtocolConfig, kind: str,
                 endpoint: Optional[str], params: GenerationParams) -> int:
    clients_data, queries, gamma_mat = load_instance(config, seed)
    if kind == "lsa" and gamma_mat is None:
        raise ConfigError("lsa backend needs gamma, and client files give "
                          "none")
    modeled = not _unmodeled(pconf)
    theory_trace = _recursion(pconf, clients_data, queries,
                              gamma_mat).w_trace if modeled else None
    backends = [LsaBackend(gamma_mat) if kind == "lsa" else
                RemoteBackend(endpoint, params=params) for _ in clients_data]
    clients = [protocol.ClientState(client_id=ds.client_id, original=ds,
                                    backend=backend)
               for ds, backend in zip(clients_data, backends)]

    os.makedirs(output_dir, exist_ok=True)
    trace_path = os.path.join(output_dir, "traces.jsonl")
    # a run whose labels overflow is reported below, after its files are
    # written, in place of numpy's warnings
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            result = protocol.run(pconf, clients, queries,
                                  theory_w_trace=theory_trace,
                                  trace_path=trace_path)
    except protocol.ProtocolError as exc:
        print(f"backend error: client {exc.client_id}: {exc}",
              file=sys.stderr)
        return EXIT_BACKEND
    finally:
        for backend in backends:
            backend.close()
    result.ledger.export_csv(os.path.join(output_dir, "ledger.csv"))

    metrics: Dict[str, object] = {"rounds": len(result.traces)}
    if modeled:
        max_dev = [_theory_deviation(trace) for trace in result.traces]
        metrics["max_theory_deviation_per_round"] = max_dev
        metrics["theory_ok"] = all(dev <= 1e-9 for dev in max_dev)
    with open(os.path.join(output_dir, "metrics.json"), "w") as fh:
        json.dump(metrics, fh, indent=2)
    diverged = [t.round for t in result.traces
                if isinstance(t.aggregated.labels, core.RealColumn)
                and not np.isfinite(t.aggregated.labels.values).all()]
    if diverged:
        print(f"run diverged: round {diverged[0]}'s labels are not finite",
              file=sys.stderr)
        return EXIT_NONCONTRACTIVE
    return EXIT_PASS if metrics.get("theory_ok", True) else EXIT_FAIL


def cmd_partition(config: dict, output_dir: str, seed: int) -> int:
    dataset_path = _path("path", _require(_section(config, "dataset"),
                                          "path"))
    with _parsing("partition"):   # the settings before the data
        spec = data.PartitionSpec(**{"seed": seed,
                                     **_section(config, "partition")})
    with _parsing("dataset"):
        examples = data.load_dataset(dataset_path, categorised=True)
    with _parsing("partition"):
        clients, manifest = data.dirichlet_partition(examples, spec)
    os.makedirs(output_dir, exist_ok=True)
    for cid, records in enumerate(clients, start=1):
        data.save_dataset(records,
                          os.path.join(output_dir, f"client_{cid}.jsonl"))
    with open(os.path.join(output_dir, "manifest.json"), "w") as fh:
        json.dump({str(k): v for k, v in sorted(manifest.items())}, fh,
                  indent=2, sort_keys=True)
    return EXIT_PASS


def cmd_report(trace_paths: Sequence[str], output_dir: str) -> int:
    """Summarize one or more trace files into a per-round CSV."""
    os.makedirs(output_dir, exist_ok=True)
    rows: List[dict] = []
    for path in trace_paths:
        with _parsing(path):
            traces = core.load_traces(path)
        if not traces:
            raise ConfigError(f"no traces in {path}")
        m = len(traces[0].aggregated)
        for trace in traces:
            if len(trace.aggregated) != m:
                raise ConfigError(f"{path}: trace rounds disagree on query count")
            row = {"source": os.path.basename(path), "round": trace.round,
                   "num_queries": len(trace.aggregated)}
            if trace.theory_w is not None:
                with _parsing(path):  # text labels, or w of another size
                    row["max_theory_deviation"] = _theory_deviation(trace)
            rows.append(row)
    fields = ["source", "round", "num_queries", "max_theory_deviation"]
    with open(os.path.join(output_dir, "report.csv"), "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fedicl",
        description="Federated in-context learning: theory verification, "
                    "simulation, partitioning, reporting.")
    parser.add_argument("mode", choices=["theory", "simulate", "partition",
                                         "report"])
    parser.add_argument("--config", help="path to JSON experiment config")
    parser.add_argument("--seed", type=int, help="override config seed")
    parser.add_argument("--output", default="out", help="output directory")
    parser.add_argument("--traces", nargs="*", default=[],
                        help="trace files for report mode")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config) if args.config else {}
        _check_settings(config)
        with _parsing("config"):
            seed = _int(config, "seed", 0) if args.seed is None else args.seed
        if args.mode != "report":
            pconf, *backend = _run_settings(config, seed)
            if args.mode == "partition":
                return cmd_partition(config, args.output, seed)
            if args.mode == "theory":
                return cmd_theory(config, args.output, seed, pconf)
            return cmd_simulate(config, args.output, seed, pconf, *backend)
        if not args.traces:
            raise ConfigError("report mode needs --traces")
        return cmd_report(args.traces, args.output)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
