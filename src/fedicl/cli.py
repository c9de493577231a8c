"""Config-driven entry points.

Four commands share one JSON config file with sections
{dataset, partition, protocol, backend, theory}:

    theory     closed-form contraction verification, JSON report
    simulate   full protocol run: traces JSONL, ledger CSV, metrics JSON
    partition  Dirichlet split into per-client JSONL files plus a manifest
    report     per-round metric tables (CSV) from saved traces

Exit codes: 0 pass, 1 verification failure, 2 config error,
3 backend error, 4 non-contractive configuration.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import core, data, lsa, protocol, theory
from .backend import GenerationParams, LsaBackend, RemoteBackend
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
    return np.random.default_rng(np.random.SeedSequence(
        entropy=seed, spawn_key=(zlib.crc32(name.encode()),)))


def _section(config: dict, name: str) -> dict:
    section = config.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be a JSON object")
    return section


def _int(cfg: dict, key: str, default: int) -> int:
    return core.check_int(key, cfg.get(key, default))


def _require(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise ConfigError(f"missing {where}.{key}")
    return cfg[key]


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
    lam = np.array(cfg["lambda"]) if "lambda" in cfg else np.eye(d)
    rng = _substream(seed, "instance")
    gamma_mat = lsa.gamma(lam, t_prompt)
    w_true = rng.standard_normal(d)
    clients = []
    for cid in range(1, num_clients + 1):
        xs = rng.standard_normal((n, d))
        clients.append(core.ClientDataset(cid, covariates=xs, labels=(
            core.RealColumn([float(x @ w_true) for x in xs]))))
    queries = tuple(tuple(x) for x in rng.standard_normal((m, d)))
    return clients, queries, gamma_mat


def load_instance(config: dict, seed: int):
    """The clients, queries and Gamma (None for client files) that both
    ``theory`` and ``simulate`` run, from the ``dataset`` section."""
    cfg = _section(config, "dataset")
    with _parsing("dataset"):
        if "client_paths" in cfg:
            # pre-partitioned client files (see partition mode), query file
            query_path = _require(cfg, "query_path", "dataset")
            clients = [data.load_dataset(path) for path in cfg["client_paths"]]
            queries = [ex.covariate for ex in data.load_dataset(query_path)]
            gamma_mat = None
        elif cfg.get("construction") == "matched_moments":
            # covariates {+/- v_j}, the columns of sqrt(d * Gamma), whose
            # second moment is Gamma: H_cont = I, the error halves a round
            d = _int(cfg, "d", 2)
            gamma_mat = lsa.gamma(np.array(cfg["lambda"]) if "lambda" in cfg
                                  else np.eye(d), _int(cfg, "t_prompt", 2))
            root = np.linalg.cholesky(gamma_mat * d)
            queries = [s * root[:, j] for j in range(d) for s in (1.0, -1.0)]
            clients = [[core.Example(tuple(v), core.RealLabel(float(i)))
                        for i, v in enumerate(queries, start=1)]]
        elif {"gamma", "clients", "server"} & set(cfg):
            # an instance spelled out verbatim
            gamma_mat = lsa._check_spd(_require(cfg, "gamma", "dataset"),
                                       "gamma")
            clients = [[core.example_from_json(r) for r in rows]
                       for rows in _require(cfg, "clients", "dataset")]
            queries = _require(cfg, "server", "dataset")
        else:
            return synthesize_instance(cfg, seed)
        clients = [core.ClientDataset(cid, tuple(examples))
                   for cid, examples in enumerate(clients, start=1)]
        if any(gamma_mat is not None and ds.dim != len(gamma_mat)
               for ds in clients):
            raise ValueError("gamma and the covariates differ in dimension")
        return clients, core.covariate_column(queries), gamma_mat


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

#: (section, key, why) of each config key that no longer exists
_REMOVED_KEYS = (
    ("backend", "context_count", "protocol.context_count sets the context"),
    ("backend", "template", "every prompt is open QA"),
    ("protocol", "options", "no aggregation votes over choices"),
    ("protocol", "aggregation", "lsa answers are averaged, remote ones "
                                "fused"))


def _check_removed_keys(config: dict) -> None:
    for name, key, why in _REMOVED_KEYS:
        if key in _section(config, name):
            raise ConfigError(f"{name}.{key} is gone: {why}")
    moved = sorted(set(_section(config, "theory")) - {"rounds"})
    if moved:
        raise ConfigError(f"theory.{moved[0]} is gone: theory holds only "
                          f"rounds, and the instance lives in dataset")


def cmd_theory(config: dict, output_dir: str, seed: int) -> int:
    _check_removed_keys(config)
    with _parsing("theory"):
        rounds = _int(_section(config, "theory"), "rounds", 20)
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
    clients, queries, gamma_mat = load_instance(config, seed)
    if gamma_mat is None:
        raise ConfigError("theory needs gamma, and client files give none")
    with _parsing("dataset"):
        state = theory.TheoryState.initialize(clients, queries, gamma_mat)
    state = theory.iterate_recursion(state, rounds)
    report = theory.verify_contraction(state)
    os.makedirs(output_dir, exist_ok=True)
    report_path = os.path.join(output_dir, "theory_report.json")
    obj = report.to_json()
    obj["w_star"] = state.w_star.tolist() if state.w_star is not None else None
    obj["w_limit"] = state.w_limit.tolist()
    with open(report_path, "w") as fh:
        json.dump(obj, fh, indent=2)
    if not report.contractive:
        return EXIT_NONCONTRACTIVE
    return EXIT_PASS if report.passed else EXIT_FAIL


def _build_protocol_config(config: dict,
                           seed: int) -> protocol.ProtocolConfig:
    pcfg = _section(config, "protocol")
    lsa_answers = _section(config, "backend").get("kind", "lsa") == "lsa"
    with _parsing("protocol"):
        return protocol.ProtocolConfig(
            rounds=pcfg.get("rounds", 6),
            variant=pcfg.get("variant", "fedicl"),
            aggregation="average" if lsa_answers else "fusion",
            context_count=pcfg.get("context_count"),
            init_mode=pcfg.get("init_mode", "zeros"),
            seed=_int(pcfg, "seed", seed),
        )


def _build_backends(config: dict, gamma_mat: Optional[np.ndarray],
                    client_ids: Sequence[int]):
    """One backend per client."""
    bcfg = _section(config, "backend")
    kind = bcfg.get("kind", "lsa")
    with _parsing("backend"):
        params = GenerationParams(
            temperature=bcfg.get("temperature", 0.1),
            max_tokens=_int(bcfg, "max_tokens", 256),
            model_name=bcfg.get("model_name", "gpt-4o-mini"),
            timeout_ms=_int(bcfg, "timeout_ms", 30_000),
            max_retries=_int(bcfg, "max_retries", 3),
        )
    if kind == "lsa":
        if gamma_mat is None:
            raise ConfigError("lsa backend needs gamma, and client files "
                              "give none")
        return [LsaBackend(gamma_mat) for _ in client_ids]
    if kind == "remote":
        endpoint = bcfg.get("endpoint") or os.environ.get("FEDICL_ENDPOINT")
        if not endpoint:
            raise ConfigError("remote backend needs backend.endpoint or "
                              "FEDICL_ENDPOINT")
        return [RemoteBackend(endpoint, params=params) for _ in client_ids]
    raise ConfigError(f"unknown backend kind: {kind!r}")


def _modeled_by_recursion(pconf: protocol.ProtocolConfig, backends) -> bool:
    """Whether the recursion, from w_1 = 0, models the run: ``fedicl`` or
    ``fedicl_ub`` with full context on the LSA backend, from C_1 = 0 (zeros,
    or LSA answers with no context)."""
    return (any(isinstance(b, LsaBackend) for b in backends)
            and pconf.context_count is None
            and pconf.variant in ("fedicl", "fedicl_ub")
            and pconf.init_mode in ("zeros", "backend_generated"))


def _theory_deviation(trace: core.RoundTrace) -> float:
    """Largest gap between the round's labels and the recursion's x^T w."""
    labels = core.real_values(trace.aggregated.labels)
    xm = core.covariate_matrix(trace.aggregated.covariates)
    return float(np.max(np.abs(labels - xm @ np.array(trace.theory_w))))


def cmd_simulate(config: dict, output_dir: str, seed: int) -> int:
    _check_removed_keys(config)
    pconf = _build_protocol_config(config, seed)
    clients_data, queries, gamma_mat = load_instance(config, seed)
    backends = _build_backends(config, gamma_mat,
                               [ds.client_id for ds in clients_data])
    clients = [protocol.ClientState(client_id=ds.client_id, original=ds,
                                    backend=backend)
               for ds, backend in zip(clients_data, backends)]

    theory_trace = None
    modeled = _modeled_by_recursion(pconf, backends)
    if modeled:
        # fedicl_ub runs one client holding every client's examples
        with _parsing("dataset"):
            state = theory.TheoryState.initialize(
                [core.concat(clients_data)] if pconf.variant == "fedicl_ub"
                else clients_data, queries, gamma_mat)
        theory_trace = theory.iterate_recursion(
            state, pconf.effective_rounds).w_trace

    os.makedirs(output_dir, exist_ok=True)
    trace_path = os.path.join(output_dir, "traces.jsonl")
    try:
        result = protocol.run(pconf, clients, queries,
                              theory_w_trace=theory_trace,
                              trace_path=trace_path)
    except protocol.ProtocolError:
        return EXIT_BACKEND
    result.ledger.export_csv(os.path.join(output_dir, "ledger.csv"))

    metrics: Dict[str, object] = {"rounds": len(result.traces)}
    if modeled:
        max_dev = [_theory_deviation(trace) for trace in result.traces]
        metrics["max_theory_deviation_per_round"] = max_dev
        metrics["theory_ok"] = all(dev <= 1e-9 for dev in max_dev)
    with open(os.path.join(output_dir, "metrics.json"), "w") as fh:
        json.dump(metrics, fh, indent=2)
    return EXIT_PASS if metrics.get("theory_ok", True) else EXIT_FAIL


def cmd_partition(config: dict, output_dir: str, seed: int) -> int:
    pcfg = _section(config, "partition")
    dataset_path = _require(_section(config, "dataset"), "path", "dataset")
    with _parsing("dataset"):
        examples = data.load_dataset(dataset_path)
    categories = sorted({ex.category for ex in examples if ex.category})
    if not categories:
        raise ConfigError(f"{dataset_path}: every example needs a category, "
                          f"and none has one")
    prior = pcfg.get("prior")
    if prior is None:
        prior = [1.0 / len(categories)] * len(categories)
    with _parsing("partition"):
        spec = data.PartitionSpec(
            num_clients=core.check_int(
                "num_clients", _require(pcfg, "num_clients", "partition")),
            alpha=float(_require(pcfg, "alpha", "partition")),
            prior=tuple(prior),
            seed=_int(pcfg, "seed", seed),
        )
        clients, manifest = data.dirichlet_partition(examples, spec,
                                                     categories)
    os.makedirs(output_dir, exist_ok=True)
    for ds in clients:
        data.save_dataset(ds.examples,
                          os.path.join(output_dir, f"client_{ds.client_id}.jsonl"))
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
        with _parsing("config"):
            seed = _int(config, "seed", 0) if args.seed is None else args.seed
        if args.mode != "report":
            command = {"theory": cmd_theory, "simulate": cmd_simulate,
                       "partition": cmd_partition}[args.mode]
            return command(config, args.output, seed)
        if not args.traces:
            raise ConfigError("report mode needs --traces")
        return cmd_report(args.traces, args.output)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
