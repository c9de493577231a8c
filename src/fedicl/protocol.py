"""The round-based federated ICL engine and its variants.

Each round the server ships the current query set to every client; clients
relabel their local examples with it (step 1), answer the queries using
local plus relabeled data (step 2), and the server aggregates the answers
into the next query set. Variants differ in which context each step sees:

    fedicl       step 2 context is D^i ++ D_k^i
    fedicl_free  step 2 context is D_k^i only (no local labels needed)
    fedicl_gt    one round; context is the client's ground-truth examples
    fedicl_ub    all client data merged into a single client
    fedicl_lb    clients hold no data; context comes from a server-side
                 reference set
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .backend import LmBackend
from .core import (BITS_PER_REAL, ClientDataset, CommLedger, ConfigError,
                   Covariate, Dataset, Label, Labels, RealColumn, RoundTrace,
                   TextLabel, charge_protocol_round, check_int, concat,
                   covariate_column, join_labels, label_column, real_values,
                   save_traces)
from .data import Embedder, IdentityEmbedder, knn_context

VARIANTS = ("fedicl", "fedicl_free", "fedicl_gt", "fedicl_ub", "fedicl_lb")
AGGREGATIONS = ("average", "fusion")
INIT_MODES = ("zeros", "random", "backend_generated")
OBSERVED = (("uplink", "prompt_tokens"), ("downlink", "completion_tokens"))


@dataclass(frozen=True)
class ProtocolConfig:
    rounds: int
    variant: str = "fedicl"
    aggregation: str = "average"
    context_count: Optional[int] = None  # None: use full context (no kNN)
    init_mode: str = "zeros"
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant: {self.variant!r}")
        if self.aggregation not in AGGREGATIONS:
            raise ValueError(f"unknown aggregation: {self.aggregation!r}")
        if self.init_mode not in INIT_MODES:
            raise ValueError(f"unknown init mode: {self.init_mode!r}")
        check_int("rounds", self.rounds)
        if self.context_count is not None:
            check_int("context_count", self.context_count)
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.context_count is not None and self.context_count < 1:
            raise ValueError("context_count must be >= 1 when set")

    @property
    def effective_rounds(self) -> int:
        # these variants never relabel, so later rounds would repeat round 1
        return 1 if self.variant in ("fedicl_gt", "fedicl_lb") else self.rounds


@dataclass(frozen=True)
class ClientState:
    client_id: int
    original: Optional[ClientDataset]
    backend: LmBackend


class ProtocolError(RuntimeError):
    """A client's backend failed, or gave a wrong number of answers."""

    def __init__(self, message: str, client_id: Optional[int] = None):
        super().__init__(message)
        self.client_id = client_id


# ---------------------------------------------------------------------------
# Steps
# ---------------------------------------------------------------------------

def init_labels(covariates: Sequence[Covariate], mode: str,
                backend: Optional[LmBackend] = None,
                rng: Optional[np.random.Generator] = None) -> Dataset:
    """Build the round-1 query set C_1; ``zeros`` gives text queries empty
    answers, and ``random`` needs vector queries. A query set it cannot
    build raises ``ConfigError`` before any backend call."""
    covariates = covariate_column(covariates)
    m, text = len(covariates), isinstance(covariates, tuple)
    if m == 0:
        raise ConfigError("query set must contain at least one covariate")
    if mode == "zeros":
        labels = (TextLabel(""),) * m if text else RealColumn(np.zeros(m))
    elif mode == "random":
        if text:
            raise ConfigError("random initialization needs vector queries")
        rng = rng if rng is not None else np.random.default_rng(0)
        labels = RealColumn(rng.standard_normal(m))
    elif mode == "backend_generated":
        if backend is None:
            raise ValueError("backend_generated initialization needs a backend")
        labels = backend.answer(Dataset(), covariates)
    else:
        raise ValueError(f"unknown init mode: {mode!r}")
    return Dataset(covariates=covariates, labels=labels)


def step1_relabel(client: ClientState, c_k: Dataset,
                  neighbours: Optional[np.ndarray] = None,
                  usage: Optional[Dict[str, int]] = None) -> ClientDataset:
    """Relabel the client's covariates via ICL on the server's query set
    (all of it, or each covariate's ``neighbours`` in it)."""
    return client.original.with_labels(_answer_in_context(
        client, c_k, client.original.covariates, neighbours, 1, usage))


def _answer_in_context(client: ClientState, pool: Dataset,
                       queries: Sequence[Covariate],
                       neighbours: Optional[np.ndarray], step: int,
                       usage: Optional[Dict[str, int]]) -> Labels:
    """Answer the queries in one call to the client's backend, with the
    whole pool as every query's context or each query's ``neighbours``."""
    try:
        answers = label_column(client.backend.answer(pool, queries,
                                                     neighbours, usage))
    except Exception as exc:
        raise ProtocolError(f"step {step} backend failure: {exc}",
                            client.client_id) from exc
    if len(answers) != len(queries):
        raise ProtocolError(f"step {step}: {len(answers)} answers to "
                            f"{len(queries)} queries", client.client_id)
    return answers


def _step2_pool(client: ClientState, variant: str,
                server_reference: Optional[ClientDataset]
                ) -> Tuple[Dataset, Optional[Labels]]:
    """Step 2's pool for a whole run, its covariates stacked once, and the
    labels that precede step 1's answers in it; None for those labels when
    the variant does not relabel and the pool is every round's context."""
    if variant == "fedicl_lb":
        return server_reference, None
    local = client.original
    if variant == "fedicl_gt":
        return local, None
    if variant == "fedicl_free":
        return local, ()
    # relabeling keeps the local covariates in order: D^i ++ D_k^i
    return concat([local, local]), local.labels


def step2_answer(client: ClientState, context: Dataset,
                 queries: Sequence[Covariate],
                 neighbours: Optional[np.ndarray] = None,
                 usage: Optional[Dict[str, int]] = None) -> Labels:
    """Answer the server queries in context (all of it, or each query's
    ``neighbours`` in it)."""
    return _answer_in_context(client, context, queries, neighbours, 2, usage)


def _knn_neighbours(client: ClientState, config: ProtocolConfig,
                    queries: Sequence[Covariate], embedder: Optional[Embedder],
                    step2_pool: Dataset, kept: Optional[Labels]) -> tuple:
    """Step 1's and step 2's per-query kNN indices into their pools (the
    queries, and ``step2_pool``, whose first ``len(kept)`` rows precede
    step 1's answers); None where the whole pool is every query's
    context."""
    c = config.context_count
    if c is None:
        return None, None
    emb = embedder if embedder is not None else IdentityEmbedder()

    def search(pool: Sequence[Covariate], qs: Sequence[Covariate]):
        return None if c >= len(pool) else knn_context(pool, qs, c, emb)

    step1 = (None if kept is None else
             search(queries, client.original.covariates))
    if not kept or c >= len(step2_pool):
        return step1, search(step2_pool.covariates, queries)
    local = client.original.covariates
    # D^i ++ D_k^i holds each local covariate twice: search them once, then
    # lay the c nearest out in the doubled pool's stable order, where among
    # equal distances every row j comes before every row N + j
    nearest, dist = knn_context(local, queries, c, emb, distances=True)
    order = np.argsort(np.hstack([dist, dist]), axis=1, kind="stable")
    doubled = np.hstack([nearest, nearest + len(local)])
    return step1, np.take_along_axis(doubled, order[:, :c], axis=1)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def aggregate(per_client: Dict[int, Sequence[Label]], strategy: str,
              previous: Dataset) -> Dataset:
    """Combine per-client answers into the next query set C_{k+1}:
    ``average`` takes the mean of real answers, ``fusion`` the most frequent
    text answer, a tie going to the answer seen first.

    Clients are consumed in ascending id order regardless of completion
    order, so aggregation is deterministic.
    """
    m = len(previous)
    client_ids = sorted(per_client)
    for cid in client_ids:
        if len(per_client[cid]) != m:
            raise ValueError(f"client {cid} answered "
                             f"{len(per_client[cid])} of {m} queries")
    if strategy == "average":
        # (M, L), so each query's mean runs along a contiguous row, as
        # np.mean of that query's L answers does
        answers = np.stack([real_values(per_client[cid])
                            for cid in client_ids], axis=1)
        return previous.with_labels(RealColumn(answers.mean(axis=1)))
    if strategy != "fusion":
        raise ValueError(f"unknown aggregation: {strategy!r}")
    columns = [per_client[cid] for cid in client_ids]
    if not all(isinstance(a, TextLabel) for col in columns for a in col):
        raise TypeError("fusion aggregation needs text labels")
    # most_common lists equal counts in first-seen order: lowest id first
    return previous.with_labels([Counter(answers).most_common(1)[0][0]
                                 for answers in zip(*columns)])


# ---------------------------------------------------------------------------
# The round loop
# ---------------------------------------------------------------------------

@dataclass
class ProtocolResult:
    traces: List[RoundTrace]
    ledger: CommLedger
    final: Dataset


def _check_run(config: ProtocolConfig, clients: Sequence[ClientState],
               queries: Union[np.ndarray, Tuple[str, ...]],
               embedder: Optional[Embedder],
               server_reference: Optional[ClientDataset]) -> None:
    """Raise ``ConfigError`` for a run the engine cannot make with these
    ``queries`` (a covariate column); ``init_labels`` checks the queries
    themselves.

    A backend's ``max_tokens`` is None exactly when it answers with reals,
    so ``average`` needs every cap to be None and ``fusion`` every cap set;
    text questions are charged at the cap, so they need one. A backend that
    answers with reals reads vectors, so ``average`` reads no text
    covariates either.
    """
    if not clients:
        raise ConfigError("run has no clients")
    if config.variant == "fedicl_lb":
        if server_reference is None:
            raise ConfigError("fedicl_lb needs a server reference set")
        read = [("the server reference", server_reference)]
    else:
        read = [(f"client {c.client_id}", c.original) for c in clients]
        missing = [c.client_id for c in clients if c.original is None]
        if missing:
            raise ConfigError(f"clients {missing} hold no local dataset, "
                              f"which {config.variant} reads")
    if config.variant == "fedicl_ub" and len({ds.dim for _, ds in read}) > 1:
        raise ConfigError("fedicl_ub cannot merge clients whose covariates "
                          "differ in kind or dimension")
    text = isinstance(queries, tuple)
    if not text and len(queries):
        for owner, ds in read:
            if ds.dim not in (None, queries.shape[1]):
                raise ConfigError(f"{owner} has covariates of dimension "
                                  f"{ds.dim} and the queries of "
                                  f"{queries.shape[1]}")
    if (config.context_count is not None and embedder is None
            and (text or any(ds.dim is None for _, ds in read))):
        raise ConfigError("context_count on text covariates needs an "
                          "embedder, and none is given")
    reals = config.aggregation == "average"
    for c in clients:
        if (c.backend.max_tokens is None) != reals or (reals and text):
            raise ConfigError(
                f"aggregation {config.aggregation!r} cannot combine client "
                f"{c.client_id}'s answers: its backend has max_tokens "
                f"{c.backend.max_tokens} (None answers with reals, a cap "
                f"with text) and the queries are "
                f"{'text' if text else 'vectors'}")
    owners = [owner for owner, ds in read if reals and ds.dim is None]
    if owners:
        raise ConfigError(f"the backends of an 'average' run read vectors, "
                          f"not the text covariates of {', '.join(owners)}")


def _payload_units(queries: Dataset, clients: Sequence[ClientState]
                   ) -> Tuple[List[Tuple[List[int], int, int]], str]:
    """(client_ids, question_units, answer_units) for each run of clients
    in a row charged alike, and the unit, for ledger accounting.

    With backends that answer with reals (no ``max_tokens`` cap;
    ``_check_run`` makes every cap agree), each vector question costs 64 bits
    per component and each answer 64 bits. Otherwise every payload is
    charged at the answer cap of the client's backend, in tokens.
    """
    if clients[0].backend.max_tokens is None:
        return [([c.client_id for c in clients], BITS_PER_REAL * queries.dim,
                 BITS_PER_REAL)], "bits"
    charges: List[Tuple[List[int], int, int]] = []
    for c in clients:
        cap = c.backend.max_tokens
        if charges and charges[-1][1] == cap:
            charges[-1][0].append(c.client_id)
        else:
            charges.append(([c.client_id], cap, cap))
    return charges, "tokens"


def run(config: ProtocolConfig,
        clients: Sequence[ClientState],
        queries: Sequence[Covariate],
        embedder: Optional[Embedder] = None,
        server_reference: Optional[ClientDataset] = None,
        theory_w_trace: Optional[Sequence[np.ndarray]] = None,
        trace_path=None,
        max_workers: Optional[int] = None) -> ProtocolResult:
    """Execute the full protocol loop and return traces plus the ledger.

    A run the engine cannot make raises ``ConfigError`` before any backend
    call (see ``_check_run``), and a failing backend raises
    ``ProtocolError``. The ledger holds the nominal charges and, as unit
    ``observed_tokens``, the tokens each client's backend reported in each
    round. When some client's backend waits on I/O, clients answer in a
    pool of ``max_workers`` threads (default: one per client); otherwise
    they answer one after another in the caller's thread.
    ``theory_w_trace``, when given, attaches the matching closed-form weight
    vector to each round's trace. The traces are written to ``trace_path``
    (if set) also on a mid-run failure, before it is re-raised.
    """
    queries = covariate_column(queries)  # every round shares this column
    _check_run(config, clients, queries, embedder, server_reference)

    if config.variant == "fedicl_ub":
        merged = concat([c.original for c in clients])
        clients = [ClientState(client_id=1, backend=clients[0].backend,
                               original=ClientDataset(
                                   1, covariates=merged.covariates,
                                   labels=merged.labels,
                                   categories=merged.categories))]

    rng = np.random.default_rng(config.seed)
    c_k = init_labels(queries, config.init_mode,
                      backend=clients[0].backend, rng=rng)
    ledger = CommLedger()
    charges, unit = _payload_units(c_k, clients)

    # a round changes only labels: each step's pool keeps its covariates
    # and neighbour choice ignores labels, so one step-2 pool and one kNN
    # search per client serve every round of this run
    contexts = {}
    for c in clients:
        pool, kept = _step2_pool(c, config.variant, server_reference)
        contexts[c.client_id] = (pool, kept) + _knn_neighbours(
            c, config, queries, embedder, pool, kept)

    def client_round(client: ClientState) -> Tuple[int, Labels, dict]:
        context, kept, step1_nn, step2_nn = contexts[client.client_id]
        usage: Dict[str, int] = {}
        if kept is not None:
            relabeled = step1_relabel(client, c_k, step1_nn, usage)
            context = context.with_labels(join_labels([kept,
                                                       relabeled.labels]))
        return client.client_id, step2_answer(client, context, queries,
                                              step2_nn, usage), usage

    # threads only pay while a backend waits: in-process ones answer here
    threaded = (max_workers != 1 and len(clients) > 1
                and any(c.backend.waits_on_io for c in clients))
    executor = (ThreadPoolExecutor(max_workers=max_workers or len(clients))
                if threaded else None)
    map_clients = executor.map if executor is not None else map
    traces: List[RoundTrace] = []
    try:
        for k in range(1, config.effective_rounds + 1):
            for client_ids, question_units, answer_units in charges:
                charge_protocol_round(ledger, k, client_ids, len(queries),
                                      question_units, answer_units, unit)
            per_client = {}
            for cid, answers, usage in map_clients(client_round, clients):
                per_client[cid] = answers
                for direction, key in OBSERVED:  # LSA reports no usage
                    if key in usage:
                        ledger.record(k, direction, cid, usage[key],
                                      "observed_tokens")
            c_next = aggregate(per_client, config.aggregation, c_k)
            theory_w = None
            if theory_w_trace is not None and k < len(theory_w_trace):
                theory_w = tuple(float(v) for v in theory_w_trace[k])
            traces.append(RoundTrace(round=k, per_client_answers=per_client,
                                     aggregated=c_next, theory_w=theory_w))
            c_k = c_next
    finally:
        if executor is not None:
            executor.shutdown()
        if trace_path is not None:
            save_traces(traces, trace_path)
    return ProtocolResult(traces=traces, ledger=ledger, final=c_k)
