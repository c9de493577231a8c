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
from typing import (Dict, List, NamedTuple, Optional, Sequence, Tuple,
                    Union)

import numpy as np

from .backend import Ask, LmBackend
from .core import (ClientDataset, CommLedger, ConfigError, Covariate,
                   Dataset, Label, Labels, RealColumn, RoundTrace, TextLabel,
                   check_int, concat, covariate_column, join_labels,
                   label_column, real_values, save_traces, stack_covariates)
from .data import Embedder, IdentityEmbedder, knn_context

VARIANTS = ("fedicl", "fedicl_free", "fedicl_gt", "fedicl_ub", "fedicl_lb")
AGGREGATIONS = ("average", "fusion")
INIT_MODES = ("zeros", "random", "backend_generated")
BITS_PER_REAL = 64


@dataclass(frozen=True)
class ProtocolConfig:
    rounds: int = 6
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
        check_int("seed", self.seed)
        if self.context_count is not None:
            check_int("context_count", self.context_count)
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.context_count is not None and self.context_count < 1:
            raise ValueError("context_count must be >= 1 when set")

    @property
    def relabels(self) -> bool:
        """Whether step 1 runs; without it, every round repeats round 1."""
        return self.variant not in ("fedicl_gt", "fedicl_lb")

    @property
    def effective_rounds(self) -> int:
        return self.rounds if self.relabels else 1


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

class Step(NamedTuple):
    """One step's asks for a group, prepared once by the group's backend
    (``LmBackend.prepare``), and the query count of each ask."""

    prepared: object
    query_counts: Tuple[int, ...]


def prepare_step(group: Sequence[ClientState], asks: Sequence[Ask],
                 name: str) -> Step:
    """``asks``, one per client of the ``group``, prepared by the first
    client's backend, which the others equal; a failure names that client
    and the step ``name`` (``C_1``, ``step 1`` or ``step 2``)."""
    try:
        prepared = group[0].backend.prepare(asks)
    except Exception as exc:
        raise ProtocolError(f"{name} backend failure: {exc}",
                            group[0].client_id) from exc
    return Step(prepared, tuple(len(queries) for _, queries, _ in asks))


def init_labels(covariates: Sequence[Covariate], mode: str,
                client: Optional[ClientState] = None,
                rng: Optional[np.random.Generator] = None) -> Dataset:
    """Build the round-1 query set C_1; ``zeros`` gives text queries empty
    answers, ``random`` needs vector queries, and ``backend_generated``
    asks ``client``'s backend with no context. A query set it cannot
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
        if client is None:
            raise ValueError("backend_generated initialization needs a client")
        step = prepare_step([client], [((), covariates, None)], "C_1")
        labels = _answer_in_context([client], step, [()], "C_1", None)[0]
    else:
        raise ValueError(f"unknown init mode: {mode!r}")
    return Dataset(covariates=covariates, labels=labels)


def step1_relabel(group: Sequence[ClientState], step: Step, c_k: Dataset,
                  usages: Optional[Sequence[Dict[str, int]]] = None
                  ) -> List[Labels]:
    """Each client's new labels for its covariates, via ICL on the
    server's query set C_k (all of it, or each covariate's neighbours in
    it): ``step`` holds one ask per client, over C_k's covariates, and
    each takes C_k's labels. The ``group``'s backends are equal, so one
    ``answer`` call goes to the first client's."""
    return _answer_in_context(group, step, [c_k.labels] * len(group),
                              "step 1", usages)


def step2_answer(group: Sequence[ClientState], step: Step,
                 labels: Sequence[Labels],
                 usages: Optional[Sequence[Dict[str, int]]] = None
                 ) -> List[Labels]:
    """Answer the server queries, each client in its own context (all of
    it, or each query's neighbours in it): ``step`` holds one ask per
    client, over its context's covariates, and ``labels`` the context's
    labels, in one ``answer`` call to the first client's backend, which
    the ``group``'s others equal."""
    return _answer_in_context(group, step, labels, "step 2", usages)


def _answer_in_context(group: Sequence[ClientState], step: Step,
                       labels: Sequence[Labels], name: str,
                       usages: Optional[Sequence[Dict[str, int]]]
                       ) -> List[Labels]:
    """One ``answer`` call with each client's ask and context labels, for
    the step ``name`` (``C_1``, ``step 1`` or ``step 2``); a failure names
    the client whose answers are wrong, or the group's first client when
    the call itself fails."""
    try:
        columns = [label_column(col) for col in
                   group[0].backend.answer(step.prepared, labels, usages)]
    except Exception as exc:
        raise ProtocolError(f"{name} backend failure: {exc}",
                            group[0].client_id) from exc
    if len(columns) != len(step.query_counts):
        raise ProtocolError(f"{name}: {len(columns)} answer columns to "
                            f"{len(step.query_counts)} clients",
                            group[0].client_id)
    for client, count, answers in zip(group, step.query_counts, columns):
        if len(answers) != count:
            raise ProtocolError(f"{name}: {len(answers)} answers to "
                                f"{count} queries", client.client_id)
    return columns


def _prepare_group(group: Sequence[ClientState], config: ProtocolConfig,
                   queries: Sequence[Covariate], embedder: Optional[Embedder],
                   server_reference: Optional[ClientDataset]
                   ) -> Tuple[List[Labels], Optional[Step], Step]:
    """The labels each client of the ``group`` keeps, and the group's step
    1 (None for a variant that does not relabel) and step 2, prepared once
    for a whole run.

    A client's step-2 pool has two parts: the examples it keeps, whose
    labels are the same every round (its own; the server reference under
    fedicl_lb; none under fedicl_free), then, when the variant relabels,
    its covariates, which step 1 labels anew each round: D^i ++ D_k^i.

    With a context count, every client's step-1 pool is the queries, so
    one search of the group's covariates, stacked, serves all of step 1:
    each row of a search is the first c of its own stable argsort. One
    more search serves all of step 2. It searches each distinct first
    part once (clients share fedicl_lb's reference), or the relabeled
    part where none is kept, and skips a pool that is every query's
    context."""
    kept = [server_reference if config.variant == "fedicl_lb" else None
            if config.variant == "fedicl_free" else c.original for c in group]
    relabeled = [c.original.covariates if config.relabels else None
                 for c in group]
    pools = [covs if ds is None else ds.covariates if covs is None
             else stack_covariates([ds.covariates, covs])
             for ds, covs in zip(kept, relabeled)]
    step1_nn, step2_nn = [None] * len(group), [None] * len(group)
    c = config.context_count
    if c is not None:
        emb = embedder if embedder is not None else IdentityEmbedder()
        if config.relabels and c < len(queries):
            (nearest, _), = knn_context([queries], stack_covariates(
                relabeled), c, emb)
            step1_nn = np.split(nearest, np.cumsum(
                [len(covs) for covs in relabeled[:-1]]))
        at = [i for i, pool in enumerate(pools) if c < len(pool)]
        searched = [relabeled[i] if kept[i] is None else kept[i].covariates
                    for i in at]
        unique = list({id(part): part for part in searched}.values())
        found = dict(zip(map(id, unique), knn_context(unique, queries, c,
                                                      emb)))
        for i, part in zip(at, searched):
            nearest, key = found[id(part)]
            if kept[i] is not None and relabeled[i] is not None:
                # each kept covariate j is also relabeled, at N + j, and
                # among equal distances j comes first
                order = np.argsort(np.hstack([key, key]), axis=1,
                                   kind="stable")
                nearest = np.take_along_axis(np.hstack(
                    [nearest, nearest + len(part)]), order[:, :c], axis=1)
            step2_nn[i] = nearest
    step1 = (prepare_step(group, [(queries, covs, nb) for covs, nb in
                                  zip(relabeled, step1_nn)], "step 1")
             if config.relabels else None)
    step2 = prepare_step(group, [(pool, queries, nb) for pool, nb in
                                 zip(pools, step2_nn)], "step 2")
    return [() if ds is None else ds.labels for ds in kept], step1, step2


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
        answers = np.ascontiguousarray(np.array(
            [real_values(per_client[cid]) for cid in client_ids]).T)
        return previous.with_labels(RealColumn.wrap(answers.mean(axis=1)))
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

    @property
    def final(self) -> Dataset:
        """The last round's aggregated query set."""
        return self.traces[-1].aggregated


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
    answers with reals reads vectors and real labels, so ``average`` reads
    no text covariates, nor text labels where the variant reads labels.
    """
    if not clients:
        raise ConfigError("run has no clients")
    repeated = sorted(cid for cid, n in
                      Counter(c.client_id for c in clients).items() if n > 1)
    if repeated:
        raise ConfigError(f"client ids {repeated} are each given to more "
                          f"than one client")
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
    # fedicl_free reads no labels but those that step 1 gives
    owners = [owner for owner, ds in read if reals and len(ds)
              and not isinstance(ds.labels, RealColumn)
              and config.variant != "fedicl_free"]
    if owners:
        raise ConfigError(f"the backends of an 'average' run read real "
                          f"labels, not the text labels of "
                          f"{', '.join(owners)}")


def charge_protocol_round(ledger: CommLedger, round: int,
                          payloads: Sequence[Tuple[int, int, int]],
                          num_queries: int, unit: str,
                          usages: Sequence[Dict[str, int]]) -> None:
    """Charge a round that has answered to ``ledger``, in ``unit``, from
    each client's ``payloads`` row (client_id, question_units,
    answer_units).

    Downlink per client: the M query payloads (question + current label);
    questions are charged only in round 1, since only the labels change in
    later rounds. Uplink per client: M answers. Then, as unit
    ``observed_tokens``, what each client's backend reported in its
    ``usages`` dict: prompt tokens as uplink, completion tokens as
    downlink (LSA reports nothing). The rows go to ``ledger.record`` in
    one call, so a bad row charges none of the round.
    """
    rows = []
    for cid, question_units, answer_units in payloads:
        sent = question_units + answer_units if round == 1 else answer_units
        rows += ((round, "downlink", cid, num_queries * sent, unit),
                 (round, "uplink", cid, num_queries * answer_units, unit))
    observed = [(round, direction, cid, usage[key], "observed_tokens")
                for (cid, _, _), usage in zip(payloads, usages, strict=True)
                for direction, key in (("uplink", "prompt_tokens"),
                                       ("downlink", "completion_tokens"))
                if key in usage]
    ledger.record(rows + observed)


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
    call (see ``_check_run``), as ``max_workers`` other than None or an int
    >= 1 raises ``TypeError`` or ``ValueError``; a failing backend raises
    ``ProtocolError``. Each round is charged to the ledger once, after
    its answers (see ``charge_protocol_round``). Clients whose backends
    compare equal form a group; its backend prepares each of its steps
    once, at set-up, and the group answers each step of a round in one
    ``answer`` call. When some client's backend waits on
    I/O, the groups answer in a pool of ``max_workers`` threads (default:
    one per group); otherwise they answer one after another in the
    caller's thread.
    ``theory_w_trace``, when given, attaches the matching closed-form weight
    vector to each round's trace. The traces are written to ``trace_path``
    (if set) also on a mid-run failure, before it is re-raised.
    """
    queries = covariate_column(queries)  # every round shares this column
    if max_workers is not None and check_int("max_workers", max_workers) < 1:
        raise ValueError("max_workers must be >= 1 when set")
    _check_run(config, clients, queries, embedder, server_reference)

    if config.variant == "fedicl_ub":   # one client, with the first's id
        cid = clients[0].client_id
        merged = concat([c.original for c in clients])
        clients = [ClientState(client_id=cid, backend=clients[0].backend,
                               original=ClientDataset(
                                   cid, covariates=merged.covariates,
                                   labels=merged.labels))]

    rng = np.random.default_rng(config.seed)
    c_k = init_labels(queries, config.init_mode, clients[0], rng)
    ledger = CommLedger()
    # one payload row per client: backends that answer with reals (every
    # cap agrees, by ``_check_run``) send 64 bits a real, vector questions
    # included; the others send every question and answer at their cap
    unit = "bits" if clients[0].backend.max_tokens is None else "tokens"
    payloads = [(c.client_id, BITS_PER_REAL * queries.shape[1], BITS_PER_REAL)
                if unit == "bits" else
                (c.client_id, c.backend.max_tokens, c.backend.max_tokens)
                for c in clients]

    # clients whose backends are equal answer each step in one call. A
    # round changes only labels, and neighbour choice ignores them, so
    # each step of each group is searched and prepared once per run
    by_backend: Dict[LmBackend, List[int]] = {}
    for i, c in enumerate(clients):
        by_backend.setdefault(c.backend, []).append(i)
    positions = list(by_backend.values())
    plans = [(group, *_prepare_group(group, config, queries, embedder,
                                     server_reference))
             for group in ([clients[i] for i in at] for at in positions)]

    def group_round(plan) -> List[Tuple[Labels, dict]]:
        group, labels, step1, step2 = plan
        usages: List[Dict[str, int]] = [{} for _ in group]
        if step1 is not None:
            relabeled = step1_relabel(group, step1, c_k, usages)
            labels = [join_labels([kept, new])
                      for kept, new in zip(labels, relabeled)]
        return list(zip(step2_answer(group, step2, labels, usages), usages))

    # threads only pay while a backend waits: in-process ones answer here
    threaded = (max_workers != 1 and len(plans) > 1
                and any(c.backend.waits_on_io for c in clients))
    executor = (ThreadPoolExecutor(max_workers=max_workers or len(plans))
                if threaded else None)
    map_groups = executor.map if executor is not None else map
    traces: List[RoundTrace] = []
    try:
        for k in range(1, config.effective_rounds + 1):
            answered = [None] * len(clients)
            for at, results in zip(positions, map_groups(group_round, plans)):
                for i, result in zip(at, results):
                    answered[i] = result
            answers, usages = zip(*answered)
            charge_protocol_round(ledger, k, payloads, len(queries), unit,
                                  usages)
            per_client = dict(zip((c.client_id for c in clients), answers))
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
    return ProtocolResult(traces=traces, ledger=ledger)
