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

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .backend import GenerationParams, LmBackend
from .core import (BITS_PER_REAL, ChoiceLabel, ClientDataset, CommLedger,
                   Covariate, Example, Label, QuerySet, RealLabel, RoundTrace,
                   TextLabel, ABSTAIN, charge_protocol_round, covariate_dim,
                   real_values, save_traces)
from .data import Embedder, IdentityEmbedder, knn_context

VARIANTS = ("fedicl", "fedicl_free", "fedicl_gt", "fedicl_ub", "fedicl_lb")
AGGREGATIONS = ("average", "majority", "fusion")
INIT_MODES = ("zeros", "random", "backend_generated")


@dataclass(frozen=True)
class ProtocolConfig:
    rounds: int
    variant: str = "fedicl"
    aggregation: str = "average"
    context_count: Optional[int] = None  # None: use full context (no kNN)
    init_mode: str = "zeros"
    seed: int = 0
    options: Tuple[str, ...] = ()        # option set for majority voting

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant: {self.variant!r}")
        if self.aggregation not in AGGREGATIONS:
            raise ValueError(f"unknown aggregation: {self.aggregation!r}")
        if self.init_mode not in INIT_MODES:
            raise ValueError(f"unknown init mode: {self.init_mode!r}")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.context_count is not None and self.context_count < 1:
            raise ValueError("context_count must be >= 1 when set")
        object.__setattr__(self, "options", tuple(self.options))

    @property
    def effective_rounds(self) -> int:
        # ground-truth contexts never change, so extra rounds are no-ops
        return 1 if self.variant == "fedicl_gt" else self.rounds


@dataclass
class ClientState:
    client_id: int
    original: Optional[ClientDataset]
    backend: LmBackend
    relabeled: Optional[ClientDataset] = None


class ProtocolError(RuntimeError):
    def __init__(self, message: str, client_id: Optional[int] = None):
        super().__init__(message)
        self.client_id = client_id


# ---------------------------------------------------------------------------
# Steps
# ---------------------------------------------------------------------------

def init_labels(covariates: Sequence[Covariate], mode: str,
                backend: Optional[LmBackend] = None,
                rng: Optional[np.random.Generator] = None) -> QuerySet:
    """Build the round-1 query set C_1."""
    covariates = tuple(covariates)
    if mode == "zeros":
        labels: Tuple[Label, ...] = tuple(RealLabel(0.0) for _ in covariates)
    elif mode == "random":
        rng = rng if rng is not None else np.random.default_rng(0)
        labels = tuple(RealLabel(float(v))
                       for v in rng.standard_normal(len(covariates)))
    elif mode == "backend_generated":
        if backend is None:
            raise ValueError("backend_generated initialization needs a backend")
        labels = tuple(backend.answer([], q) for q in covariates)
    else:
        raise ValueError(f"unknown init mode: {mode!r}")
    return QuerySet(covariates=covariates, labels=labels, round=1)


def step1_relabel(client: ClientState, c_k: QuerySet,
                  context_count: Optional[int] = None,
                  embedder: Optional[Embedder] = None) -> ClientDataset:
    """Relabel the client's covariates via ICL on the server's query set."""
    if client.original is None:
        raise ProtocolError("client has no local dataset", client.client_id)
    examples = client.original.examples
    labels = _answer_in_context(
        client, tuple(Example(covariate=x, label=y) for x, y in c_k.pairs()),
        [ex.covariate for ex in examples], context_count, embedder, step=1)
    return ClientDataset(client_id=client.client_id, examples=tuple(
        Example(covariate=ex.covariate, label=label, category=ex.category)
        for ex, label in zip(examples, labels)))


def _answer_in_context(client: ClientState, pool_examples: Tuple[Example, ...],
                       queries: Sequence[Covariate],
                       context_count: Optional[int],
                       embedder: Optional[Embedder], step: int
                       ) -> Tuple[Label, ...]:
    """Answer each query with the client's backend, in the context of the
    pool (all of it, or the query's kNN when ``context_count`` is set)."""
    pool = ClientDataset(client_id=client.client_id, examples=pool_examples)
    answers: List[Label] = []
    for q in queries:
        context = _select_context(pool, q, context_count, embedder)
        try:
            answers.append(client.backend.answer(context, q))
        except Exception as exc:
            raise ProtocolError(f"step {step} backend failure: {exc}",
                                client.client_id) from exc
    return tuple(answers)


def _select_context(pool: ClientDataset, query: Covariate,
                    context_count: Optional[int],
                    embedder: Optional[Embedder]) -> Tuple[Example, ...]:
    if context_count is None or context_count >= len(pool):
        return pool.examples
    emb = embedder if embedder is not None else IdentityEmbedder()
    return knn_context(pool, query, context_count, emb)


def step2_answer(client: ClientState, queries: Sequence[Covariate],
                 variant: str = "fedicl",
                 context_count: Optional[int] = None,
                 embedder: Optional[Embedder] = None,
                 server_reference: Optional[ClientDataset] = None
                 ) -> Tuple[Label, ...]:
    """Answer the server queries with the variant's in-context dataset."""
    if variant in ("fedicl", "fedicl_ub"):
        if client.original is None or client.relabeled is None:
            raise ProtocolError("step 2 before step 1", client.client_id)
        pool_examples = client.original.examples + client.relabeled.examples
    elif variant == "fedicl_free":
        if client.relabeled is None:
            raise ProtocolError("step 2 before step 1", client.client_id)
        pool_examples = client.relabeled.examples
    elif variant == "fedicl_gt":
        if client.original is None:
            raise ProtocolError("client has no local dataset", client.client_id)
        pool_examples = client.original.examples
    elif variant == "fedicl_lb":
        if server_reference is None:
            raise ProtocolError("fedicl_lb needs a server reference set",
                                client.client_id)
        pool_examples = server_reference.examples
    else:
        raise ValueError(f"unknown variant: {variant!r}")
    return _answer_in_context(client, pool_examples, queries, context_count,
                              embedder, step=2)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def default_fusion(answers: Sequence[TextLabel]) -> TextLabel:
    """Trivial fusion: the most frequent answer string, ties by first seen."""
    counts: Dict[str, int] = {}
    for lab in answers:
        counts[lab.answer] = counts.get(lab.answer, 0) + 1
    best = max(counts.items(), key=lambda kv: (kv[1], -list(counts).index(kv[0])))
    return TextLabel(best[0])


class TokenOverlapJudge:
    """Prefer the fused candidate iff it matches strictly more reference
    tokens than the previous answer; otherwise keep the previous one."""

    def __init__(self, references: Dict[str, str]):
        self.references = references

    def better(self, candidate: TextLabel, previous: Label,
               query: Covariate) -> bool:
        key = query if isinstance(query, str) else str(list(query))
        ref = self.references.get(key)
        if ref is None:
            return False
        ref_tokens = set(ref.lower().split())
        cand = len(set(candidate.answer.lower().split()) & ref_tokens)
        prev_text = previous.answer if isinstance(previous, TextLabel) else ""
        prev = len(set(prev_text.lower().split()) & ref_tokens)
        return cand > prev


def aggregate(per_client: Dict[int, Sequence[Label]], strategy: str,
              previous: QuerySet,
              options: Sequence[str] = (),
              judge: Optional[TokenOverlapJudge] = None) -> QuerySet:
    """Combine per-client answers into the next query set C_{k+1}.

    Clients are consumed in ascending id order regardless of completion
    order, so aggregation is deterministic.
    """
    m = len(previous)
    client_ids = sorted(per_client)
    for cid in client_ids:
        if len(per_client[cid]) != m:
            raise ValueError(f"client {cid} answered "
                             f"{len(per_client[cid])} of {m} queries")
    labels: List[Label] = []
    for qi in range(m):
        answers = [per_client[cid][qi] for cid in client_ids]
        if strategy == "average":
            labels.append(RealLabel(float(np.mean(real_values(answers)))))
        elif strategy == "majority":
            labels.append(_majority_vote(answers, options, previous.labels[qi]))
        elif strategy == "fusion":
            for a in answers:
                if not isinstance(a, TextLabel):
                    raise TypeError("fusion aggregation needs text labels")
            candidate = default_fusion(answers)
            prev = previous.labels[qi]
            if judge is not None and judge.better(candidate, prev,
                                                  previous.covariates[qi]):
                labels.append(candidate)
            elif judge is not None:
                labels.append(prev)
            else:
                labels.append(candidate)
        else:
            raise ValueError(f"unknown aggregation: {strategy!r}")
    return QuerySet(covariates=previous.covariates, labels=tuple(labels),
                    round=previous.round + 1)


def _majority_vote(answers: Sequence[Label], options: Sequence[str],
                   previous: Label) -> Label:
    counts: Dict[str, int] = {}
    for a in answers:
        if not isinstance(a, ChoiceLabel):
            raise TypeError("majority aggregation needs choice labels")
        if a == ABSTAIN:
            continue
        counts[a.option] = counts.get(a.option, 0) + 1
    if not counts:
        return previous
    option_index = {opt: i for i, opt in enumerate(options)}
    # argmax over votes; ties broken by lowest option index
    best = min(counts.items(),
               key=lambda kv: (-kv[1], option_index.get(kv[0], len(options))))
    return ChoiceLabel(best[0])


# ---------------------------------------------------------------------------
# The round loop
# ---------------------------------------------------------------------------

@dataclass
class ProtocolResult:
    traces: List[RoundTrace]
    ledger: CommLedger
    final: QuerySet


def _payload_units(queries: Sequence[Covariate],
                   gen_params: GenerationParams) -> Tuple[int, int, str]:
    """(question_units, answer_units, unit) for ledger accounting.

    Vector questions cost 64 bits per component and real answers 64 bits;
    text payloads are charged at the hard per-answer token cap.
    """
    d = covariate_dim(queries[0])
    if d is not None:
        return BITS_PER_REAL * d, BITS_PER_REAL, "bits"
    return gen_params.max_tokens, gen_params.max_tokens, "tokens"


def run(config: ProtocolConfig,
        clients: Sequence[ClientState],
        queries: Sequence[Covariate],
        embedder: Optional[Embedder] = None,
        server_reference: Optional[ClientDataset] = None,
        judge: Optional[TokenOverlapJudge] = None,
        gen_params: Optional[GenerationParams] = None,
        theory_w_trace: Optional[Sequence[np.ndarray]] = None,
        trace_path=None,
        max_workers: Optional[int] = None) -> ProtocolResult:
    """Execute the full protocol loop and return traces plus the ledger.

    ``theory_w_trace``, when given, attaches the matching closed-form weight
    vector to each round's trace. The traces are written to ``trace_path``
    (if set) also on a mid-run failure, before it is re-raised.
    """
    if len(clients) == 0:
        raise ValueError("need at least one client")
    queries = tuple(queries)
    gen_params = gen_params or GenerationParams()

    if config.variant == "fedicl_ub":
        merged = _merge_clients([c.original for c in clients])
        clients = [ClientState(client_id=1, original=merged,
                               backend=clients[0].backend)]

    rng = np.random.default_rng(config.seed)
    c_k = init_labels(queries, config.init_mode,
                      backend=clients[0].backend, rng=rng)
    ledger = CommLedger()
    question_units, answer_units, unit = _payload_units(queries, gen_params)
    client_ids = [c.client_id for c in clients]

    traces: List[RoundTrace] = []
    try:
        for k in range(1, config.effective_rounds + 1):
            charge_protocol_round(ledger, k, client_ids, len(queries),
                                  question_units, answer_units, unit)

            def client_round(client: ClientState) -> Tuple[int, Tuple[Label, ...]]:
                if config.variant in ("fedicl", "fedicl_free", "fedicl_ub"):
                    client.relabeled = step1_relabel(
                        client, c_k, config.context_count, embedder)
                answers = step2_answer(
                    client, queries, config.variant, config.context_count,
                    embedder, server_reference)
                return client.client_id, answers

            if max_workers == 1 or len(clients) == 1:
                results = [client_round(c) for c in clients]
            else:
                with ThreadPoolExecutor(max_workers=max_workers
                                        or len(clients)) as pool:
                    results = list(pool.map(client_round, clients))
            per_client = dict(results)
            c_next = aggregate(per_client, config.aggregation, c_k,
                               options=config.options, judge=judge)
            theory_w = None
            if theory_w_trace is not None and k < len(theory_w_trace):
                theory_w = tuple(float(v) for v in theory_w_trace[k])
            traces.append(RoundTrace(round=k, per_client_answers=per_client,
                                     aggregated=c_next, theory_w=theory_w))
            c_k = c_next
    finally:
        if trace_path is not None:
            save_traces(traces, trace_path)
    return ProtocolResult(traces=traces, ledger=ledger, final=c_k)


def _merge_clients(datasets: Sequence[Optional[ClientDataset]]) -> ClientDataset:
    examples: List[Example] = []
    for ds in datasets:
        if ds is None:
            raise ValueError("fedicl_ub requires every client to hold data")
        examples.extend(ds.examples)
    return ClientDataset(client_id=1, examples=tuple(examples))
