"""Dataset ingestion, Dirichlet non-IID partitioning, and kNN search."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import (ClientDataset, ConfigError, Covariate, Example,
                   example_from_json, example_to_json)


# ---------------------------------------------------------------------------
# Embedders
# ---------------------------------------------------------------------------

class Embedder:
    """Deterministic map from a covariate (vector or text) to a fixed-length
    vector used for nearest-neighbor search."""

    #: ``embed`` maps an (n, d) array of covariates to their n embeddings
    embeds_rows = False

    def embed(self, covariate: Covariate) -> np.ndarray:
        raise NotImplementedError

    def embed_many(self, covariates: Sequence[Covariate]) -> np.ndarray:
        if (self.embeds_rows and isinstance(covariates, np.ndarray)
                and covariates.ndim == 2):
            return self.embed(covariates)
        return np.vstack([self.embed(c) for c in covariates])


class IdentityEmbedder(Embedder):
    """Vector covariates embed as themselves; exact for regression mode."""

    embeds_rows = True

    def embed(self, covariate: Covariate) -> np.ndarray:
        if isinstance(covariate, str):
            raise TypeError("identity embedder only handles vector covariates")
        return np.asarray(covariate, dtype=float)


class TableEmbedder(Embedder):
    """Lookup embedder for text covariates, fed from a precomputed table."""

    def __init__(self, table: Dict[str, Sequence[float]]):
        self.table = {k: np.asarray(v, dtype=float) for k, v in table.items()}

    def embed(self, covariate: Covariate) -> np.ndarray:
        key = covariate if isinstance(covariate, str) else tuple(covariate)
        if key not in self.table:
            raise KeyError(f"no embedding for {key!r}")
        return self.table[key]


# ---------------------------------------------------------------------------
# Dirichlet non-IID partitioning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionSpec:
    num_clients: int
    alpha: float
    prior: Tuple[float, ...]  # probability vector over categories
    seed: int = 0

    def __post_init__(self):
        prior = tuple(float(p) for p in self.prior)
        object.__setattr__(self, "prior", prior)
        if self.num_clients < 1:
            raise ValueError("num_clients must be >= 1")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if any(p < 0 for p in prior) or abs(sum(prior) - 1.0) > 1e-12:
            raise ValueError("prior must be a probability vector")


def _largest_remainder(weights: np.ndarray, total: int) -> np.ndarray:
    """Round `weights * total / sum(weights)` to integers summing to total."""
    weights = np.asarray(weights, dtype=float)
    if weights.sum() <= 0:
        weights = np.ones_like(weights)
    quotas = weights / weights.sum() * total
    counts = np.floor(quotas).astype(int)
    remainder = total - counts.sum()
    if remainder > 0:
        order = np.argsort(-(quotas - counts), kind="stable")
        counts[order[:remainder]] += 1
    return counts


def dirichlet_partition(dataset: Sequence[Example], spec: PartitionSpec,
                        categories: Optional[Sequence[str]] = None
                        ) -> Tuple[List[ClientDataset], Dict[int, int]]:
    """Split examples across clients with category mix q ~ Dir(alpha * prior).

    Per client, a proportion vector is sampled once and converted to integer
    per-category counts by largest-remainder rounding; draws are without
    replacement, falling back to the globally most-available category when a
    requested one is exhausted. Returns the client datasets and a manifest
    mapping example index -> client id (ids are 1-based).
    """
    if any(ex.category is None for ex in dataset):
        raise ValueError("every example needs a category for partitioning")
    if spec.num_clients > len(dataset):
        raise ValueError(f"cannot split {len(dataset)} examples across "
                         f"{spec.num_clients} clients")
    if categories is None:
        categories = sorted({ex.category for ex in dataset})
    categories = list(categories)
    if len(categories) != len(spec.prior):
        raise ValueError(f"prior has {len(spec.prior)} entries but there are "
                         f"{len(categories)} categories")
    missing = [c for c, p in zip(categories, spec.prior)
               if p > 0 and not any(ex.category == c for ex in dataset)]
    if missing:
        raise ValueError(f"dataset has no examples of category {missing[0]!r}")

    rng = np.random.default_rng(spec.seed)
    cat_index = {c: i for i, c in enumerate(categories)}
    pools: List[List[int]] = [[] for _ in categories]
    for idx, ex in enumerate(dataset):
        if ex.category not in cat_index:
            raise ValueError(f"example category {ex.category!r} not in prior "
                             "support")
        pools[cat_index[ex.category]].append(idx)
    for pool in pools:
        rng.shuffle(pool)

    total = len(dataset)
    client_sizes = _largest_remainder(np.ones(spec.num_clients), total)
    alpha_vec = spec.alpha * np.asarray(spec.prior)
    # Dirichlet with zero-mass components: sample over the positive support.
    positive = alpha_vec > 0

    manifest: Dict[int, int] = {}
    clients: List[ClientDataset] = []
    available = np.array([len(p) for p in pools])
    for ci in range(spec.num_clients):
        q = np.zeros(len(categories))
        q[positive] = rng.dirichlet(alpha_vec[positive])
        want = _largest_remainder(q, int(client_sizes[ci]))
        picked: List[int] = []
        for cat, count in enumerate(want):
            take = min(int(count), int(available[cat]))
            for _ in range(take):
                picked.append(pools[cat].pop())
            available[cat] -= take
        while len(picked) < client_sizes[ci]:
            cat = int(np.argmax(available))
            if available[cat] == 0:
                raise ValueError("dataset exhausted before all clients filled")
            picked.append(pools[cat].pop())
            available[cat] -= 1
        examples = tuple(dataset[i] for i in sorted(picked))
        clients.append(ClientDataset(client_id=ci + 1, examples=examples))
        for i in picked:
            manifest[i] = ci + 1
    return clients, manifest


def category_entropy(dataset: ClientDataset) -> float:
    """Shannon entropy (nats) of the client's empirical category mix."""
    counts = Counter(cat or "" for cat in dataset.categories)
    p = np.array(list(counts.values()), dtype=float)
    p /= p.sum()
    return float(-(p * np.log(p)).sum())


# ---------------------------------------------------------------------------
# kNN context selection (exact search; desk-scale datasets)
# ---------------------------------------------------------------------------

#: Most elements in one block's (queries, pool) distance matrix, and in its
#: (queries, candidates, dim) re-rank array
KNN_BLOCK_ELEMENTS = 16_384


def knn_context(pool: Sequence[Covariate], queries: Sequence[Covariate],
                c: int, embedder: Embedder, distances: bool = False):
    """Indices into ``pool`` of each query's c nearest covariates: a (Q,
    min(c, len(pool))) integer array, rows nearest-first, distance ties in
    pool order (the first c of each query's stable argsort of its
    ``norm(pool - q, axis=1)``). With ``distances``, also those norms: a
    float array of the same shape. The pool and the queries are embedded once
    each, and searched a block of queries at a time, so that a block's
    distance matrix and re-rank array each hold at most
    ``KNN_BLOCK_ELEMENTS`` elements (or one query's, if that is more).

    A block's squared distances come from one matrix product; each query
    keeps its c + 8 nearest by those as candidates, which the exact
    distance re-ranks. A query whose nearest non-candidate is not clear of
    its c-th exact distance by a rounding slack is searched exactly over
    the whole pool instead."""
    if c < 1:
        raise ValueError("c must be >= 1")
    pool_emb = embedder.embed_many(pool)
    query_emb = embedder.embed_many(queries)
    (n, d), k = pool_emb.shape, min(c, len(pool_emb))
    m = min(k + 8, n)  # candidates per query; m == n: all of the pool
    rows = max(1, KNN_BLOCK_ELEMENTS // max(n, m * d, 1))
    pool_sq = np.einsum("ij,ij->i", pool_emb, pool_emb)
    pool_norm = np.sqrt(pool_sq.max(initial=0.0))
    nearest = np.empty((len(query_emb), k), dtype=np.intp)
    near = np.empty((len(query_emb), k))
    for lo in range(0, len(query_emb), rows):
        block = query_emb[lo:lo + rows]
        at = np.arange(len(block))[:, None]
        if m == n:
            cand = np.broadcast_to(np.arange(n), (len(block), n))
        else:
            block_sq = np.einsum("ij,ij->i", block, block)
            approx = pool_sq - 2.0 * (block @ pool_emb.T) + block_sq[:, None]
            part = np.argpartition(approx, m, axis=1)
            cand = np.sort(part[:, :m], axis=1)  # pool order, for stable ties
            outside = approx[at[:, 0], part[:, m]]  # nearest non-candidate
        # each row is bitwise the norm(pool_emb - q, axis=1) of its candidates
        exact = np.linalg.norm(pool_emb[cand] - block[:, None], axis=2)
        order = np.argsort(exact, axis=1, kind="stable")[:, :k]
        nearest[lo:lo + rows] = cand[at, order]
        near[lo:lo + rows] = exact[at, order]
        if m == n:
            continue
        kth = near[lo:lo + rows, -1]
        # Either form of a squared distance errs by at most about
        # (d + 3) eps (|p| + |q|)^2, plus d half-subnormals where squares
        # underflow. A non-candidate whose product-form distance exceeds
        # the c-th exact one squared by 8 (d + 4) (eps (|p| + |q|)^2 + one
        # subnormal) is exactly farther, so it can neither be nearer nor
        # tie. Any other row (a tie, lost precision, NaN or inf) is
        # searched exactly.
        eps, tiny = np.finfo(float).eps, np.finfo(float).smallest_subnormal
        slack = 8 * (d + 4) * (eps * (pool_norm + np.sqrt(block_sq)) ** 2
                               + tiny)
        for i in np.flatnonzero(~(outside > kth * kth + slack)):
            dist = np.linalg.norm(pool_emb - block[i], axis=1)
            nearest[lo + i] = np.argsort(dist, kind="stable")[:k]
            near[lo + i] = dist[nearest[lo + i]]
    return (nearest, near) if distances else nearest


# ---------------------------------------------------------------------------
# JSONL persistence
# ---------------------------------------------------------------------------

def load_dataset(path) -> List[Example]:
    examples = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                examples.append(example_from_json(json.loads(line)))
            except (KeyError, TypeError, ValueError) as exc:  # bad JSON too
                raise ConfigError(f"{path}:{lineno}: malformed record: {exc}")
    return examples


def save_dataset(examples: Sequence[Example], path) -> None:
    with open(path, "w") as fh:
        for ex in examples:
            fh.write(json.dumps(example_to_json(ex)) + "\n")

