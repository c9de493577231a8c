"""Dataset ingestion, Dirichlet non-IID partitioning, and kNN search."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from numbers import Real
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import (ClientDataset, ConfigError, Covariate, Example,
                   check_int, example_from_json, example_to_json)


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
    prior: Optional[Tuple[float, ...]] = None  # None: uniform over categories
    seed: int = 0

    def __post_init__(self):
        check_int("num_clients", self.num_clients)
        check_int("seed", self.seed)
        if isinstance(self.alpha, bool) or not isinstance(self.alpha, Real):
            raise TypeError(f"alpha must be a number, got {self.alpha!r}")
        prior = self.prior and tuple(float(p) for p in self.prior)
        object.__setattr__(self, "prior", prior)
        if self.num_clients < 1:
            raise ValueError("num_clients must be >= 1")
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if prior is not None and (any(p < 0 for p in prior)
                                  or abs(sum(prior) - 1.0) > 1e-12):
            raise ValueError("prior must be a probability vector")


def _largest_remainder(weights: np.ndarray, total: int) -> np.ndarray:
    """Round `weights * total / sum(weights)` to integers summing to total."""
    weights = np.asarray(weights, dtype=float)
    quotas = weights / weights.sum() * total
    counts = np.floor(quotas).astype(int)
    remainder = total - counts.sum()
    if remainder > 0:
        order = np.argsort(-(quotas - counts), kind="stable")
        counts[order[:remainder]] += 1
    return counts


def dirichlet_partition(dataset: Sequence[Example], spec: PartitionSpec
                        ) -> Tuple[List[ClientDataset], Dict[int, int]]:
    """Split examples across clients with category mix q ~ Dir(alpha * prior),
    over the sorted categories of the examples.

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
    categories = sorted({ex.category for ex in dataset})
    prior = spec.prior or tuple(np.ones(len(categories)) / len(categories))
    if len(categories) != len(prior):
        raise ValueError(f"prior has {len(prior)} entries but there are "
                         f"{len(categories)} categories")

    rng = np.random.default_rng(spec.seed)
    cat_index = {c: i for i, c in enumerate(categories)}
    pools: List[List[int]] = [[] for _ in categories]
    for idx, ex in enumerate(dataset):
        pools[cat_index[ex.category]].append(idx)
    for pool in pools:
        rng.shuffle(pool)

    total = len(dataset)
    client_sizes = _largest_remainder(np.ones(spec.num_clients), total)
    alpha_vec = spec.alpha * np.asarray(prior)
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
        # the client sizes sum to the dataset's length: no pool runs dry
        while len(picked) < client_sizes[ci]:
            cat = int(np.argmax(available))
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

#: Most elements in one block's (queries, pool) distance matrix
KNN_BLOCK_ELEMENTS = 16_384


def knn_context(pool: Sequence[Covariate], queries: Sequence[Covariate],
                c: int, embedder: Embedder, keys: bool = False,
                sizes: Optional[Sequence[int]] = None):
    """Indices into ``pool`` of each query's c nearest covariates: a (Q,
    min(c, len(pool))) integer array, rows nearest-first, distance ties in
    pool order (the first c of each query's stable argsort of its
    ``norm(pool - q, axis=1)``). With ``sizes``, ``pool`` holds pools of
    those lengths end to end, and a list holds one such array per pool, of
    indices into that pool. With ``keys``, each array comes with a float
    array of its shape that increases along each row and is equal exactly
    where those distances tie. The pool and the queries are embedded once
    each, and searched a block of queries at a time, so that a block's
    distance matrix holds at most ``KNN_BLOCK_ELEMENTS`` elements (or one
    query's, if that is more).

    A block's squared distances, less each query's ``|q|^2``, come from
    one matrix product. Each query sorts its c + 1 nearest in each pool by
    those, and keeps the first c when all of them are clear of each other
    by a rounding slack; any other query is searched exactly in that pool."""
    if c < 1:
        raise ValueError("c must be >= 1")
    pool_emb = embedder.embed_many(pool)
    query_emb = embedder.embed_many(queries)
    (n, d), q = pool_emb.shape, len(query_emb)
    lengths = [n] if sizes is None else list(sizes)
    starts = np.cumsum([0] + lengths[:-1])
    rows = max(1, KNN_BLOCK_ELEMENTS // max(n, 1))
    pool_sq = np.einsum("ij,ij->i", pool_emb, pool_emb)
    eps, tiny = np.finfo(float).eps, np.finfo(float).smallest_subnormal
    # the pools of one size are searched together: (pools, size) columns
    plans, found = [], [None] * len(lengths)
    for size in dict.fromkeys(lengths):
        at = [i for i, length in enumerate(lengths) if length == size]
        cols, k = starts[at, None] + np.arange(size), min(c, size)
        nearest = np.empty((q, len(at), k), dtype=np.intp)
        key = np.empty(nearest.shape)
        if size:
            plans.append((cols, k, min(k + 1, size), nearest, key, np.sqrt(
                pool_sq[cols].max(axis=1, initial=0))))
        for j, i in enumerate(at):
            found[i] = (nearest[:, j], key[:, j]) if keys else nearest[:, j]
    for lo in range(0, q, rows):
        block = query_emb[lo:lo + rows]
        # squared distances less |q|^2, which is constant along a row
        approx = pool_sq - 2.0 * (block @ pool_emb.T)
        for cols, k, m, nearest, key, pool_norm in plans:
            # one row per (query, pool); flat indices gather from a row
            seg = (approx if len(plans) == 1 else approx[:, cols]).reshape(
                -1, cols.shape[1])
            at = np.arange(len(seg))[:, None]
            top = np.argpartition(seg, m - 1, axis=1)[:, :m]
            vals = seg.ravel()[top + at * seg.shape[1]]
            order = np.argsort(vals, axis=1) + at * m
            top, vals = top.ravel()[order], vals.ravel()[order]
            nearest[lo:lo + rows] = top[:, :k].reshape(len(block), -1, k)
            key[lo:lo + rows] = vals[:, :k].reshape(len(block), -1, k)
            # The product above errs from a true squared distance less
            # |q|^2, and the sum of squares in norm() from that distance,
            # by at most about E = (d + 3) eps (|p| + |q|)^2 + d half-
            # subnormals each, and slack >= 8 E. Where consecutive products
            # differ by over 2 slack, the sums differ by over 1.5 slack, so
            # by over 4 eps times either: they and their correctly rounded
            # square roots keep the products' strict order, which is the
            # stable argsort's. Any other row (a tie, lost digits; NaN or
            # inf make slack NaN or inf) is searched exactly.
            slack = 8 * (d + 4) * (eps * (pool_norm + np.linalg.norm(
                block, axis=1)[:, None]) ** 2 + tiny)
            clear = (np.diff(vals, axis=1) > 2 * slack.reshape(-1, 1)).all(1)
            for i, j in zip(*np.divmod(np.flatnonzero(~clear), len(cols))):
                dist = np.linalg.norm(pool_emb[cols[j]] - block[i], axis=1)
                nearest[lo + i, j] = np.argsort(dist, kind="stable")[:k]
                key[lo + i, j] = dist[nearest[lo + i, j]]
    return found if sizes is not None else found[0]


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

