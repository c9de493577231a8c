"""Dataset ingestion, Dirichlet non-IID partitioning, and kNN search."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import (ConfigError, Covariate, Example, check_int, check_list,
                   check_number, covariate_column, example_from_json,
                   example_to_json, stack_covariates)


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
        check_number("alpha", self.alpha)
        prior = None if self.prior is None else tuple(
            float(check_number(f"prior[{i}]", p))
            for i, p in enumerate(check_list("prior", self.prior)))
        object.__setattr__(self, "prior", prior)
        if self.num_clients < 1:
            raise ValueError("num_clients must be >= 1")
        if not 0 < self.alpha < np.inf:
            raise ValueError("alpha must be positive and finite")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if prior is not None and (any(not 0 <= p < np.inf for p in prior)
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
                        ) -> Tuple[List[Tuple[Example, ...]], Dict[int, int]]:
    """Split examples across clients with category mix q ~ Dir(alpha * prior),
    over the sorted categories of the examples.

    Per client, a proportion vector is sampled once and converted to integer
    per-category counts by largest-remainder rounding; draws are without
    replacement, falling back to the globally most-available category when a
    requested one is exhausted. Returns each client's records, in corpus
    order, and a manifest mapping example index -> client id: client i of
    the list has id i + 1. The covariates are text or vectors of one d.
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
    covariate_column([ex.covariate for ex in dataset])  # of one kind and d

    rng = np.random.default_rng(spec.seed)
    pools = [[i for i, ex in enumerate(dataset) if ex.category == cat]
             for cat in categories]
    for pool in pools:
        rng.shuffle(pool)

    total = len(dataset)
    client_sizes = _largest_remainder(np.ones(spec.num_clients), total)
    alpha_vec = spec.alpha * np.asarray(prior)
    # Dirichlet with zero-mass components: sample over the positive support.
    positive = alpha_vec > 0

    manifest: Dict[int, int] = {}
    clients: List[Tuple[Example, ...]] = []
    for ci in range(spec.num_clients):
        q = np.zeros(len(categories))
        q[positive] = rng.dirichlet(alpha_vec[positive])
        want = _largest_remainder(q, int(client_sizes[ci]))
        picked: List[int] = []
        for pool, count in zip(pools, want):
            for _ in range(min(count, len(pool))):
                picked.append(pool.pop())
        # the client sizes sum to the dataset's length: no pool runs dry;
        # ties go to the first of the fullest pools
        while len(picked) < client_sizes[ci]:
            picked.append(max(pools, key=len).pop())
        clients.append(tuple(dataset[i] for i in sorted(picked)))
        manifest.update(dict.fromkeys(picked, ci + 1))
    return clients, manifest


def category_entropy(records: Sequence[Example]) -> float:
    """Shannon entropy (nats) of the records' empirical category mix."""
    counts = Counter(ex.category or "" for ex in records)
    p = np.array(list(counts.values()), dtype=float)
    p /= p.sum()
    return float(-(p * np.log(p)).sum())


# ---------------------------------------------------------------------------
# kNN context selection (exact search; desk-scale datasets)
# ---------------------------------------------------------------------------

#: Most elements in one block's (queries, pool) distance matrix
KNN_BLOCK_ELEMENTS = 16_384


def knn_context(pools: Sequence[Sequence[Covariate]],
                queries: Sequence[Covariate], c: int, embedder: Embedder
                ) -> List[Tuple[np.ndarray, np.ndarray]]:
    """For each of the ``pools``, its indices of each query's c nearest
    covariates and their keys. The indices are a (Q, min(c, len(pool)))
    integer array, rows nearest-first, distance ties in pool order (the
    first c of each query's stable argsort of its ``norm(pool - q,
    axis=1)``). The keys are a float array of its shape that increases
    along each row and is equal exactly where those distances tie. The
    pools are embedded end to end once, and the queries once, and searched
    a block of queries at a time, so that a block's distance matrix holds
    at most ``KNN_BLOCK_ELEMENTS`` elements (or one query's, if that is
    more).

    A block's squared distances, less each query's ``|q|^2``, come from
    one matrix product. Each query sorts its c + 1 nearest in each pool by
    those, and keeps the first c when all of them are clear of each other
    by a rounding slack; any other query is searched exactly in that pool."""
    if c < 1:
        raise ValueError("c must be >= 1")
    if not pools:
        return []
    pool_emb = embedder.embed_many(stack_covariates(pools))
    query_emb = embedder.embed_many(queries)
    (n, d), q = pool_emb.shape, len(query_emb)
    lengths = [len(pool) for pool in pools]
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
            found[i] = (nearest[:, j], key[:, j])
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
    return found


# ---------------------------------------------------------------------------
# JSONL persistence
# ---------------------------------------------------------------------------

def load_dataset(path, categorised: bool = False) -> List[Example]:
    """The examples of a JSONL file; a malformed record, or with
    ``categorised`` one with no category, raises ``ConfigError`` naming
    its ``<path>:<line>``."""
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
            if categorised and examples[-1].category is None:
                raise ConfigError(f"{path}:{lineno}: record has no category, "
                                  f"and every example needs a category for "
                                  f"partitioning")
    return examples


def save_dataset(examples: Sequence[Example], path) -> None:
    with open(path, "w") as fh:
        for ex in examples:
            fh.write(json.dumps(example_to_json(ex)) + "\n")

