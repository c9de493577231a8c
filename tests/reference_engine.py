"""A reference Fed-ICL engine for differential tests of ``protocol.run``.

It runs the protocol as the ``fedicl.protocol`` docstring states it, one
client and one query at a time, on the LSA closed form. It forms no groups,
prepares nothing, runs no stacked search and uses no threads: each context
is the whole pool or, with a context count c, the c nearest examples of one
covariate, found by an exhaustive search whose distance ties go to the
lower index. Step 2's pool of a relabeling variant that keeps its examples
is D^i ++ D_k^i, so among equal distances the kept example j comes before
its relabeled copy N + j.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from fedicl.data import IdentityEmbedder
from test_data import brute_force_knn
from test_lsa import brute_force_prediction

#: one client: (client id, (n, d) covariates, (n,) labels, Gamma)
Client = Tuple[int, np.ndarray, np.ndarray, np.ndarray]


class _Pool:
    """The covariates that ``brute_force_knn`` searches."""

    def __init__(self, covariates: Sequence[np.ndarray]):
        self.covariates = covariates


def context(xs: Sequence[np.ndarray], ys: Sequence[float], x: np.ndarray,
            c: Optional[int]) -> List[Tuple[np.ndarray, float]]:
    """The examples that answer ``x``: the whole pool, or its c nearest."""
    if c is None or c >= len(xs):
        return list(zip(xs, ys))
    nearest = brute_force_knn(_Pool(xs), [x], c, IdentityEmbedder())
    return [(xs[i], ys[i]) for i in sorted(nearest)]


def answer(xs, ys, x, c, gamma) -> float:
    return brute_force_prediction(context(xs, ys, x, c), x, gamma)


def reference_run(variant: str, clients: Sequence[Client],
                  queries: np.ndarray, rounds: int,
                  context_count: Optional[int] = None,
                  init_mode: str = "zeros", seed: int = 0,
                  reference: Optional[Tuple[np.ndarray, np.ndarray]] = None
                  ) -> List[Tuple[Dict[int, np.ndarray], np.ndarray]]:
    """Each round's answers by client id and aggregated labels.

    ``fedicl_ub`` runs one client, with the first client's id and Gamma,
    that holds every client's examples in client order; ``fedicl_lb`` answers
    in the server ``reference`` (covariates, labels). C_1 is zero, or with
    ``random`` a standard normal draw from ``seed``; ``backend_generated``
    asks an LSA backend with no context, which answers 0."""
    c = context_count
    if variant == "fedicl_ub":
        cid, _, _, gamma = clients[0]
        clients = [(cid, np.vstack([xs for _, xs, _, _ in clients]),
                    np.concatenate([ys for _, _, ys, _ in clients]), gamma)]
    labels = (np.random.default_rng(seed).standard_normal(len(queries))
              if init_mode == "random" else np.zeros(len(queries)))
    relabels = variant not in ("fedicl_gt", "fedicl_lb")
    out = []
    for _ in range(rounds if relabels else 1):
        answers = {}
        for cid, xs, ys, gamma in clients:
            if variant == "fedicl_lb":
                pool_x, pool_y = list(reference[0]), list(reference[1])
            else:
                kept = variant != "fedicl_free"
                pool_x = list(xs) if kept else []
                pool_y = list(ys) if kept else []
            if relabels:
                # step 1: each local covariate in the query set C_k
                pool_x += list(xs)
                pool_y += [answer(queries, labels, x, c, gamma) for x in xs]
            # step 2: each query in the client's pool
            answers[cid] = np.array([answer(pool_x, pool_y, q, c, gamma)
                                     for q in queries])
        labels = np.mean([answers[cid] for cid in sorted(answers)], axis=0)
        out.append((answers, labels))
    return out
