"""Single-layer linear self-attention (LSA) predictor.

Implements the embedding layout, the forward pass

    f(E) = E + W_pv E (E^T W_kq E) / rho,

the closed-form pretrained-limit parameters, the closed-form prediction at
the global optimum, and gradient-descent pretraining on the empirical
squared-loss risk over sampled linear-regression prompts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .core import (Covariate, context_starts, covariate_matrix,
                   neighbour_matrix)
from .data import KNN_BLOCK_ELEMENTS


def _check_spd(mat: np.ndarray, name: str = "matrix") -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or not 0 < mat.shape[0] == mat.shape[1]:
        raise ValueError(f"{name} must be square and non-empty, got shape "
                         f"{mat.shape}")
    if not np.isfinite(mat).all():
        raise ValueError(f"{name} must be finite")
    # np.allclose(mat, mat.T, atol=1e-12), without its generic overhead
    if not (np.abs(mat - mat.T) <= 1e-12 + 1e-5 * np.abs(mat.T)).all():
        raise ValueError(f"{name} must be symmetric")
    eigvals = np.linalg.eigvalsh(mat)
    if eigvals.min() <= 0:
        raise ValueError(f"{name} must be positive definite "
                         f"(min eigenvalue {eigvals.min():.3e})")
    return mat


class SpdMatrix:
    """A read-only copy of a matrix, checked finite, square, symmetric and
    positive definite once, when it is made: ``ClosedFormStep`` takes it
    without checking it again."""

    __slots__ = ("matrix",)

    def __init__(self, mat, name: str = "matrix"):
        mat = _check_spd(np.array(mat, dtype=float), name)
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    def __setattr__(self, name, value):
        raise AttributeError("SpdMatrix is immutable")


def gamma(lam: np.ndarray, t_prompt: int) -> np.ndarray:
    """Effective covariance of the pretrained predictor.

    Gamma = (1 + 1/T) * Lambda + (1/T) * tr(Lambda) * I.
    """
    lam = _check_spd(lam, "lambda")
    if t_prompt < 1:
        raise ValueError("pretraining prompt length must be >= 1")
    d = lam.shape[0]
    t = float(t_prompt)
    return (1.0 + 1.0 / t) * lam + (np.trace(lam) / t) * np.eye(d)


@dataclass(frozen=True)
class LsaParams:
    """Merged query-key / projection-value matrices plus normalization rho."""

    w_kq: np.ndarray  # (d+1, d+1)
    w_pv: np.ndarray  # (d+1, d+1)
    rho: float

    def __post_init__(self):
        w_kq = np.asarray(self.w_kq, dtype=float)
        w_pv = np.asarray(self.w_pv, dtype=float)
        if w_kq.shape != w_pv.shape or w_kq.ndim != 2 or w_kq.shape[0] != w_kq.shape[1]:
            raise ValueError(f"parameter matrices must be square and matching, "
                             f"got {w_kq.shape} and {w_pv.shape}")
        if not (np.isfinite(w_kq).all() and np.isfinite(w_pv).all()):
            raise ValueError("parameter matrices must be finite")
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        object.__setattr__(self, "w_kq", w_kq)
        object.__setattr__(self, "w_pv", w_pv)

    def with_rho(self, rho: float) -> "LsaParams":
        return LsaParams(self.w_kq, self.w_pv, rho)


def build_embedding(examples: Sequence[Tuple[Covariate, float]],
                    x_query: Covariate) -> np.ndarray:
    """Stack a prompt into the (d+1) x (T+1) embedding matrix.

    Columns 1..T are (x_j; y_j); the last column is (x_query; 0).
    """
    xq = np.asarray(x_query, dtype=float).ravel()
    d = xq.shape[0]
    t = len(examples)
    e = np.zeros((d + 1, t + 1))
    for j, (x, y) in enumerate(examples):
        xv = np.asarray(x, dtype=float).ravel()
        if xv.shape[0] != d:
            raise ValueError(f"example {j} has dimension {xv.shape[0]}, "
                             f"query has {d}")
        e[:d, j] = xv
        e[d, j] = float(y)
    e[:d, t] = xq
    return e


def lsa_forward(e: np.ndarray, params: LsaParams) -> float:
    """Prediction for the query: bottom-right entry of f(E)."""
    e = np.asarray(e, dtype=float)
    if e.ndim != 2 or e.shape[0] != params.w_kq.shape[0]:
        raise ValueError(f"embedding shape {e.shape} does not match "
                         f"parameter dimension {params.w_kq.shape[0]}")
    out = e + params.w_pv @ e @ (e.T @ params.w_kq @ e) / params.rho
    return float(out[-1, -1])


def limit_params(lam: np.ndarray, t_prompt: int) -> LsaParams:
    """Global-optimum parameters of gradient flow on the population loss.

    W_kq* = tr(Gamma^-2)^(-1/4) * blockdiag(Gamma^-1, 0)
    W_pv* = tr(Gamma^-2)^(+1/4) * blockdiag(0, 1)
    with rho set to the pretraining prompt length. The two scale factors
    cancel in the forward pass, so predictions do not depend on them.
    """
    g = gamma(lam, t_prompt)
    d = g.shape[0]
    g_inv = np.linalg.inv(g)
    scale = float(np.trace(g_inv @ g_inv))
    w_kq = np.zeros((d + 1, d + 1))
    w_kq[:d, :d] = scale ** (-0.25) * g_inv
    w_pv = np.zeros((d + 1, d + 1))
    w_pv[d, d] = scale ** 0.25
    return LsaParams(w_kq=w_kq, w_pv=w_pv, rho=float(t_prompt))


class ClosedFormStep:
    """A batch of asks without their labels, folded once with the Gamma
    they are answered under (``gamma``, checked SPD unless it is an
    ``SpdMatrix``): a linear map from one label vector to one answer
    vector, which ``predict_closed_form`` applies each round.

    An ask is ``(xs, x_query, neighbours)``: a context's (n, d)
    covariates, a (Q, d) matrix of queries, and None or a (Q, k) index
    array whose row q picks query q's examples. The label vector holds
    each distinct context's labels once, as ``core.context_starts`` lays
    them out (``size`` labels); the answer vector holds each ask's answers
    end to end, in ask order (``lengths``).

    The step keeps Gamma^-1; each distinct whole context's label range,
    its X (not copied) and its 1 / n; for the contexts that one list of
    query matrices reads, those queries stacked and transposed; and, for
    the neighbourhoods of each size k, the (R, k) weights
    W[q, j] = x_q^T Gamma^-1 x_nb(q, j) / k over their stacked queries,
    beside the (R, k) label indices. Each product keeps the answer slots
    it fills.
    """

    __slots__ = ("gamma", "inverse", "size", "lengths", "contexts", "blocks",
                 "gathers")

    def __init__(self, asks, gamma: np.ndarray | SpdMatrix):
        self.gamma = (gamma if isinstance(gamma, SpdMatrix) else
                      SpdMatrix(gamma, "gamma")).matrix
        # solving for a step's 1000s of columns takes some 18 times as long
        self.inverse = np.linalg.inv(self.gamma)
        asks = list(asks)
        starts, self.size = context_starts([xs for xs, _, _ in asks])
        self.lengths, whole, by_size, end = [], {}, {}, 0
        for (xs, x_query, neighbours), start in zip(asks, starts):
            xq = covariate_matrix(x_query)
            nb = None if neighbours is None else neighbour_matrix(
                neighbours, len(xs), len(xq))
            self.lengths.append(len(xq))
            slots, end = (end, end + len(xq)), end + len(xq)
            if len(xs) == 0 or xq.size == 0:
                continue
            if nb is None:   # asks holds x_query: its id stays its own
                whole.setdefault(start, (xs, []))[1].append(
                    (id(x_query), xq, slots))
            else:
                by_size.setdefault(nb.shape[1], []).append(
                    (xq @ self.inverse, covariate_matrix(xs), nb, start,
                     slots))
        contexts = list(whole.values())
        self.contexts = [(slice(start, start + len(xs)), covariate_matrix(xs),
                          1.0 / len(xs)) for start, (xs, _) in whole.items()]
        # the contexts that one list of query matrices reads answer in one
        # product: step 1's one context, which every client's covariates
        # read, and step 2's, which the queries read
        blocks = {}
        for j, (_, reads) in enumerate(contexts):
            blocks.setdefault(tuple(key for key, _, _ in reads), []).append(j)
        self.blocks = [
            (rows, np.concatenate([xq for _, xq, _ in contexts[rows[0]][1]]).T,
             _slots([slots for j in rows for *_, slots in contexts[j][1]]))
            for rows in blocks.values()]
        self.gathers = []
        for k, members in by_size.items():
            weights = []
            for p, xs, nb, _, _ in members:
                # products of a block of queries at a time with the context,
                # as in a search: one product of all the asks would be as
                # large as theirs together, and costs more
                n = max(1, KNN_BLOCK_ELEMENTS // len(xs))
                for lo in range(0, len(p), n):
                    block = nb[lo:lo + n]
                    weights.append((p[lo:lo + n] @ xs.T)[np.arange(
                        len(block))[:, None], block])
            self.gathers.append((
                np.concatenate([nb + start for *_, nb, start, _ in members]),
                np.concatenate(weights) / k,
                _slots([slots for *_, slots in members])))


def _slots(ranges: List[Tuple[int, int]]):
    """The answer slots of (lo, hi) ``ranges``: a slice when each range
    starts where the one before it ends."""
    if all(a[1] == b[0] for a, b in zip(ranges, ranges[1:])):
        return slice(ranges[0][0], ranges[-1][1])
    return np.concatenate([np.arange(lo, hi) for lo, hi in ranges])


def predict_closed_form(step: ClosedFormStep, labels) -> np.ndarray:
    """Closed-form LSA predictions at the global optimum, under the step's
    Gamma, for a prepared batch of asks and its one label vector (see
    ``ClosedFormStep``): the asks' answers end to end.

    Query q's answer is y_hat = x_q^T Gamma^-1 (1/n sum_i y_i x_i) over
    the whole context, or sum_j W[q, j] y[nb(q, j)] over its k examples;
    zero examples yield 0. Each whole context's moment comes once, from
    one product with its X; all moments are folded with Gamma^-1 in one
    product, and no Gamma is solved for.
    """
    y = np.asarray(labels, dtype=float)
    if y.shape != (step.size,):
        raise ValueError(f"contexts of {step.size} covariates and labels of "
                         f"shape {y.shape}")
    answers = np.zeros(sum(step.lengths))
    if step.blocks:
        # y / n first: each term of y X / n then rounds close to (X / n) y
        folded = np.array([(y[labels] * scale).dot(x) for labels, x, scale
                           in step.contexts]) @ step.inverse
        for rows, queries, slots in step.blocks:
            answers[slots] = (folded[rows] @ queries).ravel()
    for index, weights, slots in step.gathers:
        answers[slots] = np.einsum("qk,qk->q", weights, y[index])
    return answers


# ---------------------------------------------------------------------------
# Gradient-descent pretraining
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PretrainSpec:
    lam: np.ndarray          # d x d SPD task covariance
    t_prompt: int            # prompt length T during pretraining
    b_tasks: int             # number of sampled prompts B
    sigma: float             # initialization scale
    theta: np.ndarray        # d x d, ||Theta Theta^T||_F = 1, Theta @ Lambda != 0
    step_size: float
    max_steps: int
    seed: int = 0

    def __post_init__(self):
        lam = _check_spd(self.lam, "lambda")
        theta = np.asarray(self.theta, dtype=float)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "theta", theta)
        if self.t_prompt < 1 or self.b_tasks < 1:
            raise ValueError("t_prompt and b_tasks must be >= 1")
        if self.sigma <= 0 or self.step_size <= 0 or self.max_steps < 1:
            raise ValueError("sigma, step_size must be positive; max_steps >= 1")
        d = lam.shape[0]
        if abs(np.linalg.norm(theta @ theta.T) - 1.0) > 1e-10:
            raise ValueError("||Theta Theta^T||_F must equal 1")
        if np.allclose(theta @ lam, 0.0):
            raise ValueError("Theta @ Lambda must be nonzero")
        g = gamma(lam, self.t_prompt)
        op = np.linalg.norm(g, 2)
        if self.sigma ** 2 * op * np.sqrt(d) >= 2:
            raise ValueError("initialization scale violates "
                             "sigma^2 * ||Gamma||_op * sqrt(d) < 2")

    @property
    def dim(self) -> int:
        return self.lam.shape[0]

    def init_params(self) -> LsaParams:
        d = self.dim
        w_pv = np.zeros((d + 1, d + 1))
        w_pv[d, d] = self.sigma
        w_kq = np.zeros((d + 1, d + 1))
        w_kq[:d, :d] = self.sigma * (self.theta @ self.theta.T)
        return LsaParams(w_kq=w_kq, w_pv=w_pv, rho=float(self.t_prompt))


def sample_prompts(spec: PretrainSpec):
    """Sample B linear-regression prompts as (A, u, y) batches.

    A[b] = E_b E_b^T, u[b] = last embedding column (x_query; 0),
    y[b] = the query's true label <w_b, x_query>. Only these enter the
    prediction, so prompts are reduced at sampling time.
    """
    rng = np.random.default_rng(spec.seed)
    b, d, t = spec.b_tasks, spec.dim, spec.t_prompt
    chol = np.linalg.cholesky(spec.lam)
    w = rng.standard_normal((b, d))
    xs = rng.standard_normal((b, t + 1, d)) @ chol.T
    ys = np.einsum("btd,bd->bt", xs, w)
    e = np.concatenate([xs.transpose(0, 2, 1), ys[:, None, :]], axis=1)
    e[:, d, t] = 0.0  # query label slot
    a = np.einsum("bij,bkj->bik", e, e)
    u = e[:, :, t]
    return a, u, ys[:, t]


def empirical_loss_and_grad(params: LsaParams, a: np.ndarray, u: np.ndarray,
                            y: np.ndarray):
    """Squared-loss empirical risk over the prompt batch and its gradient.

    The prediction is y_hat = (1/rho) * p^T A W_kq u with p = W_pv^T e_last,
    so gradients touch only the last row of W_pv and the full W_kq.
    """
    b = a.shape[0]
    rho = params.rho
    p = params.w_pv[-1, :]
    aw = np.einsum("bij,jk->bik", a, params.w_kq)
    awu = np.einsum("bik,bk->bi", aw, u)        # A W_kq u
    preds = awu @ p / rho
    resid = preds - y
    loss = 0.5 * float(resid @ resid) / b

    grad_pv = np.zeros_like(params.w_pv)
    grad_pv[-1, :] = resid @ awu / (b * rho)
    ap = np.einsum("bij,i->bj", a, p)           # A^T p = A p (A symmetric)
    grad_kq = np.einsum("b,bj,bk->jk", resid, ap, u) / (b * rho)
    return loss, grad_kq, grad_pv


def empirical_loss(params: LsaParams, a: np.ndarray, u: np.ndarray,
                   y: np.ndarray) -> float:
    loss, _, _ = empirical_loss_and_grad(params, a, u, y)
    return loss


@dataclass(frozen=True)
class PretrainResult:
    params: LsaParams
    loss_trace: Tuple[float, ...]


def pretrain_gd(spec: PretrainSpec) -> PretrainResult:
    """Plain gradient descent on the sampled empirical risk.

    Starts from the block initialization (scale sigma); aborts with a
    diagnostic if the loss diverges past 1e6.
    """
    a, u, y = sample_prompts(spec)
    params = spec.init_params()
    w_kq = params.w_kq.copy()
    w_pv = params.w_pv.copy()
    loss_trace = []
    loss = float("nan")
    for step in range(spec.max_steps):
        cur = LsaParams(w_kq, w_pv, params.rho)
        loss, g_kq, g_pv = empirical_loss_and_grad(cur, a, u, y)
        loss_trace.append(loss)
        if not np.isfinite(loss) or loss > 1e6:
            raise RuntimeError(
                f"pretraining diverged at step {step}: loss={loss:.3e} "
                f"(step_size={spec.step_size})")
        w_kq = w_kq - spec.step_size * g_kq
        w_pv = w_pv - spec.step_size * g_pv
    final = LsaParams(w_kq, w_pv, params.rho)
    loss_trace.append(empirical_loss(final, a, u, y))
    return PretrainResult(params=final, loss_trace=tuple(loss_trace))


def prediction_map(params: LsaParams) -> np.ndarray:
    """Gauge-invariant representation of the prediction function.

    y_hat = (1/rho) sum_{j,k,l} p_j A_jk (W_kq)_kl u_l with p the last row
    of W_pv, so the outer product p (x) W_kq determines predictions; the
    c / 1/c rescaling freedom between the factors cancels in it.
    """
    p = params.w_pv[-1, :]
    return np.einsum("j,kl->jkl", p, params.w_kq)
