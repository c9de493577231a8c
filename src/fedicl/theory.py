"""Closed-form oracle for the protocol's contraction dynamics.

Given the client and server covariates, computes the contraction matrix

    H_cont = Gamma^-1 (1/L sum_i X_i^T X_i / N_i) Gamma^-1 (X_m^T X_m / M)

and the limit predictor

    w_limit = Gamma^-1 (1/L) sum_i X_i^T y_i / N_i,

where client i holds N_i examples (X_i, y_i) and the server M queries X_m;
then iterates the label recursion w_{k+1} = 1/2 H_cont w_k + 1/2 w_limit
from w_1 = 0 and verifies the geometric contraction bound toward the fixed
point w* = (2I - H_cont)^-1 w_limit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import ClientDataset, Covariate, covariate_matrix, real_values
from .lsa import _check_spd


class NonContractiveError(ValueError):
    """Raised when 2I - H_cont is singular and no fixed point exists."""


def compute_contraction(client_datasets: Sequence[ClientDataset],
                        server_covariates: Sequence[Covariate],
                        gamma_mat: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Contraction matrix and limit predictor from raw covariates.

    Each client's moments are weighted by 1/N_i, since its predictions
    average over its own examples, so client sizes may differ; with equal
    sizes this is the pooled-data form.
    """
    gamma_mat = _check_spd(gamma_mat, "gamma")
    if len(client_datasets) == 0:
        raise ValueError("need at least one client dataset")
    if len(server_covariates) == 0:
        raise ValueError("need at least one server covariate")

    xm = covariate_matrix(server_covariates)
    xs = [covariate_matrix(ds.covariates) for ds in client_datasets]
    if any(x.shape[1] != xm.shape[1] or x.shape[1] != gamma_mat.shape[0]
           for x in xs):
        raise ValueError("client, server, and gamma dimensions disagree")
    client_cov = np.mean([x.T @ x / len(x) for x in xs], axis=0)
    client_moment = np.mean([x.T @ real_values(ds.labels) / len(x)
                             for x, ds in zip(xs, client_datasets)], axis=0)

    g_inv = np.linalg.inv(gamma_mat)
    h_cont = g_inv @ client_cov @ g_inv @ (xm.T @ xm / len(xm))
    w_limit = g_inv @ client_moment
    return h_cont, w_limit


def spectral_norm(mat: np.ndarray) -> float:
    # H_cont is a product of two symmetric matrices, hence generally
    # non-symmetric: use singular values for the operator 2-norm.
    return float(np.linalg.norm(np.asarray(mat, dtype=float), 2))


def fixed_point(h_cont: np.ndarray, w_limit: np.ndarray) -> np.ndarray:
    """w* = (2I - H_cont)^-1 w_limit."""
    h_cont = np.asarray(h_cont, dtype=float)
    w_limit = np.asarray(w_limit, dtype=float).ravel()
    d = h_cont.shape[0]
    a = 2.0 * np.eye(d) - h_cont
    if abs(np.linalg.det(a)) < 1e-300 or np.linalg.cond(a) > 1e14:
        raise NonContractiveError(
            "2I - H_cont is singular: configuration has no fixed point")
    return np.linalg.solve(a, w_limit)


@dataclass(frozen=True)
class TheoryState:
    gamma: np.ndarray
    h_cont: np.ndarray
    w_limit: np.ndarray
    w_star: Optional[np.ndarray]
    w_trace: Tuple[np.ndarray, ...]  # w_1, w_2, ...
    h_norm: float

    @staticmethod
    def initialize(client_datasets: Sequence[ClientDataset],
                   server_covariates: Sequence[Covariate],
                   gamma_mat: np.ndarray) -> "TheoryState":
        h_cont, w_limit = compute_contraction(client_datasets,
                                              server_covariates, gamma_mat)
        try:
            w_star: Optional[np.ndarray] = fixed_point(h_cont, w_limit)
        except NonContractiveError:
            w_star = None
        return TheoryState(gamma=np.asarray(gamma_mat, dtype=float),
                           h_cont=h_cont, w_limit=w_limit, w_star=w_star,
                           w_trace=(np.zeros(len(w_limit)),),
                           h_norm=spectral_norm(h_cont))


def iterate_recursion(state: TheoryState, rounds: int) -> TheoryState:
    """Extend w_trace by `rounds` applications of the label recursion."""
    if rounds < 0:
        raise ValueError("rounds must be non-negative")
    trace = list(state.w_trace)
    w = trace[-1]
    for _ in range(rounds):
        w = 0.5 * state.h_cont @ w + 0.5 * state.w_limit
        trace.append(w)
    return replace(state, w_trace=tuple(trace))


@dataclass(frozen=True)
class ContractionReport:
    h_norm: float
    rounds: int
    ratios: Tuple[float, ...]
    bound: float
    contractive: bool
    passed: bool
    failed_round: Optional[int] = None

    def to_json(self) -> dict:
        return {
            "h_norm": self.h_norm,
            "rounds": self.rounds,
            "ratios": list(self.ratios),
            "bound": self.bound,
            "contractive": self.contractive,
            "pass": self.passed,
            "failed_round": self.failed_round,
        }


def verify_contraction(state: TheoryState, slack: float = 1e-9) -> ContractionReport:
    """Check ||w_{k+1} - w*|| <= 1/2 ||H_cont|| ||w_k - w*|| along the trace.

    Non-contractive configurations (||H_cont|| >= 2 or no fixed point) are
    reported, not raised, so divergence can be demonstrated.
    """
    if len(state.w_trace) < 2:
        raise ValueError("w_trace must hold at least two iterates")
    bound = 0.5 * state.h_norm
    contractive = state.w_star is not None and state.h_norm < 2.0
    if state.w_star is None:
        return ContractionReport(h_norm=state.h_norm,
                                 rounds=len(state.w_trace) - 1, ratios=(),
                                 bound=bound, contractive=False, passed=False)
    errs = [float(np.linalg.norm(w - state.w_star)) for w in state.w_trace]
    ratios: List[float] = []
    passed = True
    failed_round: Optional[int] = None
    # a ratio is only meaningful while the error is large enough that float
    # roundoff (~eps * ||w*||) cannot perturb it by more than the slack
    floor = max(slack,
                np.finfo(float).eps * float(np.linalg.norm(state.w_star))
                / slack)
    for k in range(len(errs) - 1):
        if errs[k] > floor:
            ratios.append(errs[k + 1] / errs[k])
        if errs[k + 1] > bound * errs[k] + slack:
            passed = False
            if failed_round is None:
                failed_round = k + 1
    return ContractionReport(h_norm=state.h_norm, rounds=len(errs) - 1,
                             ratios=tuple(ratios), bound=bound,
                             contractive=contractive,
                             passed=passed and contractive,
                             failed_round=failed_round)
