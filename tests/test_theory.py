import json

import numpy as np
import pytest

from fedicl.backend import LsaBackend
from fedicl.core import ClientDataset, Example, RealLabel
from fedicl.lsa import gamma
from fedicl.protocol import ClientState, ProtocolConfig, run
from fedicl.theory import (TheoryState, compute_contraction, fixed_point,
                           iterate_recursion, verify_contraction)


def make_clients(xs_per_client, ys_per_client):
    clients = []
    for cid, (xs, ys) in enumerate(zip(xs_per_client, ys_per_client), start=1):
        examples = tuple(Example(tuple(x), RealLabel(float(y)))
                         for x, y in zip(xs, ys))
        clients.append(ClientDataset(cid, examples))
    return clients


def random_instance(rng, d, l, n, m):
    xs = [rng.standard_normal((n, d)) for _ in range(l)]
    ys = [rng.standard_normal(n) for _ in range(l)]
    queries = [tuple(x) for x in rng.standard_normal((m, d))]
    a = rng.standard_normal((d, d))
    g = a @ a.T + 0.5 * np.eye(d)
    return make_clients(xs, ys), queries, g


def brute_force_contraction(clients, queries, g):
    """Term-by-term expansion of the pooled contraction sums, the form the
    oracle takes when every client holds the same N examples."""
    d = len(queries[0])
    g_inv = np.linalg.inv(g)
    n = len(clients[0].examples)
    l = len(clients)
    m = len(queries)
    s_client = np.zeros((d, d))
    s_xy = np.zeros(d)
    for ds in clients:
        for ex in ds.examples:
            x = np.array(ex.covariate)
            s_client += np.outer(x, x)
            s_xy += x * ex.label.value
    s_server = np.zeros((d, d))
    for q in queries:
        x = np.array(q)
        s_server += np.outer(x, x)
    h = g_inv @ s_client @ g_inv @ s_server / (n * m * l)
    w = g_inv @ s_xy / (n * l)
    return h, w


# ---------------------------------------------------------------------------
# compute_contraction
# ---------------------------------------------------------------------------

def test_contraction_d1_hand_values():
    clients = make_clients([[[1.0]]], [[1.0]])
    h, w = compute_contraction(clients, [(1.0,)], np.array([[3.0]]))
    assert np.allclose(h, [[1 / 9]], atol=1e-15)
    assert np.allclose(w, [1 / 3], atol=1e-15)


def matched_moment_setup(d=2, t=2):
    g = gamma(np.eye(d), t)
    root = np.linalg.cholesky(d * g)
    vecs = [tuple(s * root[:, j]) for j in range(d) for s in (1.0, -1.0)]
    ys = list(range(1, len(vecs) + 1))
    clients = make_clients([vecs], [ys])
    return clients, vecs, g


def test_contraction_matched_moments_gives_identity():
    clients, queries, g = matched_moment_setup()
    h, _ = compute_contraction(clients, queries, g)
    assert np.allclose(h, np.eye(2), atol=1e-12)


def test_contraction_matches_brute_force():
    rng = np.random.default_rng(11)
    clients, queries, g = random_instance(rng, d=3, l=2, n=5, m=4)
    h, w = compute_contraction(clients, queries, g)
    h_bf, w_bf = brute_force_contraction(clients, queries, g)
    assert np.allclose(h, h_bf, atol=1e-12)
    assert np.allclose(w, w_bf, atol=1e-12)


def test_contraction_recursion_matches_run_with_unequal_client_sizes():
    rng = np.random.default_rng(12)
    d, m, rounds = 3, 4, 6
    xs = [rng.standard_normal((n, d)) for n in (3, 7, 12)]
    ys = [rng.standard_normal(len(x)) for x in xs]
    clients = make_clients(xs, ys)
    queries = [tuple(x) for x in rng.standard_normal((m, d))]
    g = gamma(np.diag([1.0, 0.5, 2.0]), 5)
    state = iterate_recursion(TheoryState.initialize(clients, queries, g),
                              rounds)
    result = run(ProtocolConfig(rounds=rounds),
                 [ClientState(ds.client_id, ds, LsaBackend(g))
                  for ds in clients], queries)
    xm = np.asarray(queries)
    for trace in result.traces:
        labels = [lab.value for lab in trace.aggregated.labels]
        assert np.max(np.abs(labels - xm @ state.w_trace[trace.round])) <= 1e-9


def test_contraction_equal_sizes_give_the_pooled_form():
    rng = np.random.default_rng(13)
    clients, queries, g = random_instance(rng, d=2, l=4, n=3, m=5)
    h, w = compute_contraction(clients, queries, g)
    h_pooled, w_pooled = brute_force_contraction(clients, queries, g)
    assert np.allclose(h, h_pooled, atol=1e-12)
    assert np.allclose(w, w_pooled, atol=1e-12)


# ---------------------------------------------------------------------------
# fixed point
# ---------------------------------------------------------------------------

def test_fixed_point_identity_h():
    w = fixed_point(np.eye(2), np.array([1.0, -2.0]))
    assert np.allclose(w, [1.0, -2.0])


def test_fixed_point_zero_h():
    w = fixed_point(np.zeros((2, 2)), np.array([1.0, 4.0]))
    assert np.allclose(w, [0.5, 2.0])


def test_fixed_point_matches_long_recursion():
    # frozen oracle: iterate 200 steps from zero and compare
    h, w_lim = np.array([[1 / 9]]), np.array([1 / 3])
    w = np.zeros(1)
    for _ in range(200):
        w = 0.5 * h @ w + 0.5 * w_lim
    w_star = fixed_point(h, w_lim)
    assert w_star == pytest.approx([3 / 17], abs=1e-15)
    assert np.allclose(w_star, w, atol=1e-12)


def test_fixed_point_residual():
    rng = np.random.default_rng(12)
    for _ in range(10):
        d = int(rng.integers(1, 5))
        h = 0.5 * rng.standard_normal((d, d))
        w_lim = rng.standard_normal(d)
        w_star = fixed_point(h, w_lim)
        assert np.linalg.norm(0.5 * h @ w_star + 0.5 * w_lim - w_star) <= 1e-12


def test_fixed_point_singular_rejected():
    assert fixed_point(2 * np.eye(2), np.ones(2)) is None


def test_fixed_point_of_a_well_conditioned_matrix_with_a_tiny_determinant():
    # 2I - H = 0.1 I at d = 320: det 1e-320, a subnormal, but cond 1
    d = 320
    h, w_lim = 1.9 * np.eye(d), np.linspace(-1.0, 1.0, d)
    assert abs(np.linalg.det(2 * np.eye(d) - h)) < 1e-300
    assert np.allclose(fixed_point(h, w_lim), 10.0 * w_lim, rtol=1e-12)
    # so the recursion, which contracts by 0.95 a step, is called contractive
    report = verify_contraction(iterate_recursion(state_from(h, w_lim), 5))
    assert report.contractive and report.passed
    assert report.bound == pytest.approx(0.95)


# ---------------------------------------------------------------------------
# recursion
# ---------------------------------------------------------------------------

def state_from(h, w_lim, w_init=None):
    h = np.asarray(h, dtype=float)
    w_lim = np.asarray(w_lim, dtype=float)
    w_star = fixed_point(h, w_lim)
    d = h.shape[0]
    w1 = np.zeros(d) if w_init is None else np.asarray(w_init, dtype=float)
    return TheoryState(h_cont=h, w_limit=w_lim, w_star=w_star,
                       w_trace=(w1,))


def test_recursion_identity_h_geometric():
    w_lim = np.array([2.0, -1.0])
    state = iterate_recursion(state_from(np.eye(2), w_lim), 8)
    for k, w in enumerate(state.w_trace, start=1):
        assert np.allclose(w, (1 - 2.0 ** -(k - 1)) * w_lim, atol=1e-12)


def test_recursion_zero_h_constant():
    w_lim = np.array([3.0])
    state = iterate_recursion(state_from(np.zeros((1, 1)), w_lim), 5)
    for w in state.w_trace[1:]:
        assert np.allclose(w, 0.5 * w_lim)


def test_recursion_two_hand_steps():
    state = iterate_recursion(state_from([[1 / 9]], [1 / 3]), 2)
    assert state.w_trace[1] == pytest.approx([1 / 6])
    assert state.w_trace[2] == pytest.approx([19 / 108])


def test_recursion_consistency_invariant():
    rng = np.random.default_rng(13)
    state = iterate_recursion(
        state_from(0.4 * rng.standard_normal((3, 3)), rng.standard_normal(3)),
        15)
    for w_k, w_k1 in zip(state.w_trace, state.w_trace[1:]):
        expected = 0.5 * state.h_cont @ w_k + 0.5 * state.w_limit
        assert np.linalg.norm(w_k1 - expected) <= 1e-12


# ---------------------------------------------------------------------------
# contraction verification
# ---------------------------------------------------------------------------

def test_verify_scaled_identity_exact_ratio():
    c = 0.8
    state = iterate_recursion(state_from(c * np.eye(2), [1.0, 2.0]), 10)
    report = verify_contraction(state)
    assert report.passed
    assert all(r == pytest.approx(c / 2, rel=1e-9) for r in report.ratios)


def test_verify_zero_h_ratio_zero():
    state = iterate_recursion(state_from(np.zeros((1, 1)), [1.0]), 5)
    report = verify_contraction(state)
    assert report.passed
    assert all(r == 0.0 for r in report.ratios[1:])


def test_verify_random_contractive_instances():
    rng = np.random.default_rng(14)
    for _ in range(10):
        d = int(rng.integers(1, 4))
        a = rng.standard_normal((d, d))
        h = a @ a.T
        h *= 1.5 / np.linalg.norm(h, 2)  # norm < 2 by construction
        state = iterate_recursion(state_from(h, rng.standard_normal(d)), 20)
        report = verify_contraction(state)
        assert report.contractive and report.passed
        assert all(r <= 0.5 * report.h_norm + 1e-9 for r in report.ratios)


def test_verify_non_contractive_reported_not_raised():
    state = iterate_recursion(state_from(3.0 * np.eye(1), [1.0]), 5)
    report = verify_contraction(state)
    assert not report.contractive and not report.passed


def test_verify_a_state_without_a_fixed_point_gives_no_ratios():
    # H = 2I leaves 2I - H singular: there is no w* to measure against
    state = iterate_recursion(state_from(2.0 * np.eye(2), [1.0, 2.0]), 4)
    assert state.w_star is None
    report = verify_contraction(state)
    assert not report.contractive and not report.passed
    assert report.ratios == () and report.rounds == 4
    assert report.h_norm == pytest.approx(2.0)


def test_initialization_independence():
    rng = np.random.default_rng(15)
    h = np.array([[0.5, 0.1], [0.0, 0.3]])
    w_lim = np.array([1.0, -1.0])
    rounds = 80
    a = iterate_recursion(state_from(h, w_lim), rounds)
    b = iterate_recursion(state_from(h, w_lim, w_init=rng.standard_normal(2)),
                          rounds)
    assert np.linalg.norm(a.w_trace[-1] - b.w_trace[-1]) <= 1e-8
    assert np.linalg.norm(a.w_trace[-1] - a.w_star) <= 1e-8


def test_matched_moments_error_halves_exactly():
    clients, queries, g = matched_moment_setup()
    state = TheoryState.initialize(clients, queries, g)
    state = iterate_recursion(state, 12)
    report = verify_contraction(state)
    assert report.passed
    assert all(r == pytest.approx(0.5, abs=1e-9) for r in report.ratios)


def test_report_json_shape():
    state = iterate_recursion(state_from([[0.5]], [1.0]), 5)
    report = verify_contraction(state)
    obj = json.loads(json.dumps(report.to_json()))
    assert set(obj) >= {"h_norm", "rounds", "ratios", "bound", "pass"}
