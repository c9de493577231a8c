import numpy as np
import pytest

from fedicl import lsa
from fedicl.lsa import (ClosedFormStep, LsaParams, PretrainSpec,
                        build_embedding, gamma, limit_params, lsa_forward,
                        predict_closed_form, prediction_map, pretrain_gd)


def brute_force_prediction(examples, x_query, gamma_mat):
    """Independent dense evaluation: expand the sums term by term."""
    gamma_inv = np.linalg.inv(np.asarray(gamma_mat, dtype=float))
    if not examples:
        return 0.0
    acc = np.zeros(len(x_query))
    for x, y in examples:
        acc = acc + float(y) * np.asarray(x, dtype=float)
    acc /= len(examples)
    return float(np.asarray(x_query) @ gamma_inv @ acc)


def closed_form(examples, xq, g):
    """predict_closed_form on one query and a list of (covariate, label)
    pairs."""
    step = ClosedFormStep([([x for x, _ in examples], [xq], None)], g)
    return float(predict_closed_form(step, [y for _, y in examples])[0])


def random_prompt(rng, d, n):
    examples = [(tuple(x), float(y)) for x, y in
                zip(rng.standard_normal((n, d)), rng.standard_normal(n))]
    return examples, tuple(rng.standard_normal(d))


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------

def test_gamma_d1():
    assert np.allclose(gamma(np.array([[1.0]]), 1), [[3.0]])


def test_gamma_identity_d2():
    assert np.allclose(gamma(np.eye(2), 2), 2.5 * np.eye(2))


def test_gamma_large_t_limit():
    g = gamma(np.array([[1.0]]), 10 ** 6)
    assert abs(g[0, 0] - 1.0) < 3e-6


def test_gamma_rejects_non_spd():
    with pytest.raises(ValueError):
        gamma(np.array([[0.0, 1.0], [1.0, 0.0]]), 1)
    with pytest.raises(ValueError):
        gamma(np.array([[1.0, 2.0], [0.0, 1.0]]), 1)


def test_gamma_spd_preserving():
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = rng.integers(1, 5)
        a = rng.standard_normal((d, d))
        lam = a @ a.T + 0.1 * np.eye(d)
        g = gamma(lam, int(rng.integers(1, 50)))
        assert np.linalg.eigvalsh(g).min() > 0


# ---------------------------------------------------------------------------
# embedding and forward pass
# ---------------------------------------------------------------------------

def test_build_embedding_layout():
    e = build_embedding([((1.0,), 2.0)], (3.0,))
    assert np.array_equal(e, [[1.0, 3.0], [2.0, 0.0]])


def test_build_embedding_empty_prompt():
    e = build_embedding([], (1.0,))
    assert np.array_equal(e, [[1.0], [0.0]])


def test_build_embedding_query_label_slot_zero():
    e = build_embedding([((1.0, 0.0), 1.0), ((0.0, 1.0), 2.0)], (1.0, 1.0))
    assert e.shape == (3, 3)
    assert e[2, 2] == 0.0


def test_build_embedding_dimension_mismatch():
    with pytest.raises(ValueError):
        build_embedding([((1.0, 2.0), 1.0)], (1.0,))


def test_forward_zero_params():
    params = LsaParams(np.zeros((2, 2)), np.zeros((2, 2)), rho=1.0)
    e = build_embedding([((1.0,), 5.0)], (2.0,))
    assert lsa_forward(e, params) == 0.0


def test_forward_hand_value_d1():
    params = limit_params(np.array([[1.0]]), 1).with_rho(1.0)
    e = build_embedding([((1.0,), 1.0)], (1.0,))
    assert lsa_forward(e, params) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_forward_matches_closed_form_random_prompts():
    rng = np.random.default_rng(1)
    lam = np.diag([1.0, 2.0, 0.5])
    t = 4
    g = gamma(lam, t)
    base = limit_params(lam, t)
    for _ in range(100):
        n = int(rng.integers(1, 8))
        examples, xq = random_prompt(rng, 3, n)
        # inference-time rho = number of in-context examples
        got = lsa_forward(build_embedding(examples, xq), base.with_rho(n))
        want = closed_form(examples, xq, g)
        assert got == pytest.approx(want, abs=1e-10)


def test_gauge_invariance():
    rng = np.random.default_rng(2)
    params = LsaParams(rng.standard_normal((3, 3)), rng.standard_normal((3, 3)),
                       rho=2.0)
    examples, xq = random_prompt(rng, 2, 5)
    e = build_embedding(examples, xq)
    for c in (2.0, 0.25, 8.0):
        scaled = LsaParams(c * params.w_kq, params.w_pv / c, rho=2.0)
        assert lsa_forward(e, scaled) == pytest.approx(lsa_forward(e, params),
                                                       rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# limit parameters
# ---------------------------------------------------------------------------

def test_limit_params_formula_d1():
    p = limit_params(np.array([[1.0]]), 1)
    # Gamma = [3]; tr(Gamma^-2) = 1/9
    assert p.w_kq[0, 0] == pytest.approx((1 / 9) ** (-0.25) * (1 / 3))
    assert np.allclose(p.w_kq[1, :], 0) and np.allclose(p.w_kq[:, 1], 0)
    assert p.w_pv[1, 1] == pytest.approx((1 / 9) ** 0.25)
    assert p.rho == 1.0


def test_limit_params_pv_single_nonzero_entry():
    rng = np.random.default_rng(3)
    for d in (1, 2, 4):
        a = rng.standard_normal((d, d))
        p = limit_params(a @ a.T + 0.5 * np.eye(d), int(rng.integers(1, 20)))
        nz = np.nonzero(p.w_pv)
        assert nz == (np.array([d]), np.array([d])) or (
            len(nz[0]) == 1 and nz[0][0] == d and nz[1][0] == d)


def test_limit_params_scale_factors_cancel():
    p = limit_params(np.diag([2.0, 1.0]), 3)
    g = gamma(np.diag([2.0, 1.0]), 3)
    product = p.w_pv[2, 2] * p.w_kq[:2, :2]
    assert np.allclose(product, np.linalg.inv(g))


# ---------------------------------------------------------------------------
# closed-form prediction
# ---------------------------------------------------------------------------

def allclose_spd_check(mat):
    """The SPD check as it was written with np.allclose."""
    mat = np.asarray(mat, dtype=float)
    return (np.allclose(mat, mat.T, atol=1e-12)
            and not np.linalg.eigvalsh(mat).min() <= 0)  # nan passed


SPD_CASES = {  # matrix, accepted
    "asymmetric by 1e-13": ([[2.0, 0.5 + 1e-13], [0.5, 1.0]], True),
    "asymmetric by 1e-6": ([[2.0, 0.5 + 1e-6], [0.5, 1.0]], True),
    "asymmetric by 1e-4": ([[2.0, 0.5 + 1e-4], [0.5, 1.0]], False),
    "nan": ([[np.nan, 0.0], [0.0, 1.0]], False),
    "inf": ([[np.inf, 0.0], [0.0, 1.0]], False),
    "not positive definite": ([[1.0, 2.0], [2.0, 1.0]], False),
}


@pytest.mark.parametrize("mat,accepted", SPD_CASES.values(),
                         ids=SPD_CASES.keys())
def test_spd_check(mat, accepted):
    if accepted:
        lsa._check_spd(mat)
    else:
        with pytest.raises(ValueError):
            lsa._check_spd(mat)
    # the same verdict as the np.allclose form, which let inf through
    with np.errstate(invalid="ignore"):
        assert allclose_spd_check(mat) == (accepted or np.isinf(mat).any())


def test_closed_form_checks_a_callers_gamma():
    asks, ys = [(np.eye(2), np.eye(2), None)], np.ones(2)
    for name in ("asymmetric by 1e-4", "inf", "not positive definite"):
        with pytest.raises(ValueError):
            ClosedFormStep(asks, np.array(SPD_CASES[name][0]))
    g = np.array([[2.0, 0.5], [0.5, 1.0]])
    checked = lsa.SpdMatrix(g, "gamma")
    assert np.array_equal(
        predict_closed_form(ClosedFormStep(asks, checked), ys),
        predict_closed_form(ClosedFormStep(asks, g), ys))
    with pytest.raises(ValueError):
        checked.matrix[0, 0] = 1.0
    with pytest.raises(ValueError):
        lsa.SpdMatrix(SPD_CASES["not positive definite"][0])


def test_closed_form_hand_value():
    assert closed_form([((1.0,), 1.0)], (1.0,),
                       np.array([[3.0]])) == pytest.approx(1 / 3)


def test_closed_form_empty_prompt():
    assert closed_form([], (1.0, 2.0), np.eye(2)) == 0.0


def test_closed_form_d2_brute_force_value():
    got = closed_form([((1.0, 0.0), 2.0), ((0.0, 1.0), 4.0)],
                      (1.0, 1.0), 2.5 * np.eye(2))
    assert got == pytest.approx(1.2, abs=1e-12)


def test_closed_form_matches_brute_force_random():
    rng = np.random.default_rng(4)
    for _ in range(30):
        d = int(rng.integers(1, 5))
        a = rng.standard_normal((d, d))
        g = a @ a.T + 0.2 * np.eye(d)
        examples, xq = random_prompt(rng, d, int(rng.integers(0, 9)))
        assert closed_form(examples, xq, g) == pytest.approx(
            brute_force_prediction(examples, xq, g), abs=1e-10)


def test_closed_form_linear_in_labels():
    rng = np.random.default_rng(5)
    g = gamma(np.eye(3), 4)
    examples, xq = random_prompt(rng, 3, 6)
    doubled = [(x, 2 * y) for x, y in examples]
    assert closed_form(doubled, xq, g) == pytest.approx(
        2 * closed_form(examples, xq, g), rel=1e-12)


def test_closed_form_permutation_invariant():
    rng = np.random.default_rng(6)
    g = gamma(np.eye(2), 3)
    examples, xq = random_prompt(rng, 2, 7)
    perm = [examples[i] for i in rng.permutation(len(examples))]
    assert closed_form(perm, xq, g) == pytest.approx(
        closed_form(examples, xq, g), rel=1e-12)


# ---------------------------------------------------------------------------
# pretraining
# ---------------------------------------------------------------------------

def make_spec(d=2, t=10, b=10_000, sigma=0.5, step=0.05, steps=2000, seed=7):
    return PretrainSpec(lam=np.eye(d), t_prompt=t, b_tasks=b, sigma=sigma,
                        theta=np.eye(d) * d ** -0.25, step_size=step,
                        max_steps=steps, seed=seed)


def numeric_gradients(params, a, u, y, eps=1e-6):
    def loss_at(w_kq, w_pv):
        return lsa.empirical_loss(LsaParams(w_kq, w_pv, params.rho), a, u, y)

    grads = []
    for which in ("kq", "pv"):
        base = params.w_kq if which == "kq" else params.w_pv
        g = np.zeros_like(base)
        for i in range(base.shape[0]):
            for j in range(base.shape[1]):
                plus, minus = base.copy(), base.copy()
                plus[i, j] += eps
                minus[i, j] -= eps
                if which == "kq":
                    g[i, j] = (loss_at(plus, params.w_pv)
                               - loss_at(minus, params.w_pv)) / (2 * eps)
                else:
                    g[i, j] = (loss_at(params.w_kq, plus)
                               - loss_at(params.w_kq, minus)) / (2 * eps)
        grads.append(g)
    return grads


def test_analytic_gradient_matches_finite_differences():
    spec = make_spec(b=16, steps=1, seed=1)
    a, u, y = lsa.sample_prompts(spec)
    rng = np.random.default_rng(3)
    params = LsaParams(0.3 * rng.standard_normal((3, 3)),
                       0.3 * rng.standard_normal((3, 3)), rho=10.0)
    _, g_kq, g_pv = lsa.empirical_loss_and_grad(params, a, u, y)
    n_kq, n_pv = numeric_gradients(params, a, u, y)
    assert np.max(np.abs(g_kq - n_kq) / (np.abs(n_kq) + 1e-8)) <= 1e-5
    assert np.max(np.abs(g_pv - n_pv) / (np.abs(n_pv) + 1e-8)) <= 1e-5


def test_limit_params_loss_below_initialization():
    spec = make_spec()
    a, u, y = lsa.sample_prompts(spec)
    opt = limit_params(spec.lam, spec.t_prompt)
    assert lsa.empirical_loss(opt, a, u, y) <= lsa.empirical_loss(
        spec.init_params(), a, u, y)


def test_gradient_descent_reaches_limit_map():
    spec = make_spec()
    result = pretrain_gd(spec)
    opt = limit_params(spec.lam, spec.t_prompt)
    got, want = prediction_map(result.params), prediction_map(opt)
    rel = np.linalg.norm(got - want) / np.linalg.norm(want)
    assert rel <= 0.05


def test_pretrain_divergence_aborts():
    spec = make_spec(b=64, step=50.0, steps=200)
    with pytest.raises(RuntimeError, match="diverged"):
        pretrain_gd(spec)


def test_pretrain_spec_rejects_bad_inputs():
    with pytest.raises(ValueError, match="Theta Theta"):
        make_spec().__class__(lam=np.eye(2), t_prompt=10, b_tasks=10,
                              sigma=0.5, theta=np.eye(2), step_size=0.1,
                              max_steps=10)
    with pytest.raises(ValueError, match="initialization scale"):
        PretrainSpec(lam=np.eye(2), t_prompt=1, b_tasks=10, sigma=1.5,
                     theta=np.eye(2) * 2 ** -0.25, step_size=0.1, max_steps=10)
