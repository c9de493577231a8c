"""End-to-end acceptance checks, one per contract item.

Each test prints a single pass/fail line so the acceptance status can be
read off the test output directly.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from fedicl import core, data, lsa, theory
from fedicl.backend import (LsaBackend, RemoteBackend,
                            RemoteBackendError)
from fedicl.core import (ClientDataset, CommLedger, Example, RealLabel,
                         TextLabel, charge_protocol_round)
from fedicl.data import IdentityEmbedder, PartitionSpec, dirichlet_partition
from fedicl.lsa import (LsaParams, build_embedding, gamma, limit_params,
                        lsa_forward, predict_closed_form, prediction_map)
from fedicl.protocol import ClientState, ProtocolConfig, run

from mock_llm import MockLlmServer


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num:02d}: {description}")
        raise
    print(f"[PASS] criterion {num:02d}: {description}")


def real_dataset(cid, xs, ys):
    return ClientDataset(cid, tuple(Example(tuple(x), RealLabel(float(y)))
                                    for x, y in zip(xs, ys)))


def random_instance(rng, d, l, n, m):
    a = rng.standard_normal((d, d))
    g = a @ a.T + 0.5 * np.eye(d)
    w = rng.standard_normal(d)
    clients = [real_dataset(cid, xs := rng.standard_normal((n, d)), xs @ w)
               for cid in range(1, l + 1)]
    queries = tuple(tuple(x) for x in rng.standard_normal((m, d)))
    return clients, queries, g


def test_criterion_01_protocol_matches_recursion():
    desc = ("iterative protocol reproduces the closed-form label recursion "
            "to 1e-9 over 10 rounds")
    with criterion(1, desc):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        cases = [(d, l, n, m) for d in (1, 2, 3, 5) for l in (1, 2, 3)
                 for n in (1, 5) for m in (1, 4)]
        picks = [cases[i] for i in rng.choice(len(cases), 10, replace=False)]
        for d, l, n, m in picks:
            clients, queries, g = random_instance(rng, d, l, n, m)
            state = theory.iterate_recursion(
                theory.TheoryState.initialize(clients, queries, g), 10)
            result = run(ProtocolConfig(rounds=10),
                         [ClientState(c.client_id, c, LsaBackend(g))
                          for c in clients], queries)
            xm = core.covariate_matrix(queries)
            for trace in result.traces:
                labels = core.real_values(trace.aggregated.labels)
                dev = np.max(np.abs(labels - xm @ state.w_trace[trace.round]))
                assert dev <= 1e-9
        assert time.perf_counter() - start < 5.0


def test_criterion_02_contraction_bound_holds():
    desc = "per-round error ratios respect the spectral contraction bound"
    with criterion(2, desc):
        rng = np.random.default_rng(102)
        for _ in range(20):
            d = int(rng.integers(1, 5))
            clients, queries, g = random_instance(
                rng, d, int(rng.integers(1, 4)), 5, int(rng.integers(2, 6)))
            state = theory.TheoryState.initialize(clients, queries, g)
            if state.h_norm >= 2:
                # rescale the server covariates until the recursion contracts
                scale = (1.5 / state.h_norm) ** 0.5
                queries = tuple(tuple(scale * np.array(q)) for q in queries)
                state = theory.TheoryState.initialize(clients, queries, g)
            state = theory.iterate_recursion(state, 20)
            report = theory.verify_contraction(state)
            assert report.contractive and report.passed
            assert all(r <= 0.5 * report.h_norm + 1e-9 for r in report.ratios)


def matched_moment_instance(d=2, t=2):
    g = gamma(np.eye(d), t)
    root = np.linalg.cholesky(d * g)
    vecs = [tuple(s * root[:, j]) for j in range(d) for s in (1.0, -1.0)]
    clients = [real_dataset(1, vecs, range(1, len(vecs) + 1))]
    return clients, tuple(vecs), g


def test_criterion_03_matched_moments_halve_error():
    desc = "moment-matched covariates give an identity map and exact halving"
    with criterion(3, desc):
        for d in (1, 2, 3):
            clients, queries, g = matched_moment_instance(d)
            state = theory.TheoryState.initialize(clients, queries, g)
            assert np.max(np.abs(state.h_cont - np.eye(d))) <= 1e-12
            report = theory.verify_contraction(
                theory.iterate_recursion(state, 12))
            assert report.passed
            assert all(abs(r - 0.5) <= 1e-9 for r in report.ratios)


def test_criterion_04_fixed_point_is_recursion_limit():
    desc = "closed-form fixed point agrees with the 200-round iterate"
    with criterion(4, desc):
        rng = np.random.default_rng(104)
        for _ in range(10):
            d = int(rng.integers(1, 5))
            clients, queries, g = random_instance(rng, d, 2, 6, 4)
            state = theory.TheoryState.initialize(clients, queries, g)
            if state.h_norm >= 2:
                scale = (1.0 / state.h_norm) ** 0.5
                queries = tuple(tuple(scale * np.array(q)) for q in queries)
                state = theory.TheoryState.initialize(clients, queries, g)
            state = theory.iterate_recursion(state, 200)
            assert np.linalg.norm(state.w_trace[-1] - state.w_star) <= 1e-10


def test_criterion_05_sampled_moments_approach_identity():
    desc = "with 5000 sampled covariates per side the map is near identity"
    with criterion(5, desc):
        start = time.perf_counter()
        d, t = 2, 200
        g = gamma(np.eye(d), t)
        rng = np.random.default_rng(105)
        chol = np.linalg.cholesky(g)
        xs = rng.standard_normal((5000, d)) @ chol.T
        qs = rng.standard_normal((5000, d)) @ chol.T
        clients = [real_dataset(1, xs, np.zeros(5000))]
        state = theory.TheoryState.initialize(clients,
                                              [tuple(x) for x in qs], g)
        assert np.linalg.norm(state.h_cont - np.eye(d)) <= 0.1
        assert time.perf_counter() - start < 10.0


def test_criterion_06_attention_forward_equals_closed_form():
    desc = ("attention forward pass at the limit parameters matches the "
            "closed-form predictor and is reparametrization-invariant")
    with criterion(6, desc):
        rng = np.random.default_rng(106)
        lam = np.diag([1.0, 2.0, 0.5])
        g = gamma(lam, 4)
        base = limit_params(lam, 4)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            examples = [(tuple(x), float(y)) for x, y in
                        zip(rng.standard_normal((n, 3)),
                            rng.standard_normal(n))]
            xq = tuple(rng.standard_normal(3))
            e = build_embedding(examples, xq)
            got = lsa_forward(e, base.with_rho(n))
            xs, ys = zip(*examples)
            assert got == pytest.approx(predict_closed_form(xs, ys, xq, g),
                                        abs=1e-10)
            for c in (0.5, 4.0):
                scaled = LsaParams(c * base.w_kq, base.w_pv / c, rho=float(n))
                assert lsa_forward(e, scaled) == pytest.approx(
                    got, rel=1e-10, abs=1e-10)


def test_criterion_07_pretraining_recovers_limit():
    desc = ("analytic pretraining gradients match finite differences and "
            "gradient descent lands within 5% of the optimal predictor")
    with criterion(7, desc):
        start = time.perf_counter()
        spec = lsa.PretrainSpec(lam=np.eye(2), t_prompt=10, b_tasks=16,
                                sigma=0.5, theta=np.eye(2) * 2 ** -0.25,
                                step_size=0.05, max_steps=1, seed=1)
        a, u, y = lsa.sample_prompts(spec)
        rng = np.random.default_rng(107)
        params = LsaParams(0.3 * rng.standard_normal((3, 3)),
                           0.3 * rng.standard_normal((3, 3)), rho=10.0)
        _, g_kq, g_pv = lsa.empirical_loss_and_grad(params, a, u, y)
        eps = 1e-6
        for which, analytic in (("kq", g_kq), ("pv", g_pv)):
            base = params.w_kq if which == "kq" else params.w_pv
            for i in range(base.shape[0]):
                for j in range(base.shape[1]):
                    plus, minus = base.copy(), base.copy()
                    plus[i, j] += eps
                    minus[i, j] -= eps
                    if which == "kq":
                        lp = lsa.empirical_loss(
                            LsaParams(plus, params.w_pv, params.rho), a, u, y)
                        lm = lsa.empirical_loss(
                            LsaParams(minus, params.w_pv, params.rho), a, u, y)
                    else:
                        lp = lsa.empirical_loss(
                            LsaParams(params.w_kq, plus, params.rho), a, u, y)
                        lm = lsa.empirical_loss(
                            LsaParams(params.w_kq, minus, params.rho), a, u, y)
                    fd = (lp - lm) / (2 * eps)
                    assert abs(analytic[i, j] - fd) / (abs(fd) + 1e-8) <= 1e-5

        train = lsa.PretrainSpec(lam=np.eye(2), t_prompt=10, b_tasks=10_000,
                                 sigma=0.5, theta=np.eye(2) * 2 ** -0.25,
                                 step_size=0.05, max_steps=2000, seed=7)
        result = lsa.pretrain_gd(train)
        got = prediction_map(result.params)
        want = prediction_map(limit_params(train.lam, train.t_prompt))
        assert np.linalg.norm(got - want) / np.linalg.norm(want) <= 0.05
        assert time.perf_counter() - start < 60.0


def test_criterion_08_knn_matches_exhaustive_search():
    desc = "kNN context filtering agrees with exhaustive nearest-neighbor search"
    with criterion(8, desc):
        rng = np.random.default_rng(108)
        emb = IdentityEmbedder()
        for _ in range(50):
            d = int(rng.integers(1, 5))
            n = int(rng.integers(2, 20))
            ds = real_dataset(1, rng.standard_normal((n, d)), np.zeros(n))
            queries = [tuple(x) for x in
                       rng.standard_normal((int(rng.integers(1, 5)), d))]
            c = int(rng.integers(1, n + 1))
            kept = data.knn_context(ds.covariates, queries, c, emb)
            want = set()
            for q in queries:
                dists = sorted(
                    (float(np.linalg.norm(np.array(cv) - np.array(q))), i)
                    for i, cv in enumerate(ds.covariates))
                want.update(i for _, i in dists[:c])
            assert set(kept.ravel().tolist()) == want


def test_criterion_09_partition_contract():
    desc = ("Dirichlet partitioning conserves examples, is seed-deterministic,"
            " and skews with smaller alpha")
    with criterion(9, desc):
        rng = np.random.default_rng(109)
        cats = ("a", "b", "c", "d")
        corpus = [Example((float(i),), RealLabel(0.0),
                          category=cats[int(rng.integers(4))])
                  for i in range(400)]
        prior = (0.25,) * 4
        spec = PartitionSpec(num_clients=4, alpha=1.0, prior=prior, seed=6)
        clients, manifest = dirichlet_partition(corpus, spec)
        assert sum(len(c.examples) for c in clients) == len(corpus)
        assert sorted(manifest) == list(range(len(corpus)))
        assert dirichlet_partition(corpus, spec) == (clients, manifest)
        medians = []
        for alpha in (0.001, 1.0, 100.0):
            ents = []
            for seed in range(20):
                cs, _ = dirichlet_partition(corpus, PartitionSpec(
                    num_clients=4, alpha=alpha, prior=prior, seed=seed))
                ents.extend(data.category_entropy(c) for c in cs)
            medians.append(float(np.median(ents)))
        assert medians[0] < medians[1] < medians[2]


def test_criterion_10_communication_accounting():
    desc = "ledger total reproduces the hand-computed 1,138,176-token scenario"
    with criterion(10, desc):
        l_clients, k_rounds, m_queries, tok = 3, 6, 114, 256
        ledger = CommLedger()
        for k in range(1, k_rounds + 1):
            charge_protocol_round(ledger, k, list(range(1, l_clients + 1)),
                                  m_queries, tok, tok, "tokens")
        # round 1: questions down + answers down/up; later rounds: labels only
        hand = (l_clients * m_queries * 512 + l_clients * m_queries * 256
                + (k_rounds - 1) * 2 * l_clients * m_queries * 256)
        assert hand == 1_138_176
        assert ledger.total("tokens") == hand
        per_round = {ledger.round_total(k, "tokens")
                     for k in range(2, k_rounds + 1)}
        assert len(per_round) == 1


class _ReadTrackedLabel(RealLabel):
    """Real label that counts reads of its value, for data-flow checks."""

    reads = 0

    def __getattribute__(self, name):
        if name == "value":
            _ReadTrackedLabel.reads += 1
        return super().__getattribute__(name)


def test_criterion_11_variant_contracts():
    desc = ("variants honor their contracts: single-round ground truth, "
            "label-free never touches local labels, merged upper bound")
    with criterion(11, desc):
        rng = np.random.default_rng(111)
        g = gamma(np.eye(2), 5)
        clients_data = [real_dataset(cid, xs := rng.standard_normal((3, 2)),
                                     xs @ [1.0, -1.0]) for cid in (1, 2, 3)]
        backend = LsaBackend(g)
        queries = tuple(tuple(x) for x in rng.standard_normal((3, 2)))

        gt = run(ProtocolConfig(rounds=6, variant="fedicl_gt"),
                 [ClientState(c.client_id, c, backend) for c in clients_data],
                 queries)
        assert len(gt.traces) == 1

        def tracked(ds, scale=1.0):
            return ClientDataset(ds.client_id, tuple(
                Example(ex.covariate,
                        _ReadTrackedLabel(scale * ex.label.value))
                for ex in ds.examples))

        def traces(variant, datasets):  # random C_1: nonzero answers
            return run(ProtocolConfig(rounds=3, variant=variant,
                                      init_mode="random"),
                       [ClientState(ds.client_id, ds, backend)
                        for ds in datasets], queries).traces

        # the datasets read their labels once, when they are built
        _ReadTrackedLabel.reads = 0
        tracked_data = [tracked(c) for c in clients_data]
        assert _ReadTrackedLabel.reads > 0
        _ReadTrackedLabel.reads = 0
        free = traces("fedicl_free", tracked_data)
        assert _ReadTrackedLabel.reads == 0
        assert np.abs(core.real_values(free[-1].aggregated.labels)).min() > 0
        # clients that differ only in their labels give fedicl_free the
        # same run, and fedicl a different one
        other_data = [tracked(c, scale=-3.0) for c in clients_data]
        assert free == traces("fedicl_free", other_data)
        assert traces("fedicl", tracked_data) != traces("fedicl",
                                                         other_data)

        ub = run(ProtocolConfig(rounds=4, variant="fedicl_ub"),
                 [ClientState(c.client_id, c, backend) for c in clients_data],
                 queries)
        merged = ClientDataset(1, tuple(ex for ds in clients_data
                                        for ex in ds.examples))
        manual = run(ProtocolConfig(rounds=4),
                     [ClientState(1, merged, backend)], queries)
        assert [t.aggregated for t in ub.traces] == [t.aggregated
                                                     for t in manual.traces]


def test_criterion_12_remote_wire_contract():
    desc = ("remote backend speaks the chat-completions protocol with "
            "retries and faithful token accounting")
    with criterion(12, desc):
        with MockLlmServer(reply="the final answer") as srv:
            backend = RemoteBackend(srv.url)
            context = core.Dataset([Example("ex q", TextLabel("ex a"))])
            got = backend.answer(context, ["real question?"])[0]
            assert got == TextLabel("the final answer")
            body = srv.requests[0]
            assert body["model"] == "gpt-4o-mini"
            assert body["temperature"] == 0.1 and body["max_tokens"] == 256
            assert "real question?" in body["messages"][0]["content"]

        # faithful accounting through the engine's one ledger: the tokens
        # the endpoint reports, beside the nominal per-answer cap
        with MockLlmServer(reply="the final answer") as srv:
            clients = [ClientState(cid, ClientDataset(cid, tuple(
                Example(f"ex q {cid}.{i}", TextLabel("ex a"))
                for i in range(cid))), RemoteBackend(srv.url))
                for cid in (1, 2)]
            result = run(ProtocolConfig(rounds=2, aggregation="fusion"),
                         clients, ["real question?", "second question?"])
            up = sum(u["prompt_tokens"] for u in srv.usages)
            down = sum(u["completion_tokens"] for u in srv.usages)
        observed = {}
        for e in result.ledger.entries:
            if e.unit == "observed_tokens":
                observed[e.direction] = (observed.get(e.direction, 0)
                                         + e.payload_units)
        assert observed == {"uplink": up, "downlink": down}
        assert result.ledger.total("tokens") == 2 * 2 * 256 * (2 * 2 + 1)

        script = [(429, {"error": "rate limited"}, {"Retry-After": "0"}),
                  (200, None, {})]
        with MockLlmServer(script=script) as srv:
            backend = RemoteBackend(srv.url, backoff_base=0.0)
            got = backend.answer(core.Dataset(), ["q"])[0]
            assert got == TextLabel("mock answer")
            assert len(srv.requests) == 2

        with MockLlmServer(script=[(200, {"bad": "shape"}, {})]) as srv:
            with pytest.raises(RemoteBackendError):
                RemoteBackend(srv.url).answer(core.Dataset(), ["q"])[0]
