import threading
from collections import Counter

import numpy as np
import pytest

from fedicl import core, lsa, protocol, theory
from fedicl.backend import (GenerationParams, LsaBackend, RemoteBackend,
                            render_prompt)
from fedicl.core import ClientDataset, Dataset, Example, RealLabel, TextLabel
from fedicl.data import IdentityEmbedder, knn_context
from fedicl.lsa import gamma
from fedicl.protocol import (ClientState, ProtocolConfig, ProtocolError,
                             _step2_pool, aggregate, init_labels, run,
                             step1_relabel, step2_answer)

from mock_llm import MockLlmServer

GAMMA_1D = np.array([[3.0]])


def real_dataset(cid, xs, ys):
    return ClientDataset(cid, tuple(Example(tuple(x), RealLabel(float(y)))
                                    for x, y in zip(xs, ys)))


def random_regression(rng, d, l, n, m, t_prompt=7):
    g = gamma(np.eye(d), t_prompt)
    w_true = rng.standard_normal(d)
    clients = [real_dataset(cid, xs := rng.standard_normal((n, d)),
                            xs @ w_true) for cid in range(1, l + 1)]
    queries = tuple(tuple(x) for x in rng.standard_normal((m, d)))
    return clients, queries, g


# ---------------------------------------------------------------------------
# init_labels
# ---------------------------------------------------------------------------

def test_init_zeros():
    qs = init_labels([(1.0,), (2.0,), (3.0,)], "zeros")
    assert qs.labels == (RealLabel(0.0),) * 3


def test_init_random_reproducible():
    a = init_labels([(1.0,), (2.0,)], "random", rng=np.random.default_rng(5))
    b = init_labels([(1.0,), (2.0,)], "random", rng=np.random.default_rng(5))
    assert a == b


def test_init_backend_generated():
    backend = LsaBackend(GAMMA_1D)
    qs = init_labels([(1.0,), (2.0,)], "backend_generated", backend=backend)
    # empty context: backend answers 0 for every query
    assert qs.labels == tuple(backend.answer(Dataset(), [q])[0]
                              for q in qs.covariates)


def test_init_backend_generated_requires_backend():
    with pytest.raises(ValueError):
        init_labels([(1.0,)], "backend_generated")


def test_init_gives_text_queries_empty_answers():
    qs = init_labels(("q1", "q2"), "zeros")
    assert qs.covariates == ("q1", "q2")
    assert qs.labels == (TextLabel(""),) * 2
    with pytest.raises(ValueError, match="needs vector queries"):
        init_labels(("q1",), "random")


def test_init_rejects_an_empty_query_list():
    for mode in ("zeros", "random"):
        with pytest.raises(ValueError, match="at least one covariate"):
            init_labels([], mode)


# ---------------------------------------------------------------------------
# step 1 / step 2 (closed-form oracle values)
# ---------------------------------------------------------------------------

def test_step1_hand_value():
    # C_k = {(1, 3)}, client covariate 1: y = 1 * (1/3) * (1*3) = 1
    client = ClientState(1, real_dataset(1, [[1.0]], [99.0]),
                         LsaBackend(GAMMA_1D))
    c_k = Dataset(covariates=((1.0,),), labels=(RealLabel(3.0),))
    relabeled = step1_relabel(client, c_k)
    assert relabeled.labels == (RealLabel(1.0),)
    # the relabeled dataset shares the client's checked covariate array
    assert relabeled.covariates is client.original.covariates


def test_step1_zero_labels_propagate():
    client = ClientState(1, real_dataset(1, [[1.0], [2.0]], [5.0, 6.0]),
                         LsaBackend(GAMMA_1D))
    c_k = Dataset(covariates=((1.0,), (4.0,)),
                  labels=(RealLabel(0.0), RealLabel(0.0)))
    relabeled = step1_relabel(client, c_k)
    assert all(lab.value == 0.0 for lab in relabeled.labels)


def step2_context(client, variant, relabeled):
    """The variant's step-2 context as ``run`` builds it, given step 1's
    relabeled labels."""
    pool, kept = _step2_pool(client, variant, None)
    return pool.with_labels(core.join_labels([kept, relabeled]))


def test_step2_hand_value():
    # D = {(1,1)}, D_k = {(1,1)}, query 1: (1/3) * (1/2) * (1 * (1+1)) = 1/3
    client = ClientState(1, real_dataset(1, [[1.0]], [1.0]),
                         LsaBackend(GAMMA_1D))
    context = step2_context(client, "fedicl", [RealLabel(1.0)])
    assert len(context) == 2
    answers = step2_answer(client, context, [(1.0,)])
    assert answers[0].value == pytest.approx(1 / 3, abs=1e-12)


def test_step2_free_uses_only_relabeled():
    client = ClientState(1, real_dataset(1, [[1.0]], [7.0]),
                         LsaBackend(GAMMA_1D))
    context = step2_context(client, "fedicl_free", [RealLabel(0.0)])
    answers = step2_answer(client, context, [(1.0,)])
    assert answers == (RealLabel(0.0),)


def test_fedicl_and_free_differ_when_labels_differ():
    client = ClientState(1, real_dataset(1, [[1.0]], [7.0]),
                         LsaBackend(GAMMA_1D))

    def answer(variant, relabeled):
        return step2_answer(client, step2_context(client, variant, relabeled),
                            [(1.0,)])

    assert answer("fedicl", [RealLabel(1.0)]) != answer(
        "fedicl_free", [RealLabel(1.0)])
    # and they agree exactly when relabeled labels equal the originals
    assert answer("fedicl", client.original.labels) == answer(
        "fedicl_free", client.original.labels)


@pytest.mark.parametrize("variant", ["fedicl", "fedicl_free", "fedicl_ub"])
def test_run_leaves_the_callers_client_states_unchanged(variant):
    rng = np.random.default_rng(35)
    clients_data, queries, g = random_regression(rng, d=2, l=3, n=4, m=3)
    clients = [ClientState(ds.client_id, ds, LsaBackend(g))
               for ds in clients_data]
    before = [dict(vars(c)) for c in clients]
    for context_count in (None, 2):
        run(ProtocolConfig(rounds=3, variant=variant,
                           context_count=context_count), clients, queries)
    after = [vars(c) for c in clients]
    assert after == before
    assert all(a[f] is b[f] for a, b in zip(after, before) for f in b)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def qset(labels, covs=None):
    covs = covs or tuple((float(i + 1),) for i in range(len(labels)))
    return Dataset(covariates=covs, labels=tuple(labels))


def test_average_aggregation():
    prev = qset([RealLabel(0.0)])
    out = aggregate({1: [RealLabel(1.0)], 2: [RealLabel(2.0)],
                     3: [RealLabel(3.0)]}, "average", prev)
    assert out.labels == (RealLabel(2.0),)


@pytest.mark.parametrize("answers,want", [
    (("b", "a", "b"), "b"),
    (("b", "a"), "b"),        # a tie goes to the answer seen first
], ids=["plurality", "tie"])
def test_fusion_picks_the_most_frequent_answer(answers, want):
    prev = qset([TextLabel("old answer")], covs=("q1",))
    # inserted in descending id order: the vote reads clients by id
    per_client = {cid: [TextLabel(a)]
                  for cid, a in reversed(list(enumerate(answers, 1)))}
    out = aggregate(per_client, "fusion", prev)
    assert out.labels == (TextLabel(want),)


def test_aggregation_strategy_label_mismatch():
    prev = qset([RealLabel(0.0)])
    with pytest.raises(TypeError):
        aggregate({1: [TextLabel("x")]}, "average", prev)
    with pytest.raises(TypeError):
        aggregate({1: [RealLabel(1.0)]}, "fusion", prev)


def test_aggregation_client_order_independence():
    prev = qset([RealLabel(0.0), RealLabel(0.0)])
    answers = {1: [RealLabel(1.0), RealLabel(4.0)],
               2: [RealLabel(3.0), RealLabel(0.0)]}
    relabeled = {2: answers[1], 1: answers[2]}  # permuted client ids
    assert aggregate(answers, "average", prev).labels == aggregate(
        relabeled, "average", prev).labels


# ---------------------------------------------------------------------------
# full protocol runs
# ---------------------------------------------------------------------------

def test_run_matches_theory_recursion():
    rng = np.random.default_rng(21)
    clients_data, queries, g = random_regression(rng, d=2, l=3, n=4, m=3)
    state = theory.iterate_recursion(
        theory.TheoryState.initialize(clients_data, queries, g), 10)
    backend = LsaBackend(g)
    clients = [ClientState(ds.client_id, ds, backend) for ds in clients_data]
    result = run(ProtocolConfig(rounds=10), clients, queries)
    xm = core.covariate_matrix(queries)
    for trace in result.traces:
        labels = core.real_values(trace.aggregated.labels)
        assert np.max(np.abs(labels - xm @ state.w_trace[trace.round])) <= 1e-9


def test_gt_variant_runs_single_round():
    rng = np.random.default_rng(22)
    clients_data, queries, g = random_regression(rng, d=1, l=2, n=3, m=2)
    clients = [ClientState(ds.client_id, ds, LsaBackend(g))
               for ds in clients_data]
    result = run(ProtocolConfig(rounds=6, variant="fedicl_gt"),
                 clients, queries)
    assert len(result.traces) == 1


def test_single_client_average_is_identity():
    rng = np.random.default_rng(23)
    clients_data, queries, g = random_regression(rng, d=2, l=1, n=3, m=4)
    clients = [ClientState(1, clients_data[0], LsaBackend(g))]
    result = run(ProtocolConfig(rounds=3), clients, queries)
    for trace in result.traces:
        assert trace.aggregated.labels == trace.per_client_answers[1]


def test_ub_variant_equals_merged_single_client():
    rng = np.random.default_rng(24)
    clients_data, queries, g = random_regression(rng, d=2, l=3, n=2, m=3)
    backend = LsaBackend(g)
    ub = run(ProtocolConfig(rounds=4, variant="fedicl_ub"),
             [ClientState(ds.client_id, ds, backend) for ds in clients_data],
             queries)
    merged = ClientDataset(1, tuple(ex for ds in clients_data
                                    for ex in ds.examples))
    manual = run(ProtocolConfig(rounds=4, variant="fedicl"),
                 [ClientState(1, merged, backend)], queries)
    assert [t.aggregated for t in ub.traces] == [t.aggregated
                                                 for t in manual.traces]


def test_lb_variant_uses_server_reference_only():
    rng = np.random.default_rng(25)
    g = gamma(np.eye(1), 5)
    reference = real_dataset(0, [[1.0]], [3.0])
    # client holds no data at all
    clients = [ClientState(1, None, LsaBackend(g))]
    result = run(ProtocolConfig(rounds=2, variant="fedicl_lb"),
                 clients, [(1.0,)], server_reference=reference)
    expected = LsaBackend(g).answer(reference, [(1.0,)])[0]
    assert result.final.labels == (expected,)


def unequal_regression(rng, d, sizes, m, t_prompt=7):
    g = gamma(np.eye(d), t_prompt)
    w_true = rng.standard_normal(d)
    clients = [real_dataset(cid, xs := rng.standard_normal((n, d)),
                            xs @ w_true) for cid, n in enumerate(sizes, 1)]
    queries = tuple(tuple(x) for x in rng.standard_normal((m, d)))
    return clients, queries, g


def knn_replay(clients_data, queries, g, k, rounds, variant):
    """Labels after each round, by exhaustive stable-sort kNN and the
    closed form x^T Gamma^-1 (1/k sum y_j x_j), in plain numpy."""
    def predict(pool_x, pool_y, q):
        nearest = np.argsort(np.linalg.norm(pool_x - q, axis=1),
                             kind="stable")[:k]
        moment = pool_x[nearest].T @ pool_y[nearest] / len(nearest)
        return q @ np.linalg.solve(g, moment)

    xq = np.asarray(queries)
    labels, out = np.zeros(len(xq)), []
    for _ in range(rounds):
        answers = []
        for ds in clients_data:
            x, y = np.asarray(ds.covariates), core.real_values(ds.labels)
            relabeled = np.array([predict(xq, labels, xn) for xn in x])
            if variant == "fedicl":
                pool_x, pool_y = np.vstack([x, x]), np.concatenate([y, relabeled])
            else:
                pool_x, pool_y = x, relabeled
            answers.append([predict(pool_x, pool_y, q) for q in xq])
        labels = np.mean(answers, axis=0)
        out.append(labels)
    return out


@pytest.mark.parametrize("variant", ["fedicl", "fedicl_free"])
def test_knn_run_matches_numpy_replay(variant):
    rng = np.random.default_rng(30)
    clients_data, queries, g = unequal_regression(rng, d=2, sizes=(4, 6, 9),
                                                  m=5)
    clients = [ClientState(ds.client_id, ds, LsaBackend(g))
               for ds in clients_data]
    result = run(ProtocolConfig(rounds=4, variant=variant, context_count=3),
                 clients, queries)
    want = knn_replay(clients_data, queries, g, 3, 4, variant)
    assert len(result.traces) == len(want)
    for trace, labels in zip(result.traces, want):
        got = core.real_values(trace.aggregated.labels)
        assert np.max(np.abs(got - labels)) <= 1e-9


def test_knn_context_covering_the_pool_equals_full_context():
    rng = np.random.default_rng(31)
    clients_data, queries, g = unequal_regression(rng, d=2, sizes=(3, 5),
                                                  m=4)

    def go(context_count):
        clients = [ClientState(ds.client_id, ds, LsaBackend(g))
                   for ds in clients_data]
        return run(ProtocolConfig(rounds=3, context_count=context_count),
                   clients, queries).traces

    # the largest pool is step 2's: 2 * 5 local and relabeled examples
    assert go(10) == go(None)
    # 4 covers step 1's pool (the queries) but not step 2's
    want = knn_replay(clients_data, queries, g, 4, 3, "fedicl")
    for trace, labels in zip(go(4), want):
        got = core.real_values(trace.aggregated.labels)
        assert np.max(np.abs(got - labels)) <= 1e-9


@pytest.mark.parametrize("variant", ["fedicl", "fedicl_ub"])
def test_step2_knn_on_the_doubled_pool_equals_a_search_of_it(variant):
    # a line with ties between distinct points, a repeated point, and a
    # grid of small integers, whose distances tie everywhere
    line = ClientDataset(1, tuple(Example((x,), RealLabel(0.0)) for x in
                                  (-1.0, 1.0, 2.0, -2.0, 0.5, 3.0, 1.0)))
    grid = real_dataset(2, np.random.default_rng(34).integers(
        -2, 3, size=(9, 2)).astype(float), np.zeros(9))
    cases = [(line, ((0.0,), (1.5,), (-1.0,))),
             (grid, ((0.0, 0.0), (1.0, -1.0), (0.5, 0.5), (2.0, 2.0)))]
    for local, queries in cases:
        client = ClientState(local.client_id, local, LsaBackend(np.eye(
            local.dim)))
        pool, kept = _step2_pool(client, variant, None)
        assert len(pool) == 2 * len(local) and len(kept) == len(local)
        for c in range(1, 2 * len(pool)):   # odd and even, below and >= N
            config = ProtocolConfig(rounds=1, variant=variant,
                                    context_count=c)
            _, got = protocol._knn_neighbours(client, config, queries, None,
                                              pool, kept)
            if c >= len(pool):
                assert got is None
                continue
            want = knn_context(pool.covariates, queries, c,
                               IdentityEmbedder())
            np.testing.assert_array_equal(got, want, err_msg=f"c={c}")


def test_knn_run_makes_one_backend_call_per_client_step_round():
    rng = np.random.default_rng(33)
    clients_data, queries, g = unequal_regression(rng, d=2, sizes=(4, 6, 9),
                                                  m=5)

    calls = []

    class CountingBackend(LsaBackend):
        def answer(self, context, queries, neighbours=None, usage=None):
            calls.append((len(queries), neighbours is not None))
            return super().answer(context, queries, neighbours, usage)

    clients = [ClientState(ds.client_id, ds, CountingBackend(g))
               for ds in clients_data]
    run(ProtocolConfig(rounds=4, context_count=3), clients, queries,
        max_workers=1)
    # per round, each client: step 1 over its covariates, step 2 over the
    # queries, each with its neighbour indices
    per_round = [(len(ds), True) for ds in clients_data] + [(5, True)] * 3
    assert sorted(calls) == sorted(per_round * 4)


class PooledLsaBackend(LsaBackend):
    """An LSA backend that claims to wait on I/O, so runs use the pool."""

    waits_on_io = True


def test_serial_and_pooled_runs_trace_identically():
    rng = np.random.default_rng(32)
    clients_data, queries, g = unequal_regression(rng, d=3, sizes=(4, 5, 6),
                                                  m=4)

    def go(max_workers, context_count):
        clients = [ClientState(ds.client_id, ds, PooledLsaBackend(g))
                   for ds in clients_data]
        return run(ProtocolConfig(rounds=4, context_count=context_count),
                   clients, queries, max_workers=max_workers).traces

    for context_count in (None, 2):
        assert go(1, context_count) == go(None, context_count)


def test_backend_answer_count_mismatch_is_a_protocol_error():
    class ShortBackend(LsaBackend):
        def answer(self, context, queries, neighbours=None, usage=None):
            return super().answer(context, queries, neighbours, usage)[:-1]

    client = ClientState(1, real_dataset(1, [[1.0], [2.0]], [1.0, 2.0]),
                         ShortBackend(GAMMA_1D))
    c_k = qset([RealLabel(3.0)])
    with pytest.raises(ProtocolError, match="step 1: 1 answers to 2"):
        step1_relabel(client, c_k)


def test_client_permutation_leaves_aggregate_unchanged():
    rng = np.random.default_rng(26)
    clients_data, queries, g = random_regression(rng, d=2, l=3, n=3, m=2)
    backend = LsaBackend(g)
    base = run(ProtocolConfig(rounds=5),
               [ClientState(ds.client_id, ds, backend)
                for ds in clients_data], queries)
    permuted_ids = [ClientState(cid, ds, backend) for cid, ds in
                    zip([3, 1, 2], clients_data)]
    perm = run(ProtocolConfig(rounds=5), permuted_ids, queries)
    for a, b in zip(base.traces, perm.traces):
        # averaging order may differ, so agreement is up to float roundoff
        assert np.allclose(core.real_values(a.aggregated.labels),
                           core.real_values(b.aggregated.labels), atol=1e-12)


def test_deterministic_traces_byte_identical(tmp_path):
    rng = np.random.default_rng(27)
    clients_data, queries, g = random_regression(rng, d=3, l=2, n=4, m=3)
    backend = LsaBackend(g)

    def go(path):
        clients = [ClientState(ds.client_id, ds, backend)
                   for ds in clients_data]
        run(ProtocolConfig(rounds=6, seed=9), clients, queries,
            trace_path=path)
        return path.read_bytes()

    assert go(tmp_path / "a.jsonl") == go(tmp_path / "b.jsonl")


def test_sent_payloads_never_contain_client_data():
    rng = np.random.default_rng(28)
    clients_data, queries, g = random_regression(rng, d=2, l=3, n=4, m=3)
    clients = [ClientState(ds.client_id, ds, LsaBackend(g))
               for ds in clients_data]
    config = ProtocolConfig(rounds=4)
    result = run(config, clients, queries)
    client_covs = {ex.covariate for ds in clients_data for ex in ds.examples}
    client_labels = {ex.label for ds in clients_data for ex in ds.examples}
    # round k sends C_k down to every client: C_1 is the initial query set,
    # C_{k+1} the aggregate traced in round k
    downlink = [init_labels(queries, config.init_mode)]
    downlink += [trace.aggregated for trace in result.traces[:-1]]
    assert len(downlink) == len(result.traces) == 4
    for c_k, trace in zip(downlink, result.traces):
        assert np.array_equal(c_k.covariates, queries)
        # uplink payload is exactly {(x_m, y^i_{k+1,m})}, from every client
        assert sorted(trace.per_client_answers) == [1, 2, 3]
        uplink = [tuple(zip(queries, answers))
                  for answers in trace.per_client_answers.values()]
        assert all(len(pairs) == len(queries) for pairs in uplink)
        for pairs in [tuple(c_k.pairs())] + uplink:
            for cov, label in pairs:
                cov = tuple(cov)
                assert cov in set(queries)
                assert cov not in client_covs
                assert label not in client_labels


def test_constant_per_round_payload_from_round_two():
    rng = np.random.default_rng(29)
    clients_data, queries, g = random_regression(rng, d=2, l=2, n=3, m=5)
    clients = [ClientState(ds.client_id, ds, LsaBackend(g))
               for ds in clients_data]
    result = run(ProtocolConfig(rounds=6), clients, queries)
    totals = [result.ledger.round_total(k, "bits") for k in range(2, 7)]
    assert len(set(totals)) == 1
    # round 1 additionally carries the questions
    assert result.ledger.round_total(1, "bits") > totals[0]


def test_run_rejects_empty_client_list():
    with pytest.raises(ValueError):
        run(ProtocolConfig(rounds=1), [], [(1.0,)])


def test_config_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(rounds=0)
    with pytest.raises(ValueError):
        ProtocolConfig(rounds=1, variant="nope")
    with pytest.raises(ValueError):
        ProtocolConfig(rounds=1, context_count=0)
    assert ProtocolConfig(rounds=9, variant="fedicl_gt").effective_rounds == 1
    assert ProtocolConfig(rounds=9, variant="fedicl_lb").effective_rounds == 1
    assert ProtocolConfig(rounds=9, variant="fedicl").effective_rounds == 9


@pytest.mark.parametrize("field", ["rounds", "context_count"])
@pytest.mark.parametrize("value", [2.5, 2.0, True, "2"])
def test_config_rejects_counts_that_are_not_ints(field, value):
    with pytest.raises(TypeError, match=field):
        ProtocolConfig(**dict({"rounds": 2}, **{field: value}))
    assert getattr(ProtocolConfig(**{"rounds": 2, field: np.int64(3)}),
                   field) == 3


@pytest.mark.parametrize("n_clients", [1, 3, 20])
def test_average_aggregation_is_bitwise_the_per_query_mean(n_clients):
    rng = np.random.default_rng(50 + n_clients)
    m = 9
    # answers spread over six orders of magnitude, so summation order shows
    vals = rng.standard_normal((n_clients, m)) * 10.0 ** rng.integers(
        -3, 4, size=(n_clients, m))
    # inserted in descending id order: aggregation sorts the clients
    per_client = {cid: tuple(RealLabel(v) for v in vals[cid - 1].tolist())
                  for cid in range(n_clients, 0, -1)}
    previous = qset([RealLabel(0.0)] * m, [(float(q),) for q in range(m)])
    got = aggregate(per_client, "average", previous)
    want = [float(np.mean([per_client[cid][q].value
                           for cid in sorted(per_client)])) for q in range(m)]
    assert [lab.value for lab in got.labels] == want
    if n_clients >= 8:  # a mean down the client axis rounds differently
        assert vals.mean(axis=0).tolist() != want
    assert got.covariates is previous.covariates


def test_average_aggregation_rejects_a_non_real_answer():
    previous = qset([RealLabel(0.0)] * 2)
    with pytest.raises(TypeError):
        aggregate({1: (RealLabel(1.0), RealLabel(2.0)),
                   2: (RealLabel(1.0), TextLabel("2"))}, "average", previous)


@pytest.mark.parametrize("context_count", [None, 2])
def test_vector_run_builds_no_example_after_setup(monkeypatch, tmp_path,
                                                  context_count):
    rng = np.random.default_rng(34)
    clients_data, queries, g = random_regression(rng, d=2, l=3, n=6, m=4)
    clients = [ClientState(ds.client_id, ds, LsaBackend(g))
               for ds in clients_data]
    built = Counter()
    post_init, as_covariate = Example.__post_init__, core.as_covariate
    label_init, check_spd = RealLabel.__init__, lsa._check_spd

    def counting_post_init(self):
        built["Example"] += 1
        post_init(self)

    def counting_as_covariate(values):
        built["as_covariate"] += 1
        return as_covariate(values)

    def counting_label_init(self, value):
        built["RealLabel"] += 1
        label_init(self, value)

    def counting_check_spd(mat, name="matrix"):
        built["_check_spd"] += 1
        return check_spd(mat, name)

    monkeypatch.setattr(Example, "__post_init__", counting_post_init)
    monkeypatch.setattr(core, "as_covariate", counting_as_covariate)
    monkeypatch.setattr(RealLabel, "__init__", counting_label_init)
    monkeypatch.setattr(lsa, "_check_spd", counting_check_spd)
    concats = []

    def counting_concat(datasets):
        concats[-1] += 1
        return core.concat(datasets)

    monkeypatch.setattr(protocol, "concat", counting_concat)
    for rounds in (1, 3):
        concats.append(0)
        result = run(ProtocolConfig(rounds=rounds,
                                    context_count=context_count),
                     clients, queries, trace_path=tmp_path / "traces.jsonl")
        assert len(result.traces) == rounds
    assert built == Counter()
    # step 2's pool is stacked once per client and run, in no round
    assert concats == [len(clients)] * 2
    Example((1.0,), RealLabel(0.0))  # the counters do count
    lsa.predict_closed_form(np.eye(2), np.ones(2), np.eye(2), g)
    assert built == Counter({"Example": 1, "as_covariate": 1, "RealLabel": 1,
                             "_check_spd": 1})


# ---------------------------------------------------------------------------
# text mode, one RemoteBackend per client against the in-process stub
# ---------------------------------------------------------------------------

def text_clients(url, sizes, params=None):
    return [ClientState(cid, ClientDataset(cid, tuple(
        Example(f"local question {cid}.{i}?", TextLabel(f"local answer {i}"))
        for i in range(n))), RemoteBackend(url, params=params))
        for cid, n in enumerate(sizes, 1)]


TEXT_QUERIES = ("What causes tides?", "Why is the sky blue?",
                "What is a prime?")


def prompts_of(srv):
    return [body["messages"][0]["content"] for body in srv.requests]


def test_text_run_posts_once_per_answer_and_charges_nominal_tokens():
    rounds, sizes, m = 3, (2, 4), len(TEXT_QUERIES)
    params = GenerationParams()
    with MockLlmServer(reply="a reply") as srv:
        result = run(ProtocolConfig(rounds=rounds, aggregation="fusion"),
                     text_clients(srv.url, sizes, params), TEXT_QUERIES)
        prompts = prompts_of(srv)
        observed = sum(u["prompt_tokens"] + u["completion_tokens"]
                       for u in srv.usages)
    # every client answers its N examples (step 1) and the M queries (step 2)
    assert len(prompts) == rounds * sum(n + m for n in sizes)
    assert result.final.labels == (TextLabel("a reply"),) * m
    assert result.final.covariates == TEXT_QUERIES
    # nominal accounting: every payload at the token cap; questions go down
    # once, labels down and answers up every round
    cap = params.max_tokens
    assert result.ledger.total() == {
        "tokens": len(sizes) * m * cap * (2 * rounds + 1),
        "observed_tokens": observed}
    # round 1's step-1 prompts cite C_1: the queries with empty answers
    first = [p for p in prompts if "Question: What causes tides?\nAnswer: \n"
             in p]
    assert len(first) == sum(sizes)
    assert not any("Answer: 0.0" in p for p in prompts)


@pytest.mark.parametrize("caps", [(4,), (4, 8)], ids=["one", "two"])
def test_text_run_charges_each_client_at_its_backend_cap(caps):
    with MockLlmServer(reply="a reply") as srv:
        clients = [ClientState(cid, ClientDataset(cid, (Example(
            f"local question {cid}?", TextLabel("local answer")),)),
            RemoteBackend(srv.url, params=GenerationParams(max_tokens=cap)))
            for cid, cap in enumerate(caps, 1)]
        result = run(ProtocolConfig(rounds=1, aggregation="fusion"),
                     clients, TEXT_QUERIES[:1])
    # the question and the current answer go down, one answer comes up
    assert [(e.client_id, e.direction, e.payload_units)
            for e in result.ledger.entries if e.unit == "tokens"] == [
        row for cid, cap in enumerate(caps, 1)
        for row in ((cid, "downlink", 2 * cap), (cid, "uplink", cap))]
    assert result.ledger.total("tokens") == 3 * sum(caps)


def test_text_run_with_a_backend_without_a_cap_fails_before_any_request():
    with MockLlmServer() as srv:
        clients = text_clients(srv.url, (2,))
        clients.append(ClientState(2, clients[0].original,
                                   LsaBackend(GAMMA_1D)))
        with pytest.raises(ValueError, match="client 2.*max_tokens"):
            run(ProtocolConfig(rounds=1, aggregation="fusion"), clients,
                TEXT_QUERIES)
        assert srv.requests == []


def test_remote_run_on_vector_questions_charges_tokens_at_the_cap():
    with MockLlmServer(reply="a reply") as srv:
        client = ClientState(1, real_dataset(1, [[1.0, 0.0]], [1.0]),
                             RemoteBackend(srv.url, params=GenerationParams(
                                 max_tokens=4)))
        result = run(ProtocolConfig(rounds=1, aggregation="fusion"),
                     [client], [(0.5, 0.5)])
    # the backend answers with text, so every payload is charged at its cap
    assert result.ledger.total("bits") == 0
    assert result.ledger.total("tokens") == 3 * 4


def unmakeable_runs(url):
    """(config, clients) of runs the engine rejects, by case."""
    text = text_clients(url, (2, 2))
    generated = dict(aggregation="fusion", init_mode="backend_generated")
    return {
        "remote-average": (ProtocolConfig(rounds=2), text),
        "lb-without-reference": (ProtocolConfig(
            rounds=2, variant="fedicl_lb", **generated), text),
        "text-knn-without-embedder": (ProtocolConfig(
            rounds=2, context_count=1, **generated), text),
        "client-without-data": (
            ProtocolConfig(rounds=2, aggregation="fusion"),
            text + [ClientState(3, None, RemoteBackend(url))]),
    }


@pytest.mark.parametrize("case", ["remote-average", "lb-without-reference",
                                  "text-knn-without-embedder",
                                  "client-without-data"])
def test_a_run_the_engine_cannot_make_fails_before_any_request(case):
    with MockLlmServer() as srv:
        config, clients = unmakeable_runs(srv.url)[case]
        with pytest.raises(core.ConfigError):
            run(config, clients, TEXT_QUERIES)
        assert srv.requests == []


class CountingBackend(LsaBackend):
    """An LSA backend that notes the query count of each ``answer`` call."""

    def __init__(self, gamma):
        super().__init__(gamma)
        self.calls = []

    def answer(self, context, queries, neighbours=None, usage=None):
        self.calls.append(len(queries))
        return super().answer(context, queries, neighbours, usage)


@pytest.mark.parametrize("variant", ["fedicl", "fedicl_free", "fedicl_lb"])
def test_a_covariate_dimension_other_than_the_queries_is_a_config_error(
        variant):
    rng = np.random.default_rng(34)
    three_d = real_dataset(1, rng.standard_normal((4, 3)), np.ones(4))
    two_d = real_dataset(2, rng.standard_normal((4, 2)), np.ones(4))
    clients = [ClientState(2, two_d, CountingBackend(3 * np.eye(2)))]
    if variant == "fedicl_lb":  # the clients' own data is never read
        reference = three_d
    else:
        reference = None
        clients.append(ClientState(1, three_d,
                                   CountingBackend(3 * np.eye(2))))
    with pytest.raises(core.ConfigError, match="dimension 3.*of 2"):
        run(ProtocolConfig(rounds=2, variant=variant,
                           init_mode="backend_generated"), clients,
            rng.standard_normal((3, 2)), server_reference=reference,
            max_workers=1)
    assert [c.backend.calls for c in clients] == [[]] * len(clients)


@pytest.mark.parametrize("variant", ["fedicl", "fedicl_lb"])
def test_text_covariates_in_an_average_run_are_a_config_error(variant):
    # an LSA backend answers with reals, so it reads vectors only
    text = ClientDataset(1, (Example("q one", TextLabel("a one")),))
    if variant == "fedicl":
        local, reference = text, None
    else:  # fedicl_lb reads the server reference, not the clients' data
        local, reference = real_dataset(1, np.eye(2), np.ones(2)), text
    backend = CountingBackend(np.eye(2))
    with pytest.raises(core.ConfigError, match="text covariates of"):
        run(ProtocolConfig(rounds=2, variant=variant,
                           init_mode="backend_generated"),
            [ClientState(1, local, backend)], np.eye(2),
            server_reference=reference)
    assert backend.calls == []


def test_in_process_backends_answer_in_the_callers_thread(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a run of in-process backends started a pool")

    monkeypatch.setattr(protocol, "ThreadPoolExecutor", no_pool)
    rng = np.random.default_rng(35)
    clients_data, queries, g = unequal_regression(rng, d=2, sizes=(3, 4, 5),
                                                  m=4)
    clients = [ClientState(ds.client_id, ds, LsaBackend(g))
               for ds in clients_data]
    for context_count in (None, 2):
        result = run(ProtocolConfig(rounds=2, context_count=context_count),
                     clients, queries, max_workers=4)
        assert len(result.traces) == 2


def test_remote_backends_answer_from_pool_threads(monkeypatch):
    pools, threads = [], set()

    class RecordingPool(protocol.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    class RecordingBackend(RemoteBackend):
        def answer(self, *args, **kwargs):
            threads.add(threading.current_thread())
            return super().answer(*args, **kwargs)

    monkeypatch.setattr(protocol, "ThreadPoolExecutor", RecordingPool)
    with MockLlmServer(reply="a reply") as srv:
        clients = [ClientState(c.client_id, c.original,
                               RecordingBackend(srv.url))
                   for c in text_clients(srv.url, (2, 3))]
        result = run(ProtocolConfig(rounds=2, aggregation="fusion"),
                     clients, TEXT_QUERIES, max_workers=4)
        assert len(srv.requests) == 2 * (2 + 3 + 2 * len(TEXT_QUERIES))
    assert len(result.traces) == 2
    assert pools == [4]
    assert threads and threading.current_thread() not in threads


def test_text_run_reports_a_backend_failure_as_a_protocol_error():
    script = [(400, {"error": "bad request"}, {})]
    with MockLlmServer(script=script) as srv:
        with pytest.raises(ProtocolError, match="step 1 backend failure"):
            run(ProtocolConfig(rounds=2, aggregation="fusion"),
                text_clients(srv.url, (2, 3)), TEXT_QUERIES)


def test_text_step2_prompt_cites_a_relabeled_example():
    with MockLlmServer(reply="relabeled answer") as srv:
        clients = text_clients(srv.url, (6,))
        run(ProtocolConfig(rounds=1, aggregation="fusion"), clients,
            TEXT_QUERIES)
        prompts = prompts_of(srv)
    step2 = [p for p in prompts
             if any(p.endswith(f"Question: {q}\nAnswer:") for q in TEXT_QUERIES)]
    assert len(step2) == len(TEXT_QUERIES)
    assert any("Answer: relabeled answer" in p for p in step2)
    # each cites its whole pool, D^i ++ D_k^i: the local examples, then the
    # same questions with step 1's answers
    local = clients[0].original.pairs()
    pool = local + [(q, TextLabel("relabeled answer")) for q, _ in local]
    assert step2 == [render_prompt(pool, q) for q in TEXT_QUERIES]


def test_text_run_records_observed_usage_per_round_and_client():
    rounds, sizes, m = 2, (2, 3), len(TEXT_QUERIES)
    with MockLlmServer(reply="a reply") as srv:
        serial = run(ProtocolConfig(rounds=rounds, aggregation="fusion"),
                     text_clients(srv.url, sizes), TEXT_QUERIES,
                     max_workers=1)
        usages = list(srv.usages)
        threaded = run(ProtocolConfig(rounds=rounds, aggregation="fusion"),
                       text_clients(srv.url, sizes), TEXT_QUERIES)
    # serially the POSTs go round by round, client by client: N relabels
    # (step 1), then M answers (step 2)
    want, served = [], iter(usages)
    for k in range(1, rounds + 1):
        for cid, n in enumerate(sizes, 1):
            calls = [next(served) for _ in range(n + m)]
            want += [(k, "uplink", cid,
                      sum(u["prompt_tokens"] for u in calls)),
                     (k, "downlink", cid,
                      sum(u["completion_tokens"] for u in calls))]
    assert next(served, None) is None
    observed = [e for e in serial.ledger.entries
                if e.unit == "observed_tokens"]
    assert [(e.round, e.direction, e.client_id, e.payload_units)
            for e in observed] == want
    assert serial.ledger.entries == threaded.ledger.entries


def test_text_run_does_not_record_the_servers_initial_answers():
    with MockLlmServer(reply="a reply") as srv:
        result = run(ProtocolConfig(rounds=1, aggregation="fusion",
                                    init_mode="backend_generated"),
                     text_clients(srv.url, (2,)), TEXT_QUERIES)
        # C_1 comes first, from the first client's backend with no context
        rounds = srv.usages[len(TEXT_QUERIES):]
    assert len(rounds) == 2 + len(TEXT_QUERIES)
    assert result.ledger.total("observed_tokens") == sum(
        u["prompt_tokens"] + u["completion_tokens"] for u in rounds)


def test_lsa_run_records_no_observed_usage():
    rng = np.random.default_rng(3)
    clients_data, queries, g = random_regression(rng, d=2, l=2, n=4, m=3)
    result = run(ProtocolConfig(rounds=2, init_mode="backend_generated"),
                 [ClientState(c.client_id, c, LsaBackend(g))
                  for c in clients_data], queries)
    assert set(result.ledger.total()) == {"bits"}
