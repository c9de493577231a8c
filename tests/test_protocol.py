import json
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedicl import core, lsa, protocol, theory
from fedicl.backend import (GenerationParams, LmBackend, LsaBackend,
                            RemoteBackend, render_prompt)
from fedicl.core import ClientDataset, Dataset, Example, RealLabel, TextLabel
from fedicl.data import IdentityEmbedder, TableEmbedder, knn_context
from fedicl.lsa import gamma
from fedicl.protocol import (ClientState, ProtocolConfig, ProtocolError,
                             aggregate, charge_protocol_round, init_labels,
                             prepare_step, run, step1_relabel, step2_answer)

from mock_llm import MockLlmServer
from reference_engine import reference_run

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
    qs = init_labels([(1.0,), (2.0,)], "backend_generated",
                     ClientState(1, None, backend))
    # empty context: backend answers 0 for every query
    assert qs.labels == tuple(RealLabel(float(
        backend.answer(backend.prepare([((), [q], None)]), np.empty(0))[0]))
        for q in qs.covariates)
    assert qs.labels == (RealLabel(0.0),) * 2


def test_init_backend_generated_requires_backend():
    with pytest.raises(ValueError, match="needs a client"):
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

def relabel(group, c_k):
    """Step 1 of the ``group`` on the query set ``c_k``, each client's ask
    over C_k's covariates prepared as ``run`` prepares it: one label
    column per client."""
    step = prepare_step(group, [(c_k.covariates, client.original.covariates,
                                 None) for client in group], "step 1")
    got = step1_relabel(group, step, c_k)
    if not step.linear:
        return got
    # a label-linear backend gives every client's labels end to end
    return [core.RealColumn(part) for part in
            np.split(got, np.cumsum(step.query_counts)[:-1])]


def answer_queries(group, contexts, queries):
    """Step 2 of the ``group``, each client in its ``(covariates,
    labels)`` context: one label column per client."""
    step = prepare_step(group, [(covs, queries, None) for covs, _ in contexts],
                        "step 2")
    if not step.linear:
        return step2_answer(group, step, [labels for _, labels in contexts])
    # a label-linear backend reads each distinct context's labels once, in
    # one vector, and gives a (clients, M) array
    starts, size = step.contexts
    labels = np.zeros(size)
    for start, (_, ys) in zip(starts, contexts):
        labels[start:start + len(ys)] = core.real_values(ys)
    got = step2_answer(group, step, labels)
    assert got.shape == (len(group), len(queries))
    return [core.RealColumn(row) for row in got]


def test_step1_hand_value():
    # C_k = {(1, 3)}, client covariate 1: y = 1 * (1/3) * (1*3) = 1
    client = ClientState(1, real_dataset(1, [[1.0]], [99.0]),
                         LsaBackend(GAMMA_1D))
    c_k = Dataset(covariates=((1.0,),), labels=(RealLabel(3.0),))
    labels, = relabel([client], c_k)
    assert labels == (RealLabel(1.0),)


def test_step1_zero_labels_propagate():
    client = ClientState(1, real_dataset(1, [[1.0], [2.0]], [5.0, 6.0]),
                         LsaBackend(GAMMA_1D))
    c_k = Dataset(covariates=((1.0,), (4.0,)),
                  labels=(RealLabel(0.0), RealLabel(0.0)))
    labels, = relabel([client], c_k)
    assert all(lab.value == 0.0 for lab in labels)


class AskRecordingBackend(LsaBackend):
    """An LSA backend that notes each ask's (covariates, queries,
    neighbours) as it prepares it."""

    def __init__(self, gamma):
        super().__init__(gamma)
        self.asks = []

    def prepare(self, asks):
        self.asks.extend(asks)
        return super().prepare(asks)


def prepared_asks(group, config, queries):
    """The labels each client of the ``group`` keeps, and the asks of its
    step 1 (none for a variant that does not relabel) and step 2, as
    ``run`` prepares them at set-up; the group's first backend must be an
    ``AskRecordingBackend``."""
    asks = group[0].backend.asks
    asks.clear()
    kept, _, _ = protocol._prepare_group(group, config, queries, None, None)
    return kept, asks[:-len(group)], asks[-len(group):]


def step2_context(client, variant, relabeled):
    """The variant's step-2 context as ``run`` builds it, a (covariates,
    labels) pair, given step 1's relabeled labels."""
    recording = ClientState(client.client_id, client.original,
                            AskRecordingBackend(client.backend.gamma))
    (kept,), _, ((covs, _, _),) = prepared_asks(
        [recording], ProtocolConfig(variant=variant),
        client.original.covariates)
    return covs, core.join_labels([kept, relabeled])


def test_step2_hand_value():
    # D = {(1,1)}, D_k = {(1,1)}, query 1: (1/3) * (1/2) * (1 * (1+1)) = 1/3
    client = ClientState(1, real_dataset(1, [[1.0]], [1.0]),
                         LsaBackend(GAMMA_1D))
    context = step2_context(client, "fedicl", [RealLabel(1.0)])
    assert [len(column) for column in context] == [2, 2]
    answers, = answer_queries([client], [context], [(1.0,)])
    assert answers[0].value == pytest.approx(1 / 3, abs=1e-12)


def test_step2_free_uses_only_relabeled():
    client = ClientState(1, real_dataset(1, [[1.0]], [7.0]),
                         LsaBackend(GAMMA_1D))
    context = step2_context(client, "fedicl_free", [RealLabel(0.0)])
    answers, = answer_queries([client], [context], [(1.0,)])
    assert answers == (RealLabel(0.0),)


def test_fedicl_and_free_differ_when_labels_differ():
    client = ClientState(1, real_dataset(1, [[1.0]], [7.0]),
                         LsaBackend(GAMMA_1D))

    def answer(variant, relabeled):
        return answer_queries([client], [step2_context(client, variant,
                                                       relabeled)],
                              [(1.0,)])[0]

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


@pytest.mark.parametrize("variant", ["fedicl_gt", "fedicl_free"])
def test_clients_that_share_covariates_but_not_labels_answer_each_alone(
        variant):
    # with_labels shares the covariates: one object is two clients'
    # contexts, which a label-linear step would read as one
    rng = np.random.default_rng(24)
    (first, *_), queries, g = random_regression(rng, d=2, l=1, n=4, m=3)
    second = first.with_labels(core.RealColumn(rng.standard_normal(4)))
    assert second.covariates is first.covariates
    config = ProtocolConfig(rounds=2, variant=variant)
    grouped, solo = (run(config, [ClientState(cid, ds, backend(g)) for cid, ds
                                  in ((1, first), (2, second))], queries)
                     for backend in (LsaBackend, SoloLsaBackend))
    for a, b in zip(grouped.traces, solo.traces):
        for cid in (1, 2):
            np.testing.assert_allclose(
                a.per_client_answers[cid].values,
                b.per_client_answers[cid].values, rtol=0, atol=1e-12)
    if variant == "fedicl_gt":   # the clients keep labels of their own
        assert not np.allclose(grouped.traces[0].per_client_answers[1].values,
                               grouped.traces[0].per_client_answers[2].values)


def test_clients_share_a_label_range_only_when_they_keep_one_labels():
    # a label-linear step reads one range of labels per pool object:
    # clients that keep one dataset read one range, and a client whose
    # kept labels are others' reads its own, under any variant
    rng = np.random.default_rng(25)
    (first, *_), queries, g = random_regression(rng, d=2, l=1, n=4, m=3)
    other = first.with_labels(core.RealColumn(rng.standard_normal(4)))
    group = [ClientState(cid, ds, LsaBackend(g))
             for cid, ds in ((1, first), (2, first), (3, other))]
    _, _, step2 = protocol._prepare_group(
        group, ProtocolConfig(variant="fedicl_gt"), queries, None, None)
    starts, size = step2.contexts
    assert starts[0] == starts[1] != starts[2] and size == 8


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


def test_ub_variant_names_the_merged_client_by_the_first_clients_id(
        tmp_path):
    rng = np.random.default_rng(26)
    clients_data, queries, g = random_regression(rng, d=2, l=2, n=2, m=3)
    data = [real_dataset(cid, ds.covariates, core.real_values(ds.labels))
            for cid, ds in zip((7, 8), clients_data)]

    class FailingBackend(LsaBackend):
        def answer(self, step, labels, usages=None):
            raise RuntimeError("boom")

    with pytest.raises(ProtocolError, match="step 1 backend failure: boom"
                       ) as exc:
        run(ProtocolConfig(rounds=2, variant="fedicl_ub"),
            [ClientState(ds.client_id, ds, FailingBackend(g)) for ds in data],
            queries)
    assert exc.value.client_id == 7
    backend = LsaBackend(g)
    result = run(ProtocolConfig(rounds=2, variant="fedicl_ub"),
                 [ClientState(ds.client_id, ds, backend) for ds in data],
                 queries, trace_path=tmp_path / "traces.jsonl")
    assert [list(t.per_client_answers) for t in result.traces] == [[7], [7]]
    for line in (tmp_path / "traces.jsonl").read_text().splitlines():
        assert list(json.loads(line)["per_client_answers"]) == ["7"]


def test_lb_variant_uses_server_reference_only():
    rng = np.random.default_rng(25)
    g = gamma(np.eye(1), 5)
    reference = real_dataset(0, [[1.0]], [3.0])
    # client holds no data at all
    clients = [ClientState(1, None, LsaBackend(g))]
    result = run(ProtocolConfig(rounds=2, variant="fedicl_lb"),
                 clients, [(1.0,)], server_reference=reference)
    backend = LsaBackend(g)
    expected = backend.answer(
        backend.prepare([(reference.covariates, [(1.0,)], None)]),
        core.real_values(reference.labels))[0]
    assert result.final.labels == (RealLabel(float(expected)),)


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
        client = ClientState(local.client_id, local, AskRecordingBackend(
            np.eye(local.dim)))
        for c in range(1, 4 * len(local)):  # odd and even, below and >= N
            config = ProtocolConfig(rounds=1, variant=variant,
                                    context_count=c)
            (kept,), _, ((pool, _, got),) = prepared_asks([client], config,
                                                          queries)
            assert len(pool) == 2 * len(local) and len(kept) == len(local)
            if c >= len(pool):
                assert got is None
                continue
            (want, _), = knn_context([pool], queries, c, IdentityEmbedder())
            np.testing.assert_array_equal(got, want, err_msg=f"c={c}")


@pytest.mark.parametrize("sizes", [(5, 5, 5), (3, 5, 8)],
                         ids=["equal N_i", "unequal N_i"])
@pytest.mark.parametrize("variant", ["fedicl", "fedicl_ub"])
def test_every_knn_ask_is_a_stable_argsort_of_its_own_pool(variant, sizes):
    # points on a grid of small integers, whose distances tie everywhere,
    # and in the doubled pool D^i ++ D_k^i between every j and N + j
    rng = np.random.default_rng(35)
    queries = rng.integers(-2, 3, size=(6, 2)).astype(float)
    data = [real_dataset(cid, rng.integers(-2, 3, size=(n, 2)).astype(float),
                         np.zeros(n)) for cid, n in enumerate(sizes, 1)]
    doubled = ([2 * n for n in sizes] if variant == "fedicl"
               else [2 * sum(sizes)])
    for c in (1, 2, 3, 5, 8, 13, 40):   # below N, between N and 2N, above
        backend = AskRecordingBackend(np.eye(2))
        run(ProtocolConfig(rounds=1, variant=variant, context_count=c),
            [ClientState(ds.client_id, ds, backend) for ds in data], queries)
        # one step 1 prepared, then one step 2, of one ask per client
        step2 = backend.asks[len(backend.asks) // 2:]
        assert [len(covs) for covs, _, _ in step2] == doubled
        for covs, asked, got in backend.asks:
            if c >= len(covs):
                assert got is None
                continue
            want = [np.argsort(np.linalg.norm(covs - q, axis=1),
                               kind="stable")[:c] for q in asked]
            np.testing.assert_array_equal(got, want, err_msg=f"c={c}")


class TextAskRecordingBackend(LmBackend):
    """An in-process text backend that notes each ask's (covariates,
    queries, neighbours) as it prepares it and answers every query with
    its own text."""

    max_tokens = 8

    def __init__(self):
        self.asks = []

    def prepare(self, asks):
        self.asks.extend(asks)
        return super().prepare(asks)

    def answer(self, step, labels, usages=None):
        return [tuple(TextLabel(q) for q in queries) for _, queries, _
                in step]


@pytest.mark.parametrize("variant",
                         ["fedicl", "fedicl_free", "fedicl_gt", "fedicl_ub"])
def test_every_text_knn_ask_is_a_stable_argsort_of_its_embedded_pool(
        variant):
    # text covariates embedded on a grid of small integers, where many
    # distances tie; clients 1 and 2 share a backend, client 3 has its own
    rng = np.random.default_rng(37)
    names = [f"client {cid} question {j}" for cid in (1, 2, 3)
             for j in range(5)] + [f"server query {j}" for j in range(5)]
    table = TableEmbedder({name: rng.integers(-1, 2, size=2).astype(float)
                           for name in names})
    shared, solo = TextAskRecordingBackend(), TextAskRecordingBackend()
    clients = [ClientState(cid, ClientDataset(cid, tuple(
        Example(f"client {cid} question {j}", TextLabel(f"a{j}"))
        for j in range(5))), shared if cid < 3 else solo)
        for cid in (1, 2, 3)]
    queries = [f"server query {j}" for j in range(5)]
    run(ProtocolConfig(rounds=2, variant=variant, aggregation="fusion",
                       context_count=3), clients, queries, embedder=table)
    asks = shared.asks + solo.asks
    assert any(nb is not None for _, _, nb in asks)
    for covs, asked, got in asks:
        if len(covs) <= 3:
            assert got is None
            continue
        pool = table.embed_many(covs)
        want = [np.argsort(np.linalg.norm(pool - table.embed(q), axis=1),
                           kind="stable")[:3] for q in asked]
        np.testing.assert_array_equal(got, want)


class CountingBackend(LsaBackend):
    """An LSA backend that notes each ``prepare`` and ``answer`` call: a
    (query count, whether it has neighbours) pair per ask."""

    def __init__(self, gamma):
        super().__init__(gamma)
        self.prepared, self.calls = [], []

    def prepare(self, asks):
        shape = [(len(queries), neighbours is not None)
                 for _, queries, neighbours in asks]
        self.prepared.append(shape)
        return shape, super().prepare(asks)

    def answer(self, step, labels, usages=None):
        shape, prepared = step
        self.calls.append(shape)
        return super().answer(prepared, labels, usages)


def test_knn_run_makes_one_backend_call_per_client_step_round():
    rng = np.random.default_rng(33)
    clients_data, queries, g = unequal_regression(rng, d=2, sizes=(4, 6, 9),
                                                  m=5)

    clients = [ClientState(ds.client_id, ds, CountingBackend(g))
               for ds in clients_data]
    run(ProtocolConfig(rounds=4, context_count=3), clients, queries,
        max_workers=1)
    # the backends are equal, so per round one call to the first client's
    # answers step 1 for every client (an ask over its covariates) and one
    # answers step 2 (an ask over the queries each), every ask with its
    # neighbour indices
    per_round = [[(len(ds), True) for ds in clients_data], [(5, True)] * 3]
    assert [c.backend.calls for c in clients] == [per_round * 4, [], []]


@pytest.mark.parametrize("context_count", [None, 3], ids=["full", "knn"])
def test_a_run_prepares_each_group_step_once_and_answers_it_every_round(
        context_count):
    rng = np.random.default_rng(64)
    clients_data, queries, _ = unequal_regression(rng, d=2, sizes=(4, 6, 9),
                                                  m=5)
    ga, gb = gamma(np.eye(2), 5), gamma(np.diag([1.0, 3.0]), 4)
    # two groups: clients 1 and 3 on equal backends, client 2 alone
    backends = [CountingBackend(g) for g in (ga, gb, ga)]
    run(ProtocolConfig(rounds=3, context_count=context_count),
        [ClientState(ds.client_id, ds, backend)
         for ds, backend in zip(clients_data, backends)], queries)
    knn = context_count is not None
    step1 = [[(len(clients_data[i]), knn) for i in at] for at in ([0, 2], [1])]
    step2 = [[(5, knn)] * len(at) for at in ([0, 2], [1])]
    # set-up prepares step 1 and then step 2, once per group; each of the
    # three rounds answers both, in that order
    for backend, one, two in zip(backends[:2], step1, step2):
        assert backend.prepared == [one, two]
        assert backend.calls == [one, two] * 3
    assert backends[2].prepared == backends[2].calls == []


class SoloLsaBackend(LsaBackend):
    """An LSA backend equal only to itself: its client is a group of one,
    answered through one-ask batches."""

    __eq__ = object.__eq__
    __hash__ = object.__hash__


class AskCountingBackend(LsaBackend):
    """An LSA backend that notes the ask count of each ``answer`` call."""

    def __init__(self, gamma, calls):
        super().__init__(gamma)
        self.calls = calls

    def answer(self, step, labels, usages=None):
        self.calls.append((self, len(step.lengths)))
        return super().answer(step, labels, usages)


class AskLsaBackend(LmBackend):
    """The LSA closed form behind the ask-based ``answer`` of a backend
    that is not label-linear: one label column per ask, with the answers
    of its own one-ask step."""

    def __init__(self, gamma):
        self.gamma = gamma

    def prepare(self, asks):
        return [lsa.ClosedFormStep([ask], self.gamma) for ask in asks]

    def answer(self, step, labels, usages=None):
        return [core.RealColumn(lsa.predict_closed_form(
            one, core.real_values(ys))) for one, ys in zip(step, labels)]


def test_lsa_backends_are_equal_when_their_gammas_are():
    g = gamma(np.eye(2), 5)
    assert LsaBackend(g) == LsaBackend(g.copy())
    assert hash(LsaBackend(g)) == hash(LsaBackend(g.copy()))
    assert LsaBackend(g) != LsaBackend(2 * g)
    # a subclass may answer otherwise, so it is not grouped with the base
    assert LsaBackend(g) != AskCountingBackend(g, [])
    assert AskCountingBackend(g, []) == AskCountingBackend(g.copy(), [])
    zero = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert LsaBackend(zero) == LsaBackend(np.array([[1.0, -0.0], [-0.0, 1.0]]))
    assert hash(LsaBackend(zero)) == hash(
        LsaBackend(np.array([[1.0, -0.0], [-0.0, 1.0]])))
    with MockLlmServer() as srv:
        remote = RemoteBackend(srv.url)
        assert remote == remote and remote != RemoteBackend(srv.url)
        assert LsaBackend(g) != remote


def grouped_and_solo_runs(variant, context_count, sizes):
    """One run whose clients hold equal LSA backends (one group), and the
    same run with every client alone on its own backend."""
    rng = np.random.default_rng(60 + sum(sizes))
    clients_data, queries, g = unequal_regression(rng, d=2, sizes=sizes,
                                                  m=4)
    reference = None
    if variant == "fedicl_lb":
        reference = real_dataset(0, rng.standard_normal((6, 2)),
                                 rng.standard_normal(6))
        clients_data = [None] * len(sizes)
    config = ProtocolConfig(rounds=3, variant=variant,
                            context_count=context_count)

    def go(backend_type):
        clients = [ClientState(cid, ds, backend_type(g))
                   for cid, ds in enumerate(clients_data, 1)]
        return run(config, clients, queries, server_reference=reference)

    return go(LsaBackend), go(SoloLsaBackend)


@pytest.mark.parametrize("sizes", [(5, 5, 5), (3, 5, 8)],
                         ids=["equal", "unequal"])
@pytest.mark.parametrize("context_count", [None, 2], ids=["full", "knn"])
@pytest.mark.parametrize("variant", protocol.VARIANTS)
def test_grouped_answers_equal_each_client_answered_alone(variant,
                                                          context_count,
                                                          sizes):
    grouped, solo = grouped_and_solo_runs(variant, context_count, sizes)
    assert len(grouped.traces) == len(solo.traces)
    for a, b in zip(grouped.traces, solo.traces):
        assert list(a.per_client_answers) == list(b.per_client_answers)
        for cid, answers in a.per_client_answers.items():
            got = core.real_values(answers)
            want = core.real_values(b.per_client_answers[cid])
            if context_count is None:
                # one solve of several right-hand sides may round each
                # otherwise than a solve of one
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            else:  # each neighbourhood's moment and answer is its own
                np.testing.assert_array_equal(got, want)
    assert grouped.ledger.entries == solo.ledger.entries


@pytest.mark.parametrize("context_count", [None, 2], ids=["full", "knn"])
def test_a_run_that_mixes_label_linear_and_ask_based_groups(context_count):
    # client 2 answers through the ask-based answer: its group's answers
    # are label columns, the others' one array
    rng = np.random.default_rng(72)
    clients_data, queries, g = unequal_regression(rng, d=2, sizes=(3, 4, 5),
                                                  m=4)
    config = ProtocolConfig(rounds=3, context_count=context_count)
    mixed = run(config, [ClientState(ds.client_id, ds, backend) for ds,
                         backend in zip(clients_data, [
                             LsaBackend(g), AskLsaBackend(g), LsaBackend(g)])],
                queries)
    alone = run(config, [ClientState(ds.client_id, ds, LsaBackend(g))
                         for ds in clients_data], queries)
    for a, b in zip(mixed.traces, alone.traces):
        assert list(a.per_client_answers) == [1, 2, 3]
        for cid, column in a.per_client_answers.items():
            assert isinstance(column, core.RealColumn)
            np.testing.assert_allclose(
                column.values, b.per_client_answers[cid].values, rtol=0,
                atol=1e-12)
    assert mixed.ledger.entries == alone.ledger.entries


def test_clients_with_different_gammas_get_their_own_answers():
    rng = np.random.default_rng(61)
    clients_data, queries, _ = unequal_regression(rng, d=2, sizes=(3, 4, 5),
                                                  m=4)
    ga, gb = gamma(np.eye(2), 5), gamma(np.diag([1.0, 3.0]), 4)
    calls = []

    def go(backends):
        clients = [ClientState(ds.client_id, ds, backend)
                   for ds, backend in zip(clients_data, backends)]
        return run(ProtocolConfig(rounds=3), clients, queries)

    backends = [AskCountingBackend(g, calls) for g in (ga, gb, ga)]
    grouped = go(backends)
    solo = go([SoloLsaBackend(g) for g in (ga, gb, ga)])
    # per step and round: one call to client 1's backend for the two Γa
    # clients, one to client 2's for Γb
    first, second = map(id, backends[:2])
    assert [(id(backend), n) for backend, n in calls] == [
        (first, 2), (first, 2), (second, 1), (second, 1)] * 3
    for a, b in zip(grouped.traces, solo.traces):
        assert list(a.per_client_answers) == [1, 2, 3]
        for cid in (1, 2, 3):
            np.testing.assert_allclose(
                core.real_values(a.per_client_answers[cid]),
                core.real_values(b.per_client_answers[cid]),
                rtol=0, atol=1e-12)
    # client 2 is not answered with Γa
    all_a = go([SoloLsaBackend(ga)] * 3).traces[0].per_client_answers
    assert not np.allclose(
        core.real_values(grouped.traces[0].per_client_answers[2]),
        core.real_values(all_a[2]))
    assert [(e.round, e.direction, e.client_id)
            for e in grouped.ledger.entries] == [
        (k, direction, cid) for k in (1, 2, 3) for cid in (1, 2, 3)
        for direction in ("downlink", "uplink")]


def test_a_missing_answer_column_names_the_first_client_of_the_group():
    class ColumnShortBackend(AskLsaBackend):
        def answer(self, step, labels, usages=None):
            return super().answer(step, labels, usages)[:-1]

    backend = ColumnShortBackend(GAMMA_1D)
    clients = [ClientState(cid, real_dataset(cid, [[1.0], [2.0]],
                                             [1.0, 2.0]), backend)
               for cid in (3, 4)]
    with pytest.raises(ProtocolError,
                       match="step 1: 1 answer columns to 2 clients") as exc:
        run(ProtocolConfig(rounds=1), clients, [(1.0,)])
    assert exc.value.client_id == 3


def test_a_wrong_answer_count_of_a_label_linear_backend_names_the_group():
    class ShortLinearBackend(LsaBackend):
        def answer(self, step, labels, usages=None):
            return super().answer(step, labels, usages)[:-1]

    backend = ShortLinearBackend(GAMMA_1D)
    clients = [ClientState(cid, real_dataset(cid, [[1.0], [2.0]],
                                             [1.0, 2.0]), backend)
               for cid in (3, 4)]
    # one answer vector for the group: its first client is named
    with pytest.raises(ProtocolError, match=r"step 1: answers of shape "
                       r"\(3,\) to 4 queries") as exc:
        run(ProtocolConfig(rounds=1), clients, [(1.0,)])
    assert exc.value.client_id == 3


@pytest.mark.parametrize("context_count", [None, 2], ids=["full", "knn"])
@pytest.mark.parametrize("groups", ["one group", "two groups", "mixed"])
def test_a_label_linear_runs_answers_are_read_only_and_share_no_memory(
        context_count, groups):
    # a label-linear group's answers are one array, and a round's one more,
    # whose rows are the clients' columns: no column, aggregate or array
    # they view may be written, and no two of them, of one round or of
    # two, overlap; "mixed" adds a group that answers with label columns
    rng = np.random.default_rng(71)
    clients_data, queries, g = unequal_regression(rng, d=2, sizes=(3, 4, 5),
                                                  m=4)
    backends = {"one group": [LsaBackend(g)] * 3,
                "two groups": [LsaBackend(g), LsaBackend(2 * g),
                               LsaBackend(g)],
                "mixed": [LsaBackend(g), AskLsaBackend(g), LsaBackend(g)]}
    result = run(ProtocolConfig(rounds=3, context_count=context_count),
                 [ClientState(ds.client_id, ds, backend) for ds, backend
                  in zip(clients_data, backends[groups])], queries)
    arrays = [column.values for trace in result.traces for column in
              [*trace.per_client_answers.values(), trace.aggregated.labels]]
    assert len(arrays) == 3 * 4
    for values in arrays:
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 1.0
        view = values
        while view is not None:
            assert not view.flags.writeable
            view = view.base
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)


def test_a_step_the_backend_cannot_prepare_fails_at_set_up(tmp_path):
    class UnpreparedBackend(LsaBackend):
        def prepare(self, asks):
            raise RuntimeError("no step")

    backend = UnpreparedBackend(GAMMA_1D)
    clients = [ClientState(cid, real_dataset(cid, [[1.0], [2.0]],
                                             [1.0, 2.0]), backend)
               for cid in (3, 4)]
    with pytest.raises(ProtocolError,
                       match="step 1 backend failure: no step") as exc:
        run(ProtocolConfig(rounds=2), clients, [(1.0,)],
            trace_path=tmp_path / "traces.jsonl")
    assert exc.value.client_id == 3
    # set-up comes before any round: no trace file is written
    assert not (tmp_path / "traces.jsonl").exists()


def test_a_wrong_answer_count_names_the_client_of_that_ask():
    class LastAskShortBackend(AskLsaBackend):
        def answer(self, step, labels, usages=None):
            columns = super().answer(step, labels, usages)
            return columns[:-1] + [columns[-1][:-1]]

    backend = LastAskShortBackend(GAMMA_1D)
    clients = [ClientState(cid, real_dataset(cid, [[1.0], [2.0]],
                                             [1.0, 2.0]), backend)
               for cid in (1, 2)]
    with pytest.raises(ProtocolError, match="step 1: 1 answers to 2") as exc:
        relabel(clients, qset([RealLabel(3.0)]))
    assert exc.value.client_id == 2
    with pytest.raises(ProtocolError, match="step 1: 1 answers to 2") as exc:
        run(ProtocolConfig(rounds=1), clients, [(1.0,)])
    assert exc.value.client_id == 2


@pytest.mark.parametrize("c", [1, 2, 3, 5])
def test_one_step1_search_of_the_stacked_covariates_equals_each_clients(c):
    rng = np.random.default_rng(62)
    # random points, and a grid of small integers whose distances tie
    # everywhere, in clients of unequal sizes
    grid = rng.integers(-2, 3, size=(12, 2)).astype(float)
    cases = [(rng.standard_normal((20, 2)), rng.standard_normal((7, 2))),
             (grid, rng.integers(-2, 3, size=(9, 2)).astype(float))]
    for covs, queries in cases:
        backend = AskRecordingBackend(np.eye(2))
        group = [ClientState(cid, real_dataset(cid, part, np.zeros(len(part))),
                             backend)
                 for cid, part in enumerate(np.split(covs, [1, 5, 9]), 1)]
        _, step1, _ = prepared_asks(
            group, ProtocolConfig(rounds=1, context_count=c), queries)
        assert len(step1) == len(group)
        for client, (_, _, got) in zip(group, step1):
            (want, _), = knn_context([queries], client.original.covariates,
                                     c, IdentityEmbedder())
            np.testing.assert_array_equal(got, want)


def test_a_run_searches_each_distinct_step2_pool_once(monkeypatch):
    calls = []

    def spy(pools, queries, c, embedder):
        calls.append([len(pool) for pool in pools])
        return knn_context(pools, queries, c, embedder)

    monkeypatch.setattr(protocol, "knn_context", spy)
    rng = np.random.default_rng(63)
    clients_data, queries, g = unequal_regression(rng, d=2, sizes=(4, 6, 9),
                                                  m=8)
    reference = real_dataset(0, rng.standard_normal((20, 2)),
                             rng.standard_normal(20))
    # fedicl: one step-1 search of the queries, one step-2 search of the
    # three clients' covariates stacked
    run(ProtocolConfig(rounds=2, context_count=3),
        [ClientState(ds.client_id, ds, LsaBackend(g)) for ds in clients_data],
        queries)
    assert calls == [[8], [4, 6, 9]]
    # fedicl_lb: its five clients share the reference, searched once
    calls.clear()
    result = run(ProtocolConfig(rounds=1, variant="fedicl_lb",
                                context_count=3),
                 [ClientState(cid, None, LsaBackend(g)) for cid in range(1, 6)],
                 queries, server_reference=reference)
    assert calls == [[20]]
    x, y = np.asarray(reference.covariates), core.real_values(reference.labels)
    want = []
    for q in np.asarray(queries):
        nearest = np.argsort(np.linalg.norm(x - q, axis=1), kind="stable")[:3]
        want.append(q @ np.linalg.solve(g, x[nearest].T @ y[nearest] / 3))
    for answers in result.traces[0].per_client_answers.values():
        np.testing.assert_allclose(core.real_values(answers), want, rtol=0,
                                   atol=1e-12)


class IoLsaBackend(LsaBackend):
    """An LSA backend that claims to wait on I/O, so that a run answers
    its groups, clients whose gammas are equal, in a pool of threads."""

    waits_on_io = True


@settings(max_examples=250, deadline=None, derandomize=True)
@given(variant=st.sampled_from(protocol.VARIANTS),
       sizes=st.lists(st.integers(1, 5), min_size=1, max_size=4),
       m=st.integers(1, 6), d=st.integers(1, 3), tied=st.booleans(),
       context_count=st.sampled_from([None, *range(1, 13)]),
       init_mode=st.sampled_from(protocol.INIT_MODES),
       rounds=st.integers(1, 3), max_workers=st.sampled_from([1, None]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_run_matches_the_reference_engine(variant, sizes, m, d, tied,
                                          context_count, init_mode, rounds,
                                          max_workers, seed):
    # c runs below, at and above every pool's size: the m queries of step
    # 1, and step 2's N_i, 2 N_i (D^i ++ D_k^i) or the reference's size
    rng = np.random.default_rng(seed)

    def covariates(n):  # small integers, whose distances tie everywhere
        return (rng.integers(-2, 3, size=(n, d)).astype(float) if tied
                else rng.standard_normal((n, d)))

    # each client on one of two gammas: one or two groups
    gammas = [gamma(np.diag(rng.uniform(0.5, 2.0, d)), t) for t in (3, 8)]
    data = [(cid, covariates(n), rng.standard_normal(n),
             gammas[rng.integers(2)]) for cid, n in enumerate(sizes, 1)]
    queries = covariates(m)
    reference = covariates(int(rng.integers(1, 7)))
    reference = (reference, rng.standard_normal(len(reference)))
    result = run(ProtocolConfig(rounds=rounds, variant=variant,
                                context_count=context_count,
                                init_mode=init_mode, seed=seed),
                 [ClientState(cid, real_dataset(cid, xs, ys), IoLsaBackend(g))
                  for cid, xs, ys, g in data], queries,
                 server_reference=real_dataset(0, *reference),
                 max_workers=max_workers)
    want = reference_run(variant, data, queries, rounds, context_count,
                         init_mode, seed, reference)
    assert len(result.traces) == len(want)
    for trace, (answers, labels) in zip(result.traces, want):
        tol = 1e-12 * max(np.abs(col).max() for col in [labels,
                                                        *answers.values()])
        assert list(trace.per_client_answers) == list(answers)
        for cid, column in answers.items():
            np.testing.assert_allclose(core.real_values(
                trace.per_client_answers[cid]), column, rtol=0, atol=tol)
        np.testing.assert_allclose(core.real_values(trace.aggregated.labels),
                                   labels, rtol=0, atol=tol)


class PooledLsaBackend(SoloLsaBackend):
    """An LSA backend equal only to itself that claims to wait on I/O, so
    a run of several clients answers its groups in the pool."""

    waits_on_io = True


class RecordingPool(protocol.ThreadPoolExecutor):
    """A thread pool that notes in ``started`` the ``max_workers`` of each
    one started."""

    started: list = []

    def __init__(self, max_workers):
        self.started.append(max_workers)
        super().__init__(max_workers=max_workers)


def test_serial_and_pooled_runs_trace_identically(monkeypatch):
    monkeypatch.setattr(RecordingPool, "started", [])
    monkeypatch.setattr(protocol, "ThreadPoolExecutor", RecordingPool)
    rng = np.random.default_rng(32)
    clients_data, queries, g = unequal_regression(rng, d=3, sizes=(4, 5, 6),
                                                  m=4)

    def go(max_workers, context_count):
        clients = [ClientState(ds.client_id, ds, PooledLsaBackend(g))
                   for ds in clients_data]
        return run(ProtocolConfig(rounds=4, context_count=context_count),
                   clients, queries, max_workers=max_workers).traces

    for context_count in (None, 2):
        serial = go(1, context_count)
        assert RecordingPool.started == []
        # three groups of one client: the pooled run starts one pool of
        # one thread per group
        assert serial == go(None, context_count)
        assert RecordingPool.started == [3]
        RecordingPool.started.clear()


def test_backend_answer_count_mismatch_is_a_protocol_error():
    class ShortBackend(AskLsaBackend):
        def answer(self, step, labels, usages=None):
            return [col[:-1] for col in super().answer(step, labels, usages)]

    client = ClientState(1, real_dataset(1, [[1.0], [2.0]], [1.0, 2.0]),
                         ShortBackend(GAMMA_1D))
    c_k = qset([RealLabel(3.0)])
    with pytest.raises(ProtocolError, match="step 1: 1 answers to 2"):
        relabel([client], c_k)


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
    calls = []

    class RecordingBackend(LsaBackend):
        """Notes each call's asks, each with the labels it was given."""

        def prepare(self, asks):
            return list(asks), super().prepare(asks)

        def answer(self, step, labels, usages=None):
            # one label vector: each distinct context's labels once
            asks, prepared = step
            starts, _ = core.context_starts([covs for covs, _, _ in asks])
            calls.append([(covs, core.RealColumn(labels[s:s + len(covs)]),
                           queries, nb)
                          for (covs, queries, nb), s in zip(asks, starts)])
            return super().answer(prepared, labels, usages)

    clients = [ClientState(ds.client_id, ds, RecordingBackend(g))
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
    # the clients form one group, which asks step 1 and then step 2 a round
    assert len(calls) == 2 * len(result.traces)
    for c_k, step1, trace in zip(downlink, calls[::2], result.traces):
        assert np.array_equal(c_k.covariates, queries)
        # every client's step-1 ask has exactly C_k as its context
        assert len(step1) == len(clients)
        for covs, labels, _, _ in step1:
            assert np.array_equal(covs, c_k.covariates)
            assert labels == c_k.labels
        # uplink payload is exactly {(x_m, y^i_{k+1,m})}, from every client
        assert sorted(trace.per_client_answers) == [1, 2, 3]
        uplink = [tuple(zip(queries, answers))
                  for answers in trace.per_client_answers.values()]
        sent = [tuple(zip(*step1[0][:2]))] + uplink
        assert all(len(pairs) == len(queries) for pairs in sent)
        for pairs in sent:
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
    assert ProtocolConfig().rounds == 6
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
    stacks = []

    def counting_stack(columns):
        stacks[-1] += 1
        return core.stack_covariates(columns)

    monkeypatch.setattr(protocol, "stack_covariates", counting_stack)
    monkeypatch.setattr("fedicl.data.stack_covariates", counting_stack)
    for rounds in (1, 3):
        stacks.append(0)
        result = run(ProtocolConfig(rounds=rounds,
                                    context_count=context_count),
                     clients, queries, trace_path=tmp_path / "traces.jsonl")
        assert len(result.traces) == rounds
    assert built == Counter()
    # step 2's pools are stacked once per run, in one call for the group,
    # step 1's kNN search stacks the group's covariates, and each step's
    # search stacks its pools once, in no round
    assert stacks == [1 + 3 * (context_count is not None)] * 2
    Example((1.0,), RealLabel(0.0))  # the counters do count
    lsa.predict_closed_form(
        lsa.ClosedFormStep([(np.eye(2), np.eye(2), None)], g), np.ones(2))
    assert built == Counter({"Example": 1, "as_covariate": 1, "RealLabel": 1,
                             "_check_spd": 1})


def test_a_round_is_charged_as_record_would_charge_it_or_not_at_all():
    ledger = core.CommLedger()
    charge_protocol_round(ledger, 1, [(1, 4, 2), (2, 4, 2)], 3, "bits",
                          [{}, {"prompt_tokens": 5}])
    want = core.CommLedger()
    want.record([(1, "downlink", 1, 18, "bits"), (1, "uplink", 1, 6, "bits"),
                 (1, "downlink", 2, 18, "bits"), (1, "uplink", 2, 6, "bits"),
                 (1, "uplink", 2, 5, "observed_tokens")])
    assert ledger.entries == want.entries
    assert {type(e) for e in ledger.entries} == {core.LedgerEntry}
    # a negative payload or an unknown unit charges no row of the round
    for payloads, unit in (([(1, 4, 2), (2, 4, -1)], "bits"),
                           ([(1, -7, 2)], "bits"), ([(1, 4, 2)], "bytes")):
        with pytest.raises(ValueError, match="negative|unit"):
            charge_protocol_round(ledger, 1, payloads, 3, unit,
                                  [{}] * len(payloads))
        assert ledger.entries == want.entries


def test_a_round_with_a_bad_observed_row_charges_no_row():
    # the nominal rows come first and are good; the observed row is not
    ledger = core.CommLedger()
    with pytest.raises(ValueError, match="negative payload: -1"):
        charge_protocol_round(ledger, 1, [(1, 4, 2)], 3, "bits",
                              [{"prompt_tokens": -1}])
    assert ledger.entries == []


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
    ledger = result.ledger
    assert {e.unit: ledger.total(e.unit) for e in ledger.entries} == {
        "tokens": len(sizes) * m * cap * (2 * rounds + 1),
        "observed_tokens": observed}
    # round 1's step-1 prompts cite C_1: the queries with empty answers
    first = [p for p in prompts if "Question: What causes tides?\nAnswer: \n"
             in p]
    assert len(first) == sum(sizes)
    assert not any("Answer: 0.0" in p for p in prompts)


@pytest.mark.parametrize("caps", [(4,), (4, 8), (4, 4, 8, 4)],
                         ids=["one", "two", "mixed"])
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


@pytest.mark.parametrize("count", [-5, 1.5, True, "12"],
                         ids=["negative", "float", "bool", "str"])
def test_a_bad_reported_token_count_fails_the_run_naming_the_client(count):
    # client 1 answers its 2 + 3 prompts; client 2's first reply is bad
    bad = {"choices": [{"message": {"content": "a reply"}}],
           "usage": {"prompt_tokens": count, "completion_tokens": 2}}
    with MockLlmServer(script=[(200, None, {})] * 5 + [(200, bad, {})]
                       ) as srv:
        with pytest.raises(ProtocolError, match="malformed response body: "
                           "token counts") as err:
            run(ProtocolConfig(rounds=2, aggregation="fusion"),
                text_clients(srv.url, (2, 4)), TEXT_QUERIES, max_workers=1)
        assert len(srv.requests) == 6
    assert err.value.client_id == 2


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
        # a repeated id would drop out of the aggregate, yet be charged
        "repeated-client-id": (
            ProtocolConfig(rounds=2, aggregation="fusion"),
            text + [ClientState(2, text[0].original, RemoteBackend(url))]),
    }


@pytest.mark.parametrize("case", ["remote-average", "lb-without-reference",
                                  "text-knn-without-embedder",
                                  "client-without-data",
                                  "repeated-client-id"])
def test_a_run_the_engine_cannot_make_fails_before_any_request(case):
    with MockLlmServer() as srv:
        config, clients = unmakeable_runs(srv.url)[case]
        with pytest.raises(core.ConfigError):
            run(config, clients, TEXT_QUERIES)
        assert srv.requests == []


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


@pytest.mark.parametrize("variant", protocol.VARIANTS)
def test_text_labels_in_an_average_run_are_a_config_error(variant, tmp_path):
    # an LSA backend reads real labels, where the variant reads labels:
    # the clients' own, or the server reference of fedicl_lb
    text = ClientDataset(1, (Example((1.0, 0.0), TextLabel("a one")),))
    local, reference = text, text
    if variant == "fedicl_lb":
        local = real_dataset(1, np.eye(2), np.ones(2))
    backend = CountingBackend(np.eye(2))

    def go():
        return run(ProtocolConfig(rounds=2, variant=variant,
                                  init_mode="backend_generated"),
                   [ClientState(1, local, backend)], np.eye(2),
                   server_reference=reference,
                   trace_path=tmp_path / "traces.jsonl")

    if variant == "fedicl_free":  # reads no labels but step 1's answers
        assert len(go().traces) == 2
        return
    with pytest.raises(core.ConfigError, match="not the text labels of"):
        go()
    assert backend.prepared == backend.calls == []
    assert not (tmp_path / "traces.jsonl").exists()


@pytest.mark.parametrize("max_workers,error", [
    (0, ValueError), (-3, ValueError), (2.5, TypeError), ("x", TypeError),
    (True, TypeError)])
def test_max_workers_is_checked_before_any_backend_call(max_workers, error):
    lsa_backend = CountingBackend(np.eye(2))
    with pytest.raises(error, match="max_workers"):
        run(ProtocolConfig(rounds=2, init_mode="backend_generated"),
            [ClientState(1, real_dataset(1, np.eye(2), np.ones(2)),
                         lsa_backend)], np.eye(2), max_workers=max_workers)
    assert lsa_backend.prepared == lsa_backend.calls == []
    # a backend_generated C_1 is the first POST a remote run makes
    with MockLlmServer() as srv:
        with pytest.raises(error, match="max_workers"):
            run(ProtocolConfig(rounds=2, aggregation="fusion",
                               init_mode="backend_generated"),
                text_clients(srv.url, (2, 3)), TEXT_QUERIES,
                max_workers=max_workers)
        assert srv.requests == []


def test_the_counting_backend_records_the_calls_of_an_accepted_run():
    # the two runs above are rejected before any call; this one is not,
    # so their empty ``calls`` can only mean that no call was made
    rng = np.random.default_rng(34)
    backend = CountingBackend(3 * np.eye(2))
    run(ProtocolConfig(rounds=2, init_mode="backend_generated"),
        [ClientState(1, real_dataset(1, rng.standard_normal((4, 2)),
                                     np.ones(4)), backend)],
        rng.standard_normal((3, 2)))
    # C_1, then step 1 (the 4 local covariates) and step 2 (the 3 queries)
    assert backend.calls == [[(3, False)]] + [[(4, False)], [(3, False)]] * 2


def test_in_process_backends_answer_in_the_callers_thread(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a run of in-process backends started a pool")

    monkeypatch.setattr(protocol, "ThreadPoolExecutor", no_pool)
    rng = np.random.default_rng(35)
    clients_data, queries, g = unequal_regression(rng, d=2, sizes=(3, 4, 5),
                                                  m=4)
    # three groups, each a client alone on its backend
    clients = [ClientState(ds.client_id, ds, SoloLsaBackend(g))
               for ds in clients_data]
    for context_count in (None, 2):
        result = run(ProtocolConfig(rounds=2, context_count=context_count),
                     clients, queries, max_workers=4)
        assert len(result.traces) == 2


def test_remote_backends_answer_from_pool_threads(monkeypatch):
    pools, threads = [], set()
    monkeypatch.setattr(RecordingPool, "started", pools)

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


def test_a_backend_failure_building_c_1_is_a_protocol_error():
    # C_1 comes from the first client's backend, so a failure names it
    with MockLlmServer(script=[(400, {"error": "bad request"}, {})]) as srv:
        clients = text_clients(srv.url, (2, 3))[::-1]
        with pytest.raises(ProtocolError, match="C_1 backend failure") as exc:
            run(ProtocolConfig(rounds=2, aggregation="fusion",
                               init_mode="backend_generated"),
                clients, TEXT_QUERIES)
        assert len(srv.requests) == 1
    assert exc.value.client_id == 2


class ShortBackend(AskLsaBackend):
    """An ask-based LSA backend that gives one answer too few to every
    ask."""

    def answer(self, step, labels, usages=None):
        return [column[:-1] for column in super().answer(step, labels,
                                                         usages)]


def test_a_wrong_answer_count_for_c_1_is_a_protocol_error():
    rng = np.random.default_rng(36)
    clients_data, queries, g = random_regression(rng, d=2, l=2, n=4, m=3)
    clients = [ClientState(c.client_id, c, ShortBackend(g))
               for c in clients_data[::-1]]
    with pytest.raises(ProtocolError, match="C_1: 2 answers to 3") as exc:
        run(ProtocolConfig(rounds=2, init_mode="backend_generated"),
            clients, queries)
    assert exc.value.client_id == 2


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
    local = list(zip(clients[0].original.covariates,
                     clients[0].original.labels))
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


def test_clients_that_share_a_remote_backend_keep_their_own_usage():
    rounds, sizes, m = 2, (2, 3), len(TEXT_QUERIES)
    with MockLlmServer(reply="a reply") as srv:
        backend = RemoteBackend(srv.url)
        clients = [ClientState(c.client_id, c.original, backend)
                   for c in text_clients(srv.url, sizes)]
        result = run(ProtocolConfig(rounds=rounds, aggregation="fusion"),
                     clients, TEXT_QUERIES)
        usages = list(srv.usages)
    # one group: each step is one call, its asks answered client by
    # client, so a round POSTs client 1's N relabels, client 2's, then
    # client 1's M answers and client 2's
    want, served = [], iter(usages)
    for k in range(1, rounds + 1):
        step1 = [[next(served) for _ in range(n)] for n in sizes]
        step2 = [[next(served) for _ in range(m)] for _ in sizes]
        for cid, calls in enumerate(zip(step1, step2), 1):
            calls = calls[0] + calls[1]
            want += [(k, "uplink", cid,
                      sum(u["prompt_tokens"] for u in calls)),
                     (k, "downlink", cid,
                      sum(u["completion_tokens"] for u in calls))]
    assert next(served, None) is None
    assert [(e.round, e.direction, e.client_id, e.payload_units)
            for e in result.ledger.entries
            if e.unit == "observed_tokens"] == want


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
    assert {e.unit for e in result.ledger.entries} == {"bits"}
