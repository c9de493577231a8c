import numpy as np
import pytest
from hypothesis import given, settings, strategies as st


from fedicl.core import (ClientDataset, ConfigError, Example, RealLabel,
                         TextLabel)
from fedicl import data
from fedicl.data import (IdentityEmbedder, PartitionSpec, TableEmbedder,
                         category_entropy, dirichlet_partition, knn_context,
                         load_dataset, save_dataset)

CATEGORIES = ("algebra", "biology", "history", "law")


def labeled_corpus(n, num_cats=4, seed=0):
    rng = np.random.default_rng(seed)
    cats = CATEGORIES[:num_cats]
    return [Example((float(i), float(rng.standard_normal())), RealLabel(0.0),
                    category=cats[int(rng.integers(num_cats))])
            for i in range(n)]


def uniform_prior(k):
    return tuple(1.0 / k for _ in range(k))


def vec_dataset(xs, cid=1):
    return ClientDataset(cid, tuple(Example(tuple(map(float, x)),
                                            RealLabel(0.0)) for x in xs))


def brute_force_knn(dataset, queries, c, embedder):
    """Independent oracle: full pairwise distance table, per-query top-c."""
    emb = np.vstack([embedder.embed(cv) for cv in dataset.covariates])
    keep = set()
    for q in queries:
        d = [(float(np.linalg.norm(row - embedder.embed(q))), i)
             for i, row in enumerate(emb)]
        d.sort()
        keep.update(i for _, i in d[:c])
    return keep


# ---------------------------------------------------------------------------
# partitioning
# ---------------------------------------------------------------------------

def test_partition_conserves_examples():
    corpus = labeled_corpus(101)
    clients, manifest = dirichlet_partition(
        corpus, PartitionSpec(num_clients=5, alpha=1.0,
                              prior=uniform_prior(4), seed=3))
    assert sum(map(len, clients)) == len(corpus)
    assert sorted(manifest) == list(range(len(corpus)))
    assert set(manifest.values()) <= set(range(1, 6))
    # client i of the list has id i + 1, and holds exactly the records the
    # manifest gives that id, in corpus order
    for ci, records in enumerate(clients, start=1):
        got = sorted(i for i, cid in manifest.items() if cid == ci)
        assert records == tuple(corpus[i] for i in got)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(8, 80), l=st.integers(1, 6),
       alpha=st.floats(0.01, 100.0), seed=st.integers(0, 10 ** 6))
def test_partition_conservation_property(n, l, alpha, seed):
    corpus = labeled_corpus(n, seed=seed % 17)
    present = sorted({ex.category for ex in corpus})
    clients, manifest = dirichlet_partition(
        corpus, PartitionSpec(num_clients=l, alpha=alpha,
                              prior=uniform_prior(len(present)), seed=seed))
    assert sum(map(len, clients)) == n
    assert sorted(manifest) == list(range(n))


def test_partition_deterministic():
    corpus = labeled_corpus(60)
    spec = PartitionSpec(num_clients=4, alpha=0.5, prior=uniform_prior(4),
                         seed=11)
    a = dirichlet_partition(corpus, spec)
    b = dirichlet_partition(corpus, spec)
    assert a == b
    c = dirichlet_partition(corpus, PartitionSpec(
        num_clients=4, alpha=0.5, prior=uniform_prior(4), seed=12))
    assert a != c


def test_partition_high_alpha_near_uniform_mix():
    corpus = labeled_corpus(400, seed=1)
    clients, _ = dirichlet_partition(
        corpus, PartitionSpec(num_clients=4, alpha=1e6,
                              prior=uniform_prior(4), seed=5))
    for records in clients:
        counts = {}
        for ex in records:
            counts[ex.category] = counts.get(ex.category, 0) + 1
        shares = np.array(list(counts.values())) / len(records)
        assert shares.max() < 0.45  # uniform would be 0.25 per category


def test_partition_low_alpha_concentrates():
    corpus = labeled_corpus(400, seed=2)
    skewed = 0
    trials = 100
    # 8 clients of ~50 examples each, so one category (~100 available) can
    # fully satisfy the first client's near-one-hot draw
    for seed in range(trials):
        clients, _ = dirichlet_partition(
            corpus, PartitionSpec(num_clients=8, alpha=0.001,
                                  prior=uniform_prior(4), seed=seed))
        counts = {}
        for ex in clients[0]:
            counts[ex.category] = counts.get(ex.category, 0) + 1
        top = max(counts.values()) / len(clients[0])
        skewed += top >= 0.8
    assert skewed >= 95


def test_partition_entropy_decreases_with_alpha():
    corpus = labeled_corpus(400, seed=3)
    medians = []
    for alpha in (0.001, 1.0, 100.0):
        ents = []
        for seed in range(20):
            clients, _ = dirichlet_partition(
                corpus, PartitionSpec(num_clients=4, alpha=alpha,
                                      prior=uniform_prior(4), seed=seed))
            ents.extend(category_entropy(c) for c in clients)
        medians.append(float(np.median(ents)))
    assert medians[0] < medians[1] < medians[2]


def test_partition_requires_categories():
    corpus = [Example((1.0,), RealLabel(0.0))]
    with pytest.raises(ValueError, match="category"):
        dirichlet_partition(corpus, PartitionSpec(
            num_clients=1, alpha=1.0, prior=(1.0,)))


@pytest.mark.parametrize("covariate", ["a question", (1.0, 2.0)])
def test_partition_rejects_covariates_of_two_kinds_or_dimensions(covariate):
    # one record per client: the two kinds would never share a client
    corpus = [Example((1.0,), RealLabel(0.0), category="a"),
              Example(covariate, RealLabel(0.0), category="b")]
    with pytest.raises(ValueError, match="inconsistent covariate dimensions"):
        dirichlet_partition(corpus, PartitionSpec(num_clients=2, alpha=1e6))


def test_partition_more_clients_than_examples_errors():
    corpus = [Example((1.0,), RealLabel(0.0), category="algebra")]
    with pytest.raises(ValueError, match="clients"):
        dirichlet_partition(corpus, PartitionSpec(
            num_clients=2, alpha=1.0, prior=(1.0,)))


def test_partition_spec_validation():
    with pytest.raises(ValueError):
        PartitionSpec(num_clients=0, alpha=1.0, prior=(1.0,))
    with pytest.raises(ValueError):
        PartitionSpec(num_clients=1, alpha=0.0, prior=(1.0,))
    with pytest.raises(ValueError):
        PartitionSpec(num_clients=1, alpha=1.0, prior=(0.7, 0.7))
    with pytest.raises(ValueError, match="seed must be >= 0"):
        PartitionSpec(num_clients=1, alpha=1.0, prior=(1.0,), seed=-3)
    with pytest.raises(ValueError, match="alpha must be positive"):
        PartitionSpec(num_clients=1, alpha=float("nan"))
    for alpha in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="alpha must be positive and "
                           "finite"):
            PartitionSpec(num_clients=1, alpha=alpha)
    with pytest.raises(ValueError, match="prior must be"):
        PartitionSpec(num_clients=1, alpha=1.0, prior=(float("nan"), 1.0))


@pytest.mark.parametrize("field,value,message", [
    ("num_clients", 2.5, "num_clients must be an int"),
    ("num_clients", True, "num_clients must be an int"),
    ("num_clients", "2", "num_clients must be an int"),
    ("seed", 1.5, "seed must be an int"),
    ("seed", True, "seed must be an int"),
    ("alpha", "1.0", "alpha must be a number"),
    ("alpha", True, "alpha must be a number"),
    ("alpha", None, "alpha must be a number"),
    ("prior", (True, False), r"prior\[0\] must be a number, got True"),
    ("prior", ("0.5", "0.5"), r"prior\[0\] must be a number, got '0.5'"),
    # a list-valued setting is a JSON array: a list or a tuple
    ("prior", 5, "prior must be a list, got 5"),
    ("prior", {"a": 0.5, "b": 0.5}, "prior must be a list, got {'a'"),
    ("prior", "ab", "prior must be a list, got 'ab'")])
def test_partition_spec_rejects_a_setting_of_the_wrong_type(field, value,
                                                            message):
    with pytest.raises(TypeError, match=message):
        PartitionSpec(**dict({"num_clients": 2, "alpha": 1.0},
                             **{field: value}))


def test_partition_spec_without_a_prior_is_uniform_over_the_categories():
    corpus = labeled_corpus(60, num_cats=3, seed=4)
    clients, manifest = dirichlet_partition(corpus, PartitionSpec(
        num_clients=3, alpha=0.5, seed=8))
    want_clients, want = dirichlet_partition(corpus, PartitionSpec(
        num_clients=3, alpha=0.5, prior=uniform_prior(3), seed=8))
    assert (clients, manifest) == (want_clients, want)


def test_category_entropy_values():
    uniform = (Example((1.0,), RealLabel(0.0), category="a"),
               Example((2.0,), RealLabel(0.0), category="b"))
    assert category_entropy(uniform) == pytest.approx(np.log(2))
    single = (Example((1.0,), RealLabel(0.0), category="a"),)
    assert category_entropy(single) == 0.0
    # a record without a category counts as the category ""
    mixed = single + (Example((2.0,), RealLabel(0.0)),
                      Example((3.0,), RealLabel(0.0), category=""))
    assert category_entropy(mixed) == pytest.approx(
        -(np.log(1 / 3) / 3 + 2 / 3 * np.log(2 / 3)))


# ---------------------------------------------------------------------------
# kNN filtering
# ---------------------------------------------------------------------------

def test_knn_matches_brute_force():
    rng = np.random.default_rng(7)
    emb = IdentityEmbedder()
    for _ in range(50):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(2, 20))
        ds = vec_dataset(rng.standard_normal((n, d)))
        queries = [tuple(x) for x in
                   rng.standard_normal((int(rng.integers(1, 5)), d))]
        c = int(rng.integers(1, n + 1))
        (kept, _), = knn_context([ds.covariates], queries, c, emb)
        want = brute_force_knn(ds, queries, c, emb)
        assert set(kept.ravel().tolist()) == want


def test_knn_c_saturation_returns_whole_dataset():
    ds = vec_dataset([[0.0], [1.0], [2.0]])
    (kept, _), = knn_context([ds.covariates], [(0.5,)], 10,
                             IdentityEmbedder())
    assert sorted(kept.ravel().tolist()) == [0, 1, 2]


def test_knn_context_zero_distance_first():
    ds = vec_dataset([[5.0], [1.0], [3.0]])
    (kept, _), = knn_context([ds.covariates], [(3.0,)], 2, IdentityEmbedder())
    ctx = [ds.examples[i] for i in kept[0]]
    assert ctx[0].covariate == (3.0,)


def test_knn_kept_set_monotone_in_c():
    rng = np.random.default_rng(8)
    ds = vec_dataset(rng.standard_normal((12, 2)))
    queries = [tuple(x) for x in rng.standard_normal((3, 2))]
    prev = set()
    for c in range(1, 13):
        (nearest, _), = knn_context([ds.covariates], queries, c,
                                    IdentityEmbedder())
        kept = set(nearest.ravel().tolist())
        assert prev <= kept
        prev = kept


def test_knn_distance_tie_breaks_by_index():
    ds = vec_dataset([[1.0], [-1.0], [2.0]])
    (kept, _), = knn_context([ds.covariates], [(0.0,)], 1, IdentityEmbedder())
    ctx = [ds.examples[i] for i in kept[0]]
    assert ctx[0].covariate == (1.0,)  # same distance as (-1,), lower index


def per_query_knn(pool, queries, c):
    """Reference: one stable argsort of each query's distances."""
    return np.array([np.argsort(np.linalg.norm(pool - q, axis=1),
                                kind="stable")[:c] for q in queries])


def knn_cases():
    rng = np.random.default_rng(12)
    several_blocks = rng.standard_normal((300, 8))
    rows = rng.standard_normal((40, 3))
    duplicated = rows[rng.permutation(np.repeat(np.arange(40), 3))]
    rounded = rng.integers(-2, 3, size=(200, 2)).astype(float)
    # more pool rows than a block holds elements: one query per block
    wide = rng.standard_normal((data.KNN_BLOCK_ELEMENTS + 100, 8))
    spanning = rng.standard_normal((120, 8))
    # a block has at most KNN_BLOCK_ELEMENTS // len(pool) queries
    assert len(spanning) * len(several_blocks) > 2 * data.KNN_BLOCK_ELEMENTS
    yield "several blocks", several_blocks, spanning, 10
    for c in (3, 4, 7):  # every distance occurs 3 times
        yield f"duplicates, c={c}", duplicated, rng.standard_normal((30, 3)), c
    rounded_queries = rng.integers(-2, 3, size=(90, 2)).astype(float)
    yield "rounded", rounded, rounded_queries, 5
    yield "rounded, c=n", rounded, rounded[:60], 200
    yield "c > n", rows, rng.standard_normal((9, 3)), 45
    yield "c = 1 at a tie", rounded, rounded[:90], 1
    yield "wide pool", wide, rng.standard_normal((3, 8)), 6
    # the product form of a squared distance loses every digit of these
    # (|p|^2 ~ 4e12 against distances ~1e-5), or at 3e4 enough of them
    # to miss a neighbour without the slack, so each query is searched
    # exactly over the whole pool
    for offset in (1e6, 3e4):
        yield (f"offset {offset:g}", offset + 1e-3 * rng.standard_normal(
            (300, 4)), offset + 1e-3 * rng.standard_normal((20, 4)), 5)
    # q + v and q - v lie at exactly the same distance from q, but the
    # product form puts q - v nearer by a rounding: the c + 8 = 9
    # candidates are copies of q - v, and a copy of q + v, not one of
    # them, must come first, because it has the lower index
    q, above, below = 1.0409735239361946, 1.055766538239468, 1.026180509632921
    tied = np.concatenate([[above] * 10, [below] * 10,
                           q + 1 + rng.random(30)])[:, None]
    yield "tie across the boundary", tied, np.array([[q]]), 1


def assert_keys_order_as_distances(pool, queries, nearest, key):
    """``key`` increases along each row of ``nearest``, and ties exactly
    where the exact distances do."""
    dist = np.array([np.linalg.norm(pool[row] - q, axis=1)
                     for row, q in zip(nearest, queries)]).reshape(key.shape)
    assert key.shape == nearest.shape
    assert (np.diff(key, axis=1) >= 0).all()
    assert np.array_equal(np.diff(key, axis=1) == 0,
                          np.diff(dist, axis=1) == 0)


@pytest.mark.parametrize("name,pool,queries,c", list(knn_cases()),
                         ids=[case[0] for case in knn_cases()])
def test_knn_context_matches_a_per_query_stable_argsort(name, pool, queries,
                                                        c):
    (got, key), = knn_context([pool], queries, c, IdentityEmbedder())
    assert got.shape == (len(queries), min(c, len(pool)))
    assert np.array_equal(got, per_query_knn(pool, queries, c))
    # also at the ties and exact fallbacks these cases are full of
    assert_keys_order_as_distances(pool, queries, got, key)


@pytest.mark.parametrize("name,pool,queries,c", list(knn_cases()),
                         ids=[case[0] for case in knn_cases()])
def test_one_search_of_stacked_pools_equals_a_search_of_each(name, pool,
                                                             queries, c):
    # unequal pools, two of them of one size, searched in one call
    n = len(pool)
    cuts = np.cumsum([n // 5, n // 3, n // 5])
    parts = np.split(pool, cuts)
    assert len({len(part) for part in parts}) == 3 and min(map(len, parts))
    found = knn_context(parts, queries, c, IdentityEmbedder())
    assert len(found) == len(parts)
    for part, (nearest, key) in zip(parts, found):
        assert nearest.shape == (len(queries), min(c, len(part)))
        assert np.array_equal(nearest, per_query_knn(part, queries, c))
        assert_keys_order_as_distances(part, queries, nearest, key)


def test_knn_context_blocks_cover_every_query():
    pool = np.random.default_rng(13).standard_normal((300, 8))
    queries = pool[::2] + 0.01
    # a block has at most KNN_BLOCK_ELEMENTS // len(pool) queries
    assert len(queries) * len(pool) > 2 * data.KNN_BLOCK_ELEMENTS
    (got, _), = knn_context([pool], queries, 1, IdentityEmbedder())
    assert got[:, 0].tolist() == list(range(0, 300, 2))


def test_knn_rejects_nonpositive_c():
    ds = vec_dataset([[1.0]])
    with pytest.raises(ValueError):
        knn_context([ds.covariates], [(1.0,)], 0, IdentityEmbedder())


def test_knn_context_of_no_pools_is_no_pairs():
    assert knn_context([], [(1.0,), (2.0,)], 3, IdentityEmbedder()) == []
    with pytest.raises(ValueError):
        knn_context([], [(1.0,)], 0, IdentityEmbedder())


def test_embedders():
    ident = IdentityEmbedder()
    assert np.array_equal(ident.embed((1.0, 2.0)), [1.0, 2.0])
    assert np.array_equal(ident.embed((1.0, 2.0)), ident.embed((1.0, 2.0)))
    with pytest.raises(TypeError):
        ident.embed("text question")
    # an array of covariates is embedded in one call, as row by row
    rows = np.arange(6.0).reshape(3, 2)
    assert np.array_equal(ident.embed_many(rows),
                          np.vstack([ident.embed(r) for r in rows]))
    assert np.array_equal(ident.embed_many([(0.0, 1.0), (2.0, 3.0)]),
                          rows[:2])
    table = TableEmbedder({"q1": [0.0, 1.0]})
    assert np.array_equal(table.embed("q1"), [0.0, 1.0])
    with pytest.raises(KeyError):
        table.embed("unknown")


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_dataset_jsonl_round_trip(tmp_path):
    examples = [Example((1.0, 2.0), RealLabel(0.5), category="algebra"),
                Example("what is 2+2?", TextLabel("4"), category="math")]
    path = tmp_path / "data.jsonl"
    save_dataset(examples, path)
    assert load_dataset(path) == examples


def test_client_dataset_examples_round_trip_through_jsonl(tmp_path):
    vec = ClientDataset(1, covariates=[[1.0, 2.0], [0.25, -3.0]],
                        labels=(RealLabel(0.5), RealLabel(-1.5)))
    text = ClientDataset(2, (Example("q one", TextLabel("a one")),
                             Example("q two", TextLabel("B"), category="x")))
    for ds in (vec, text):
        path = tmp_path / f"client_{ds.client_id}.jsonl"
        save_dataset(ds.examples, path)
        assert load_dataset(path) == list(ds.examples)
        assert ClientDataset(ds.client_id, load_dataset(path)) == ds
    # a dataset is covariates and labels: the category stayed on its record
    assert "category" not in (tmp_path / "client_2.jsonl").read_text()


def test_load_dataset_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert load_dataset(path) == []


def test_load_dataset_fixture(tmp_path):
    path = tmp_path / "three.jsonl"
    path.write_text(
        '{"x": [1.0], "y": 2.0, "answer_kind": "real"}\n'
        '\n'
        '{"question": "capital of France?", "answer": "Paris",'
        ' "answer_kind": "text", "category": "geo"}\n'
        '{"x": [3.0], "y": -1.0, "answer_kind": "real"}\n'
        '{"question": "2+2? (A) 3 (B) 4", "answer": "B",'
        ' "answer_kind": "choice"}\n')
    got = load_dataset(path)
    # answer_kind is ignored: a record's label is its y or its answer
    assert got == [Example((1.0,), RealLabel(2.0)),
                   Example("capital of France?", TextLabel("Paris"),
                           category="geo"),
                   Example((3.0,), RealLabel(-1.0)),
                   Example("2+2? (A) 3 (B) 4", TextLabel("B"))]


def test_load_dataset_names_the_line_of_a_record_without_a_label(tmp_path):
    path = tmp_path / "unlabeled.jsonl"
    path.write_text('{"x": [1.0], "y": 2.0}\n\n{"question": "Why?"}\n')
    with pytest.raises(ConfigError, match=(
            r"unlabeled\.jsonl:3: malformed record: record has neither "
            r"'y' nor 'answer'")):
        load_dataset(path)


def test_load_dataset_malformed_line_reports_position(tmp_path):
    path = tmp_path / "bad.jsonl"
    for bad in ('not json at all', '{"x": [1.0], "y": null}', 'null',
                '{"x": [1.0], "y": "nan"}', '{"x": [1.0], "y": 1e999}',
                '{"x": "abc", "y": 1.0}'):
        path.write_text('{"x": [1.0], "y": 2.0, "answer_kind": "real"}\n'
                        + bad + '\n')
        with pytest.raises(ConfigError, match=r"bad\.jsonl:2"):
            load_dataset(path)

