import base64
import os
import socket
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import fedicl
from fedicl.backend import (BACKOFF_BASE_S, RETRY_AFTER_MAX_S,
                            GenerationParams, LsaBackend, RemoteBackend,
                            RemoteBackendError, render_prompt)
from fedicl.core import ConfigError, RealLabel, TextLabel, real_values
from fedicl.lsa import gamma, predict_closed_form

from mock_llm import MockLlmServer

GOLDEN = Path(__file__).parent / "data" / "golden_open_qa_prompt.txt"


#: the context of no examples: no covariates and no labels
EMPTY = ((), ())


def answer_one(backend, context, queries, neighbours=None, usage=None):
    """The label column of one ask, with a ``(covariates, labels)``
    context, through the batch ``answer``."""
    return backend.answer([(*context, queries, neighbours)],
                          None if usage is None else [usage])[0]


def closed_form(context, queries, g, neighbours=None):
    """``predict_closed_form`` on one ask over a ``(covariates, labels)``
    context."""
    xs, ys = context
    return predict_closed_form([(xs, real_values(ys), queries, neighbours)],
                               g)[0]


def vec_context(rng, d, n):
    return rng.standard_normal((n, d)), [RealLabel(float(y))
                                         for y in rng.standard_normal(n)]


def qa(pairs):
    """A text context: the questions of (question, answer) ``pairs`` and
    their answers as ``TextLabel``s."""
    return (tuple(q for q, _ in pairs),
            tuple(TextLabel(a) for _, a in pairs))


def take(context, rows):
    """The examples of ``context`` at ``rows``, in that order."""
    xs, ys = context
    return [xs[i] for i in rows], [ys[i] for i in rows]


# ---------------------------------------------------------------------------
# deterministic LSA backend
# ---------------------------------------------------------------------------

def test_lsa_backend_delegates_to_closed_form():
    rng = np.random.default_rng(31)
    g = gamma(np.diag([1.0, 0.5]), 6)
    backend = LsaBackend(g)
    for _ in range(100):
        ctx = vec_context(rng, 2, int(rng.integers(0, 7)))
        q = tuple(rng.standard_normal(2))
        want = closed_form(ctx, [q], g)[0]
        assert answer_one(backend, ctx, [q])[0] == RealLabel(want)


def test_lsa_backend_empty_context_answers_zero():
    got = LsaBackend(np.eye(2)).answer([((), (), [(1.0, 2.0)], None)])
    assert got == [(RealLabel(0.0),)]


def test_lsa_backend_hand_value():
    ctx = ([(1.0,)], [RealLabel(1.0)])
    got = answer_one(LsaBackend(np.array([[3.0]])), ctx, [(1.0,)])[0]
    assert got.value == pytest.approx(1 / 3)


def test_lsa_backend_rejects_text():
    backend = LsaBackend(np.eye(1))
    with pytest.raises(TypeError):
        answer_one(backend, EMPTY, ["what is 2+2?"])[0]
    with pytest.raises(TypeError):
        answer_one(backend, qa([("q", "a")]), [(1.0,)])[0]
    with pytest.raises(TypeError):
        answer_one(backend, (("q",), [RealLabel(1.0)]), [(1.0,)])
    with pytest.raises(TypeError):
        answer_one(backend, ([(1.0,)], [TextLabel("a")]), [(1.0,)])
    with pytest.raises(TypeError):
        answer_one(backend, ([(1.0,)], [RealLabel(1.0)]),
                   [(1.0,), "what is 2+2?"])


def test_a_context_whose_columns_differ_in_length_raises_value_error():
    xs, ys = vec_context(np.random.default_rng(38), 2, 3)
    backend = LsaBackend(np.eye(2))
    for nb in (None, np.array([[0], [1]])):
        for context in ((xs[:2], ys), (xs, ys[:2]), (xs, ())):
            with pytest.raises(ValueError, match="covariates and"):
                answer_one(backend, context, [(1.0, 0.0), (0.0, 1.0)], nb)


def test_lsa_backend_rejects_bad_gamma_at_construction():
    with pytest.raises(ValueError, match="positive definite"):
        LsaBackend(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError, match="symmetric"):
        LsaBackend(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="square"):
        LsaBackend(np.ones((2, 3)))


def test_lsa_backend_batch_matches_per_query_closed_form():
    rng = np.random.default_rng(32)
    g = gamma(np.diag([1.0, 0.5, 2.0]), 4)
    backend = LsaBackend(g)
    for n in (1, 5, 12):
        ctx = vec_context(rng, 3, n)
        qs = [tuple(q) for q in rng.standard_normal((7, 3))]
        got = answer_one(backend, ctx, qs)
        assert len(got) == len(qs)
        for label, q in zip(got, qs):
            assert isinstance(label, RealLabel)
            want = closed_form(ctx, [q], g)[0]
            assert abs(label.value - want) <= 1e-12
    assert answer_one(backend, EMPTY, qs) == (RealLabel(0.0),) * len(qs)
    assert answer_one(backend, ctx, []) == ()


def test_lsa_backend_neighbours_match_per_query_contexts():
    rng = np.random.default_rng(33)
    g = gamma(np.diag([1.0, 0.5, 2.0]), 4)
    backend = LsaBackend(g)
    for n, k in ((1, 1), (5, 3), (12, 4), (4, 6)):
        pool = vec_context(rng, 3, n)
        qs = [tuple(q) for q in rng.standard_normal((7, 3))]
        nb = rng.integers(0, n, size=(len(qs), k))
        got = answer_one(backend, pool, qs, nb)
        assert len(got) == len(qs)
        for label, q, row in zip(got, qs, nb):
            want = answer_one(backend, take(pool, row), [q])[0]
            assert abs(label.value - want.value) <= 1e-12
    assert answer_one(backend, pool, [], np.zeros((0, 2), dtype=int)) == ()


def test_closed_form_batch_equals_each_ask_alone():
    # every kind of ask in one batch: a context shared by two query sets,
    # a query set shared by two contexts, neighbours, no examples and no
    # queries
    rng = np.random.default_rng(37)
    g = gamma(np.diag([1.0, 0.5, 2.0]), 4)
    shared, other = vec_context(rng, 3, 6), vec_context(rng, 3, 4)
    qs, more = rng.standard_normal((5, 3)), rng.standard_normal((2, 3))
    asks = [(shared, qs, None), (shared, more, None), (other, qs, None),
            (other, more, rng.integers(0, 4, size=(2, 3))),
            (shared, qs, rng.integers(0, 6, size=(5, 2))),
            (EMPTY, more, None), (other, np.empty((0, 3)), None)]
    got = predict_closed_form([
        (xs, real_values(ys), q, nb) for (xs, ys), q, nb in asks], g)
    assert [len(p) for p in got] == [5, 2, 5, 2, 5, 2, 0]
    for pred, (ctx, q, nb) in zip(got, asks):
        np.testing.assert_allclose(pred, closed_form(ctx, q, g, nb),
                                   rtol=0, atol=1e-12)
    assert not got[-2].any()


MALFORMED_NEIGHBOURS = {
    "rank": np.array([0, 1]),
    "rows": np.array([[0], [1], [2]]),
    "no columns": np.zeros((2, 0), dtype=int),
    "out of range": np.array([[0], [3]]),
    "negative": np.array([[0], [-1]]),
    "not integers": np.array([[0.0], [1.0]]),
}


@pytest.mark.parametrize("nb", MALFORMED_NEIGHBOURS.values(),
                         ids=MALFORMED_NEIGHBOURS.keys())
def test_malformed_neighbours_raise_value_error(nb):
    rng = np.random.default_rng(34)
    pool, qs = vec_context(rng, 2, 3), [(1.0, 0.0), (0.0, 1.0)]
    with pytest.raises(ValueError, match="neighbours"):
        answer_one(LsaBackend(np.eye(2)), pool, qs, nb)
    with pytest.raises(ValueError, match="neighbours"):
        closed_form(pool, np.asarray(qs), np.eye(2), nb)
    text_pool = qa([(f"q{i}", f"a{i}") for i in range(3)])
    with MockLlmServer() as srv:
        with pytest.raises(ValueError, match="neighbours"):
            answer_one(RemoteBackend(srv.url), text_pool, ["x", "y"], nb)
        assert srv.requests == []


def test_neighbours_are_checked_also_with_zero_queries():
    nb = np.zeros((3, 2), dtype=int)  # three rows for no queries
    pool = vec_context(np.random.default_rng(35), 2, 3)
    with pytest.raises(ValueError, match="neighbours"):
        answer_one(LsaBackend(np.eye(2)), pool, [], nb)
    text_pool = qa([(f"q{i}", f"a{i}") for i in range(3)])
    with MockLlmServer() as srv:
        with pytest.raises(ValueError, match="neighbours"):
            answer_one(RemoteBackend(srv.url), text_pool, [], nb)
        assert srv.requests == []
    empty = np.zeros((0, 2), dtype=int)
    assert answer_one(LsaBackend(np.eye(2)), pool, [], empty) == ()


def test_lsa_backend_keeps_a_read_only_copy_of_gamma():
    rng = np.random.default_rng(36)
    g = gamma(np.diag([1.0, 0.5]), 4)
    backend = LsaBackend(g)
    ctx, qs = vec_context(rng, 2, 5), [(1.0, 0.0), (0.5, -2.0)]
    before = answer_one(backend, ctx, qs)
    g[0, 0] = 100.0
    assert answer_one(backend, ctx, qs) == before
    with pytest.raises(ValueError):
        backend.gamma[0, 0] = 1.0
    with pytest.raises(ValueError, match="finite"):
        LsaBackend(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_backends_reject_a_bare_string_as_queries():
    with pytest.raises(TypeError):
        answer_one(LsaBackend(np.eye(1)), EMPTY, "real question?")
    with MockLlmServer() as srv:
        with pytest.raises(TypeError, match="str"):
            answer_one(RemoteBackend(srv.url), EMPTY, "real question?")
        assert srv.requests == []


# ---------------------------------------------------------------------------
# prompt rendering and answer parsing
# ---------------------------------------------------------------------------

def test_render_prompt_zero_exemplars():
    prompt = render_prompt([], "why is the sky blue?")
    assert prompt.endswith("Question: why is the sky blue?\nAnswer:")
    assert prompt.count("Question:") == 1


def test_render_prompt_preserves_exemplar_order():
    ctx = [("first q", TextLabel("first a")),
           ("second q", TextLabel("second a"))]
    prompt = render_prompt(ctx, "the last q")
    assert prompt.index("first q") < prompt.index("second q") \
        < prompt.index("the last q")


def test_render_open_qa_prompt_matches_golden_file():
    # the one prompt a RemoteBackend sends: text answers as they are, a real
    # label as its repr, a vector question as its list of components
    pairs = [("What is 2+2?", TextLabel("4")),
             ("Capital of France?", TextLabel("Paris")),
             ((1.0, -2.5), RealLabel(1 / 3))]
    assert render_prompt(pairs, "Largest planet?") == GOLDEN.read_text()


def test_generation_params_defaults_and_validation():
    p = GenerationParams()
    assert (p.temperature, p.max_tokens) == (0.1, 256)
    assert (p.timeout_ms, p.max_retries) == (30_000, 3)
    with pytest.raises(ValueError):
        GenerationParams(temperature=-1.0)
    with pytest.raises(ValueError):
        GenerationParams(max_tokens=0)
    for bad in ({"max_retries": -1}, {"timeout_ms": 0}, {"timeout_ms": -5},
                {"temperature": float("nan")}, {"temperature": float("inf")}):
        with pytest.raises(ValueError):
            GenerationParams(**bad)
    for bad in ({"temperature": True}, {"temperature": "0.5"},
                {"model_name": 5}):
        with pytest.raises(TypeError):
            GenerationParams(**bad)
    assert GenerationParams(max_retries=0).max_retries == 0


@pytest.mark.parametrize("field", ["max_tokens", "timeout_ms", "max_retries"])
@pytest.mark.parametrize("value", [2.5, 2.0, True, "2"])
def test_generation_params_reject_counts_that_are_not_ints(field, value):
    with pytest.raises(TypeError, match=f"{field} must be an int"):
        GenerationParams(**{field: value})
    assert getattr(GenerationParams(**{field: np.int64(3)}), field) == 3


# ---------------------------------------------------------------------------
# remote backend wire contract (against an in-process mock server)
# ---------------------------------------------------------------------------

def test_remote_backend_returns_completion_text():
    with MockLlmServer(reply="Paris is the capital.") as srv:
        backend = RemoteBackend(srv.url)
        got = answer_one(backend, qa([("q1", "a1")]),
                         ["Capital of France?"])[0]
    assert got == TextLabel("Paris is the capital.")


def test_remote_backend_batch_posts_once_per_query_in_order():
    ctx = qa([("ex q", "ex a")])
    with MockLlmServer(reply="an answer") as srv:
        got = answer_one(RemoteBackend(srv.url), ctx,
                         ["q one", "q two", "q three"])
        prompts = [body["messages"][0]["content"] for body in srv.requests]
    assert got == (TextLabel("an answer"),) * 3
    assert len(prompts) == 3
    for prompt, q in zip(prompts, ["q one", "q two", "q three"]):
        assert prompt.endswith(f"Question: {q}\nAnswer:")
        assert "ex q" in prompt


def test_remote_backend_neighbours_post_each_querys_exemplars_in_order():
    pool = qa([(f"ex q{i}", f"ex a{i}") for i in range(5)])
    nb = np.array([[3, 0, 4], [1, 1, 2]])
    with MockLlmServer(reply="an answer") as srv:
        got = answer_one(RemoteBackend(srv.url), pool, ["q one", "q two"], nb)
        prompts = [body["messages"][0]["content"] for body in srv.requests]
    assert got == (TextLabel("an answer"),) * 2
    assert prompts == [render_prompt(list(zip(*take(pool, row))), q)
                       for q, row in zip(["q one", "q two"], nb)]


def test_remote_backend_request_body_contract():
    with MockLlmServer() as srv:
        backend = RemoteBackend(srv.url)
        answer_one(backend, EMPTY, ["some question"])[0]
        body = srv.requests[0]
    assert body["model"] == "gpt-4o-mini"
    assert body["temperature"] == 0.1
    assert body["max_tokens"] == 256
    assert body["messages"][0]["role"] == "user"
    assert "some question" in body["messages"][0]["content"]


def test_remote_backend_sends_bearer_token_from_env(monkeypatch):
    monkeypatch.setenv("FEDICL_API_KEY", "sk-test-123")
    headers = RemoteBackend("http://unused")._headers()
    assert headers["Authorization"] == "Bearer sk-test-123"
    monkeypatch.delenv("FEDICL_API_KEY")
    assert "Authorization" not in RemoteBackend("http://unused")._headers()


def test_remote_backend_retries_on_rate_limit():
    script = [(429, {"error": "slow down"}, {"Retry-After": "0"}),
              (200, None, {})]
    with MockLlmServer(script=script) as srv:
        got = answer_one(RemoteBackend(srv.url), EMPTY, ["q"])[0]
        assert len(srv.requests) == 2
    assert got == TextLabel("mock answer")


@pytest.mark.parametrize("retry_after", [
    "-1", "nan", "inf", "Wed, 21 Oct 2015 07:28:00 GMT"])
def test_remote_backend_falls_back_to_backoff_on_an_invalid_retry_after(
        monkeypatch, retry_after):
    slept = []
    monkeypatch.setattr(time, "sleep", slept.append)
    script = [(503, {"error": "down"}, {"Retry-After": retry_after}),
              (200, None, {})]
    with MockLlmServer(script=script) as srv:
        got = answer_one(RemoteBackend(srv.url), EMPTY, ["q"])[0]
        assert len(srv.requests) == 2
    assert got == TextLabel("mock answer")
    assert slept == [BACKOFF_BASE_S]   # the first retry's exponential delay


@pytest.mark.parametrize("retry_after", ["1e6", "1e300"])
def test_remote_backend_waits_at_most_the_retry_after_ceiling(monkeypatch,
                                                               retry_after):
    slept = []
    monkeypatch.setattr(time, "sleep", slept.append)
    script = [(503, {"error": "down"}, {"Retry-After": retry_after}),
              (200, None, {})]
    with MockLlmServer(script=script) as srv:
        got = answer_one(RemoteBackend(srv.url), EMPTY, ["q"])[0]
        assert len(srv.requests) == 2
    assert got == TextLabel("mock answer")
    assert slept == [RETRY_AFTER_MAX_S]


def test_remote_backend_gives_up_after_max_retries():
    script = [(503, {"error": "down"}, {"Retry-After": "0"})] * 3
    with MockLlmServer(script=script) as srv:
        backend = RemoteBackend(srv.url,
                                params=GenerationParams(max_retries=2))
        with pytest.raises(RemoteBackendError, match="503"):
            answer_one(backend, EMPTY, ["q"])[0]
        assert len(srv.requests) == 3


def test_remote_backend_non_retryable_fails_fast():
    script = [(400, {"error": "bad request"}, {})]
    with MockLlmServer(script=script) as srv:
        backend = RemoteBackend(srv.url)
        with pytest.raises(RemoteBackendError, match="400"):
            answer_one(backend, EMPTY, ["q"])[0]
        assert len(srv.requests) == 1


def test_remote_backend_malformed_body_raises():
    script = [(200, {"unexpected": "shape"}, {})]
    with MockLlmServer(script=script) as srv:
        backend = RemoteBackend(srv.url)
        with pytest.raises(RemoteBackendError, match="malformed"):
            answer_one(backend, EMPTY, ["q"])[0]


def test_remote_backend_adds_observed_usage_into_the_given_dict():
    usage = {}
    context = qa([("ex q", "ex a")])
    with MockLlmServer(reply="four words in reply") as srv:
        backend = RemoteBackend(srv.url)
        answer_one(backend, context, ["first question"], usage=usage)
        answer_one(backend, context, ["a second question here"], usage=usage)
        answer_one(backend, context, ["not counted"])
        served = srv.usages[:2]
    assert usage == {
        "prompt_tokens": sum(u["prompt_tokens"] for u in served),
        "completion_tokens": sum(u["completion_tokens"] for u in served)}
    lsa_usage = {}
    answer_one(LsaBackend(np.eye(1)), ([(1.0,)], [RealLabel(1.0)]),
               [(1.0,)], usage=lsa_usage)
    assert lsa_usage == {}


def test_remote_backend_answers_a_batch_ask_by_ask_with_its_own_usage():
    first = qa([("ex q", "ex a")])
    second = qa([(f"q{i}", f"a{i}") for i in range(3)])
    usages = [{}, {}]
    with MockLlmServer(reply="a reply") as srv:
        got = RemoteBackend(srv.url).answer(
            [(*first, ["one", "two"], None),
             (*second, ["three"], np.array([[2, 0]]))], usages)
        prompts = [body["messages"][0]["content"] for body in srv.requests]
        served = list(srv.usages)
    assert got == [(TextLabel("a reply"),) * 2, (TextLabel("a reply"),)]
    pairs = list(zip(*second))
    assert prompts == [render_prompt(list(zip(*first)), "one"),
                       render_prompt(list(zip(*first)), "two"),
                       render_prompt([pairs[2], pairs[0]], "three")]
    for usage, calls in zip(usages, (served[:2], served[2:])):
        assert usage == {
            "prompt_tokens": sum(u["prompt_tokens"] for u in calls),
            "completion_tokens": sum(u["completion_tokens"] for u in calls)}


def test_remote_backend_checks_every_ask_before_its_first_request():
    ctx = qa([("q", "a")])
    with MockLlmServer() as srv:
        backend = RemoteBackend(srv.url)
        with pytest.raises(ValueError, match="neighbours"):
            backend.answer([(*ctx, ["x"], None),
                            (*ctx, ["y"], np.array([[1]]))])
        with pytest.raises(TypeError, match="str"):
            backend.answer([(*ctx, ["x"], None), (*ctx, "y", None)])
        with pytest.raises(ValueError, match="usage"):
            backend.answer([(*ctx, ["x"], None), (*ctx, ["y"], None)], [{}])
        with pytest.raises(ValueError, match="shorter"):
            backend.answer([(*ctx, ["x"], None), (("q", "r"), ctx[1], ["y"],
                                                  None)])
        assert srv.requests == []


def test_remote_backend_truncates_long_completions():
    long_reply = " ".join(str(i) for i in range(40))
    with MockLlmServer(reply=long_reply) as srv:
        backend = RemoteBackend(srv.url,
                                params=GenerationParams(max_tokens=10))
        got = answer_one(backend, EMPTY, ["q"])[0]
    assert got.answer == " ".join(str(i) for i in range(10))


def test_remote_backend_prompt_holds_every_context_exemplar_in_order():
    ctx = qa([(f"q{i}", f"a{i}") for i in range(8)])
    with MockLlmServer() as srv:
        answer_one(RemoteBackend(srv.url), ctx, ["final"])
        prompt = srv.requests[0]["messages"][0]["content"]
    assert prompt == render_prompt(list(zip(*ctx)), "final")
    positions = [prompt.index(f"Question: q{i}\nAnswer: a{i}\n")
                 for i in range(8)]
    assert positions == sorted(positions)


# ---------------------------------------------------------------------------
# remote backend transport: endpoint, connection reuse, proxies
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("endpoint", ["localhost:8000", "ftp://x", "",
                                      "http://", "http://host:port",
                                      "http://host:99999"])
def test_remote_backend_rejects_an_endpoint_that_is_not_an_http_url(
        endpoint):
    with pytest.raises(ConfigError, match="endpoint must be an http or "
                                          "https URL with a host"):
        RemoteBackend(endpoint)


def test_remote_backend_refused_port_fails_after_every_retry(monkeypatch):
    with socket.socket() as sock:    # a port that nothing listens on
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    slept, connects = [], []
    real_connect = socket.create_connection

    def connect(address, *args, **kwargs):
        connects.append(address)
        return real_connect(address, *args, **kwargs)

    monkeypatch.setattr(time, "sleep", slept.append)
    monkeypatch.setattr(socket, "create_connection", connect)
    backend = RemoteBackend(f"http://127.0.0.1:{port}",
                            params=GenerationParams(max_retries=3))
    with pytest.raises(RemoteBackendError, match="transport failure"):
        answer_one(backend, EMPTY, ["q"])
    assert connects == [("127.0.0.1", port)] * 4
    assert slept == [BACKOFF_BASE_S, 2 * BACKOFF_BASE_S, 4 * BACKOFF_BASE_S]


@pytest.mark.parametrize("keep_alive,connections", [(True, 1), (False, 3)],
                         ids=["http1.1", "http1.0"])
def test_remote_backend_keeps_its_connection_where_the_server_allows(
        keep_alive, connections):
    with MockLlmServer(keep_alive=keep_alive) as srv:
        backend = RemoteBackend(srv.url)
        got = answer_one(backend, EMPTY, ["a", "b", "c"])
        backend.close()
        assert (len(srv.requests), srv.connections) == (3, connections)
    assert got == (TextLabel("mock answer"),) * 3


def test_a_closed_remote_backend_holds_no_socket_and_still_answers():
    with MockLlmServer(keep_alive=True) as srv:
        backend = RemoteBackend(srv.url)
        answer_one(backend, EMPTY, ["a"])
        assert backend._conn.sock is not None
        backend.close()
        assert backend._conn.sock is None
        got = answer_one(backend, EMPTY, ["b"])
        backend.close()
        assert (len(srv.requests), srv.connections) == (2, 2)
    assert got == (TextLabel("mock answer"),)
    assert backend._conn.sock is None


def test_remote_backend_resends_on_a_kept_connection_the_server_dropped(
        monkeypatch):
    slept = []
    monkeypatch.setattr(time, "sleep", slept.append)
    with MockLlmServer(keep_alive=True, drop_idle=True) as srv:
        backend = RemoteBackend(srv.url,
                                params=GenerationParams(max_retries=0))
        got = answer_one(backend, EMPTY, ["a", "b", "c"])
        backend.close()
        assert (len(srv.requests), srv.connections) == (3, 3)
    assert got == (TextLabel("mock answer"),) * 3
    assert slept == []      # a resend uses no retry and no backoff


@pytest.fixture
def no_proxy_env(monkeypatch):
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    return monkeypatch


def test_remote_backend_sends_the_absolute_url_to_an_http_proxy(no_proxy_env):
    with MockLlmServer() as proxy:
        no_proxy_env.setenv("HTTP_PROXY", proxy.url.replace(
            "http://", "http://user:p%40ss@"))
        got = answer_one(RemoteBackend("http://upstream.invalid/api"),
                         EMPTY, ["q"])
        assert proxy.paths == [
            "http://upstream.invalid/api/v1/chat/completions"]
        headers = proxy.headers[0]
    assert got == (TextLabel("mock answer"),)
    assert headers["Host"] == "upstream.invalid"
    assert headers["Proxy-Authorization"] == (
        "Basic " + base64.b64encode(b"user:p@ss").decode())


def test_remote_backend_reads_the_proxy_environment_when_it_is_built(
        no_proxy_env):
    with MockLlmServer() as upstream, MockLlmServer() as proxy:
        backend = RemoteBackend(upstream.url)
        no_proxy_env.setenv("HTTP_PROXY", proxy.url)
        answer_one(backend, EMPTY, ["q"])
        assert upstream.paths == ["/v1/chat/completions"]
        assert proxy.paths == []


def test_no_proxy_bypasses_the_proxy(no_proxy_env):
    # the connection is refused at the socket, so no name is ever resolved
    connects = []

    def refuse(address, *args, **kwargs):
        connects.append(address)
        raise ConnectionRefusedError("refused")

    no_proxy_env.setattr(socket, "create_connection", refuse)
    no_proxy_env.setenv("HTTP_PROXY", "http://127.0.0.1:9")
    for no_proxy, address in [("", ("127.0.0.1", 9)),
                              ("upstream.invalid", ("upstream.invalid", 80))]:
        no_proxy_env.setenv("NO_PROXY", no_proxy)
        backend = RemoteBackend("http://upstream.invalid",
                                params=GenerationParams(max_retries=0))
        with pytest.raises(RemoteBackendError, match="transport failure"):
            answer_one(backend, EMPTY, ["q"])
        assert connects.pop() == address


def test_an_https_endpoint_asks_the_proxy_for_a_tunnel(no_proxy_env):
    with MockLlmServer() as proxy:   # answers CONNECT with 502
        no_proxy_env.setenv("HTTPS_PROXY", proxy.url)
        backend = RemoteBackend("https://upstream.invalid:8443",
                                params=GenerationParams(max_retries=0))
        with pytest.raises(RemoteBackendError, match="transport failure"):
            answer_one(backend, EMPTY, ["q"])
        assert proxy.paths == ["upstream.invalid:8443"]
        assert proxy.requests == []


@pytest.mark.parametrize("proxy", ["socks5://127.0.0.1:1080",
                                   "https://127.0.0.1:3128",
                                   "http://127.0.0.1:port"])
def test_remote_backend_rejects_a_proxy_it_cannot_speak(no_proxy_env, proxy):
    no_proxy_env.setenv("ALL_PROXY", proxy)
    with pytest.raises(ConfigError, match="must be an http URL with a host"):
        RemoteBackend("http://upstream.invalid")


def test_importing_fedicl_loads_no_third_party_http_client():
    src = str(Path(fedicl.__file__).resolve().parents[1])
    code = ("import sys, fedicl; "
            "print([m for m in ('requests', 'urllib3') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"
