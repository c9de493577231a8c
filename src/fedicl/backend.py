"""Predictor backends behind one interface.

Two implementations of the client-side model: a deterministic closed-form
linear self-attention predictor for regression mode, and a remote
chat-completion client speaking the OpenAI-compatible JSON/HTTP protocol
for text QA, with retry/backoff, that reports the token usage its endpoint
observes.
"""

from __future__ import annotations

import base64
import http.client
import json
import math
import os
import threading
import time
import urllib.parse
import urllib.request
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import (ConfigError, Covariate, Label, Labels, RealColumn,
                   TextLabel, check_int, check_number, covariate_text,
                   neighbour_matrix, real_values)
from .lsa import ClosedFormStep, SpdMatrix, predict_closed_form


@dataclass(frozen=True)
class GenerationParams:
    temperature: float = 0.1
    max_tokens: int = 256
    model_name: str = "gpt-4o-mini"
    timeout_ms: int = 30_000
    max_retries: int = 3

    def __post_init__(self):
        for name in ("max_tokens", "timeout_ms", "max_retries"):
            check_int(name, getattr(self, name))
        # an int from a config file is sent as the float it stands for
        object.__setattr__(self, "temperature", float(
            check_number("temperature", self.temperature)))
        if not isinstance(self.model_name, str):
            raise TypeError(f"model_name must be a str, got "
                            f"{self.model_name!r}")
        if not 0 <= self.temperature < math.inf:
            raise ValueError("temperature must be a finite number >= 0")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        if self.timeout_ms <= 0:
            raise ValueError("timeout_ms must be > 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


#: One request to a backend, without its labels: a context's covariates,
#: the queries, and None or a (Q, k) index array whose row q lists query
#: q's examples.
Ask = Tuple[Sequence[Covariate], Sequence[Covariate], Optional[np.ndarray]]


class LmBackend:
    """Answer batches of asks, prepared once and answered with labels.

    ``prepare`` takes a list of asks and returns a prepared step, which
    holds all that the answers need but the context labels. ``answer``
    takes a prepared step and one label column per ask, and returns one
    label column (see ``core.label_column``) per ask, in ask order: an ask
    ``(covariates, queries, neighbours)`` with labels ``labels`` has every
    query, in query order, answered with all of the context's examples
    (the pairs of ``covariates`` and ``labels``) or, given a (Q, k) index
    array ``neighbours`` into them, with row q's examples. A step is
    prepared by the backend that answers it, or by one equal to it.
    ``usages``, when given, holds one dict (or None) per ask: a backend
    that observes token usage adds the ``prompt_tokens`` and
    ``completion_tokens`` of an ask's answers into its dict.
    Backends that compare equal answer alike, so one call may carry the
    asks of every client whose backends are equal; a backend equals only
    itself unless its class says otherwise.
    ``max_tokens`` is the cap on each text answer, None for a backend that
    answers with reals. ``waits_on_io`` says that an ``answer`` call spends
    its time waiting on I/O, so that calls gain from running in threads;
    an in-process backend leaves it False. Deterministic backends must
    return identical labels for identical inputs."""

    max_tokens: Optional[int] = None
    waits_on_io = False

    def prepare(self, asks: Sequence[Ask]):
        """The prepared step of ``asks``: here, the asks themselves."""
        return tuple(asks)

    def answer(self, step, labels: Sequence[Sequence[Label]],
               usages: Optional[Sequence[Optional[Dict[str, int]]]] = None
               ) -> List[Labels]:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the backend holds open; ``answer`` reopens it."""


class LsaBackend(LmBackend):
    """Closed-form LSA predictor at the pretrained global optimum.

    Pure function of (context, queries). Gamma must be SPD; the backend
    keeps a read-only copy of it, checked once when the backend is built.
    Two LSA backends of one class are equal when their gammas are.
    """

    def __init__(self, gamma: np.ndarray):
        self._gamma = SpdMatrix(gamma, "gamma")
        # equal exactly when the gammas are: -0.0 + 0.0 is 0.0
        self._key = (self._gamma.matrix + 0.0).tobytes()

    @property
    def gamma(self) -> np.ndarray:
        return self._gamma.matrix

    def __eq__(self, other):
        if type(other) is not type(self):  # a subclass may answer otherwise
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def prepare(self, asks: Sequence[Ask]) -> ClosedFormStep:
        # text covariates raise TypeError on the way to numbers
        return ClosedFormStep(asks, self._gamma)

    def answer(self, step: ClosedFormStep, labels: Sequence[Sequence[Label]],
               usages: Optional[Sequence[Optional[Dict[str, int]]]] = None
               ) -> List[RealColumn]:
        if step.gamma is not self.gamma and not np.array_equal(
                step.gamma, self.gamma):  # the step has folded its gamma in
            raise ValueError("the step was prepared under another gamma")
        # text labels raise TypeError on the way to numbers
        return [RealColumn.wrap(pred) for pred in predict_closed_form(
            step, [real_values(ys) for ys in labels])]


# ---------------------------------------------------------------------------
# Prompt template
# ---------------------------------------------------------------------------

_OPEN_QA_HEADER = ("Answer the final question. Use the solved examples "
                   "as guidance.\n")

def _exemplar_text(covariate: Covariate, label: Label) -> str:
    answer = (label.answer if isinstance(label, TextLabel) else
              repr(label.value))
    return f"Question: {covariate_text(covariate)}\nAnswer: {answer}\n"


def render_prompt(exemplars: Sequence[Tuple[Covariate, Label]],
                  query: Covariate) -> str:
    """Deterministic open-QA prompt text: header, the (question, answer)
    exemplars in order, query last."""
    parts = [_OPEN_QA_HEADER]
    parts.extend(_exemplar_text(x, y) for x, y in exemplars)
    parts.append(f"Question: {covariate_text(query)}\nAnswer:")
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# Remote chat-completion backend
# ---------------------------------------------------------------------------

API_KEY_ENV = "FEDICL_API_KEY"


class RemoteBackendError(RuntimeError):
    pass


class RemoteBackend(LmBackend):
    """OpenAI-compatible chat-completions client on the stdlib
    ``http.client``.

    POSTs {model, messages, temperature, max_tokens} to
    ``{endpoint}/v1/chat/completions``; the answer is the first completion's
    content. A prompt holds every exemplar of the context it is given, in
    order. Transient failures retry with exponential backoff, honoring a
    valid Retry-After. A response's token counts, ints >= 0 or missing (0),
    are added into the caller's ``usage`` dict; others are malformed.

    The endpoint must be an http or https URL with a host, else
    ``ConfigError``. The route is settled when the backend is built (see
    ``_connection``): ``HTTP_PROXY``/``HTTPS_PROXY``/``NO_PROXY`` are read
    then and only then. The backend holds one connection, kept alive where
    the server allows it and reopened after a reply that closes it, a
    failure or ``close()``; a lock serialises the POSTs of a backend that
    threads share.
    TLS verifies against the system CA store (``SSL_CERT_FILE``);
    ``REQUESTS_CA_BUNDLE`` is not read.
    """

    waits_on_io = True

    def __init__(self, endpoint: str,
                 params: Optional[GenerationParams] = None):
        self.endpoint = endpoint.rstrip("/")
        self.params = params or GenerationParams()
        self._conn, self._target, self._proxy_headers = _connection(
            self.endpoint, self.params.timeout_ms / 1000.0)
        self._lock = threading.Lock()

    @property
    def max_tokens(self) -> int:
        return self.params.max_tokens

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json", **self._proxy_headers}
        key = os.environ.get(API_KEY_ENV, "")
        if key:
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def answer(self, step: Sequence[Ask], labels: Sequence[Sequence[Label]],
               usages: Optional[Sequence[Optional[Dict[str, int]]]] = None
               ) -> List[Tuple[Label, ...]]:
        if len(labels) != len(step):
            raise ValueError(f"{len(labels)} label columns for {len(step)} "
                             f"asks")
        if usages is not None and len(usages) != len(step):
            raise ValueError(f"{len(usages)} usage dicts for {len(step)} asks")
        # every ask is checked, and its texts built, before the first POST:
        # its exemplars, and each query's text and exemplar rows (None: all)
        asks = []
        for (covariates, queries, neighbours), ys in zip(step, labels):
            if isinstance(queries, str):  # would be one POST per character
                raise TypeError("queries must be a sequence, not a str")
            rows = ([None] * len(queries) if neighbours is None else
                    neighbour_matrix(neighbours, len(covariates),
                                     len(queries)).tolist())
            asks.append((list(zip(map(covariate_text, covariates), ys,
                                  strict=True)),
                         list(zip(map(covariate_text, queries), rows))))
        usages = [None] * len(step) if usages is None else usages
        return [tuple(self._answer_one(
                    exemplars if row is None else [exemplars[i] for i in row],
                    query, usage) for query, row in queries)
                for (exemplars, queries), usage in zip(asks, usages)]

    def _answer_one(self, exemplars: List[Tuple[Covariate, Label]],
                    query: Covariate, usage: Optional[Dict[str, int]]
                    ) -> Label:
        p = self.params
        prompt = render_prompt(exemplars, query)
        body = {
            "model": p.model_name,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": p.temperature,
            "max_tokens": p.max_tokens,
        }
        data = self._post_with_retries(body, p)
        try:
            payload = json.loads(data)
            content = payload["choices"][0]["message"]["content"]
            reported = payload.get("usage")   # none counts 0
            counts = {key: 0 if reported is None else reported.get(key, 0)
                      for key in ("prompt_tokens", "completion_tokens")}
            if not all(type(n) is int and n >= 0 for n in counts.values()):
                raise ValueError(f"token counts are not ints >= 0: {counts}")
        except (AttributeError, LookupError, TypeError, ValueError) as exc:
            raise RemoteBackendError(
                f"malformed response body: {exc}: {_text(data)[:200]!r}")
        if usage is not None:
            for key, n in counts.items():
                usage[key] = usage.get(key, 0) + n
        # hard cap per answer, matching the accounting scheme
        tokens = str(content).split(" ")
        if len(tokens) > p.max_tokens:
            content = " ".join(tokens[: p.max_tokens])
        return TextLabel(str(content))

    def _post_with_retries(self, body: dict, p: GenerationParams) -> bytes:
        payload = json.dumps(body, allow_nan=False).encode()
        headers = self._headers()
        last_error: Optional[str] = None
        for attempt in range(p.max_retries + 1):
            status = None
            try:
                status, reply_headers, data = self._post(payload, headers)
            except (OSError, http.client.HTTPException) as exc:
                last_error = f"transport failure: {exc}"
            if status is not None:
                if 200 <= status < 300:
                    return data
                last_error = f"HTTP {status}: {_text(data)[:200]!r}"
                if status not in (408, 429, 500, 502, 503, 504):
                    break  # non-retryable
            if attempt < p.max_retries:
                delay = BACKOFF_BASE_S * (2 ** attempt)
                if status is not None:
                    delay = _retry_after(reply_headers.get("Retry-After"),
                                         delay)
                time.sleep(delay)
        raise RemoteBackendError(f"request failed after retries: {last_error}")

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def _post(self, payload: bytes, headers: dict):
        """One POST on the kept connection: (status, headers, body). Any
        failure closes the connection. A reused connection that the server
        dropped while idle fails before the status line; that request is
        sent once more, on a new connection."""
        with self._lock:
            conn, reused = self._conn, self._conn.sock is not None
            try:
                while True:
                    try:
                        conn.request("POST", self._target, payload, headers)
                        resp = conn.getresponse()
                        break
                    except (ConnectionResetError, BrokenPipeError):
                        if not reused:
                            raise
                        conn.close()
                        reused = False
                return resp.status, resp.headers, resp.read()
            except BaseException:
                conn.close()
                raise


def _connection(endpoint: str, timeout: float):
    """The connection, request target and per-request headers for POSTs to
    ``endpoint``, through the environment's proxy unless ``NO_PROXY``
    exempts the host. An http proxy gets the absolute URL as the target;
    an https endpoint is reached through a CONNECT tunnel."""
    url, port = _split_url(endpoint, ("http", "https"), "endpoint")
    host, https = url.hostname, url.scheme == "https"
    target = f"{url.path}/v1/chat/completions"
    proxies = urllib.request.getproxies()
    proxy = proxies.get(url.scheme) or proxies.get("all")
    if not proxy or urllib.request.proxy_bypass(host):
        conn_type = (http.client.HTTPSConnection if https else
                     http.client.HTTPConnection)
        return conn_type(host, port, timeout=timeout), target, {}
    purl, pport = _split_url(proxy if "//" in proxy else f"http://{proxy}",
                             ("http",), f"the proxy for {endpoint!r}")
    auth = {}
    if purl.username is not None:
        login = (f"{urllib.parse.unquote(purl.username)}:"
                 f"{urllib.parse.unquote(purl.password or '')}")
        auth["Proxy-Authorization"] = (
            "Basic " + base64.b64encode(login.encode()).decode())
    if https:
        conn = http.client.HTTPSConnection(purl.hostname, pport or 80,
                                           timeout=timeout)
        conn.set_tunnel(host, port, headers=auth)
        return conn, target, {}
    conn = http.client.HTTPConnection(purl.hostname, pport or 80,
                                      timeout=timeout)
    return conn, f"http://{url.netloc.rpartition('@')[2]}{target}", auth


def _split_url(text: str, schemes: Tuple[str, ...], what: str):
    """``text`` split by ``urlsplit``, and its port; ``ConfigError`` unless
    it has one of ``schemes``, a host, and a port that is a number if any."""
    url = urllib.parse.urlsplit(text)
    try:
        port = url.port
        usable = url.scheme in schemes and url.hostname
    except ValueError:  # a port that is not a number, or out of range
        usable = False
    if not usable:
        raise ConfigError(f"{what} must be an {' or '.join(schemes)} URL "
                          f"with a host, got {text!r}")
    return url, port


def _text(data: bytes) -> str:
    return data.decode("utf-8", errors="replace")


#: the first retry's delay in seconds, doubled for each later retry
BACKOFF_BASE_S = 0.5
#: the longest Retry-After delay honoured, in seconds; a longer one is cut
RETRY_AFTER_MAX_S = 60.0


def _retry_after(header: Optional[str], default: float) -> float:
    """The Retry-After seconds, at most ``RETRY_AFTER_MAX_S``, if they are
    a finite number >= 0, else ``default``."""
    try:
        seconds = float(header)
    except (TypeError, ValueError):
        return default
    if not 0 <= seconds < math.inf:
        return default
    return min(seconds, RETRY_AFTER_MAX_S)
