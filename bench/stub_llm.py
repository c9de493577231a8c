"""Stub OpenAI-compatible chat-completions server for the benchmark.

Run as a child process of the benchmark, so that its CPU and interpreter
lock time stay out of the benchmark's own process:

    python3 bench/stub_llm.py

It prints its port on the first line of standard output and serves until its
standard input closes. Every completion takes ``STUB_DELAY_MS`` and
returns the same reply. A request is answered with ``503`` and
``Retry-After: 0`` the first time its body is seen if a hash of the body
selects it, about one body in ``STUB_FAIL_ONE_IN``. The set of refused
requests so depends only on the requests sent, not on their arrival order.
The server speaks HTTP/1.0 and closes each connection after one response,
as ``tests/mock_llm.py`` does.

``GET /stats`` returns the counters since the last ``POST /reset``, which also
forgets every body seen.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

REPLY = "the answer is forty two"
STUB_DELAY_MS = 5.0
STUB_FAIL_ONE_IN = 50
COMPLETIONS_PATH = "/v1/chat/completions"


def _count_tokens(text: str) -> int:
    return len(text.split())


class StubState:
    """Counters and the set of bodies seen, shared by handler threads."""

    def __init__(self):
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.seen = set()
            self.stats = {"posts": 0, "refused": 0, "answered": 0,
                          "req_bytes": 0, "prompt_tokens": 0}

    def admit(self, raw: bytes) -> bool:
        """Count one POST; False if it is to be refused with a 503."""
        digest = hashlib.sha256(raw).digest()
        refuse = int.from_bytes(digest[:8], "big") % STUB_FAIL_ONE_IN == 0
        with self.lock:
            self.stats["posts"] += 1
            self.stats["req_bytes"] += len(raw)
            if refuse and digest not in self.seen:
                self.seen.add(digest)
                self.stats["refused"] += 1
                return False
            self.stats["answered"] += 1
            return True

    def record_prompt(self, tokens: int) -> None:
        with self.lock:
            self.stats["prompt_tokens"] += tokens

    def snapshot(self) -> dict:
        with self.lock:
            return dict(self.stats)


def make_handler(state: StubState):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.0"

        def _send(self, status: int, payload: dict, headers=()) -> None:
            data = json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            for key, value in headers:
                self.send_header(key, value)
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self):  # noqa: N802 (stdlib naming)
            if self.path == "/stats":
                self._send(200, state.snapshot())
            else:
                self._send(404, {"error": "not found"})

        def do_POST(self):  # noqa: N802 (stdlib naming)
            raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if self.path == "/reset":
                state.reset()
                self._send(200, {"ok": True})
                return
            if self.path != COMPLETIONS_PATH:
                self._send(404, {"error": "not found"})
                return
            time.sleep(STUB_DELAY_MS / 1000.0)
            if not state.admit(raw):
                self._send(503, {"error": "overloaded"},
                           headers=(("Retry-After", "0"),))
                return
            prompt = json.loads(raw)["messages"][0]["content"]
            usage = {"prompt_tokens": _count_tokens(prompt),
                     "completion_tokens": _count_tokens(REPLY)}
            state.record_prompt(usage["prompt_tokens"])
            self._send(200, {
                "choices": [{"message": {"role": "assistant",
                                         "content": REPLY}}],
                "usage": usage,
            })

        def log_message(self, *args):
            pass

    return Handler


def main() -> int:
    state = StubState()
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(state))
    httpd.daemon_threads = True
    server = threading.Thread(target=httpd.serve_forever, daemon=True)
    server.start()
    print(httpd.server_address[1], flush=True)
    try:
        sys.stdin.read()  # returns when the parent closes the pipe or exits
    finally:
        httpd.shutdown()
        httpd.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
