"""In-process OpenAI-compatible mock server for backend contract tests.

Runs a ThreadingHTTPServer on an ephemeral port. Responses can be scripted
per request (status, body, headers); unscripted requests get a canned
completion whose usage counts whitespace tokens, so ledger accounting can
be checked against what the server actually observed.

By default the server speaks HTTP/1.0 and closes each connection after one
response. ``keep_alive=True`` serves HTTP/1.1, so a client may send many
requests on one connection; ``drop_idle=True`` then closes each connection
after its reply without saying so, as a server that drops idle connections
does. The server counts the connections it accepts and records each
request's path and headers, so it can also stand in for an http proxy.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple


def _count_tokens(text: str) -> int:
    return len(text.split())


class MockLlmServer:
    def __init__(self, reply: str = "mock answer",
                 script: Optional[List[Tuple[int, dict, dict]]] = None,
                 keep_alive: bool = False, drop_idle: bool = False):
        self.reply = reply
        self.script = list(script or [])
        self.requests: List[dict] = []       # parsed JSON bodies, in order
        self.usages: List[dict] = []         # usage blocks actually served
        self.paths: List[str] = []           # request targets, in order
        self.headers: List[Dict[str, str]] = []
        self.connections = 0                 # TCP connections accepted
        connections_lock = threading.Lock()
        server = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1" if keep_alive else "HTTP/1.0"

            def setup(self):
                super().setup()
                with connections_lock:
                    server.connections += 1

            def _record(self):
                server.paths.append(self.path)
                server.headers.append(dict(self.headers))

            def do_CONNECT(self):  # noqa: N802 (stdlib naming)
                self._record()    # a proxy that refuses every tunnel
                self.send_error(502)

            def do_POST(self):  # noqa: N802 (stdlib naming)
                self._record()
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length) or b"{}")
                server.requests.append(body)
                if server.script:
                    status, payload, headers = server.script.pop(0)
                else:
                    status, payload, headers = 200, None, {}
                if payload is None:
                    prompt = body["messages"][0]["content"]
                    usage = {
                        "prompt_tokens": _count_tokens(prompt),
                        "completion_tokens": _count_tokens(server.reply),
                    }
                    server.usages.append(usage)
                    payload = {
                        "choices": [{"message": {"role": "assistant",
                                                 "content": server.reply}}],
                        "usage": usage,
                    }
                data = (payload if isinstance(payload, (bytes, str))
                        else json.dumps(payload))
                if isinstance(data, str):
                    data = data.encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                for k, v in headers.items():
                    self.send_header(k, v)
                self.end_headers()
                self.wfile.write(data)
                self.close_connection |= drop_idle

            def log_message(self, *args):
                pass

        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        # a client may hold a kept-alive connection open past the test
        self._httpd.block_on_close = not keep_alive
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        daemon=True)

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address
        return f"http://{host}:{port}"

    def __enter__(self) -> "MockLlmServer":
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._httpd.shutdown()
        self._httpd.server_close()
