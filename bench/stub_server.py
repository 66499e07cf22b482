"""Stub model server for the stub-http workload, run as its own process.

    python3 bench/stub_server.py --responses FILE --delay 0.010 --api-key KEY

FILE maps the SHA-256 hex digest of a prompt to the draft text to return.
The server answers both wire shapes casedraft speaks: the local
``/api/v1/generate`` endpoint and the hosted ``/v1/chat/completions``
endpoint (which must carry ``Authorization: Bearer KEY``).  Each answer is
held for the fixed delay, a stand-in for a model round trip.  Connections
are kept alive (HTTP/1.1), so a client that reuses them is seen doing so.

``GET /stats`` returns the POST requests served, the connections that
carried at least one of them and the peak number in flight; ``GET
/stats?reset=1`` also restarts the peak.  The server listens on 127.0.0.1
at a free port, prints ``PORT <n>`` once it is listening, and runs until it
is terminated or its standard input closes (so it never outlives the
benchmark that started it).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class Stats:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.requests = 0
        self.connections = 0
        self.in_flight = 0
        self.peak_in_flight = 0


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "casedraft-bench-stub/1"

    def setup(self) -> None:
        super().setup()
        self.carried_post = False

    def _send(self, status: int, doc: dict) -> None:
        data = json.dumps(doc).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        stats: Stats = self.server.stats  # type: ignore[attr-defined]
        if not self.path.startswith("/stats"):
            self._send(404, {"error": "not found"})
            return
        with stats.lock:
            doc = {
                "requests": stats.requests,
                "connections": stats.connections,
                "peak_in_flight": stats.peak_in_flight,
            }
            if "reset=1" in self.path:
                stats.peak_in_flight = stats.in_flight
        self.close_connection = True
        self._send(200, doc)

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        server = self.server
        stats: Stats = server.stats  # type: ignore[attr-defined]
        raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        with stats.lock:
            stats.requests += 1
            if not self.carried_post:
                self.carried_post = True
                stats.connections += 1
            stats.in_flight += 1
            stats.peak_in_flight = max(stats.peak_in_flight, stats.in_flight)
        try:
            try:
                body = json.loads(raw)
                if self.path.endswith("/api/v1/generate"):
                    prompt, hosted = body["prompt"], False
                elif self.path.endswith("/v1/chat/completions"):
                    if self.headers.get("Authorization") != f"Bearer {server.api_key}":  # type: ignore[attr-defined]
                        self._send(401, {"error": "bad key"})
                        return
                    prompt, hosted = body["messages"][0]["content"], True
                else:
                    self._send(404, {"error": "not found"})
                    return
            except (ValueError, KeyError, IndexError, TypeError):
                self._send(400, {"error": "malformed request"})
                return
            text = server.responses.get(hashlib.sha256(prompt.encode("utf-8")).hexdigest())  # type: ignore[attr-defined]
            if text is None:
                self._send(422, {"error": "unknown prompt"})
                return
            time.sleep(server.delay)  # type: ignore[attr-defined]
            if hosted:
                doc = {
                    "choices": [{"message": {"role": "assistant", "content": text}}],
                    "usage": {"completion_tokens": max(1, len(text) // 4)},
                }
            else:
                doc = {"results": [{"text": text}]}
            self._send(200, doc)
        finally:
            with stats.lock:
                stats.in_flight -= 1

    def log_message(self, *args) -> None:
        pass


def main() -> None:
    parser = argparse.ArgumentParser(description="stub model server")
    parser.add_argument("--responses", required=True)
    parser.add_argument("--delay", type=float, required=True)
    parser.add_argument("--api-key", required=True)
    args = parser.parse_args()

    with open(args.responses, encoding="utf-8") as fh:
        responses = json.load(fh)
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    httpd.daemon_threads = True
    httpd.stats = Stats()  # type: ignore[attr-defined]
    httpd.responses = responses  # type: ignore[attr-defined]
    httpd.delay = args.delay  # type: ignore[attr-defined]
    httpd.api_key = args.api_key  # type: ignore[attr-defined]
    print(f"PORT {httpd.server_address[1]}", flush=True)
    threading.Thread(target=lambda: (sys.stdin.read(), os._exit(0)), daemon=True).start()
    try:
        httpd.serve_forever()
    finally:
        httpd.server_close()


if __name__ == "__main__":
    main()
