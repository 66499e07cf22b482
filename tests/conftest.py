"""Shared fixtures: golden excerpt texts, the reference bundle, HTTP stubs."""

from __future__ import annotations

import json
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Iterator

import pytest

from casedraft.ingest import (
    parse_device_profile,
    parse_lablog_locations,
    parse_lablog_messages,
    parse_mandate,
    parse_method_steps,
)
from casedraft.model import CaseBundle, EvidenceItem, ItemKind

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


def read_fixture(name: str) -> str:
    return DATA_DIR.joinpath(name).read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def golden_bundle() -> CaseBundle:
    """The reference case: two devices, three locations, three messages."""
    mandate, _ = parse_mandate(read_fixture("full_mandate.txt"))
    profile, _ = parse_device_profile(read_fixture("device_lablog.txt"))
    locations, _ = parse_lablog_locations(read_fixture("lablog_locations.txt"))
    messages, _ = parse_lablog_messages(read_fixture("lablog_messages.txt"))
    steps, _ = parse_method_steps(read_fixture("method_steps.txt"))
    return CaseBundle(
        mandate=mandate,
        items=(
            EvidenceItem(
                item_id="S1",
                kind=ItemKind.PHYSICAL_DEVICE,
                vendor="Samsung",
                model="Galaxy S6 Edge",
                storage_size=32000000000,
                acquisition_methods=("logical", "physical"),
            ),
            EvidenceItem(
                item_id="IP6",
                kind=ItemKind.PHYSICAL_DEVICE,
                vendor="Apple",
                model="iPhone 6",
                acquisition_methods=("logical", "file system"),
            ),
        ),
        device_profiles={"S1": profile},
        locations={"S1": tuple(locations)},
        messages={"IP6": tuple(messages)},
        method_steps=tuple(steps),
    )


class StubHandler(BaseHTTPRequestHandler):
    """Records every request, with its method, raw body bytes and the
    client port of its connection; serves canned generate/chat responses,
    to a GET as to a POST.  A CONNECT is recorded and answered 502.

    Each request is held for the state's `delay` seconds before it is
    answered, or for `path_delay[path]` seconds where its path has one, or
    for `delay_on[number]` seconds where its overall number has one, and
    counts as in flight from its arrival until its answer is ready.  `fail_on` holds overall request numbers, counting from 1, or
    (path, number) pairs counting that path's requests, to answer with 503
    and the body `fail_body`.  `redirect` maps a path to the (status,
    Location) a POST to it is answered with.  `texts` maps (path, number)
    pairs to the draft text to answer with in place of the canned one.

    Answers are HTTP/1.0, one connection each, unless `keep_alive` is set:
    then they are HTTP/1.1 and the connection carries the client's next
    request.  With `close_after_answer` as well, the server closes each
    connection after its first answer without saying so in a header; the
    answer and the close go out in one segment (TCP_CORK), so the close has
    arrived by the time the client has read the answer.  `connections`
    counts the connections accepted.
    """

    server_version = "stub/0"

    def setup(self) -> None:
        super().setup()
        state = self.server.state  # type: ignore[attr-defined]
        with state["lock"]:
            state["connections"] += 1
        if state["keep_alive"]:
            self.protocol_version = "HTTP/1.1"

    def _close_with_answer(self) -> None:
        if self.server.state["close_after_answer"]:  # type: ignore[attr-defined]
            self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_CORK, 1)
            self.close_connection = True

    def do_CONNECT(self) -> None:  # noqa: N802 (http.server API)
        state = self.server.state  # type: ignore[attr-defined]
        with state["lock"]:
            state["requests"].append({"method": self.command, "path": self.path,
                                      "headers": {k.lower(): v for k, v in self.headers.items()}})
        self.send_response(502)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        state = self.server.state  # type: ignore[attr-defined]
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length)
        with state["lock"]:
            state["counter"] += 1
            n = state["counter"]
            path_n = state["path_counter"][self.path] = state["path_counter"].get(self.path, 0) + 1
            state["requests"].append(
                {
                    "n": n,
                    "method": self.command,
                    "path": self.path,
                    "headers": {k.lower(): v for k, v in self.headers.items()},
                    "body": json.loads(raw) if raw else None,
                    "raw": raw,
                    "port": self.client_address[1],
                }
            )
            flight = state["in_flight"]  # path -> requests in flight
            flight[self.path] = flight.get(self.path, 0) + 1
            state["peak_in_flight"] = max(state["peak_in_flight"], sum(flight.values()))
            peaks = state["peak_in_flight_by_path"]
            peaks[self.path] = max(peaks.get(self.path, 0), flight[self.path])
        time.sleep(state["delay_on"].get(n, state["path_delay"].get(self.path, state["delay"])))
        # no longer in flight once the answer is ready, so that a client's
        # next request never overlaps this one
        with state["lock"]:
            flight[self.path] -= 1
        self._close_with_answer()
        if n in state["fail_on"] or (self.path, path_n) in state["fail_on"]:
            self.send_response(503)
            self.send_header("Content-Length", str(len(state["fail_body"])))
            self.end_headers()
            self.wfile.write(state["fail_body"])
            return
        if self.command == "POST" and self.path in state["redirect"]:
            status, location = state["redirect"][self.path]
            self.send_response(status)
            self.send_header("Location", location)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        text = state["texts"].get((self.path, path_n))
        if state["raw_response"] is not None:
            data = state["raw_response"]
        elif "chat/completions" in self.path:
            data = json.dumps(
                {
                    "choices": [
                        {"message": {"role": "assistant", "content": text or f"hosted draft {n}"}}
                    ],
                    "usage": {"completion_tokens": 7},
                }
            ).encode()
        else:
            data = json.dumps({"results": [{"text": text or f"local draft {n}"}]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    do_GET = do_POST  # noqa: N815 (http.server API)

    def log_message(self, *args) -> None:
        pass


class _QuietServer(ThreadingHTTPServer):
    def handle_error(self, request, client_address) -> None:
        # a client that timed out has gone before its answer is written
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)


class StubServer:
    def __init__(self) -> None:
        self._httpd = _QuietServer(("127.0.0.1", 0), StubHandler)
        self._httpd.state = {  # type: ignore[attr-defined]
            "lock": threading.Lock(),
            "counter": 0,
            "path_counter": {},
            "requests": [],
            "fail_on": set(),
            "fail_body": b"backend overloaded",
            "redirect": {},
            "texts": {},
            "raw_response": None,
            "delay": 0.0,
            "path_delay": {},
            "delay_on": {},
            "keep_alive": False,
            "close_after_answer": False,
            "connections": 0,
            "in_flight": {},
            "peak_in_flight": 0,
            "peak_in_flight_by_path": {},
        }
        # a short poll, so that shutdown returns within 10 ms, not 0.5 s
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )
        self._thread.start()

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    @property
    def state(self) -> dict:
        return self._httpd.state  # type: ignore[attr-defined]

    @property
    def requests(self) -> list[dict]:
        return self.state["requests"]

    def shutdown(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()


@pytest.fixture()
def stub_server() -> Iterator[StubServer]:
    server = StubServer()
    yield server
    server.shutdown()
