"""Backend adapters for draft generation.

Three kinds: a local JSON text-generation server, a hosted single-message
chat-completions API, and a deterministic in-process mock.  Every call is
stateless: one prompt in, one draft out, no conversation history on the
wire.  Transient transport failures retry with exponential backoff; other
failures map to typed errors.  The hosted API key comes from the
environment only, never from config files.  Requests go out through the
standard library's http.client, through whatever proxy the environment
names when the connection opens.  No redirect is followed: a 3xx is a
refusal naming its status.  generate drafts one prompt, on a connection of
its own unless it is handed one; drafting drafts a matrix, and it alone
decides how each kind of backend runs: an HTTP backend keeps one
connection alive for the run.
"""

from __future__ import annotations

import base64
import http.client
import json
import math
import os
import select
import socket
import time
import urllib.parse
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing, contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from functools import partial
from typing import Callable, Iterator, Optional, Sequence, Union

from .grounding import CoordinateAlternative, RequiredFact, TokenPhrase, facts_from_input
from .model import ReportSectionKind, from_data
from .prompting import PromptSpec

__all__ = [
    "BackendKind",
    "Faithful",
    "DropFacts",
    "InjectCoordinate",
    "InjectName",
    "FaultProfile",
    "InputFacts",
    "BackendConfig",
    "backend_config_from_dict",
    "GeneratedDraft",
    "GatewayError",
    "TransportError",
    "ProtocolError",
    "BackendRefusal",
    "generate",
    "drafting",
    "mock_complete",
    "MOCK_CREATED_AT",
    "DEFAULT_API_KEY_ENV",
]


class BackendKind(Enum):
    LOCAL_GENERATE = "local_generate"
    HOSTED_CHAT = "hosted_chat"
    MOCK = "mock"


@dataclass(frozen=True)
class Faithful:
    """Restate every fact found in the prompt's input block."""


@dataclass(frozen=True)
class DropFacts:
    """Faithful, minus the last `count` facts of the restatement."""

    count: int

    def __post_init__(self):
        if self.count < 0:
            raise ValueError(f"DropFacts.count: expected a non-negative integer, got {self.count}")


@dataclass(frozen=True)
class InjectCoordinate:
    """Faithful, plus one coordinate pair, on the globe, the input never mentioned."""

    latitude: float
    longitude: float

    def __post_init__(self):
        if not (-90 <= self.latitude <= 90 and -180 <= self.longitude <= 180):
            raise ValueError(f"InjectCoordinate: ({self.latitude}, {self.longitude}) is off the globe")


@dataclass(frozen=True)
class InjectName:
    """Faithful, plus one person the input never mentioned."""

    name: str


FaultProfile = Union[Faithful, DropFacts, InjectCoordinate, InjectName]

DEFAULT_API_KEY_ENV = "CASEDRAFT_API_KEY"


@dataclass(frozen=True)
class BackendConfig:
    name: str
    kind: BackendKind
    endpoint_url: str = ""
    model_name: str = ""
    max_new_tokens: int = 512
    temperature: float = 0.7
    timeout: float = 120.0
    max_retries: int = 2
    retry_backoff: float = 0.5  # seconds; doubles per attempt
    api_key_env: str = DEFAULT_API_KEY_ENV
    fault: FaultProfile = field(default_factory=Faithful)

    def __post_init__(self):
        # a bad value would otherwise fail mid-run: no request sent or none
        # that can be, a sleep of negative length, a NaN that json.dumps
        # refuses on the wire, or a token budget no backend can meet
        for key, ok, expected in (
            ("max_retries", self.max_retries >= 0, "a non-negative integer"),
            ("max_new_tokens", self.max_new_tokens >= 1, "an integer of at least 1"),
            ("timeout", 0 < self.timeout < math.inf, "a finite number above 0"),
            ("retry_backoff", 0 <= self.retry_backoff < math.inf, "a finite number of at least 0"),
            ("temperature", math.isfinite(self.temperature), "a finite number"),
            ("endpoint_url", self.kind is not BackendKind.HOSTED_CHAT or self.endpoint_url,
             "a URL for hosted_chat"),
        ):
            if not ok:
                raise ValueError(f"BackendConfig.{key}: expected {expected}, got {getattr(self, key)!r}")


def backend_config_from_dict(name: str, d: dict) -> BackendConfig:
    """Decode one config-file entry, a BackendConfig document named by its
    key, with model.from_data; API keys never appear here.  Any error names
    the profile."""
    try:
        return from_data(BackendConfig, {**d, "name": name} if isinstance(d, dict) else d)
    except ValueError as exc:
        raise ValueError(f"profile {name!r}: {exc}") from None


@dataclass(frozen=True)
class GeneratedDraft:
    prompt_id: str
    backend_label: str
    text: str
    latency_s: float = field(metadata={"if_absent": 0.0})
    created_at: datetime
    token_estimate: Optional[int] = None


class GatewayError(Exception):
    """Base for backend failures."""


class TransportError(GatewayError):
    """Network-level failure that survived every retry, or a request that
    could not be sent at all."""


class ProtocolError(GatewayError):
    """The backend answered, but not in the shape the adapter expects."""


class BackendRefusal(GatewayError):
    """The backend answered with a non-success status."""


MOCK_CREATED_AT = datetime(1970, 1, 1, tzinfo=timezone.utc)


# ---------------------------------------------------------------------------
# deterministic mock

def _restate(fact: RequiredFact) -> str:
    coord_alts = [a for a in fact.alternatives if isinstance(a, CoordinateAlternative)]
    phrase_alts = [a for a in fact.alternatives if isinstance(a, TokenPhrase)]
    if fact.description.startswith("location cluster"):
        # centroid label means the records carry no place name; restate a
        # member coordinate, which always grounds
        member = coord_alts[-1] if coord_alts else None
        place = phrase_alts[0].text if phrase_alts and not phrase_alts[0].text.startswith("(") else None
        at = f"({member.latitude:.6f}, {member.longitude:.6f})" if member else ""
        if place:
            return f"Recorded activity at {place} {at}".rstrip()
        return f"Recorded activity at {at}".rstrip()
    if fact.description.endswith("identifier"):
        return f"identifier {phrase_alts[0].text}"
    return phrase_alts[0].text


class InputFacts:
    """The mock's facts of each distinct prompt input, derived once, and
    beside them the line restating each fact.  A matrix's prompts share few
    distinct inputs, and drafting shares one memo among its mock backends
    for as long as its context lasts.  Both are tuples, so no backend can
    change what another one reads."""

    def __init__(self) -> None:
        self._inputs: dict[tuple, tuple[tuple[RequiredFact, ...], tuple[str, ...]]] = {}

    def _derived(self, prompt: PromptSpec) -> tuple[tuple[RequiredFact, ...], tuple[str, ...]]:
        key = (prompt.section, prompt.input_format, prompt.topic, prompt.input_block())
        found = self._inputs.get(key)
        if found is None:
            facts = tuple(facts_from_input(*key))
            found = self._inputs[key] = (facts, tuple(map(_restate, facts)))
        return found

    def facts(self, prompt: PromptSpec) -> tuple[RequiredFact, ...]:
        return self._derived(prompt)[0]


def mock_complete(
    prompt: PromptSpec,
    fault: FaultProfile = Faithful(),
    inputs: Optional[InputFacts] = None,
) -> str:
    """Deterministic draft text for a prompt, no model involved.

    Faithful restates every fact of the input block, one line each.
    DropFacts(k) omits the last k lines; the Inject profiles add one
    fabricated statement at the end.  The facts and their restated lines
    come from `inputs`, or from a memo made for this call alone.
    """
    facts, restated = (inputs or InputFacts())._derived(prompt)
    lines = [f"Draft of the {prompt.section.value.replace('_', ' ')} section."]
    if prompt.section is ReportSectionKind.INTRODUCTION:
        qcount = sum(1 for f in facts if f.description.startswith("question"))
        lines.append(f"The mandate poses {qcount} investigative questions.")

    if isinstance(fault, DropFacts):
        restated = restated[: max(0, len(restated) - fault.count)]
    lines.extend(restated)

    if isinstance(fault, InjectCoordinate):
        lines.append(f"Relevant activity was also traced to ({fault.latitude:.6f}, {fault.longitude:.6f}).")
    elif isinstance(fault, InjectName):
        lines.append(f"The records further implicate {fault.name}.")

    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# HTTP adapters

_QUICKACK = getattr(socket, "TCP_QUICKACK", None)  # Linux only


class _Connection:
    """An HTTP backend's one connection, opened by its first request and
    kept alive for the next.  Opening reads the proxy that
    http_proxy/https_proxy/no_proxy name, once: an http URL goes to the
    proxy as an absolute URI, an https one through a CONNECT tunnel, and
    the proxy URL's credentials become Basic Proxy-Authorization.  A
    connection the peer has closed is reopened before a request goes out
    on it, and any failure closes it, so the next request opens a fresh
    one; no request is sent twice here."""

    def __init__(self, config: BackendConfig) -> None:
        self.url, self.timeout = _endpoint(config), config.timeout
        self._http: Optional[http.client.HTTPConnection] = None
        self._target = ""  # what the request line names
        self._headers: dict[str, str] = {}  # for the proxy

    def _open(self) -> http.client.HTTPConnection:
        parts = urllib.parse.urlsplit(self.url)
        if parts.scheme not in ("http", "https"):
            raise ValueError(f"unsupported URL scheme {parts.scheme!r} in {self.url!r}")
        https = parts.scheme == "https"
        self._target = urllib.parse.urlunsplit(("", "", parts.path, parts.query, ""))
        proxy = urllib.request.getproxies().get(parts.scheme)
        if not proxy or urllib.request.proxy_bypass(parts.netloc):
            cls = http.client.HTTPSConnection if https else http.client.HTTPConnection
            return cls(parts.netloc, timeout=self.timeout)
        via = urllib.parse.urlsplit(proxy if "://" in proxy else f"{parts.scheme}://{proxy}")
        if via.scheme not in ("http", "https"):
            raise ValueError(f"unsupported proxy scheme {via.scheme!r} in {proxy!r}")
        auth = {}
        if via.username and via.password:
            pair = f"{urllib.parse.unquote(via.username)}:{urllib.parse.unquote(via.password)}"
            auth["Proxy-Authorization"] = "Basic " + base64.b64encode(pair.encode()).decode("ascii")
        hostport = via.netloc.rpartition("@")[2]
        if https:
            tunnel = http.client.HTTPSConnection(hostport, timeout=self.timeout)
            tunnel.set_tunnel(parts.netloc, headers=auth)
            return tunnel
        self._target, self._headers = self.url, auth
        cls = http.client.HTTPSConnection if via.scheme == "https" else http.client.HTTPConnection
        return cls(hostport, timeout=self.timeout)

    def post(self, body: bytes, headers: dict[str, str]) -> tuple[int, bytes]:
        """One POST; returns the answer's status and its body, read in full
        whatever the status.  No redirect is followed: a 3xx comes back
        like any other answer."""
        if self._http is None:
            self._http = self._open()
        conn = self._http
        # urllib3's check before it reuses a socket: between answers a server
        # has nothing to send, so a socket that polls readable is one it closed
        if conn.sock is not None and select.select([conn.sock], [], [], 0)[0]:
            conn.close()
        try:
            conn.request("POST", self._target, body, {**self._headers, **headers})
            if _QUICKACK is not None:
                # a server like http.server's writes an answer's head and body
                # apart with Nagle's algorithm on, so its body waits for the
                # head's ACK, which a reused connection's delayed ACK would
                # hold back some 40 ms
                conn.sock.setsockopt(socket.IPPROTO_TCP, _QUICKACK, 1)
            with conn.getresponse() as response:
                return response.status, response.read()
        except BaseException:
            conn.close()
            raise

    def close(self) -> None:
        if self._http is not None:
            self._http.close()


def _post_json(connection: _Connection, payload: dict, config: BackendConfig,
               headers: Optional[dict] = None):
    """POST with retries on connection failures and timeouts; returns
    (body, latency_s).  Any other request failure, such as a URL without a
    scheme, fails at once."""
    body = json.dumps(payload, allow_nan=False).encode("utf-8")
    headers = {"Content-Type": "application/json", "User-Agent": "casedraft", **(headers or {})}
    last_exc: Optional[Exception] = None
    for attempt in range(config.max_retries + 1):
        started = time.monotonic()
        try:
            status, raw = connection.post(body, headers)
        except (OSError, http.client.BadStatusLine) as exc:
            # a connection failure or a timeout, on connect or on read: a refused
            # connection, a DNS or TLS failure, a server that closes without answering
            last_exc = exc
            if attempt < config.max_retries:
                time.sleep(config.retry_backoff * (2 ** attempt))
            continue
        except (ValueError, http.client.HTTPException) as exc:
            raise TransportError(f"{config.name}: request failed: {exc}") from exc
        latency = time.monotonic() - started
        if not 200 <= status < 300:
            snippet = raw.decode("utf-8", "replace")[:200]
            raise BackendRefusal(f"{config.name}: status {status}: {snippet}")
        try:
            return json.loads(raw), latency
        except ValueError as exc:
            raise ProtocolError(f"{config.name}: response is not JSON") from exc
    raise TransportError(
        f"{config.name}: unreachable after {config.max_retries + 1} attempts: {last_exc}"
    )


def _http_draft(config: BackendConfig, prompt: PromptSpec, text, latency: float,
                token_estimate=None) -> GeneratedDraft:
    """An HTTP backend's answer as a draft.  The text must be a non-blank
    string UTF-8 can encode (a lone surrogate cannot be), as the store
    writes it; a token estimate that is no JSON integer (true is none) or
    does not fit in 64 bits, as every stored integer does, is left out."""
    if not isinstance(text, str) or not text.strip():
        raise ProtocolError(f"{config.name}: backend returned empty text")
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise ProtocolError(f"{config.name}: backend returned text UTF-8 cannot encode") from None
    return GeneratedDraft(
        prompt_id=prompt.prompt_id,
        backend_label=config.name,
        text=text,
        latency_s=latency,
        created_at=datetime.now(timezone.utc),
        token_estimate=(token_estimate if type(token_estimate) is int
                        and 0 <= token_estimate < 2**63 else None),
    )


def _endpoint(config: BackendConfig) -> str:
    """The URL an HTTP backend's drafts are posted to."""
    if config.kind is BackendKind.LOCAL_GENERATE:
        base = (config.endpoint_url or "http://127.0.0.1:5001").rstrip("/")
        return base if base.endswith("/api/v1/generate") else f"{base}/api/v1/generate"
    base = config.endpoint_url.rstrip("/")
    return base if base.endswith("/chat/completions") else f"{base}/v1/chat/completions"


def _generate_local(
    config: BackendConfig, prompt: PromptSpec, connection: _Connection
) -> GeneratedDraft:
    payload = {
        "prompt": prompt.rendered_text,
        "max_length": config.max_new_tokens,
        "temperature": config.temperature,
    }
    body, latency = _post_json(connection, payload, config)
    try:
        text = body["results"][0]["text"]
    except (KeyError, IndexError, TypeError) as exc:
        raise ProtocolError(f"{config.name}: no results[0].text in response") from exc
    return _http_draft(config, prompt, text, latency)


def _generate_hosted(
    config: BackendConfig, prompt: PromptSpec, connection: _Connection
) -> GeneratedDraft:
    key = os.environ.get(config.api_key_env, "")
    if not key:
        raise GatewayError(
            f"{config.name}: no API key in environment variable {config.api_key_env}"
        )
    payload = {
        "model": config.model_name,
        "messages": [{"role": "user", "content": prompt.rendered_text}],
        "max_tokens": config.max_new_tokens,
        "temperature": config.temperature,
    }
    headers = {"Authorization": f"Bearer {key}"}
    body, latency = _post_json(connection, payload, config, headers)
    try:
        text = body["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise ProtocolError(f"{config.name}: no choices[0].message.content in response") from exc
    usage = body.get("usage")  # optional, and left out when it is no object
    estimate = usage.get("completion_tokens") if isinstance(usage, dict) else None
    return _http_draft(config, prompt, text, latency, estimate)


def generate(
    config: BackendConfig,
    prompt: PromptSpec,
    inputs: Optional[InputFacts] = None,
    connection: Optional[_Connection] = None,
) -> GeneratedDraft:
    """One stateless completion: exactly this prompt goes over the wire.
    A mock backend takes its input facts from `inputs` when given.  An HTTP
    backend sends on `connection` when given, drafting's for the run, and
    otherwise on a connection of its own, closed before the call returns."""
    if config.kind is BackendKind.MOCK:
        text = mock_complete(prompt, config.fault, inputs)
        return GeneratedDraft(
            prompt_id=prompt.prompt_id,
            backend_label=config.name,
            text=text,
            latency_s=0.0,
            created_at=MOCK_CREATED_AT,
            token_estimate=max(1, len(text) // 4),
        )
    draft = _generate_local if config.kind is BackendKind.LOCAL_GENERATE else _generate_hosted
    if connection is not None:
        return draft(config, prompt, connection)
    with closing(_Connection(config)) as own:
        return draft(config, prompt, own)


@contextmanager
def drafting(
    configs: Sequence[BackendConfig], prompts: Sequence[PromptSpec]
) -> Iterator[list[list[Callable[[], GeneratedDraft]]]]:
    """For each backend, one call per prompt, in the prompts' order, that
    returns the prompt's draft or raises GatewayError.  An HTTP backend
    sends its prompts in order from a worker of its own, one request in
    flight, on one connection kept alive for the run, so backends wait in
    parallel and a draft's latency_s is its own request's.  The worker
    reads the backend's proxy when its first request opens the connection.
    A mock drafts when called, on the caller's thread, from one InputFacts
    memo all mocks share.  Leaving the context cancels every backend's
    prompts not yet sent before it waits for any request in flight, so each
    backend sends at most the one it has, and then closes every
    connection."""
    inputs = InputFacts()
    pools: list[ThreadPoolExecutor] = []
    connections: list[_Connection] = []
    try:
        calls = []
        for config in configs:
            if config.kind is BackendKind.MOCK:
                calls.append([partial(generate, config, prompt, inputs) for prompt in prompts])
                continue
            pools.append(ThreadPoolExecutor(max_workers=1))
            connections.append(_Connection(config))
            calls.append([pools[-1].submit(generate, config, prompt, connection=connections[-1]).result
                          for prompt in prompts])
        yield calls
    finally:
        for pool in pools:
            pool.shutdown(wait=False, cancel_futures=True)
        for pool in pools:
            pool.shutdown()
        for connection in connections:
            connection.close()
