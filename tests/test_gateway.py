"""Backends: mock behavior, fault profiles, HTTP protocol details."""

from __future__ import annotations

import base64
import contextlib
import json
import math
import os
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path

import pytest

from casedraft import gateway
from casedraft.gateway import (
    DEFAULT_API_KEY_ENV,
    MOCK_CREATED_AT,
    BackendConfig,
    BackendKind,
    BackendRefusal,
    DropFacts,
    Faithful,
    GatewayError,
    GeneratedDraft,
    InjectCoordinate,
    InjectName,
    InputFacts,
    ProtocolError,
    TransportError,
    backend_config_from_dict,
    drafting,
    generate,
    mock_complete,
)
from casedraft.grounding import facts_from_input
from casedraft.ingest import SourceFormat
from casedraft.model import CaseBundle, Mandate, ReportSectionKind, bundle_to_json, from_data, to_data
from casedraft.pipeline import run_experiment
from casedraft.prompting import (
    Placement,
    PromptVariant,
    build_matrix,
    build_prompt,
    render_input,
)


def mock_config(fault=None) -> BackendConfig:
    return BackendConfig(
        name="mock", kind=BackendKind.MOCK, fault=fault or Faithful()
    )


@pytest.fixture()
def intro_prompt(golden_bundle):
    text = render_input(golden_bundle, ReportSectionKind.INTRODUCTION, SourceFormat.MANDATE_TEXT)
    return build_prompt(
        ReportSectionKind.INTRODUCTION,
        SourceFormat.MANDATE_TEXT,
        text,
        PromptVariant(placement=Placement.REQUEST_LAST),
    )


# --- config -----------------------------------------------------------------

# the tags are the config format: renaming a fault class must not change them
@pytest.mark.parametrize("fault, expected", [
    ("faithful", Faithful()),
    ({"kind": "faithful"}, Faithful()),
    ({"kind": "drop_facts", "count": 2}, DropFacts(2)),
    ({"kind": "inject_coordinate", "latitude": 1.5, "longitude": -2}, InjectCoordinate(1.5, -2)),
    ({"kind": "inject_name", "name": "Mr Moriarty"}, InjectName("Mr Moriarty")),
])
def test_backend_config_from_dict_parses_fault_profiles(fault, expected):
    config = backend_config_from_dict("m", {"kind": "mock", "fault": fault})
    assert (config.kind, config.fault) == (BackendKind.MOCK, expected)


def test_a_bare_fault_name_is_a_fault_without_parameters():
    assert backend_config_from_dict("m", {"kind": "mock"}).fault == Faithful()
    with pytest.raises(ValueError) as raised:
        backend_config_from_dict("m", {"kind": "mock", "fault": "drop_facts"})
    assert str(raised.value) == "profile 'm': DropFacts.count: missing"


def test_backend_config_ignores_unknown_keys():
    cfg = backend_config_from_dict("m", {"kind": "mock", "concurrency": 4, "colour": "blue"})
    assert cfg == BackendConfig("m", BackendKind.MOCK)


_KINDS = "expected one of local_generate, hosted_chat, mock"


def test_backend_config_rejects_unknown_kind():
    with pytest.raises(ValueError) as raised:
        backend_config_from_dict("m", {"kind": "quantum"})
    assert str(raised.value) == f"profile 'm': BackendConfig.kind: {_KINDS}, got 'quantum'"


@pytest.mark.parametrize("entry, problem", [
    ({}, "missing"),
    ({"kind": 5}, f"{_KINDS}, got 5"),
    ({"kind": None}, f"{_KINDS}, got None"),
    ({"kind": ["mock"]}, f"{_KINDS}, got ['mock']"),
    ({"kind": "MOCK"}, f"{_KINDS}, got 'MOCK'"),
])
def test_backend_config_missing_or_unknown_kind_names_profile_and_kinds(entry, problem):
    with pytest.raises(ValueError) as raised:
        backend_config_from_dict("m", entry)
    assert str(raised.value) == f"profile 'm': BackendConfig.kind: {problem}"


def test_backend_config_rejects_a_negative_max_retries():
    with pytest.raises(ValueError) as raised:
        backend_config_from_dict("neg", {"kind": "local_generate", "max_retries": -1})
    assert str(raised.value) == (
        "profile 'neg': BackendConfig.max_retries: expected a non-negative integer, got -1"
    )
    assert backend_config_from_dict("m", {"kind": "local_generate", "max_retries": 0}).max_retries == 0


@pytest.mark.parametrize("key, expected, values", [
    ("timeout", "a finite number above 0", (0, -1.5, math.nan, math.inf)),
    ("retry_backoff", "a finite number of at least 0", (-1, -0.001, math.nan, math.inf)),
    ("temperature", "a finite number", (math.nan, math.inf, -math.inf)),
    ("max_new_tokens", "an integer of at least 1", (0, -5)),
])
def test_backend_config_rejects_an_out_of_range_number(key, expected, values):
    for value in values:
        with pytest.raises(ValueError) as raised:
            backend_config_from_dict("neg", {"kind": "local_generate", key: value})
        assert str(raised.value) == f"profile 'neg': BackendConfig.{key}: expected {expected}, got {value}"
    edges = {"timeout": 0.001, "retry_backoff": 0, "temperature": -2.5, "max_new_tokens": 1}
    config = backend_config_from_dict("m", {"kind": "local_generate", key: edges[key]})
    assert getattr(config, key) == edges[key]


def test_a_hosted_chat_profile_needs_an_endpoint():
    # without one, every draft would fail on the relative URL '/v1/chat/completions'
    for entry in ({"kind": "hosted_chat"}, {"kind": "hosted_chat", "endpoint_url": ""}):
        with pytest.raises(ValueError) as raised:
            backend_config_from_dict("h", entry)
        assert str(raised.value) == (
            "profile 'h': BackendConfig.endpoint_url: expected a URL for hosted_chat, got ''"
        )
    config = backend_config_from_dict("h", {"kind": "hosted_chat", "endpoint_url": "http://x"})
    assert config.endpoint_url == "http://x"
    # the local backend keeps its default endpoint
    assert backend_config_from_dict("l", {"kind": "local_generate"}).endpoint_url == ""


@pytest.mark.parametrize("key, expected, value", [
    *[(key, "an integer", value) for key in ("max_retries", "max_new_tokens")
      for value in (True, "5", 1.9, None)],
    *[(key, "a number", value) for key in ("timeout", "temperature", "retry_backoff")
      for value in (True, "5", None)],
])
def test_backend_config_number_fields_take_only_their_json_type(key, expected, value):
    with pytest.raises(ValueError) as raised:
        backend_config_from_dict("m", {"kind": "local_generate", key: value})
    assert str(raised.value) == f"profile 'm': BackendConfig.{key}: expected {expected}, got {value!r}"


@pytest.mark.parametrize("key", ["timeout", "temperature", "retry_backoff"])
def test_backend_config_number_fields_keep_an_integer(key):
    value = getattr(backend_config_from_dict("m", {"kind": "local_generate", key: 3}), key)
    assert value == 3 and type(value) is int


# --- mock backend --------------------------------------------------------------

def test_mock_is_deterministic(intro_prompt):
    a = generate(mock_config(), intro_prompt)
    b = generate(mock_config(), intro_prompt)
    assert a.text == b.text
    assert a.latency_s == 0.0
    assert a.created_at == MOCK_CREATED_AT == datetime(1970, 1, 1, tzinfo=timezone.utc)
    assert a.prompt_id == intro_prompt.prompt_id
    assert a.backend_label == "mock"


def test_input_facts_are_shared_by_prompts_of_one_input(golden_bundle, intro_prompt):
    text = render_input(golden_bundle, ReportSectionKind.INTRODUCTION, SourceFormat.MANDATE_TEXT)
    request_first = build_prompt(
        ReportSectionKind.INTRODUCTION, SourceFormat.MANDATE_TEXT, text,
        PromptVariant(placement=Placement.REQUEST_FIRST),
    )
    inputs = InputFacts()
    facts = inputs.facts(intro_prompt)
    assert isinstance(facts, tuple) and facts
    assert inputs.facts(request_first) is facts
    for fault in (Faithful(), DropFacts(2), InjectName("Mr Moriarty")):
        assert mock_complete(request_first, fault, inputs) == mock_complete(request_first, fault)


def test_mock_embeds_question_count(intro_prompt):
    draft = generate(mock_config(), intro_prompt)
    assert "5 investigative questions" in draft.text


def test_mock_restates_every_question(golden_bundle, intro_prompt):
    draft = generate(mock_config(), intro_prompt)
    for question in golden_bundle.mandate.questions:
        assert question in draft.text


def test_drop_facts_on_bare_five_question_mandate():
    questions = tuple(f"What happened at site {n}?" for n in ("A", "B", "C", "D", "E"))
    bundle = CaseBundle(mandate=Mandate(description="d", questions=questions))
    text = render_input(bundle, ReportSectionKind.INTRODUCTION, SourceFormat.MANDATE_TEXT)
    prompt = build_prompt(
        ReportSectionKind.INTRODUCTION,
        SourceFormat.MANDATE_TEXT,
        text,
        PromptVariant(placement=Placement.REQUEST_LAST),
    )
    draft = generate(mock_config(DropFacts(1)), prompt)
    restated = [q for q in questions if q in draft.text]
    assert len(restated) == 4
    assert questions[4] not in draft.text  # facts drop from the tail


def test_inject_coordinate_appends_fabricated_position(intro_prompt):
    draft = generate(mock_config(InjectCoordinate(40.7128, -74.0060)), intro_prompt)
    assert "(40.712800, -74.006000)" in draft.text


def test_inject_name_appends_fabricated_person(intro_prompt):
    draft = generate(mock_config(InjectName("Mr Moriarty")), intro_prompt)
    assert "Mr Moriarty" in draft.text


def test_mock_token_estimate(intro_prompt):
    draft = generate(mock_config(), intro_prompt)
    assert draft.token_estimate == max(1, len(draft.text) // 4)


def test_draft_to_dict_round_trips_created_at(intro_prompt):
    d = to_data(generate(mock_config(), intro_prompt))
    assert d["created_at"] == "1970-01-01T00:00:00+00:00"
    assert json.dumps(d)  # serializable


# --- local generate endpoint -----------------------------------------------------

def test_local_generate_wire_format(stub_server, intro_prompt):
    cfg = BackendConfig(
        name="local", kind=BackendKind.LOCAL_GENERATE,
        endpoint_url=stub_server.url, max_retries=0,
        max_new_tokens=128, temperature=0.25,
    )
    draft = generate(cfg, intro_prompt)
    assert draft.text == "local draft 1"
    assert draft.latency_s > 0.0
    request = stub_server.requests[0]
    assert request["path"] == "/api/v1/generate"
    assert sorted(request["body"].keys()) == ["max_length", "prompt", "temperature"]
    assert request["body"]["prompt"] == intro_prompt.rendered_text
    assert request["body"]["max_length"] == 128
    assert request["body"]["temperature"] == 0.25
    payload = {"prompt": intro_prompt.rendered_text, "max_length": 128, "temperature": 0.25}
    assert request["raw"] == json.dumps(payload, allow_nan=False).encode()
    assert request["headers"]["content-type"] == "application/json"


def test_local_generate_is_stateless(stub_server, golden_bundle):
    cfg = BackendConfig(
        name="local", kind=BackendKind.LOCAL_GENERATE,
        endpoint_url=stub_server.url, max_retries=0,
    )
    matrix = build_matrix(golden_bundle)
    first = generate(cfg, matrix[0])
    generate(cfg, matrix[1])
    second_payload = stub_server.requests[1]["body"]["prompt"]
    assert first.text not in second_payload
    assert matrix[0].rendered_text != second_payload


def test_local_generate_refusal_on_http_error(stub_server, intro_prompt):
    body = "".join(chr(ord("a") + i % 26) for i in range(500))
    stub_server.state["fail_on"] = {1}
    stub_server.state["fail_body"] = body.encode()
    cfg = BackendConfig(
        name="local", kind=BackendKind.LOCAL_GENERATE,
        endpoint_url=stub_server.url, max_retries=0,
    )
    with pytest.raises(BackendRefusal) as excinfo:
        generate(cfg, intro_prompt)
    assert str(excinfo.value) == f"local: status 503: {body[:200]}"
    assert len(stub_server.requests) == 1  # no retry on HTTP status errors


def test_local_generate_protocol_error_on_bad_shape(stub_server, intro_prompt):
    stub_server.state["raw_response"] = json.dumps({"unexpected": True}).encode()
    cfg = BackendConfig(
        name="local", kind=BackendKind.LOCAL_GENERATE,
        endpoint_url=stub_server.url, max_retries=0,
    )
    with pytest.raises(ProtocolError):
        generate(cfg, intro_prompt)


def test_local_generate_protocol_error_on_non_json(stub_server, intro_prompt):
    stub_server.state["raw_response"] = b"<html>not json</html>"
    cfg = BackendConfig(
        name="local", kind=BackendKind.LOCAL_GENERATE,
        endpoint_url=stub_server.url, max_retries=0,
    )
    with pytest.raises(ProtocolError):
        generate(cfg, intro_prompt)


def test_transport_error_after_retries(intro_prompt):
    cfg = BackendConfig(
        name="dead", kind=BackendKind.LOCAL_GENERATE,
        endpoint_url="http://127.0.0.1:9",  # discard port: connection refused
        max_retries=1, retry_backoff=0.01, timeout=0.5,
    )
    with pytest.raises(TransportError) as excinfo:
        generate(cfg, intro_prompt)
    assert "2 attempts" in str(excinfo.value)


def test_a_read_timeout_is_retried(stub_server, intro_prompt):
    stub_server.state["delay"] = 1.0
    cfg = BackendConfig(
        name="slow", kind=BackendKind.LOCAL_GENERATE,
        endpoint_url=stub_server.url, max_retries=1, retry_backoff=0.01, timeout=0.25,
    )
    with pytest.raises(TransportError) as excinfo:
        generate(cfg, intro_prompt)
    assert "2 attempts" in str(excinfo.value)
    assert len(stub_server.requests) == 2


def test_a_server_that_closes_without_answering_is_retried(intro_prompt):
    accepted = []
    with socket.create_server(("127.0.0.1", 0)) as listener:
        listener.settimeout(5)

        def hang_up():
            for _ in range(2):
                conn, _ = listener.accept()
                with conn:
                    conn.recv(1 << 16)
                accepted.append(conn)

        thread = threading.Thread(target=hang_up, daemon=True)
        thread.start()
        cfg = BackendConfig(
            name="rude", kind=BackendKind.LOCAL_GENERATE,
            endpoint_url=f"http://127.0.0.1:{listener.getsockname()[1]}",
            max_retries=1, retry_backoff=0.01, timeout=2,
        )
        with pytest.raises(TransportError) as excinfo:
            generate(cfg, intro_prompt)
        thread.join(5)
    assert "2 attempts" in str(excinfo.value)
    assert len(accepted) == 2


def test_an_answer_cut_short_fails_at_once(intro_prompt):
    """A body shorter than its Content-Length is an HTTPException but no
    BadStatusLine: the server answered, so the POST is not retried."""
    accepted = []
    with socket.create_server(("127.0.0.1", 0)) as listener:
        listener.settimeout(5)

        def cut_short():
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(5)
                conn.recv(1 << 16)
                conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{}")
                conn.shutdown(socket.SHUT_WR)
                while conn.recv(1 << 16):  # until the client hangs up
                    pass
            accepted.append(conn)

        thread = threading.Thread(target=cut_short, daemon=True)
        thread.start()
        cfg = BackendConfig(
            name="short", kind=BackendKind.LOCAL_GENERATE,
            endpoint_url=f"http://127.0.0.1:{listener.getsockname()[1]}",
            max_retries=1, retry_backoff=0.01, timeout=1,
        )
        with pytest.raises(TransportError, match="short: request failed"):
            generate(cfg, intro_prompt)
        thread.join(5)
    assert len(accepted) == 1


@pytest.mark.parametrize("endpoint", ["{host}:{port}", "ftp://{host}:{port}"])
def test_a_url_with_no_or_an_unsupported_scheme_fails_at_once(endpoint, stub_server, intro_prompt):
    host, port = stub_server.url.removeprefix("http://").split(":")
    cfg = BackendConfig(
        name="bad", kind=BackendKind.LOCAL_GENERATE,
        endpoint_url=endpoint.format(host=host, port=port), max_retries=2, retry_backoff=1.0,
    )
    started = time.monotonic()
    with pytest.raises(TransportError, match="bad: request failed"):
        generate(cfg, intro_prompt)
    assert time.monotonic() - started < 0.9  # no backoff slept
    assert stub_server.requests == []


def test_a_draft_goes_through_the_proxy_the_environment_names(stub_server, intro_prompt, monkeypatch):
    for name in ("http_proxy", "HTTP_PROXY", "no_proxy", "NO_PROXY", "REQUEST_METHOD"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("HTTP_PROXY", stub_server.url)
    cfg = BackendConfig(
        name="local", kind=BackendKind.LOCAL_GENERATE,
        endpoint_url="http://backend.invalid", max_retries=0,
    )
    draft = generate(cfg, intro_prompt)
    assert draft.text == "local draft 1"
    assert [r["path"] for r in stub_server.requests] == ["http://backend.invalid/api/v1/generate"]


def test_a_host_no_proxy_names_is_sent_to_directly(stub_server, intro_prompt, monkeypatch):
    for name in ("http_proxy", "HTTP_PROXY", "no_proxy", "NO_PROXY", "REQUEST_METHOD"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("HTTP_PROXY", "http://127.0.0.1:9")  # discard port: refused
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    cfg = BackendConfig(
        name="local", kind=BackendKind.LOCAL_GENERATE,
        endpoint_url=stub_server.url, max_retries=0,
    )
    assert generate(cfg, intro_prompt).text == "local draft 1"
    assert [r["path"] for r in stub_server.requests] == ["/api/v1/generate"]


# --- hosted chat endpoint ---------------------------------------------------------

def test_hosted_chat_wire_format(stub_server, intro_prompt, monkeypatch):
    monkeypatch.setenv(DEFAULT_API_KEY_ENV, "sk-unit-test")
    cfg = BackendConfig(
        name="hosted", kind=BackendKind.HOSTED_CHAT,
        endpoint_url=stub_server.url, model_name="test-model", max_retries=0,
    )
    draft = generate(cfg, intro_prompt)
    assert draft.text == "hosted draft 1"
    assert draft.token_estimate == 7
    request = stub_server.requests[0]
    assert request["path"] == "/v1/chat/completions"
    assert sorted(request["body"].keys()) == ["max_tokens", "messages", "model", "temperature"]
    assert request["body"]["model"] == "test-model"
    messages = request["body"]["messages"]
    assert len(messages) == 1
    assert messages[0]["role"] == "user"
    assert messages[0]["content"] == intro_prompt.rendered_text
    assert request["headers"]["authorization"] == "Bearer sk-unit-test"


@pytest.mark.parametrize("usage, estimate", [
    ({"completion_tokens": 7}, 7),
    ("n/a", None),
    ([1], None),
    (None, None),
    ({}, None),
    ({"completion_tokens": True}, None),
    ({"completion_tokens": 7.0}, None),
    ({"completion_tokens": "7"}, None),
    ({"completion_tokens": -1}, None),
    ({"completion_tokens": 2**63}, None),
    ({"completion_tokens": 10**30}, None),
    ({"completion_tokens": 2**63 - 1}, 2**63 - 1),
])
def test_hosted_chat_keeps_only_an_integer_token_count(
    stub_server, intro_prompt, monkeypatch, usage, estimate
):
    monkeypatch.setenv(DEFAULT_API_KEY_ENV, "sk-unit-test")
    stub_server.state["raw_response"] = json.dumps(
        {"choices": [{"message": {"content": "hosted draft"}}], "usage": usage}
    ).encode()
    cfg = BackendConfig(
        name="hosted", kind=BackendKind.HOSTED_CHAT,
        endpoint_url=stub_server.url, model_name="test-model", max_retries=0,
    )
    draft = generate(cfg, intro_prompt)
    assert draft.token_estimate == estimate and type(draft.token_estimate) is type(estimate)
    # the draft `casedraft generate` writes reads back as `casedraft score` reads it
    assert from_data(GeneratedDraft, to_data(draft)) == draft


def test_hosted_chat_requires_env_key(stub_server, intro_prompt, monkeypatch):
    monkeypatch.delenv(DEFAULT_API_KEY_ENV, raising=False)
    cfg = BackendConfig(
        name="hosted", kind=BackendKind.HOSTED_CHAT,
        endpoint_url=stub_server.url, model_name="test-model", max_retries=0,
    )
    with pytest.raises(GatewayError):
        generate(cfg, intro_prompt)
    assert stub_server.requests == []  # nothing sent without a key


def test_hosted_chat_honors_custom_key_env(stub_server, intro_prompt, monkeypatch):
    monkeypatch.delenv(DEFAULT_API_KEY_ENV, raising=False)
    monkeypatch.setenv("OTHER_KEY", "sk-other")
    cfg = BackendConfig(
        name="hosted", kind=BackendKind.HOSTED_CHAT,
        endpoint_url=stub_server.url, model_name="test-model",
        api_key_env="OTHER_KEY", max_retries=0,
    )
    generate(cfg, intro_prompt)
    assert stub_server.requests[0]["headers"]["authorization"] == "Bearer sk-other"


@pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
@pytest.mark.parametrize("kind, path", [
    (BackendKind.LOCAL_GENERATE, "/api/v1/generate"),
    (BackendKind.HOSTED_CHAT, "/v1/chat/completions"),
])
def test_every_3xx_is_a_refusal_after_one_post(
    kind, path, status, stub_server, intro_prompt, monkeypatch
):
    # a redirect followed would send the key on, and store whatever the
    # next URL answers as this prompt's draft
    monkeypatch.setenv(DEFAULT_API_KEY_ENV, "sk-unit-test")
    stub_server.state["redirect"] = {path: (status, stub_server.url + "/v2" + path)}
    cfg = BackendConfig(name="b", kind=kind, endpoint_url=stub_server.url, max_retries=0)
    with pytest.raises(BackendRefusal, match=f"^b: status {status}: "):
        generate(cfg, intro_prompt)
    [request] = stub_server.requests
    assert (request["method"], request["path"]) == ("POST", path)


@pytest.mark.parametrize("fault, shown", [
    ("bogus", "'bogus'"),
    ({"kind": "bogus"}, "{'kind': 'bogus'}"),
    ({"count": 2}, "{'count': 2}"),
    (5, "5"),
])
def test_backend_config_unknown_fault_names_profile_and_value(fault, shown):
    with pytest.raises(ValueError) as raised:
        backend_config_from_dict("m", {"kind": "mock", "fault": fault})
    assert str(raised.value) == (
        "profile 'm': BackendConfig.fault: expected one of"
        f" faithful, drop_facts, inject_coordinate, inject_name, got {shown}"
    )


@pytest.mark.parametrize("entry", [5, [], None, {"kind": "mock", "timeout": None},
                                   {"kind": "mock", "fault": {"kind": "drop_facts", "count": []}},
                                   {"kind": "mock", "max_retries": "x"},
                                   {"kind": "mock", "fault": {"kind": "drop_facts"}},
                                   {"kind": "mock", "fault": {"kind": "drop_facts", "count": -1}},
                                   {"kind": "mock", "fault": {"kind": "drop_facts", "count": True}},
                                   {"kind": "mock", "fault": {"kind": "inject_name", "name": None}},
                                   {"kind": "mock", "fault": {"kind": "inject_coordinate",
                                                              "latitude": 500, "longitude": 0}}])
def test_backend_config_of_the_wrong_shape_raises_value_error(entry):
    with pytest.raises(ValueError, match=r"^profile 'm': "):
        backend_config_from_dict("m", entry)


@pytest.mark.parametrize("fault, message", [
    ({"kind": "drop_facts"}, "DropFacts.count: missing"),
    ({"kind": "drop_facts", "count": -1}, "DropFacts.count: expected a non-negative integer, got -1"),
    ({"kind": "drop_facts", "count": True}, "DropFacts.count: expected an integer, got True"),
    ({"kind": "inject_name", "name": None}, "InjectName.name: expected a string, got None"),
    ({"kind": "inject_coordinate", "latitude": 500, "longitude": 0},
     "InjectCoordinate: (500, 0) is off the globe"),
])
def test_fault_parameter_errors_name_the_profile_and_parameter(fault, message):
    with pytest.raises(ValueError) as raised:
        backend_config_from_dict("m", {"kind": "mock", "fault": fault})
    assert str(raised.value) == f"profile 'm': {message}"


def test_fault_parameters_decode_to_their_json_types():
    cfg = backend_config_from_dict(
        "m", {"kind": "mock", "fault": {"kind": "inject_coordinate", "latitude": 40, "longitude": -74.5}}
    )
    assert cfg.fault == InjectCoordinate(40, -74.5)
    with pytest.raises(ValueError):
        DropFacts(-1)


@pytest.mark.parametrize("key", ["endpoint_url", "model_name", "api_key_env"])
@pytest.mark.parametrize("value", [5, None])
def test_backend_config_string_fields_must_be_strings(key, value):
    with pytest.raises(ValueError, match=rf"^profile 'm': BackendConfig\.{key}: expected a string, got "):
        backend_config_from_dict("m", {"kind": "local_generate", key: value})


# --- drafting a matrix ---------------------------------------------------------

def test_drafting_on_mocks_derives_an_inputs_facts_only_when_its_call_is_made(
    golden_bundle, monkeypatch
):
    derived = []
    original = gateway.facts_from_input

    def counting(*args):
        derived.append(args)
        return original(*args)

    monkeypatch.setattr(gateway, "facts_from_input", counting)
    prompts = build_matrix(golden_bundle)
    configs = [mock_config(), mock_config(DropFacts(1))]
    texts = []
    with drafting(configs, prompts) as calls:
        assert derived == []
        for backend_calls in calls:
            for prompt, call in zip(prompts, backend_calls):
                before = len(derived)
                texts.append(call().text)
                key = (prompt.section, prompt.input_format, prompt.topic, prompt.input_block())
                # a call derives its own prompt's input, and only when no earlier call did
                assert derived[before:] in ([], [key])
    # one memo for the whole matrix on both backends: the 9 distinct inputs, once each
    assert len(derived) == len(set(derived)) == 9
    monkeypatch.undo()
    assert texts == [mock_complete(p, c.fault) for c in configs for p in prompts]


def test_drafting_on_mocks_restates_each_inputs_facts_once(golden_bundle, monkeypatch):
    restated = []
    original = gateway._restate

    def counting(fact):
        restated.append(fact)
        return original(fact)

    monkeypatch.setattr(gateway, "_restate", counting)
    prompts = build_matrix(golden_bundle)
    configs = [mock_config(), mock_config(DropFacts(1))]
    with drafting(configs, prompts) as calls:
        texts = [call().text for backend_calls in calls for call in backend_calls]
    inputs = {(p.section, p.input_format, p.topic, p.input_block()) for p in prompts}
    # the facts of the 9 distinct inputs, each fact restated once for both backends
    assert len(restated) == sum(len(facts_from_input(*key)) for key in inputs)
    assert len({id(fact) for fact in restated}) == len(restated)
    monkeypatch.undo()
    assert texts == [mock_complete(p, c.fault) for c in configs for p in prompts]


def test_drafting_hands_out_each_backends_calls_in_matrix_order(
    golden_bundle, stub_server, monkeypatch
):
    monkeypatch.setenv(DEFAULT_API_KEY_ENV, "sk-test")
    stub_server.state["fail_on"] = {("/v1/chat/completions", 2)}
    prompts = build_matrix(golden_bundle)[::9]
    configs = [
        BackendConfig(name="local", kind=BackendKind.LOCAL_GENERATE,
                      endpoint_url=stub_server.url, max_retries=0),
        mock_config(InjectName("Mr Moriarty")),
        BackendConfig(name="hosted", kind=BackendKind.HOSTED_CHAT,
                      endpoint_url=stub_server.url, model_name="m", max_retries=0),
    ]
    with drafting(configs, prompts) as calls:
        assert [len(backend_calls) for backend_calls in calls] == [len(prompts)] * 3
        outcomes = []
        for backend_calls in calls:
            drafts = []
            for call in reversed(backend_calls):  # the order calls are made in changes nothing
                try:
                    drafts.append(call())
                except GatewayError as exc:
                    drafts.append(exc)
            outcomes.append(drafts[::-1])
    local, mock, hosted = outcomes
    assert [d.prompt_id for d in local + mock] == [p.prompt_id for p in prompts] * 2
    assert [d.text for d in mock] == [mock_complete(p, InjectName("Mr Moriarty")) for p in prompts]
    assert isinstance(hosted[1], BackendRefusal)  # the second prompt's request was refused
    assert [d.prompt_id for d in hosted[:1] + hosted[2:]] == [p.prompt_id for p in prompts[:1] + prompts[2:]]
    # each HTTP backend sent its prompts in matrix order
    requests = stub_server.requests
    local_wire = [r["body"]["prompt"] for r in requests if r["path"] == "/api/v1/generate"]
    hosted_wire = [r["body"]["messages"][0]["content"] for r in requests if "chat" in r["path"]]
    assert local_wire == hosted_wire == [p.rendered_text for p in prompts]


@pytest.mark.parametrize("aborted", [False, True])
def test_leaving_drafting_early_sends_no_further_prompts(aborted, golden_bundle, stub_server):
    stub_server.state["delay"] = 0.05
    config = BackendConfig(name="local", kind=BackendKind.LOCAL_GENERATE,
                           endpoint_url=stub_server.url, max_retries=0)
    expected = pytest.raises(RuntimeError) if aborted else contextlib.nullcontext()
    with expected, drafting([config], build_matrix(golden_bundle)) as calls:
        calls[0][0]()
        if aborted:
            raise RuntimeError("the caller gave up")
    # the requests in flight were answered before the context was left
    assert set(stub_server.state["in_flight"].values()) == {0}
    sent = len(stub_server.requests)
    time.sleep(0.2)
    assert len(stub_server.requests) == sent
    # the first answer came back while the second request was in flight, and
    # the context was left then: of 36 prompts, no more than a third was sent
    assert sent <= 3


def test_leaving_drafting_cancels_every_backend_before_waiting_on_any(
    golden_bundle, stub_server, monkeypatch
):
    # the hosted backend's request in flight is held 300 ms; a local backend
    # still queued behind it would send a dozen more of its 10 ms requests
    monkeypatch.setenv(DEFAULT_API_KEY_ENV, "sk-test")
    local_path, hosted_path = "/api/v1/generate", "/v1/chat/completions"
    stub_server.state["path_delay"] = {local_path: 0.01, hosted_path: 0.3}
    configs = [
        BackendConfig(name="local", kind=BackendKind.LOCAL_GENERATE,
                      endpoint_url=stub_server.url, max_retries=0),
        BackendConfig(name="hosted", kind=BackendKind.HOSTED_CHAT,
                      endpoint_url=stub_server.url, model_name="stub-chat", max_retries=0),
    ]
    with drafting(configs, build_matrix(golden_bundle)) as calls:
        calls[0][0]()
        before = Counter(r["path"] for r in stub_server.requests)
    after = Counter(r["path"] for r in stub_server.requests)
    # once the context is left, each backend sends at most the request it has
    assert all(after[path] <= before[path] + 1 for path in (local_path, hosted_path)), (before, after)
    assert set(stub_server.state["in_flight"].values()) == {0}


# --- one kept-alive connection per HTTP backend --------------------------------

def _local_and_hosted(stub_server, monkeypatch, **fields):
    monkeypatch.setenv(DEFAULT_API_KEY_ENV, "sk-test")
    return [
        BackendConfig(name="local", kind=BackendKind.LOCAL_GENERATE,
                      endpoint_url=stub_server.url, max_retries=0, **fields),
        BackendConfig(name="hosted", kind=BackendKind.HOSTED_CHAT,
                      endpoint_url=stub_server.url, model_name="stub-chat", max_retries=0, **fields),
    ]


def test_a_run_opens_one_connection_per_http_backend(
    golden_bundle, stub_server, monkeypatch, tmp_path
):
    stub_server.state["keep_alive"] = True
    configs = _local_and_hosted(stub_server, monkeypatch)
    _, appended, errors = run_experiment(golden_bundle, configs, tmp_path / "store.jsonl")
    assert (appended, errors) == (72, 0)
    ports = {}
    for request in stub_server.requests:
        ports.setdefault(request["path"], set()).add(request["port"])
    assert Counter(r["path"] for r in stub_server.requests) == {
        "/api/v1/generate": 36, "/v1/chat/completions": 36}
    assert [len(p) for p in ports.values()] == [1, 1]
    assert stub_server.state["connections"] == 2


def test_proxies_are_read_once_per_http_backend_per_run(
    golden_bundle, stub_server, monkeypatch, tmp_path
):
    stub_server.state["keep_alive"] = True
    configs = _local_and_hosted(stub_server, monkeypatch)
    original, reads = urllib.request.getproxies, []

    def counting():
        reads.append(threading.current_thread().name)
        return original()

    monkeypatch.setattr(urllib.request, "getproxies", counting)
    run_experiment(golden_bundle, configs, tmp_path / "store.jsonl")
    assert len(stub_server.requests) == 72
    # read by each backend's own worker, when it opened its connection
    assert len(reads) == len(set(reads)) == 2


@pytest.mark.skipif(not hasattr(socket, "TCP_CORK"), reason="the stub closes with TCP_CORK")
def test_a_connection_the_server_closed_after_its_answer_is_not_reused(
    golden_bundle, stub_server, tmp_path
):
    # no Connection: close header says so; the socket is found closed
    # before the next request, which goes out once, on a fresh connection
    stub_server.state.update(keep_alive=True, close_after_answer=True)
    config = BackendConfig(name="local", kind=BackendKind.LOCAL_GENERATE,
                           endpoint_url=stub_server.url, max_retries=0)
    _, appended, errors = run_experiment(golden_bundle, [config], tmp_path / "store.jsonl")
    assert (appended, errors) == (36, 0)
    prompts = [r["body"]["prompt"] for r in stub_server.requests]
    assert prompts == [p.rendered_text for p in build_matrix(golden_bundle)]
    assert stub_server.state["connections"] == 36


def test_a_refusals_body_is_read_and_the_connection_carries_the_next_prompt(
    golden_bundle, stub_server
):
    stub_server.state.update(keep_alive=True, fail_on={1}, fail_body=b"overloaded, try later")
    config = BackendConfig(name="local", kind=BackendKind.LOCAL_GENERATE,
                           endpoint_url=stub_server.url, max_retries=0)
    with drafting([config], build_matrix(golden_bundle)[:2]) as [[first, second]]:
        with pytest.raises(BackendRefusal, match="^local: status 503: overloaded, try later$"):
            first()
        assert second().text == "local draft 2"
    assert [r["port"] for r in stub_server.requests] == [stub_server.requests[0]["port"]] * 2
    assert stub_server.state["connections"] == 1


def test_a_read_timeout_closes_the_connection_and_the_retry_opens_a_new_one(
    golden_bundle, stub_server
):
    stub_server.state.update(keep_alive=True, delay_on={1: 0.5})
    config = BackendConfig(name="local", kind=BackendKind.LOCAL_GENERATE,
                           endpoint_url=stub_server.url, max_retries=1, retry_backoff=0.01,
                           timeout=0.2)
    with drafting([config], build_matrix(golden_bundle)[:2]) as [[first, second]]:
        assert first().text == "local draft 2"
        assert second().text == "local draft 3"
    timed_out, retried, following = (r["port"] for r in stub_server.requests)
    assert timed_out != retried == following
    assert stub_server.state["connections"] == 2


def test_an_http_proxy_takes_the_credentials_of_its_url(stub_server, intro_prompt, monkeypatch):
    for name in ("http_proxy", "HTTP_PROXY", "no_proxy", "NO_PROXY", "REQUEST_METHOD"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("HTTP_PROXY", stub_server.url.replace("//", "//ex%40mple:s3cret@"))
    cfg = BackendConfig(name="local", kind=BackendKind.LOCAL_GENERATE,
                        endpoint_url="http://backend.invalid", max_retries=0)
    assert generate(cfg, intro_prompt).text == "local draft 1"
    [request] = stub_server.requests
    assert request["path"] == "http://backend.invalid/api/v1/generate"
    assert request["headers"]["proxy-authorization"] == "Basic " + base64.b64encode(
        b"ex@mple:s3cret").decode()

def test_a_proxy_tunnels_https_and_takes_the_credentials_of_its_url(
    stub_server, intro_prompt, monkeypatch
):
    for name in ("https_proxy", "HTTPS_PROXY", "no_proxy", "NO_PROXY", "REQUEST_METHOD"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("HTTPS_PROXY", stub_server.url.replace("//", "//ex%40mple:s3cret@"))
    monkeypatch.setenv(DEFAULT_API_KEY_ENV, "sk-test")
    cfg = BackendConfig(name="hosted", kind=BackendKind.HOSTED_CHAT,
                        endpoint_url="https://backend.invalid", model_name="m", max_retries=0)
    with pytest.raises(TransportError, match="^hosted: unreachable after 1 attempts: .*502"):
        generate(cfg, intro_prompt)
    [request] = stub_server.requests
    assert (request["method"], request["path"]) == ("CONNECT", "backend.invalid:443")
    assert request["headers"]["proxy-authorization"] == "Basic " + base64.b64encode(
        b"ex@mple:s3cret").decode()
    assert "authorization" not in request["headers"]  # the API key goes through the tunnel only


def test_an_aborted_run_leaves_no_socket_open(golden_bundle, stub_server, tmp_path):
    # development mode warns of every socket dropped unclosed; -W error
    # makes each such warning an exception printed as it is ignored
    stub_server.state.update(keep_alive=True, delay=0.01)
    bundle = tmp_path / "bundle.json"
    bundle.write_text(bundle_to_json(golden_bundle), encoding="utf-8")
    script = f"""
import gc, os, sys
from pathlib import Path
from casedraft import pipeline
from casedraft.gateway import BackendConfig, BackendKind
from casedraft.model import bundle_from_json

os.environ["CASEDRAFT_API_KEY"] = "sk-test"
configs = [
    BackendConfig(name="local", kind=BackendKind.LOCAL_GENERATE, endpoint_url={stub_server.url!r}),
    BackendConfig(name="hosted", kind=BackendKind.HOSTED_CHAT, endpoint_url={stub_server.url!r},
                  model_name="m"),
]
scored = []
def score(*args, **kwargs):
    scored.append(1)
    if len(scored) == 3:
        raise RuntimeError("scoring broke")
    return original(*args, **kwargs)
original, pipeline.score = pipeline.score, score
bundle = bundle_from_json(Path({str(bundle)!r}).read_text(encoding="utf-8"))
try:
    pipeline.run_experiment(bundle, configs, {str(tmp_path / "store.jsonl")!r})
except RuntimeError:
    pass
gc.collect()
print("done", flush=True)
"""
    src = str(Path(gateway.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", script],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "done\n", "")
    assert stub_server.state["connections"] == 2
