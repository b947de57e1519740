"""Unit tests for the oracle abstraction and the deterministic mock."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from requireceg.errors import OracleFailure
from requireceg.oracle import (
    HttpOracle,
    MockOracle,
    OracleRequest,
    fingerprint,
    load_profile,
    load_prompt,
    parse_structured_answer,
)


class TestFingerprint:
    def test_stable_across_key_order(self):
        a = OracleRequest("Agent", {"x": 1, "y": [1, 2]})
        b = OracleRequest("Agent", {"y": [1, 2], "x": 1})
        assert fingerprint(a) == fingerprint(b)

    def test_sensitive_to_agent_and_payload(self):
        base = OracleRequest("Agent", {"x": 1})
        assert fingerprint(base) != fingerprint(OracleRequest("Other", {"x": 1}))
        assert fingerprint(base) != fingerprint(OracleRequest("Agent", {"x": 2}))


class TestMockOracle:
    def test_rule_matching_and_default(self):
        oracle = MockOracle({"agents": {"A": {
            "rules": [{"when_contains": "special", "answer": {"v": 1}}],
            "default": {"answer": {"v": 0}},
        }}})
        hit = oracle.complete(OracleRequest("A", {"q": "something special here"}))
        miss = oracle.complete(OracleRequest("A", {"q": "ordinary"}))
        assert json.loads(hit) == {"v": 1}
        assert json.loads(miss) == {"v": 0}

    def test_exact_fingerprint_entry(self):
        request = OracleRequest("A", {"q": 1})
        oracle = MockOracle({
            "agents": {"A": {"default": {"answer": {"v": 0}}}},
            "fingerprints": {fingerprint(request): {"answer": {"v": 9}}},
        })
        assert json.loads(oracle.complete(request)) == {"v": 9}

    def test_echo_rule(self):
        oracle = MockOracle({"agents": {"A": {"default": {
            "echo": {"field": "proposed", "key": "text"}}}}})
        answer = oracle.complete(OracleRequest("A", {"proposed": "keep me"}))
        assert json.loads(answer) == {"text": "keep me"}

    def test_missing_fixture_fails(self):
        oracle = MockOracle({"agents": {}})
        with pytest.raises(OracleFailure):
            oracle.complete(OracleRequest("A", {"q": 1}))

    def test_rule_without_default_fails_on_miss(self):
        oracle = MockOracle({"agents": {"A": {
            "rules": [{"when_contains": "special", "answer": {"v": 1}}]}}})
        with pytest.raises(OracleFailure):
            oracle.complete(OracleRequest("A", {"q": "plain"}))

    def test_bit_reproducible(self):
        oracle = MockOracle({"agents": {"A": {"default": {"answer": {
            "keys": ["b", "a"], "n": 3}}}}})
        request = OracleRequest("A", {"q": 1})
        assert oracle.complete(request) == oracle.complete(request)

    def test_fixture_directory(self, tmp_path):
        request = OracleRequest("A", {"q": 1})
        (tmp_path / f"{fingerprint(request)}.json").write_text('{"v": 4}')
        other = OracleRequest("A", {"q": 2})
        (tmp_path / f"{fingerprint(other)}.txt").write_text("plain words")
        oracle = MockOracle.from_file(tmp_path)
        assert json.loads(oracle.complete(request)) == {"v": 4}
        assert oracle.complete(other) == "plain words"


class TestStructuredAnswers:
    def test_bare_object(self):
        assert parse_structured_answer('{"a": 1}') == {"a": 1}

    def test_fenced_block(self):
        text = "```json\n{\"a\": 1}\n```"
        assert parse_structured_answer(text) == {"a": 1}

    def test_garbage_fails(self):
        with pytest.raises(OracleFailure):
            parse_structured_answer("yes, definitely")

    def test_non_object_fails(self):
        with pytest.raises(OracleFailure):
            parse_structured_answer("[1, 2]")


class TestProfiles:
    def test_mock_profile_from_file(self, tmp_path):
        fixtures = tmp_path / "mock.json"
        fixtures.write_text(json.dumps({"agents": {"A": {"default": {"answer": {"v": 1}}}}}))
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"type": "mock", "fixtures": str(fixtures)}))
        oracle = load_profile(profile)
        assert isinstance(oracle, MockOracle)

    def test_inline_mock_profile(self):
        oracle = load_profile({"type": "mock", "script": {"agents": {}}})
        assert isinstance(oracle, MockOracle)

    def test_http_profile(self):
        oracle = load_profile({"type": "http", "endpoint": "http://127.0.0.1:1/v1",
                               "model": "m", "temperature": 0.5, "retries": 0})
        assert isinstance(oracle, HttpOracle)
        assert oracle.temperature == 0.5

    def test_unknown_profile_type(self):
        with pytest.raises(OracleFailure):
            load_profile({"type": "carrier-pigeon"})


@pytest.fixture
def scripted_server():
    """A local chat-completion endpoint that answers from a list and counts requests.

    Each answer is (status, headers, body); the last one repeats.
    """
    state = {"answers": [], "requests": 0}

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            self.rfile.read(int(self.headers.get("Content-Length", 0)))
            answers = state["answers"]
            status, headers, body = answers[min(state["requests"], len(answers) - 1)]
            state["requests"] += 1
            payload = json.dumps(body).encode("utf-8")
            self.send_response(status)
            for name, value in headers.items():
                self.send_header(name, value)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    state["endpoint"] = f"http://127.0.0.1:{server.server_address[1]}/v1/chat"
    try:
        yield state
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


OK_ANSWER = (200, {}, {"choices": [{"message": {"content": "hello"}}]})


class TestHttpOracle:
    def test_client_error_is_not_retried(self, scripted_server):
        scripted_server["answers"] = [(401, {}, {"error": "bad key"}), OK_ANSWER]
        oracle = HttpOracle(endpoint=scripted_server["endpoint"], model="m", retries=2)
        with pytest.raises(OracleFailure, match="rejected"):
            oracle.complete(OracleRequest("ReasoningIQ", {"q": 1}))
        assert scripted_server["requests"] == 1

    def test_server_error_is_retried(self, scripted_server):
        scripted_server["answers"] = [(503, {"Retry-After": "0"}, {"error": "busy"}),
                                      OK_ANSWER]
        oracle = HttpOracle(endpoint=scripted_server["endpoint"], model="m", retries=2)
        assert oracle.complete(OracleRequest("ReasoningIQ", {"q": 1})) == "hello"
        assert scripted_server["requests"] == 2

    def test_too_many_requests_is_retried_until_exhausted(self, scripted_server):
        scripted_server["answers"] = [(429, {"Retry-After": "0"}, {"error": "slow down"})]
        oracle = HttpOracle(endpoint=scripted_server["endpoint"], model="m", retries=1)
        with pytest.raises(OracleFailure, match="after 2 attempts"):
            oracle.complete(OracleRequest("ReasoningIQ", {"q": 1}))
        assert scripted_server["requests"] == 2

    def test_unreachable_endpoint_is_transport_failure(self):
        oracle = HttpOracle(endpoint="http://127.0.0.1:1/v1/chat", model="m",
                            retries=0, timeout=0.5)
        with pytest.raises(OracleFailure):
            oracle.complete(OracleRequest("ReasoningIQ", {"q": 1}))

    def test_missing_key_env(self, monkeypatch):
        monkeypatch.delenv("NO_SUCH_KEY_VAR", raising=False)
        oracle = HttpOracle(endpoint="http://127.0.0.1:1/v1", model="m",
                            api_key_env="NO_SUCH_KEY_VAR", retries=0)
        with pytest.raises(OracleFailure):
            oracle.complete(OracleRequest("ReasoningIQ", {"q": 1}))


class TestPrompts:
    def test_every_agent_prompt_ships(self):
        for agent in ("FeatureTreeGenerator", "AnalyzeUserBehavior",
                      "AnalyzeSystemBehavior", "IdentifyCAndE", "BuildCEG",
                      "ReconstructCEG", "ReasoningIQ", "ModifyCEG",
                      "GenerateGherkin", "Review", "BindStep", "ClassifyFURPS"):
            text = load_prompt(agent)
            assert "JSON" in text

    def test_unknown_prompt_fails(self):
        with pytest.raises(OracleFailure):
            load_prompt("NoSuchAgent")
