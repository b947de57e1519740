"""Pluggable text-generation oracle behind every neural step of the pipeline.

Two implementations ship with the package:

* MockOracle: a pure function of (request fingerprint, fixture script).
  Scripts map each agent to ordered match rules plus an optional default;
  a rule fires when its `when_contains` substring occurs in the canonical
  JSON of the request payload. Exact fingerprint entries are also honored.
  Bit-reproducible by construction.
* HttpOracle: a minimal chat-completion client configured from a profile
  file (endpoint, model, key env var, temperature, timeout, retries).

Every agent exchanges structured JSON; callers validate answers against
their own schemas before use.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Any, Mapping, Protocol

from .errors import OracleFailure


@dataclass(frozen=True)
class OracleRequest:
    agent: str
    payload: Mapping[str, Any]


def canonical_payload(payload: Mapping[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def fingerprint(request: OracleRequest) -> str:
    digest = hashlib.sha256(
        (request.agent + "\n" + canonical_payload(request.payload)).encode("utf-8")
    )
    return digest.hexdigest()


class Oracle(Protocol):
    def complete(self, request: OracleRequest) -> str: ...


class MockOracle:
    """Deterministic scripted oracle used in tests and offline runs."""

    def __init__(self, script: Mapping[str, Any]):
        self.agents: Mapping[str, Any] = script.get("agents", {})
        self.fingerprints: Mapping[str, Any] = script.get("fingerprints", {})

    @classmethod
    def from_file(cls, path: str | Path) -> "MockOracle":
        """Load a script file, or a fixture directory.

        A directory may hold an optional `script.json` plus one file per
        canned answer named after the request fingerprint
        (`<sha256>.json` for structured answers, `<sha256>.txt` for raw text).
        """
        path = Path(path)
        if path.is_dir():
            script: dict = {}
            script_file = path / "script.json"
            if script_file.exists():
                script = json.loads(script_file.read_text(encoding="utf-8"))
            fingerprints = dict(script.get("fingerprints", {}))
            for entry in sorted(path.iterdir()):
                if entry.name == "script.json" or entry.suffix not in (".json", ".txt"):
                    continue
                if entry.suffix == ".json":
                    fingerprints[entry.stem] = {"answer": json.loads(
                        entry.read_text(encoding="utf-8"))}
                else:
                    fingerprints[entry.stem] = {"answer": entry.read_text(encoding="utf-8")}
            script["fingerprints"] = fingerprints
            return cls(script)
        with open(path, "r", encoding="utf-8") as handle:
            return cls(json.load(handle))

    def complete(self, request: OracleRequest) -> str:
        key = fingerprint(request)
        if key in self.fingerprints:
            return self._render(self.fingerprints[key], request)
        spec = self.agents.get(request.agent)
        if spec is None:
            raise OracleFailure(f"mock has no fixtures for agent '{request.agent}'")
        haystack = canonical_payload(request.payload)
        for rule in spec.get("rules", []):
            needle = rule.get("when_contains", "")
            if needle and needle in haystack:
                return self._render(rule, request)
        default = spec.get("default")
        if default is None:
            raise OracleFailure(
                f"mock has no matching fixture for agent '{request.agent}' "
                f"(fingerprint {key[:12]})"
            )
        return self._render(default, request)

    @staticmethod
    def _render(rule: Mapping[str, Any], request: OracleRequest) -> str:
        if "echo" in rule:
            spec = rule["echo"]
            value = request.payload.get(spec["field"], "")
            return json.dumps({spec.get("key", "text"): value}, ensure_ascii=False)
        answer = rule.get("answer")
        if answer is None:
            raise OracleFailure("mock fixture rule has no 'answer' or 'echo' entry")
        if isinstance(answer, str):
            return answer
        return json.dumps(answer, sort_keys=True, ensure_ascii=False)


def load_prompt(agent: str) -> str:
    """Load the versioned prompt template shipped for one agent."""
    try:
        return (resources.files("requireceg") / "prompts" / f"{agent}.txt").read_text("utf-8")
    except FileNotFoundError as exc:
        raise OracleFailure(f"no prompt template for agent '{agent}'") from exc


# Longest wait honoured from a server's numeric Retry-After header, in seconds.
MAX_RETRY_AFTER_S = 10.0


@dataclass
class HttpOracle:
    """Chat-completion client for a live provider, configured by profile.

    A 4xx answer other than 429 fails at once. A 429, a 5xx or a transport
    error is retried up to `retries` times, after the server's numeric
    Retry-After (at most MAX_RETRY_AFTER_S) or a short linear backoff.
    """

    endpoint: str
    model: str
    api_key_env: str = ""
    temperature: float = 0.5
    timeout: float = 60.0
    retries: int = 2
    extra_headers: dict = field(default_factory=dict)

    def complete(self, request: OracleRequest) -> str:
        prompt = (
            load_prompt(request.agent)
            + "\n\nInput:\n"
            + canonical_payload(request.payload)
        )
        body = json.dumps({
            "model": self.model,
            "temperature": self.temperature,
            "messages": [{"role": "user", "content": prompt}],
        }).encode("utf-8")
        headers = {"Content-Type": "application/json", **self.extra_headers}
        if self.api_key_env:
            key = os.environ.get(self.api_key_env, "")
            if not key:
                raise OracleFailure(f"environment variable {self.api_key_env} is not set")
            headers["Authorization"] = f"Bearer {key}"
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            req = urllib.request.Request(self.endpoint, data=body, headers=headers)
            delay = 0.2 * (attempt + 1)
            try:
                with urllib.request.urlopen(req, timeout=self.timeout) as response:
                    data = json.loads(response.read().decode("utf-8"))
                return data["choices"][0]["message"]["content"]
            except urllib.error.HTTPError as exc:
                # A client error other than 429 fails the same way on every retry.
                if 400 <= exc.code < 500 and exc.code != 429:
                    raise OracleFailure(f"oracle request rejected: {exc}") from exc
                last_error = exc
                retry_after = exc.headers.get("Retry-After", "") if exc.headers else ""
                if retry_after.strip().isdigit():
                    delay = min(float(retry_after), MAX_RETRY_AFTER_S)
            except (urllib.error.URLError, OSError, KeyError, IndexError,
                    json.JSONDecodeError) as exc:
                last_error = exc
            if attempt < self.retries:
                time.sleep(delay)
        raise OracleFailure(f"oracle transport failed after {self.retries + 1} attempts: "
                            f"{last_error}")


def load_profile(profile: str | Path | Mapping[str, Any]) -> Oracle:
    """Build an oracle from a profile mapping or a JSON profile file."""
    if isinstance(profile, (str, Path)):
        with open(profile, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    else:
        data = dict(profile)
    kind = data.get("type")
    if kind == "mock":
        if "fixtures" in data:
            return MockOracle.from_file(data["fixtures"])
        return MockOracle(data.get("script", {}))
    if kind == "http":
        return HttpOracle(
            endpoint=data["endpoint"],
            model=data["model"],
            api_key_env=data.get("api_key_env", ""),
            temperature=float(data.get("temperature", 0.5)),
            timeout=float(data.get("timeout", 60.0)),
            retries=int(data.get("retries", 2)),
            extra_headers=dict(data.get("extra_headers", {})),
        )
    raise OracleFailure(f"unknown oracle profile type: {kind!r}")


def parse_structured_answer(text: str) -> dict:
    """Strictly extract one JSON object from an oracle answer.

    Accepts the bare object or a single fenced ```json block; anything else
    fails instead of guessing.
    """
    candidate = text.strip()
    if candidate.startswith("```"):
        lines = candidate.split("\n")
        if len(lines) >= 3 and lines[-1].strip() == "```":
            candidate = "\n".join(lines[1:-1]).strip()
    try:
        data = json.loads(candidate)
    except json.JSONDecodeError as exc:
        raise OracleFailure(f"oracle answer is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise OracleFailure("oracle answer must be a JSON object")
    return data
