"""Chat-completion client: HTTP backend, deterministic scripted backend,
persistent response cache, and an audit log.

The client enforces the input-token budget before any network activity,
serves repeated requests from the cache, and retries transient transport
failures per the configured policy. An unreadable cache entry is a miss.
Each request's prompt is tokenized once; the counts travel with the reply
as a ``Completion``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Optional, Sequence

from .corpus import count_tokens
from .errors import (
    ConfigError,
    ContextOverflowError,
    DecodeError,
    TransportError,
    UnmatchedPromptError,
)


class Role(str, Enum):
    SYSTEM = "system"
    USER = "user"
    ASSISTANT = "assistant"


@dataclass(frozen=True)
class ChatMessage:
    role: Role
    content: str

    def __post_init__(self) -> None:
        if self.role in (Role.SYSTEM, Role.USER) and not self.content:
            raise ValueError(f"{self.role.value} message must have content")

    def to_dict(self) -> dict:
        return {"role": self.role.value, "content": self.content}


def system(content: str) -> ChatMessage:
    return ChatMessage(Role.SYSTEM, content)


def user(content: str) -> ChatMessage:
    return ChatMessage(Role.USER, content)


@dataclass(frozen=True)
class RetryPolicy:
    max_attempts: int = 3
    backoff_seconds: float = 0.5


@dataclass(frozen=True)
class ProviderConfig:
    endpoint: str = "http://localhost:8000/v1/chat/completions"
    model: str = "scripted"
    temperature: float = 0.0
    max_output_tokens: int = 2048
    max_input_tokens: int = 128_000
    timeout: float = 120.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    api_key_env: str = "FINDOC_API_KEY"

    def __post_init__(self) -> None:
        if self.max_input_tokens <= 0:
            raise ValueError("max_input_tokens must be positive")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")


def render_messages(messages: Sequence[ChatMessage]) -> str:
    """Canonical prompt text used for matching, hashing, and token counting."""
    return "\n\n".join(f"{m.role.value}:\n{m.content}" for m in messages)


def count_message_tokens(messages: Sequence[ChatMessage]) -> int:
    """Approximate prompt size: content tokens plus one per role marker."""
    return sum(count_tokens(m.content) + 1 for m in messages)


def cache_key(model: str, messages: Sequence[ChatMessage], temperature: float,
              max_output_tokens: int) -> str:
    """Stable content hash; order- and whitespace-sensitive."""
    payload = json.dumps(
        {
            "model": model,
            "temperature": temperature,
            "max_output_tokens": max_output_tokens,
            "messages": [m.to_dict() for m in messages],
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class Completion(str):
    """An assistant reply that also carries its request's token counts.

    A ``str`` subclass, so it compares, formats and serializes as the reply
    text; string methods such as ``strip`` return plain ``str``.
    """

    prompt_tokens: int
    response_tokens: int

    def __new__(cls, text: str, prompt_tokens: int, response_tokens: int) -> "Completion":
        completion = super().__new__(cls, text)
        completion.prompt_tokens = prompt_tokens
        completion.response_tokens = response_tokens
        return completion


class Backend:
    """Produces assistant text for a rendered request."""

    def generate(self, config: ProviderConfig, messages: Sequence[ChatMessage]) -> str:
        raise NotImplementedError


class HttpBackend(Backend):
    """POSTs the chat-completions wire format and reads the first candidate.

    transport(url, payload, headers, timeout) -> (status_code, decoded JSON);
    the default uses requests. Injectable for tests and call counting.
    """

    def __init__(self, transport: Optional[Callable] = None,
                 sleep: Callable[[float], None] = time.sleep):
        self._transport = transport or self._default_transport
        self._sleep = sleep

    @staticmethod
    def _default_transport(url: str, payload: dict, headers: dict, timeout: float):
        import requests

        response = requests.post(url, json=payload, headers=headers, timeout=timeout)
        return response.status_code, response.json()

    def generate(self, config: ProviderConfig, messages: Sequence[ChatMessage]) -> str:
        payload = {
            "model": config.model,
            "messages": [m.to_dict() for m in messages],
            "temperature": config.temperature,
            "max_tokens": config.max_output_tokens,
        }
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(config.api_key_env)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"

        attempts = max(1, config.retry.max_attempts)
        last_error: Optional[str] = None
        for attempt in range(attempts):
            try:
                status, body = self._transport(config.endpoint, payload, headers, config.timeout)
            except Exception as exc:  # transport-level failure is retryable
                last_error = str(exc)
                status, body = None, None
            if status == 200 and body is not None:
                try:
                    content = body["choices"][0]["message"]["content"]
                except (KeyError, IndexError, TypeError) as exc:
                    raise DecodeError(f"malformed completion response: {exc}") from exc
                if not isinstance(content, str):
                    raise DecodeError("completion content is not a string")
                return content
            if status is not None and not (status == 429 or status >= 500):
                raise TransportError(f"completion endpoint returned {status}")
            if status is not None:
                last_error = f"status {status}"
            if attempt < attempts - 1:
                self._sleep(config.retry.backoff_seconds * (2 ** attempt))
        raise TransportError(f"completion failed after {attempts} attempts: {last_error}")


class ConsumptionMode(str, Enum):
    REPEATABLE = "repeatable"
    CONSUME_ONCE = "consume-once"


@dataclass
class ScriptEntry:
    matcher: str  # substring, or "sha256:<hex>" for an exact prompt hash
    response: str

    def __post_init__(self) -> None:
        if not (isinstance(self.matcher, str) and isinstance(self.response, str)):
            raise TypeError("script matcher and response must be strings")

    def matches(self, rendered: str) -> bool:
        if self.matcher.startswith("sha256:"):
            digest = hashlib.sha256(rendered.encode("utf-8")).hexdigest()
            return self.matcher[len("sha256:"):] == digest
        return self.matcher in rendered


class ScriptedBackend(Backend):
    """Deterministic canned responses; first matching entry wins.

    Unmatched prompts raise immediately: a silent fallback would hide
    fixture gaps. No network is ever touched.
    """

    def __init__(self, entries: Sequence[tuple[str, str] | ScriptEntry],
                 mode: ConsumptionMode | str = ConsumptionMode.REPEATABLE):
        self.entries = [
            entry if isinstance(entry, ScriptEntry) else ScriptEntry(*entry)
            for entry in entries
        ]
        self.mode = ConsumptionMode(mode)
        self.calls = 0
        self._lock = threading.Lock()

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedBackend":
        """Load {"mode": ..., "entries": [{"matcher": ..., "response": ...}]};
        a malformed file raises ConfigError."""
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
            return cls(
                [(e["matcher"], e["response"]) for e in payload["entries"]],
                mode=payload.get("mode", "repeatable"),
            )
        except KeyError as exc:
            raise ConfigError(f"script file {path}: missing key {exc}") from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise ConfigError(f"script file {path}: {exc}") from None

    def generate(self, config: ProviderConfig, messages: Sequence[ChatMessage]) -> str:
        rendered = render_messages(messages)
        with self._lock:
            self.calls += 1
            for position, entry in enumerate(self.entries):
                if entry.matches(rendered):
                    if self.mode is ConsumptionMode.CONSUME_ONCE:
                        self.entries.pop(position)
                    return entry.response
        raise UnmatchedPromptError(
            f"no scripted response matches prompt starting {rendered[:120]!r}")


class ResponseCache:
    """Content-addressed completion cache: one JSON file per request key."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._lock = threading.Lock()

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> Optional[str]:
        """The cached reply; None when the entry is absent or unreadable."""
        try:
            response = json.loads(self._path(key).read_text(encoding="utf-8"))["response"]
        except (FileNotFoundError, ValueError, KeyError, TypeError):
            return None
        return response if isinstance(response, str) else None

    def put(self, key: str, request: dict, response: str) -> None:
        with self._lock:
            self.root.mkdir(parents=True, exist_ok=True)
            path = self._path(key)
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump({"key": key, "request": request, "response": response}, fh)
            os.replace(tmp, path)


class LLMClient:
    """Budget-checked, cached chat completion over an injectable backend.

    Safe to share across threads; concurrency is bounded by the caller.
    """

    def __init__(self, config: ProviderConfig, backend: Backend,
                 cache: Optional[ResponseCache] = None,
                 log_path: Optional[str | Path] = None):
        self.config = config
        self.backend = backend
        self.cache = cache
        self.log_path = Path(log_path) if log_path else None
        self._lock = threading.Lock()  # guards the counters and the log file
        self.backend_calls = 0
        self.cache_hits = 0

    def complete(self, messages: Sequence[ChatMessage], *,
                 bypass_cache: bool = False) -> Completion:
        prompt_tokens = count_message_tokens(messages)
        if prompt_tokens > self.config.max_input_tokens:
            raise ContextOverflowError(
                f"prompt is {prompt_tokens} tokens, budget is {self.config.max_input_tokens}")

        key = cache_key(self.config.model, messages, self.config.temperature,
                        self.config.max_output_tokens)
        response = None
        if self.cache is not None and not bypass_cache:
            response = self.cache.get(key)
        from_cache = response is not None
        if not from_cache:
            response = self.backend.generate(self.config, messages)
            if self.cache is not None:
                request = {
                    "model": self.config.model,
                    "temperature": self.config.temperature,
                    "max_output_tokens": self.config.max_output_tokens,
                    "messages": [m.to_dict() for m in messages],
                }
                self.cache.put(key, request, response)
        completion = Completion(response, prompt_tokens, count_tokens(response))
        self._record(key, completion, from_cache=from_cache)
        return completion

    def _record(self, key: str, completion: Completion, *, from_cache: bool) -> None:
        """Count the call and append it to the audit log, if one is set."""
        entry = None
        if self.log_path is not None:
            entry = json.dumps({
                "key": key,
                "model": self.config.model,
                "from_cache": from_cache,
                "prompt_tokens": completion.prompt_tokens,
                "response_tokens": completion.response_tokens,
                "response": completion,
            }, sort_keys=True)
        with self._lock:
            if from_cache:
                self.cache_hits += 1
            else:
                self.backend_calls += 1
            if entry is not None:
                self.log_path.parent.mkdir(parents=True, exist_ok=True)
                with open(self.log_path, "a", encoding="utf-8") as fh:
                    fh.write(entry + "\n")
