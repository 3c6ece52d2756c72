"""Chat-completion client: HTTP backend, deterministic scripted backend,
persistent response cache, and an audit log.

The client enforces the input-token budget before any network activity,
serves repeated requests from the cache, and retries transient transport
failures per the configured policy. An unreadable cache entry is a miss.
Each request's prompt is tokenized at most once, or not at all when the
caller supplies its count; the counts travel with the reply as a
``Completion``. Each request is also serialized once: the same JSON
body is hashed for the cache key, posted, and stored in the cache entry.
A message may carry its content already escaped for a JSON string, as byte
pieces that the body joins as they are; such a message decodes its content
only when something reads it.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Callable, Optional, Sequence

from . import transport
from .config import RunConfig
from .corpus import count_tokens, decode_escaped, read_text
from .embeddings import write_atomic
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


class ChatMessage:
    """One chat message: a role and its content.

    A message made from ``escaped_content`` holds only that: byte pieces
    whose join is ``json.dumps(content)[1:-1]``, the content escaped as in a
    JSON string. Its content is decoded from them the first time it is read,
    so a long prompt is held once, escaped, until something reads its text.
    """

    def __init__(self, role: Role, content: Optional[str] = None,
                 escaped_content: Optional[tuple[bytes, ...]] = None):
        if (content is None) == (escaped_content is None):
            raise ValueError("a message is made from its content or its escaped content")
        self.role = role
        self.escaped_content = escaped_content
        if content is not None:
            self.content = content
        empty = not content if escaped_content is None else not any(escaped_content)
        if role in (Role.SYSTEM, Role.USER) and empty:
            raise ValueError(f"{role.value} message must have content")

    @cached_property
    def content(self) -> str:
        return decode_escaped(self.escaped_content)

    def __repr__(self) -> str:
        return f"ChatMessage(role={self.role!r}, content={self.content!r})"


def system(content: str) -> ChatMessage:
    return ChatMessage(Role.SYSTEM, content)


def user(content: str, escaped_tail: Optional[Sequence[bytes]] = None) -> ChatMessage:
    """A user message of ``content``, then the tail ``escaped_tail`` stands for.

    ``escaped_tail``, when given, is ASCII byte pieces whose join is the tail
    escaped as in a JSON string, ``json.dumps(tail)[1:-1]``. The message holds
    ``content`` escaped and the pieces as they are, so the request body
    escapes only ``content``.
    """
    if escaped_tail is None:
        return ChatMessage(Role.USER, content)
    return ChatMessage(Role.USER, escaped_content=(
        json.dumps(content)[1:-1].encode("ascii"), *escaped_tail))


def render_messages(messages: Sequence[ChatMessage]) -> str:
    """Canonical prompt text used for matching, hashing, and token counting."""
    return "\n\n".join(f"{m.role.value}:\n{m.content}" for m in messages)


def count_message_tokens(messages: Sequence[ChatMessage]) -> int:
    """Approximate prompt size: content tokens plus one per role marker."""
    return sum(count_tokens(m.content) + 1 for m in messages)


def request_body(config: RunConfig, messages: Sequence[ChatMessage]) -> bytes:
    """The chat-completions request as posted: UTF-8 JSON in the wire's key order.

    The bytes are ``json.dumps`` of ``{"model", "messages", "temperature",
    "max_tokens"}`` (default separators, ASCII-only, ``allow_nan=False``),
    joined once from byte pieces. A message's ``escaped_content`` pieces go in
    as they are, so the body is the one copy of them; a content without them
    is escaped here, so no more than two copies of it are held at once.
    """
    parts = [b'{"model": ', json.dumps(config.model).encode("ascii"), b', "messages": [']
    for index, message in enumerate(messages):
        if message.escaped_content is None:
            content = (json.dumps(message.content).encode("ascii"),)
        else:
            content = (b'"', *message.escaped_content, b'"')
        parts += (f'{", " if index else ""}{{"role": "{message.role.value}", "content": '
                  .encode("ascii"), *content, b"}")
    parts.append(f'], "temperature": {json.dumps(config.temperature, allow_nan=False)}, '
                 f'"max_tokens": {json.dumps(config.max_output_tokens, allow_nan=False)}}}'
                 .encode("ascii"))
    return b"".join(parts)


def cache_key(body: bytes) -> str:
    """Content hash of a request body; order- and whitespace-sensitive."""
    return hashlib.sha256(body).hexdigest()


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
    """Produces assistant text for a request, given as messages and as its
    encoded ``request_body``."""

    def generate(self, config: RunConfig, messages: Sequence[ChatMessage],
                 body: bytes) -> str:
        raise NotImplementedError


class HttpBackend(Backend):
    """POSTs the encoded request body and reads the first candidate.

    ``request`` has ``transport.request``'s signature and defaults to it.
    Every attempt posts the same body bytes. A last reply other than 200 is a
    TransportError, a 200 that is not a completion a DecodeError.
    """

    def __init__(self, request: Optional[Callable] = None,
                 sleep: Callable[[float], None] = time.sleep):
        self._request = request or transport.request
        self._sleep = sleep

    def generate(self, config: RunConfig, messages: Sequence[ChatMessage],
                 body: bytes) -> str:
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(config.api_key_env)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        status, _, reply = transport.request_with_retry(
            self._request, "POST", config.endpoint, headers=headers, body=body,
            timeout=config.timeout, policy=config.retry_policy(), sleep=self._sleep)
        if status != 200:
            raise TransportError(f"completion endpoint returned {status}")
        try:
            content = json.loads(reply)["choices"][0]["message"]["content"]
        except (ValueError, RecursionError, KeyError, IndexError, TypeError) as exc:
            raise DecodeError(f"malformed completion response: {exc!r}") from exc
        if not isinstance(content, str):
            raise DecodeError("completion content is not a string")
        return content


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
            payload = json.loads(read_text(path, ConfigError))
            return cls(
                [(e["matcher"], e["response"]) for e in payload["entries"]],
                mode=payload.get("mode", "repeatable"),
            )
        except KeyError as exc:
            raise ConfigError(f"script file {path}: missing key {exc}") from None
        except (AttributeError, TypeError, ValueError, RecursionError) as exc:
            raise ConfigError(f"script file {path}: {exc}") from None

    def generate(self, config: RunConfig, messages: Sequence[ChatMessage],
                 body: bytes) -> str:
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
    """Content-addressed completion cache: one JSON file per request key,
    holding the request body as posted and the reply."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._lock = threading.Lock()

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> Optional[str]:
        """The cached reply; None when the entry is absent or unreadable."""
        try:
            response = json.loads(self._path(key).read_text(encoding="utf-8"))["response"]
        except (OSError, ValueError, RecursionError, KeyError, TypeError):
            return None
        return response if isinstance(response, str) else None

    def put(self, key: str, body: bytes, response: str) -> None:
        """Write the entry atomically; a ConfigError when the directory refuses it."""
        entry = b"".join((b'{"key": ', json.dumps(key).encode(), b', "request": ', body,
                          b', "response": ', json.dumps(response).encode(), b"}"))
        with self._lock:
            write_atomic(self.root, self._path(key), entry)


class LLMClient:
    """Budget-checked, cached chat completion over an injectable backend.

    Safe to share across threads; concurrency is bounded by the caller.
    """

    def __init__(self, config: RunConfig, backend: Backend,
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
                 bypass_cache: bool = False,
                 prompt_tokens: Optional[int] = None) -> Completion:
        """The reply to ``messages``, from the cache or the backend.

        ``prompt_tokens``, when given, must equal ``count_message_tokens(messages)``:
        a caller that already knows the count spares the client a scan of the
        prompt. The budget check, the reply's counts and the log use it as is.
        """
        if prompt_tokens is None:
            prompt_tokens = count_message_tokens(messages)
        if prompt_tokens > self.config.max_input_tokens:
            raise ContextOverflowError(
                f"prompt is {prompt_tokens} tokens, budget is {self.config.max_input_tokens}")

        body = request_body(self.config, messages)
        key = cache_key(body)
        response = None
        if self.cache is not None and not bypass_cache:
            response = self.cache.get(key)
        from_cache = response is not None
        if not from_cache:
            response = self.backend.generate(self.config, messages, body)
            if self.cache is not None:
                self.cache.put(key, body, response)
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
