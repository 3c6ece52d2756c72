import json
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from finreportqa import llm as llm_mod
from finreportqa.corpus import count_tokens
from finreportqa.errors import (
    ContextOverflowError,
    DecodeError,
    TransportError,
    UnmatchedPromptError,
)
from finreportqa.llm import (
    ChatMessage,
    Completion,
    HttpBackend,
    LLMClient,
    ProviderConfig,
    ResponseCache,
    RetryPolicy,
    Role,
    ScriptedBackend,
    cache_key,
    count_message_tokens,
    system,
    user,
)


def _messages(text="What is the DSCR?"):
    return [system("You answer financial questions."), user(text)]


class _CountingTransport:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = 0

    def __call__(self, url, payload, headers, timeout):
        self.calls += 1
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def _ok(content="fine"):
    return 200, {"choices": [{"message": {"content": content}}]}


class TestChatMessage:
    def test_empty_user_content_rejected(self):
        with pytest.raises(ValueError):
            ChatMessage(Role.USER, "")

    def test_assistant_may_be_empty(self):
        assert ChatMessage(Role.ASSISTANT, "").content == ""


class TestCacheKey:
    def test_stable(self):
        assert cache_key("m", _messages(), 0.0, 64) == cache_key("m", _messages(), 0.0, 64)

    def test_one_char_difference(self):
        assert cache_key("m", _messages("abc"), 0.0, 64) != cache_key("m", _messages("abd"), 0.0, 64)

    def test_model_sensitivity(self):
        assert cache_key("m1", _messages(), 0.0, 64) != cache_key("m2", _messages(), 0.0, 64)

    def test_whitespace_sensitivity(self):
        assert cache_key("m", _messages("a b"), 0.0, 64) != cache_key("m", _messages("a  b"), 0.0, 64)

    def test_max_output_tokens_sensitivity(self):
        assert cache_key("m", _messages(), 0.0, 64) != cache_key("m", _messages(), 0.0, 65)

    def test_output_cap_change_misses_cache(self, tmp_path):
        transport = _CountingTransport([_ok("short"), _ok("long")])
        cache = ResponseCache(tmp_path / "llm")
        backend = HttpBackend(transport=transport)
        short = LLMClient(ProviderConfig(max_output_tokens=16), backend, cache)
        long = LLMClient(ProviderConfig(max_output_tokens=4096), backend, cache)
        assert short.complete(_messages()) == "short"
        assert long.complete(_messages()) == "long"
        assert short.complete(_messages()) == "short"
        assert transport.calls == 2
        requests = sorted(json.loads(path.read_text())["request"]["max_output_tokens"]
                          for path in (tmp_path / "llm").glob("*.json"))
        assert requests == [16, 4096]


class TestScriptedBackend:
    def test_substring_match(self):
        backend = ScriptedBackend([("DSCR", "EBITDA / debt service")])
        client = LLMClient(ProviderConfig(), backend)
        assert client.complete(_messages()) == "EBITDA / debt service"

    def test_first_match_wins(self):
        backend = ScriptedBackend([("DSCR", "specific"), ("financial", "generic")])
        client = LLMClient(ProviderConfig(), backend)
        assert client.complete(_messages("What is the DSCR?")) == "specific"
        assert client.complete(_messages("other question")) == "generic"

    def test_unmatched_prompt_fails_loudly(self):
        backend = ScriptedBackend([("nothing relevant", "x")])
        client = LLMClient(ProviderConfig(), backend)
        with pytest.raises(UnmatchedPromptError):
            client.complete(_messages())

    def test_consume_once(self):
        backend = ScriptedBackend(
            [("DSCR", "first"), ("DSCR", "second")], mode="consume-once")
        client = LLMClient(ProviderConfig(), backend)
        assert client.complete(_messages()) == "first"
        assert client.complete(_messages()) == "second"
        with pytest.raises(UnmatchedPromptError):
            client.complete(_messages())

    def test_sha256_matcher(self):
        from finreportqa.llm import render_messages
        import hashlib

        digest = hashlib.sha256(render_messages(_messages()).encode()).hexdigest()
        backend = ScriptedBackend([(f"sha256:{digest}", "exact")])
        client = LLMClient(ProviderConfig(), backend)
        assert client.complete(_messages()) == "exact"

    def test_zero_network_activity(self, monkeypatch):
        import requests

        calls = []
        monkeypatch.setattr(requests, "post",
                            lambda *a, **k: calls.append(1) or pytest.fail("network hit"))
        backend = ScriptedBackend([("DSCR", "scripted")])
        client = LLMClient(ProviderConfig(), backend)
        client.complete(_messages())
        assert calls == []

    def test_from_file(self, tmp_path):
        import json

        path = tmp_path / "script.json"
        path.write_text(json.dumps({
            "mode": "repeatable",
            "entries": [{"matcher": "DSCR", "response": "ok"}],
        }))
        backend = ScriptedBackend.from_file(path)
        assert LLMClient(ProviderConfig(), backend).complete(_messages()) == "ok"


class TestComplete:
    def test_context_overflow_before_network(self):
        transport = _CountingTransport([_ok()])
        config = ProviderConfig(max_input_tokens=5)
        client = LLMClient(config, HttpBackend(transport=transport))
        with pytest.raises(ContextOverflowError):
            client.complete(_messages("far too many words in this prompt for the budget"))
        assert transport.calls == 0

    def test_http_success(self):
        transport = _CountingTransport([_ok("answer")])
        client = LLMClient(ProviderConfig(), HttpBackend(transport=transport))
        assert client.complete(_messages()) == "answer"
        assert transport.calls == 1

    def test_retry_then_success(self):
        transport = _CountingTransport([ConnectionError("boom"), (500, {}), _ok("recovered")])
        config = ProviderConfig(retry=RetryPolicy(max_attempts=3, backoff_seconds=0.0))
        client = LLMClient(config, HttpBackend(transport=transport, sleep=lambda s: None))
        assert client.complete(_messages()) == "recovered"
        assert transport.calls == 3

    def test_transport_error_after_retries(self):
        transport = _CountingTransport([ConnectionError("a"), ConnectionError("b")])
        config = ProviderConfig(retry=RetryPolicy(max_attempts=2, backoff_seconds=0.0))
        client = LLMClient(config, HttpBackend(transport=transport, sleep=lambda s: None))
        with pytest.raises(TransportError):
            client.complete(_messages())
        assert transport.calls == 2

    def test_non_retryable_status(self):
        transport = _CountingTransport([(401, {})])
        client = LLMClient(ProviderConfig(), HttpBackend(transport=transport))
        with pytest.raises(TransportError):
            client.complete(_messages())
        assert transport.calls == 1

    def test_decode_error(self):
        transport = _CountingTransport([(200, {"unexpected": []})])
        client = LLMClient(ProviderConfig(), HttpBackend(transport=transport))
        with pytest.raises(DecodeError):
            client.complete(_messages())

    def test_cache_serves_second_call(self, tmp_path):
        transport = _CountingTransport([_ok("cached answer")])
        cache = ResponseCache(tmp_path / "llm")
        client = LLMClient(ProviderConfig(), HttpBackend(transport=transport), cache)
        assert client.complete(_messages()) == "cached answer"
        assert client.complete(_messages()) == "cached answer"
        assert transport.calls == 1
        assert client.cache_hits == 1

    def test_cache_survives_new_client(self, tmp_path):
        cache = ResponseCache(tmp_path / "llm")
        first = LLMClient(ProviderConfig(), HttpBackend(transport=_CountingTransport([_ok("hit")])), cache)
        first.complete(_messages())

        dead_transport = _CountingTransport([])
        second = LLMClient(ProviderConfig(), HttpBackend(transport=dead_transport), cache)
        assert second.complete(_messages()) == "hit"
        assert dead_transport.calls == 0

    def test_bypass_cache_reaches_backend(self, tmp_path):
        transport = _CountingTransport([_ok("one"), _ok("two")])
        cache = ResponseCache(tmp_path / "llm")
        client = LLMClient(ProviderConfig(), HttpBackend(transport=transport), cache)
        assert client.complete(_messages()) == "one"
        assert client.complete(_messages(), bypass_cache=True) == "two"
        assert transport.calls == 2

    @pytest.mark.parametrize("damaged", [
        None, b"", b"[]", b"null", b'{"key": "k"}', b'{"response": 5}', b"\xff\xfe"])
    def test_unreadable_entry_is_a_miss_and_rewritten(self, tmp_path, damaged):
        transport = _CountingTransport([_ok("fresh"), _ok("fresh")])
        cache = ResponseCache(tmp_path / "llm")
        client = LLMClient(ProviderConfig(), HttpBackend(transport=transport), cache)
        client.complete(_messages())
        (entry,) = (tmp_path / "llm").glob("*.json")
        intact = entry.read_bytes()
        entry.write_bytes(intact[:20] if damaged is None else damaged)
        assert cache.get(entry.stem) is None
        assert client.complete(_messages()) == "fresh"
        assert transport.calls == 2
        assert entry.read_bytes() == intact
        assert cache.get(entry.stem) == "fresh"

    def test_audit_log_written(self, tmp_path):
        import json

        log = tmp_path / "audit.jsonl"
        client = LLMClient(ProviderConfig(), ScriptedBackend([("DSCR", "ok")]),
                           log_path=log)
        client.complete(_messages())
        entries = [json.loads(line) for line in log.read_text().splitlines()]
        assert entries[0]["response"] == "ok"
        assert entries[0]["from_cache"] is False


class TestTokenCounting:
    def test_counts_contents_plus_roles(self):
        messages = [system("a b c"), user("d e")]
        assert count_message_tokens(messages) == 3 + 1 + 2 + 1

    def test_temperature_defaults_to_zero(self):
        assert ProviderConfig().temperature == 0.0

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            ProviderConfig(max_input_tokens=0)


class TestTokenizeOnce:
    """complete() counts each prompt once and hands the counts on."""

    @pytest.mark.parametrize("cached", [False, True])
    def test_one_count_per_message_and_reply(self, tmp_path, monkeypatch, cached):
        log = tmp_path / "llm_log.jsonl"
        client = LLMClient(ProviderConfig(), ScriptedBackend([("DSCR", "EBITDA / debt service")]),
                           ResponseCache(tmp_path / "llm"), log_path=log)
        messages = _messages()
        if cached:
            client.complete(messages)
        counted = []

        def recording(text, *args, **kwargs):
            counted.append(text)
            return count_tokens(text, *args, **kwargs)

        # llm binds corpus.count_tokens by name; count every call through it
        monkeypatch.setattr(llm_mod, "count_tokens", recording)
        reply = client.complete(messages)
        assert counted == [m.content for m in messages] + ["EBITDA / debt service"]
        assert client.cache_hits == int(cached)

        entry = json.loads(log.read_text().splitlines()[-1])
        assert entry["from_cache"] is cached
        assert entry["prompt_tokens"] == reply.prompt_tokens == count_message_tokens(messages)
        assert entry["response_tokens"] == reply.response_tokens == count_tokens(reply)

    def test_completion_is_the_reply_text(self):
        reply = LLMClient(ProviderConfig(), ScriptedBackend([("DSCR", "ok then")])).complete(
            _messages())
        assert isinstance(reply, Completion) and reply == "ok then"
        assert json.dumps({"r": reply}) == json.dumps({"r": "ok then"})
        assert type(reply.strip()) is str
        assert (reply.prompt_tokens, reply.response_tokens) == (
            count_message_tokens(_messages()), 2)


class TestConcurrency:
    def test_counters_are_exact_under_threads(self, tmp_path):
        client = LLMClient(ProviderConfig(), ScriptedBackend([("", "x")]),
                           ResponseCache(tmp_path / "llm"))
        requests = [_messages(f"question {i % 25}") for i in range(400)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so a lost update shows
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                replies = list(pool.map(client.complete, requests, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert replies == ["x"] * len(requests)
        assert client.backend_calls + client.cache_hits == len(requests)
        assert client.backend_calls == client.backend.calls
