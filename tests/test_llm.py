import json
import random
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest

from conftest import FakeRequest
from finreportqa import llm as llm_mod
from finreportqa.config import RunConfig
from finreportqa.corpus import PageChunk, Report, count_tokens
from finreportqa.errors import (
    ConfigError,
    ContextOverflowError,
    DecodeError,
    TransportError,
    UnmatchedPromptError,
)
from finreportqa.llm import (
    Backend,
    ChatMessage,
    Completion,
    HttpBackend,
    LLMClient,
    ResponseCache,
    Role,
    ScriptedBackend,
    cache_key,
    count_message_tokens,
    request_body,
    system,
    user,
)
from finreportqa.pipelines import run_baseline


def _messages(text="What is the DSCR?"):
    return [system("You answer financial questions."), user(text)]


def _ok(content="fine"):
    return 200, {}, json.dumps({"choices": [{"message": {"content": content}}]}).encode()


class TestChatMessage:
    def test_empty_user_content_rejected(self):
        with pytest.raises(ValueError):
            ChatMessage(Role.USER, "")

    def test_assistant_may_be_empty(self):
        assert ChatMessage(Role.ASSISTANT, "").content == ""


class TestCacheKey:
    def test_stable(self):
        assert (cache_key(request_body(RunConfig(model="m", max_output_tokens=64), _messages()))
                == cache_key(request_body(RunConfig(model="m", max_output_tokens=64), _messages())))

    def test_one_char_difference(self):
        assert (cache_key(request_body(RunConfig(model="m", max_output_tokens=64), _messages("abc")))
                != cache_key(request_body(RunConfig(model="m", max_output_tokens=64), _messages("abd"))))

    def test_model_sensitivity(self):
        assert (cache_key(request_body(RunConfig(model="m1", max_output_tokens=64), _messages()))
                != cache_key(request_body(RunConfig(model="m2", max_output_tokens=64), _messages())))

    def test_whitespace_sensitivity(self):
        assert (cache_key(request_body(RunConfig(model="m", max_output_tokens=64), _messages("a b")))
                != cache_key(request_body(RunConfig(model="m", max_output_tokens=64), _messages("a  b"))))

    def test_max_output_tokens_sensitivity(self):
        assert (cache_key(request_body(RunConfig(model="m", max_output_tokens=64), _messages()))
                != cache_key(request_body(RunConfig(model="m", max_output_tokens=65), _messages())))

    def test_output_cap_change_misses_cache(self, tmp_path):
        fake = FakeRequest([_ok("short"), _ok("long")])
        cache = ResponseCache(tmp_path / "llm")
        backend = HttpBackend(request=fake)
        short = LLMClient(RunConfig(max_output_tokens=16), backend, cache)
        long = LLMClient(RunConfig(max_output_tokens=4096), backend, cache)
        assert short.complete(_messages()) == "short"
        assert long.complete(_messages()) == "long"
        assert short.complete(_messages()) == "short"
        assert len(fake.calls) == 2
        requests = sorted(json.loads(path.read_text())["request"]["max_tokens"]
                          for path in (tmp_path / "llm").glob("*.json"))
        assert requests == [16, 4096]


class TestWire:
    def test_posted_request_is_pinned(self, local_server, monkeypatch):
        import hashlib

        local_server.replies = [(200, {"Content-Type": "application/json"},
                                 b'{"choices": [{"message": {"content": "ok"}}]}')]
        monkeypatch.delenv("FINDOC_API_KEY", raising=False)
        text = 'Net «revenue» — "quoted", a back\\slash,\ta tab\nand a new line: €1.2 bn'
        config = RunConfig(endpoint=local_server.url + "/v1/chat/completions", model="m")
        client = LLMClient(config, HttpBackend())
        assert client.complete([system("Answer in JSON."), user(text)]) == "ok"
        (request,) = local_server.requests
        assert (request.method, request.path) == ("POST", "/v1/chat/completions")
        assert hashlib.sha256(request.body).hexdigest() == (
            "fae80758f4bd4b0b0495aac189df3632960bb01a39de4313691d928bac964f51")
        headers = {name.lower(): value for name, value in request.headers.items()}
        assert headers["content-type"] == "application/json"
        assert headers["content-length"] == "245"


def _reference_body(config: RunConfig, messages) -> bytes:
    """The request body as one json.dumps of the request dict writes it."""
    return json.dumps({
        "model": config.model,
        "messages": [{"role": m.role.value, "content": m.content} for m in messages],
        "temperature": config.temperature,
        "max_tokens": config.max_output_tokens,
    }, allow_nan=False).encode("utf-8")


# characters JSON escapes or that take more than one UTF-8 byte, and plain ones
_AWKWARD_CHARS = ('"', "\\", "\x00", "\x1f", "\t", "\n", "\x7f", "\x80", "\u00e9", "\u20ac",
                  "\u2028", "\ufeff", "\ud800", "\U0001f600", "\U0010ffff")
_PLAIN_CHARS = "abc XYZ 019|.,:;-_{}[]/'#$%&*+<=>?@^`~!"


def _random_text(rng, min_length=0) -> str:
    return "".join(rng.choice(_AWKWARD_CHARS) if rng.random() < 0.2 else rng.choice(_PLAIN_CHARS)
                   for _ in range(rng.randint(min_length, 40)))


def _split(rng, data: bytes) -> tuple[bytes, ...]:
    """``data`` cut into pieces at random places."""
    cuts = sorted(rng.sample(range(len(data) + 1), rng.randint(0, min(3, len(data) + 1))))
    return tuple(data[a:b] for a, b in zip([0, *cuts], [*cuts, len(data)]))


class TestRequestBodyBytes:
    """``request_body`` is byte for byte one ``json.dumps`` of the request."""

    def test_seeded_requests_match_json_dumps(self):
        rng = random.Random(20261019)
        models = ("scripted", "gpt-4o-mini", 'm"odel\\', "mod\u00e8le", "\U0001f600")
        temperatures = (0.0, 1e-7, 2.5, 1e20, 0)
        for case in range(2000):
            config = RunConfig(model=rng.choice(models),
                               temperature=rng.choice(temperatures),
                               max_output_tokens=rng.choice((1, 2048, 10 ** 6)))
            messages = []
            for _ in range(rng.randint(0, 4)):
                role = rng.choice(list(Role))
                content = _random_text(rng, min_length=0 if role is Role.ASSISTANT else 1)
                if role is Role.USER and rng.random() < 0.5:
                    # the tail arrives escaped, cut into pieces
                    cut = rng.randint(1, len(content))
                    escaped_tail = json.dumps(content[cut:])[1:-1].encode("ascii")
                    messages.append(user(content[:cut], _split(rng, escaped_tail)))
                else:
                    messages.append(ChatMessage(role, content))
            assert request_body(config, messages) == _reference_body(config, messages), case

    def test_nan_temperature_is_refused_like_json_dumps(self):
        with pytest.raises(ValueError):
            request_body(RunConfig(temperature=float("nan")), _messages())

    @pytest.mark.parametrize("escaped", [False, True])
    def test_a_long_content_is_copied_twice_at_most(self, escaped):
        """The join and the encode each copy a content once: its escaped copy
        is freed before the encode, and a carried escaping is not copied."""
        content = "Revenue | 1,200 | up 5% " * 20_000
        message = user("Q: ", (content.encode("ascii"),)) if escaped else user("Q: " + content)
        tracemalloc.start()
        try:
            request_body(RunConfig(), [message])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * len(content)

    @pytest.mark.parametrize("pages", [
        ("Revenue | 1,200 | up 5%", "Net income: $300m {note 4}"),
        ('He said "record year"', "C:\\reports\\2002", "caf\u00e9 \u20ac1.2bn",
         "\U0001f600 del\x7f nul\x00"),
    ])
    def test_long_context_requests_match_json_dumps(self, pages):
        report = Report("r", "", 0, tuple(PageChunk(n, f"page {n}:\n{text}\n")
                                          for n, text in enumerate(pages * 20, start=1)))
        sent = []

        class Spy(ScriptedBackend):
            def generate(self, config, messages, body):
                sent.append((config, messages, body))
                return super().generate(config, messages, body)

        for question in ("What is the DSCR?", 'Is "net" \u00e9lev\u00e9e?\tC:\\x'):
            for budget in (200, 10_000):  # a cut prefix and the whole report
                client = LLMClient(RunConfig(max_input_tokens=budget),
                                   Spy([("Question", "{{1.0}}")]))
                run_baseline("long_context", question, client, report=report)
                config, messages, body = sent[-1]
                assert body == _reference_body(config, messages), (question, budget)
                # every report's prompt carries its escaping, plain or not
                assert messages[-1].escaped_content is not None


# the characters ingest.html_to_pages decodes from &#8217;, &#8220;, &#8221;,
# &#8212; and &nbsp;
_INGESTED_WORDS = "Acme\u2019s \u201cnet\u201d income \u2014\u00a0rose"


class TestLongContextBody:
    @pytest.mark.parametrize("words", ["Acme's net income - rose", _INGESTED_WORDS])
    def test_a_request_over_flattened_pages_peaks_below_one_fifth_past_its_body(self, words):
        """The request body is the one report-sized buffer a long-context
        question allocates once the report's pages are flattened."""
        report = Report("r", "", 0, tuple(
            PageChunk(n, f"Page {n}\n" + "".join(f"| {words} | {n},{row:03} |\n"
                                                  for row in range(150)))
            for n in range(1, 301)))
        bodies = []

        class BodyLength(Backend):
            def generate(self, config, messages, body):
                bodies.append(len(body))
                return "{{1.0}}"

        # a budget that cuts the report inside a page
        client = LLMClient(RunConfig(max_input_tokens=100_003), BodyLength())
        run_baseline("long_context", "What is the DSCR?", client, report=report)
        tracemalloc.start()
        try:
            run_baseline("long_context", "What is the DSCR?", client, report=report)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bodies[0] == bodies[1] > 400_000
        assert peak < 1.2 * bodies[1]


class TestScriptedBackend:
    def test_substring_match(self):
        backend = ScriptedBackend([("DSCR", "EBITDA / debt service")])
        client = LLMClient(RunConfig(), backend)
        assert client.complete(_messages()) == "EBITDA / debt service"

    def test_first_match_wins(self):
        backend = ScriptedBackend([("DSCR", "specific"), ("financial", "generic")])
        client = LLMClient(RunConfig(), backend)
        assert client.complete(_messages("What is the DSCR?")) == "specific"
        assert client.complete(_messages("other question")) == "generic"

    def test_unmatched_prompt_fails_loudly(self):
        backend = ScriptedBackend([("nothing relevant", "x")])
        client = LLMClient(RunConfig(), backend)
        with pytest.raises(UnmatchedPromptError):
            client.complete(_messages())

    def test_consume_once(self):
        backend = ScriptedBackend(
            [("DSCR", "first"), ("DSCR", "second")], mode="consume-once")
        client = LLMClient(RunConfig(), backend)
        assert client.complete(_messages()) == "first"
        assert client.complete(_messages()) == "second"
        with pytest.raises(UnmatchedPromptError):
            client.complete(_messages())

    def test_sha256_matcher(self):
        from finreportqa.llm import render_messages
        import hashlib

        digest = hashlib.sha256(render_messages(_messages()).encode()).hexdigest()
        backend = ScriptedBackend([(f"sha256:{digest}", "exact")])
        client = LLMClient(RunConfig(), backend)
        assert client.complete(_messages()) == "exact"

    def test_zero_network_activity(self, no_network):
        backend = ScriptedBackend([("DSCR", "scripted")])
        client = LLMClient(RunConfig(), backend)
        client.complete(_messages())
        assert no_network == []

    def test_from_file(self, tmp_path):
        import json

        path = tmp_path / "script.json"
        path.write_text(json.dumps({
            "mode": "repeatable",
            "entries": [{"matcher": "DSCR", "response": "ok"}],
        }))
        backend = ScriptedBackend.from_file(path)
        assert LLMClient(RunConfig(), backend).complete(_messages()) == "ok"


class TestComplete:
    def test_context_overflow_before_network(self):
        fake = FakeRequest([_ok()])
        config = RunConfig(max_input_tokens=5)
        client = LLMClient(config, HttpBackend(request=fake))
        with pytest.raises(ContextOverflowError):
            client.complete(_messages("far too many words in this prompt for the budget"))
        assert fake.calls == []

    def test_http_success(self):
        fake = FakeRequest([_ok("answer")])
        client = LLMClient(RunConfig(), HttpBackend(request=fake))
        assert client.complete(_messages()) == "answer"
        assert len(fake.calls) == 1

    def test_retry_then_success(self):
        fake = FakeRequest([TransportError("boom"), (500, {}, b""), _ok("recovered")])
        config = RunConfig(retry_attempts=3, retry_backoff=0.0)
        client = LLMClient(config, HttpBackend(request=fake, sleep=lambda s: None))
        assert client.complete(_messages()) == "recovered"
        assert len(fake.calls) == 3

    def test_every_attempt_posts_the_request_body(self):
        fake = FakeRequest([(503, {}, b'{"error": "busy"}')] * 2 + [_ok("third time")])
        config = RunConfig(retry_attempts=3, retry_backoff=0.0)
        client = LLMClient(config, HttpBackend(request=fake, sleep=lambda s: None))
        assert client.complete(_messages()) == "third time"
        assert [call.body for call in fake.calls] == [request_body(config, _messages())] * 3

    def test_transport_error_after_retries(self):
        fake = FakeRequest([TransportError("a"), TransportError("b")])
        config = RunConfig(retry_attempts=2, retry_backoff=0.0)
        client = LLMClient(config, HttpBackend(request=fake, sleep=lambda s: None))
        with pytest.raises(TransportError):
            client.complete(_messages())
        assert len(fake.calls) == 2

    def test_non_retryable_status(self):
        fake = FakeRequest([(401, {}, b"")])
        client = LLMClient(RunConfig(), HttpBackend(request=fake))
        with pytest.raises(TransportError):
            client.complete(_messages())
        assert len(fake.calls) == 1

    def test_decode_error(self):
        fake = FakeRequest([(200, {}, b'{"unexpected": []}')])
        client = LLMClient(RunConfig(), HttpBackend(request=fake))
        with pytest.raises(DecodeError):
            client.complete(_messages())

    def test_cache_serves_second_call(self, tmp_path):
        fake = FakeRequest([_ok("cached answer")])
        cache = ResponseCache(tmp_path / "llm")
        client = LLMClient(RunConfig(), HttpBackend(request=fake), cache)
        assert client.complete(_messages()) == "cached answer"
        assert client.complete(_messages()) == "cached answer"
        assert len(fake.calls) == 1
        assert client.cache_hits == 1

    def test_cache_entry_holds_the_hashed_body(self, tmp_path):
        import hashlib

        cache = ResponseCache(tmp_path / "llm")
        client = LLMClient(RunConfig(), HttpBackend(request=FakeRequest([_ok()])), cache)
        client.complete(_messages('quote " and «non-ASCII»'))
        (path,) = (tmp_path / "llm").glob("*.json")
        entry = json.loads(path.read_text(encoding="utf-8"))
        assert entry["key"] == path.stem
        assert hashlib.sha256(json.dumps(entry["request"]).encode()).hexdigest() == path.stem
        assert entry["response"] == "fine"

    def test_cache_survives_new_client(self, tmp_path):
        cache = ResponseCache(tmp_path / "llm")
        first = LLMClient(RunConfig(), HttpBackend(request=FakeRequest([_ok("hit")])), cache)
        first.complete(_messages())

        dead = FakeRequest([])
        second = LLMClient(RunConfig(), HttpBackend(request=dead), cache)
        assert second.complete(_messages()) == "hit"
        assert dead.calls == []

    def test_bypass_cache_reaches_backend(self, tmp_path):
        fake = FakeRequest([_ok("one"), _ok("two")])
        cache = ResponseCache(tmp_path / "llm")
        client = LLMClient(RunConfig(), HttpBackend(request=fake), cache)
        assert client.complete(_messages()) == "one"
        assert client.complete(_messages(), bypass_cache=True) == "two"
        assert len(fake.calls) == 2

    @pytest.mark.parametrize("damaged", [
        None, b"", b"[]", b"null", b'{"key": "k"}', b'{"response": 5}', b"\xff\xfe",
        pytest.param(b"[" * 100_000, id="deeply-nested")])
    def test_unreadable_entry_is_a_miss_and_rewritten(self, tmp_path, damaged):
        fake = FakeRequest([_ok("fresh"), _ok("fresh")])
        cache = ResponseCache(tmp_path / "llm")
        client = LLMClient(RunConfig(), HttpBackend(request=fake), cache)
        client.complete(_messages())
        (entry,) = (tmp_path / "llm").glob("*.json")
        intact = entry.read_bytes()
        entry.write_bytes(intact[:20] if damaged is None else damaged)
        assert cache.get(entry.stem) is None
        assert client.complete(_messages()) == "fresh"
        assert len(fake.calls) == 2
        assert entry.read_bytes() == intact
        assert cache.get(entry.stem) == "fresh"

    def test_directory_at_entry_path(self, tmp_path):
        fake = FakeRequest([_ok("fresh")])
        cache = ResponseCache(tmp_path / "llm")
        client = LLMClient(RunConfig(), HttpBackend(request=fake), cache)
        key = llm_mod.cache_key(llm_mod.request_body(RunConfig(), _messages()))
        (tmp_path / "llm" / f"{key}.json").mkdir(parents=True)
        assert cache.get(key) is None
        with pytest.raises(ConfigError) as raised:
            client.complete(_messages())
        assert str(tmp_path / "llm") in str(raised.value)
        assert len(fake.calls) == 1
        assert [p.name for p in (tmp_path / "llm").iterdir()] == [f"{key}.json"]

    def test_audit_log_written(self, tmp_path):
        import json

        log = tmp_path / "audit.jsonl"
        client = LLMClient(RunConfig(), ScriptedBackend([("DSCR", "ok")]),
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
        assert RunConfig().temperature == 0.0


class TestTokenizeOnce:
    """complete() counts each prompt once and hands the counts on."""

    @pytest.mark.parametrize("cached", [False, True])
    def test_one_count_per_message_and_reply(self, tmp_path, monkeypatch, cached):
        log = tmp_path / "llm_log.jsonl"
        client = LLMClient(RunConfig(), ScriptedBackend([("DSCR", "EBITDA / debt service")]),
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

    def test_supplied_prompt_count_is_used_without_a_scan(self, tmp_path, monkeypatch):
        log = tmp_path / "llm_log.jsonl"
        client = LLMClient(RunConfig(max_input_tokens=10),
                           ScriptedBackend([("DSCR", "EBITDA / debt service")]), log_path=log)
        counted = []

        def recording(text, *args, **kwargs):
            counted.append(text)
            return count_tokens(text, *args, **kwargs)

        messages = _messages()
        exact = count_message_tokens(messages)
        monkeypatch.setattr(llm_mod, "count_tokens", recording)
        reply = client.complete(messages, prompt_tokens=exact)
        assert counted == ["EBITDA / debt service"]  # the reply only
        entry = json.loads(log.read_text().splitlines()[-1])
        assert entry["prompt_tokens"] == reply.prompt_tokens == exact == 10
        # the budget check reads the supplied count too
        with pytest.raises(ContextOverflowError):
            client.complete(messages, prompt_tokens=11)
        assert client.backend_calls == 1

    def test_completion_is_the_reply_text(self):
        reply = LLMClient(RunConfig(), ScriptedBackend([("DSCR", "ok then")])).complete(
            _messages())
        assert isinstance(reply, Completion) and reply == "ok then"
        assert json.dumps({"r": reply}) == json.dumps({"r": "ok then"})
        assert type(reply.strip()) is str
        assert (reply.prompt_tokens, reply.response_tokens) == (
            count_message_tokens(_messages()), 2)


class TestConcurrency:
    def test_counters_are_exact_under_threads(self, tmp_path):
        client = LLMClient(RunConfig(), ScriptedBackend([("", "x")]),
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
