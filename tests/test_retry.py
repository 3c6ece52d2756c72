"""One retry table, run against the LLM, embedding and EDGAR clients.

Each client is given a ``FakeRequest`` in place of ``transport.request`` and
a ``sleep`` that records every wait; all three retry through
``transport.request_with_retry`` under the same ``RetryPolicy``.
"""

import pytest

from conftest import FakeRequest
from finreportqa.config import RunConfig
from finreportqa.embeddings import HttpEmbeddingProvider
from finreportqa.errors import ProviderError, RateLimitedError, TransportError
from finreportqa.ingest import EdgarClient
from finreportqa.llm import HttpBackend, LLMClient, system, user
from finreportqa.transport import RetryPolicy

POLICY = RetryPolicy(max_attempts=3, backoff_seconds=0.25)


def _llm(fake, sleeps, policy):
    config = RunConfig(endpoint="http://llm.test/v1/chat/completions",
                       retry_attempts=policy.max_attempts, retry_backoff=policy.backoff_seconds)
    client = LLMClient(config, HttpBackend(request=fake, sleep=sleeps.append))
    return lambda: client.complete([system("Answer."), user("What is the DSCR?")])


def _embeddings(fake, sleeps, policy):
    config = RunConfig(embedding_endpoint="http://embeddings.test/v1/embeddings",
                       embedding_model="m", embedding_dimension=2,
                       retry_attempts=policy.max_attempts, retry_backoff=policy.backoff_seconds)
    provider = HttpEmbeddingProvider(config, request=fake, sleep=sleeps.append)
    return lambda: provider.embed(["text"])


def _edgar(fake, sleeps, policy):
    client = EdgarClient(timeout=60.0, request=fake, retry=policy, sleep=sleeps.append,
                         clock=lambda: 0.0, min_interval_s=0.0)
    return lambda: client.list_filings("320193")


# client -> (make(fake, sleeps, policy) -> call, the 200 body, the call's result on it)
CLIENTS = {
    "llm": (_llm, b'{"choices": [{"message": {"content": "ok"}}]}', "ok"),
    "embeddings": (_embeddings, b'{"data": [{"embedding": [1.0, 0.0]}]}', [[1.0, 0.0]]),
    "edgar": (_edgar, b'{"name": "Demo", "filings": {"recent": {}}}', []),
}


def _run(client, replies, policy=POLICY):
    make, ok_body, _ = CLIENTS[client]
    fake = FakeRequest([(200, {}, ok_body) if reply == "ok" else reply for reply in replies])
    sleeps = []
    return make(fake, sleeps, policy), fake, sleeps


def _busy(status, retry_after=None):
    return status, ({} if retry_after is None else {"Retry-After": retry_after}), b"busy"


# (replies before the 200, the waits before each retry)
RECOVERED = {
    "retry-after-2": ([_busy(429, "2")], [2.0]),
    "retry-after-0": ([_busy(503, "0")], [0.0]),
    "retry-after-http-date": ([_busy(429, "Wed, 21 Oct 2015 07:28:00 GMT")], [1.0]),
    "retry-after-nan": ([_busy(503, "nan")], [1.0]),
    "retry-after-minus-1": ([_busy(429, "-1")], [1.0]),
    "retry-after-inf": ([_busy(503, "inf")], [1.0]),
    "retry-after-past-a-day": ([_busy(503, "1e300")], [1.0]),
    "no-header-backs-off": ([_busy(429), _busy(503)], [0.25, 0.5]),
    "500": ([_busy(500)], [0.25]),
    "502": ([_busy(502)], [0.25]),
    "503": ([_busy(503)], [0.25]),
    "raised-failure": ([TransportError("connection refused")], [0.25]),
    "raised-then-status": ([TransportError("reset"), _busy(502, "2")], [0.25, 2.0]),
}


@pytest.mark.parametrize("client", CLIENTS)
@pytest.mark.parametrize("row", RECOVERED)
def test_retried_until_a_200(client, row):
    before, waits = RECOVERED[row]
    call, fake, sleeps = _run(client, before + ["ok"])
    assert call() == CLIENTS[client][2]
    assert sleeps == waits
    assert len(fake.calls) == len(before) + 1
    assert len({sent.body for sent in fake.calls}) == 1  # every attempt sends the same bytes


# client -> the error a final reply of 400/401, 429/503, 500 or a raised failure ends in
ERRORS = {
    "llm": {"4xx": TransportError, "busy": TransportError, "500": TransportError,
            "raised": TransportError},
    "embeddings": {"4xx": ProviderError, "busy": ProviderError, "500": ProviderError,
                   "raised": ProviderError},
    "edgar": {"4xx": TransportError, "busy": RateLimitedError, "500": TransportError,
              "raised": TransportError},
}


@pytest.mark.parametrize("client", CLIENTS)
@pytest.mark.parametrize("status", [400, 401])
def test_client_errors_are_not_retried(client, status):
    call, fake, sleeps = _run(client, [_busy(status, "1"), "ok"])
    with pytest.raises(ERRORS[client]["4xx"], match=f"returned {status}"):
        call()
    assert (len(fake.calls), sleeps) == (1, [])


@pytest.mark.parametrize("client", CLIENTS)
@pytest.mark.parametrize("kind, reply", [("busy", _busy(429)), ("busy", _busy(503, "3")),
                                         ("500", _busy(500)),
                                         ("raised", TransportError("connection refused"))])
def test_the_last_attempt_ends_in_the_clients_own_error(client, kind, reply):
    call, fake, sleeps = _run(client, [reply])
    with pytest.raises(ERRORS[client][kind]) as raised:
        call()
    assert len(fake.calls) == POLICY.max_attempts
    assert len(sleeps) == POLICY.max_attempts - 1
    if kind == "raised":
        assert "connection refused (after 3 attempts)" in str(raised.value)


@pytest.mark.parametrize("client", CLIENTS)
def test_one_attempt_when_the_policy_allows_one(client):
    call, fake, sleeps = _run(client, [_busy(503)], RetryPolicy(max_attempts=1))
    with pytest.raises(ERRORS[client]["busy"]):
        call()
    assert (len(fake.calls), sleeps) == (1, [])
