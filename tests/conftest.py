"""Shared fixtures: a small annual-report corpus and scripted LLM scenarios.

The anchor scenario is a coverage-ratio question whose interest-expense
page shares no vocabulary with the round-1 query, so the first retrieval
round provably misses it and the evaluator's feedback is what makes the
second round find it.
"""

from __future__ import annotations

import hashlib
import json
import socket
import ssl
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import NamedTuple, Optional

import pytest

from finreportqa.config import RunConfig
from finreportqa.corpus import QAInstance, parse_report
from finreportqa.embeddings import EmbeddingProvider
from finreportqa.llm import LLMClient, ScriptedBackend

DSCR_QUESTION = "What is the Debt Service Coverage Ratio (DSCR) of the company in 2002?"

DSCR_REPORT_MD = """\
<!-- page: 10 -->
Quarterly revenue summary and business overview of the company.
| Revenue | 900 |
| Gross margin | 300 |
<!-- page: 11 -->
Management discussion of company performance and outlook covering the year.
<!-- page: 31 -->
Finance costs breakdown.
| Interest and other expense, net | 11 |
<!-- page: 34 -->
Long-term debt note. Principal repayments due: 0 for the year.
<!-- page: 50 -->
Income statement highlights for the company.
| EBITDA | 17 |
Debt service coverage inputs appear here.
<!-- page: 51 -->
Cash flow statement. Depreciation plus amortization reconciliation items.
"""

ROUND1_FORMULA = "EBITDA / (Financing Charges + Principal Repayments)"
ROUND2_FORMULA = "EBITDA / (Interest Expense + Principal Repayments)"

SOLVER_ROUND1_REPLY = "Insufficient data: cannot locate the interest expense line. {{0}}"
SOLVER_ROUND2_REPLY = (
    "EBITDA = 17 (page_number: 50). Interest expense = 11 (page_number: 31). "
    "Principal repayments = 0 (page_number: 34). DSCR = 17 / (11 + 0) = {{1.55}}"
)
EVALUATOR_MISSING_REPLY = "interest expense: interest and other expense"

# Ordered matchers: more specific round-2 prompts first, then the per-role
# fallbacks keyed on each agent's system prompt.
DSCR_SCRIPT = [
    ("Missing components to cover", ROUND2_FORMULA),
    ("financial text understanding", ROUND1_FORMULA),
    ("Interest and other expense", SOLVER_ROUND2_REPLY),
    ("annual report in Markdown form", SOLVER_ROUND1_REPLY),
    ("{{1.55}}", "NONE"),
    ("inspects a generated answer", EVALUATOR_MISSING_REPLY),
]

ALWAYS_MISSING_SCRIPT = [
    ("financial text understanding", "Alpha / Beta"),
    ("annual report in Markdown form", "cannot tell {{0}}"),
    ("inspects a generated answer", "net income, total assets"),
]


def make_scripted_client(entries, **config_overrides) -> LLMClient:
    return LLMClient(RunConfig(**config_overrides), ScriptedBackend(entries))


def dscr_instance(**overrides) -> QAInstance:
    base = dict(
        id="q-dscr-1",
        company="DemoCo",
        year=2002,
        question=DSCR_QUESTION,
        answer="1.55",
        type="mixed",
        page_numbers=[31, 50],
        python_code="17/(11+0)",
        thoughts="Thought: combine the coverage inputs across pages.",
        n_evidence_tables=2,
    )
    base.update(overrides)
    return QAInstance(**base)


@pytest.fixture
def dscr_report():
    return parse_report(DSCR_REPORT_MD, report_id="DemoCo_2002", company="DemoCo",
                        fiscal_year=2002)


@pytest.fixture
def dscr_client():
    return make_scripted_client(DSCR_SCRIPT)


def write_dscr_workspace(tmp_path):
    """Corpus dir, dataset, and script file for CLI-level runs."""
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir(exist_ok=True)
    (corpus_dir / "DemoCo_2002.md").write_text(DSCR_REPORT_MD, encoding="utf-8")

    dataset = tmp_path / "dataset.jsonl"
    record = {
        "id": "q-dscr-1",
        "company": "DemoCo",
        "year": 2002,
        "question": DSCR_QUESTION,
        "type": "mixed",
        "thoughts": "Thought: combine the coverage inputs across pages.",
        "page_numbers": [31, 50],
        "python_code": "17/(11+0)",
        "answer": "1.55",
        "n_evidence_tables": 2,
    }
    dataset.write_text(json.dumps(record) + "\n", encoding="utf-8")

    script = tmp_path / "script.json"
    script.write_text(json.dumps({
        "mode": "repeatable",
        "entries": [{"matcher": m, "response": r} for m, r in DSCR_SCRIPT],
    }), encoding="utf-8")
    return corpus_dir, dataset, script


class HashProvider(EmbeddingProvider):
    """Toy in-process embedding provider: a fixed pseudo-random vector per
    text (sha256 bytes 0-7, each minus 128)."""

    model = "hash-toy"
    dimension = 8

    def embed(self, texts):
        return [[b - 128.0 for b in hashlib.sha256(t.encode()).digest()[:8]] for t in texts]


@pytest.fixture
def no_network(monkeypatch):
    """Fails the test on any socket connect; yields the addresses tried."""
    attempts = []

    def refuse(sock, address, *args):
        attempts.append(address)
        pytest.fail(f"network connect to {address!r}")

    monkeypatch.setattr(socket.socket, "connect", refuse)
    monkeypatch.setattr(socket.socket, "connect_ex", refuse)
    yield attempts
    assert attempts == []


class SentRequest(NamedTuple):
    method: str
    url: str
    headers: dict
    body: Optional[bytes]
    timeout: float


class FakeRequest:
    """A stand-in for ``transport.request`` that records every call in
    ``calls`` and answers from ``replies``.

    ``replies`` is a list of (status, headers, body) replies, or exceptions
    to raise, served in order with the last one repeated; or a dict holding
    such a list, or one reply, per URL.
    """

    def __init__(self, replies):
        self.replies = replies
        self.calls: list[SentRequest] = []

    def __call__(self, method, url, *, headers, body=None, timeout):
        self.calls.append(SentRequest(method, url, dict(headers), body, timeout))
        replies = self.replies[url] if isinstance(self.replies, dict) else self.replies
        if isinstance(replies, list):
            replies = replies.pop(0) if len(replies) > 1 else replies[0]
        if isinstance(replies, Exception):
            raise replies
        return replies


class RecordedRequest(NamedTuple):
    method: str
    path: str
    headers: dict  # the request's header lines, names as sent
    body: bytes


class LocalServer:
    """An HTTP/1.0 server on 127.0.0.1 that records each request and answers
    from ``replies``: a list of (status, headers, body), the last one repeated.

    A reply without a ``Content-Length`` header gets one for its body. Given a
    PEM file holding a certificate and its key, it serves HTTPS instead.
    """

    def __init__(self, certfile: Optional[str] = None) -> None:
        self.replies: list[tuple[int, dict, bytes]] = [(200, {}, b"{}")]
        self.requests: list[RecordedRequest] = []
        owner = self

        class Handler(BaseHTTPRequestHandler):
            def _answer(self) -> None:
                body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
                owner.requests.append(
                    RecordedRequest(self.command, self.path, dict(self.headers), body))
                replies = owner.replies
                status, headers, payload = replies.pop(0) if len(replies) > 1 else replies[0]
                self.send_response(status)
                for name, value in headers.items():
                    self.send_header(name, value)
                if "Content-Length" not in headers:
                    self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            do_GET = do_POST = _answer

            def log_message(self, *args) -> None:
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._server.daemon_threads = True
        scheme = "http"
        if certfile:
            context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            context.load_cert_chain(certfile)
            self._server.socket = context.wrap_socket(self._server.socket, server_side=True)
            scheme = "https"
        self.url = f"{scheme}://127.0.0.1:{self._server.server_address[1]}"
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        kwargs={"poll_interval": 0.05}, daemon=True)
        self._thread.start()

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10)


@pytest.fixture
def local_servers(monkeypatch):
    """Starts ``LocalServer(certfile)`` on each call; the servers are reached
    directly even when a proxy is configured, and closed at teardown."""
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    servers = []

    def start(certfile: Optional[str] = None) -> LocalServer:
        servers.append(LocalServer(certfile))
        return servers[-1]

    yield start
    for server in servers:
        server.close()


@pytest.fixture
def local_server(local_servers):
    """A ``LocalServer``, reached directly even when a proxy is configured."""
    return local_servers()


def refused_url() -> str:
    """A URL on 127.0.0.1 whose port nothing listens on."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    return f"http://127.0.0.1:{port}/"
