"""The HTTP clients' default transport, over a real socket to 127.0.0.1.

Wire bytes are pinned as the server receives them; status handling, retries
and decoding run against ``conftest.LocalServer`` replies.
"""

import gzip
import hashlib
import json
import re
import ssl
import zlib
from pathlib import Path

import pytest

from conftest import refused_url
from finreportqa import ingest as ingest_mod
from finreportqa import transport
from finreportqa.config import RunConfig
from finreportqa.embeddings import HttpEmbeddingProvider
from finreportqa.errors import DecodeError, ProviderError, TransportError
from finreportqa.ingest import EdgarClient, FilingRef
from finreportqa.llm import HttpBackend, LLMClient, system, user

COMPLETION = b'{"choices": [{"message": {"content": "ok"}}]}'
# A self-signed certificate for IP 127.0.0.1 and its key, for tests only.
TEST_CERT = str(Path(__file__).parent / "tls" / "127.0.0.1.pem")


def _headers(request) -> dict:
    return {name.lower(): value for name, value in request.headers.items()}


def _client(local_server, sleeps):
    config = RunConfig(endpoint=local_server.url + "/v1/chat/completions",
                       retry_attempts=3, retry_backoff=0.5)
    return LLMClient(config, HttpBackend(sleep=sleeps.append))


def _embedder(url, **kwargs):
    """An HTTP embedding provider of model "embedder" and dimension 2 at ``url``."""
    config = RunConfig(embedding_endpoint=url, embedding_model="embedder",
                       embedding_dimension=2)
    return HttpEmbeddingProvider(config, **kwargs)


def _messages():
    return [system("Answer in JSON."), user("What is the DSCR?")]


class TestWire:
    def test_embedding_request_is_pinned(self, local_server, monkeypatch):
        local_server.replies = [(200, {}, json.dumps({"data": [
            {"embedding": [0.5, -1.0]}, {"embedding": [2.0, 0.25]}]}).encode())]
        monkeypatch.delenv("FINDOC_API_KEY", raising=False)
        provider = _embedder(local_server.url + "/v1/embeddings")
        texts = ['Net «revenue» — "quoted", a back\\slash', "a tab\tand a new line\n€1.2 bn"]
        assert provider.embed(texts) == [[0.5, -1.0], [2.0, 0.25]]
        (request,) = local_server.requests
        assert (request.method, request.path) == ("POST", "/v1/embeddings")
        assert hashlib.sha256(request.body).hexdigest() == (
            "10b05ba22c7e936407b572fcd0ba068ac9108a3ce3b3615f697fac7d04de579b")
        assert _headers(request)["content-type"] == "application/json"
        assert _headers(request)["content-length"] == "131"

    def test_edgar_gzip_reply_decodes_to_the_document(self, local_server, monkeypatch,
                                                      tmp_path):
        document = b"<html><body>" + b"10-K filing body text " * 200 + b"</body></html>"
        encoded = gzip.compress(document)
        local_server.replies = [(200, {"Content-Encoding": "gzip"}, encoded)]
        monkeypatch.setattr(ingest_mod, "ARCHIVE_URL", local_server.url
                            + "/Archives/{cik_int}/{accession_nodash}/{document}")
        ref = FilingRef(cik="0000320193", accession_number="0000320193-24-000001",
                        form_type="10-K", filing_date="2024-02-01",
                        primary_document="demo-2024.htm", company="Demo")
        client = EdgarClient(user_agent="finreportqa-test admin@example.com",
                             timeout=10.0, min_interval_s=0.0)
        path = client.fetch_document(ref, tmp_path)
        assert path.read_bytes() == document
        (request,) = local_server.requests
        assert request.path == "/Archives/320193/000032019324000001/demo-2024.htm"
        assert _headers(request)["user-agent"] == "finreportqa-test admin@example.com"
        assert _headers(request)["accept-encoding"] == "gzip, deflate"


class TestRetries:
    def test_429_then_200_after_its_retry_after(self, local_server):
        local_server.replies = [(429, {"Retry-After": "7"}, b"slow down"), (200, {}, COMPLETION)]
        sleeps = []
        assert _client(local_server, sleeps).complete(_messages()) == "ok"
        assert sleeps == [7.0]
        assert len(local_server.requests) == 2

    def test_503_is_retried(self, local_server):
        local_server.replies = [(503, {}, b"busy"), (503, {}, b"busy"), (200, {}, COMPLETION)]
        sleeps = []
        assert _client(local_server, sleeps).complete(_messages()) == "ok"
        assert sleeps == [0.5, 1.0]
        assert len(local_server.requests) == 3

    def test_400_raises_without_retry(self, local_server):
        local_server.replies = [(400, {}, b"<html>bad request</html>"), (200, {}, COMPLETION)]
        sleeps = []
        with pytest.raises(TransportError, match="returned 400"):
            _client(local_server, sleeps).complete(_messages())
        assert sleeps == []
        assert len(local_server.requests) == 1

    def test_200_that_is_not_json_is_a_decode_error(self, local_server):
        local_server.replies = [(200, {}, b"<html>not json</html>"), (200, {}, COMPLETION)]
        sleeps = []
        with pytest.raises(DecodeError, match="malformed completion response"):
            _client(local_server, sleeps).complete(_messages())
        assert sleeps == []
        assert len(local_server.requests) == 1

    def test_refused_connection_is_a_transport_error_after_max_attempts(self):
        sleeps = []
        config = RunConfig(endpoint=refused_url(), retry_attempts=3, retry_backoff=0.5)
        client = LLMClient(config, HttpBackend(sleep=sleeps.append))
        with pytest.raises(TransportError, match="after 3 attempts"):
            client.complete(_messages())
        assert sleeps == [0.5, 1.0]

    @pytest.mark.parametrize("status, attempts", [(404, 1), (500, 3)])
    def test_embedding_status_other_than_200_is_a_provider_error(self, local_server, status,
                                                                 attempts):
        local_server.replies = [(status, {}, b'{"data": []}')]
        provider = _embedder(local_server.url + "/v1/embeddings", sleep=lambda s: None)
        with pytest.raises(ProviderError, match=f"returned {status}"):
            provider.embed(["text"])
        assert len(local_server.requests) == attempts

    def test_refused_embedding_connection_is_a_provider_error(self):
        sleeps = []
        url = refused_url()
        provider = _embedder(url, sleep=sleeps.append)
        with pytest.raises(ProviderError, match=f"POST {re.escape(url)}.*after 3 attempts"):
            provider.embed(["text"])
        assert sleeps == [0.5, 1.0]


class TestRequest:
    def test_non_2xx_reply_is_returned_with_its_headers_and_body(self, local_server):
        local_server.replies = [(503, {"Retry-After": "3"}, b"busy")]
        status, headers, body = transport.request(
            "GET", local_server.url + "/x", headers={}, timeout=10)
        assert (status, headers.get("retry-after"), body) == (503, "3", b"busy")

    @pytest.mark.parametrize("encoding, encode", [
        ("gzip", gzip.compress),
        ("deflate", zlib.compress),
        ("deflate", lambda data: zlib.compress(data)[2:-4]),  # no zlib wrapper
    ])
    def test_encoded_body_is_decoded(self, local_server, encoding, encode):
        payload = b'{"data": "' + b"x" * 5000 + b'"}'
        local_server.replies = [(200, {"Content-Encoding": encoding}, encode(payload))]
        status, headers, body = transport.request(
            "GET", local_server.url + "/x", headers={"Accept-Encoding": "gzip, deflate"},
            timeout=10)
        assert (status, body) == (200, payload)
        assert headers.get("Content-Encoding") is None
        assert headers.get("Content-Length") is None

    def test_corrupt_encoded_body_is_a_transport_error(self, local_server):
        local_server.replies = [(200, {"Content-Encoding": "gzip"}, b"not gzip at all")]
        with pytest.raises(TransportError):
            transport.request("GET", local_server.url + "/x", headers={}, timeout=10)

    def test_proxy_comes_from_the_environment(self, local_server, monkeypatch):
        monkeypatch.setenv("http_proxy", local_server.url)
        monkeypatch.setattr(transport, "_opener", None)  # rebuilt, reading the proxy
        status, _, _ = transport.request(
            "GET", "http://finreportqa.invalid/v1/models", headers={}, timeout=10)
        assert status == 200
        (request,) = local_server.requests
        assert request.path == "http://finreportqa.invalid/v1/models"

    def test_no_proxy_hosts_are_reached_directly(self, local_server, monkeypatch):
        monkeypatch.setenv("http_proxy", refused_url())
        monkeypatch.setattr(transport, "_opener", None)
        status, _, _ = transport.request("GET", local_server.url + "/x", headers={}, timeout=10)
        assert status == 200
        assert [r.path for r in local_server.requests] == ["/x"]


class TestRedirects:
    def test_redirect_to_another_origin_drops_the_api_key(self, local_servers, monkeypatch):
        first, second = local_servers(), local_servers()
        first.replies = [(302, {"Location": second.url + "/v1/chat/completions"}, b"")]
        second.replies = [(200, {}, COMPLETION)]
        monkeypatch.setenv("FINDOC_API_KEY", "sk-test")
        assert _client(first, []).complete(_messages()) == "ok"
        assert _headers(first.requests[0])["authorization"] == "Bearer sk-test"
        (redirected,) = second.requests
        assert (redirected.method, redirected.body) == ("GET", b"")
        assert "authorization" not in _headers(redirected)

    def test_307_to_another_origin_reposts_the_body_without_the_api_key(self, local_servers):
        first, second = local_servers(), local_servers()
        first.replies = [(307, {"Location": second.url + "/moved"}, b"")]
        second.replies = [(200, {}, b"done")]
        status, _, body = transport.request(
            "POST", first.url + "/x", body=b'{"q": 1}', timeout=10,
            headers={"Content-Type": "application/json", "Authorization": "Bearer sk-test"})
        assert (status, body) == (200, b"done")
        (redirected,) = second.requests
        assert (redirected.method, redirected.path, redirected.body) == (
            "POST", "/moved", b'{"q": 1}')
        assert _headers(redirected)["content-type"] == "application/json"
        assert "authorization" not in _headers(redirected)

    def test_308_on_the_same_origin_keeps_the_api_key_and_body(self, local_server):
        local_server.replies = [(308, {"Location": "/moved"}, b""), (200, {}, b"done")]
        status, _, body = transport.request(
            "POST", local_server.url + "/x", body=b"payload", timeout=10,
            headers={"Authorization": "Bearer sk-test"})
        assert (status, body) == (200, b"done")
        redirected = local_server.requests[1]
        assert (redirected.method, redirected.path, redirected.body) == (
            "POST", "/moved", b"payload")
        assert _headers(redirected)["authorization"] == "Bearer sk-test"

    def test_redirect_to_another_scheme_is_returned(self, local_server):
        local_server.replies = [(302, {"Location": "ftp://127.0.0.1/x"}, b"moved")]
        status, headers, body = transport.request(
            "GET", local_server.url + "/x", headers={}, timeout=10)
        assert (status, headers.get("Location"), body) == (302, "ftp://127.0.0.1/x", b"moved")
        assert len(local_server.requests) == 1


class TestHttps:
    def test_certificate_outside_the_trust_store_is_refused(self, local_servers, monkeypatch):
        server = local_servers(TEST_CERT)
        monkeypatch.delenv("SSL_CERT_FILE", raising=False)
        monkeypatch.setattr(transport, "_opener", None)
        with pytest.raises(TransportError, match="CERTIFICATE_VERIFY_FAILED"):
            transport.request("GET", server.url + "/x", headers={}, timeout=10)
        assert server.requests == []

    def test_one_verified_context_serves_every_request(self, local_servers, monkeypatch):
        server = local_servers(TEST_CERT)
        monkeypatch.setenv("SSL_CERT_FILE", TEST_CERT)  # the trust store, for this test
        monkeypatch.setattr(transport, "_opener", None)
        made = []

        def create_default_context(*args, **kwargs):
            made.append(ssl_create(*args, **kwargs))
            return made[-1]

        ssl_create = ssl.create_default_context
        monkeypatch.setattr(ssl, "create_default_context", create_default_context)
        for _ in range(2):
            status, _, body = transport.request("GET", server.url + "/x", headers={},
                                                timeout=10)
            assert (status, body) == (200, b"{}")
        assert len(server.requests) == 2
        (context,) = made
        assert context.verify_mode == ssl.CERT_REQUIRED and context.check_hostname


def test_importing_the_cli_loads_no_http_module():
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; import finreportqa.cli; "
            "print(sorted(m for m in ('requests', 'urllib3', 'urllib.request', 'http.client')"
            " if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": str(src)}, timeout=60, check=True).stdout
    assert out.strip() == "[]"


def test_only_the_transport_module_imports_http_modules():
    import ast

    src = Path(__file__).resolve().parents[1] / "src" / "finreportqa"
    banned = {"urllib", "http", "socket"}
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):  # nested ones too
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [(path.name, name) for name in names if name.split(".")[0] in banned]
    assert found and {module for module, _ in found} == {"transport.py"}, found
