import hashlib
import json

import pytest

from conftest import FakeRequest
from finreportqa.errors import (
    ChecksumMismatchError,
    NotFoundError,
    RateLimitedError,
    TransportError,
)
from finreportqa.ingest import DEFAULT_USER_AGENT, EdgarClient, FilingRef, html_to_pages
from finreportqa.transport import RetryPolicy

CIK = "0000320193"

SUBMISSIONS_FIXTURE = {
    "name": "Demo Industries Inc",
    "filings": {
        "recent": {
            "accessionNumber": [
                "0000320193-24-000001", "0000320193-23-000001",
                "0000320193-23-000002", "0000320193-22-000001",
                "0000320193-21-000001",
            ],
            "form": ["10-K", "10-Q", "10-K", "10-K", "10-K"],
            "filingDate": ["2024-02-01", "2023-08-04", "2023-02-03",
                           "2022-02-04", "2021-02-05"],
            "primaryDocument": ["demo-2024.htm", "demo-q3.htm", "demo-2023.htm",
                                "demo-2022.htm", "demo-2021.htm"],
        }
    },
}

TICKER_FIXTURE = {
    "0": {"cik_str": 320193, "ticker": "DEMO", "title": "Demo Industries Inc"},
    "1": {"cik_str": 789019, "ticker": "OTHR", "title": "Other Corp"},
}

DOC_BYTES = b"<html><body>10-K filing body text</body></html>"


def _json_response(payload):
    body = json.dumps(payload).encode()
    return 200, {"Content-Length": str(len(body))}, body


def make_client(responses, **kwargs):
    fake = FakeRequest(responses)
    client = EdgarClient(timeout=60.0, request=fake, sleep=lambda s: None,
                         clock=lambda: 0.0, min_interval_s=0.0, **kwargs)
    return client, fake


SUBMISSIONS_URL = f"https://data.sec.gov/submissions/CIK{CIK}.json"
TICKER_URL = "https://www.sec.gov/files/company_tickers.json"


class TestListFilings:
    def test_fixture_replay_three_annual_filings(self):
        client, fake = make_client({SUBMISSIONS_URL: _json_response(SUBMISSIONS_FIXTURE)})
        refs = client.list_filings("320193", form_type="10-K", year_range=(2022, 2024))
        assert len(refs) == 3
        assert [r.filing_date for r in refs] == ["2022-02-04", "2023-02-03", "2024-02-01"]
        assert all(r.form_type == "10-K" for r in refs)
        assert refs[0].company == "Demo Industries Inc"
        assert refs[0].url.startswith("https://www.sec.gov/Archives/edgar/data/320193/")

    def test_ticker_resolution(self):
        client, fake = make_client({
            TICKER_URL: _json_response(TICKER_FIXTURE),
            SUBMISSIONS_URL: _json_response(SUBMISSIONS_FIXTURE),
        })
        refs = client.list_filings("demo", form_type="10-K", year_range=(2024, 2024))
        assert len(refs) == 1
        assert refs[0].cik == CIK

    def test_unknown_ticker(self):
        client, _ = make_client({TICKER_URL: _json_response(TICKER_FIXTURE)})
        with pytest.raises(NotFoundError):
            client.list_filings("NOPE")

    def test_empty_year_range(self):
        client, fake = make_client({})
        assert client.list_filings("320193", year_range=(2024, 2022)) == []
        assert fake.calls == []

    def test_user_agent_always_sent(self):
        client, fake = make_client({SUBMISSIONS_URL: _json_response(SUBMISSIONS_FIXTURE)})
        client.list_filings("320193", year_range=(2024, 2024))
        for call in fake.calls:
            assert (call.method, call.headers["User-Agent"]) == ("GET", DEFAULT_USER_AGENT)

    def test_missing_cik_is_not_found(self):
        client, _ = make_client({SUBMISSIONS_URL: (404, {}, b"")})
        with pytest.raises(NotFoundError):
            client.list_filings("320193")


def _ref(document="demo-2024.htm"):
    return FilingRef(cik=CIK, accession_number="0000320193-24-000001",
                     form_type="10-K", filing_date="2024-02-01",
                     primary_document=document, company="Demo Industries Inc")


class TestFetchDocument:
    def test_fetch_writes_file(self, tmp_path):
        ref = _ref()
        client, _ = make_client({
            ref.url: (200, {"Content-Length": str(len(DOC_BYTES))}, DOC_BYTES)})
        path = client.fetch_document(ref, tmp_path)
        assert path.read_bytes() == DOC_BYTES
        assert path == tmp_path / CIK / ref.accession_number / ref.primary_document

    def test_refetch_is_idempotent_without_network(self, tmp_path):
        ref = _ref()
        client, fake = make_client({
            ref.url: (200, {"Content-Length": str(len(DOC_BYTES))}, DOC_BYTES)})
        first = client.fetch_document(ref, tmp_path)
        calls_after_first = len(fake.calls)
        second = client.fetch_document(ref, tmp_path)
        assert second == first
        assert len(fake.calls) == calls_after_first

    def test_truncated_stream_raises_and_removes_partial(self, tmp_path):
        ref = _ref()
        client, _ = make_client({
            ref.url: (200, {"Content-Length": str(len(DOC_BYTES) + 10)}, DOC_BYTES)})
        with pytest.raises(ChecksumMismatchError):
            client.fetch_document(ref, tmp_path)
        assert not (tmp_path / CIK / ref.accession_number / ref.primary_document).exists()

    @pytest.mark.parametrize("length", ["abc", "-5", "1e3", "²", ""])
    def test_content_length_that_is_not_a_byte_count(self, tmp_path, length):
        ref = _ref()
        client, _ = make_client({ref.url: (200, {"Content-Length": length}, DOC_BYTES)})
        with pytest.raises(ChecksumMismatchError, match="Content-Length"):
            client.fetch_document(ref, tmp_path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("suffix, content", [("", b"tampered"), (".sha256", b"\xff\xfe")])
    def test_corrupted_local_file_refetched(self, tmp_path, suffix, content):
        ref = _ref()
        client, fake = make_client({
            ref.url: (200, {"Content-Length": str(len(DOC_BYTES))}, DOC_BYTES)})
        path = client.fetch_document(ref, tmp_path)
        path.with_name(path.name + suffix).write_bytes(content)
        client.fetch_document(ref, tmp_path)
        assert path.read_bytes() == DOC_BYTES
        assert path.with_name(path.name + ".sha256").read_text() == \
            hashlib.sha256(DOC_BYTES).hexdigest()
        assert len(fake.calls) == 2


class TestRateLimiting:
    """EDGAR's own rules; the retry rules it shares are in test_retry.py."""

    def test_min_interval_spacing(self):
        url = SUBMISSIONS_URL
        ticks = iter([0.0, 0.05, 0.05, 0.05, 0.05])
        sleeps = []
        fake = FakeRequest({
            url: _json_response(SUBMISSIONS_FIXTURE),
            TICKER_URL: _json_response(TICKER_FIXTURE),
        })
        client = EdgarClient(timeout=60.0, request=fake, sleep=sleeps.append,
                             clock=lambda: next(ticks), min_interval_s=0.2)
        client.list_filings("demo", year_range=(2024, 2024))
        assert sleeps and sleeps[0] == pytest.approx(0.15)

    def test_min_interval_spacing_comes_before_a_retry_too(self):
        fake = FakeRequest({SUBMISSIONS_URL: [(503, {"Retry-After": "2"}, b""),
                                              _json_response(SUBMISSIONS_FIXTURE)]})
        sleeps = []
        client = EdgarClient(timeout=60.0, request=fake, sleep=sleeps.append,
                             clock=lambda: 0.0, min_interval_s=0.2)
        assert len(client.list_filings("320193", year_range=(2024, 2024))) == 1
        assert sleeps == [2.0, 0.2]  # the retry wait, then the spacing before attempt 2
        assert len(fake.calls) == 2

    @pytest.mark.parametrize("status, error", [(429, RateLimitedError),
                                               (503, RateLimitedError),
                                               (500, TransportError)])
    def test_last_reply_names_the_error(self, status, error):
        client, fake = make_client({SUBMISSIONS_URL: (status, {}, b"")},
                                   retry=RetryPolicy(max_attempts=2, backoff_seconds=0.0))
        with pytest.raises(error, match=SUBMISSIONS_URL):
            client.list_filings("320193")
        assert len(fake.calls) == 2


class TestMalformedMetadata:
    """Untrusted EDGAR JSON ends in a TransportError naming its URL."""

    @pytest.mark.parametrize("recent", [
        {"accessionNumber": ["a-1"], "form": ["10-K"], "filingDate": ["abcd-01-01"],
         "primaryDocument": ["d.htm"]},
        {"accessionNumber": ["a-1"], "form": ["10-K"], "filingDate": [20240201],
         "primaryDocument": ["d.htm"]},
        {"accessionNumber": [7], "form": ["10-K"], "filingDate": ["2024-02-01"],
         "primaryDocument": ["d.htm"]},
        {"accessionNumber": 5, "form": ["10-K"]},
        [],
    ])
    def test_filing_metadata(self, recent):
        payload = {"name": "Demo", "filings": {"recent": recent}}
        client, _ = make_client({SUBMISSIONS_URL: _json_response(payload)})
        with pytest.raises(TransportError, match=f"{SUBMISSIONS_URL}: malformed"):
            client.list_filings("320193")

    def test_deeply_nested_body(self):
        body = b"[" * 100_000
        client, _ = make_client({SUBMISSIONS_URL: (200, {"Content-Length": str(len(body))},
                                                   body)})
        with pytest.raises(TransportError, match=f"{SUBMISSIONS_URL}: body is not JSON"):
            client.list_filings("320193")

    @pytest.mark.parametrize("payload", [[], {"filings": []}, {"name": 5, "filings": {
        "recent": SUBMISSIONS_FIXTURE["filings"]["recent"]}}])
    def test_submissions_document(self, payload):
        client, _ = make_client({SUBMISSIONS_URL: _json_response(payload)})
        with pytest.raises(TransportError, match=f"{SUBMISSIONS_URL}: malformed"):
            client.list_filings("320193")

    @pytest.mark.parametrize("field, value", [
        ("primaryDocument", "../../../escaped.htm"), ("primaryDocument", "{tmp}/escaped.htm"),
        ("primaryDocument", "..\\escaped.htm"), ("primaryDocument", ".."),
        ("primaryDocument", ""), ("accessionNumber", "../a-1"), ("accessionNumber", "."),
    ])
    def test_path_that_leaves_the_destination(self, tmp_path, monkeypatch, field, value):
        from finreportqa import transport
        from finreportqa.cli import main

        recent = {"accessionNumber": ["a-1"], "form": ["10-K"], "filingDate": ["2024-02-01"],
                  "primaryDocument": ["k.htm"]}
        value = value.replace("{tmp}", str(tmp_path))  # an absolute path
        recent[field] = [value]
        monkeypatch.setattr(transport, "request", FakeRequest([  # the listing, then the document
            _json_response({"name": "Demo", "filings": {"recent": recent}}),
            (200, {}, DOC_BYTES)]))
        (tmp_path / "dest").mkdir()
        assert main(["ingest", "--issuer", "320193", "--years", "2024-2024", "--fetch",
                     "--dest", str(tmp_path / "dest")]) == 4
        assert sorted(tmp_path.rglob("*")) == [tmp_path / "dest"]

    @pytest.mark.parametrize("blocked", ["dest", "md"])
    def test_destination_that_cannot_be_written_is_a_config_error(
            self, tmp_path, monkeypatch, capsys, blocked):
        """A --dest that is a file, or a .md path that is a directory, exits 2
        naming the path."""
        from finreportqa import transport
        from finreportqa.cli import main

        recent = {"accessionNumber": ["a-1"], "form": ["10-K"], "filingDate": ["2024-02-01"],
                  "primaryDocument": ["k.htm"]}
        monkeypatch.setattr(transport, "request", FakeRequest([
            _json_response({"name": "Demo", "filings": {"recent": recent}}),
            (200, {}, DOC_BYTES)]))
        dest = tmp_path / "dest"
        if blocked == "dest":
            dest.write_text("a file", encoding="utf-8")
            named = dest / CIK / "a-1" / "k.htm"
        else:
            named = dest / CIK / "a-1" / "k.md"
            named.mkdir(parents=True)
        assert main(["ingest", "--issuer", "320193", "--years", "2024-2024", "--fetch",
                     "--convert", "--dest", str(dest)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {named}: cannot write" in err and "Traceback" not in err

    def test_bad_date_in_another_form_is_skipped(self):
        payload = {"name": "Demo", "filings": {"recent": {
            "accessionNumber": ["a-1", "a-2"], "form": ["10-Q", "10-K"],
            "filingDate": ["abcd", "2024-02-01"], "primaryDocument": ["q.htm", "k.htm"]}}}
        client, _ = make_client({SUBMISSIONS_URL: _json_response(payload)})
        assert [ref.primary_document for ref in client.list_filings("320193")] == ["k.htm"]

    @pytest.mark.parametrize("table", [
        [],
        {"0": ["DEMO"]},
        {"0": {"ticker": 5}},
        {"0": {"ticker": "DEMO"}},
        {"0": {"ticker": "DEMO", "cik_str": "abc"}},
    ])
    def test_ticker_table(self, table):
        client, _ = make_client({TICKER_URL: _json_response(table)})
        with pytest.raises(TransportError, match=f"{TICKER_URL}: malformed"):
            client.resolve_cik("demo")


class TestHtmlToPages:
    def test_single_table_becomes_markdown(self):
        html = ("<html><body><p>Summary</p><table>"
                "<tr><th>Metric</th><th>Value</th></tr>"
                "<tr><td>Revenue</td><td>4,139</td></tr>"
                "</table></body></html>")
        report = html_to_pages(html)
        assert len(report.pages) == 1
        page = report.pages[0]
        assert "| Metric | Value |" in page.text
        assert "| Revenue | 4,139 |" in page.text
        assert len(page.table_block_spans) == 1

    def test_two_page_breaks_make_three_pages(self):
        html = ("<div>first part</div>"
                "<div style='page-break-after: always'></div>"
                "<div>second part</div>"
                "<hr style=\"page-break-before:always\"/>"
                "<div>third part</div>")
        report = html_to_pages(html)
        assert len(report.pages) == 3
        assert "first part" in report.pages[0].text
        assert "third part" in report.pages[2].text

    def test_comment_marker_splits(self):
        html = "alpha <!-- PAGE BREAK --> beta"
        report = html_to_pages(html)
        assert len(report.pages) == 2

    def test_tag_soup_never_raises(self):
        soup = "<div><p>open blocks <table><tr><td>cell</div> <b>odd</i> text &amp; more"
        report = html_to_pages(soup)
        assert report.pages
        assert report.pages[0].text.strip()

    def test_long_text_synthetic_pagination(self):
        html = "<p>" + " ".join(f"word{i}" for i in range(1700)) + "</p>"
        report = html_to_pages(html, synthetic_page_tokens=800)
        assert len(report.pages) == 3
        assert report.pages[0].token_count == 800

    def test_scripts_and_styles_dropped(self):
        html = "<script>var x = 1;</script><style>.a{}</style><p>kept</p>"
        report = html_to_pages(html)
        assert "var x" not in report.pages[0].text
        assert "kept" in report.pages[0].text
