"""SEC EDGAR ingestion: filing metadata, document downloads, and a
best-effort HTML-to-pages converter.

EDGAR requires a descriptive User-Agent and modest request rates; the
client enforces both. The transport is injectable so the whole module
replays from recorded fixtures without network access.
"""

from __future__ import annotations

import hashlib
import html
import json
import math
import re
import time
from dataclasses import dataclass
from html.parser import HTMLParser
from pathlib import Path
from typing import Callable, Optional

from . import transport
from .corpus import PageChunk, Report
from .errors import ChecksumMismatchError, NotFoundError, RateLimitedError, TransportError

SUBMISSIONS_URL = "https://data.sec.gov/submissions/CIK{cik}.json"
TICKER_MAP_URL = "https://www.sec.gov/files/company_tickers.json"
ARCHIVE_URL = "https://www.sec.gov/Archives/edgar/data/{cik_int}/{accession_nodash}/{document}"

DEFAULT_USER_AGENT = "finreportqa/0.1 (research; contact via repository)"

SYNTHETIC_PAGE_TOKENS = 800


@dataclass(frozen=True)
class FilingRef:
    cik: str  # zero-padded 10 digits
    accession_number: str
    form_type: str
    filing_date: str  # ISO date
    primary_document: str
    company: str

    def __post_init__(self) -> None:
        if not self.form_type:
            raise ValueError("form_type must be non-empty")

    @property
    def url(self) -> str:
        return ARCHIVE_URL.format(
            cik_int=int(self.cik),
            accession_nodash=self.accession_number.replace("-", ""),
            document=self.primary_document,
        )


def _retry_after_seconds(value: Optional[str]) -> float:
    """A ``Retry-After`` header as a delay: 1 s unless it is a finite number >= 0."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return 1.0
    return seconds if math.isfinite(seconds) and seconds >= 0 else 1.0


class EdgarClient:
    """Metadata listing and document fetching with polite rate limiting.

    transport(url, headers) -> (status_code, headers, body_bytes), where
    headers is a mapping with ``get``; the default GETs through
    ``transport.request``, which decodes a gzip or deflate body.
    min_interval_s spaces successive calls.
    """

    def __init__(self, user_agent: str = DEFAULT_USER_AGENT,
                 transport: Optional[Callable] = None,
                 min_interval_s: float = 0.2,
                 max_attempts: int = 3,
                 sleep: Callable[[float], None] = time.sleep,
                 clock: Callable[[], float] = time.monotonic):
        self.user_agent = user_agent
        self._transport = transport or self._default_transport
        self.min_interval_s = min_interval_s
        self.max_attempts = max_attempts
        self._sleep = sleep
        self._clock = clock
        self._last_request_at: Optional[float] = None
        self.request_count = 0

    def _default_transport(self, url: str, headers: dict):
        return transport.request("GET", url, headers=headers, timeout=60)

    def _get(self, url: str) -> tuple[dict, bytes]:
        headers = {"User-Agent": self.user_agent, "Accept-Encoding": "gzip, deflate"}
        for attempt in range(self.max_attempts):
            if self._last_request_at is not None:
                elapsed = self._clock() - self._last_request_at
                if elapsed < self.min_interval_s:
                    self._sleep(self.min_interval_s - elapsed)
            self._last_request_at = self._clock()
            self.request_count += 1
            try:
                status, resp_headers, body = self._transport(url, headers)
            except Exception as exc:
                if attempt == self.max_attempts - 1:
                    raise TransportError(f"GET {url} failed: {exc}") from exc
                continue
            if status == 200:
                return resp_headers, body
            if status == 404:
                raise NotFoundError(f"GET {url} returned 404")
            if status in (429, 503):
                retry_after = _retry_after_seconds(resp_headers.get("Retry-After"))
                if attempt == self.max_attempts - 1:
                    raise RateLimitedError(f"GET {url} rate limited after {self.max_attempts} attempts")
                self._sleep(retry_after)
                continue
            raise TransportError(f"GET {url} returned {status}")
        raise TransportError(f"GET {url}: retries exhausted")

    def _get_json(self, url: str) -> dict:
        _, body = self._get(url)
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise TransportError(f"GET {url}: body is not JSON: {exc}") from exc

    def resolve_cik(self, cik_or_ticker: str) -> str:
        """Zero-padded CIK from a numeric CIK or a ticker symbol."""
        candidate = cik_or_ticker.strip()
        if candidate.isdigit():
            return candidate.zfill(10)
        table = self._get_json(TICKER_MAP_URL)
        wanted = candidate.upper()
        for entry in table.values():
            if entry.get("ticker", "").upper() == wanted:
                return str(entry["cik_str"]).zfill(10)
        raise NotFoundError(f"unknown ticker: {cik_or_ticker!r}")

    def list_filings(self, cik_or_ticker: str, form_type: str = "10-K",
                     year_range: tuple[int, int] = (1994, 2100)) -> list[FilingRef]:
        """Filings of the given form within the year range, date-ordered."""
        start, end = year_range
        if start > end:
            return []
        cik = self.resolve_cik(cik_or_ticker)
        payload = self._get_json(SUBMISSIONS_URL.format(cik=cik))
        company = payload.get("name", "")
        recent = payload.get("filings", {}).get("recent", {})
        refs: list[FilingRef] = []
        rows = zip(
            recent.get("accessionNumber", []),
            recent.get("form", []),
            recent.get("filingDate", []),
            recent.get("primaryDocument", []),
        )
        for accession, form, date, document in rows:
            if form != form_type:
                continue
            year = int(date[:4])
            if not (start <= year <= end):
                continue
            refs.append(FilingRef(
                cik=cik,
                accession_number=accession,
                form_type=form,
                filing_date=date,
                primary_document=document,
                company=company,
            ))
        refs.sort(key=lambda ref: (ref.filing_date, ref.accession_number))
        return refs

    def fetch_document(self, ref: FilingRef, dest_dir: str | Path) -> Path:
        """Download ref into dest_dir/{cik}/{accession}/{document}.

        Skips the download when the file already exists with a matching
        recorded hash. Byte count is checked against Content-Length; a
        short read removes the partial file.
        """
        dest = Path(dest_dir) / ref.cik / ref.accession_number / ref.primary_document
        sidecar = dest.with_suffix(dest.suffix + ".sha256")
        if dest.exists() and sidecar.exists():
            recorded = sidecar.read_text(encoding="utf-8").strip()
            actual = hashlib.sha256(dest.read_bytes()).hexdigest()
            if recorded == actual:
                return dest

        headers, body = self._get(ref.url)
        expected_length = headers.get("Content-Length")
        if expected_length is not None and int(expected_length) != len(body):
            if dest.exists():
                dest.unlink()
            raise ChecksumMismatchError(
                f"expected {expected_length} bytes, received {len(body)}")

        dest.parent.mkdir(parents=True, exist_ok=True)
        dest.write_bytes(body)
        sidecar.write_text(hashlib.sha256(body).hexdigest(), encoding="utf-8")
        return dest


# --- HTML to pages ------------------------------------------------------------

_PAGE_BREAK_MARKER = "\x00PAGEBREAK\x00"


class _TextExtractor(HTMLParser):
    """Linear text with Markdown tables and page-break markers."""

    _SKIP = {"script", "style", "head"}
    _BLOCK = {"p", "div", "br", "tr", "table", "h1", "h2", "h3", "h4", "li", "section"}

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.parts: list[str] = []
        self._skip_depth = 0
        self._in_table = 0
        self._rows: list[list[str]] = []
        self._cell: Optional[list[str]] = None

    def handle_starttag(self, tag: str, attrs) -> None:
        if tag in self._SKIP:
            self._skip_depth += 1
            return
        style = dict(attrs).get("style", "") or ""
        if "page-break" in style:
            self.parts.append(_PAGE_BREAK_MARKER)
        if tag == "table":
            self._in_table += 1
            if self._in_table == 1:
                self._rows = []
        elif self._in_table:
            if tag == "tr":
                self._rows.append([])
            elif tag in ("td", "th"):
                self._cell = []
        elif tag in self._BLOCK:
            self.parts.append("\n")

    def handle_endtag(self, tag: str) -> None:
        if tag in self._SKIP:
            self._skip_depth = max(0, self._skip_depth - 1)
            return
        if tag == "table" and self._in_table:
            self._in_table -= 1
            if self._in_table == 0:
                self.parts.append("\n" + self._render_table() + "\n")
        elif self._in_table and tag in ("td", "th") and self._cell is not None:
            if not self._rows:
                self._rows.append([])
            self._rows[-1].append(" ".join(self._cell).strip())
            self._cell = None
        elif tag in self._BLOCK:
            self.parts.append("\n")

    def handle_data(self, data: str) -> None:
        if self._skip_depth:
            return
        if self._cell is not None:
            self._cell.append(data.strip())
        elif self._in_table:
            pass  # stray table text outside cells is dropped
        else:
            self.parts.append(data)

    def handle_comment(self, data: str) -> None:
        if "page break" in data.lower() or "pagebreak" in data.lower():
            self.parts.append(_PAGE_BREAK_MARKER)

    def _render_table(self) -> str:
        rows = [row for row in self._rows if any(cell for cell in row)]
        if not rows:
            return ""
        width = max(len(row) for row in rows)
        lines = []
        for index, row in enumerate(rows):
            padded = row + [""] * (width - len(row))
            lines.append("| " + " | ".join(padded) + " |")
            if index == 0:
                lines.append("|" + "|".join([" --- "] * width) + "|")
        return "\n".join(lines)

    def text(self) -> str:
        return "".join(self.parts)


def html_to_pages(html_text: str, *, report_id: str = "document",
                  synthetic_page_tokens: int = SYNTHETIC_PAGE_TOKENS) -> Report:
    """Best-effort conversion of filing HTML into a page-delimited Report.

    Pages split at explicit page-break markers (style page-break-* or a
    page-break comment); without markers, synthetic pages of a fixed token
    budget are cut. Never raises on tag soup.
    """
    parser = _TextExtractor()
    try:
        parser.feed(html_text)
        parser.close()
    except Exception:
        pass  # keep whatever was extracted before the parser choked
    raw = parser.text()

    segments = [segment for segment in raw.split(_PAGE_BREAK_MARKER)]
    page_texts: list[str]
    if len(segments) > 1:
        page_texts = [_tidy(segment) for segment in segments]
        page_texts = [text if text else "(blank page)" for text in page_texts]
    else:
        body = _tidy(raw)
        if not body:
            body = html.unescape(re.sub(r"<[^>]+>", " ", html_text)).strip() or "(empty)"
        words = body.split()
        if len(words) <= synthetic_page_tokens:
            page_texts = [body]
        else:
            page_texts = [
                " ".join(words[start:start + synthetic_page_tokens])
                for start in range(0, len(words), synthetic_page_tokens)
            ]

    pages = tuple(PageChunk(index, text) for index, text in enumerate(page_texts, start=1))
    return Report(report_id=report_id, company="", fiscal_year=0, pages=pages)


def _tidy(text: str) -> str:
    lines = [re.sub(r"[ \t]+", " ", line).strip() for line in text.splitlines()]
    collapsed: list[str] = []
    for line in lines:
        if line:
            collapsed.append(line)
        elif collapsed and collapsed[-1] != "":
            collapsed.append("")
    return "\n".join(collapsed).strip()
