"""HTTP over the standard library, shared by the LLM, embedding and EDGAR clients.

One ``urllib.request`` opener serves the whole process; it is built, and the
HTTP modules imported, on the first request. ``request`` returns
``(status, headers, body)`` for every reply, so a non-2xx status is a value,
not an exception. A gzip or deflate body is decoded, and its
``Content-Encoding`` and ``Content-Length`` headers, which describe the
encoded bytes, are dropped; the encoded length has already been checked while
reading. Proxies come from ``http_proxy``/``https_proxy`` (read when the
opener is built) and ``no_proxy`` (read per request); HTTPS certificates are
verified against the system trust store, loaded once into an SSL context made
on the first HTTPS request.

Redirects are followed only to http and https. A 301, 302 or 303 turns a POST
into a GET without a body; a 307 or 308 repeats the method and body. The
``Authorization`` header is dropped when a redirect changes the scheme, host
or port, so an API key is never sent to another origin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .errors import TransportError

_opener = None
_MAX_RETRY_AFTER = 86400.0  # well below what time.sleep refuses; 1e300 raises OverflowError


def _build_opener():
    import http.client
    import ssl
    import urllib.parse
    import urllib.request

    class RedirectHandler(urllib.request.HTTPRedirectHandler):
        def redirect_request(self, req, fp, code, msg, headers, newurl):
            target = urllib.parse.urlsplit(newurl)
            if target.scheme not in ("http", "https"):
                return None  # not followed: the 3xx reply is returned
            if code in (307, 308):
                new = urllib.request.Request(
                    newurl, data=req.data, headers=dict(req.headers),
                    method=req.get_method(), origin_req_host=req.origin_req_host,
                    unverifiable=True)
            else:
                new = super().redirect_request(req, fp, code, msg, headers, newurl)
            if target[:2] != urllib.parse.urlsplit(req.full_url)[:2]:
                new.remove_header("Authorization")
            return new

        http_error_308 = urllib.request.HTTPRedirectHandler.http_error_302  # not in 3.10

    class HTTPSHandler(urllib.request.HTTPSHandler):
        context = None

        def https_open(self, req):
            if self.context is None:
                self.context = ssl.create_default_context()
            return self.do_open(http.client.HTTPSConnection, req, context=self.context)

    return urllib.request.build_opener(RedirectHandler, HTTPSHandler)


def _decode(body: bytes, encoding: str) -> bytes:
    import zlib

    if encoding in ("gzip", "x-gzip"):
        import gzip

        return gzip.decompress(body)
    try:
        return zlib.decompress(body)
    except zlib.error:  # deflate sent without its zlib wrapper
        return zlib.decompress(body, -zlib.MAX_WBITS)


def request(method: str, url: str, *, headers: dict, body: Optional[bytes] = None,
            timeout: float) -> tuple[int, "http.client.HTTPMessage", bytes]:
    """One HTTP exchange -> (status, headers, body bytes); the headers are
    looked up case-insensitively.

    Connection, timeout, protocol and decoding failures raise TransportError.
    """
    global _opener
    if _opener is None:
        _opener = _build_opener()
    import http.client
    import urllib.error
    import urllib.request
    import zlib

    try:
        try:
            response = _opener.open(urllib.request.Request(
                url, data=body, headers=headers, method=method), timeout=timeout)
        except urllib.error.HTTPError as exc:  # a non-2xx reply
            response = exc
        with response:
            status, reply_headers, raw = response.status, response.headers, response.read()
        encoding = reply_headers.get("Content-Encoding", "").strip().lower()
        if encoding in ("gzip", "x-gzip", "deflate"):
            raw = _decode(raw, encoding) if raw else raw
            del reply_headers["Content-Encoding"]
            del reply_headers["Content-Length"]
    except (OSError, EOFError, ValueError, http.client.HTTPException, zlib.error) as exc:
        raise TransportError(f"{method} {url}: {exc}") from exc
    return status, reply_headers, raw


@dataclass(frozen=True)
class RetryPolicy:
    """Attempts per request; without a Retry-After, retry n waits ``backoff_seconds * 2**n``."""

    max_attempts: int = 3
    backoff_seconds: float = 0.5


def _retry_wait(retry_after: Optional[str], backoff: float) -> float:
    """``Retry-After`` in seconds if from 0 to one day, else 1 s; ``backoff`` if absent."""
    if retry_after is None:
        return backoff
    try:
        seconds = float(retry_after)
    except ValueError:
        return 1.0
    return seconds if 0 <= seconds <= _MAX_RETRY_AFTER else 1.0


def request_with_retry(request: Callable, method: str, url: str, *, headers: dict,
                       body: Optional[bytes] = None, timeout: float, policy: RetryPolicy,
                       sleep: Callable[[float], None]) -> tuple:
    """``request``, shaped like this module's ``request``, tried up to
    ``policy.max_attempts`` times: a raised TransportError, a 429 and any status
    >= 500 are retried after ``_retry_wait``. The last reply is returned whatever
    its status; a last attempt that raises is a TransportError naming the count."""
    attempts = max(1, policy.max_attempts)
    for attempt in range(attempts):
        backoff = policy.backoff_seconds * 2 ** attempt
        try:
            reply = request(method, url, headers=headers, body=body, timeout=timeout)
        except TransportError as exc:
            if attempt == attempts - 1:
                raise TransportError(f"{exc} (after {attempts} attempts)") from exc
            sleep(backoff)
            continue
        status, reply_headers, _ = reply
        if attempt == attempts - 1 or not (status == 429 or status >= 500):
            return reply
        sleep(_retry_wait(reply_headers.get("Retry-After"), backoff))
