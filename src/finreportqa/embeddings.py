"""Embedding providers and the on-disk embedding cache.

Providers turn text into fixed-dimension vectors. The HTTP provider speaks
the common embeddings wire format (POST {model, input} -> data[].embedding).
The cache is content-addressed by (model, sha256 of text) so reruns and
offline replays never re-embed; an unreadable entry is a miss.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import tempfile
import threading
from pathlib import Path
from typing import Callable, Optional, Sequence

from . import transport
from .errors import ConfigError, DimensionMismatchError, ProviderError, TransportError


class EmbeddingProvider:
    """Interface: subclasses set model/dimension and implement embed()."""

    model: str
    dimension: int

    def embed(self, texts: Sequence[str]) -> list[list[float]]:
        raise NotImplementedError


class HttpEmbeddingProvider(EmbeddingProvider):
    """Calls an embeddings endpoint over HTTP.

    transport(url, payload, headers, timeout) -> decoded JSON dict; the
    default posts the payload as UTF-8 JSON through ``transport.request``.
    Injectable for tests. Identical text embeds identically within a session
    (in-memory memo). Concurrent requests are bounded only by the caller
    (``--workers``).
    """

    def __init__(self, endpoint: str, model: str, dimension: int,
                 api_key_env: str = "FINDOC_API_KEY", timeout: float = 60.0,
                 transport: Optional[Callable] = None):
        self.endpoint = endpoint
        self.model = model
        self.dimension = dimension
        self.api_key_env = api_key_env
        self.timeout = timeout
        self._transport = transport or self._default_transport
        self._memo: dict[str, list[float]] = {}

    @staticmethod
    def _default_transport(url: str, payload: dict, headers: dict, timeout: float) -> dict:
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        try:
            status, _, reply = transport.request("POST", url, headers=headers, body=body,
                                                 timeout=timeout)
        except TransportError as exc:
            raise ProviderError(f"embedding request failed: {exc}") from exc
        if status != 200:
            raise ProviderError(f"embedding endpoint returned {status}")
        return json.loads(reply)

    def embed(self, texts: Sequence[str]) -> list[list[float]]:
        pending = [t for t in dict.fromkeys(texts) if t not in self._memo]
        if pending:
            for text, vector in zip(pending, self._request(pending)):
                self._memo[text] = vector
        return [list(self._memo[t]) for t in texts]

    def _request(self, texts: list[str]) -> list[list[float]]:
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.api_key_env)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        payload = {"model": self.model, "input": texts}
        try:
            body = self._transport(self.endpoint, payload, headers, self.timeout)
            vectors = [item["embedding"] for item in body["data"]]
        except ProviderError:
            raise
        except Exception as exc:
            raise ProviderError(f"could not decode embedding response: {exc}") from exc
        if len(vectors) != len(texts):
            raise ProviderError(f"expected {len(texts)} vectors, got {len(vectors)}")
        for vector in vectors:
            if len(vector) != self.dimension:
                raise DimensionMismatchError(
                    f"provider returned dimension {len(vector)}, expected {self.dimension}")
        return [list(map(float, v)) for v in vectors]


def text_sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_atomic(root: Path, path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` under cache directory ``root`` by renaming a
    temporary file over it; on failure remove the temporary file and raise
    ConfigError naming ``root``."""
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        if tmp is not None:
            os.unlink(tmp)
        raise ConfigError(f"cannot write to cache directory {root}: {exc}") from None


class EmbeddingCache:
    """Directory of per-text vector files, keyed by (model, content hash)."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._lock = threading.Lock()

    def _path(self, model: str, text: str) -> Path:
        slug = re.sub(r"[^A-Za-z0-9._-]+", "_", model)
        return self.root / slug / f"{text_sha256(text)}.json"

    def get(self, model: str, text: str) -> Optional[list[float]]:
        """The cached vector; None when the entry is absent or unreadable."""
        try:
            vector = json.loads(self._path(model, text).read_text(encoding="utf-8"))["vector"]
        except (OSError, ValueError, KeyError, TypeError):
            return None
        return vector if isinstance(vector, list) else None

    def put(self, model: str, text: str, vector: Sequence[float]) -> None:
        """Write the entry atomically; a ConfigError when the directory refuses it."""
        payload = {"model": model, "sha256": text_sha256(text), "vector": list(vector)}
        with self._lock:
            write_atomic(self.root, self._path(model, text), json.dumps(payload).encode())


def _as_vector(value, dimension: int) -> Optional[list[float]]:
    """``value`` as a list of floats if it is a list of ``dimension`` finite
    numbers (bools excluded), else None."""
    if not (isinstance(value, list) and len(value) == dimension
            and all(type(x) is float or type(x) is int for x in value)):
        return None
    try:
        vector = [float(x) for x in value]
    except OverflowError:  # an int too large for a float
        return None
    return vector if all(map(math.isfinite, vector)) else None


class CachedEmbeddingProvider(EmbeddingProvider):
    """Serves vectors from the cache, calling the inner provider on misses.

    With a warm cache the inner provider is never touched, so offline
    replay works for any previously embedded text. A cached entry that is
    not a list of ``dimension`` finite numbers is a miss, and is re-embedded.
    """

    def __init__(self, provider: EmbeddingProvider, cache: EmbeddingCache):
        self.provider = provider
        self.cache = cache
        self.model = provider.model
        self.dimension = provider.dimension

    def embed(self, texts: Sequence[str]) -> list[list[float]]:
        results = [_as_vector(self.cache.get(self.model, t), self.dimension) for t in texts]
        missing = [i for i, vec in enumerate(results) if vec is None]
        if missing:
            fresh = self.provider.embed([texts[i] for i in missing])
            for i, vector in zip(missing, fresh):
                self.cache.put(self.model, texts[i], vector)
                results[i] = vector
        return results  # type: ignore[return-value]
