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
import time
from pathlib import Path
from typing import Callable, Optional, Sequence

from . import transport
from .config import RunConfig
from .errors import ConfigError, DimensionMismatchError, ProviderError


class EmbeddingProvider:
    """Interface: subclasses set model/dimension and implement embed()."""

    model: str
    dimension: int

    def embed(self, texts: Sequence[str]) -> list[list[float]]:
        raise NotImplementedError


class HttpEmbeddingProvider(EmbeddingProvider):
    """Calls the run's embeddings endpoint over HTTP, with its model,
    dimension, API key variable, timeout and retry policy.

    ``request`` has ``transport.request``'s signature and defaults to it;
    injectable for tests. A text repeated within one ``embed`` call is
    posted once; a later call posts it again, so nothing outlives the call
    (``--cache-dir`` keeps vectors across calls and runs). Concurrent
    requests are bounded only by the caller (``--workers``).
    """

    def __init__(self, config: RunConfig, request: Optional[Callable] = None,
                 sleep: Callable[[float], None] = time.sleep):
        self.config = config
        self.model = config.embedding_model
        self.dimension = config.embedding_dimension
        self._request = request or transport.request
        self._sleep = sleep

    def embed(self, texts: Sequence[str]) -> list[list[float]]:
        unique = list(dict.fromkeys(texts))
        vectors = dict(zip(unique, self._embed_batch(unique))) if unique else {}
        return [list(vectors[t]) for t in texts]

    def _embed_batch(self, texts: list[str]) -> list[list[float]]:
        headers = {"Content-Type": "application/json"}
        config = self.config
        api_key = os.environ.get(config.api_key_env)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        body = json.dumps({"model": self.model, "input": texts}, allow_nan=False).encode("utf-8")
        status, _, reply = transport.request_with_retry(
            self._request, "POST", config.embedding_endpoint, headers=headers, body=body,
            timeout=config.timeout, policy=config.retry_policy(), sleep=self._sleep)
        if status != 200:
            raise ProviderError(f"embedding endpoint returned {status}")
        try:
            values = [item["embedding"] for item in json.loads(reply)["data"]]
        except (ValueError, RecursionError, KeyError, TypeError) as exc:
            raise ProviderError(f"could not decode embedding response: {exc!r}") from exc
        if len(values) != len(texts):
            raise ProviderError(f"expected {len(texts)} vectors, got {len(values)}")
        vectors = []
        for index, value in enumerate(values):
            if isinstance(value, list) and len(value) != self.dimension:
                raise DimensionMismatchError(
                    f"provider returned dimension {len(value)}, expected {self.dimension}")
            vector = _as_vector(value, self.dimension)
            if vector is None:
                raise ProviderError(f"embedding {index} is not a list of finite numbers")
            vectors.append(vector)
        return vectors


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
        except (OSError, ValueError, RecursionError, KeyError, TypeError):
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
