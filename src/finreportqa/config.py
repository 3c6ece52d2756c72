"""The run configuration: every setting of a run, declared once.

Each field of ``RunConfig`` carries its default and the help text of its
flag; ``validate`` holds every check of a value. The LLM client, the agent,
the baselines and the embedding provider read their settings from it, and
every run writes it into its manifest.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional

from .corpus import read_text
from .errors import ConfigError
from .transport import RetryPolicy


# Per RunConfig annotation: the JSON values a config file may give the field
# (never a bool) and the type its flag parses to.
_FIELD_TYPES = {
    "str": (str, str),
    "int": (int, int),
    "float": ((int, float), float),
    "Optional[str]": ((str, type(None)), str),
    "str | int": ((str, int), str),
}


def _setting(default, help: str):
    """A RunConfig field with its default and the help text of its flag."""
    return field(default=default, metadata={"help": help})


@dataclass
class RunConfig:
    """Everything a run needs; serialized verbatim into the manifest. Each
    field is also a flag of every subcommand: ``--max-rounds`` sets ``max_rounds``."""

    endpoint: str = _setting("http://localhost:8000/v1/chat/completions",
                             "chat-completions endpoint URL")
    model: str = _setting("scripted", "model identifier")
    temperature: float = _setting(0.0, "sampling temperature")
    max_input_tokens: int = _setting(128_000, "input context budget")
    max_output_tokens: int = _setting(2048, "completion token cap")
    timeout: float = _setting(120.0, "request timeout seconds")
    retry_attempts: int = _setting(3, "attempts per LLM, embedding or EDGAR request")
    retry_backoff: float = _setting(0.5, "retry backoff seconds, doubled per retry")
    api_key_env: str = _setting("FINDOC_API_KEY", "environment variable holding the API key")

    backend: str = _setting("http", "llm backend: http or scripted")
    script_path: Optional[str] = _setting(None, "scripted backend response file")

    scheme: str = _setting("bm25", "retrieval scheme: tfidf, bm25, dense")
    granularity: str | int = _setting(
        "page", "retrieval unit granularity: page or a positive token count")
    bm25_k1: float = _setting(1.2, "BM25 k1")
    bm25_b: float = _setting(0.75, "BM25 b")
    embedding_endpoint: str = _setting("", "embeddings endpoint URL")
    embedding_model: str = _setting("", "embedding model identifier")
    embedding_dimension: int = _setting(0, "embedding vector dimension")

    k_per_round: int = _setting(15, "chunks retrieved per agent round")
    max_rounds: int = _setting(5, "agent round limit")
    chunk_budget: int = _setting(75, "cumulative retrieved chunk cap")
    baseline_k: int = _setting(30, "single-round retrieval k")
    fixed_budget_k: int = _setting(75, "fixed-budget retrieval k")

    corpus_dir: Optional[str] = _setting(None, "directory of report .md files")
    dataset: Optional[str] = _setting(None, "QA dataset JSON-lines path")
    output_dir: str = _setting("runs", "run output directory")
    cache_dir: Optional[str] = _setting(None, "cache directory for llm/embedding responses")

    workers: int = _setting(1, "bench worker count")
    seed: int = _setting(0, "random seed")

    def validate(self) -> None:
        if self.backend not in ("http", "scripted"):
            raise ConfigError(f"backend must be http or scripted, got {self.backend!r}")
        if self.backend == "scripted" and not self.script_path:
            raise ConfigError("scripted backend needs --script-path")
        if self.scheme not in ("tfidf", "bm25", "dense"):
            raise ConfigError(f"unknown retrieval scheme {self.scheme!r}")
        if self.scheme == "dense" and not (self.embedding_endpoint and self.embedding_model
                                           and self.embedding_dimension > 0):
            raise ConfigError("dense retrieval needs embedding endpoint, model, and dimension")
        self.unit_granularity()
        for name in ("temperature", "retry_backoff", "bm25_k1"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be a finite number >= 0, got {getattr(self, name)}")
        if not 0 <= self.bm25_b <= 1:
            raise ConfigError(f"bm25_b must be a number in [0, 1], got {self.bm25_b}")
        for name in ("max_input_tokens", "max_output_tokens", "timeout"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("retry_attempts", "workers", "k_per_round", "max_rounds", "chunk_budget",
                     "baseline_k", "fixed_budget_k"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for setting in fields(self):  # a path string holding a NUL opens no file
            value = getattr(self, setting.name)
            if isinstance(value, str) and "\0" in value:
                raise ConfigError(f"{setting.name} must not hold a NUL character, got {value!r}")

    def unit_granularity(self) -> str | int:
        """"page", or the token count of each retrieval unit."""
        value = self.granularity
        if value == "page":
            return value
        if isinstance(value, str) and value.isascii() and value.isdigit():
            value = int(value)
        if type(value) is not int or value < 1:
            raise ConfigError(
                f"granularity must be 'page' or a positive integer, got {self.granularity!r}")
        return value

    @classmethod
    def from_dict(cls, payload: dict) -> "RunConfig":
        annotations = {f.name: f.type for f in fields(cls)}
        unknown = set(payload) - set(annotations)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        values = {}
        for name, value in payload.items():
            annotation = annotations[name]
            accepted, flag_type = _FIELD_TYPES[annotation]
            if isinstance(value, bool) or not isinstance(value, accepted):
                raise ConfigError(f"config field {name} must be {annotation}, got {value!r}")
            # a float field holds a float, as its flag gives it: the request body
            # and so the cache key read "temperature": 0.0, never 0
            try:
                values[name] = flag_type(value) if flag_type is float else value
            except OverflowError:
                raise ConfigError(f"config field {name} must be a finite number, "
                                  f"got {value!r}") from None
        return cls(**values)

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        """A JSON config file, or the config of a run manifest."""
        payload = read_json_object(path)
        if "config" in payload and isinstance(payload["config"], dict):
            payload = payload["config"]  # accept a manifest as a config source
        return cls.from_dict(payload)

    def retry_policy(self) -> RetryPolicy:
        """The attempts and backoff of every LLM, embedding and EDGAR request."""
        return RetryPolicy(self.retry_attempts, self.retry_backoff)


def read_json_object(path: str | Path) -> dict:
    """The JSON object in a config or manifest file; anything else is a ConfigError."""
    try:
        payload = json.loads(read_text(path, ConfigError))
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ConfigError(f"{path} does not hold a JSON object")
    return payload
