"""Command-line entry point.

Subcommands: ingest, ask, bench, score, datagen, stats, ablate. ``bench``
and ``ask`` set up each report and answer each question through one runner;
``ask`` is a one-question ``bench`` over a report file.
Configuration comes from an optional JSON file or run manifest plus flags
(flags win); every run writes a manifest sufficient to reproduce it.

Exit codes: 0 ok, 1 usage, 2 config, 3 data, 4 provider.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Sequence

from . import corpus as corpus_mod
from . import datagen as datagen_mod
from . import ingest as ingest_mod
from . import metrics as metrics_mod
from . import pipelines as pipelines_mod
from . import retrieval as retrieval_mod
from .embeddings import CachedEmbeddingProvider, EmbeddingCache, HttpEmbeddingProvider
from .errors import (
    ChecksumMismatchError,
    ConfigError,
    DanglingReferenceError,
    ContextOverflowError,
    DecodeError,
    FinReportQAError,
    ProviderError,
    RateLimitedError,
    SchemaError,
    TransportError,
    UnmatchedPromptError,
)
from .llm import (
    HttpBackend,
    LLMClient,
    ProviderConfig,
    ResponseCache,
    RetryPolicy,
    ScriptedBackend,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_PROVIDER = 4

_PROVIDER_ERRORS = (TransportError, ProviderError, DecodeError, UnmatchedPromptError,
                    ContextOverflowError, RateLimitedError, ChecksumMismatchError)

PIPELINES = ("agent", "no_context", "long_context", "single_round_rag", "fixed_budget_rag")
# Pipelines that never search, so they need no retriever or retrieval units.
_INDEXLESS_PIPELINES = ("no_context", "long_context")


# The JSON values each RunConfig annotation takes; no field takes a bool.
_JSON_TYPES = {
    "str": str,
    "int": int,
    "float": (int, float),
    "Optional[str]": (str, type(None)),
    "str | int": (str, int),
}


@dataclass
class RunConfig:
    """Everything a run needs; serialized verbatim into the manifest."""

    endpoint: str = "http://localhost:8000/v1/chat/completions"
    model: str = "scripted"
    temperature: float = 0.0
    max_input_tokens: int = 128_000
    max_output_tokens: int = 2048
    timeout: float = 120.0
    retry_attempts: int = 3
    retry_backoff: float = 0.5
    api_key_env: str = "FINDOC_API_KEY"

    backend: str = "http"  # http | scripted
    script_path: Optional[str] = None

    scheme: str = "bm25"  # tfidf | bm25 | dense
    granularity: str | int = "page"  # "page" or a positive token count
    bm25_k1: float = 1.2
    bm25_b: float = 0.75
    embedding_endpoint: str = ""
    embedding_model: str = ""
    embedding_dimension: int = 0

    k_per_round: int = 15
    max_rounds: int = 5
    chunk_budget: int = 75
    baseline_k: int = 30
    fixed_budget_k: int = 75

    corpus_dir: Optional[str] = None
    dataset: Optional[str] = None
    output_dir: str = "runs"
    cache_dir: Optional[str] = None

    workers: int = 1
    seed: int = 0

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
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ConfigError(f"temperature must be a finite number >= 0, got {self.temperature}")
        for name in ("max_input_tokens", "max_output_tokens", "timeout"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        for name in ("k_per_round", "max_rounds", "chunk_budget", "baseline_k", "fixed_budget_k"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")

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

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "RunConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        for name, value in payload.items():
            annotation = cls.__dataclass_fields__[name].type
            if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[annotation]):
                raise ConfigError(f"config field {name} must be {annotation}, got {value!r}")
        return cls(**payload)

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        """A JSON config file, or the config of a run manifest."""
        payload = read_json_object(path)
        if "config" in payload and isinstance(payload["config"], dict):
            payload = payload["config"]  # accept a manifest as a config source
        return cls.from_dict(payload)

    def provider_config(self) -> ProviderConfig:
        return ProviderConfig(
            endpoint=self.endpoint,
            model=self.model,
            temperature=self.temperature,
            max_output_tokens=self.max_output_tokens,
            max_input_tokens=self.max_input_tokens,
            timeout=self.timeout,
            retry=RetryPolicy(self.retry_attempts, self.retry_backoff),
            api_key_env=self.api_key_env,
        )


def read_json_object(path: str | Path) -> dict:
    """The JSON object in a config or manifest file; anything else is a ConfigError."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ConfigError(f"{path} does not hold a JSON object")
    return payload


# --- wiring helpers -----------------------------------------------------------

def build_client(config: RunConfig, log_path: Optional[Path] = None) -> LLMClient:
    if config.backend == "scripted":
        backend = ScriptedBackend.from_file(config.script_path)
    else:
        backend = HttpBackend()
    cache = ResponseCache(Path(config.cache_dir) / "llm") if config.cache_dir else None
    return LLMClient(config.provider_config(), backend, cache, log_path=log_path)


def build_embedding_provider(config: RunConfig):
    provider = HttpEmbeddingProvider(
        endpoint=config.embedding_endpoint,
        model=config.embedding_model,
        dimension=config.embedding_dimension,
        api_key_env=config.api_key_env,
        timeout=config.timeout,
    )
    if config.cache_dir:
        provider = CachedEmbeddingProvider(
            provider, EmbeddingCache(Path(config.cache_dir) / "embeddings"))
    return provider


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class _ReportRunner:
    """Per-report state and question answering for one pipeline.

    Only the state the pipeline reads is built: the report always, the
    retriever (which holds the retrieval units) only for pipelines that
    search. A report set up with a question count is dropped, with all it
    holds, once ``run_instance`` has answered that many of its questions.
    Set-up is not thread-safe; answering is.
    """

    def __init__(self, config: RunConfig, client: LLMClient, pipeline: str):
        self.config = config
        self.client = client
        self.pipeline = pipeline
        self._reports: dict[str, tuple] = {}
        self._questions_left: dict[str, int] = {}
        self._lock = threading.Lock()
        self.agent_config = pipelines_mod.AgentConfig(
            max_rounds=config.max_rounds,
            k_per_round=config.k_per_round,
            chunk_budget=config.chunk_budget,
        )

    def setup(self, report: corpus_mod.Report, questions: Optional[int] = None) -> None:
        config = self.config
        if questions is not None:
            self._questions_left[report.report_id] = questions
        if self.pipeline in _INDEXLESS_PIPELINES:
            self._reports[report.report_id] = (report, None)
            return
        provider = build_embedding_provider(config) if config.scheme == "dense" else None
        self._reports[report.report_id] = (report, retrieval_mod.prepare_report(
            report, config.scheme, granularity=config.unit_granularity(),
            provider=provider, bm25_params=(config.bm25_k1, config.bm25_b)))

    def run_instance(self, instance: corpus_mod.QAInstance) -> dict:
        report_id = instance.report_id
        row = self.answer(report_id, instance.question, instance.id)
        with self._lock:
            self._questions_left[report_id] -= 1
            if not self._questions_left[report_id]:
                del self._reports[report_id]
        return row

    def answer(self, report_id: str, question: str, question_id: str) -> dict:
        """One prediction row; an agent row also carries its transcript."""
        pipeline = self.pipeline
        report, retriever = self._reports[report_id]
        if pipeline == "agent":
            agent = pipelines_mod.AgentPipeline(self.client, retriever, self.agent_config)
            transcript = agent.run(question, question_id=question_id)
            return {
                "id": question_id,
                "pipeline": pipeline,
                "answer": transcript.final_answer,
                "termination": transcript.termination,
                "rounds": len(transcript.rounds),
                "transcript": transcript.to_dict(),
            }
        k = None
        if pipeline == "single_round_rag":
            k = self.config.baseline_k
        elif pipeline == "fixed_budget_rag":
            k = self.config.fixed_budget_k
        result = pipelines_mod.run_baseline(
            pipeline, question, self.client,
            report=report, retriever=retriever, k=k)
        return {
            "id": question_id,
            "pipeline": pipeline,
            "answer": result.answer,
            "insufficient": result.insufficient,
            "context_pages": list(result.context_pages),
            "prompt_tokens": result.prompt_tokens,
        }


def _score_rows(rows: list[dict], instances: dict[str, corpus_mod.QAInstance]
                ) -> list[metrics_mod.InstanceScore]:
    scores = []
    for row in rows:
        instance = instances.get(row["id"])
        if instance is None:
            raise DanglingReferenceError(
                f"prediction {row['id']!r} matches no dataset instance")
        prediction = row.get("answer")
        pred_string = "" if prediction is None else json.dumps(prediction)
        mode = instance.extras.get("percent_mode")
        percent_mode = metrics_mod.PercentMode(mode) if mode else None
        scores.append(metrics_mod.score_instance(
            pred_string, instance.gold_answer,
            instance_id=instance.id,
            difficulty=instance.difficulty,
            question_type=instance.question_type,
            percent_mode=percent_mode,
        ))
    return scores


def _write_scores(run_dir: Path, scores: list[metrics_mod.InstanceScore]) -> None:
    metrics_mod.write_scores_jsonl(scores, run_dir / "scores.jsonl")
    report = metrics_mod.aggregate(scores)
    (run_dir / "eval_report.json").write_text(report.to_json() + "\n", encoding="utf-8")


def _write_transcript(path: Path, transcript: dict) -> None:
    path.write_text(json.dumps(transcript, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_manifest(out_dir: Path, command: str, config: RunConfig,
                    inputs: dict, **extra) -> None:
    manifest = {
        "command": command,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "config": config.to_dict(),
        "inputs": inputs,
        **extra,
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# --- commands ------------------------------------------------------------------

def cmd_bench(args, config: RunConfig) -> int:
    if not config.dataset:
        raise ConfigError("bench needs a dataset (--dataset)")
    if type(args.limit) is not int or args.limit < 0:
        raise ConfigError(f"limit must be a non-negative integer, got {args.limit!r}")
    instances = corpus_mod.read_dataset(config.dataset)
    if args.limit:
        instances = instances[:args.limit]
    run_dir = _make_run_dir(config, args.run_id)
    client = build_client(config, log_path=run_dir / "llm_log.jsonl")
    runner = _ReportRunner(config, client, args.pipeline)

    # per-report set-up is not thread-safe, so do it up front
    for report_id, questions in Counter(i.report_id for i in instances).items():
        if not config.corpus_dir:
            raise ConfigError("corpus_dir is not set")
        runner.setup(corpus_mod.load_report(Path(config.corpus_dir) / f"{report_id}.md"),
                     questions)

    # the pool bounds how many LLM calls are in flight at once
    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            rows = list(pool.map(runner.run_instance, instances))
    else:
        rows = [runner.run_instance(i) for i in instances]

    with open(run_dir / "predictions.jsonl", "w", encoding="utf-8") as fh:
        for row in rows:
            slim = {k: v for k, v in row.items() if k != "transcript"}
            fh.write(json.dumps(slim, sort_keys=True) + "\n")
    transcripts_dir = run_dir / "transcripts"
    transcripts_dir.mkdir(exist_ok=True)
    for row in rows:
        if "transcript" in row:
            _write_transcript(transcripts_dir / f"{row['id']}.json", row["transcript"])

    scores = _score_rows(rows, {i.id: i for i in instances})
    _write_scores(run_dir, scores)

    _write_manifest(
        run_dir, "bench", config,
        inputs={"dataset_sha256": sha256_file(Path(config.dataset)),
                "instances": len(instances)},
        pipeline=args.pipeline, limit=args.limit)

    report = metrics_mod.aggregate(scores)
    print(f"bench: {len(rows)} instances -> {run_dir}")
    print(report.to_json())
    return EXIT_OK


def cmd_score(args, config: RunConfig) -> int:
    dataset_path = args.gold or config.dataset
    if not dataset_path:
        raise ConfigError("score needs a gold dataset (--gold or config dataset)")
    instances = {i.id: i for i in corpus_mod.read_dataset(dataset_path)}
    rows = []
    with open(args.predictions, "r", encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"{args.predictions}: invalid JSON: {exc}",
                                  line_number) from None
            if not (isinstance(row, dict) and isinstance(row.get("id"), str)):
                raise SchemaError(f"{args.predictions}: a prediction must be a JSON object "
                                  "with a string id", line_number)
            rows.append(row)
    scores = _score_rows(rows, instances)
    out_dir = Path(args.out) if args.out else Path(args.predictions).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_scores(out_dir, scores)
    _write_manifest(out_dir, "score", config, inputs={
        "predictions_sha256": sha256_file(Path(args.predictions)),
        "dataset_sha256": sha256_file(Path(dataset_path)),
    })
    print(metrics_mod.aggregate(scores).to_json())
    return EXIT_OK


def cmd_ask(args, config: RunConfig) -> int:
    runner = _ReportRunner(config, build_client(config), args.pipeline)
    report = corpus_mod.load_report(args.report)
    runner.setup(report)
    row = runner.answer(report.report_id, args.question, "ask")
    print(f"answer: {row['answer']}")
    if "transcript" in row:
        out_dir = Path(config.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        transcript_path = out_dir / "ask_transcript.json"
        _write_transcript(transcript_path, row["transcript"])
        _write_manifest(out_dir, "ask", config,
                        inputs={"report_sha256": sha256_file(Path(args.report))},
                        pipeline=args.pipeline, question=args.question)
        print(f"termination: {row['termination']}")
        print(f"transcript: {transcript_path}")
    elif row["context_pages"]:
        print(f"context pages: {sorted(row['context_pages'])}")
    return EXIT_OK


def cmd_stats(args, config: RunConfig) -> int:
    reports = []
    if config.corpus_dir:
        for path in sorted(Path(config.corpus_dir).glob("*.md")):
            reports.append(corpus_mod.load_report(path))
    instances = corpus_mod.read_dataset(config.dataset) if config.dataset else []
    stats = corpus_mod.corpus_stats(reports, instances)
    rendered = json.dumps(stats.to_dict(), indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(rendered + "\n", encoding="utf-8")
    print(rendered)
    return EXIT_OK


def cmd_ablate(args, config: RunConfig) -> int:
    if not (config.corpus_dir and config.dataset):
        raise ConfigError("ablate needs corpus_dir and dataset")
    reports = [corpus_mod.load_report(path)
               for path in sorted(Path(config.corpus_dir).glob("*.md"))]
    instances = corpus_mod.read_dataset(config.dataset)
    sizes = args.sizes or retrieval_mod.ABLATION_CHUNK_SIZES
    rows = retrieval_mod.ablate_chunks(reports, instances, sizes, args.k_values,
                                       scheme=config.scheme if config.scheme != "dense" else "bm25")
    rendered = json.dumps(rows, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(rendered + "\n", encoding="utf-8")
    print(rendered)
    return EXIT_OK


def cmd_datagen(args, config: RunConfig) -> int:
    if not config.corpus_dir:
        raise ConfigError("datagen needs corpus_dir")
    reports = [corpus_mod.load_report(path)
               for path in sorted(Path(config.corpus_dir).glob("*.md"))]
    if not reports:
        raise FileNotFoundError(f"no reports under {config.corpus_dir}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    raw_records: list[datagen_mod.RawQA] = []
    if args.mode in ("generate", "both"):
        client = build_client(config)
        parse_errors = 0
        for report in reports:
            plan = datagen_mod.sample_pages(report, n=args.sample_pages, seed=config.seed)
            batch = datagen_mod.generate_qa(report, plan, client, max_pairs=args.max_pairs)
            for record in batch.records:
                record.extras.setdefault("report_id", report.report_id)
            raw_records.extend(batch.records)
            parse_errors += batch.parse_errors
        datagen_mod.write_raw_batch(raw_records, out_dir / "raw.jsonl")
        print(f"generated {len(raw_records)} candidates ({parse_errors} parse errors)")
    else:
        if not args.raw:
            raise ConfigError("datagen --mode filter needs --raw")
        raw_records = datagen_mod.read_raw_batch(args.raw)

    if args.mode in ("filter", "both"):
        kept, stats, _ = datagen_mod.filter_pipeline(
            raw_records, {r.report_id: r for r in reports})
        corpus_mod.write_dataset(kept, out_dir / "filtered.jsonl")
        (out_dir / "filter_report.json").write_text(
            json.dumps(stats.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(json.dumps(stats.to_dict(), indent=2, sort_keys=True))
    _write_manifest(out_dir, "datagen", config,
                    inputs={"reports": [r.report_id for r in reports]},
                    mode=args.mode)
    return EXIT_OK


def cmd_ingest(args, config: RunConfig) -> int:
    client = ingest_mod.EdgarClient(user_agent=args.user_agent)
    start, end = args.years
    refs = client.list_filings(args.issuer, form_type=args.form, year_range=(start, end))
    print(f"{len(refs)} filings for {args.issuer} ({args.form}, {start}-{end})")
    for ref in refs:
        print(f"  {ref.filing_date}  {ref.accession_number}  {ref.primary_document}")
    if args.fetch:
        dest = Path(args.dest or config.corpus_dir or "corpus")
        for ref in refs:
            path = client.fetch_document(ref, dest)
            print(f"fetched -> {path}")
            if args.convert:
                report = ingest_mod.html_to_pages(
                    path.read_text(encoding="utf-8", errors="replace"),
                    report_id=f"{ref.cik}_{ref.accession_number}")
                md_path = path.with_suffix(".md")
                md_path.write_text(corpus_mod.render_markdown(report), encoding="utf-8")
                print(f"converted -> {md_path}")
    return EXIT_OK


def _make_run_dir(config: RunConfig, run_id: Optional[str]) -> Path:
    stamp = run_id or time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    run_dir = Path(config.output_dir) / stamp
    counter = 0
    while run_dir.exists():
        counter += 1
        run_dir = Path(config.output_dir) / f"{stamp}-{counter}"
    run_dir.mkdir(parents=True)
    return run_dir


# --- argument parsing -----------------------------------------------------------

_CONFIG_FLAGS: list[tuple[str, type, str]] = [
    ("endpoint", str, "chat-completions endpoint URL"),
    ("model", str, "model identifier"),
    ("temperature", float, "sampling temperature"),
    ("max_input_tokens", int, "input context budget"),
    ("max_output_tokens", int, "completion token cap"),
    ("timeout", float, "request timeout seconds"),
    ("retry_attempts", int, "transport retry attempts"),
    ("retry_backoff", float, "retry backoff seconds"),
    ("api_key_env", str, "environment variable holding the API key"),
    ("backend", str, "llm backend: http or scripted"),
    ("script_path", str, "scripted backend response file"),
    ("scheme", str, "retrieval scheme: tfidf, bm25, dense"),
    ("granularity", str, "retrieval unit granularity: page or a positive token count"),
    ("bm25_k1", float, "BM25 k1"),
    ("bm25_b", float, "BM25 b"),
    ("embedding_endpoint", str, "embeddings endpoint URL"),
    ("embedding_model", str, "embedding model identifier"),
    ("embedding_dimension", int, "embedding vector dimension"),
    ("k_per_round", int, "chunks retrieved per agent round"),
    ("max_rounds", int, "agent round limit"),
    ("chunk_budget", int, "cumulative retrieved chunk cap"),
    ("baseline_k", int, "single-round retrieval k"),
    ("fixed_budget_k", int, "fixed-budget retrieval k"),
    ("corpus_dir", str, "directory of report .md files"),
    ("dataset", str, "QA dataset JSON-lines path"),
    ("output_dir", str, "run output directory"),
    ("cache_dir", str, "cache directory for llm/embedding responses"),
    ("workers", int, "bench worker count"),
    ("seed", int, "random seed"),
]


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file (flags override it)")
    for name, flag_type, help_text in _CONFIG_FLAGS:
        parser.add_argument(f"--{name.replace('_', '-')}", dest=f"cfg_{name}",
                            type=flag_type, default=None, help=help_text)


def resolve_config(args) -> RunConfig:
    """A manifest's config (plus its pipeline and limit), a config file or the defaults; flags win."""
    if getattr(args, "from_manifest", None):
        if args.config:
            raise ConfigError("--from-manifest and --config cannot be combined")
        manifest = read_json_object(args.from_manifest)
        if not isinstance(manifest.get("config"), dict):
            raise ConfigError(f"manifest {args.from_manifest} has no config object")
        config = RunConfig.from_dict(manifest["config"])
        args.pipeline = manifest.get("pipeline", args.pipeline)
        args.limit = manifest.get("limit", args.limit)
    elif getattr(args, "config", None):
        config = RunConfig.from_file(args.config)
    else:
        config = RunConfig()
    overrides = {}
    for name, _, _ in _CONFIG_FLAGS:
        value = getattr(args, f"cfg_{name}", None)
        if value is not None:
            overrides[name] = value
    if overrides:
        config = replace(config, **overrides)
    config.validate()
    return config


def _positive_ints(text: str) -> list[int]:
    """A flag value like ``5,10,30``: comma-separated integers >= 1."""
    parts = text.split(",")
    if not all(re.fullmatch(r"[0-9]+", p.strip()) and int(p) >= 1 for p in parts):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers >= 1, got {text!r}")
    return [int(p) for p in parts]


def _year_range(text: str) -> tuple[int, int]:
    """A flag value like ``2022-2024``: an inclusive range of years."""
    match = re.fullmatch(r"([0-9]{4})-([0-9]{4})", text)
    if not match or int(match[1]) > int(match[2]):
        raise argparse.ArgumentTypeError(
            f"expected YYYY-YYYY with the first year not after the second, got {text!r}")
    return int(match[1]), int(match[2])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finreportqa",
        description="Numerical QA over long financial reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bench = sub.add_parser("bench", help="run a dataset through a pipeline")
    p_bench.add_argument("--pipeline", choices=PIPELINES, default="agent")
    p_bench.add_argument("--limit", type=int, default=0, help="run only the first N instances")
    p_bench.add_argument("--run-id", help="run directory name (default: timestamp)")
    p_bench.add_argument("--from-manifest", help="re-run a manifest's config; flags override it")
    _add_config_flags(p_bench)

    p_score = sub.add_parser("score", help="score a predictions file against gold")
    p_score.add_argument("--predictions", required=True)
    p_score.add_argument("--gold", help="gold dataset (defaults to config dataset)")
    p_score.add_argument("--out", help="output directory for score files")
    _add_config_flags(p_score)

    p_ask = sub.add_parser("ask", help="answer one question over one report")
    p_ask.add_argument("--question", required=True)
    p_ask.add_argument("--report", required=True, help="report .md path")
    p_ask.add_argument("--pipeline", choices=PIPELINES, default="agent")
    _add_config_flags(p_ask)

    p_stats = sub.add_parser("stats", help="corpus and dataset statistics")
    p_stats.add_argument("--out", help="write JSON here as well as stdout")
    _add_config_flags(p_stats)

    p_ablate = sub.add_parser("ablate", help="chunk-granularity recall study")
    p_ablate.add_argument("--sizes", type=_positive_ints,
                          help="comma-separated token sizes (default 256,512,800,1200)")
    p_ablate.add_argument("--k-values", type=_positive_ints, default="5,10,30")
    p_ablate.add_argument("--out", help="write JSON table here")
    _add_config_flags(p_ablate)

    p_datagen = sub.add_parser("datagen", help="generate and/or filter QA candidates")
    p_datagen.add_argument("--mode", choices=("generate", "filter", "both"), default="both")
    p_datagen.add_argument("--out", required=True, help="output directory")
    p_datagen.add_argument("--raw", help="raw batch JSONL (filter mode)")
    p_datagen.add_argument("--max-pairs", type=int, default=10)
    p_datagen.add_argument("--sample-pages", type=int, default=40)
    _add_config_flags(p_datagen)

    p_ingest = sub.add_parser("ingest", help="list and fetch EDGAR filings")
    p_ingest.add_argument("--issuer", required=True, help="ticker or CIK")
    p_ingest.add_argument("--form", default="10-K")
    p_ingest.add_argument("--years", type=_year_range, default="2022-2024",
                          help="inclusive range YYYY-YYYY, e.g. 2022-2024")
    p_ingest.add_argument("--fetch", action="store_true")
    p_ingest.add_argument("--convert", action="store_true", help="also convert HTML to .md pages")
    p_ingest.add_argument("--dest", help="download directory")
    p_ingest.add_argument("--user-agent", default=ingest_mod.DEFAULT_USER_AGENT)
    _add_config_flags(p_ingest)

    return parser


_COMMANDS = {
    "bench": cmd_bench,
    "score": cmd_score,
    "ask": cmd_ask,
    "stats": cmd_stats,
    "ablate": cmd_ablate,
    "datagen": cmd_datagen,
    "ingest": cmd_ingest,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE

    try:
        return _COMMANDS[args.command](args, resolve_config(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _PROVIDER_ERRORS as exc:
        print(f"provider error: {exc}", file=sys.stderr)
        return EXIT_PROVIDER
    except (FileNotFoundError, FinReportQAError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
