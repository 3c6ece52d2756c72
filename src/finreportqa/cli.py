"""Command-line entry point.

Subcommands: ingest, ask, bench, score, datagen, stats, ablate. ``bench``
and ``ask`` answer each question through one runner method, which sets the
question's report up and frees it after its last question; ``ask`` is a
one-question ``bench`` over a report file. ``main`` builds the
flags of the invoked subcommand only, and ``datagen``, ``ingest`` and
``stats`` import the modules only they use (``datagen``, ``ingest``,
``statistics``) when they run, so the other commands never load them.
Configuration, a ``config.RunConfig``, comes from an optional JSON file or
run manifest plus flags (flags win); every run writes a manifest sufficient
to reproduce it.

Exit codes: 0 ok, 1 usage, 2 config, 3 data, 4 provider; a package error's
class decides its code (``FinReportQAError.exit_code``).
"""

from __future__ import annotations

import argparse
import re
import sys
import threading
from collections import Counter
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import fields, replace
from pathlib import Path
from typing import Mapping, Optional, Sequence

from . import corpus as corpus_mod
from . import pipelines as pipelines_mod
from . import retrieval as retrieval_mod
from . import rundir
from .config import _FIELD_TYPES, RunConfig, read_json_object
from .embeddings import CachedEmbeddingProvider, EmbeddingCache, HttpEmbeddingProvider
from .errors import ConfigError, FinReportQAError, ReportEncodingError, SchemaError
from .llm import HttpBackend, LLMClient, ResponseCache, ScriptedBackend

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 3

PIPELINES = ("agent", *pipelines_mod.BASELINE_KINDS)
# Pipelines that never search, so they need no retriever or retrieval units.
_INDEXLESS_PIPELINES = ("no_context", "long_context")


# --- wiring helpers -----------------------------------------------------------

def build_client(config: RunConfig) -> LLMClient:
    if config.backend == "scripted":
        backend = ScriptedBackend.from_file(config.script_path)
    else:
        backend = HttpBackend()
    cache = ResponseCache(Path(config.cache_dir) / "llm") if config.cache_dir else None
    return LLMClient(config, backend, cache)


def build_embedding_provider(config: RunConfig):
    provider = HttpEmbeddingProvider(config)
    if config.cache_dir:
        provider = CachedEmbeddingProvider(
            provider, EmbeddingCache(Path(config.cache_dir) / "embeddings"))
    return provider


class _ReportRunner:
    """Per-report state and question answering for one pipeline, inside
    ``with``.

    ``paths`` maps each report id to its file, and ``questions`` each
    report's question count, in order of each report's first question.
    Each held report is one ``Future`` of its set-up, made by the first
    question that needs the report, under the runner's lock, so questions
    that need it at once share one set-up. Only the state the pipeline reads
    is built: for long_context the report's prefix of ``max_input_tokens``
    tokens, which keeps each page's flat text and frees its page texts, and
    otherwise the report, with a retriever (which holds the retrieval units)
    only for pipelines that search, and one embedding provider for the run
    only for those that search densely. ``answer`` answers one question,
    and drops its report, with all it holds, once it has answered that many
    of the report's questions. Answering is thread-safe.

    Every set-up runs on the runner's one set-up thread, never under the
    lock, and the pipeline gets functions that wait for it, so a question
    waits for its report's set-up inside the pipeline's own call, and a
    set-up error is raised there. The agent's first call, the expansion,
    needs only the question, so the index builds while that call is in
    flight; a baseline reads its report or searches it before its one call.

    Once a report's first question is answered, the next report in order of
    first question is set up ahead while this report's other questions wait
    on the endpoint. Looking one report ahead holds at most one report more
    than those with questions in flight: N + 1 at N workers over a dataset
    grouped by report. A set-up error is kept and raised by each question
    that asks for that report. Leaving the block cancels a set-up not yet
    begun and waits for one that is running.
    """

    def __init__(self, client: LLMClient, pipeline: str, paths: Mapping[str, Path],
                 questions: Mapping[str, int]):
        config = client.config
        self.client = client
        self.pipeline = pipeline
        self._paths = dict(paths)
        self._reports: dict[str, Future] = {}  # each held report's set-up
        self._questions_left = dict(questions)
        order = list(self._questions_left)  # in order of each report's first question
        self._next = dict(zip(order, order[1:]))
        self._unstarted = set(order)  # the reports whose set-up has not begun
        self._lock = threading.Lock()  # guards the held reports, counts and unstarted set
        self.provider = (build_embedding_provider(config)
                         if config.scheme == "dense" and pipeline not in _INDEXLESS_PIPELINES
                         else None)

    def __enter__(self) -> "_ReportRunner":
        self._pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="report-setup")
        return self

    def __exit__(self, *exc_info) -> None:
        self._pool.shutdown(cancel_futures=True)

    def _start_setup(self, report_id: str) -> Future:
        """Submit the report's set-up to the set-up thread; the caller holds
        the lock."""
        self._unstarted.discard(report_id)
        self._reports[report_id] = future = self._pool.submit(self._setup, report_id)
        return future

    def _setup_future(self, report_id: str) -> Future:
        """The Future of the report's set-up, started here if the report is
        not held."""
        with self._lock:
            future = self._reports.get(report_id)
            return future if future is not None else self._start_setup(report_id)

    def _setup(self, report_id: str) -> tuple:
        """The report, or for long_context its prefix, and its retriever or
        None."""
        report = corpus_mod.load_report(self._paths[report_id])
        config = self.client.config
        if self.pipeline == "long_context":
            return report.prefix(config.max_input_tokens), None
        if self.pipeline in _INDEXLESS_PIPELINES:
            return report, None
        return report, retrieval_mod.build_retriever(
            report, config.scheme, granularity=config.unit_granularity(),
            provider=self.provider, bm25_params=(config.bm25_k1, config.bm25_b))

    def answer(self, report_id: str, question: str, question_id: str) -> dict:
        """One prediction row; an agent row also carries its transcript.
        Then the question is counted, its report dropped after its last
        question and the next report set up ahead."""
        pipeline = self.pipeline
        setup = self._setup_future(report_id)
        if pipeline == "agent":
            agent = pipelines_mod.AgentPipeline(self.client, lambda: setup.result()[1])
            transcript = agent.run(question, question_id=question_id)
            row = {
                "id": question_id,
                "pipeline": pipeline,
                "answer": transcript.final_answer,
                "termination": transcript.termination,
                "rounds": len(transcript.rounds),
                "transcript": transcript,
            }
        else:
            result = pipelines_mod.run_baseline(
                pipeline, question, self.client, report=lambda: setup.result()[0],
                retriever=lambda: setup.result()[1])
            row = {"id": question_id, "pipeline": pipeline, **vars(result)}
        with self._lock:
            self._questions_left[report_id] -= 1
            if not self._questions_left[report_id]:
                del self._reports[report_id]
            following = self._next.get(report_id)
            if following in self._unstarted:
                self._start_setup(following)
        return row


# --- commands ------------------------------------------------------------------

def _print_json(payload, out: Optional[str | Path] = None) -> None:
    """Print ``payload`` as a JSON document, first writing the same text to ``out``."""
    rendered = rundir.to_json(payload)
    if out:
        rundir.write_text(out, rendered)
    print(rendered, end="")


def cmd_bench(args, config: RunConfig) -> int:
    if not config.dataset:
        raise ConfigError("bench needs a dataset (--dataset)")
    if type(args.limit) is not int or args.limit < 0:
        raise ConfigError(f"limit must be a non-negative integer, got {args.limit!r}")
    if args.pipeline not in PIPELINES:
        raise ConfigError(f"pipeline must be one of {', '.join(PIPELINES)}, got {args.pipeline!r}")
    instances = corpus_mod.read_dataset(config.dataset)
    if args.limit:
        instances = instances[:args.limit]
    client = build_client(config)
    questions = Counter(i.report_id for i in instances)
    if questions and not config.corpus_dir:
        raise ConfigError("corpus_dir is not set")
    paths = {report_id: Path(config.corpus_dir) / f"{report_id}.md" for report_id in questions}
    runner = _ReportRunner(client, args.pipeline, paths, questions)
    # each report is set up by its first question; until the run directory
    # exists, only check that every report opens, so that a missing one
    # leaves no run directory behind
    for path in paths.values():
        corpus_mod.check_opens(path, ReportEncodingError)
    run = rundir.RunDir.create(config.output_dir, args.run_id)
    client.log_path = run.path / rundir.LLM_LOG

    # both maps yield rows in dataset order; the pool bounds how many LLM
    # calls are in flight at once, and the runner sets reports up ahead
    columns = ([i.report_id for i in instances], [i.question for i in instances],
               [i.id for i in instances])
    with runner:
        if config.workers > 1:
            with ThreadPoolExecutor(max_workers=config.workers) as pool:
                rows = run.write_rows(pool.map(runner.answer, *columns))
        else:
            rows = run.write_rows(map(runner.answer, *columns))

    report = run.write_scores(rundir.score_rows(rows, {i.id: i for i in instances}))
    run.write_manifest(
        "bench", config,
        inputs={"dataset_sha256": rundir.sha256_file(config.dataset),
                "instances": len(instances)},
        pipeline=args.pipeline, limit=args.limit)
    print(f"bench: {len(rows)} instances -> {run.path}")
    _print_json(report)
    return EXIT_OK


def cmd_score(args, config: RunConfig) -> int:
    dataset_path = args.gold or config.dataset
    if not dataset_path:
        raise ConfigError("score needs a gold dataset (--gold or config dataset)")
    instances = {i.id: i for i in corpus_mod.read_dataset(dataset_path)}
    rows = {}
    for line_number, row in corpus_mod.read_json_lines(args.predictions):
        if not isinstance(row.get("id"), str):
            raise SchemaError(f"{args.predictions}: a prediction must be a JSON object "
                              "with a string id", line_number)
        if row["id"] in rows:
            raise SchemaError(f"{args.predictions}: id {row['id']!r} repeats", line_number, "id")
        rows[row["id"]] = row
    scores = rundir.score_rows(rows.values(), instances)
    run = rundir.RunDir(args.out or Path(args.predictions).parent)
    report = run.write_scores(scores)
    run.write_manifest("score", config, inputs={
        "predictions_sha256": rundir.sha256_file(args.predictions),
        "dataset_sha256": rundir.sha256_file(dataset_path),
    })
    _print_json(report)
    return EXIT_OK


def cmd_ask(args, config: RunConfig) -> int:
    report_id = Path(args.report).stem
    runner = _ReportRunner(build_client(config), args.pipeline, {report_id: Path(args.report)},
                           {report_id: 1})
    with runner:
        row = runner.answer(report_id, args.question, "ask")
    print(f"answer: {row['answer']}")
    if "transcript" in row:
        run = rundir.RunDir(config.output_dir)
        transcript_path = run.write_json(rundir.ASK_TRANSCRIPT, row["transcript"])
        run.write_manifest("ask", config,
                           inputs={"report_sha256": rundir.sha256_file(args.report)},
                           pipeline=args.pipeline, question=args.question)
        print(f"termination: {row['termination']}")
        print(f"transcript: {transcript_path}")
    elif row["context_pages"]:
        print(f"context pages: {sorted(row['context_pages'])}")
    return EXIT_OK


def cmd_stats(args, config: RunConfig) -> int:
    reports = corpus_mod.load_corpus(config.corpus_dir) if config.corpus_dir else []
    instances = corpus_mod.read_dataset(config.dataset) if config.dataset else []
    _print_json(corpus_mod.corpus_stats(reports, instances), args.out)
    return EXIT_OK


def cmd_ablate(args, config: RunConfig) -> int:
    if not (config.corpus_dir and config.dataset):
        raise ConfigError("ablate needs corpus_dir and dataset")
    if config.scheme == "dense":
        raise ConfigError("ablate studies sparse retrieval only: use --scheme tfidf or bm25")
    reports = corpus_mod.load_corpus(config.corpus_dir)
    instances = corpus_mod.read_dataset(config.dataset)
    sizes = args.sizes or retrieval_mod.ABLATION_CHUNK_SIZES
    rows = retrieval_mod.ablate_chunks(reports, instances, sizes, args.k_values,
                                       scheme=config.scheme,
                                       bm25_params=(config.bm25_k1, config.bm25_b))
    _print_json(rows, args.out)
    return EXIT_OK


def cmd_datagen(args, config: RunConfig) -> int:
    from . import datagen as datagen_mod

    if not config.corpus_dir:
        raise ConfigError("datagen needs corpus_dir")
    if args.mode == "filter" and not args.raw:
        raise ConfigError("datagen --mode filter needs --raw")
    reports = corpus_mod.load_corpus(config.corpus_dir)
    if not reports:
        raise FileNotFoundError(f"no reports under {config.corpus_dir}")
    raw_records = datagen_mod.read_raw_batch(args.raw) if args.mode == "filter" else []
    generating = args.mode in ("generate", "both")
    plans = []
    for report in reports if generating else ():
        try:
            plans.append(datagen_mod.sample_pages(report, n=args.sample_pages, seed=config.seed))
        except ValueError as exc:
            path = Path(config.corpus_dir) / f"{report.report_id}.md"
            raise FinReportQAError(f"{path}: {exc}") from None
    client = build_client(config) if generating else None
    # only now, so that an unreadable input, script file included, or a
    # report too short to sample leaves no output directory behind
    run = rundir.RunDir(args.out)

    if generating:
        parse_errors = 0
        for report, plan in zip(reports, plans):
            batch = datagen_mod.generate_qa(report, plan, client, max_pairs=args.max_pairs)
            for record in batch.records:
                record.setdefault("report_id", report.report_id)
            raw_records.extend(batch.records)
            parse_errors += batch.parse_errors
        run.write_jsonl("raw.jsonl", raw_records)
        print(f"generated {len(raw_records)} candidates ({parse_errors} parse errors)")

    if args.mode in ("filter", "both"):
        kept, stats, _ = datagen_mod.filter_pipeline(
            raw_records, {r.report_id: r for r in reports})
        run.write_jsonl("filtered.jsonl", map(corpus_mod.instance_to_record, kept))
        _print_json(stats, run.path / "filter_report.json")
    run.write_manifest("datagen", config, inputs={"reports": [r.report_id for r in reports]},
                       mode=args.mode)
    return EXIT_OK


def cmd_ingest(args, config: RunConfig) -> int:
    from . import ingest as ingest_mod

    client = ingest_mod.EdgarClient(user_agent=args.user_agent, timeout=config.timeout,
                                    retry=config.retry_policy())
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
                md_path = rundir.write_text(path.with_suffix(".md"),
                                            corpus_mod.render_markdown(report))
                print(f"converted -> {md_path}")
    return EXIT_OK


# --- argument parsing -----------------------------------------------------------

def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file (flags override it)")
    for setting in fields(RunConfig):
        parser.add_argument(f"--{setting.name.replace('_', '-')}", dest=f"cfg_{setting.name}",
                            type=_FIELD_TYPES[setting.type][1], default=None,
                            help=setting.metadata["help"])


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
    flags = {f.name: getattr(args, f"cfg_{f.name}", None) for f in fields(RunConfig)}
    config = replace(config, **{name: value for name, value in flags.items() if value is not None})
    config.validate()
    return config


def _positive_ints(text: str) -> list[int]:
    """A flag value like ``5,10,30``: comma-separated integers >= 1."""
    parts = text.split(",")
    if not all(re.fullmatch(r"[0-9]+", p.strip()) and int(p) >= 1 for p in parts):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers >= 1, got {text!r}")
    return [int(p) for p in parts]


def _positive_int(text: str) -> int:
    """A flag value that is an integer >= 1."""
    if not re.fullmatch(r"[0-9]+", text) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _non_empty(text: str) -> str:
    """A flag value that is not the empty string."""
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def _year_range(text: str) -> tuple[int, int]:
    """A flag value like ``2022-2024``: an inclusive range of years."""
    match = re.fullmatch(r"([0-9]{4})-([0-9]{4})", text)
    if not match or int(match[1]) > int(match[2]):
        raise argparse.ArgumentTypeError(
            f"expected YYYY-YYYY with the first year not after the second, got {text!r}")
    return int(match[1]), int(match[2])


def _bench_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pipeline", choices=PIPELINES, default="agent")
    parser.add_argument("--limit", type=int, default=0, help="run only the first N instances")
    parser.add_argument("--run-id", help="run directory name (default: timestamp)")
    parser.add_argument("--from-manifest", help="re-run a manifest's config; flags override it")


def _score_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--predictions", required=True)
    parser.add_argument("--gold", help="gold dataset (defaults to config dataset)")
    parser.add_argument("--out", help="output directory for score files")


def _ask_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--question", required=True, type=_non_empty)
    parser.add_argument("--report", required=True, help="report .md path")
    parser.add_argument("--pipeline", choices=PIPELINES, default="agent")


def _stats_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="write JSON here as well as stdout")


def _ablate_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sizes", type=_positive_ints,
                        help="comma-separated token sizes (default 256,512,800,1200)")
    parser.add_argument("--k-values", type=_positive_ints, default="5,10,30")
    parser.add_argument("--out", help="write JSON table here")


def _datagen_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mode", choices=("generate", "filter", "both"), default="both")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--raw", help="raw batch JSONL (filter mode)")
    parser.add_argument("--max-pairs", type=_positive_int, default=10)
    parser.add_argument("--sample-pages", type=_positive_int, default=40)


def _ingest_flags(parser: argparse.ArgumentParser) -> None:
    from .ingest import DEFAULT_USER_AGENT

    parser.add_argument("--issuer", required=True, help="ticker or CIK")
    parser.add_argument("--form", default="10-K")
    parser.add_argument("--years", type=_year_range, default="2022-2024",
                        help="inclusive range YYYY-YYYY, e.g. 2022-2024")
    parser.add_argument("--fetch", action="store_true")
    parser.add_argument("--convert", action="store_true", help="also convert HTML to .md pages")
    parser.add_argument("--dest", help="download directory")
    parser.add_argument("--user-agent", default=DEFAULT_USER_AGENT)


# name -> (the command, its help line, the function that adds its own flags)
_COMMANDS = {
    "bench": (cmd_bench, "run a dataset through a pipeline", _bench_flags),
    "score": (cmd_score, "score a predictions file against gold", _score_flags),
    "ask": (cmd_ask, "answer one question over one report", _ask_flags),
    "stats": (cmd_stats, "corpus and dataset statistics", _stats_flags),
    "ablate": (cmd_ablate, "chunk-granularity recall study", _ablate_flags),
    "datagen": (cmd_datagen, "generate and/or filter QA candidates", _datagen_flags),
    "ingest": (cmd_ingest, "list and fetch EDGAR filings", _ingest_flags),
}


def build_parser(command: Optional[str]) -> argparse.ArgumentParser:
    """The parser, with the flags of ``command`` only. Every subcommand is
    listed by name and help line, which is all that the top-level help and
    the usage error of an unknown or missing command show."""
    parser = argparse.ArgumentParser(
        prog="finreportqa",
        description="Numerical QA over long financial reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, add_flags) in _COMMANDS.items():
        subparser = sub.add_parser(name, help=help_line)
        if name == command:
            add_flags(subparser)
            _add_config_flags(subparser)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE

    try:
        return _COMMANDS[args.command][0](args, resolve_config(args))
    except FinReportQAError as exc:
        print(f"{exc.label} error: {exc}", file=sys.stderr)
        return exc.exit_code
    except FileNotFoundError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
