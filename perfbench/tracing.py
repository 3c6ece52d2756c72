"""In-memory spans around the package's public functions, from outside.

``install`` replaces each target function at every ``finreportqa`` module
attribute that holds it (``count_tokens`` is bound by name in ``corpus``,
``llm``, ``pipelines`` and ``ingest``), and each target method on its class.
Spans keep name, start, end, parent, question id and thread; ``derive``
turns them into the per-layer metrics.

With ``full=False`` only the question-level calls (``AgentPipeline.run`` and
``run_baseline``) are wrapped: that is what the untraced run needs for
latency, set-up and CPU figures.
"""

from __future__ import annotations

import importlib
import itertools
import resource
import sys
import threading
import time
from collections import defaultdict

QUESTION_SPANS = ("pipelines.run", "pipelines.run_baseline")

# (module, attribute, span name, attrs(args, kwargs, result) -> dict or None)
FUNCTIONS = [
    ("finreportqa.pipelines", "run_baseline", "pipelines.run_baseline", None),
    ("finreportqa.corpus", "load_report", "corpus.load_report", None),
    ("finreportqa.corpus", "count_tokens", "corpus.count_tokens",
     lambda a, kw, r: {"chars": len(a[0])}),
    ("finreportqa.retrieval", "build_retriever", "retrieval.build_retriever", None),
    ("finreportqa.retrieval", "rechunk", "retrieval.rechunk", None),
    ("finreportqa.retrieval", "search", "retrieval.search",
     lambda a, kw, r: {"k": kw["k"] if "k" in kw else a[2]}),
    ("finreportqa.prompts", "render_context", "prompts.render_context",
     lambda a, kw, r: {"chars_out": len(r)}),
    ("finreportqa.llm", "count_message_tokens", "llm.count_message_tokens", None),
    ("finreportqa.llm", "cache_key", "llm.cache_key", None),
    ("finreportqa.pipelines", "retrieve_round", "pipelines.retrieve_round", None),
    ("finreportqa.metrics", "score_instance", "metrics.score_instance", None),
    ("finreportqa.metrics", "aggregate", "metrics.aggregate", None),
]

# (module, class, method, span name, attrs)
METHODS = [
    ("finreportqa.pipelines", "AgentPipeline", "run", "pipelines.run",
     lambda a, kw, r: {"rounds": len(r.rounds), "termination": r.termination}),
    ("finreportqa.pipelines", "AgentPipeline", "expand", "pipelines.expand", None),
    ("finreportqa.pipelines", "AgentPipeline", "solve", "pipelines.solve", None),
    ("finreportqa.pipelines", "AgentPipeline", "evaluate", "pipelines.evaluate", None),
    ("finreportqa.llm", "LLMClient", "complete", "llm.complete",
     lambda a, kw, r: {"bypass": bool(kw.get("bypass_cache", False))}),
    ("finreportqa.llm", "HttpBackend", "generate", "llm.backend", None),
    ("finreportqa.llm", "ResponseCache", "get", "llm.cache.get",
     lambda a, kw, r: {"hit": r is not None}),
    ("finreportqa.llm", "ResponseCache", "put", "llm.cache.put", None),
]


class Tracer:
    """Collects spans; one per wrapped call, appended when the call ends."""

    def __init__(self, question_ids: dict[str, str]):
        self.question_ids = question_ids  # question text -> id, for run_baseline
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.first_start: float | None = None
        self.cpu_at_first_start: float | None = None
        self.last_end: float = 0.0
        self.cpu_at_last_end: float = 0.0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, attrs=None):
        question_level = name in QUESTION_SPANS

        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            if question_level:
                self._local.qid = self._question_id(name, args, kwargs)
                self._question_started()
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if question_level:
                    self._question_ended(end)
            extra = attrs(args, kwargs, result) if attrs else None
            self.spans.append((span_id, name, start, end, parent,
                               getattr(self._local, "qid", ""), threading.get_ident(), extra))
            return result

        traced.__wrapped__ = fn
        return traced

    def _question_id(self, name, args, kwargs) -> str:
        if name == "pipelines.run":
            return kwargs.get("question_id") or (args[2] if len(args) > 2 else "")
        question = kwargs.get("question") or (args[1] if len(args) > 1 else "")
        return self.question_ids.get(question, "")

    def _question_started(self) -> None:
        with self._lock:
            if self.first_start is None:
                self.cpu_at_first_start = cpu_seconds()
                self.first_start = time.perf_counter()

    def _question_ended(self, end: float) -> None:
        cpu = cpu_seconds()
        with self._lock:
            if end >= self.last_end:
                self.last_end, self.cpu_at_last_end = end, cpu


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def install(tracer: Tracer, full: bool) -> None:
    """Wrap the targets; question-level ones only unless full."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "finreportqa" or n.startswith("finreportqa."))]
    for module_name, attr, name, attrs in FUNCTIONS:
        if not full and name not in QUESTION_SPANS:
            continue
        original = getattr(importlib.import_module(module_name), attr, None)
        if original is None:
            tracer.missing.append(name)
            continue
        wrapped = tracer.wrap(name, original, attrs)
        for module in modules:
            for key in [k for k, v in vars(module).items() if v is original]:
                setattr(module, key, wrapped)
    for module_name, class_name, method, name, attrs in METHODS:
        if not full and name not in QUESTION_SPANS:
            continue
        klass = getattr(importlib.import_module(module_name), class_name, None)
        original = getattr(klass, method, None) if klass is not None else None
        if original is None:
            tracer.missing.append(name)
            continue
        setattr(klass, method, tracer.wrap(name, original, attrs))


# --- derivation -------------------------------------------------------------

# per-layer metric -> unit, as derive() reports them
LAYER_UNITS = {
    "cli.setup_s": "s", "cli.answer_s": "s", "cli.finalize_s": "s",
    "corpus.load_report.s": "s",
    "corpus.count_tokens.calls": "count", "corpus.count_tokens.chars": "chars",
    "corpus.count_tokens.s": "s",
    "retrieval.build_retriever.s": "s",
    "retrieval.rechunk.calls": "count", "retrieval.rechunk.s": "s",
    "retrieval.search.calls": "count", "retrieval.search.s": "s",
    "retrieval.search.k_mean": "count",
    "prompts.render_context.calls": "count", "prompts.render_context.s": "s",
    "prompts.render_context.chars_out": "chars",
    "llm.complete.calls": "count", "llm.complete.bypass_calls": "count",
    "llm.complete.self_s": "s",
    "llm.count_message_tokens.calls": "count", "llm.count_message_tokens.s": "s",
    "llm.cache_key.s": "s",
    "llm.backend.calls": "count", "llm.backend.wait_s": "s",
    "llm.backend.in_flight_mean": "count", "llm.backend.overhead_ms_per_call": "ms",
    "llm.cache.get.calls": "count", "llm.cache.get.s": "s", "llm.cache.hit_ratio": "share",
    "llm.cache.put.calls": "count", "llm.cache.put.s": "s", "llm.cache.put_bytes": "bytes",
    "pipelines.rounds_per_question": "count",
    "pipelines.termination.Complete": "count", "pipelines.termination.RoundLimit": "count",
    "pipelines.termination.Budget": "count",
    "pipelines.expand.self_s": "s", "pipelines.solve.self_s": "s",
    "pipelines.evaluate.self_s": "s", "pipelines.retrieve_round.s": "s",
    "pipelines.run_baseline.self_s": "s",
    "metrics.score_instance.s": "s", "metrics.aggregate.s": "s",
}


def derive(spans: list[dict], *, main_start: float, main_end: float,
           delay_total_s: float, cache_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one bench invocation from its spans."""
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"]:
            child_time[span["parent"]] += span["end"] - span["start"]
    by_name: dict[str, list[dict]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def total(name: str) -> float:
        return sum(s["end"] - s["start"] for s in by_name[name])

    def self_total(name: str) -> float:
        return sum(s["end"] - s["start"] - child_time[s["id"]] for s in by_name[name])

    def attr_sum(name: str, key: str) -> float:
        return sum((s["attrs"] or {}).get(key, 0) for s in by_name[name])

    questions = [s for s in spans if s["name"] in QUESTION_SPANS]
    first = min((s["start"] for s in questions), default=main_start)
    last = max((s["end"] for s in questions), default=main_start)
    answer_s = max(last - first, 1e-9)
    agent_runs = by_name["pipelines.run"]
    backend_calls = len(by_name["llm.backend"])
    gets = by_name["llm.cache.get"]
    puts = len(by_name["llm.cache.put"])
    searches = by_name["retrieval.search"]

    metrics = {
        "questions": len(questions),
        "cli.setup_s": first - main_start,
        "cli.answer_s": last - first,
        "cli.finalize_s": main_end - last,
        "corpus.load_report.s": total("corpus.load_report"),
        "corpus.count_tokens.calls": len(by_name["corpus.count_tokens"]),
        "corpus.count_tokens.chars": attr_sum("corpus.count_tokens", "chars"),
        "corpus.count_tokens.s": total("corpus.count_tokens"),
        "retrieval.build_retriever.s": total("retrieval.build_retriever"),
        "retrieval.rechunk.calls": len(by_name["retrieval.rechunk"]),
        "retrieval.rechunk.s": total("retrieval.rechunk"),
        "retrieval.search.calls": len(searches),
        "retrieval.search.s": total("retrieval.search"),
        "retrieval.search.k_mean": (attr_sum("retrieval.search", "k") / len(searches)
                                    if searches else 0.0),
        "prompts.render_context.calls": len(by_name["prompts.render_context"]),
        "prompts.render_context.s": total("prompts.render_context"),
        "prompts.render_context.chars_out": attr_sum("prompts.render_context", "chars_out"),
        "llm.complete.calls": len(by_name["llm.complete"]),
        "llm.complete.bypass_calls": attr_sum("llm.complete", "bypass"),
        "llm.complete.self_s": self_total("llm.complete"),
        "llm.count_message_tokens.calls": len(by_name["llm.count_message_tokens"]),
        "llm.count_message_tokens.s": total("llm.count_message_tokens"),
        "llm.cache_key.s": total("llm.cache_key"),
        "llm.backend.calls": backend_calls,
        "llm.backend.wait_s": total("llm.backend"),
        "llm.backend.in_flight_mean": total("llm.backend") / answer_s,
        "llm.backend.overhead_ms_per_call": (
            1000.0 * (total("llm.backend") - delay_total_s) / backend_calls
            if backend_calls else 0.0),
        "llm.cache.get.calls": len(gets),
        "llm.cache.get.s": total("llm.cache.get"),
        "llm.cache.hit_ratio": attr_sum("llm.cache.get", "hit") / len(gets) if gets else 0.0,
        "llm.cache.put.calls": puts,
        "llm.cache.put.s": total("llm.cache.put"),
        "llm.cache.put_bytes": cache_bytes / puts if puts else 0.0,
        "pipelines.rounds_per_question": (attr_sum("pipelines.run", "rounds") / len(agent_runs)
                                          if agent_runs else 0.0),
        "pipelines.expand.self_s": self_total("pipelines.expand"),
        "pipelines.solve.self_s": self_total("pipelines.solve"),
        "pipelines.evaluate.self_s": self_total("pipelines.evaluate"),
        "pipelines.retrieve_round.s": total("pipelines.retrieve_round"),
        "pipelines.run_baseline.self_s": self_total("pipelines.run_baseline"),
        "metrics.score_instance.s": total("metrics.score_instance"),
        "metrics.aggregate.s": total("metrics.aggregate"),
    }
    for kind in ("Complete", "RoundLimit", "Budget"):
        metrics[f"pipelines.termination.{kind}"] = sum(
            1 for s in agent_runs if (s["attrs"] or {}).get("termination") == kind)
    return metrics
