"""QA pipelines: the multi-round agent (expand -> retrieve -> solve ->
evaluate) and the single-shot baselines (no context, long context,
single-round / fixed-budget retrieval).

One agent run is strictly sequential; rounds accumulate retrieved units
under a hard chunk budget and stop on a completeness verdict, the round
limit, or budget exhaustion. The agent and the retrieval baselines take each
hit's text from the retriever's units, and their prompts from ``prompts``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import prompts
from .corpus import Report, count_tokens  # noqa: F401  (re-exported)
from .errors import AnswerExtractionError
from .llm import ChatMessage, Completion, LLMClient, count_message_tokens, system, user
from .metrics import normalize_answer
from .retrieval import Retriever, ScoredHit, prepare_report

_PAGE_REF_RE = re.compile(r"page_number\s*[:=]?\s*(\d+)")
_BRACES_RE = re.compile(r"\{\{(.*?)\}\}", re.DOTALL)


class Insufficient:
    """Sentinel: the solver reported insufficient information."""

    _instance: Optional["Insufficient"] = None

    def __new__(cls) -> "Insufficient":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INSUFFICIENT"


INSUFFICIENT = Insufficient()


@dataclass
class AgentConfig:
    max_rounds: int = 5
    k_per_round: int = 15
    chunk_budget: int = 75

    def __post_init__(self) -> None:
        if self.max_rounds < 1 or self.k_per_round < 1 or self.chunk_budget < 1:
            raise ValueError("agent parameters must be positive")


@dataclass
class SolverOutput:
    raw_text: str
    answer: float | Insufficient
    cited_pages: frozenset[int]
    extraction_failed: bool = False

    def answer_value(self) -> float:
        """Numeric answer; insufficiency maps to the literal 0 convention."""
        return 0.0 if isinstance(self.answer, Insufficient) else self.answer

    def to_dict(self) -> dict:
        return {
            "raw_text": self.raw_text,
            "answer": None if isinstance(self.answer, Insufficient) else self.answer,
            "insufficient": isinstance(self.answer, Insufficient),
            "cited_pages": sorted(self.cited_pages),
            "extraction_failed": self.extraction_failed,
        }


@dataclass
class EvaluatorVerdict:
    kind: str  # "Complete" | "Missing"
    missing_components: tuple[tuple[str, tuple[str, ...]], ...] = ()

    @property
    def complete(self) -> bool:
        return self.kind == "Complete"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "missing_components": [
                {"name": name, "synonyms": list(synonyms)}
                for name, synonyms in self.missing_components
            ],
        }


@dataclass
class RoundRecord:
    round_index: int
    expansion_input: str
    formula: str
    query: str
    new_unit_ids: tuple[str, ...]
    new_pages: tuple[int, ...]
    cumulative_pages: tuple[int, ...]
    solver: SolverOutput
    verdict: EvaluatorVerdict

    def to_dict(self) -> dict:
        return {
            "round": self.round_index,
            "expansion_input": self.expansion_input,
            "formula": self.formula,
            "query": self.query,
            "new_unit_ids": list(self.new_unit_ids),
            "new_pages": list(self.new_pages),
            "cumulative_pages": list(self.cumulative_pages),
            "solver": self.solver.to_dict(),
            "verdict": self.verdict.to_dict(),
        }


@dataclass
class Transcript:
    question_id: str
    question: str
    rounds: list[RoundRecord] = field(default_factory=list)
    final_answer: Optional[float] = None
    termination: str = ""  # "Complete" | "RoundLimit" | "Budget"
    token_usage: int = 0
    partial: bool = False

    def to_dict(self) -> dict:
        return {
            "question_id": self.question_id,
            "question": self.question,
            "rounds": [r.to_dict() for r in self.rounds],
            "final_answer": self.final_answer,
            "termination": self.termination,
            "token_usage": self.token_usage,
            "partial": self.partial,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def extract_answer(text: str) -> float | Insufficient:
    """Parse the last {{...}} group as a number; literal 0 means insufficient.

    Groups are tried from last to first; raises AnswerExtractionError when
    none parses.
    """
    groups = _BRACES_RE.findall(text)
    for content in reversed(groups):
        stripped = content.strip()
        if stripped == "0":
            return INSUFFICIENT
        normalized = normalize_answer(stripped)
        if normalized.is_numeric:
            return float(normalized.numeric_value)
    raise AnswerExtractionError(f"no parseable braces group in reply: {text[:80]!r}")


def parse_cited_pages(text: str) -> frozenset[int]:
    return frozenset(int(m) for m in _PAGE_REF_RE.findall(text))


def _strip_outer_quotes(text: str) -> str:
    text = text.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1].strip()
    return text


def _split_top_level(text: str) -> list[str]:
    """Split on commas outside parentheses."""
    items: list[str] = []
    depth = 0
    current: list[str] = []
    for char in text:
        if char == "(":
            depth += 1
            current.append(char)
        elif char == ")":
            depth = max(0, depth - 1)
            current.append(char)
        elif char == "," and depth == 0:
            items.append("".join(current))
            current = []
        else:
            current.append(char)
    items.append("".join(current))
    return [item.strip() for item in items if item.strip()]


def parse_verdict(reply: str) -> EvaluatorVerdict:
    """NONE means complete; otherwise a component list with synonyms.

    Synonyms attach via "name: syn, syn" (subsequent plain items extend the
    open component) or "name (syn, syn)". Anything unparseable becomes a
    single raw Missing component so the loop keeps searching.
    """
    trimmed = reply.strip()
    if trimmed.upper().rstrip(".") == "NONE":
        return EvaluatorVerdict(kind="Complete")

    components: list[tuple[str, list[str]]] = []
    colon_open = False
    for item in _split_top_level(trimmed):
        paren = re.fullmatch(r"(.+?)\s*\(([^()]*)\)", item)
        if ":" in item:
            name, _, first_synonym = item.partition(":")
            synonyms = [_strip_outer_quotes(first_synonym)] if first_synonym.strip() else []
            components.append((_strip_outer_quotes(name), synonyms))
            colon_open = True
        elif paren:
            synonyms = [_strip_outer_quotes(s) for s in paren.group(2).split(",") if s.strip()]
            components.append((_strip_outer_quotes(paren.group(1)), synonyms))
            colon_open = False
        elif colon_open:
            components[-1][1].append(_strip_outer_quotes(item))
        else:
            components.append((_strip_outer_quotes(item), []))

    components = [(name, syns) for name, syns in components if name]
    if not components:
        components = [(trimmed, [])]
    return EvaluatorVerdict(
        kind="Missing",
        missing_components=tuple((name, tuple(syns)) for name, syns in components),
    )


class AgentPipeline:
    """Drives the three agent roles over retrieval rounds."""

    def __init__(self, client: LLMClient, retriever: Retriever,
                 config: Optional[AgentConfig] = None):
        self.client = client
        self.retriever = retriever
        self.config = config or AgentConfig()
        self._tokens_used = 0

    @classmethod
    def from_report(cls, client: LLMClient, report: Report,
                    config: Optional[AgentConfig] = None) -> "AgentPipeline":
        """An agent over the report's page-level BM25 retriever."""
        return cls(client, prepare_report(report, "bm25"), config)

    # -- individual agent steps ------------------------------------------

    def expand(self, question: str,
               feedback: Optional[Sequence[tuple[str, Sequence[str]]]] = None
               ) -> tuple[str, str]:
        """The expanded formula (possibly empty) and the user prompt that asked for it."""
        if not question:
            raise ValueError("question must be non-empty")
        if feedback:
            rendered_feedback = prompts.render_feedback(
                [(name, list(syns)) for name, syns in feedback])
            content = prompts.EXPANSION_FEEDBACK_USER.format(
                question=question, feedback=rendered_feedback)
        else:
            content = prompts.EXPANSION_USER.format(question=question)
        messages = [system(prompts.EXPANSION_SYSTEM), user(content)]
        reply = self._complete(messages)
        return reply.strip(), content

    def solve(self, question: str, formula: str, context_pages: list[tuple[int, str]]) -> SolverOutput:
        if not context_pages:
            raise ValueError("solver needs a non-empty context")
        content = prompts.SOLVING_USER.format(
            question=question,
            formula=formula,
            context=prompts.render_context(context_pages),
        )
        messages = [system(prompts.SOLVING_SYSTEM), user(content)]
        reply = self._complete(messages)
        try:
            answer = extract_answer(reply)
            failed = False
        except AnswerExtractionError:
            # one retry before falling back to the insufficiency convention
            reply = self._complete(messages, bypass_cache=True)
            try:
                answer = extract_answer(reply)
                failed = False
            except AnswerExtractionError:
                answer = INSUFFICIENT
                failed = True
        return SolverOutput(
            raw_text=reply,
            answer=answer,
            cited_pages=parse_cited_pages(reply),
            extraction_failed=failed,
        )

    def evaluate(self, question: str, solver_output: SolverOutput) -> EvaluatorVerdict:
        content = prompts.EVALUATION_USER.format(
            question=question, answer=solver_output.raw_text)
        messages = [system(prompts.EVALUATION_SYSTEM), user(content)]
        reply = self._complete(messages)
        return parse_verdict(reply)

    # -- the round loop ----------------------------------------------------

    def run(self, question: str, question_id: str = "") -> Transcript:
        config = self.config
        units = self.retriever.units
        transcript = Transcript(question_id=question_id, question=question)

        held_units: set[str] = set()
        context: list[tuple[int, str]] = []
        context_pages_seen: set[int] = set()
        feedback: Optional[Sequence[tuple[str, Sequence[str]]]] = None

        for round_index in range(1, config.max_rounds + 1):
            formula, expansion_input = self.expand(question, feedback)
            query = build_round_query(question, formula, list(feedback or ()))

            budget_left = config.chunk_budget - len(held_units)
            new_hits = retrieve_round(
                self.retriever, query, config.k_per_round, held_units, budget_left)
            new_pages: list[int] = []
            for hit in new_hits:
                held_units.add(hit.unit_id)
                unit = units[hit.unit_id]
                if unit.page_number not in context_pages_seen:
                    context_pages_seen.add(unit.page_number)
                    new_pages.append(unit.page_number)
                # sub-page units of an already-held page still add text
                context.append((unit.page_number, unit.text))

            solver_output = self.solve(
                question, formula, context if context else [(0, "(no pages retrieved)")])
            verdict = self.evaluate(question, solver_output)

            transcript.rounds.append(RoundRecord(
                round_index=round_index,
                expansion_input=expansion_input,
                formula=formula,
                query=query,
                new_unit_ids=tuple(hit.unit_id for hit in new_hits),
                new_pages=tuple(new_pages),
                cumulative_pages=tuple(sorted(context_pages_seen)),
                solver=solver_output,
                verdict=verdict,
            ))

            if verdict.complete:
                transcript.termination = "Complete"
                break
            if round_index < config.max_rounds and len(held_units) >= config.chunk_budget:
                transcript.termination = "Budget"
                break
            feedback = verdict.missing_components
        else:
            transcript.termination = "RoundLimit"

        last = transcript.rounds[-1].solver
        transcript.final_answer = last.answer_value()
        transcript.token_usage = self._tokens_used
        return transcript

    # -- helpers ----------------------------------------------------------

    def _complete(self, messages: Sequence[ChatMessage], bypass_cache: bool = False) -> Completion:
        reply = self.client.complete(messages, bypass_cache=bypass_cache)
        self._tokens_used += reply.prompt_tokens + reply.response_tokens
        return reply


def build_round_query(question: str, formula: str,
                      missing_components: Sequence[tuple[str, Sequence[str]]] = ()) -> str:
    """Question terms + formula terms + missing components and synonyms,
    deduplicated case-insensitively, order preserved."""
    parts: list[str] = []
    parts.extend(question.split())
    parts.extend(formula.split())
    for name, synonyms in missing_components:
        parts.append(name)
        parts.extend(synonyms)
    seen: set[str] = set()
    kept: list[str] = []
    for part in parts:
        key = part.lower()
        if key not in seen:
            seen.add(key)
            kept.append(part)
    return " ".join(kept)


def retrieve_round(retriever: Retriever, query: str, k_per_round: int,
                   exclude: set[str], budget_left: int) -> list[ScoredHit]:
    """Next k_per_round hits by rank, skipping held units, within budget."""
    if budget_left <= 0:
        return []
    hits = retriever.search(query, k=k_per_round + len(exclude))
    fresh = [hit for hit in hits if hit.unit_id not in exclude]
    return fresh[:min(k_per_round, budget_left)]


# --- baselines ---------------------------------------------------------------

@dataclass
class BaselineResult:
    answer: float
    insufficient: bool
    context_pages: tuple[int, ...]
    prompt_tokens: int


BASELINE_KINDS = ("no_context", "long_context", "single_round_rag", "fixed_budget_rag")

DEFAULT_RAG_K = 30
FIXED_BUDGET_K = 75

# Reserved room for the answer-format instructions around the report prefix.
_PROMPT_MARGIN_TOKENS = 16


def _extract(reply: str) -> tuple[float, bool]:
    try:
        answer = extract_answer(reply)
    except AnswerExtractionError:
        return 0.0, True
    if isinstance(answer, Insufficient):
        return 0.0, True
    return answer, False


def run_baseline(kind: str, question: str, client: LLMClient, *,
                 report: Optional[Report] = None,
                 retriever: Optional[Retriever] = None,
                 k: Optional[int] = None) -> BaselineResult:
    """Run one of the non-agentic pipelines; answers extracted identically.

    long_context reads the report; the retrieval kinds read the retriever.
    """
    if kind not in BASELINE_KINDS:
        raise ValueError(f"unknown baseline kind: {kind!r}")

    if kind == "no_context":
        messages = [system(prompts.SOLVING_SYSTEM), user(f"Question: {question}")]
        context_pages: tuple[int, ...] = ()
    elif kind == "long_context":
        if report is None:
            raise ValueError("long_context needs a report")
        base_messages = [system(prompts.SOLVING_SYSTEM), user(f"Question: {question}\n\nReport:\n")]
        overhead = count_message_tokens(base_messages) + _PROMPT_MARGIN_TOKENS
        budget = client.config.max_input_tokens - overhead
        prefix = report.prefix(max(0, budget))
        messages = [system(prompts.SOLVING_SYSTEM),
                    user(f"Question: {question}\n\nReport:\n{prefix}")]
        context_pages = tuple(page.page_number for page in report.pages)
    else:
        if retriever is None:
            raise ValueError(f"{kind} needs a retriever")
        top_k = k if k is not None else (FIXED_BUDGET_K if kind == "fixed_budget_rag" else DEFAULT_RAG_K)
        hits = retriever.search(question, k=top_k)
        units = [retriever.units[hit.unit_id] for hit in hits]
        blocks = [(unit.page_number, unit.text) for unit in units]
        context_pages = tuple(dict.fromkeys(page for page, _ in blocks))
        content = (f"Question: {question}\n\nRetrieved report pages:\n"
                   f"{prompts.render_context(blocks)}")
        messages = [system(prompts.SOLVING_SYSTEM), user(content)]

    reply = client.complete(messages)
    answer, insufficient = _extract(reply)
    return BaselineResult(
        answer=answer,
        insufficient=insufficient,
        context_pages=context_pages,
        prompt_tokens=reply.prompt_tokens,
    )
