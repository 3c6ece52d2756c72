"""QA pipelines: the multi-round agent (expand -> retrieve -> solve ->
evaluate) and the single-shot baselines (no context, long context,
single-round / fixed-budget retrieval).

One agent run is strictly sequential; rounds accumulate retrieved units
under a hard chunk budget and stop on a completeness verdict, the round
limit, or budget exhaustion. Each solve call reads this round's new hits and,
of the units held from earlier rounds, those on pages an earlier solver reply
cited plus the ``_REOFFER`` best of the rest by this round's ranking. The
agent and the retrieval baselines take each hit's text from the retriever's
units, and their prompts from ``prompts``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence, Union

from . import prompts
from .corpus import Report, ReportPrefix, count_tokens  # noqa: F401  (re-exported)
from .errors import AnswerExtractionError
from .llm import ChatMessage, Completion, LLMClient, count_message_tokens, system, user
from .metrics import normalize_answer
from .retrieval import RetrievalUnit, Retriever, ScoredHit

_PAGE_REF_RE = re.compile(r"page_number\s*[:=]?\s*(\d+)")
_BRACES_RE = re.compile(r"\{\{(.*?)\}\}", re.DOTALL)

# Held units on no cited page that each later solve call is offered again
_REOFFER = 5


# The transcript records: a record's fields are its transcript keys, since
# ``rundir`` writes a transcript with ``json.dumps(..., default=vars)``.

@dataclass
class SolverOutput:
    raw_text: str
    answer: Optional[float]  # None: a {{0}} reply, or no answer extracted
    cited_pages: list[int]  # sorted
    extraction_failed: bool = False
    insufficient: bool = field(init=False)

    def __post_init__(self) -> None:
        self.insufficient = self.answer is None


@dataclass
class MissingComponent:
    name: str
    synonyms: tuple[str, ...] = ()


@dataclass
class EvaluatorVerdict:
    kind: str  # "Complete" | "Missing"
    missing_components: tuple[MissingComponent, ...] = ()

    @property
    def complete(self) -> bool:
        return self.kind == "Complete"


@dataclass
class RoundRecord:
    round: int
    expansion_input: str
    formula: str
    query: str
    new_unit_ids: tuple[str, ...]
    new_pages: tuple[int, ...]
    cumulative_pages: tuple[int, ...]
    solver_pages: tuple[int, ...]
    solver: SolverOutput
    verdict: EvaluatorVerdict


@dataclass
class Transcript:
    question_id: str
    question: str
    rounds: list[RoundRecord] = field(default_factory=list)
    final_answer: Optional[float] = None
    termination: str = ""  # "Complete" | "RoundLimit" | "Budget"
    token_usage: int = 0


def extract_answer(text: str) -> Optional[float]:
    """Parse the last {{...}} group as a number; literal 0 means insufficient
    information, which is None.

    Groups are tried from last to first; raises AnswerExtractionError when
    none parses.
    """
    groups = _BRACES_RE.findall(text)
    for content in reversed(groups):
        stripped = content.strip()
        if stripped == "0":
            return None
        normalized = normalize_answer(stripped)
        if normalized.is_numeric:
            return float(normalized.numeric_value)
    raise AnswerExtractionError(f"no parseable braces group in reply: {text[:80]!r}")


def parse_cited_pages(text: str) -> frozenset[int]:
    """The pages a reply cites; a number past int()'s digit limit is skipped,
    since no report has that page."""
    pages = set()
    for digits in _PAGE_REF_RE.findall(text):
        try:
            pages.add(int(digits))
        except ValueError:
            pass
    return frozenset(pages)


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

    missing = tuple(MissingComponent(name, tuple(syns)) for name, syns in components if name)
    return EvaluatorVerdict(kind="Missing",
                            missing_components=missing or (MissingComponent(trimmed),))


class AgentPipeline:
    """Drives the three agent roles over retrieval rounds, within the
    client's run settings ``max_rounds``, ``k_per_round`` and ``chunk_budget``.

    ``retriever`` may be a zero-argument function that returns the
    retriever, as ``bench`` and ``ask`` hand over one that waits for the
    report's set-up. ``run`` calls it once, only after round 1's expansion
    call has returned, since that call needs only the question: the index
    builds while the call is in flight, and the first search waits for
    whatever build time is left. A set-up error is raised there, after that
    one expansion call.
    """

    def __init__(self, client: LLMClient, retriever: Union[Retriever, Callable[[], Retriever]]):
        self.client = client
        self._retriever = retriever
        self._tokens_used = 0

    @property
    def retriever(self) -> Retriever:
        """The retriever; a function of one is called on first read."""
        if callable(self._retriever):
            self._retriever = self._retriever()
        return self._retriever

    # -- individual agent steps ------------------------------------------

    def expand(self, question: str,
               feedback: Sequence[MissingComponent] = ()) -> tuple[str, str]:
        """The expanded formula (possibly empty) and the user prompt that asked for it."""
        if not question:
            raise ValueError("question must be non-empty")
        if feedback:
            rendered_feedback = prompts.render_feedback(
                [(component.name, component.synonyms) for component in feedback])
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
                answer = None
                failed = True
        return SolverOutput(
            raw_text=reply,
            answer=answer,
            cited_pages=sorted(parse_cited_pages(reply)),
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
        config = self.client.config
        transcript = Transcript(question_id=question_id, question=question)

        held_units: list[str] = []  # in the order retrieved
        cited_pages: set[int] = set()
        context_pages_seen: set[int] = set()
        feedback: Sequence[MissingComponent] = ()

        for round_index in range(1, config.max_rounds + 1):
            formula, expansion_input = self.expand(question, feedback)
            query = build_round_query(question, formula, feedback)
            # read after the expansion call, which a retriever still being
            # built overlaps
            retriever = self.retriever
            units = retriever.units

            budget_left = config.chunk_budget - len(held_units)
            new_hits, ranked = retrieve_round(
                retriever, query, config.k_per_round, set(held_units), budget_left)
            solver_units = [units[unit_id] for unit_id in reread_units(
                held_units, ranked, cited_pages, units)]
            new_pages: list[int] = []
            for hit in new_hits:
                held_units.append(hit.unit_id)
                unit = units[hit.unit_id]
                if unit.page_number not in context_pages_seen:
                    context_pages_seen.add(unit.page_number)
                    new_pages.append(unit.page_number)
                # sub-page units of an already-held page still add text
                solver_units.append(unit)

            context = [(unit.page_number, unit.text) for unit in solver_units]
            solver_output = self.solve(
                question, formula, context if context else [(0, "(no pages retrieved)")])
            cited_pages.update(solver_output.cited_pages)
            verdict = self.evaluate(question, solver_output)

            transcript.rounds.append(RoundRecord(
                round=round_index,
                expansion_input=expansion_input,
                formula=formula,
                query=query,
                new_unit_ids=tuple(hit.unit_id for hit in new_hits),
                new_pages=tuple(new_pages),
                cumulative_pages=tuple(sorted(context_pages_seen)),
                solver_pages=tuple(sorted({page for page, _ in context})),
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
        # insufficiency answers the literal 0
        transcript.final_answer = 0.0 if last.answer is None else last.answer
        transcript.token_usage = self._tokens_used
        return transcript

    # -- helpers ----------------------------------------------------------

    def _complete(self, messages: Sequence[ChatMessage], bypass_cache: bool = False) -> Completion:
        reply = self.client.complete(messages, bypass_cache=bypass_cache)
        self._tokens_used += reply.prompt_tokens + reply.response_tokens
        return reply


def build_round_query(question: str, formula: str,
                      missing_components: Sequence[MissingComponent] = ()) -> str:
    """Question terms + formula terms + missing components and synonyms,
    deduplicated case-insensitively, order preserved."""
    parts: list[str] = []
    parts.extend(question.split())
    parts.extend(formula.split())
    for component in missing_components:
        parts.append(component.name)
        parts.extend(component.synonyms)
    seen: set[str] = set()
    kept: list[str] = []
    for part in parts:
        key = part.lower()
        if key not in seen:
            seen.add(key)
            kept.append(part)
    return " ".join(kept)


def retrieve_round(retriever: Retriever, query: str, k_per_round: int,
                   exclude: set[str], budget_left: int
                   ) -> tuple[list[ScoredHit], list[ScoredHit]]:
    """Next k_per_round hits by rank, skipping held units, within budget; and
    the ranked list they came from, which also ranks the held units."""
    if budget_left <= 0:
        return [], []
    hits = retriever.search(query, k=k_per_round + len(exclude))
    fresh = [hit for hit in hits if hit.unit_id not in exclude]
    return fresh[:min(k_per_round, budget_left)], hits


def reread_units(held_units: Sequence[str], ranked: Sequence[ScoredHit],
                 cited_pages: set[int], units: Mapping[str, RetrievalUnit]) -> list[str]:
    """The held units a solve call reads again, in held order: each one on a
    cited page, and the ``_REOFFER`` best of the rest by ``ranked``. Held
    units that ``ranked`` lacks rank after it, in held order."""
    page_of = {unit_id: units[unit_id].page_number for unit_id in held_units}
    rank = {hit.unit_id: position for position, hit in enumerate(ranked)}
    uncited = [unit_id for unit_id in held_units if page_of[unit_id] not in cited_pages]
    # sorted() is stable, so unranked units keep their held order
    reoffer = set(sorted(uncited, key=lambda unit_id: rank.get(unit_id, len(rank)))[:_REOFFER])
    return [unit_id for unit_id in held_units
            if page_of[unit_id] in cited_pages or unit_id in reoffer]


# --- baselines ---------------------------------------------------------------

@dataclass
class BaselineResult:
    answer: float
    insufficient: bool
    context_pages: tuple[int, ...]
    prompt_tokens: int


BASELINE_KINDS = ("no_context", "long_context", "single_round_rag", "fixed_budget_rag")

# Reserved room for the answer-format instructions around the report prefix.
_PROMPT_MARGIN_TOKENS = 16


def _extract(reply: str) -> Optional[float]:
    """The reply's answer; None for insufficiency or no answer."""
    try:
        return extract_answer(reply)
    except AnswerExtractionError:
        return None


def run_baseline(kind: str, question: str, client: LLMClient, *,
                 report: Union[Report, ReportPrefix,
                               Callable[[], Union[Report, ReportPrefix]], None] = None,
                 retriever: Union[Retriever, Callable[[], Retriever], None] = None
                 ) -> BaselineResult:
    """Run one of the non-agentic pipelines; answers extracted identically.

    long_context reads the report, or a prefix of it that holds the client's
    ``max_input_tokens``; the retrieval kinds read the retriever, to the
    client's ``baseline_k`` or ``fixed_budget_k`` hits. Either may be a
    zero-argument function that returns it, as ``bench`` and ``ask`` hand
    over ones that wait for the report's set-up: each is called first, so
    the question's wait for its set-up, and a set-up error, fall inside
    this call.
    """
    if kind not in BASELINE_KINDS:
        raise ValueError(f"unknown baseline kind: {kind!r}")
    if callable(report):
        report = report()
    if callable(retriever):
        retriever = retriever()

    prompt_tokens: Optional[int] = None  # None: the client counts the prompt
    if kind == "no_context":
        messages = [system(prompts.SOLVING_SYSTEM), user(f"Question: {question}")]
        context_pages: tuple[int, ...] = ()
    elif kind == "long_context":
        if report is None:
            raise ValueError("long_context needs a report")
        header = f"Question: {question}\n\nReport:\n"
        header_tokens = count_message_tokens([system(prompts.SOLVING_SYSTEM), user(header)])
        budget = client.config.max_input_tokens - header_tokens - _PROMPT_MARGIN_TOKENS
        prefix = report.prefix(max(0, budget))
        # each page is escaped once per report: a question escapes only its
        # header, and the request body is its one copy of the prefix
        messages = [system(prompts.SOLVING_SYSTEM), user(header, escaped_tail=prefix.escaped)]
        # the header ends in whitespace, so the prefix's tokens add up exactly
        prompt_tokens = header_tokens + prefix.tokens
        context_pages = prefix.page_numbers
    else:
        if retriever is None:
            raise ValueError(f"{kind} needs a retriever")
        config = client.config
        k = config.fixed_budget_k if kind == "fixed_budget_rag" else config.baseline_k
        hits = retriever.search(question, k=k)
        units = [retriever.units[hit.unit_id] for hit in hits]
        blocks = [(unit.page_number, unit.text) for unit in units]
        context_pages = tuple(dict.fromkeys(page for page, _ in blocks))
        content = (f"Question: {question}\n\nRetrieved report pages:\n"
                   f"{prompts.render_context(blocks)}")
        messages = [system(prompts.SOLVING_SYSTEM), user(content)]

    reply = client.complete(messages, prompt_tokens=prompt_tokens)
    answer = _extract(reply)
    return BaselineResult(
        answer=0.0 if answer is None else answer,
        insufficient=answer is None,
        context_pages=context_pages,
        prompt_tokens=reply.prompt_tokens,
    )
