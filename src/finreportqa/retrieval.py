"""Per-report retrieval: chunking, sparse (TF-IDF / BM25) and dense indices,
top-k search, page-level recall, and the chunk-granularity ablation.

All retrieval happens within one report; corpora are small enough that
exact scoring over every unit is the right tool. Each retriever holds the
units it indexes.

A sparse index numbers its units 0..n-1 in build order. Each term maps to
one ``array('i')`` of interleaved (unit position, term frequency) pairs in
unit order; unit ids, pages and lengths are lists indexed by position. On a
300-page report of about 450 words a page, that is about 2.4 MB (by
tracemalloc), where postings of ``(unit_id, tf)`` tuples in lists took about
9.3 MB. ``bench`` builds every report's retriever before it answers and frees
each one after that report's last question.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .corpus import Report
from .embeddings import EmbeddingProvider
from .errors import (
    DimensionMismatchError,
    EmptyCorpusError,
    EmptyGoldError,
    EmptyQueryError,
)

# Keeps the bytes of [a-z0-9] and maps every other byte to a space.
_TERM_BYTES = bytes(
    c if chr(c) in "abcdefghijklmnopqrstuvwxyz0123456789" else 0x20 for c in range(256))

DEFAULT_BM25_PARAMS = (1.2, 0.75)

ABLATION_CHUNK_SIZES = (256, 512, 800, 1200)


def tokenize(text: str) -> list[str]:
    """Maximal runs of [a-z0-9] in the lowercased text.

    Each non-ASCII character encodes to "?", which separates terms as any
    other character outside [a-z0-9] does.
    """
    return text.lower().encode("ascii", "replace").translate(_TERM_BYTES).decode("ascii").split()


@dataclass(frozen=True)
class RetrievalUnit:
    unit_id: str
    page_number: int
    text: str


@dataclass(frozen=True)
class ScoredHit:
    unit_id: str
    page_number: int
    score: float


def _hit_sort_key(hit: ScoredHit):
    return (-hit.score, hit.page_number, hit.unit_id)


def rechunk(report: Report, granularity: str | int = "page") -> list[RetrievalUnit]:
    """Build retrieval units at page granularity or a token size within pages.

    Sized granularity greedily packs whole whitespace tokens up to the size;
    the last unit of each page may be short. Units never straddle pages.
    """
    if granularity == "page":
        return [
            RetrievalUnit(
                unit_id=f"p{page.page_number}",
                page_number=page.page_number,
                text=page.text,
            )
            for page in report.pages
        ]
    size = int(granularity)
    if size <= 0:
        raise ValueError("chunk size must be positive")
    units: list[RetrievalUnit] = []
    for page in report.pages:
        words = page.text.split()
        if not words:
            continue
        for index, start in enumerate(range(0, len(words), size)):
            units.append(RetrievalUnit(
                unit_id=f"p{page.page_number}.{index}",
                page_number=page.page_number,
                text=" ".join(words[start:start + size]),
            ))
    return units


# --- sparse indexing ---------------------------------------------------------

@dataclass
class SparseIndex:
    """Inverted index over units numbered 0..n-1 in build order; a term's
    document frequency is half the length of its postings array."""
    scheme: str  # "tfidf" | "bm25"
    postings: dict[str, array]   # term -> [pos0, tf0, pos1, tf1, ...]
    unit_ids: list[str]
    unit_pages: list[int]
    unit_lengths: list[int]      # term count per unit
    avg_unit_length: float
    bm25_params: tuple[float, float] = DEFAULT_BM25_PARAMS

    @property
    def n_units(self) -> int:
        return len(self.unit_ids)


def build_sparse_index(units: Sequence[RetrievalUnit], scheme: str = "bm25",
                       bm25_params: tuple[float, float] = DEFAULT_BM25_PARAMS) -> SparseIndex:
    if not units:
        raise EmptyCorpusError("cannot index zero units")
    if scheme not in ("tfidf", "bm25"):
        raise ValueError(f"unknown sparse scheme: {scheme!r}")
    postings: dict[str, array] = {}
    unit_lengths: list[int] = []
    for position, unit in enumerate(units):
        terms = tokenize(unit.text)
        unit_lengths.append(len(terms))
        for term, tf in Counter(terms).items():
            posting = postings.get(term)
            if posting is None:
                postings[term] = array("i", (position, tf))
            else:
                posting.append(position)
                posting.append(tf)
    return SparseIndex(
        scheme=scheme,
        postings=postings,
        unit_ids=[unit.unit_id for unit in units],
        unit_pages=[unit.page_number for unit in units],
        unit_lengths=unit_lengths,
        avg_unit_length=sum(unit_lengths) / len(unit_lengths),
        bm25_params=bm25_params,
    )


def _sparse_scores(index: SparseIndex, query_terms: Sequence[str]) -> dict[int, float]:
    """Score per unit position, summed over query terms in query order."""
    scores: dict[int, float] = {}
    n = index.n_units
    if index.scheme == "tfidf":
        for term in query_terms:
            posting = index.postings.get(term)
            if posting is None:
                continue
            idf = math.log(n / (len(posting) >> 1))
            pairs = iter(posting)
            for position, tf in zip(pairs, pairs):
                scores[position] = scores.get(position, 0.0) + tf * idf
        return scores
    k1, b = index.bm25_params
    avgdl = index.avg_unit_length
    unit_lengths = index.unit_lengths
    for term in query_terms:
        posting = index.postings.get(term)
        if posting is None:
            continue
        df = len(posting) >> 1
        idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
        pairs = iter(posting)
        for position, tf in zip(pairs, pairs):
            dl = unit_lengths[position]
            denom = tf + k1 * (1 - b + b * dl / avgdl) if avgdl > 0 else tf + k1
            scores[position] = scores.get(position, 0.0) + idf * tf * (k1 + 1) / denom
    return scores


def search(index: SparseIndex, query_text: str, k: int) -> list[ScoredHit]:
    """Top-k units with nonzero score, ordered by score then page then id."""
    if k < 1:
        raise ValueError("k must be >= 1")
    query_terms = tokenize(query_text)
    if not query_terms:
        raise EmptyQueryError("query tokenized to nothing")
    scores = _sparse_scores(index, query_terms)
    unit_ids, unit_pages = index.unit_ids, index.unit_pages
    hits = [
        ScoredHit(unit_id=unit_ids[position], page_number=unit_pages[position], score=score)
        for position, score in scores.items()
        if score > 0.0
    ]
    hits.sort(key=_hit_sort_key)
    return hits[:k]


# --- dense indexing ----------------------------------------------------------

@dataclass
class DenseIndex:
    dimension: int
    vectors: dict[str, list[float]] = field(default_factory=dict)  # unit-norm
    unit_pages: dict[str, int] = field(default_factory=dict)


def _normalize(vector: Sequence[float]) -> list[float]:
    norm = math.sqrt(sum(x * x for x in vector))
    if norm == 0.0:
        return list(vector)
    return [x / norm for x in vector]


def embed_units(provider: EmbeddingProvider, units: Sequence[RetrievalUnit]) -> DenseIndex:
    if not units:
        raise EmptyCorpusError("cannot index zero units")
    vectors = provider.embed([unit.text for unit in units])
    index = DenseIndex(dimension=provider.dimension)
    for unit, vector in zip(units, vectors):
        if len(vector) != provider.dimension:
            raise DimensionMismatchError(
                f"unit {unit.unit_id}: got dimension {len(vector)}, expected {provider.dimension}")
        index.vectors[unit.unit_id] = _normalize(vector)
        index.unit_pages[unit.unit_id] = unit.page_number
    return index


def dense_search(index: DenseIndex, provider: EmbeddingProvider, query: str, k: int) -> list[ScoredHit]:
    """Top-k by inner product against the normalized query vector."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not query.strip():
        raise EmptyQueryError("query is empty")
    query_vector = _normalize(provider.embed([query])[0])
    if len(query_vector) != index.dimension:
        raise DimensionMismatchError(
            f"query dimension {len(query_vector)} != index dimension {index.dimension}")
    hits = [
        ScoredHit(
            unit_id=uid,
            page_number=index.unit_pages[uid],
            score=sum(q * v for q, v in zip(query_vector, vector)),
        )
        for uid, vector in index.vectors.items()
    ]
    hits.sort(key=_hit_sort_key)
    return hits[:k]


# --- retriever facade --------------------------------------------------------

class Retriever:
    """Uniform search interface over a sparse or dense index and its units."""

    def __init__(self, units: Sequence[RetrievalUnit]):
        self.units = {unit.unit_id: unit for unit in units}

    def search(self, query: str, k: int) -> list[ScoredHit]:
        raise NotImplementedError

    @property
    def n_units(self) -> int:
        return len(self.units)


class SparseRetriever(Retriever):
    def __init__(self, index: SparseIndex, units: Sequence[RetrievalUnit]):
        super().__init__(units)
        self.index = index

    def search(self, query: str, k: int) -> list[ScoredHit]:
        return search(self.index, query, k)


class DenseRetriever(Retriever):
    def __init__(self, index: DenseIndex, provider: EmbeddingProvider,
                 units: Sequence[RetrievalUnit]):
        super().__init__(units)
        self.index = index
        self.provider = provider

    def search(self, query: str, k: int) -> list[ScoredHit]:
        return dense_search(self.index, self.provider, query, k)


def build_retriever(units: Sequence[RetrievalUnit], scheme: str, *,
                    provider: Optional[EmbeddingProvider] = None,
                    bm25_params: tuple[float, float] = DEFAULT_BM25_PARAMS) -> Retriever:
    if scheme in ("tfidf", "bm25"):
        return SparseRetriever(build_sparse_index(units, scheme, bm25_params), units)
    if scheme == "dense":
        if provider is None:
            raise ValueError("dense retrieval needs an embedding provider")
        return DenseRetriever(embed_units(provider, units), provider, units)
    raise ValueError(f"unknown retrieval scheme: {scheme!r}")


def prepare_report(report: Report, scheme: str, *, granularity: str | int = "page",
                   provider: Optional[EmbeddingProvider] = None,
                   bm25_params: tuple[float, float] = DEFAULT_BM25_PARAMS) -> Retriever:
    """The report's retriever over its units at the given granularity."""
    return build_retriever(rechunk(report, granularity), scheme,
                           provider=provider, bm25_params=bm25_params)


# --- evaluation ----------------------------------------------------------------

def pages_from_hits(hits: Iterable[ScoredHit]) -> list[int]:
    """Hit pages in rank order, first occurrence only."""
    seen: set[int] = set()
    pages: list[int] = []
    for hit in hits:
        if hit.page_number not in seen:
            seen.add(hit.page_number)
            pages.append(hit.page_number)
    return pages


def recall_at_k(retrieved_pages: Sequence[int], gold_pages: set[int] | frozenset[int], k: int) -> float:
    """Fraction of gold pages among the first k distinct retrieved pages."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not gold_pages:
        raise EmptyGoldError("gold page set is empty")
    seen: set[int] = set()
    distinct: list[int] = []
    for page in retrieved_pages:
        if page not in seen:
            seen.add(page)
            distinct.append(page)
        if len(distinct) == k:
            break
    return len(set(distinct) & set(gold_pages)) / len(gold_pages)


def ablate_chunks(reports: Sequence[Report], instances: Sequence, sizes: Sequence[int] = ABLATION_CHUNK_SIZES,
                  k_values: Sequence[int] = (5, 10, 30), scheme: str = "bm25") -> list[dict]:
    """Macro-averaged page Recall@k per granularity ("page" plus each size).

    The query is each instance's question text; sub-page hits are mapped to
    their source page before recall.
    """
    by_id = {report.report_id: report for report in reports}
    rows: list[dict] = []
    max_k = max(k_values)
    for granularity in ["page", *sizes]:
        indices: dict[str, SparseIndex] = {}
        recalls: dict[int, list[float]] = {k: [] for k in k_values}
        for instance in instances:
            report = by_id[instance.report_id]
            if report.report_id not in indices:
                indices[report.report_id] = build_sparse_index(
                    rechunk(report, granularity), scheme)
            index = indices[report.report_id]
            hits = search(index, instance.question, k=max(max_k, index.n_units))
            pages = pages_from_hits(hits)
            for k in k_values:
                recalls[k].append(recall_at_k(pages, instance.evidence_pages, k))
        row: dict = {"granularity": str(granularity)}
        for k in k_values:
            values = recalls[k]
            row[f"recall@{k}"] = sum(values) / len(values) if values else 0.0
        rows.append(row)
    return rows
