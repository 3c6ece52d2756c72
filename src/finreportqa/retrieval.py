"""Per-report retrieval: chunking, sparse (TF-IDF / BM25) and dense indices,
top-k search, page-level recall, and the chunk-granularity ablation.

All retrieval happens within one report; corpora are small enough that
exact scoring over every unit is the right tool. ``build_retriever`` is the
one way to set up a report for search: it cuts the report into units and
builds a ``Retriever``, which holds the units and a sparse or dense index
over them. Each index holds the units it indexes, once, in build order.

A sparse index numbers its units 0..n-1 by position. Each term maps to one
array of interleaved (unit position, term frequency) pairs in unit order. Its
cells are 16-bit (``array('H')``) when every position and every term
frequency the units can hold fits in 16 bits, as on any report of fewer than
65,536 units of fewer than 65,536 characters each, and 32-bit
(``array('i')``) otherwise. On a 300-page report of about 450 words a page,
that is about 1.8 MB (by tracemalloc), against 2.4 MB in 32-bit cells and
about 9.3 MB for postings of ``(unit_id, tf)`` tuples in lists. ``bench``
builds each report's retriever at that report's first question and frees it
after its last.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Collection, Optional, Sequence

from .corpus import Report, reports_by_id
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
    """Inverted index over ``units``, numbered 0..n-1 by position; a term's
    document frequency is half the length of its postings array."""
    scheme: str  # "tfidf" | "bm25"
    postings: dict[str, array]   # term -> [pos0, tf0, pos1, tf1, ...], all one typecode
    units: Sequence[RetrievalUnit]
    unit_lengths: list[int]      # term count per unit
    avg_unit_length: float
    bm25_params: tuple[float, float] = DEFAULT_BM25_PARAMS

    @property
    def n_units(self) -> int:
        return len(self.units)


def build_sparse_index(units: Sequence[RetrievalUnit], scheme: str = "bm25",
                       bm25_params: tuple[float, float] = DEFAULT_BM25_PARAMS) -> SparseIndex:
    if not units:
        raise EmptyCorpusError("cannot index zero units")
    if scheme not in ("tfidf", "bm25"):
        raise ValueError(f"unknown sparse scheme: {scheme!r}")
    # A text lowercases to at most twice its length ("İ" becomes "i̇"), and
    # its terms are at least one character apart, so a unit of n characters
    # holds at most n terms: n is the largest term frequency it can have.
    fits_16_bits = len(units) <= 0x10000 and max(len(unit.text) for unit in units) <= 0xFFFF
    typecode = "H" if fits_16_bits else "i"
    postings: dict[str, array] = {}
    unit_lengths: list[int] = []
    for position, unit in enumerate(units):
        terms = tokenize(unit.text)
        unit_lengths.append(len(terms))
        for term, tf in Counter(terms).items():
            posting = postings.get(term)
            if posting is None:
                postings[term] = array(typecode, (position, tf))
            else:
                posting.append(position)
                posting.append(tf)
    return SparseIndex(
        scheme=scheme,
        postings=postings,
        units=units,
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
    units = index.units
    hits = [
        ScoredHit(unit_id=units[position].unit_id, page_number=units[position].page_number,
                  score=score)
        for position, score in scores.items()
        if score > 0.0
    ]
    hits.sort(key=_hit_sort_key)
    return hits[:k]


# --- dense indexing ----------------------------------------------------------

@dataclass
class DenseIndex:
    dimension: int
    units: Sequence[RetrievalUnit]
    vectors: list[list[float]]  # unit-norm, in unit order


def _normalize(vector: Sequence[float]) -> list[float]:
    norm = math.sqrt(sum(x * x for x in vector))
    if norm == 0.0:
        return list(vector)
    return [x / norm for x in vector]


def embed_units(provider: EmbeddingProvider, units: Sequence[RetrievalUnit]) -> DenseIndex:
    if not units:
        raise EmptyCorpusError("cannot index zero units")
    vectors = provider.embed([unit.text for unit in units])
    for unit, vector in zip(units, vectors):
        if len(vector) != provider.dimension:
            raise DimensionMismatchError(
                f"unit {unit.unit_id}: got dimension {len(vector)}, expected {provider.dimension}")
    return DenseIndex(provider.dimension, units, [_normalize(vector) for vector in vectors])


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
            unit_id=unit.unit_id,
            page_number=unit.page_number,
            score=sum(q * v for q, v in zip(query_vector, vector)),
        )
        for unit, vector in zip(index.units, index.vectors)
    ]
    hits.sort(key=_hit_sort_key)
    return hits[:k]


# --- retriever ---------------------------------------------------------------

class Retriever:
    """A sparse or dense index over units, searched by query text.

    ``units`` maps each unit id to its unit, for reading a hit's text.
    """

    def __init__(self, units: Sequence[RetrievalUnit], scheme: str = "bm25", *,
                 provider: Optional[EmbeddingProvider] = None,
                 bm25_params: tuple[float, float] = DEFAULT_BM25_PARAMS):
        if scheme in ("tfidf", "bm25"):
            self.index = build_sparse_index(units, scheme, bm25_params)
        elif scheme == "dense":
            if provider is None:
                raise ValueError("dense retrieval needs an embedding provider")
            self.index = embed_units(provider, units)
        else:
            raise ValueError(f"unknown retrieval scheme: {scheme!r}")
        self.provider = provider
        self.units = {unit.unit_id: unit for unit in units}

    def search(self, query: str, k: int) -> list[ScoredHit]:
        if isinstance(self.index, DenseIndex):
            return dense_search(self.index, self.provider, query, k)
        return search(self.index, query, k)

    @property
    def n_units(self) -> int:
        return len(self.units)


def build_retriever(report: Report, scheme: str, *, granularity: str | int = "page",
                    provider: Optional[EmbeddingProvider] = None,
                    bm25_params: tuple[float, float] = DEFAULT_BM25_PARAMS) -> Retriever:
    """The report's retriever over its units at the given granularity."""
    return Retriever(rechunk(report, granularity), scheme,
                     provider=provider, bm25_params=bm25_params)


# --- evaluation ----------------------------------------------------------------

def recall_at_k(retrieved_pages: Sequence[int], gold_pages: Collection[int], k: int) -> float:
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
                  k_values: Sequence[int] = (5, 10, 30), scheme: str = "bm25",
                  bm25_params: tuple[float, float] = DEFAULT_BM25_PARAMS) -> list[dict]:
    """Macro-averaged page Recall@k per granularity ("page" plus each size).

    The query is each instance's question text; sub-page hits are mapped to
    their source page before recall. An instance whose report is not among
    ``reports`` is a DanglingReferenceError.
    """
    by_id = reports_by_id(reports, instances)
    rows: list[dict] = []
    max_k = max(k_values)
    for granularity in ["page", *sizes]:
        retrievers = {report_id: build_retriever(by_id[report_id], scheme, granularity=granularity,
                                                 bm25_params=bm25_params)
                      for report_id in dict.fromkeys(i.report_id for i in instances)}
        recalls: dict[int, list[float]] = {k: [] for k in k_values}
        for instance in instances:
            retriever = retrievers[instance.report_id]
            hits = retriever.search(instance.question, k=max(max_k, retriever.n_units))
            pages = [hit.page_number for hit in hits]
            for k in k_values:
                recalls[k].append(recall_at_k(pages, instance.page_numbers, k))
        row: dict = {"granularity": str(granularity)}
        for k in k_values:
            values = recalls[k]
            row[f"recall@{k}"] = sum(values) / len(values) if values else 0.0
        rows.append(row)
    return rows
