import json
import math
import random
import re
import sys
import tracemalloc
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import pytest

from finreportqa.config import RunConfig
from finreportqa.corpus import count_tokens, parse_report
from finreportqa.embeddings import (
    CachedEmbeddingProvider,
    EmbeddingCache,
    EmbeddingProvider,
    HttpEmbeddingProvider,
)
from finreportqa.errors import (
    ConfigError,
    DimensionMismatchError,
    EmptyCorpusError,
    EmptyGoldError,
    EmptyQueryError,
    ProviderError,
)
from finreportqa.retrieval import (
    RetrievalUnit,
    Retriever,
    SparseIndex,
    ablate_chunks,
    build_retriever,
    build_sparse_index,
    dense_search,
    embed_units,
    rechunk,
    recall_at_k,
    search,
    tokenize,
)

from conftest import FakeRequest, HashProvider
from oracles import brute_force_ranking, brute_force_scores, random_corpus, random_query


SRC = Path(__file__).resolve().parents[1] / "src" / "finreportqa"

_UNIT_AND_INDEX_BUILDS = re.compile(r"\b(?:rechunk|build_sparse_index|embed_units)\(")


def test_only_the_retrieval_module_cuts_units_or_builds_indices():
    """Every other module sets a report up through build_retriever."""
    calling = {path.name for path in SRC.glob("*.py")
               if _UNIT_AND_INDEX_BUILDS.search(path.read_text(encoding="utf-8"))}
    assert calling == {"retrieval.py"}


def units_from_texts(texts, pages=None):
    pages = pages or list(range(1, len(texts) + 1))
    return [
        RetrievalUnit(unit_id=f"u{i:03d}", page_number=pages[i], text=text)
        for i, text in enumerate(texts)
    ]


class TestTokenize:
    def test_words_and_digits(self):
        assert tokenize("Net Sales, 2023") == ["net", "sales", "2023"]

    def test_empty(self):
        assert tokenize("") == []

    def test_symbols_split(self):
        assert tokenize("EBITDA/(Interest+Principal)") == ["ebitda", "interest", "principal"]


# --- reference implementations: the regex tokenizer and the sorted builder ---

_REFERENCE_TERM_RE = re.compile(r"[a-z0-9]+")


def reference_tokenize(text):
    return _REFERENCE_TERM_RE.findall(text.lower())


@dataclass
class DecodedIndex:
    """A sparse index keyed by unit id, with (unit_id, tf) postings."""
    vocabulary: dict  # term -> document frequency
    postings: dict    # term -> [(unit_id, tf)] in unit order
    unit_lengths: dict
    unit_pages: dict
    unit_texts: dict
    n_units: int


def reference_build_sparse_index(units):
    vocabulary, postings, unit_lengths, unit_pages, unit_texts = {}, {}, {}, {}, {}
    for unit in units:
        terms = reference_tokenize(unit.text)
        unit_lengths[unit.unit_id] = len(terms)
        unit_pages[unit.unit_id] = unit.page_number
        unit_texts[unit.unit_id] = unit.text
        for term, tf in sorted(Counter(terms).items()):
            vocabulary[term] = vocabulary.get(term, 0) + 1
            postings.setdefault(term, []).append((unit.unit_id, tf))
    return DecodedIndex(vocabulary, postings, unit_lengths, unit_pages, unit_texts, len(units))


def decode(index):
    """Read a SparseIndex back as unit ids and (unit_id, tf) postings."""
    ids = [unit.unit_id for unit in index.units]
    return DecodedIndex(
        vocabulary={term: len(p) // 2 for term, p in index.postings.items()},
        postings={term: [(ids[position], tf) for position, tf in zip(p[::2], p[1::2])]
                  for term, p in index.postings.items()},
        unit_lengths=dict(zip(ids, index.unit_lengths)),
        unit_pages={unit.unit_id: unit.page_number for unit in index.units},
        unit_texts={unit.unit_id: unit.text for unit in index.units},
        n_units=index.n_units,
    )


def encode(reference, scheme):
    """The SparseIndex that holds a DecodedIndex, so search() can run on it."""
    ids = list(reference.unit_lengths)
    position = {uid: i for i, uid in enumerate(ids)}
    lengths = list(reference.unit_lengths.values())
    return SparseIndex(
        scheme=scheme,
        postings={term: array("i", [x for uid, tf in posting for x in (position[uid], tf)])
                  for term, posting in reference.postings.items()},
        units=[RetrievalUnit(uid, reference.unit_pages[uid], reference.unit_texts[uid])
               for uid in ids],
        unit_lengths=lengths,
        avg_unit_length=sum(lengths) / len(lengths),
    )


# ASCII plus characters whose lowercase form or class is easy to get wrong:
# Kelvin sign (lowercases to ASCII "k"), dotted capital I (lowercases to two
# code points), sharp s, fullwidth A, superscript two, Arabic-Indic digits,
# NEL, a lone surrogate and an emoji.
_TRICKY_ALPHABET = ([chr(c) for c in range(128)]
                    + ["\u212a", "\u0130", "\u00df", "\uff21", "\u00b2",
                       "\u0660", "\u0669", "\x85", "\ud800", "\U0001f600"])


class TestTokenizeMatchesRegex:
    def test_every_code_point_between_letters(self):
        block = 4096
        for start in range(0, sys.maxunicode + 1, block):
            text = " ".join(f"a{chr(c)}B" for c in range(start, min(start + block,
                                                                      sys.maxunicode + 1)))
            assert tokenize(text) == reference_tokenize(text), hex(start)

    def test_seeded_random_strings(self):
        rng = random.Random(20240605)
        for _ in range(200_000):
            text = "".join(rng.choices(_TRICKY_ALPHABET, k=rng.randint(0, 12)))
            assert tokenize(text) == reference_tokenize(text), repr(text)


def _generated_report(seed=11, pages=300):
    """A seeded report with prose, numbers, punctuation, tables and non-ASCII."""
    rng = random.Random(seed)
    vocabulary = [f"w{i}" for i in range(3000)] + [
        "Revenue", "NET", "income", "2023", "Ümsatz", "café", "\u212aelvin", "x\u00b2"]
    punctuation = ["", "", "", ",", ".", "(", ")", "%", "$", "-", "/", "\u2014"]
    body = []
    for page in range(1, pages + 1):
        words = [rng.choice(vocabulary) + rng.choice(punctuation)
                 for _ in range(rng.randint(0, 400))]
        rows = "\n".join(f"| {rng.choice(vocabulary)} | {rng.randint(0, 10**6):,} |"
                         for _ in range(rng.randint(0, 4)))
        body.append(f"<!-- page: {page} -->\n{' '.join(words)}\n{rows}\n")
    return parse_report("".join(body), report_id="Seeded_2023")


class TestBuildMatchesReference:
    @pytest.fixture(scope="class")
    def report(self):
        return _generated_report()

    @pytest.mark.parametrize("granularity", ["page", 256])
    @pytest.mark.parametrize("scheme", ["tfidf", "bm25"])
    def test_index_and_hits_equal_reference(self, report, granularity, scheme):
        units = rechunk(report, granularity)
        index = build_sparse_index(units, scheme)
        expected = reference_build_sparse_index(units)
        decoded = decode(index)
        assert {posting.typecode for posting in index.postings.values()} == {"H"}
        assert decoded.vocabulary == expected.vocabulary
        assert set(index.postings) == set(expected.postings)
        for term, posting in expected.postings.items():
            assert decoded.postings[term] == posting, term  # unit order kept
        assert decoded.unit_lengths == expected.unit_lengths
        assert list(decoded.unit_lengths) == list(expected.unit_lengths)
        assert decoded.unit_pages == expected.unit_pages
        assert index.n_units == expected.n_units
        reference = encode(expected, scheme)
        assert index == reference
        rng = random.Random(7)
        queries = ["net revenue 2023", "café income", "\u212aelvin x2", "W17 w2999 w5",
                   *(" ".join(rng.choices(sorted(expected.vocabulary), k=rng.randint(1, 30)))
                     for _ in range(20))]
        for query in queries:
            assert search(index, query, k=50) == search(reference, query, k=50), query


class TestIndexFootprint:
    # the 887 kB this index takes in 16-bit cells, plus 10% (1.16 MB in 32-bit
    # cells; 4.60 MB as postings of (unit_id, tf) tuples in lists)
    BOUND_BYTES = 976_000

    def test_bm25_index_of_seeded_report_fits_bound(self):
        units = rechunk(_generated_report(), "page")
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            index = build_sparse_index(units, "bm25")
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert index.n_units == 300
        assert retained < self.BOUND_BYTES, retained


class TestPostingsCells:
    """Postings take 16-bit cells when every position and term frequency
    fits in them, and 32-bit cells otherwise; both score as the reference."""

    def _assert_matches_reference(self, units, query):
        expected = reference_build_sparse_index(units)
        for scheme in ("tfidf", "bm25"):
            index = build_sparse_index(units, scheme)
            assert decode(index) == expected
            reference = encode(expected, scheme)
            assert search(index, query, k=10) == search(reference, query, k=10)
        return {posting.typecode for posting in index.postings.values()}

    def test_a_term_frequency_past_16_bits_takes_32_bit_cells(self):
        units = units_from_texts(["x " * 70_000, "x y", "y z"])
        assert self._assert_matches_reference(units, "x y") == {"i"}

    def test_the_longest_16_bit_unit_of_a_lengthening_character(self):
        # "İ" lowercases to "i" and a combining dot: 65,535 terms "i"
        units = units_from_texts(["\u0130" * 0xFFFF, "i j"])
        assert self._assert_matches_reference(units, "i j") == {"H"}
        assert decode(build_sparse_index(units)).postings["i"][0] == ("u000", 0xFFFF)
        longer = units_from_texts(["\u0130" * 0x10000, "i j"])
        assert self._assert_matches_reference(longer, "i j") == {"i"}

    @pytest.mark.parametrize("n_units, typecode", [(0x10000, "H"), (0x10001, "i")])
    def test_positions_past_16_bits_take_32_bit_cells(self, n_units, typecode):
        units = [RetrievalUnit(f"u{i}", 1, "a") for i in range(n_units - 1)]
        units.append(RetrievalUnit("last", 1, "b"))
        index = build_sparse_index(units)
        assert {posting.typecode for posting in index.postings.values()} == {typecode}
        assert list(index.postings["b"]) == [n_units - 1, 1]
        assert [hit.unit_id for hit in search(index, "b", k=5)] == ["last"]

    def test_no_character_lowercases_to_more_than_two(self):
        """The bound on a unit's term frequency rests on this."""
        assert max(len(chr(c).lower()) for c in range(sys.maxunicode + 1)) == 2


class TestRechunk:
    def _report(self, page_tokens):
        body = []
        for page_number, count in enumerate(page_tokens, start=1):
            words = " ".join(f"tok{page_number}_{i}" for i in range(count))
            body.append(f"<!-- page: {page_number} -->\n{words}\n")
        return parse_report("".join(body))

    def test_page_granularity(self):
        report = self._report([5, 7])
        units = rechunk(report, "page")
        assert [u.page_number for u in units] == [1, 2]
        assert units[0].text == report.page(1).text

    def test_sized_packing(self):
        report = self._report([600])
        units = rechunk(report, 256)
        assert [count_tokens(u.text) for u in units] == [256, 256, 88]
        assert all(u.page_number == 1 for u in units)

    def test_small_page_single_unit(self):
        report = self._report([100])
        units = rechunk(report, 256)
        assert len(units) == 1
        assert count_tokens(units[0].text) == 100

    def test_units_never_straddle_pages(self):
        report = self._report([300, 300])
        units = rechunk(report, 256)
        for unit in units:
            prefix = f"tok{unit.page_number}_"
            assert all(word.startswith(prefix) for word in unit.text.split())

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            rechunk(self._report([5]), 0)


class TestBuildSparseIndex:
    def test_document_frequencies(self):
        index = build_sparse_index(units_from_texts(["a b", "b c"]), "tfidf")
        assert decode(index).vocabulary == {"a": 1, "b": 2, "c": 1}

    def test_single_unit_df_one(self):
        index = build_sparse_index(units_from_texts(["x y z x"]), "bm25")
        assert all(df == 1 for df in decode(index).vocabulary.values())

    def test_postings_match_exhaustive_counts(self):
        texts = ["net income net", "income tax", "net assets assets"]
        index = build_sparse_index(units_from_texts(texts), "bm25")
        expected = {}
        for i, text in enumerate(texts):
            for term in set(tokenize(text)):
                expected.setdefault(term, []).append((f"u{i:03d}", tokenize(text).count(term)))
        assert {t: sorted(p) for t, p in decode(index).postings.items()} == \
               {t: sorted(p) for t, p in expected.items()}

    def test_df_equals_distinct_posting_units(self):
        index = build_sparse_index(units_from_texts(["a b a", "b", "a c"]), "tfidf")
        decoded = decode(index)
        for term, posting in decoded.postings.items():
            assert decoded.vocabulary[term] == len({uid for uid, _ in posting})

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpusError):
            build_sparse_index([], "bm25")


class TestSearch:
    def test_full_text_query_ranks_unit_first(self):
        texts = ["alpha beta gamma", "delta epsilon", "alpha delta"]
        index = build_sparse_index(units_from_texts(texts), "tfidf")
        hits = search(index, "delta epsilon", k=3)
        assert hits[0].unit_id == "u001"

    def test_k_larger_than_corpus(self):
        index = build_sparse_index(units_from_texts(["a b", "a c"]), "bm25")
        hits = search(index, "a", k=50)
        assert len(hits) == 2

    def test_zero_score_units_dropped(self):
        index = build_sparse_index(units_from_texts(["a b", "c d"]), "bm25")
        hits = search(index, "a", k=10)
        assert [h.unit_id for h in hits] == ["u000"]

    def test_empty_query_rejected(self):
        index = build_sparse_index(units_from_texts(["a"]), "bm25")
        with pytest.raises(EmptyQueryError):
            search(index, "!!!", k=1)

    def test_bm25_five_unit_fixture_matches_oracle(self):
        texts = [
            "revenue grew while net income fell",
            "net net net income stable",
            "assets and liabilities by segment",
            "income from interest on assets",
            "interest expense net of hedges",
        ]
        unit_texts = {f"u{i:03d}": t for i, t in enumerate(texts)}
        unit_pages = {f"u{i:03d}": i + 1 for i in range(len(texts))}
        index = build_sparse_index(units_from_texts(texts), "bm25")
        hits = search(index, "net income interest", k=5)
        expected = brute_force_ranking(unit_texts, unit_pages, "net income interest",
                                       "bm25", k=5)
        assert [h.unit_id for h in hits] == [uid for uid, _ in expected]
        for hit, (_, score) in zip(hits, expected):
            assert hit.score == pytest.approx(score, abs=1e-9)

    @pytest.mark.parametrize("scheme", ["tfidf", "bm25"])
    def test_random_corpora_match_oracle(self, scheme):
        rng = random.Random(42 if scheme == "bm25" else 43)
        for _ in range(60):
            unit_texts = random_corpus(rng)
            unit_pages = {uid: i + 1 for i, uid in enumerate(unit_texts)}
            units = [
                RetrievalUnit(uid, unit_pages[uid], text)
                for uid, text in unit_texts.items()
            ]
            index = build_sparse_index(units, scheme)
            query = random_query(rng)
            oracle_scores = brute_force_scores(unit_texts, query, scheme)
            if not oracle_scores:
                continue
            hits = search(index, query, k=len(units))
            expected = brute_force_ranking(unit_texts, unit_pages, query, scheme,
                                           k=len(units))
            assert [h.unit_id for h in hits] == [uid for uid, _ in expected]
            for hit, (_, score) in zip(hits, expected):
                assert hit.score == pytest.approx(score, abs=1e-9)

    def test_prefix_stable_ranking(self):
        rng = random.Random(99)
        unit_texts = random_corpus(rng, max_units=30)
        units = [RetrievalUnit(uid, i + 1, text)
                 for i, (uid, text) in enumerate(unit_texts.items())]
        index = build_sparse_index(units, "bm25")
        query = "revenue net income"
        full = search(index, query, k=len(units))
        for j in range(1, len(full) + 1):
            assert search(index, query, k=j) == full[:j]

    def test_tie_break_by_page_then_unit(self):
        texts = ["same text", "same text", "same text"]
        units = units_from_texts(texts, pages=[7, 3, 3])
        index = build_sparse_index(units, "bm25")
        hits = search(index, "same", k=3)
        assert [(h.page_number, h.unit_id) for h in hits] == \
               [(3, "u001"), (3, "u002"), (7, "u000")]


class TestIndexSerialization:
    def test_build_is_deterministic(self):
        texts = ["net income", "total assets net", "interest expense"]
        first = build_sparse_index(units_from_texts(texts), "bm25")
        second = build_sparse_index(units_from_texts(texts), "bm25")
        assert first == second


class _BasisProvider(EmbeddingProvider):
    """Toy provider: text "unit i" -> basis vector e_i."""

    def __init__(self, dimension=4, query_axis=1):
        self.model = "basis-toy"
        self.dimension = dimension
        self.query_axis = query_axis
        self.calls = 0

    def embed(self, texts):
        self.calls += 1
        vectors = []
        for text in texts:
            axis = int(text.split()[-1]) if text.startswith("unit ") else self.query_axis
            vectors.append([1.0 if i == axis else 0.0 for i in range(self.dimension)])
        return vectors


class _OfflineProvider(EmbeddingProvider):
    model = "basis-toy"
    dimension = 4

    def embed(self, texts):
        raise ProviderError("provider offline")


def _http_provider(request):
    """An HTTP embedding provider of model "m" and dimension 2 over ``request``."""
    config = RunConfig(embedding_endpoint="http://x/embeddings", embedding_model="m",
                       embedding_dimension=2)
    return HttpEmbeddingProvider(config, request=request)


class TestDense:
    def _units(self, count=4):
        return [RetrievalUnit(f"u{i}", i + 1, f"unit {i}") for i in range(count)]

    def test_basis_vectors_rank_matching_unit_first(self):
        provider = _BasisProvider(query_axis=2)
        index = embed_units(provider, self._units())
        hits = dense_search(index, provider, "query", k=4)
        assert hits[0].unit_id == "u2"
        assert hits[0].score == pytest.approx(1.0)

    def test_all_equal_vectors_fall_back_to_tie_break(self):
        class Constant(EmbeddingProvider):
            model = "const"
            dimension = 3

            def embed(self, texts):
                return [[1.0, 1.0, 1.0] for _ in texts]

        provider = Constant()
        index = embed_units(provider, self._units(3))
        hits = dense_search(index, provider, "anything", k=3)
        assert [h.unit_id for h in hits] == ["u0", "u1", "u2"]

    def test_vectors_unit_normalized(self):
        class Scaled(EmbeddingProvider):
            model = "scaled"
            dimension = 2

            def embed(self, texts):
                return [[3.0, 4.0] for _ in texts]

        index = embed_units(Scaled(), self._units(2))
        for vector in index.vectors:
            norm = sum(x * x for x in vector) ** 0.5
            assert norm == pytest.approx(1.0, abs=1e-6)

    def test_cache_replay_without_provider(self, tmp_path):
        cache = EmbeddingCache(tmp_path / "emb")
        warm = CachedEmbeddingProvider(_BasisProvider(query_axis=2), cache)
        units = self._units()
        index = embed_units(warm, units)
        warm.embed(["the query"])  # warm the query vector too

        offline = CachedEmbeddingProvider(_OfflineProvider(), cache)
        hits = dense_search(index, offline, "the query", k=4)
        assert hits[0].unit_id == "u2"

    def test_cache_hit_skips_provider(self, tmp_path):
        cache = EmbeddingCache(tmp_path / "emb")
        inner = _BasisProvider()
        provider = CachedEmbeddingProvider(inner, cache)
        provider.embed(["unit 1"])
        calls_after_first = inner.calls
        provider.embed(["unit 1"])
        assert inner.calls == calls_after_first

    @pytest.mark.parametrize("damaged", [None, b"", b"[]", b'{"model": "m"}', b'{"vector": 3}',
                                         pytest.param(b"[" * 100_000, id="deeply-nested")])
    def test_unreadable_cache_entry_is_a_miss_and_rewritten(self, tmp_path, damaged):
        cache = EmbeddingCache(tmp_path / "emb")
        inner = _BasisProvider()
        provider = CachedEmbeddingProvider(inner, cache)
        first = provider.embed(["unit 1"])
        (entry,) = (tmp_path / "emb").rglob("*.json")
        intact = entry.read_bytes()
        entry.write_bytes(intact[:20] if damaged is None else damaged)
        assert cache.get(inner.model, "unit 1") is None
        assert provider.embed(["unit 1"]) == first
        assert inner.calls == 2
        assert entry.read_bytes() == intact

    @pytest.mark.parametrize("vector", [
        '["a", "b"]', '["a", "b", "c", "d"]', "[0.0, 1.0, 0.0]", "[0.0, 1.0, 0.0, 0.0, 0.0]",
        "[]", "[true, false, false, false]", "[null, 1.0, 0.0, 0.0]", "[[0.0], 1.0, 0.0, 0.0]",
        "[NaN, 1.0, 0.0, 0.0]", "[0.0, Infinity, 0.0, 0.0]", "[0.0, 1e400, 0.0, 0.0]",
        "[0, " + "9" * 400 + ", 0, 0]"])
    def test_malformed_cached_vector_is_a_miss_and_rewritten(self, tmp_path, vector):
        cache = EmbeddingCache(tmp_path / "emb")
        inner = _BasisProvider()
        provider = CachedEmbeddingProvider(inner, cache)
        units = self._units()
        first = embed_units(provider, units)
        entry = cache._path(inner.model, "unit 1")
        intact = entry.read_bytes()
        entry.write_text('{"vector": %s}' % vector, encoding="utf-8")
        assert embed_units(provider, units).vectors == first.vectors
        assert inner.calls == 2
        assert entry.read_bytes() == intact

    def test_cached_integer_vector_is_a_hit(self, tmp_path):
        cache = EmbeddingCache(tmp_path / "emb")
        inner = _BasisProvider()
        provider = CachedEmbeddingProvider(inner, cache)
        cache.put(inner.model, "unit 1", [0, 1, 0, 0])
        assert provider.embed(["unit 1"]) == [[0.0, 1.0, 0.0, 0.0]]
        assert inner.calls == 0

    def test_directory_at_entry_path(self, tmp_path):
        cache = EmbeddingCache(tmp_path / "emb")
        inner = _BasisProvider()
        provider = CachedEmbeddingProvider(inner, cache)
        provider.embed(["unit 1"])
        (entry,) = (tmp_path / "emb").rglob("*.json")
        entry.unlink()
        entry.mkdir()
        assert cache.get(inner.model, "unit 1") is None
        with pytest.raises(ConfigError) as raised:
            provider.embed(["unit 1"])
        assert str(tmp_path / "emb") in str(raised.value)
        assert inner.calls == 2
        assert list(entry.parent.iterdir()) == [entry]

    def test_dense_returns_min_k_corpus(self):
        provider = _BasisProvider()
        index = embed_units(provider, self._units(3))
        assert len(dense_search(index, provider, "q", k=10)) == 3

    def test_dense_retriever_facade(self):
        provider = _BasisProvider(query_axis=0)
        units = self._units()
        retriever = Retriever(units, "dense", provider=provider)
        assert retriever.n_units == 4
        assert retriever.search("q", 2)[0].unit_id == "u0"

    def test_http_provider_dedupes_within_one_call(self):
        fake = FakeRequest([
            (200, {}, json.dumps({"data": [
                {"embedding": [1.0, 0.0]}, {"embedding": [0.0, 1.0]}]}).encode()),
            (200, {}, json.dumps({"data": [{"embedding": [1.0, 0.0]}]}).encode())])
        provider = _http_provider(fake)
        first = provider.embed(["a", "b", "a"])
        second = provider.embed(["a"])
        assert first[0] == first[2] == second[0] == [1.0, 0.0]
        assert first[0] is not first[2]
        # deduped within a call; a later call posts the text again
        assert [json.loads(call.body)["input"] for call in fake.calls] == [["a", "b"], ["a"]]

    @pytest.mark.parametrize("vectors", [
        [["a", "b"]], [5], [[float("nan"), 1.0]], [[1.0, True]], [None], [[10 ** 400, 1]]])
    def test_http_provider_rejects_a_vector_that_is_not_finite_numbers(self, vectors):
        reply = json.dumps({"data": [{"embedding": [0.0, 1.0]}]
                            + [{"embedding": v} for v in vectors]}).encode()
        provider = _http_provider(FakeRequest([(200, {}, reply)]))
        with pytest.raises(ProviderError, match="embedding 1 is not"):
            provider.embed(["ok", "bad"])

    def test_http_provider_vector_of_another_dimension(self):
        reply = json.dumps({"data": [{"embedding": [0.0, 1.0, 2.0]}]}).encode()
        provider = _http_provider(FakeRequest([(200, {}, reply)]))
        with pytest.raises(DimensionMismatchError):
            provider.embed(["text"])


class TestDenseMatchesListReference:
    """Dense hits and scores equal a list-of-floats reference."""

    def test_hits_and_scores_equal_reference(self):
        provider = HashProvider()
        units = rechunk(_generated_report(seed=5, pages=30), 256)
        index = embed_units(provider, units)

        def normalize(vector):
            norm = math.sqrt(sum(x * x for x in vector))
            return [x / norm for x in vector]

        vectors = {unit.unit_id: normalize(v)
                   for unit, v in zip(units, provider.embed([u.text for u in units]))}
        pages = {unit.unit_id: unit.page_number for unit in units}
        for query in ("net revenue 2023", "café income", "w17", "x"):
            q = normalize(provider.embed([query])[0])
            scores = {uid: sum(a * b for a, b in zip(q, v)) for uid, v in vectors.items()}
            expected = sorted(scores.items(), key=lambda item: (-item[1], pages[item[0]], item[0]))
            hits = dense_search(index, provider, query, k=20)
            assert [(h.unit_id, h.page_number, h.score) for h in hits] == \
                   [(uid, pages[uid], score) for uid, score in expected[:20]], query


class TestRetrieverUnits:
    """Every unit_id a search can return keys the unit that rechunk made."""

    @pytest.fixture(scope="class")
    def report(self):
        return _generated_report(seed=5, pages=30)

    @pytest.mark.parametrize("granularity", ["page", 256])
    @pytest.mark.parametrize("scheme", ["bm25", "dense"])
    def test_hits_key_their_units(self, report, granularity, scheme):
        expected = {unit.unit_id: unit for unit in rechunk(report, granularity)}
        retriever = build_retriever(report, scheme, granularity=granularity,
                                    provider=HashProvider())
        assert retriever.n_units == len(expected)
        # a query holding every term of the report reaches every unit with a term
        terms = sorted({t for unit in expected.values() for t in tokenize(unit.text)})
        hits = retriever.search(" ".join(terms), k=len(expected))
        searchable = [uid for uid, unit in expected.items()
                      if scheme == "dense" or tokenize(unit.text)]
        assert sorted(hit.unit_id for hit in hits) == sorted(searchable)
        for hit in hits:
            assert retriever.units[hit.unit_id] == expected[hit.unit_id]
            assert hit.page_number == expected[hit.unit_id].page_number


class TestRecall:
    def test_worked_example(self):
        assert recall_at_k([101, 105, 104, 108, 107], {101, 105}, k=5) == 1.0

    def test_zero_overlap(self):
        assert recall_at_k([1, 2, 3], {7}, k=3) == 0.0

    def test_full_retrieval_is_total(self):
        pages = list(range(1, 21))
        assert recall_at_k(pages, {3, 9, 20}, k=20) == 1.0

    def test_monotone_in_k(self):
        rng = random.Random(5)
        for _ in range(30):
            retrieved = rng.sample(range(1, 40), k=20)
            gold = set(rng.sample(range(1, 40), k=4))
            values = [recall_at_k(retrieved, gold, k) for k in range(1, 21)]
            assert all(a <= b for a, b in zip(values, values[1:]))

    def test_duplicates_do_not_consume_slots(self):
        assert recall_at_k([9, 9, 9, 5], {5}, k=2) == 1.0

    def test_empty_gold_rejected(self):
        with pytest.raises(EmptyGoldError):
            recall_at_k([1], set(), k=1)


class TestAblation:
    def _fixture(self):
        # The gold page's table rows land in separate 4-token chunks, so no
        # sub-page unit holds both query terms; a distractor page mentions
        # both terms inside one chunk and outranks them. At page level the
        # gold page's higher term frequencies win.
        page_one = ("| turnover 917 |\n| headcount 35 |\n"
                    "| turnover 820 |\n| headcount 29 |")
        page_two = ("operations summary notes this turnover headcount among other "
                    "annual items include several misc entries listed here")
        md = (f"<!-- page: 1 -->\n{page_one}\n"
              f"<!-- page: 2 -->\n{page_two}\n"
              f"<!-- page: 3 -->\nunrelated narrative text\n")
        report = parse_report(md, report_id="DemoCo_2023")
        instance = type("I", (), {})()
        instance.report_id = "DemoCo_2023"
        instance.question = "turnover headcount"
        instance.page_numbers = [1]
        return report, instance

    def test_page_beats_subpage_when_table_splits(self):
        report, instance = self._fixture()
        rows = ablate_chunks([report], [instance], sizes=[4], k_values=[1])
        by_granularity = {row["granularity"]: row for row in rows}
        assert by_granularity["page"]["recall@1"] == 1.0
        assert by_granularity["4"]["recall@1"] == 0.0
        assert by_granularity["page"]["recall@1"] >= by_granularity["4"]["recall@1"]

    def test_k_at_corpus_size_is_total(self):
        report, instance = self._fixture()
        rows = ablate_chunks([report], [instance], sizes=[4], k_values=[3])
        for row in rows:
            assert row["recall@3"] == 1.0

    def test_row_shape(self):
        report, instance = self._fixture()
        rows = ablate_chunks([report], [instance], sizes=[4, 8], k_values=[1, 2])
        assert [row["granularity"] for row in rows] == ["page", "4", "8"]
        assert all("recall@1" in row and "recall@2" in row for row in rows)
