"""Independent brute-force oracles used to check the retrieval ranking,
and seeded generators of the inputs the checks run over.

The oracles recompute the scoring formulas directly over raw token lists,
sharing no code with the index implementation.
"""

from __future__ import annotations

import math
import re

_TERM = re.compile(r"[a-z0-9]+")


def _terms(text: str) -> list[str]:
    return _TERM.findall(text.lower())


def brute_force_scores(unit_texts: dict[str, str], query: str, scheme: str,
                       k1: float = 1.2, b: float = 0.75) -> dict[str, float]:
    """unit_id -> score by direct evaluation of the scoring formula."""
    docs = {uid: _terms(text) for uid, text in unit_texts.items()}
    n = len(docs)
    query_terms = _terms(query)

    df: dict[str, int] = {}
    for terms in docs.values():
        for term in set(terms):
            df[term] = df.get(term, 0) + 1

    avgdl = sum(len(t) for t in docs.values()) / n if n else 0.0
    scores: dict[str, float] = {}
    for uid, terms in docs.items():
        total = 0.0
        for term in query_terms:
            tf = terms.count(term)
            if tf == 0 or term not in df:
                continue
            if scheme == "tfidf":
                total += tf * math.log(n / df[term])
            else:
                idf = math.log(1 + (n - df[term] + 0.5) / (df[term] + 0.5))
                denom = tf + k1 * (1 - b + b * len(terms) / avgdl)
                total += idf * tf * (k1 + 1) / denom
        if total > 0.0:
            scores[uid] = total
    return scores


def brute_force_ranking(unit_texts: dict[str, str], unit_pages: dict[str, int],
                        query: str, scheme: str, k: int,
                        k1: float = 1.2, b: float = 0.75) -> list[tuple[str, float]]:
    """Top-k (unit_id, score) under the same ordering contract."""
    scores = brute_force_scores(unit_texts, query, scheme, k1, b)
    ordered = sorted(scores.items(),
                     key=lambda item: (-item[1], unit_pages[item[0]], item[0]))
    return ordered[:k]


def random_corpus(rng, max_units: int = 50) -> dict[str, str]:
    """A small synthetic corpus with a skewed vocabulary."""
    vocabulary = [f"w{i}" for i in range(30)] + ["revenue", "assets", "net",
                                                 "income", "2023", "interest"]
    n_units = rng.randint(1, max_units)
    units = {}
    for index in range(n_units):
        length = rng.randint(1, 40)
        units[f"u{index:03d}"] = " ".join(rng.choices(vocabulary, k=length))
    return units


def random_query(rng) -> str:
    vocabulary = ["revenue", "assets", "net", "income", "2023", "interest",
                  "w1", "w2", "w3", "w17"]
    return " ".join(rng.choices(vocabulary, k=rng.randint(1, 6)))


# Pieces of model replies: answer braces, number syntax Decimal accepts
# (signs, exponents, underscores, non-ASCII digits, NaN and infinities) and
# the formatting normalize_answer strips, plus verdict syntax and page
# citations (one with a number past int()'s 4300-digit limit).
_REPLY_PIECES = (
    "{{", "}}", "{", "}", "0", "1", "7", "42", "3.14", ".", "-", "+", "e", "E", "e9", "e-9",
    "e999999", "e-999999", "e28", "_", "NaN", "nan", "sNaN", "Inf", "Infinity", "-inf",
    "%", "(", ")", "$", "€", "£", ",", " ", "\t", "\n", "\u0663", "\u00bd", "x", "NONE",
    ":", "'", '"', "page_number: 3", "page_number: " + "9" * 5000, "revenue",
)


def random_reply(rng) -> str:
    """A reply of up to 12 random pieces."""
    return "".join(rng.choices(_REPLY_PIECES, k=rng.randint(0, 12)))


# Lines of report files: delimiter variants (page 0, leading zeros, a repeated
# page, a number past 64 bits and one past int()'s 4300-digit limit), near
# misses, blank lines, table rows and bytes that are not UTF-8.
_REPORT_LINES = (
    b"<!-- page: 0 -->", b"<!-- page: 000 -->", b"<!-- page: 1 -->", b"<!-- page: 01 -->",
    b"<!-- page: 2 -->", b"<!--page=2-->", b"<!-- Page 3 -->", b"<!-- page: 7 -->",
    b"<!-- page: 18446744073709551617 -->", b"<!-- page: " + b"9" * 5000 + b" -->",
    b"<!-- page: -1 -->", b"<!-- page: x -->", b"text <!-- page: 4 -->", b"<!-- page: 5",
    b"", b" ", b"\t  ", b"Revenue 4,139", b"| Revenue | 4,139 |", "é€".encode(),
    b"\xff", b"\xc3", b"\xed\xa0\x80",
)
_REPORT_BREAKS = (b"\n", b"\r", b"\r\n", b"")


def random_report(rng) -> bytes:
    """A report file of up to 12 random lines, each with a random line break."""
    return b"".join(rng.choice(_REPORT_LINES) + rng.choice(_REPORT_BREAKS)
                    for _ in range(rng.randint(0, 12)))
