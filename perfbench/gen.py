"""Seeded synthetic corpus, QA dataset and endpoint oracle.

Writes into one directory:

- ``corpus/{company}_{year}.md``: page-delimited reports. Each page holds
  prose drawn from a synthetic vocabulary and a Markdown table of line items.
- ``dataset.jsonl``: one QA record per question, in the package's schema.
- ``oracle.json``: for each question, its gold evidence rows and answer. Only
  the simulated endpoint reads it; the program under test never sees it.

Every question asks for a ratio "for the <segment> segment" of one report.
Its evidence rows sit on distinct pages and carry the segment word, so the
first retrieval round finds them, except for the "alias" row of four in five
questions: that row names the account by a synonym plus an alias word and
never mentions the segment. Round 1 misses it; the evaluator's feedback names
the synonym and alias, and later rounds find it. Decoy pages repeat synonym
and alias, so the evidence page ranks below them and enters zero to three
rounds later, or never.
"""

from __future__ import annotations

import json
import random
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

# ratio name -> (formula over component slots a, b, c; component accounts)
RATIOS = [
    ("debt service coverage ratio", "{a} / ({b} + {c})",
     ("ebitda", "interest expense", "principal repayments")),
    ("current ratio", "{a} / {b}", ("current assets", "current liabilities")),
    ("quick ratio", "({a} - {b}) / {c}",
     ("current assets", "inventories", "current liabilities")),
    ("gross margin", "({a} - {b}) / {a}", ("revenue", "cost of goods sold")),
    ("inventory turnover", "{a} / {b}", ("cost of goods sold", "inventories")),
    ("debt to equity ratio", "{a} / {b}", ("total liabilities", "shareholders equity")),
    ("return on assets", "{a} / {b}", ("net income", "total assets")),
    ("interest coverage ratio", "{a} / {b}", ("operating income", "interest expense")),
    ("asset turnover", "{a} / {b}", ("revenue", "total assets")),
    ("operating margin", "{a} / {b}", ("operating income", "revenue")),
    ("cash ratio", "{a} / {b}", ("cash and cash equivalents", "current liabilities")),
    ("return on equity", "{a} / {b}", ("net income", "shareholders equity")),
]

# Synonyms share no word with the account names, ratio names or question
# template, so only the evaluator's feedback can lead retrieval to them.
SYNONYMS = {
    "ebitda": ("underlying earnings", "adjusted result"),
    "interest expense": ("finance costs", "borrowing charges"),
    "principal repayments": ("loan amortisation", "borrowings repaid"),
    "current assets": ("short term holdings", "working resources"),
    "current liabilities": ("imminent obligations", "payables due soon"),
    "inventories": ("stock held", "merchandise stock"),
    "revenue": ("sales proceeds", "takings"),
    "cost of goods sold": ("production outlays", "direct spend"),
    "total liabilities": ("aggregate indebtedness", "overall creditors"),
    "shareholders equity": ("owners funds", "stockholders capital"),
    "net income": ("profit after tax", "final surplus"),
    "total assets": ("balance sheet footing", "resource pool"),
    "operating income": ("trading result", "core returns"),
    "cash and cash equivalents": ("liquid funds", "bank balances"),
}

# Question i's shape by i % 5: no alias row, so round 1 finds everything; or an
# alias row behind this many decoy pages. Each block of k_per_round (15) decoys
# delays the evidence page by one round: 0 -> round 2, 18 -> round 3,
# 33 -> round 4, 48 -> round 5; 90 outlasts all five rounds. Equal shares put
# the median question inside round 3 and the 90th percentile inside round 5.
DECOYS_BY_CLASS = (None, 0, 18, 33, (48, 90))

_ONSETS = "b c d f g h j k l m n p r s t v z br dr gr kr pl st tr".split()
_VOWELS = "a e i o u ai ou".split()

def _word(rng: random.Random, syllables: int) -> str:
    return "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(syllables))


def _unique_words(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    words: list[str] = []
    while len(words) < count:
        word = _word(rng, rng.randint(2, 3))
        if word not in taken:
            taken.add(word)
            words.append(word)
    return words


def _money(rng: random.Random) -> int:
    return rng.randint(100, 99_999)


def _fmt(value: int) -> str:
    return f"{value:,}"


def _answer(formula: str, values: dict[str, int]) -> str:
    expression = formula.format(**{k: f"Decimal({v})" for k, v in values.items()})
    result = eval(expression, {"__builtins__": {}, "Decimal": Decimal})  # RATIOS templates only
    return str(result.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def _spread_pages(index: int, count: int, pages: int) -> list[int]:
    """Distinct evidence pages at golden-ratio positions of the question index.

    The positions do not depend on the seed, so the share of questions whose
    evidence survives long-context truncation is the same for every seed."""
    chosen: list[int] = []
    for j in range(count):
        page = 1 + int(((index * count + j) * 0.6180339887498949) % 1.0 * pages)
        while page in chosen:
            page = page % pages + 1
        chosen.append(page)
    return chosen


def generate(out_dir: str | Path, *, seed: int, n_reports: int, pages: int,
             questions_per_report: int, words_per_page: int = 450) -> None:
    """Write corpus, dataset and oracle under out_dir."""
    out = Path(out_dir)
    corpus_dir = out / "corpus"
    corpus_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)

    taken: set[str] = set()
    for name in list(SYNONYMS) + [s for syns in SYNONYMS.values() for s in syns]:
        taken.update(name.split())
    vocab = _unique_words(rng, 6000, taken)
    weights = [1.0 / (rank + 1) ** 0.8 for rank in range(len(vocab))]
    filler_labels = [" ".join(pair) for pair in zip(*[iter(_unique_words(rng, 800, taken))] * 2)]
    companies = [w.capitalize() for w in _unique_words(rng, n_reports, taken)]
    # rare words: segments and aliases, never drawn as prose
    rare = _unique_words(rng, 2 * n_reports * questions_per_report, taken)

    dataset: list[dict] = []
    oracle: dict[str, dict] = {}
    for r_index, company in enumerate(companies):
        year = 2015 + r_index % 10
        page_rows: dict[int, list[str]] = {p: [] for p in range(1, pages + 1)}
        page_extra: dict[int, list[str]] = {p: [] for p in range(1, pages + 1)}
        for q_index in range(questions_per_report):
            # The shape of question i (ratio, alias row, decoys, page positions)
            # depends on i only, so every seed gives the same mix of rounds and
            # truncation; the seed draws the words, values and decoy pages.
            i = r_index * questions_per_report + q_index
            segment, alias = rare[2 * i], rare[2 * i + 1]
            ratio, formula, accounts = RATIOS[i % len(RATIOS)]
            slots = dict(zip("abc", accounts))
            values = {slot: _money(rng) for slot in slots}
            answer = _answer(formula, values)
            evidence_pages = _spread_pages(i, len(accounts), pages)
            decoys = DECOYS_BY_CLASS[i % 5]
            if isinstance(decoys, tuple):
                decoys = decoys[(i // 5) % 2]
            alias_slot = None if decoys is None else "abc"[(i // 5) % len(accounts)]
            rows = []
            for (slot, account), page in zip(slots.items(), evidence_pages):
                if slot == alias_slot:
                    synonym = rng.choice(SYNONYMS[account])
                    label = f"{synonym.capitalize()} {alias}"
                    hint = [f"{synonym} {alias}"]
                    others = [p for p in range(1, pages + 1) if p != page]
                    for decoy in rng.sample(others, min(decoys, len(others))):
                        page_extra[decoy].append(
                            f"{synonym.capitalize()} {alias} programme: {synonym} {alias} targets.")
                else:
                    label = f"{segment.capitalize()} {account}"
                    hint = [f"{segment} {account}"]
                row = f"| {label} | {_fmt(values[slot])} |"
                page_rows[page].append(row)
                rows.append({"slot": slot, "account": account, "label": label,
                             "value": values[slot], "row": row, "page": page,
                             "hint": hint, "alias": slot == alias_slot})
            question = f"What is the {ratio} for the {segment} segment of {company} in {year}?"
            qid = f"{company}-{year}-q{q_index:03d}"
            expr = formula.format(**{k: str(v) for k, v in values.items()})
            dataset.append({
                "id": qid, "company": company, "year": year, "question": question,
                "type": "table",
                "thoughts": "Thought: " + "; ".join(
                    f"{row['label']} on page {row['page']}" for row in rows),
                "page_numbers": sorted(evidence_pages),
                "python_code": f"round({expr}, 2)",
                "answer": answer,
                "n_evidence_tables": len(set(evidence_pages)),
            })
            oracle[question] = {"id": qid, "ratio": ratio, "formula": formula,
                                "answer": answer, "rows": rows}
        (corpus_dir / f"{company}_{year}.md").write_text(
            _render_report(rng, company, year, pages, words_per_page, vocab, weights,
                           filler_labels, page_rows, page_extra),
            encoding="utf-8")

    with open(out / "dataset.jsonl", "w", encoding="utf-8") as fh:
        for record in dataset:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    (out / "oracle.json").write_text(json.dumps(oracle, sort_keys=True), encoding="utf-8")


def _render_report(rng, company, year, pages, words_per_page, vocab, weights,
                   filler_labels, page_rows, page_extra) -> str:
    parts: list[str] = []
    for page in range(1, pages + 1):
        parts.append(f"<!-- page: {page} -->\n")
        parts.append(f"{company} annual report {year}, page {page}.\n")
        words = rng.choices(vocab, weights=weights, k=words_per_page)
        for start in range(0, words_per_page, 15):
            parts.append(" ".join(words[start:start + 15]) + ".\n")
        for line in page_extra[page]:
            parts.append(line + "\n")
        parts.append("\n| Line item | Amount |\n| --- | --- |\n")
        for label in rng.sample(filler_labels, 12):
            parts.append(f"| {label.capitalize()} | {_fmt(_money(rng))} |\n")
        for row in page_rows[page]:
            parts.append(row + "\n")
        parts.append("\n")
    return "".join(parts)
