"""Correctness checks on one ``bench`` run directory.

The canonical outputs are ``predictions.jsonl``, ``scores.jsonl``,
``eval_report.json`` and ``transcripts/``; every run of a workload must
produce them byte for byte. Each prediction must equal the last answer the
endpoint gave for its question.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

CANONICAL = ("predictions.jsonl", "scores.jsonl", "eval_report.json")


def canonical_digest(run_dir: Path) -> str:
    """One sha256 over the canonical files and every transcript, by name."""
    digest = hashlib.sha256()
    paths = [run_dir / name for name in CANONICAL]
    transcripts = run_dir / "transcripts"
    if transcripts.is_dir():
        paths += sorted(transcripts.iterdir())
    for path in paths:
        digest.update(str(path.relative_to(run_dir)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes() if path.exists() else b"<missing>")
        digest.update(b"\0")
    return digest.hexdigest()


def read_predictions(run_dir: Path) -> list[dict]:
    path = run_dir / "predictions.jsonl"
    if not path.exists():
        return []
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_predictions(predictions: list[dict], question_ids: list[str],
                      last_answers: dict[str, float]) -> list[str]:
    """Errors: a question without exactly one prediction, or whose
    prediction differs from the endpoint's last answer for it."""
    errors: list[str] = []
    by_id: dict[str, list] = {}
    for row in predictions:
        by_id.setdefault(row.get("id"), []).append(row.get("answer"))
    for extra in sorted(set(by_id) - set(question_ids), key=str):
        errors.append(f"prediction for unknown question {extra!r}")
    for qid in question_ids:
        answers = by_id.get(qid, [])
        if len(answers) != 1:
            errors.append(f"{qid}: {len(answers)} predictions")
        elif qid not in last_answers:
            errors.append(f"{qid}: the endpoint gave no answer")
        elif answers[0] is None or float(answers[0]) != float(last_answers[qid]):
            errors.append(f"{qid}: predicted {answers[0]!r}, endpoint said {last_answers[qid]!r}")
    return errors


def answered(predictions: list[dict], question_ids: list[str]) -> int:
    """Questions with a prediction that carries an answer."""
    wanted = set(question_ids)
    return len({row["id"] for row in predictions
                if row.get("id") in wanted and row.get("answer") is not None})


def tolerance_accuracy(run_dir: Path) -> float:
    """tol_acc of eval_report.json, as a share."""
    report = json.loads((run_dir / "eval_report.json").read_text(encoding="utf-8"))
    return report["tol_acc"] / 100.0
