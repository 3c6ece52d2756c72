"""The run directory: the one module that knows its layout.

``bench`` writes each row's line of ``predictions.jsonl`` and its
``transcripts/<id>.json`` as the row arrives, in dataset order, and then
``scores.jsonl``, ``eval_report.json`` and ``manifest.json``. A run that
stops early leaves a dataset-order prefix of the predictions and the
transcripts, and no scores or manifest. ``score`` writes the score files
and ``score_manifest.json``, beside a bench run's own manifest. ``bench``
logs each LLM call to ``llm_log.jsonl``, and ``ask`` writes its transcript
to ``ask_transcript.json``. A path that cannot be written is a ConfigError
naming it.
"""

from __future__ import annotations

import hashlib
import json
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Optional

from . import metrics as metrics_mod
from .errors import ConfigError, DanglingReferenceError

LLM_LOG = "llm_log.jsonl"
ASK_TRANSCRIPT = "ask_transcript.json"


def sha256_file(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_text(path: str | Path, text: str) -> Path:
    """Write an output file; a path that cannot be written is a ConfigError."""
    path = Path(path)
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot write: {exc.strerror or exc}") from None
    return path


def to_json(payload) -> str:
    """A JSON output file's text; a record object is written as its fields."""
    return json.dumps(payload, indent=2, sort_keys=True, default=vars) + "\n"


def score_rows(rows: Iterable[dict], instances: dict) -> list[metrics_mod.InstanceScore]:
    """One score per prediction row against its dataset instance (id -> QAInstance)."""
    scores = []
    for row in rows:
        instance = instances.get(row["id"])
        if instance is None:
            raise DanglingReferenceError(
                f"prediction {row['id']!r} matches no dataset instance")
        prediction = row.get("answer")
        pred_string = "" if prediction is None else json.dumps(prediction)
        mode = instance.extras.get("percent_mode")
        percent_mode = metrics_mod.PercentMode(mode) if mode else None
        scores.append(metrics_mod.score_instance(
            pred_string, instance.answer,
            instance_id=instance.id,
            difficulty=instance.difficulty,
            question_type=instance.type,
            percent_mode=percent_mode,
        ))
    return scores


class RunDir:
    """A directory that a command writes its outputs to; made if missing."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        try:
            self.path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"{path}: cannot make a directory: {exc.strerror or exc}") from None

    @classmethod
    def create(cls, output_dir: str | Path, run_id: Optional[str] = None) -> "RunDir":
        """A new directory named ``run_id`` or a UTC time stamp, plus ``-1``,
        ``-2``, ... while that name is taken."""
        stamp = run_id or time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        path = Path(output_dir) / stamp
        counter = 0
        while path.exists():
            counter += 1
            path = Path(output_dir) / f"{stamp}-{counter}"
        return cls(path)

    def write_json(self, name: str | Path, payload) -> Path:
        return write_text(self.path / name, to_json(payload))

    def write_jsonl(self, name: str | Path, records: Iterable) -> Path:
        """One line per record; a record object is written as its fields."""
        return write_text(self.path / name, "".join(
            json.dumps(r, sort_keys=True, default=vars) + "\n" for r in records))

    def write_rows(self, rows: Iterable[dict]) -> list[dict]:
        """Write each row's predictions line and transcript as the row arrives;
        the rows written, without their transcripts."""
        written = []
        (self.path / "transcripts").mkdir(exist_ok=True)
        with open(self.path / "predictions.jsonl", "w", encoding="utf-8") as fh:
            for row in rows:
                transcript = row.pop("transcript", None)
                fh.write(json.dumps(row, sort_keys=True) + "\n")
                fh.flush()
                if transcript is not None:
                    self.write_json(Path("transcripts", f"{row['id']}.json"), transcript)
                written.append(row)
        return written

    def write_scores(self, scores: list[metrics_mod.InstanceScore]) -> metrics_mod.EvalReport:
        """Write ``scores.jsonl`` and ``eval_report.json``, neither for no scores; the report."""
        report = metrics_mod.aggregate(scores)
        self.write_jsonl("scores.jsonl", scores)
        self.write_json("eval_report.json", report)
        return report

    def write_manifest(self, command: str, config, inputs: dict, **extra) -> None:
        """The command, the time, the resolved config, the input hashes and ``extra``."""
        # a score written into a bench run must not replace the manifest that reruns it
        name = "score_manifest.json" if command == "score" else "manifest.json"
        self.write_json(name, {
            "command": command,
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "config": config,
            "inputs": inputs,
            **extra,
        })
