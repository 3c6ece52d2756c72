"""Fault-injecting variants of the benchmark's oracle, for in-process runs.

``perfbench/endpoint.py:Oracle`` sees every gold evidence row that is in its
prompt, however long the prompt is. The variants here override one role of
it each and leave ``perfbench/`` untouched.

``RotOracle`` models context rot (the paper's first bottleneck; see Liu et
al., "Lost in the Middle", arXiv:2307.03172): the solver misses a gold row
that is in its prompt with probability ``ROT_RATE`` x prompt words /
``ROT_WINDOW``. The draw is a hash of the row and the prompt, so a run is
deterministic and a later round with a different prompt draws anew.

``OracleBackend`` serves any of them to ``LLMClient`` in place of the HTTP
endpoint.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

from finreportqa.llm import Backend

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from endpoint import Oracle  # noqa: E402

ROT_RATE = 0.5
ROT_WINDOW = 128_000  # prompt words at which a row is missed with probability ROT_RATE


class OracleBackend(Backend):
    def __init__(self, oracle: Oracle):
        self.oracle = oracle

    def generate(self, config, messages, body) -> str:
        return self.oracle.reply([{"role": m.role.value, "content": m.content}
                                  for m in messages])[1]


def _draw(row: str, user: str) -> float:
    """A number in [0, 1) from a hash of the row and the prompt."""
    digest = hashlib.sha256(("rot" + row + user).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2 ** 64


class RotOracle(Oracle):
    """The stock oracle, but its solver misses gold rows by context rot."""

    def solve(self, case: dict, user: str) -> str:
        miss_rate = ROT_RATE * len(user.split()) / ROT_WINDOW
        # a missed row is one whose text the solver cannot find in the prompt
        rows = [dict(row, row="\0") if row["row"] in user and _draw(row["row"], user) < miss_rate
                else row for row in case["rows"]]
        return super().solve(dict(case, rows=rows), user)
