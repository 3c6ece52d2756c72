"""Simulated chat-completions endpoint on 127.0.0.1, backed by an oracle.

It answers the package's three agent roles and the long-context baseline,
picking the role from the system prompt:

- expansion: the ratio's formula, with missing accounts replaced by the
  synonyms the feedback names;
- solving: ``{{answer}}`` with ``page_number`` citations when every gold
  evidence row appears verbatim in the prompt, otherwise ``{{0}}`` and the
  accounts it could not find;
- evaluation: ``NONE`` for a complete answer, else the missing accounts with
  their synonyms.

With ``--no-brace-pct P``, the first time a solver prompt arrives, P percent
of them (chosen by a hash of the prompt) get a reply without braces, so the
client's retry path runs; the same prompt sent again gets the real reply.

Each request sleeps for a delay drawn from a hash of the request body, within
25% of the mean ``--delay-ms``, which the reply reports as ``x_delay_s``. The
server counts requests, prompt tokens (whitespace tokens of the message
contents) and delay, and keeps the last solver answer per question.
``GET /stats`` returns them; ``POST /reset`` clears them. It serves at most
as many requests at once as the machine has CPUs.

Run: ``python3 perfbench/endpoint.py --oracle oracle.json --port 0``; it
prints ``PORT <n>`` once it listens.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

EXPANSION_MARK = "financial text understanding"
SOLVER_MARK = "annual report in Markdown form"
EVALUATOR_MARK = "inspects a generated answer"
FEEDBACK_MARK = "Missing components to cover:"

_QUESTION_RE = re.compile(r"^Question: (.*)$", re.MULTILINE)
_ANSWER_RE = re.compile(r"Generated answer:\n(.*)", re.DOTALL)
_MISSING_RE = re.compile(r"Missing: (.*?)\. \{\{0\}\}")
_FEEDBACK_LINE_RE = re.compile(r"^- (.+?) \(synonyms: (.*)\)$", re.MULTILINE)


def _unit(text: str, salt: str) -> float:
    """Deterministic number in [0, 1) from a hash of text."""
    digest = hashlib.sha256((salt + text).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2 ** 64


def render_formula(case: dict, replacements: dict[str, str]) -> str:
    names = {row["slot"]: replacements.get(row["account"], row["account"])
             for row in case["rows"]}
    return f"{case['ratio']} = " + case["formula"].format(**names)


class Oracle:
    """Pure reply logic: request messages in, reply text out."""

    def __init__(self, cases: dict[str, dict]):
        self.cases = cases

    def role(self, messages: list[dict]) -> str:
        system = messages[0]["content"] if messages else ""
        for role, mark in (("expand", EXPANSION_MARK), ("solve", SOLVER_MARK),
                           ("evaluate", EVALUATOR_MARK)):
            if mark in system:
                return role
        return "unknown"

    def question(self, role: str, user: str) -> str:
        if role == "expand":
            return user.split("\n", 1)[0]
        match = _QUESTION_RE.search(user)
        return match.group(1) if match else ""

    def expand(self, case: dict, user: str) -> str:
        replacements = {}
        if FEEDBACK_MARK in user:
            for name, synonyms in _FEEDBACK_LINE_RE.findall(user):
                replacements[name] = synonyms.split(", ")[0]
        return render_formula(case, replacements)

    def solve(self, case: dict, user: str) -> str:
        found = [row for row in case["rows"] if row["row"] in user]
        cited = " ".join(f"{row['label']} = {row['value']:,} (page_number: {row['page']})."
                         for row in found)
        if len(found) == len(case["rows"]):
            return f"{cited} {render_formula(case, {})} = {{{{{case['answer']}}}}}"
        missing = ", ".join(row["account"] for row in case["rows"] if row not in found)
        return f"{cited} Missing: {missing}. {{{{0}}}}".strip()

    def evaluate(self, case: dict, user: str) -> str:
        match = _ANSWER_RE.search(user)
        answer = match.group(1) if match else ""
        if f"{{{{{case['answer']}}}}}" in answer:
            return "NONE"
        missing = _MISSING_RE.search(answer)
        names = missing.group(1).split(", ") if missing else [r["account"] for r in case["rows"]]
        hints = {row["account"]: row["hint"] for row in case["rows"]}
        return ", ".join(f"{name}: {', '.join(hints.get(name, [name]))}" for name in names)

    def reply(self, messages: list[dict]) -> tuple[str, str, dict | None]:
        role = self.role(messages)
        user = messages[-1]["content"] if messages else ""
        case = self.cases.get(self.question(role, user)) if role != "unknown" else None
        if case is None:
            return role, "I cannot answer that. {{0}}", None
        return role, getattr(self, role)(case, user), case


def parse_final(reply: str) -> float | None:
    """Number in the last {{...}} group of a reply; None when there is none."""
    groups = re.findall(r"\{\{(.*?)\}\}", reply, re.DOTALL)
    return float(groups[-1]) if groups else None


class State:
    def __init__(self, oracle: Oracle, delay_s: float, no_brace_pct: float):
        self.oracle = oracle
        self.delay_s = delay_s
        self.no_brace_pct = no_brace_pct
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.requests = 0
            self.prompt_tokens = 0
            self.delay_total_s = 0.0
            self.last_answer: dict[str, float] = {}
            self.seen_solver: set[str] = set()

    def stats(self) -> dict:
        with self.lock:
            return {
                "requests": self.requests,
                "prompt_tokens": self.prompt_tokens,
                "delay_total_s": self.delay_total_s,
                "last_answer": dict(self.last_answer),
            }

    def handle(self, body: bytes) -> dict:
        payload = json.loads(body)
        messages = payload["messages"]
        tokens = sum(len(m.get("content", "").split()) for m in messages)
        role, reply, case = self.oracle.reply(messages)
        delay = 0.0
        if self.delay_s:
            delay = self.delay_s * (0.75 + 0.5 * _unit(body.decode("utf-8"), "delay"))
        with self.lock:
            if role == "solve" and self.no_brace_pct > 0:
                digest = hashlib.sha256(body).hexdigest()
                if digest not in self.seen_solver:
                    self.seen_solver.add(digest)
                    if _unit(digest, "brace") * 100 < self.no_brace_pct:
                        reply = "The answer follows from the cited rows."
            self.requests += 1
            self.prompt_tokens += tokens
            self.delay_total_s += delay
            final = parse_final(reply)
            if case is not None and role == "solve" and final is not None:
                self.last_answer[case["id"]] = final
        if delay > 0:
            time.sleep(delay)
        return {
            "object": "chat.completion",
            "model": payload.get("model", ""),
            "choices": [{"index": 0, "finish_reason": "stop",
                         "message": {"role": "assistant", "content": reply}}],
            "usage": {"prompt_tokens": tokens, "completion_tokens": len(reply.split())},
            "x_delay_s": delay,
        }


class BoundedServer(ThreadingHTTPServer):
    """Thread per request, but no more than max_connections at once."""

    daemon_threads = True

    def __init__(self, address, handler, state: State, max_connections: int):
        super().__init__(address, handler)
        self.state = state
        self.slots = threading.BoundedSemaphore(max_connections)

    def process_request(self, request, client_address):
        self.slots.acquire()
        super().process_request(request, client_address)

    def process_request_thread(self, request, client_address):
        try:
            super().process_request_thread(request, client_address)
        finally:
            self.slots.release()


class Handler(BaseHTTPRequestHandler):
    server: BoundedServer

    def log_message(self, format, *args):  # keep stderr quiet
        pass

    def _send(self, status: int, payload: dict) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):
        if self.path == "/stats":
            self._send(200, self.server.state.stats())
        else:
            self._send(404, {"error": "not found"})

    def do_POST(self):
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if self.path == "/reset":
            self.server.state.reset()
            self._send(200, {"ok": True})
        elif self.path == "/v1/chat/completions":
            self._send(200, self.server.state.handle(body))
        else:
            self._send(404, {"error": "not found"})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="simulated chat-completions endpoint")
    parser.add_argument("--oracle", required=True)
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--delay-ms", type=float, default=0.0,
                        help="mean injected delay per request")
    parser.add_argument("--no-brace-pct", type=float, default=0.0)
    args = parser.parse_args(argv)
    with open(args.oracle, encoding="utf-8") as fh:
        oracle = Oracle(json.load(fh))
    state = State(oracle, args.delay_ms / 1000.0, args.no_brace_pct)
    server = BoundedServer(("127.0.0.1", args.port), Handler, state,
                           max_connections=os.cpu_count() or 1)
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
