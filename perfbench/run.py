"""Offline benchmark of ``finreportqa bench`` against a simulated endpoint.

Run from the repository root:

    python3 perfbench/run.py --workload agent_remote --seed 1 --seconds 20 --trace 0

One run generates a seeded corpus and dataset (``gen.py``), starts the
simulated chat-completions endpoint (``endpoint.py``) on 127.0.0.1 in its own
process, and then runs ``finreportqa bench --backend http`` in fresh processes
(``child.py``), one after another, until ``--seconds`` have passed and at
least two invocations have answered 100 questions. It checks every
invocation's outputs (``checks.py``) and prints, as the last line of stdout,
one JSON object: with ``--trace 0`` the end-to-end metrics, with ``--trace 1``
the per-layer metrics of traced invocations (``tracing.py``), taken in turn
with untraced ones to measure the tracing overhead. Workload facts and metric definitions are in
``notes.json``.

Everything it writes lives under ``.perfbench_work/`` in the working
directory and is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402

RUN_LIMIT_S = 120.0  # start no invocation after this, so a run ends within 180 s
INVOCATION_DEADLINE_S = 165.0  # a hung invocation is stopped and reported here
MIN_INVOCATIONS = 2
MIN_TRACE_INVOCATIONS = 4  # two traced, two untraced
MIN_LATENCY_SAMPLES = 100  # so at least ten lie beyond the 90th percentile
REPORT_PAGES = 300  # about 156k whitespace tokens, above the 128k input budget


@dataclass(frozen=True)
class Workload:
    pipeline: str
    workers: int
    reports: int
    questions_per_report: int
    delay_ms: float = 0.0  # mean injected endpoint delay per request
    no_brace_pct: float = 0.0  # share of first solver replies without braces
    fresh_cache: bool = False  # a new, empty --cache-dir for each invocation


WORKLOADS = {
    "agent_remote": Workload("agent", workers=2, reports=2,
                             questions_per_report=25, delay_ms=40.0,
                             no_brace_pct=5.0, fresh_cache=True),
    "long_context_wide": Workload("long_context", workers=1, reports=8,
                                  questions_per_report=5),
}

_NO_PROXY = urllib.request.build_opener(urllib.request.ProxyHandler({}))


class Endpoint:
    """The simulated endpoint as a child process on 127.0.0.1."""

    def __init__(self, oracle: Path, workload: Workload, log: Path):
        self._log = open(log, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "endpoint.py"), "--oracle", str(oracle),
             "--delay-ms", str(workload.delay_ms), "--no-brace-pct", str(workload.no_brace_pct)],
            stdout=subprocess.PIPE, stderr=self._log, text=True, env=child_env())
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError(f"endpoint did not start: {line!r}")
        self.base = f"http://127.0.0.1:{int(line.split()[1])}"

    def _call(self, path: str, data: bytes | None = None) -> dict:
        with _NO_PROXY.open(urllib.request.Request(self.base + path, data=data),
                            timeout=30) as response:
            return json.loads(response.read())

    def stats(self) -> dict:
        return self._call("/stats")

    def reset(self) -> None:
        self._call("/reset", data=b"{}")

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if "proxy" not in k.lower()}
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    return env


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) if path.is_dir() else 0


class Runner:
    """Inputs, endpoint and bench invocations of one benchmark run."""

    def __init__(self, root: Path, work: Path, workload: Workload, seed: int, deadline: float):
        self.root, self.work, self.workload = root, work, workload
        self.deadline = deadline  # perf_counter() by which every invocation has ended
        self.data = work / "data"
        gen.generate(self.data, seed=seed, n_reports=workload.reports, pages=REPORT_PAGES,
                     questions_per_report=workload.questions_per_report)
        with open(self.data / "dataset.jsonl", encoding="utf-8") as fh:
            self.question_ids = [json.loads(line)["id"] for line in fh]
        self.endpoint = Endpoint(self.data / "oracle.json", workload, work / "endpoint.log")
        self.count = 0

    def invoke(self, *, trace: bool) -> dict:
        """Run one bench invocation; return its measurements and outputs."""
        self.count += 1
        out_dir = self.work / f"inv{self.count}"
        result_path = self.work / f"inv{self.count}.json"
        cache_dir = self.work / f"cache{self.count}" if self.workload.fresh_cache else None
        bench_args = [
            "--pipeline", self.workload.pipeline, "--backend", "http",
            "--endpoint", self.endpoint.base + "/v1/chat/completions", "--model", "sim",
            "--corpus-dir", str(self.data / "corpus"),
            "--dataset", str(self.data / "dataset.jsonl"),
            "--output-dir", str(out_dir), "--run-id", "run",
            "--workers", str(self.workload.workers),
        ]
        if cache_dir is not None:
            bench_args += ["--cache-dir", str(cache_dir)]
        cmd = [sys.executable, str(HERE / "child.py"), "--src", str(self.root / "src"),
               "--dataset", str(self.data / "dataset.jsonl"), "--result", str(result_path)]
        cmd += ["--trace"] * trace + ["--", *bench_args]
        # A different string-hash seed for each invocation, so that the
        # byte-identical output check also catches output that follows the
        # order of a str set or dict.
        env = {**child_env(), "PYTHONHASHSEED": str(self.count)}
        self.endpoint.reset()
        started = time.perf_counter()
        try:
            proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True, env=env, cwd=self.root,
                                  timeout=max(1.0, self.deadline - started))
        except subprocess.TimeoutExpired as exc:
            proc = subprocess.CompletedProcess(cmd, "timeout", stderr=str(exc))
        inv = {"duration_s": time.perf_counter() - started, "trace": trace,
               "stats": self.endpoint.stats(),
               "predictions": checks.read_predictions(out_dir / "run")}
        try:
            if proc.returncode != 0 or not result_path.exists():
                inv["error"] = f"child exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
                return inv
            inv.update(json.loads(result_path.read_text(encoding="utf-8")))
            if inv["exit_code"] != 0:
                inv["error"] = f"bench exit {inv['exit_code']}: {proc.stderr.strip()[-2000:]}"
                return inv
            inv["digest"] = checks.canonical_digest(out_dir / "run")
            inv["tol_acc"] = checks.tolerance_accuracy(out_dir / "run")
            if trace:
                inv["layers"] = tracing.derive(
                    inv.pop("spans"), main_start=inv["main_start"], main_end=inv["main_end"],
                    delay_total_s=inv["stats"]["delay_total_s"],
                    cache_bytes=dir_bytes(cache_dir) if cache_dir else 0)
            return inv
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
            result_path.unlink(missing_ok=True)
            if cache_dir:
                shutil.rmtree(cache_dir, ignore_errors=True)

    def close(self) -> None:
        self.endpoint.close()


def check(question_ids: list[str], invs: list[dict]) -> list[str]:
    """Every correctness problem of a run's invocations."""
    errors: list[str] = []
    digests = set()
    for index, inv in enumerate(invs, start=1):
        if "error" in inv:
            errors.append(f"invocation {index}: {inv['error']}")
            continue
        errors += [f"invocation {index}: {e}" for e in checks.check_predictions(
            inv["predictions"], question_ids, inv["stats"]["last_answer"])]
        digests.add(inv["digest"])
    if len(digests) > 1:
        errors.append(f"canonical outputs differ across invocations: {len(digests)} digests")
    return errors


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q / 100) - 1)]


def end_to_end(invs: list[dict], n: int, answered_share: float) -> dict:
    """End-to-end metrics over the untraced invocations of a run.

    Throughput and CPU are totals over all measured questions, and the wall
    time a mean over invocations, which averages the machine's slow and fast
    phases; latency percentiles pool every question; set-up and memory are
    medians over invocations.
    """
    ok = [inv for inv in invs if "error" not in inv and not inv["trace"]]
    questions = sum(len(inv["latencies_s"]) for inv in ok)
    answer_s = sum(inv["last_end"] - inv["first_start"] for inv in ok)
    latencies = [x for inv in ok for x in inv["latencies_s"]]
    return {
        "questions_per_s": (questions / answer_s, "q/s"),
        "question_latency_p50_ms": (1000 * percentile(latencies, 50), "ms"),
        "question_latency_p90_ms": (1000 * percentile(latencies, 90), "ms"),
        "setup_s": (statistics.median(inv["first_start"] - inv["main_start"] for inv in ok), "s"),
        "bench_wall_s": (statistics.mean(inv["main_end"] - inv["main_start"] for inv in ok), "s"),
        "cpu_ms_per_question": (1000 * sum(inv["answer_cpu_s"] for inv in ok) / questions, "ms"),
        "peak_rss_mb": (statistics.median(inv["maxrss_kb"] / 1024 for inv in ok), "MB"),
        "answered_share": (answered_share, "share"),
        "llm_requests_per_question": (
            statistics.median(inv["stats"]["requests"] / n for inv in ok), "count"),
        "prompt_tokens_per_question": (
            statistics.median(inv["stats"]["prompt_tokens"] / n for inv in ok), "tokens"),
        "tolerance_accuracy": (statistics.median(inv["tol_acc"] for inv in ok), "share"),
    }


def per_layer(invs: list[dict]) -> dict:
    """Medians of the traced invocations' layer metrics, and the tracing overhead
    from the throughput of traced and untraced invocations taken in turn."""
    traced = [inv["layers"] for inv in invs if inv["trace"] and "layers" in inv]
    untraced = [inv for inv in invs if not inv["trace"] and "error" not in inv]
    if not traced or not untraced:
        return {}
    metrics = {key: (statistics.median(layer[key] for layer in traced), unit)
               for key, unit in tracing.LAYER_UNITS.items()}
    qps_traced = (sum(layer["questions"] for layer in traced)
                  / sum(layer["cli.answer_s"] for layer in traced))
    qps_untraced = (sum(len(inv["latencies_s"]) for inv in untraced)
                    / sum(inv["last_end"] - inv["first_start"] for inv in untraced))
    metrics["trace.questions_per_s"] = (qps_traced, "q/s")
    metrics["trace.untraced_questions_per_s"] = (qps_untraced, "q/s")
    metrics["trace.overhead_pct"] = (100.0 * (1.0 - qps_traced / qps_untraced), "%")
    return metrics


def measure(runner: Runner, seconds: float, trace: bool, started: float) -> list[dict]:
    """Bench invocations until the run has measured long enough."""
    invs: list[dict] = []
    measure_start = time.perf_counter()
    while True:
        inv = runner.invoke(trace=trace and len(invs) % 2 == 1)
        invs.append(inv)
        if "error" in inv:
            return invs
        now = time.perf_counter()
        samples = sum(len(i["latencies_s"]) for i in invs if not i["trace"])
        done = (len(invs) >= (MIN_TRACE_INVOCATIONS if trace else MIN_INVOCATIONS)
                and (trace or samples >= MIN_LATENCY_SAMPLES)
                and now - measure_start + inv["duration_s"] / 2 >= seconds)
        if done or now - started > RUN_LIMIT_S:
            return invs


def run(root: Path, work: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    started = time.perf_counter()
    runner = Runner(root, work, workload, seed, deadline=started + INVOCATION_DEADLINE_S)
    n = len(runner.question_ids)
    try:
        invs = measure(runner, seconds, trace, started)
    finally:
        runner.close()

    errors = check(runner.question_ids, invs)
    for inv in invs:
        if inv.get("missing_targets"):
            print(f"perfbench: not traced, target missing: {inv['missing_targets']}",
                  file=sys.stderr)
    for line in errors[:20]:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    digests = sorted({inv["digest"] for inv in invs if "digest" in inv})
    print(f"perfbench: {name} seed={seed}: {len(invs)} invocations of {n} questions, "
          f"canonical digest {digests[0][:16] if digests else '-'}; "
          f"nproc={os.cpu_count()} python={platform.python_version()}", file=sys.stderr)

    attempted = n * len(invs)
    answered_q = sum(checks.answered(inv["predictions"], runner.question_ids) for inv in invs)
    if errors and not any("error" not in inv and not inv["trace"] for inv in invs):
        metrics = {}
    elif trace:
        metrics = per_layer(invs)
    else:
        metrics = end_to_end(invs, n, answered_q / attempted)
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": attempted - answered_q,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="offline benchmark of finreportqa bench")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its endpoint and children and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "finreportqa" / "cli.py").is_file():
        print("perfbench: run from the repository root (src/finreportqa/cli.py not found)",
              file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(root, work, args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
