"""One ``finreportqa bench`` invocation in a fresh process, measured from outside.

Usage: ``python3 child.py --src SRC --dataset D --result R.json [--trace] -- <bench args>``

Puts SRC first on ``sys.path``, wraps the package's public functions (see
``tracing``), calls ``finreportqa.cli.main(["bench", ...])`` and writes the
timings, the CPU time of the answering phase, ``ru_maxrss`` and, with
``--trace``, every span to R.json.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--dataset", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("bench_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    bench_args = args.bench_args[1:] if args.bench_args[:1] == ["--"] else args.bench_args

    sys.path.insert(0, args.src)
    from finreportqa import cli  # noqa: E402  (the package under test)

    question_ids = {}
    with open(args.dataset, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            question_ids[record["question"]] = record["id"]
    tracer = tracing.Tracer(question_ids)
    tracing.install(tracer, full=args.trace)

    main_start = time.perf_counter()
    code = cli.main(["bench", *bench_args])
    main_end = time.perf_counter()

    usage = resource.getrusage(resource.RUSAGE_SELF)
    spans = [
        {"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4],
         "qid": s[5], "thread": s[6], "attrs": s[7]}
        for s in tracer.spans
    ]
    questions = [s for s in spans if s["name"] in tracing.QUESTION_SPANS]
    result = {
        "exit_code": code,
        "main_start": main_start,
        "main_end": main_end,
        "first_start": tracer.first_start,
        "last_end": tracer.last_end,
        "answer_cpu_s": (tracer.cpu_at_last_end - tracer.cpu_at_first_start
                         if tracer.first_start is not None else 0.0),
        "maxrss_kb": usage.ru_maxrss,
        "latencies_s": [s["end"] - s["start"] for s in questions],
        "missing_targets": tracer.missing,
        "spans": spans if args.trace else [],
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
