"""Command line of the perf ledger (see README.md in this directory).

    python -m benchmarks.ledger [--seed N] [--smoke] [--out FILE]
    python -m benchmarks.ledger compare A.json B.json
    python -m benchmarks.ledger spec > BENCHMARK.json
    python -m benchmarks.ledger --workload W --seed N --seconds S --trace 0|1

The last form is the benchmark contract of BENCHMARK.json: one workload,
one JSON object as the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def _bootstrap() -> None:
    """Put the simulator (``src/``) and the repo root on ``sys.path``."""
    src = REPO_ROOT / "src"
    if not (src / "repro").is_dir() or not (REPO_ROOT / "benchmarks" / "hostinfo.py").is_file():
        sys.stderr.write(
            f"benchmarks.ledger: no simulator under {src}; run from a full checkout\n"
        )
        raise SystemExit(2)
    for path in (str(REPO_ROOT), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)


def main(argv) -> int:
    _bootstrap()
    if argv[:1] == ["_worker"]:
        from . import worker

        return worker.main(argv[1:])
    if argv[:1] == ["compare"]:
        from . import compare

        if len(argv) != 3:
            sys.stderr.write("usage: python -m benchmarks.ledger compare A.json B.json\n")
            return 2
        return compare.main(argv[1], argv[2])

    from . import report, runner
    from .scenarios import SCENARIOS

    if argv == ["spec"]:
        print(json.dumps(report.contract_spec(), indent=2))
        return 0

    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload shrunk to < 2 s, one repeat; host times not comparable")
    parser.add_argument("--out", help="write the ledger document (JSON) here")
    parser.add_argument("--spans-out",
                        help="with --workload: write the traced run's raw coarse spans (JSON lines) here")
    parser.add_argument("--workload", choices=sorted(SCENARIOS),
                        help="contract mode: measure one workload, print one JSON object")
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="contract mode: wall time to spend on timed repeats")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="contract mode: 0 = end-to-end metrics, 1 = per-layer metrics")
    args = parser.parse_args(argv)

    # Read the host (load average included) before loading it.
    ledger = report.provenance(args.seed, args.smoke)

    def record(measured) -> None:
        document = report.workload_document(measured)
        ledger["workloads"][measured["workload"]] = document
        print(
            "\n".join(report.format_lines(measured["workload"], document, args.smoke)),
            flush=True,
        )

    if args.workload:
        if args.trace:
            measured = runner.measure(
                args.workload, args.seed, args.smoke, repeats=1,
                spans_out=args.spans_out,
            )
        else:
            measured = runner.measure(
                args.workload, args.seed, args.smoke, seconds=args.seconds, traced=False,
            )
        record(measured)
        line = report.contract_line(measured, bool(args.trace))
        print(json.dumps(line))
        return 0 if line["correct"] else 1

    base_wall_s = None
    for workload in SCENARIOS:
        measured = runner.measure(
            workload, args.seed, args.smoke,
            repeats=1 if args.smoke else runner.FULL_REPEATS,
            base_wall_s=base_wall_s,
        )
        if workload == "churn_gc":
            base_wall_s = measured["end_to_end"]["wall_s"]["value"]
        record(measured)
    print(json.dumps({k: v for k, v in ledger.items() if k != "workloads"}))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(ledger, fh, indent=1)
            fh.write("\n")
    failed = sum(len(doc["checks_failed"]) for doc in ledger["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
