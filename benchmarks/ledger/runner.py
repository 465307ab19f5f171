"""Runs repeats in fresh subprocesses and folds them into one report.

One fresh ``python -m benchmarks.ledger _worker`` process per (workload,
repeat) with ``PYTHONHASHSEED=0``; closed loop, one worker process at a
time (the 2-worker workload adds its two shard processes), so at most
``nproc`` busy processes on the 2-core reference host.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from . import metrics

REPO_ROOT = Path(__file__).resolve().parents[2]

WORKER_TIMEOUT_S = 150
FULL_REPEATS = 5
MIN_TIMED_REPEATS = 3
MAX_TIMED_REPEATS = 15


class WorkerFailed(RuntimeError):
    pass


def run_worker(
    workload: str,
    seed: int,
    mode: str,
    smoke: bool = False,
    spans_out: Optional[str] = None,
) -> Dict:
    """One repeat in a fresh interpreter; returns the worker's result."""
    command = [
        sys.executable, "-m", "benchmarks.ledger", "_worker",
        "--workload", workload, "--seed", str(seed), "--mode", mode,
    ]
    if smoke:
        command.append("--smoke")
    if spans_out:
        command += ["--spans-out", spans_out]
    env = dict(os.environ, PYTHONHASHSEED="0")
    # Own session: a timed-out worker is killed with the shard processes it
    # forked, and nothing outlives this call.
    process = subprocess.Popen(
        command, cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise WorkerFailed(f"{workload}/{mode}: no result within {WORKER_TIMEOUT_S}s")
    if process.returncode != 0:
        raise WorkerFailed(f"{workload}/{mode}: worker exited {process.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise WorkerFailed(f"{workload}/{mode}: worker printed no result")
    return json.loads(lines[-1])


def summarize(values: List[float], best=min) -> Dict[str, float]:
    """The reported value of a host metric over the repeats, with its spread.

    Times report the **minimum**: a fixed deterministic scenario has one
    speed on a quiet host and everything else a shared host does only adds
    to it.  On the reference host the minimum of six repeats moved 18 %
    between runs in a bad minute where their median moved 43 % (README.md).
    """
    return {
        "value": best(values),
        "n": len(values),
        "min": min(values),
        "median": statistics.median(values),
        "max": max(values),
    }


def measure(
    workload: str,
    seed: int,
    smoke: bool = False,
    repeats: Optional[int] = None,
    seconds: Optional[float] = None,
    traced: bool = True,
    spans_out: Optional[str] = None,
    base_wall_s: Optional[float] = None,
) -> Dict:
    """All runs of one workload: timed repeats, the traced run, the audit.

    ``repeats`` fixes the number of timed repeats; ``seconds`` instead keeps
    launching repeats while that much wall time has not been spent on them
    (at least MIN_TIMED_REPEATS, at most MAX_TIMED_REPEATS).
    """
    from .scenarios import SCENARIOS

    timed: List[Dict] = []
    loop_started = time.perf_counter()
    while True:
        timed.append(run_worker(workload, seed, "timed", smoke))
        if repeats is not None:
            if len(timed) >= repeats:
                break
        elif len(timed) >= MAX_TIMED_REPEATS or (
            len(timed) >= MIN_TIMED_REPEATS
            and time.perf_counter() - loop_started >= seconds
        ):
            break
    first = timed[0]
    checks: List[List] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks.append([name, bool(ok), detail])

    for index, result in enumerate(timed):
        for name, ok, detail in result["checks"]:
            check(f"repeat{index + 1}.{name}", ok, detail)
        if index:
            check(
                f"repeat{index + 1}.digest_eq_repeat1",
                result["sim_digest"] == first["sim_digest"]
                and result["counter_order_digest"] == first["counter_order_digest"],
                f"{result['sim_digest']} vs {first['sim_digest']}",
            )

    traced_result = audit_result = None
    if traced:
        traced_result = run_worker(workload, seed, "traced", smoke, spans_out)
        check(
            "traced.digest_eq_untraced",
            traced_result["sim_digest"] == first["sim_digest"],
            f"{traced_result['sim_digest']} vs {first['sim_digest']}",
        )
    if SCENARIOS[workload].audit_interval:
        audit_result = run_worker(workload, seed, "audit", smoke)
        for name, ok, detail in audit_result["checks"]:
            check(f"audit.{name}", ok, detail)
        # The audit runs the sequential engine with the oracle reading
        # along: for churn_gc_w2 this is the "digest equals churn_gc" check.
        check(
            "audit.digest_eq_timed",
            audit_result["sim_digest"] == first["sim_digest"],
            f"{audit_result['sim_digest']} vs {first['sim_digest']}",
        )

    end_to_end: Dict[str, Dict] = {
        "wall_s": summarize([result["wall_s"] for result in timed]),
        "setup_s": summarize([result["setup_s"] for result in timed]),
        "peak_rss_mb": summarize(
            [result["peak_rss_mb"] for result in timed], best=statistics.median
        ),
    }
    end_to_end.update(metrics.simulated_end_to_end(workload, first, audit_result))
    failed = [c for c in checks if not c[1]]
    end_to_end["failed_checks"] = {"value": len(failed), "n": len(checks)}

    report: Dict = {
        "workload": workload,
        "sim_digest": first["sim_digest"],
        "counter_order_digest": first["counter_order_digest"],
        "events": first["events"],
        "checks_attempted": len(checks),
        "checks_failed": [f"{name}: {detail}" for name, _ok, detail in failed],
        "end_to_end": end_to_end,
    }
    if traced:
        wall_s = end_to_end["wall_s"]["value"]
        if workload == "churn_gc_w2" and base_wall_s is None:
            base_wall_s = run_worker("churn_gc", seed, "timed", smoke)["wall_s"]
        report["per_layer"] = metrics.per_layer(first, wall_s, traced_result, base_wall_s)
        report["layer_shares"] = metrics.layer_shares(traced_result)
    return report
