"""Turns workload reports into the ledger document and its printed form."""

from __future__ import annotations

import subprocess
from typing import Dict, List, Optional

from . import metrics
from .runner import REPO_ROOT

SCHEMA = 1


def git_commit() -> Optional[str]:
    """HEAD of the repository, or None outside a git checkout."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed: int, smoke: bool) -> Dict:
    """Host header, seed, hash seed, commit: what makes numbers readable."""
    from benchmarks.hostinfo import host_header

    host = host_header()
    load = (host.get("load_avg") or {}).get("1m")
    cpus = host.get("cpus_available") or host.get("cpus") or 1
    return {
        "schema": SCHEMA,
        "host": host,
        # Host times taken while something else competes for the cores are
        # not comparable; say so in the document itself.
        "noisy_host": bool(load is not None and load > cpus),
        "python_hash_seed": "0",
        "seed": seed,
        "git_commit": git_commit(),
        "smoke": smoke,
        "workloads": {},
    }


def entry(name: str, raw) -> Dict:
    """One metric of one workload with its catalogue facts attached."""
    metric = metrics.BY_NAME[name]
    row = dict(raw) if isinstance(raw, dict) else {"value": raw}
    row.update(unit=metric.unit, kind=metric.kind, better=metric.better)
    if metric.bound is not None:
        row["bound"] = metric.bound
    return row


def workload_document(report: Dict) -> Dict:
    document = {
        key: report[key]
        for key in (
            "sim_digest", "counter_order_digest", "events",
            "checks_attempted", "checks_failed",
        )
    }
    document["end_to_end"] = {
        name: entry(name, raw) for name, raw in report["end_to_end"].items()
    }
    document["per_layer"] = {
        name: entry(name, raw)
        for name, raw in report.get("per_layer", {}).items()
    }
    document["layer_shares"] = [
        {"layer": layer, "self_ns": ns, "share": share}
        for layer, ns, share in report.get("layer_shares", [])
    ]
    return document


def _spread(row: Dict) -> str:
    if "min" in row:
        return f"(n={row['n']}, {row['min']:.6g}-{row['max']:.6g}, median {row['median']:.6g})"
    if "percentile" in row:
        return f"(p{row['percentile']:g} of n={row['n']}, {row['beyond']} samples beyond)"
    if "beyond" in row:
        return f"(n={row['n']}, {row['beyond']} samples beyond)"
    if "n" in row:
        return f"(n={row['n']})"
    return ""


def format_lines(workload: str, document: Dict, smoke: bool) -> List[str]:
    """``workload  name  value  unit  (n, min-max)`` for every metric."""
    lines = []
    flag = "  smoke: true" if smoke else ""
    for section in ("end_to_end", "per_layer"):
        for name, row in document[section].items():
            lines.append(
                f"{workload:12s} {name:44s} {row['value']:>16.6g} "
                f"{row['unit']:12s} {row['kind']:5s} {_spread(row)}{flag}"
            )
    for share in document["layer_shares"]:
        lines.append(
            f"{workload:12s} {'self-time share: ' + share['layer']:44s} "
            f"{share['share']:>16.4f} {'ratio':12s} trace"
        )
    lines.append(f"{workload:12s} {'sim_digest':44s} {document['sim_digest']:>32s}")
    for failure in document["checks_failed"]:
        lines.append(f"{workload:12s} CHECK FAILED  {failure}")
    return lines


def contract_spec() -> Dict:
    """What BENCHMARK.json must say, from the catalogue (``spec`` command)."""
    from .scenarios import WHY

    return {
        "command": ["python3", "-m", "benchmarks.ledger"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": 12,
        "workloads": [{"name": name, "why": WHY[name]} for name in metrics.ALL],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in metrics.CONTRACT_END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in metrics.CONTRACT_PER_LAYER
        ],
    }


def contract_line(report: Dict, trace: bool) -> Dict:
    """The one JSON object the benchmark contract asks for."""
    wanted = metrics.CONTRACT_PER_LAYER if trace else metrics.CONTRACT_END_TO_END
    source = dict(report["end_to_end"])
    source.update({k: {"value": v} for k, v in report.get("per_layer", {}).items()})
    failed = len(report["checks_failed"])
    return {
        "correct": failed == 0,
        "attempted": report["checks_attempted"],
        "failed": failed,
        "metrics": {
            # A metric a workload does not have reads 0: the contract wants
            # every per-layer name from every workload.
            m.name: {"value": source.get(m.name, {"value": 0.0})["value"], "unit": m.unit}
            for m in wanted
        },
    }
