"""``python -m benchmarks.ledger compare A.json B.json``

Judges ledger B against ledger A, one (workload, metric) at a time:

- *exact* metrics and ``sim_digest`` must be identical (``differs`` fails);
- *host* end-to-end metrics get ``same`` / ``better`` / ``worse`` by their
  bound on the reported values, or ``unresolved`` when the min-max spread of either
  side is wider than the bound and the two ranges overlap;
- per-layer host and trace rows are printed for reading and never judged:
  they are single samples or derived from the rows above.

Exit status is non-zero on any ``worse`` or ``differs``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

FAILING = ("worse", "differs")


def host_verdict(a: Dict, b: Dict) -> str:
    """Verdict for a lower-is-better host metric of B against A."""
    bound = a["bound"]
    base = a["value"]
    if bound == 0 or not base:
        return "same" if b["value"] <= base else "worse"

    def wide(row):
        return (row["max"] - row["min"]) / row["value"] > bound

    overlap = a["min"] <= b["max"] and b["min"] <= a["max"]
    if (wide(a) or wide(b)) and overlap:
        return "unresolved"
    change = (b["value"] - base) / base
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def compare(a: Dict, b: Dict) -> List[Tuple[str, str, str, str]]:
    """``(workload, metric, verdict, detail)`` rows for every judged pair."""
    rows = []
    for workload, doc_a in a["workloads"].items():
        doc_b = b["workloads"].get(workload)
        if doc_b is None:
            rows.append((workload, "*", "differs", "workload missing from B"))
            continue
        same_digest = doc_a["sim_digest"] == doc_b["sim_digest"]
        rows.append((
            workload, "sim_digest", "same" if same_digest else "differs",
            f"{doc_a['sim_digest']} -> {doc_b['sim_digest']}",
        ))
        for section in ("end_to_end", "per_layer"):
            for name, row_a in doc_a[section].items():
                row_b = doc_b[section].get(name)
                if row_b is None:
                    rows.append((workload, name, "differs", "metric missing from B"))
                    continue
                detail = f"{row_a['value']:.6g} -> {row_b['value']:.6g} {row_a['unit']}"
                if row_a["kind"] == "exact":
                    verdict = "same" if row_a["value"] == row_b["value"] else "differs"
                elif section == "end_to_end":
                    verdict = host_verdict(row_a, row_b)
                else:
                    continue
                rows.append((workload, name, verdict, detail))
    return rows


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    if a["smoke"] or b["smoke"]:
        print("warning: a smoke ledger's host times are not comparable")
    if a["seed"] != b["seed"]:
        print(f"warning: seeds differ ({a['seed']} vs {b['seed']}): exact metrics will too")
    rows = compare(a, b)
    for workload, name, verdict, detail in rows:
        print(f"{workload:12s} {name:44s} {verdict:10s} {detail}")
    failing = [row for row in rows if row[2] in FAILING]
    counts = {v: sum(1 for r in rows if r[2] == v) for v in
              ("same", "better", "worse", "unresolved", "differs")}
    print("  ".join(f"{k}={v}" for k, v in counts.items()))
    return 1 if failing else 0
