"""Golden digests of the five perf-ledger scenarios (smoke size).

``tests/golden/ledger_digests.json`` was recorded at the commit named in its
``recorded_at`` field, *before* the identifier types became tuples and the
local trace went one-pass-per-table.  A change that claims byte identity must
leave every digest here untouched; a change that moves one on purpose
re-records the file (run this module: ``PYTHONPATH=src python -m
tests.integration.test_golden_digests``) and says why in CHANGES.md.

The scenarios and the digest functions are the ledger's own
(``benchmarks/ledger``); this test only reads them.
"""

from __future__ import annotations

import gc
import json
from pathlib import Path

import pytest

from benchmarks.ledger import worker
from benchmarks.ledger.scenarios import SCENARIOS

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "golden" / "ledger_digests.json"
SEEDS = (3, 7)
DIGEST_KEYS = ("sim_digest", "counter_order_digest")


def smoke_digests(workload: str, seed: int) -> dict:
    try:
        result = worker.run(workload, seed, "timed", smoke=True)
    finally:
        # worker.run freezes the heap for its timed phase; a test process
        # wants its garbage back.
        gc.unfreeze()
    failed = [check for check in result["checks"] if not check[1]]
    assert not failed, failed
    return {key: result[key] for key in DIGEST_KEYS}


def record() -> dict:
    return {
        f"{workload}@{seed}": smoke_digests(workload, seed)
        for seed in SEEDS
        for workload in SCENARIOS
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())["digests"]


def test_golden_file_covers_every_scenario_and_seed(golden):
    expected = {f"{workload}@{seed}" for workload in SCENARIOS for seed in SEEDS}
    assert set(golden) == expected


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", sorted(SCENARIOS))
def test_smoke_scenario_matches_its_golden_digests(golden, workload, seed):
    assert smoke_digests(workload, seed) == golden[f"{workload}@{seed}"]


@pytest.mark.parametrize("seed", SEEDS)
def test_two_worker_leg_equals_the_sequential_one(golden, seed):
    sharded, sequential = golden[f"churn_gc_w2@{seed}"], golden[f"churn_gc@{seed}"]
    assert sharded["sim_digest"] == sequential["sim_digest"]
    # First-touch counter order is a sequential-engine notion.
    assert sharded["counter_order_digest"] is None


if __name__ == "__main__":
    import subprocess

    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
    ).stdout.strip()
    GOLDEN_PATH.write_text(
        json.dumps({"recorded_at": commit, "digests": record()}, indent=1) + "\n"
    )
