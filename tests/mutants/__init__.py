"""Named source mutants, each with the fastest test that kills it.

A mutant is one small edit of a guard in ``src/``: the text it replaces
(which must occur exactly once in its file), the text it puts in, and the
test id expected to fail once it is in.  :func:`run_mutant` applies it to a
copy of ``src/`` and runs pytest against that copy in a subprocess, so the
working tree is never edited.

Tier-1 (``tests/mutants/test_mutants.py``) runs each mutant's named killer
only.  ``python -m tests.mutants --all`` runs the whole tier-1 suite per
mutant instead and names the first test that fails; ``python -m
tests.mutants NAME ...`` runs the named killers of the named mutants.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import List, NamedTuple, Optional

ROOT = Path(__file__).resolve().parents[2]


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/repro
    old: str
    new: str
    killer: str  # a pytest node id, relative to the repository root


_CHANNEL = "gc/channel.py"
_ENGINE = "core/backtrace/engine.py"
_EXPORTS = "tests/integration/test_parallel_equivalence.py::test_exports_of_a_forked_run_equal_the_sequential_twins"

MUTANTS: List[Mutant] = [
    Mutant(
        "duplicate-update-not-reacked",
        _CHANNEL,
        "        if payload.seq <= anchor:\n"
        "            self._site.send(src, UpdateAck(seq=anchor))\n",
        "        if payload.seq <= anchor:\n",
        "tests/unit/test_reliable_updates.py::test_duplicated_update_is_suppressed_but_reacked",
    ),
    Mutant(
        "delta-applied-past-a-gap",
        _CHANNEL,
        "        if not payload.full and payload.seq != anchor + 1:\n",
        "        if not payload.full and payload.seq < anchor + 1:\n",
        "tests/unit/test_delta_updates.py::test_gap_requests_refresh_and_full_update_reanchors",
    ),
    Mutant(
        "given-up-peer-not-desynced",
        _CHANNEL,
        "            self._metrics.incr(names.UPDATE_RETRANSMITS_ABANDONED)\n"
        "            peer.desynced = True\n",
        "            self._metrics.incr(names.UPDATE_RETRANSMITS_ABANDONED)\n",
        "tests/unit/test_reliable_updates.py::test_abandoned_chain_marks_peer_and_next_tick_repairs_it",
    ),
    Mutant(
        "crashed-timer-not-desynced",
        _CHANNEL,
        "            # left to resend: the next GC tick repairs the peer instead.\n"
        "            peer.desynced = True\n",
        "            # left to resend: the next GC tick repairs the peer instead.\n",
        "tests/unit/test_reliable_updates.py::test_crashed_senders_expired_timer_leaves_the_peer_desynced",
    ),
    Mutant(
        "out-of-order-duplicate-not-suppressed",
        _CHANNEL,
        "        if seq <= self.high_water or seq in self.pending:\n",
        "        if seq <= self.high_water:\n",
        "tests/unit/test_reliable_updates.py::test_dedup_window_exact_with_gaps",
    ),
    Mutant(
        "duplicate-back-reply-counted",
        _ENGINE,
        "        if src in frame.replied:\n",
        "        if False:\n",
        "tests/unit/test_engine_edge_cases.py::test_duplicated_back_reply_counts_once",
    ),
    Mutant(
        "duplicate-back-call-restepped",
        _ENGINE,
        "        if key in record.seen_calls:\n",
        "        if False:\n",
        "tests/unit/test_engine_edge_cases.py::test_duplicated_back_call_is_stepped_once",
    ),
    Mutant(
        "late-call-resurrects-finished-trace",
        _ENGINE,
        "            if self.scheduler.now < expiry:\n",
        "            if False:\n",
        "tests/unit/test_engine_edge_cases.py::test_late_back_call_does_not_resurrect_a_finished_trace",
    ),
    Mutant(
        "clean-rule-not-forcing-live",
        _ENGINE,
        '            self.metrics.incr("backtrace.clean_rule_hits")\n'
        "            self._complete(frame, TraceOutcome.LIVE)\n",
        '            self.metrics.incr("backtrace.clean_rule_hits")\n',
        "tests/unit/test_barriers_site.py::test_clean_rule_forces_live_where_a_visited_mark_answers_garbage",
    ),
    Mutant(
        "links-share-one-latency-stream",
        "net/network.py",
        '            rng=streams.stream(f"net:{src}->{dst}"),\n',
        '            rng=streams.stream("network"),\n',
        _EXPORTS,
    ),
    Mutant(
        "network-config-admits-a-shared-stream",
        "config.py",
        "        if not self.pair_rng_streams:\n",
        "        if False:\n",
        "tests/unit/test_ids_config.py::test_network_config_rejects_bad_values[kwargs2]",
    ),
    Mutant(
        "graph-snapshot-reads-the-coordinators-heaps",
        "analysis/export.py",
        "    return sim.snapshot()\n",
        "    return Simulation.snapshot(sim)\n",
        _EXPORTS,
    ),
]


def apply(mutant: Mutant, workdir: Path) -> Path:
    """A copy of ``src/`` under ``workdir`` with ``mutant`` applied; returns
    the copy's ``src``.  Raises if the replaced text is not in the source
    exactly once (the guard moved: the mutant needs updating)."""
    src = workdir / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    target = src / "repro" / mutant.path
    text = target.read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"mutant {mutant.name}: replaced text found {count} times in {mutant.path}")
    target.write_text(text.replace(mutant.old, mutant.new))
    return src


def run_mutant(mutant: Mutant, workdir: Path, whole_suite: bool = False) -> subprocess.CompletedProcess:
    """Run the killer (or, with ``whole_suite``, tier-1 up to its first
    failure) against a mutated copy of ``src/``."""
    src = apply(mutant, workdir)
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    targets = ["--ignore=tests/mutants"] if whole_suite else [mutant.killer]
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *targets],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
    )


def first_failure(output: str) -> Optional[str]:
    """The node id of the first ``FAILED`` or ``ERROR`` line of pytest's summary."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split()[1]
    return None
