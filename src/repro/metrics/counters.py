"""Counter and observation recording.

Counters are plain named integers (``messages.BackCall``, ``gc.objects_scanned``).
The incremental local trace reports how each gc tick resolved via
``gc.traces_skipped`` / ``gc.traces_full`` (every trace that ran), and
``gc.objects_scanned`` aggregates clean- plus suspected-phase scans so
benchmarks can quote the incremental win as a single number.
Observations are named value series (``backinfo.outsets_distinct``) with
summary statistics.  A :class:`Snapshot` freezes the current state so a
benchmark can diff before/after an operation of interest.

The counter store is an exact ``dict`` and must stay one.  CPython's
specialized subscript, store and method-call paths apply to ``type(x) is
dict`` only; on a subclass such as ``collections.Counter`` the same update
costs about twice as much (EXPERIMENTS E27), and a simulated message pays
eight of them.  No writer relies on a default for missing names: every
update is ``store[name] = store.get(name, 0) + n``, so first and later
increments cost the same two C dict operations, and a counter exists from
its first touch on, in first-touch order (snapshots and the ledger's
``counter_order_digest`` depend on that order).

Hot paths do not call :meth:`MetricsRecorder.incr` with a freshly built
f-string per event; they hold an interned :class:`CounterCell` from
:meth:`MetricsRecorder.cell` instead.  A cell is a pre-resolved (store,
name) pair -- ``cell.add(n)`` is one dict update with a cached string hash,
with the name construction paid once at interning time.  Cells write into
the *same* counter store that ``incr``/``count``/``snapshot`` use, so the
two APIs are freely mixable per name: creating a cell never creates a
counter entry (only ``add`` does, exactly as only ``incr`` did), and
snapshots remain name- and insertion-order-identical whichever API wrote a
given counter.  The network, which updates eight counters per message,
goes one step further and writes the store directly under the cells'
interned names (:class:`repro.net.network._KindCells`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping


class CounterCell:
    """An interned handle on one named counter: ``add`` without lookups.

    Bound to the recorder's live counter mapping, so reads through
    ``count``/``snapshot``/``_counters`` always see cell writes (and vice
    versa -- ``incr`` on the same name hits the same slot).
    """

    __slots__ = ("_counts", "name")

    def __init__(self, counts: Dict[str, int], name: str):
        self._counts = counts
        self.name = name

    def add(self, amount: int = 1) -> None:
        counts = self._counts
        name = self.name
        counts[name] = counts.get(name, 0) + amount

    @property
    def value(self) -> int:
        return self._counts.get(self.name, 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CounterCell({self.name!r}={self.value})"


@dataclass(frozen=True)
class Snapshot:
    """Immutable copy of all counters at one instant."""

    counters: Mapping[str, int]

    def get(self, name: str, default: int = 0) -> int:
        return self.counters.get(name, default)

    def diff(self, earlier: "Snapshot") -> Dict[str, int]:
        """Counter deltas since ``earlier`` (only non-zero entries)."""
        names = set(self.counters) | set(earlier.counters)
        deltas = {
            name: self.counters.get(name, 0) - earlier.counters.get(name, 0)
            for name in names
        }
        return {name: delta for name, delta in deltas.items() if delta}


@dataclass
class MetricsRecorder:
    """Mutable sink for counters and observations."""

    _counters: Dict[str, int] = field(default_factory=dict)
    _observations: Dict[str, List[float]] = field(default_factory=dict)
    _cells: Dict[str, CounterCell] = field(default_factory=dict)

    # -- counters ---------------------------------------------------------

    def incr(self, name: str, amount: int = 1) -> None:
        # get/setitem instead of ``+=``: a plain dict has no default for a
        # missing name, and this way first and subsequent increments cost
        # the same two C dict operations (and match CounterCell.add exactly).
        counters = self._counters
        counters[name] = counters.get(name, 0) + amount

    def cell(self, name: str) -> CounterCell:
        """The interned :class:`CounterCell` for ``name`` (created lazily).

        Repeated calls return the identical object, so hot paths resolve a
        name once and keep the handle.  Creating a cell does not create a
        counter entry; only :meth:`CounterCell.add` (like :meth:`incr`)
        does.
        """
        cell = self._cells.get(name)
        if cell is None:
            cell = CounterCell(self._counters, name)
            self._cells[name] = cell
        return cell

    def count(self, name: str) -> int:
        return self._counters.get(name, 0)

    def counts_with_prefix(self, prefix: str) -> Dict[str, int]:
        return {
            name: value
            for name, value in self._counters.items()
            if name.startswith(prefix)
        }

    def total_with_prefix(self, prefix: str) -> int:
        return sum(self.counts_with_prefix(prefix).values())

    # -- messages ---------------------------------------------------------

    def message_count(self, kind: str) -> int:
        return self._counters.get(f"messages.{kind}", 0)

    # -- observations -------------------------------------------------------

    def observe(self, name: str, value: float) -> None:
        self._observations.setdefault(name, []).append(value)

    def observations(self, name: str) -> List[float]:
        return list(self._observations.get(name, []))

    def observation_mean(self, name: str) -> float:
        values = self._observations.get(name)
        if not values:
            return 0.0
        return sum(values) / len(values)

    def observation_max(self, name: str) -> float:
        values = self._observations.get(name)
        if not values:
            return 0.0
        return max(values)

    # -- snapshots ----------------------------------------------------------

    def snapshot(self) -> Snapshot:
        return Snapshot(counters=dict(self._counters))

    def reset(self) -> None:
        self._counters.clear()
        self._observations.clear()
