"""The per-site local trace (sections 2, 3, 5, 6.2).

One local trace performs, in order:

1. **Clean phase** (:mod:`repro.core.distance`): trace from persistent roots,
   application-variable roots, and clean inrefs in increasing distance order,
   marking clean objects and computing clean-outref distances.
2. **Suspected phase** (:mod:`repro.core.backinfo`): trace the remaining
   suspected region from suspected inrefs, computing their outsets (and thus
   the insets of suspected outrefs) for future back traces.
3. **Outref reconciliation**: refresh distances and clean/suspected states;
   trim outrefs reached by neither phase (unless pinned by the insert
   barrier or held in a mutator variable) and build per-target-site update
   messages carrying removals and distance changes.
4. **Sweep**: delete local objects reached by neither phase.  Inrefs flagged
   garbage by a back trace are not roots, so confirmed cycles die here; their
   table entries persist until update messages empty their source lists.

To model the non-atomic traces of section 6.2, computation (steps 1-3 deciding
everything) is separated from **commit** (installing new tables and sweeping).
The site keeps serving back traces from the old tables between the two, and
replays transfer barriers that arrived in the window onto the new tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..config import GcConfig
from ..core.backinfo import (
    BackInfoResult,
    TraceEnvironment,
    compute_outsets_bottom_up,
    compute_outsets_independent,
    invert_outsets,
)
from ..core.distance import CleanPhaseResult, trace_clean_phase_flat
from ..ids import ObjectId, SiteId
from ..metrics import MetricsRecorder, names
from ..store.heap import Heap
from .inrefs import InrefScan, InrefTable
from .outrefs import OutrefTable, Verdict
from .update import UpdateDeltaPayload, UpdatePayload

# The perf ledger's tracer (``benchmarks/ledger/tracer.py``) still looks this
# name up when it installs; nothing calls it.  It goes with ROADMAP 3(a).
trace_clean_phase_vector = trace_clean_phase_flat


@dataclass
class LocalTraceResult:
    """Everything one local trace decided, ready to be committed."""

    # "full" or "distance" (see :meth:`LocalCollector.plan_trace`); both ran
    # the same trace.  Skipped ticks never produce a result at all.
    mode: str = "full"
    # The variable-held outrefs the trace was computed against (cache key).
    variable_outrefs: FrozenSet[ObjectId] = frozenset()
    suspected_objects: Set[ObjectId] = field(default_factory=set)
    outsets: Dict[ObjectId, FrozenSet[ObjectId]] = field(default_factory=dict)
    insets: Dict[ObjectId, FrozenSet[ObjectId]] = field(default_factory=dict)
    # outref target -> (is_clean, distance); targets absent here are trimmed
    # (``removals``) unless the insert barrier pins them.
    outref_states: Dict[ObjectId, Tuple[bool, int]] = field(default_factory=dict)
    # The change lists commit installs: the outref verdicts and the inref
    # outsets that differ from what the tables held when compute read them.
    outref_changes: Dict[ObjectId, Verdict] = field(default_factory=dict)
    outset_changes: Dict[ObjectId, FrozenSet[ObjectId]] = field(default_factory=dict)
    removals: List[ObjectId] = field(default_factory=list)
    swept: List[ObjectId] = field(default_factory=list)
    updates_by_site: Dict[SiteId, UpdatePayload] = field(default_factory=dict)
    backinfo: Optional[BackInfoResult] = None
    clean_phase: Optional[CleanPhaseResult] = None


@dataclass
class _TraceCache:
    """The state the last committed trace was committed against.

    ``epochs`` is (heap mutation, inref structure, inref distance, outref
    mutation) captured at the end of commit.
    """

    epochs: Tuple[int, int, int, int]
    variable_outrefs: FrozenSet[ObjectId]


class _TraceCells:
    """Interned counter cells for the per-trace accounting (see
    :meth:`MetricsRecorder.cell`; a cell creates its counter on first add,
    exactly as ``incr`` did, so first-touch order is unchanged)."""

    __slots__ = (
        "local_traces",
        "traces_full",
        "traces_skipped",
        "clean_objects_scanned",
        "suspected_objects_scanned",
        "objects_scanned",
        "objects_swept",
        "unions_computed",
        "union_memo_hits",
        "full_refreshes",
        "deltas_sent",
    )

    def __init__(self, metrics: MetricsRecorder):
        cell = metrics.cell
        self.local_traces = cell("gc.local_traces")
        self.traces_full = cell("gc.traces_full")
        self.traces_skipped = cell("gc.traces_skipped")
        self.clean_objects_scanned = cell("gc.clean_objects_scanned")
        self.suspected_objects_scanned = cell("gc.suspected_objects_scanned")
        self.objects_scanned = cell("gc.objects_scanned")
        self.objects_swept = cell("gc.objects_swept")
        self.unions_computed = cell("backinfo.unions_computed")
        self.union_memo_hits = cell("backinfo.union_memo_hits")
        self.full_refreshes = cell(names.UPDATE_FULL_REFRESHES)
        self.deltas_sent = cell(names.UPDATE_DELTAS_SENT)


class LocalCollector:
    """Runs local traces for one site."""

    def __init__(
        self,
        heap: Heap,
        inrefs: InrefTable,
        outrefs: OutrefTable,
        config: GcConfig,
        metrics: Optional[MetricsRecorder] = None,
    ):
        self.heap = heap
        self.inrefs = inrefs
        self.outrefs = outrefs
        self.config = config
        self.metrics = metrics or MetricsRecorder()
        self._cells = _TraceCells(self.metrics)
        # What the last update chain told each destination: dst -> (outref
        # target -> last shipped distance).  The committed table is diffed
        # against it to build :class:`UpdateDeltaPayload`s, so it must be
        # re-based whenever a full state transfer goes out (see
        # :meth:`build_full_update`).
        self._shipped: Dict[SiteId, Dict[ObjectId, int]] = {}
        # Outref mutation epoch as of the last delta build: when unchanged
        # (and no periodic refresh is due) no entry can have moved, so the
        # whole diff is skipped -- a quiescent tick builds nothing at all.
        self._shipped_epoch: Optional[int] = None
        # Full traces committed so far; every ``full_update_period``-th one
        # sends the periodic full refresh.
        self._full_traces_run = 0
        self.traces_run = 0
        # Incremental-trace state (the mutation-epoch / dirty-tracking layer).
        self._cached: Optional[_TraceCache] = None
        self._ticks_since_full = 0
        self._epochs_at_compute: Optional[Tuple[int, int, int, int]] = None

    # -- incremental planning ----------------------------------------------------

    def _current_epochs(self) -> Tuple[int, int, int, int]:
        return (
            self.heap.mutation_epoch,
            self.inrefs.structure_epoch,
            self.inrefs.distance_epoch,
            self.outrefs.mutation_epoch,
        )

    def plan_trace(self, variable_outrefs: Iterable[ObjectId] = ()) -> str:
        """Decide how the next gc tick should resolve: skip, distance or full.

        - ``"skip"``: every epoch and the variable-outref set are those of
          the last committed trace; retracing would recompute identical
          tables and (thanks to the ``_shipped`` dedup) send no new updates.
        - ``"distance"``: only the inref distance epoch moved, i.e. some
          inref's minimum distance changed.
        - ``"full"``: no committed trace to compare against, the skip budget
          (``full_trace_every_n``) is spent, or the heap, the inref
          structure, the outrefs or the variable outrefs moved.

        Distance and full ticks run the same trace.  A distance trace leaves
        the skip budget and the full-refresh cadence alone (see ``commit``).
        """
        self._ticks_since_full += 1
        cache = self._cached
        if cache is None or self._ticks_since_full > self.config.full_trace_every_n:
            return "full"
        now = self._current_epochs()
        then = cache.epochs
        if (now[0], now[1], now[3]) != (then[0], then[1], then[3]):
            return "full"
        if frozenset(variable_outrefs) != cache.variable_outrefs:
            return "full"
        return "skip" if now[2] == then[2] else "distance"

    def record_skip(self) -> None:
        """Book-keeping for a tick resolved without any trace."""
        self._cells.traces_skipped.add()

    def predict_quiet_ticks(self, variable_outrefs: Iterable[ObjectId] = ()) -> int:
        """How many upcoming gc ticks provably send nothing, absent new input.

        A side-effect-free twin of :meth:`plan_trace`'s skip test (that
        method mutates the tick counter, so the parallel engine's
        earliest-output-time scan cannot simply call it): with every
        mutation epoch equal to the cached trace's and the variable-root set
        unchanged, the next ``full_trace_every_n - _ticks_since_full`` ticks
        resolve as skips.  The budget-exhausting *forced full* is looked
        through as well: with the shipped epoch also current, its
        recomputation equals the cache and :meth:`_build_updates` ships
        nothing -- unless that full lands on the periodic
        full-refresh cadence, which is where the prediction stops.  The
        count is a conservative lower bound, never exact: any event that
        perturbs the site before a predicted tick fires makes later ticks
        louder, and the caller's safety argument must (and does) charge
        such perturbations to the perturbing event instead.
        """
        cache = self._cached
        if cache is None:
            return 0
        if self._current_epochs() != cache.epochs:
            return 0
        if frozenset(variable_outrefs) != cache.variable_outrefs:
            return 0
        quiet = max(0, self.config.full_trace_every_n - self._ticks_since_full)
        if self._shipped_epoch == self.outrefs.mutation_epoch:
            # Each silent forced full resets the skip budget: one full tick
            # plus a fresh run of skips, repeated until a full lands on the
            # refresh cadence ((_full_traces_run - 1) % period == 0 at
            # build time, i.e. the k-th future full is loud when
            # (_full_traces_run + k - 1) % period == 0).
            fulls = self._full_traces_run
            while fulls % self.config.full_update_period != 0:
                quiet += 1 + self.config.full_trace_every_n
                fulls += 1
        return quiet

    # -- computation ------------------------------------------------------------

    def compute(
        self, variable_outrefs: Iterable[ObjectId] = (), mode: str = "full"
    ) -> LocalTraceResult:
        """Decide the outcome of a local trace without changing any state.

        Reads each table once: :meth:`InrefTable.scan_for_trace` yields the
        clean roots and the suspected inrefs, and
        :meth:`OutrefTable.scan_for_trace` the outref snapshot and the pins;
        then diffs the verdicts against the tables into the change lists.
        """
        self._epochs_at_compute = self._current_epochs()
        scan = self.inrefs.scan_for_trace()
        # Sorted target order, so ``result.removals`` is sorted by construction.
        snapshot_outref_order, pinned = self.outrefs.scan_for_trace()
        result = LocalTraceResult(
            mode=mode, variable_outrefs=frozenset(variable_outrefs)
        )
        self._trace_heap(result, scan, pinned, variable_outrefs)

        # Phase 3: reconcile outrefs.  A suspected outref sits one past the
        # nearest inref of its inset.
        states = result.outref_states
        for target, nearest in self.inrefs.nearest(result.insets).items():
            states[target] = (False, 1 + nearest)
        result.removals = [
            target
            for target in snapshot_outref_order
            if target not in states and target not in pinned
        ]
        self._diff_against_tables(result)
        return result

    def _diff_against_tables(self, result: LocalTraceResult) -> None:
        result.outref_changes = self.outrefs.diff_verdicts(
            result.outref_states, result.insets
        )
        result.outset_changes = self.inrefs.diff_outsets(result.outsets)

    def _trace_heap(
        self,
        result: LocalTraceResult,
        scan: InrefScan,
        pinned: Set[ObjectId],
        variable_outrefs: Iterable[ObjectId],
    ) -> None:
        """Phases 1 and 2: the clean and the suspected trace."""
        # Phase 1: clean trace.  Persistent and variable roots at distance 0;
        # clean inrefs at their estimated distances.
        roots: List[Tuple[ObjectId, int]] = list(
            zip(sorted(self.heap.persistent_roots), repeat(0))
        )
        roots += zip(sorted(self.heap.variable_roots), repeat(0))
        roots += scan.clean_roots
        clean_phase = trace_clean_phase_flat(
            self.heap, roots, variable_outrefs=variable_outrefs
        )
        result.clean_phase = clean_phase

        # Phase 2: suspected trace computing outsets/insets over the clean
        # phase's marks.  An outref is clean when the clean phase reached it
        # or the insert barrier pins it.
        clean_outrefs = clean_phase.outref_distances
        clean_or_pinned = clean_outrefs.keys() | pinned if pinned else clean_outrefs
        env = TraceEnvironment(
            heap=self.heap,
            marks=clean_phase.marks,
            is_clean_outref=clean_or_pinned.__contains__,
        )
        if self.config.backinfo_algorithm == "independent":
            backinfo = compute_outsets_independent(env, scan.suspected_targets)
        else:
            backinfo = compute_outsets_bottom_up(env, scan.suspected_targets)
        result.backinfo = backinfo
        result.suspected_objects = backinfo.visited_objects
        result.outsets = backinfo.outsets
        result.insets = invert_outsets(backinfo.outsets)
        result.outref_states = {
            target: (True, distance) for target, distance in clean_outrefs.items()
        }
        self._record_trace(result)

    def _build_updates(self, result: LocalTraceResult) -> None:
        """Batch per-target-site update payloads at *commit* time.

        Runs against the reconciled outref table, so that a full update's
        "complete list" semantics cannot miss entries created while a
        non-atomic trace was computing.  Ships :class:`UpdateDeltaPayload`
        diffs against the per-destination shipped state and reserves full
        state transfers for every ``full_update_period``-th *full* trace; a
        distance trace does not count (the acknowledged channel and the
        gap-triggered refresh cover loss, so the periodic cadence can be
        sparse).
        """
        if result.mode == "full":
            self._full_traces_run += 1
        full_refresh = (
            result.mode == "full"
            and (self._full_traces_run - 1) % self.config.full_update_period == 0
        )
        outrefs_epoch = self.outrefs.mutation_epoch
        if not full_refresh and self._shipped_epoch == outrefs_epoch:
            # Nothing in the table moved since the last build: every diff
            # would be empty.  A quiescent steady-state tick ends here.
            return
        if __debug__:
            assert result.removals == sorted(result.removals)
        # Outrefs the trace trimmed must be reported even when they were
        # never shipped in an update: the peer learned of us as a source
        # through the *insert protocol*, so the shipped-state diff alone
        # would never empty its inref source list (acyclic distributed
        # garbage would survive forever).
        explicit_removals: Dict[SiteId, List[ObjectId]] = {}
        for target in result.removals:
            if target not in self.outrefs:  # actually removed (not pinned)
                explicit_removals.setdefault(target.site, []).append(target)
        if full_refresh:
            self._ship_full(result, explicit_removals)
        else:
            self._ship_deltas(result, explicit_removals)
        self._shipped_epoch = outrefs_epoch

    def _ship_full(
        self, result: LocalTraceResult, explicit_removals: Dict[SiteId, List[ObjectId]]
    ) -> None:
        """The periodic refresh: every peer that holds or held one of our
        outrefs gets the complete list (the receiver-side prune replaces
        explicit removals, and the payload re-anchors a desynced peer)."""
        current = self.outrefs.distances_by_site()
        for site in sorted(set(current) | set(self._shipped) | set(explicit_removals)):
            cur = current.get(site, {})
            if not cur and site not in self._shipped and site not in explicit_removals:
                continue
            result.updates_by_site[site] = UpdatePayload(tuple(cur.items()))
            self._cells.full_refreshes.add()
            # ``cur`` is this walk's own dict: the shipped state can keep it.
            if cur:
                self._shipped[site] = cur
            else:
                self._shipped.pop(site, None)

    def _ship_deltas(
        self, result: LocalTraceResult, explicit_removals: Dict[SiteId, List[ObjectId]]
    ) -> None:
        """A delta to each peer whose shipped view differs from the table,
        diffed over the outref table's changed set only."""
        changes = self.outrefs.scan_committed()
        shipped_by_site = self._shipped
        for site in sorted(changes.keys() | explicit_removals.keys()):
            shipped = shipped_by_site.get(site)
            if shipped is None:
                shipped = {}
            adds: List[Tuple[ObjectId, int]] = []
            moved: List[Tuple[ObjectId, int]] = []
            removals: List[ObjectId] = []
            for target, distance in changes.get(site, ()):
                shipped_distance = shipped.get(target)
                if distance is None:
                    if shipped_distance is not None:
                        removals.append(target)
                        del shipped[target]
                elif shipped_distance is None:
                    adds.append((target, distance))
                    shipped[target] = distance
                elif shipped_distance != distance:
                    moved.append((target, distance))
                    shipped[target] = distance
            explicit = explicit_removals.get(site)
            if explicit:
                removals = sorted(set(removals).union(explicit))
            elif not (adds or moved or removals):
                continue
            result.updates_by_site[site] = UpdateDeltaPayload(
                adds=tuple(adds), distances=tuple(moved), removals=tuple(removals)
            )
            self._cells.deltas_sent.add()
            if shipped:
                shipped_by_site[site] = shipped
            else:
                shipped_by_site.pop(site, None)

    def check_tables(self) -> None:
        """Assert the premises of the O(changed) table passes: the inref
        table's changed set and the outref table's records and changed set,
        the latter against what the update diffs left each peer holding
        (test/debug support; O(table))."""
        self.inrefs.check_changed()
        self.outrefs.check_changed(self._shipped)

    def build_full_update(self, dst: SiteId) -> UpdatePayload:
        """The complete current outref list toward ``dst`` (idempotent).

        The site layer sends these for retransmissions, desynced-peer repair,
        and refresh requests.  The shipped state is re-based on the transfer
        so subsequent deltas diff against what the peer now holds.
        """
        distances = self.outrefs.distances_to(dst)
        if distances:
            self._shipped[dst] = dict(distances)
        else:
            self._shipped.pop(dst, None)
        return UpdatePayload(distances)

    def _record_trace(self, result: LocalTraceResult) -> None:
        cells = self._cells
        clean_phase, backinfo = result.clean_phase, result.backinfo
        cells.local_traces.add()
        cells.traces_full.add()
        cells.clean_objects_scanned.add(clean_phase.objects_scanned)
        cells.objects_scanned.add(clean_phase.objects_scanned)
        cells.suspected_objects_scanned.add(backinfo.objects_scanned)
        cells.objects_scanned.add(backinfo.objects_scanned)
        cells.unions_computed.add(backinfo.unions_computed)
        cells.union_memo_hits.add(backinfo.union_memo_hits)
        observe = self.metrics.observe
        observe("backinfo.distinct_outsets", backinfo.distinct_outsets)
        observe("backinfo.inset_storage_units", sum(map(len, result.insets.values())))

    # -- commit --------------------------------------------------------------------

    def commit(
        self,
        result: LocalTraceResult,
        replay_barrier_inrefs: Iterable[ObjectId] = (),
    ) -> List[ObjectId]:
        """Install the trace outcome: rewrite tables and sweep the heap.

        ``replay_barrier_inrefs`` are inrefs the transfer barrier cleaned
        while this trace was computing (section 6.2): their barrier-clean
        status and that of the outrefs in their *new* outsets is re-applied
        on the new tables.  Returns the list of swept object ids.
        """
        # Anything (messages, barriers) that slipped in between compute and
        # commit -- only possible for non-atomic traces -- makes the computed
        # result unsafe to cache: the next tick must retrace.
        interleaved = self._current_epochs() != self._epochs_at_compute
        outrefs = self.outrefs
        inrefs = self.inrefs
        # Rewrite outref entries.
        for target in result.removals:
            entry = outrefs.get(target)
            if entry is None:
                continue
            if entry.pin_count > 0:
                # Pinned since computation started: retain (insert barrier).
                continue
            outrefs.remove(target)
        if interleaved:
            # The tables moved since compute diffed against them.
            self._diff_against_tables(result)
        outrefs.install_trace_states(result.outref_changes, result.outref_states)
        # Entries created after the snapshot (insert protocol) keep their
        # clean birth state; nothing to do for them.

        # Refresh per-inref outsets (the dual view the transfer barrier uses).
        outsets = result.outsets
        no_outset: FrozenSet[ObjectId] = frozenset()
        inrefs.install_outsets(result.outset_changes)

        # Inref barrier flags expire with this trace...
        inrefs.reset_barrier_cleans()
        # ...except those that must be replayed onto the new copy.
        for inref_target in replay_barrier_inrefs:
            if inref_target in inrefs:
                inrefs.set_barrier_clean(inref_target, True)
            for outref_target in outsets.get(inref_target, no_outset):
                if outref_target in outrefs:
                    outrefs.set_barrier_clean(outref_target, True)

        # Sweep the heap: the objects neither phase reached.  The clean
        # phase listed the unmarked ones when the trace computed, so objects
        # allocated during a non-atomic trace window were born reachable
        # and survive unconditionally.
        suspected = result.suspected_objects
        swept = self.heap.sweep_ids(
            [oid for oid in result.clean_phase.unmarked if oid not in suspected]
        )
        result.swept = swept
        self._cells.objects_swept.add(len(swept))

        # Build outgoing updates from the committed table state.
        self._build_updates(result)
        self.traces_run += 1
        if result.mode == "full":
            self._ticks_since_full = 0
        if not interleaved:
            # No epoch moved since compute read the tables, so the committed
            # tables are this result's: a later tick at these epochs may skip.
            self._cached = _TraceCache(
                epochs=self._current_epochs(),
                variable_outrefs=result.variable_outrefs,
            )
        else:
            self._cached = None
        return swept

    def run(
        self,
        variable_outrefs: Iterable[ObjectId] = (),
        replay_barrier_inrefs: Iterable[ObjectId] = (),
    ) -> LocalTraceResult:
        """Atomic convenience wrapper: compute then commit immediately."""
        result = self.compute(variable_outrefs=variable_outrefs)
        self.commit(result, replay_barrier_inrefs=replay_barrier_inrefs)
        return result
