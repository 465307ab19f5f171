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

**Pieces.**  A trace's outcome splits along the weakly connected pieces of
the site's resident rows, each with the outrefs its rows hold: a walk from a
root never leaves its piece, an outref held from two pieces joins them, and
nothing one piece decides reads another (nonempty outsets of two pieces
share no outref, so neither do their memoised unions).  The collector keeps
each piece's outcome (:class:`_Pieces`): its rows, marks, suspected inrefs,
held and reached outrefs, and what it added to the counters, while the
tables hold its verdicts.  A trace walks again only the pieces that changed
since: one holding a changed row (``Heap.take_dirty``: edges, residency,
root membership) or one a changed row now leads into; one holding an inref
whose distance, flags or existence moved (``InrefTable.take_changed``, which
a new suspicion threshold fills with every entry), but for a suspected inref
whose distance alone moved while its piece takes its suspected inrefs in
the same order, which re-states only its outset's outrefs (the walks'
unions and memo hits follow that order); one holding an outref
created, removed, pinned, unpinned or taken into or out of a mutator
variable (``OutrefTable.take_touched``).  The walk regroups the rows it
visits into pieces afresh (a removed edge may split one, a new edge or
shared outref joins two), and the diffs, the removals, the sweep and the
counters read the walked pieces and the kept totals only.  The first trace,
a revived index (``Heap.take_dirty`` answering None) and a computed result
that was never committed trace everything from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import add, sub
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
    """Everything one local trace decided, ready to be committed.

    The trace walks only the pieces of the heap that changed (see the
    module docstring): ``outref_states``, ``outsets`` and ``insets`` are
    theirs, and the rest of the site keeps the verdicts its tables hold.
    """

    # "full" or "distance" (see :meth:`LocalCollector.plan_trace`); both ran
    # the same trace.  Skipped ticks never produce a result at all.
    mode: str = "full"
    # The variable-held outrefs the trace was computed against (cache key).
    variable_outrefs: FrozenSet[ObjectId] = frozenset()
    outsets: Dict[ObjectId, FrozenSet[ObjectId]] = field(default_factory=dict)
    insets: Dict[ObjectId, FrozenSet[ObjectId]] = field(default_factory=dict)
    # outref target -> (is_clean, distance); targets absent here are trimmed
    # (``removals``) unless the insert barrier pins them.
    outref_states: Dict[ObjectId, Tuple[bool, int]] = field(default_factory=dict)
    # Inrefs outside ``outsets`` that may hold an outset the trace clears.
    outset_others: Iterable[ObjectId] = ()
    # The change lists commit installs: the outref verdicts and the inref
    # outsets that differ from what the tables held when compute read them.
    outref_changes: Dict[ObjectId, Verdict] = field(default_factory=dict)
    outset_changes: Dict[ObjectId, FrozenSet[ObjectId]] = field(default_factory=dict)
    removals: List[ObjectId] = field(default_factory=list)
    # The walked rows neither phase reached, in index order: what the sweep
    # takes.
    garbage: List[ObjectId] = field(default_factory=list)
    swept: List[ObjectId] = field(default_factory=list)
    updates_by_site: Dict[SiteId, UpdatePayload] = field(default_factory=dict)
    # The kernels' results over the rows walked; None where a kernel had
    # nothing to walk.
    backinfo: Optional[BackInfoResult] = None
    clean_phase: Optional[CleanPhaseResult] = None
    # The objects each phase reached: site-wide (walked or kept), and walked.
    clean_objects_scanned: int = 0
    suspected_objects_scanned: int = 0
    clean_objects_walked: int = 0
    suspected_objects_walked: int = 0
    # The pieces walked, and those the site holds after the trace.
    pieces_walked: int = 0
    pieces_held: int = 0


class _Pieces:
    """The outcome of the last trace, per weakly connected piece.

    - ``piece_of``: per heap index, the id of the piece holding the row, -1
      for none (dead, free, or garbage awaiting its sweep); a piece's id is
      one of its rows;
    - ``marks``: per heap index, the clean phase's mark (dead and free
      indices marked), what the suspected phase reads;
    - ``rows``: piece id -> its rows;
    - ``held``: piece id -> the outrefs its rows hold (a row's twice, or
      two rows', listed twice), for a piece holding any;
    - ``back``: piece id -> (its suspected inrefs in trace order, the
      outrefs it holds without a verdict -- pinned, and held by suspected
      rows only --, its counts as in ``totals``), for a piece with a
      suspected inref; every row of any other piece is clean;
    - ``outref_piece``: each outref a kept row holds -> its piece;
    - ``unreached``: the outrefs the kept pieces hold without a verdict;
    - ``orphans``: suspected inrefs whose target is not resident;
    - ``totals``: over all pieces, clean objects, suspected objects scanned,
      unions computed, union memo hits, inset storage units, distinct
      nonempty outsets and suspected inrefs with an empty outset.

    A clean region no other walk met is a piece by itself, and keeps the
    lists the clean phase made for it.
    """

    __slots__ = (
        "piece_of", "marks", "rows", "held", "back", "outref_piece", "unreached", "orphans",
        "totals",
    )

    def __init__(self, heap: Heap):
        self.marks = heap.fresh_marks()
        self.piece_of: List[int] = [-1] * len(self.marks)
        self.rows: Dict[int, List[int]] = {}
        self.held: Dict[int, List[ObjectId]] = {}
        self.back: Dict[int, tuple] = {}
        self.outref_piece: Dict[ObjectId, int] = {}
        self.unreached: Set[ObjectId] = set()
        self.orphans: Set[ObjectId] = set()
        self.totals = [0] * 7

    def check(self, heap: Heap) -> None:
        """Assert the premise keeping rests on: every unchanged resident row
        lies in exactly one kept piece with all its successors and held
        outrefs; an unchanged dead or free index is marked and in no piece;
        a kept piece's rows are resident unless changed (test/debug
        support; O(V+E))."""
        _, succ_local, remote_rows, oids, _ = heap.flat_graph()
        alive, changed = heap.residency(), heap.changed_rows()
        piece_of, marks = self.piece_of, self.marks
        rows_held = refs_held = 0
        for piece, rows in self.rows.items():
            for i in rows:
                assert piece_of[i] == piece, f"piece drift: row {i}"
                assert alive[i] or i in changed, f"stale piece row: {i}"
            rows_held += len(rows)
        for piece, held in self.held.items():
            assert piece in self.rows, f"outrefs of no piece: {piece}"
            for ref in held:
                assert self.outref_piece.get(ref) == piece, f"outref piece drift: {ref}"
            refs_held += len(set(held))
        assert self.back.keys() <= self.rows.keys(), "back-info of no piece"
        assert refs_held == len(self.outref_piece), "outref of no kept piece"
        assert self.unreached <= self.outref_piece.keys(), "unreached outref in no piece"
        assert rows_held == sum(1 for p in piece_of if p >= 0), "row of no kept piece"
        for i in range(len(oids)):
            if i in changed:
                continue
            if not alive[i]:
                assert marks[i] and piece_of[i] < 0, f"dead row kept: {i}"
                continue
            piece = piece_of[i]
            assert piece >= 0, f"unchanged row {i} in no piece"
            assert all(
                piece_of[t] in (piece, -1) or t in changed for t in succ_local[i]
            ), f"piece leak: {i}"
            for ref in remote_rows.get(i, ()):
                assert self.outref_piece.get(ref) == piece, f"held outref leak: {ref}"


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


class _Reached:
    """The outrefs a trace gives a verdict: the variable-held ones, and
    those the kept pieces hold, but for the few they hold unreached."""

    __slots__ = ("held", "unreached", "variable")

    def __init__(self, held, unreached: Set[ObjectId], variable: FrozenSet[ObjectId]):
        self.held, self.unreached, self.variable = held, unreached, variable

    def __contains__(self, target: ObjectId) -> bool:
        return target in self.variable or (
            target in self.held and target not in self.unreached
        )


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
        # The kept outcome per piece (None: trace everything next), the
        # variable-held outrefs it was computed with, and whether a computed
        # result awaits its commit.
        self._pieces: Optional[_Pieces] = None
        self._variable: FrozenSet[ObjectId] = frozenset()
        self._pending = False

    # -- incremental planning ----------------------------------------------------

    def _current_epochs(self) -> Tuple[int, int, int, int]:
        inrefs = self.inrefs
        return (
            self.heap.mutation_epoch, inrefs.structure_epoch, inrefs.distance_epoch,
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
        """Decide the outcome of a local trace without changing any table.

        Walks the pieces that changed since the last trace (see the module
        docstring) and diffs their verdicts against the tables into the
        change lists; the kept pieces are updated to the new outcome at
        once, and a result never committed makes the next trace start over.
        """
        self._epochs_at_compute = self._current_epochs()
        variable = frozenset(variable_outrefs)
        result = LocalTraceResult(mode=mode, variable_outrefs=variable)
        heap, inrefs, outrefs = self.heap, self.inrefs, self.outrefs
        graph = idx_map, _, _, oids, _ = heap.flat_graph()
        dirty = heap.take_dirty()
        changed_inrefs, renumbered = inrefs.take_changed()
        touched = outrefs.take_touched()
        touched.update(variable.symmetric_difference(self._variable))
        self._variable = variable
        if self._pieces is None or dirty is None or self._pending:
            # Start over: every row, inref and outref is looked at again.
            self._pieces = _Pieces(heap)
            result.outset_others = inrefs.targets()
            candidates: Iterable[ObjectId] = outrefs.targets()
            self._walk(graph, result, None, heap.trace_roots(), inrefs.scan_for_trace(), set())
        else:
            pieces = self._pieces
            marks, piece_of = pieces.marks, pieces.piece_of
            grown = len(oids) - len(marks)
            if grown > 0:
                marks.extend(bytes([1]) * grown)
                piece_of.extend([-1] * grown)
            # A suspected inref whose distance alone moved walks no piece
            # while its piece takes its suspected inrefs in the same order
            # (the order the walks' unions follow): it moves only the
            # outrefs of its outset.
            renumbered = self._in_kept_order(idx_map.get, renumbered)
            walked, others, released = self._take_changed_pieces(
                graph, dirty, changed_inrefs.difference(renumbered), touched
            )
            # The walked rows start unmarked (resident) or marked (dead), in
            # no piece; their roots and inrefs are looked at again.
            alive, resident = heap.residency(), set()
            for i in walked:
                piece_of[i] = -1
                if alive[i]:
                    marks[i] = 0
                    resident.add(oids[i])
                else:
                    marks[i] = 1
            # Those whose piece another change dropped are walked with it.
            index_of = idx_map.get
            renumbered = [t for t in renumbered if piece_of[index_of(t)] >= 0]
            others.update(changed_inrefs.difference(renumbered))
            result.outset_others = others
            if walked or others or touched:
                scan = inrefs.scan_for_trace(inrefs.present(resident).union(others))
                self._walk(graph, result, walked, heap.trace_roots(resident), scan, released)
            # What a dropped piece held and no new one does, and what was
            # touched, may be trimmed.
            candidates = released.union(touched)
            if renumbered:
                # Each sits one past the nearest inref of its inset.
                moved = outrefs.insets_of(
                    dict.fromkeys(chain.from_iterable(map(inrefs.outset_held, renumbered)))
                )
                result.insets.update(moved)
                states = result.outref_states
                for target, nearest in inrefs.nearest(moved).items():
                    states[target] = (False, 1 + nearest)
        is_pinned = outrefs.is_pinned
        result.removals = sorted(
            target
            for target in outrefs.present(set(candidates).difference(result.outref_states))
            if not is_pinned(target)
        )
        self._diff_against_tables(result)
        self._record_trace(result)
        self._pending = True
        return result

    def _walk(
        self,
        graph: tuple,
        result: LocalTraceResult,
        walked: Optional[Set[int]],
        roots: Tuple[List[ObjectId], List[ObjectId]],
        scan: InrefScan,
        released: Set[ObjectId],
    ) -> None:
        """Phases 1 to 3 over the rows to walk (None: all of them), from
        the persistent and variable ``roots`` and the inrefs of ``scan``;
        ``released`` as for :meth:`_keep_pieces`."""
        heap, inrefs, is_pinned = self.heap, self.inrefs, self.outrefs.is_pinned
        marks, piece_of = self._pieces.marks, self._pieces.piece_of
        # Phase 1: clean trace.  Persistent and variable roots at distance 0;
        # clean inrefs at their estimated distances.
        persistent, variable_roots = roots
        clean_roots: List[Tuple[ObjectId, int]] = list(zip(persistent, repeat(0)))
        clean_roots += zip(variable_roots, repeat(0))
        clean_roots += scan.clean_roots
        clean_phase = trace_clean_phase_flat(
            heap, clean_roots, result.variable_outrefs, marks, piece_of
        )
        result.clean_phase = clean_phase

        # Phase 2: suspected trace computing outsets/insets over the clean
        # phase's marks.  An outref is clean when the clean phase reached it
        # or the insert barrier pins it.
        clean_outrefs = clean_phase.outref_distances
        states = result.outref_states = {
            target: (True, distance) for target, distance in clean_outrefs.items()
        }
        suspected = scan.suspected_targets
        if suspected:
            env = TraceEnvironment(
                heap=heap,
                marks=marks,
                is_clean_outref=lambda ref: ref in clean_outrefs or is_pinned(ref),
            )
            if self.config.backinfo_algorithm == "independent":
                backinfo = compute_outsets_independent(env, suspected)
            else:
                backinfo = compute_outsets_bottom_up(env, suspected)
            result.backinfo = backinfo
            result.outsets = backinfo.outsets
            result.insets = insets = invert_outsets(backinfo.outsets)
            # Phase 3: reconcile outrefs.  A suspected outref sits one past
            # the nearest inref of its inset.
            for target, nearest in inrefs.nearest(insets).items():
                states[target] = (False, 1 + nearest)
        self._keep_pieces(graph, result, walked, suspected, released)

    def _in_kept_order(self, index_of, renumbered: Set[ObjectId]) -> List[ObjectId]:
        """Those of ``renumbered`` (suspected inrefs whose distance alone
        moved) whose kept piece still takes its suspected inrefs in the
        order its walk took them."""
        piece_of, back = self._pieces.piece_of, self._pieces.back
        by_piece: Dict[int, List[ObjectId]] = {}
        for target in renumbered:
            i = index_of(target)
            if i is not None and piece_of[i] >= 0:
                by_piece.setdefault(piece_of[i], []).append(target)
        scan, kept = self.inrefs.scan_for_trace, []
        for piece, targets in by_piece.items():
            order = back[piece][0]
            if scan(order).suspected_targets == list(order):
                kept += targets
        return kept

    def _take_changed_pieces(
        self,
        graph: tuple,
        dirty: Set[int],
        changed_inrefs: Set[ObjectId],
        touched: Set[ObjectId],
    ) -> Tuple[Set[int], Set[ObjectId], Set[ObjectId]]:
        """Drop the kept pieces the changes reach: the rows to walk, the
        suspected inrefs and the outrefs the dropped pieces held."""
        idx_map, succ_local, remote_rows, _, _ = graph
        alive, pieces = self.heap.residency(), self._pieces
        piece_of, outref_piece = pieces.piece_of, pieces.outref_piece
        hit = set(map(piece_of.__getitem__, dirty))
        live = list(filter(alive.__getitem__, dirty))
        if live:
            # A changed row joins whatever piece it now leads into.
            successors = chain.from_iterable(map(succ_local.__getitem__, live))
            hit.update(map(piece_of.__getitem__, successors))
            remote = chain.from_iterable(filter(None, map(remote_rows.get, live)))
            hit.update(map(outref_piece.get, remote, repeat(-1)))
        hit.update([piece_of[i] for i in map(idx_map.get, changed_inrefs) if i is not None])
        if touched:
            hit.update(map(outref_piece.get, touched, repeat(-1)))
        hit.discard(-1)
        walked = set(dirty)
        others: Set[ObjectId] = set()
        released: Set[ObjectId] = set()
        rows_of, held_of, back_of = pieces.rows, pieces.held, pieces.back
        unreached, totals = pieces.unreached, pieces.totals
        for piece in hit:
            rows = rows_of.pop(piece)
            walked.update(rows)
            held = held_of.pop(piece, None)
            if held:
                # No other piece holds these; ``outref_piece`` keeps them
                # until the walk says which are still held.
                released.update(held)
            back = back_of.pop(piece, None)
            if back is None:
                totals[0] -= len(rows)
            else:
                suspected, piece_unreached, counts = back
                others.update(suspected)
                totals[:] = map(sub, totals, counts)
                if piece_unreached:
                    unreached.difference_update(piece_unreached)
        pieces.orphans.difference_update(changed_inrefs)
        return walked, others, released

    def _keep_pieces(
        self,
        graph: tuple,
        result: LocalTraceResult,
        walked: Optional[Set[int]],
        suspected_targets: List[ObjectId],
        released: Set[ObjectId],
    ) -> None:
        """Group what the trace walked into pieces and keep them, forget the
        outrefs of ``released`` (those the dropped pieces held) no new piece
        holds, and fill in the result's sweep list and walked counts."""
        idx_map, succ_local, remote_rows, oids, _ = graph
        alive, pieces = self.heap.residency(), self._pieces
        marks, piece_of = pieces.marks, pieces.piece_of
        clean_phase, backinfo = result.clean_phase, result.backinfo
        # Union-find over the labels the walks gave: clean regions by their
        # root's index, suspected rows by their own.
        parent: Dict[int, int] = {}

        def find(label: int) -> int:
            root = label
            while root in parent:
                root = parent[root]
            while label != root:
                parent[label], label = root, parent[label]
            return root

        def join(a: int, b: int) -> None:
            a, b = find(a), find(b)
            if a != b:
                parent[a] = b

        for a, b in clean_phase.merges:
            join(a, b)
        visited = backinfo.visited_rows if backinfo else ()
        for i in visited:
            piece_of[i] = i
        hold = clean_phase.holders.setdefault
        for i in visited:
            for t in succ_local[i]:
                label = piece_of[t]
                if label >= 0 and label != i:
                    join(i, label)
            for ref in remote_rows.get(i, ()):
                first = hold(ref, i)
                if first != i:
                    join(i, first)
        # Each label is a piece by itself, keeping the walks' lists, unless
        # a join named it: those pieces are grouped anew.
        rows_of, held_of, outref_piece = pieces.rows, pieces.held, pieces.outref_piece
        regions, holders = clean_phase.regions, clean_phase.holders
        rows_of.update(regions)
        held_of.update(clean_phase.held)
        outref_piece.update(holders)
        released.difference_update(holders)
        suspected_rows: Dict[int, int] = {}  # per piece with suspected rows
        joined = set(parent).union(map(find, list(parent)))
        for i in visited:
            if i not in joined:
                rows_of[i] = [i]
                suspected_rows[i] = 1
                held = remote_rows.get(i)
                if held:
                    held_of[i] = list(held)
        groups: Dict[int, list] = {}
        for label in joined:
            piece = find(label)
            group = groups.get(piece)
            if group is None:
                group = groups[piece] = [[], []]
            if label in regions:
                rows = rows_of.pop(label)
                held = held_of.pop(label, None)
            else:  # a suspected row
                rows = [label]
                held = remote_rows.get(label)
                suspected_rows[piece] = suspected_rows.get(piece, 0) + 1
            group[0] += rows
            if held:
                group[1] += held
        for piece, (rows, held) in groups.items():
            for i in rows:
                piece_of[i] = piece
            rows_of[piece] = rows
            if held:
                held_of[piece] = held
                outref_piece.update(zip(held, repeat(piece)))
        # Per piece with suspected inrefs: those, and the back-info counts
        # (see ``_Pieces.totals``; distinct outsets as a set until kept).
        back: Dict[int, list] = {}
        outsets, charges = result.outsets, backinfo.charges if backinfo else {}
        orphans = pieces.orphans
        for target in suspected_targets:
            i = idx_map.get(target)
            if i is None or not alive[i]:
                orphans.add(target)
                continue
            counts = back.get(piece_of[i])
            if counts is None:
                counts = back[piece_of[i]] = [[], 0, 0, 0, 0, set(), 0]
            counts[0].append(target)
            charge = charges.get(target)
            if charge is not None:
                counts[1] += charge[0]
                counts[2] += charge[2]
                counts[3] += charge[3]
            outset = outsets[target]
            if outset:
                counts[4] += len(outset)
                counts[5].add(outset)
            else:
                counts[6] += 1
        back_of, totals, states = pieces.back, pieces.totals, result.outref_states
        totals[0] += clean_phase.objects_scanned
        for piece, found in back.items():
            suspected = suspected_rows.get(piece, 0)
            counts = (len(rows_of[piece]) - suspected, *found[1:5], len(found[5]), found[6])
            totals[1:] = map(add, totals[1:], counts[1:])
            unreached = ()
            held = held_of.get(piece) if suspected else None
            if held:
                # Only a suspected row can hold an outref unreached.
                unreached = tuple(dict.fromkeys([ref for ref in held if ref not in states]))
                pieces.unreached.update(unreached)
            back_of[piece] = (tuple(found[0]), unreached, counts)
        for ref in released:  # held by a dropped piece and by no new one
            outref_piece.pop(ref, None)
        # The resident rows the walks left in no piece: neither reached them.
        if walked is None:
            garbage = []
            i = marks.find(0)
            while i >= 0:
                if piece_of[i] < 0:
                    garbage.append(i)
                i = marks.find(0, i + 1)
        else:
            garbage = sorted([i for i in walked if piece_of[i] < 0 and alive[i]])
        result.garbage = [oids[i] for i in garbage]
        result.clean_objects_walked = clean_phase.objects_scanned
        result.suspected_objects_walked = backinfo.objects_scanned if backinfo else 0
        result.pieces_walked = len(regions) + len(visited) - len(parent)

    def _diff_against_tables(self, result: LocalTraceResult) -> None:
        result.outref_changes = self.outrefs.diff_verdicts(
            result.outref_states, result.insets
        )
        result.outset_changes = self.inrefs.diff_outsets(
            result.outsets, result.outset_others
        )

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
        """Assert the premises of the O(changed) trace: the inref table's
        changed set, the outref table's records and changed set, the latter
        against what the update diffs left each peer holding, and the kept
        pieces against the heap (test/debug support; O(table + heap))."""
        self.inrefs.check_changed()
        self.outrefs.check_changed(self._shipped)
        if self._pieces is not None and not self._pending:
            self._pieces.check(self.heap)

    def build_full_update(self, dst: SiteId) -> UpdatePayload:
        """The complete current outref list toward ``dst`` (idempotent).

        The update channel sends these for retransmissions, desynced-peer
        repair and refresh requests.  The shipped state is re-based on the
        transfer so subsequent deltas diff against what the peer holds.
        """
        distances = self.outrefs.distances_to(dst)
        if distances:
            self._shipped[dst] = dict(distances)
        else:
            self._shipped.pop(dst, None)
        return UpdatePayload(distances)

    def _record_trace(self, result: LocalTraceResult) -> None:
        """Count the trace as a from-scratch one would: over every piece,
        walked or kept."""
        cells, pieces = self._cells, self._pieces
        clean, suspected, unions, hits, inset_units, distinct, empty = pieces.totals
        result.clean_objects_scanned, result.suspected_objects_scanned = clean, suspected
        result.pieces_held = len(pieces.rows)
        cells.local_traces.add()
        cells.traces_full.add()
        cells.clean_objects_scanned.add(clean)
        cells.objects_scanned.add(clean)
        cells.suspected_objects_scanned.add(suspected)
        cells.objects_scanned.add(suspected)
        cells.unions_computed.add(unions)
        cells.union_memo_hits.add(hits)
        observe = self.metrics.observe
        observe("backinfo.distinct_outsets", distinct + (1 if empty or pieces.orphans else 0))
        observe("backinfo.inset_storage_units", inset_units)

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
        pieces = self._pieces
        outrefs.install_trace_states(
            result.outref_changes,
            _Reached(pieces.outref_piece, pieces.unreached, result.variable_outrefs),
        )
        # Entries created after the snapshot (insert protocol) keep their
        # clean birth state; nothing to do for them.

        # Refresh per-inref outsets (the dual view the transfer barrier uses):
        # a walked inref's new outset is the result's, any other one's the
        # one its entry holds (or held, if it left since compute).
        outsets = result.outsets
        replay = [
            (target, outsets[target] if target in outsets else inrefs.outset_held(target))
            for target in replay_barrier_inrefs
        ]
        inrefs.install_outsets(result.outset_changes)

        # Inref barrier flags expire with this trace...
        inrefs.reset_barrier_cleans()
        # ...except those that must be replayed onto the new copy.
        for inref_target, outset in replay:
            if inref_target in inrefs:
                inrefs.set_barrier_clean(inref_target, True)
            for outref_target in outset:
                if outref_target in outrefs:
                    outrefs.set_barrier_clean(outref_target, True)

        # Sweep the heap: the objects neither phase reached, listed when the
        # trace computed, so objects allocated during a non-atomic trace
        # window were born reachable and survive unconditionally.
        swept = self.heap.sweep_ids(result.garbage)
        result.swept = swept
        self._cells.objects_swept.add(len(swept))

        # Build outgoing updates from the committed table state.
        self._build_updates(result)
        self._pending = False
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
