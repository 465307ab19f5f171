"""Span recorder for the traced run: layers measured from outside.

Wrappers are installed *in the traced subprocess, before the simulation is
built* (network links and site dispatch tables cache bound methods at
construction, so class-level patching must come first) around the public
seams of each layer, and around ``Scheduler.schedule`` / ``schedule_at`` so
that every scheduled callback runs inside an *event span* named after its
label (``deliver:*`` -> ``net.network.deliver``, ``churn:*`` ->
``workloads.driver``, ...).

Spans nest on a stack.  A span's **self time** is its duration minus the
time its child spans cover, so the rows are non-overlapping and sum to the
root span -- unlike cumulative profiler percentages.  Per-name aggregates
(calls, self ns, total ns) stay in memory; raw spans are kept only for the
coarse names (local traces, back traces) and written out on request.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Tuple

ROOT = "ledger.root"
UNLABELLED = "unlabelled.event"

#: Event-label prefix (text before the first ``:``) -> span name.
EVENT_SPANS = {
    "deliver": "net.network.deliver",
    "churn": "workloads.driver",
    "workload": "workloads.driver",
    "gc-tick": "gc.localtrace.tick",
    "gc-commit": "gc.localtrace.tick",
    "update-retransmit": "gc.update.retransmit",
    "outcome-timeout": "core.backtrace.timeout",
    "frame-timeout": "core.backtrace.timeout",
    "defer-flush": "net.batching.flush",
    "trial-timeout": "core.termination.timeout",
    "hop-timeout": "mutator.timeout",
}


def classify(label: str) -> str:
    """Span name of a scheduled callback, from its event label."""
    return EVENT_SPANS.get(label.partition(":")[0], UNLABELLED)


def layer_of(span_name: str) -> str:
    """``net.network.send`` -> ``net.network`` (the module that did the work)."""
    return span_name.rpartition(".")[0]


class SpanRecorder:
    """In-memory span stack with per-name self/total time aggregates."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        #: Open spans, innermost last: ``[child_ns, raw_id]``.
        self._stack: List[list] = []
        #: name -> ``[calls, self_ns, total_ns]``.
        self.rows: Dict[str, list] = {}
        #: Coarse spans: ``(id, name, start_ns, end_ns, parent_id, note)``.
        self.raw: List[tuple] = []
        self._next_id = 1
        self._patches: List[Tuple[object, str, object]] = []
        self._callbacks: Dict[tuple, Callable] = {}

    # -- recording ----------------------------------------------------------

    def row(self, name: str) -> list:
        row = self.rows.get(name)
        if row is None:
            row = self.rows[name] = [0, 0, 0]
        return row

    def wrap(self, fn: Callable, name: str, coarse: bool = False) -> Callable:
        """``fn`` running inside a span called ``name``."""
        row = self.row(name)
        stack = self._stack
        clock = self.clock
        raw = self.raw

        def traced(*args, **kwargs):
            raw_id = 0
            if coarse:
                raw_id = self._next_id
                self._next_id += 1
            frame = [0, raw_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                row[0] += 1
                row[1] += elapsed - frame[0]
                row[2] += elapsed
                if stack:
                    stack[-1][0] += elapsed
                if coarse:
                    raw.append(
                        (raw_id, name, start, start + elapsed, self._coarse_parent(), "")
                    )

        return traced

    def reset(self) -> None:
        """Forget everything recorded so far (the set-up's spans); rows are
        zeroed in place because live wrappers hold on to them."""
        for row in self.rows.values():
            row[:] = [0, 0, 0]
        self.raw.clear()

    def _coarse_parent(self) -> int:
        for frame in reversed(self._stack):
            if frame[1]:
                return frame[1]
        return 0

    def note_async(self, name: str, start_ns: int, end_ns: int, note: str) -> None:
        """A raw span that did not live on the stack (back trace start->outcome)."""
        self.raw.append((self._next_id, name, start_ns, end_ns, 0, note))
        self._next_id += 1

    def event_callback(self, callback: Callable, label: str) -> Callable:
        """The callback of a scheduled event, inside its label's span.

        Bound methods (the network's deliver, a site's gc tick) are wrapped
        once and reused: they compare equal across lookups.  Lambdas are
        fresh per event and wrapped per event.
        """
        name = classify(label)
        if getattr(callback, "__self__", None) is None:
            return self.wrap(callback, name)
        key = (callback, name)
        traced = self._callbacks.get(key)
        if traced is None:
            traced = self._callbacks[key] = self.wrap(callback, name)
        return traced

    # -- patching -----------------------------------------------------------

    def patch(self, owner, attr: str, name: str, coarse: bool = False) -> None:
        """Replace ``owner.attr`` (a class or module attribute) by a span."""
        self.patch_with(owner, attr, self.wrap(getattr(owner, attr), name, coarse))

    def patch_with(self, owner, attr: str, replacement) -> None:
        # The owner's *own* entry, so that restoring an inherited attribute
        # deletes the override instead of copying the base-class function.
        self._patches.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._callbacks.clear()

    # -- results ------------------------------------------------------------

    def export(self) -> Dict[str, list]:
        return {name: list(row) for name, row in sorted(self.rows.items())}


_ABSENT = object()


class KernelTally:
    """Objects scanned per clean-phase kernel, from the kernels' results.

    The vector kernel hands deep narrow graphs to the flat kernel from the
    inside; such a call counts as a flat call (the flat kernel did the scan)
    and the probe it paid stays in the vector row's self time.
    """

    def __init__(self) -> None:
        self.flat_calls = 0
        self.flat_objects = 0
        self.vector_calls = 0
        self.vector_objects = 0
        self.demotions = 0

    def wrap_flat(self, fn: Callable, demoted: bool) -> Callable:
        def flat(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.flat_calls += 1
            self.flat_objects += result.objects_scanned
            if demoted:
                self.demotions += 1
            return result

        return flat

    def wrap_vector(self, fn: Callable) -> Callable:
        def vector(*args, **kwargs):
            before = self.demotions
            result = fn(*args, **kwargs)
            if self.demotions == before:
                self.vector_calls += 1
                self.vector_objects += result.objects_scanned
            return result

        return vector


def install(recorder: SpanRecorder, coordinator_only: bool = False) -> KernelTally:
    """Patch every seam of the ledger's layer table.  Call before building.

    ``coordinator_only`` patches nothing but the sharded engine's
    ``run_until``: what a 2-worker run can be told from outside.
    """
    from repro.core import collector as collector_mod
    from repro.core import distance as distance_mod
    from repro.core.backtrace.engine import BackTraceEngine
    from repro.gc import localtrace as localtrace_mod
    from repro.net.network import Network
    from repro.sim.parallel import ParallelSimulation
    from repro.sim.scheduler import Scheduler
    from repro.site.site import Site
    from repro.store.heap import Heap

    tally = KernelTally()
    patch = recorder.patch
    patch(ParallelSimulation, "run_until", "sim.parallel.run_until")
    if coordinator_only:
        return tally

    patch(Scheduler, "run_until", "sim.scheduler.run_until")
    for attr in ("schedule", "schedule_at"):
        push = recorder.wrap(getattr(Scheduler, attr), "sim.scheduler.push")

        def traced_push(self, when, callback, *args, _push=push, **kwargs):
            label = kwargs.get("label") or (args[0] if args else "")
            return _push(
                self, when, recorder.event_callback(callback, label), *args, **kwargs
            )

        recorder.patch_with(Scheduler, attr, traced_push)

    patch(Network, "send", "net.network.send")
    patch(Site, "receive", "site.receive")
    patch(Site, "send", "site.send")
    for attr in ("mutator_add_ref", "mutator_remove_ref", "mutator_send_ref"):
        patch(Site, attr, "site." + attr)
    patch(Heap, "alloc", "store.heap.alloc")

    patch(Site, "run_local_trace", "gc.localtrace.run", coarse=True)
    patch(localtrace_mod.LocalCollector, "compute", "gc.localtrace.compute")
    patch(localtrace_mod.LocalCollector, "commit", "gc.localtrace.commit")
    # The kernels, under the names gc.localtrace looks them up by, and the
    # flat kernel once more where the vector kernel demotes to it.
    recorder.patch_with(
        localtrace_mod,
        "trace_clean_phase_flat",
        recorder.wrap(
            tally.wrap_flat(localtrace_mod.trace_clean_phase_flat, demoted=False),
            "core.distance.flat",
        ),
    )
    recorder.patch_with(
        distance_mod,
        "trace_clean_phase_flat",
        recorder.wrap(
            tally.wrap_flat(distance_mod.trace_clean_phase_flat, demoted=True),
            "core.distance.flat",
        ),
    )
    recorder.patch_with(
        localtrace_mod,
        "trace_clean_phase_vector",
        recorder.wrap(
            tally.wrap_vector(localtrace_mod.trace_clean_phase_vector),
            "core.distance.vector",
        ),
    )
    for attr in ("compute_outsets_bottom_up", "compute_outsets_independent"):
        patch(localtrace_mod, attr, "core.backinfo.compute")

    for attr in (
        "handle_back_call",
        "handle_back_call_batch",
        "handle_back_reply",
        "handle_back_reply_batch",
        "handle_back_outcome",
    ):
        patch(BackTraceEngine, attr, "core.backtrace.handler")
    patch(BackTraceEngine, "start_trace", "core.backtrace.start")
    patch(
        collector_mod.BackTracingCollector,
        "check_triggers",
        "core.collector.check_triggers",
    )
    return tally


def watch_back_traces(recorder: SpanRecorder, sim) -> None:
    """Raw start->outcome spans of back traces, host and simulated time.

    ``start_trace`` is already a span; here its returned trace id is
    remembered with the host clock, and each site's public
    ``on_trace_outcome`` callback closes the span.  Sequential runs only.
    """
    from repro.core.backtrace.engine import BackTraceEngine

    clock = recorder.clock
    open_traces: Dict[object, Tuple[int, float]] = {}
    start_span = BackTraceEngine.start_trace

    def start_trace(self, outref_target):
        trace_id = start_span(self, outref_target)
        if trace_id is not None:
            open_traces[trace_id] = (clock(), self.scheduler.now)
        return trace_id

    recorder.patch_with(BackTraceEngine, "start_trace", start_trace)
    for site in sim.sites.values():
        forward = site.on_trace_outcome

        def outcome(site_id, trace_id, verdict, _forward=forward, _site=site):
            started = open_traces.pop(trace_id, None)
            if started is not None:
                ticks = _site.scheduler.now - started[1]
                recorder.note_async(
                    "core.backtrace.trace",
                    started[0],
                    clock(),
                    f"{trace_id} {verdict} sim_ticks={ticks}",
                )
            if _forward is not None:
                _forward(site_id, trace_id, verdict)

        site.on_trace_outcome = outcome
