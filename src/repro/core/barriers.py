"""The transfer barrier and the clean rule (sections 6.1 and 6.4).

**Transfer barrier**: when a mutator transfers (or traverses) a reference
``i`` into a site that has a *suspected* inref for ``i``, the site cleans
inref ``i`` and every outref in ``i``'s outset.  This maintains the local
safety invariant -- for any suspected outref o, o.inset includes all inrefs o
is locally reachable from -- because any *new* local path to a suspect must
have been created by a mutator that first traversed an old path through some
suspected inref, and the barrier cleans everything downstream of that inref.
The cleaning expires at the site's next local trace, which recomputes back
information that reflects the new paths; completeness is preserved because a
barrier only ever cleans outrefs that were genuinely live at the last trace.

**Clean rule**: if an ioref is cleaned while a back trace is active there,
the trace's return value is forced to Live.  This closes the distributed race
of section 6.4 (Figure 6): either a back trace sees the barrier's effect, or
its activity period overlaps the clean period at some ioref on the mutated
path, and the overlap forces Live.

Non-atomic local traces (section 6.2): while a trace is computing, barriers
clean the *old* copy as usual, and this module additionally records the
cleaned inrefs so the site can replay them onto the *new* copy at commit.

Incremental traces: every barrier clean flows through the ioref table's
``set_barrier_clean``, which bumps the table's epoch -- so a tick after
a barrier hit (including replays inside a trace window) never skips, and the
clean flags expire at a real retrace exactly as before.
"""

from __future__ import annotations

from typing import List, Optional

from ..gc.inrefs import InrefTable
from ..gc.outrefs import OutrefTable
from ..ids import ObjectId
from ..metrics import MetricsRecorder
from .backtrace.engine import BackTraceEngine
from .backtrace.frames import INREF, OUTREF


class TransferBarrier:
    """Applies the transfer barrier for one site and feeds the clean rule."""

    def __init__(
        self,
        inrefs: InrefTable,
        outrefs: OutrefTable,
        engine: Optional[BackTraceEngine] = None,
        metrics: Optional[MetricsRecorder] = None,
        enabled: bool = True,
    ):
        self.inrefs = inrefs
        self.outrefs = outrefs
        self.engine = engine
        self.metrics = metrics or MetricsRecorder()
        self.enabled = enabled
        self._recording = False
        self._replay: List[ObjectId] = []

    # -- non-atomic trace support --------------------------------------------------

    def begin_trace_window(self) -> None:
        """A local trace started computing: start recording barrier hits."""
        self._recording = True
        self._replay = []

    def end_trace_window(self) -> List[ObjectId]:
        """The trace is committing: return inrefs to replay on the new copy."""
        self._recording = False
        replay, self._replay = self._replay, []
        return replay

    # -- the barrier itself -----------------------------------------------------------

    def on_reference_arrival(self, target: ObjectId) -> None:
        """A reference to local object ``target`` was transferred/traversed here.

        If the matching inref is suspected, clean it and its outset.  Sites
        call this for every incoming reference whose owner is this site,
        including inserts recorded at the owner (section 6.1.2 cases 1 and 4).
        """
        if not self.enabled:
            # Counterfactual mode (Figure 5's unsafe system): the oracle
            # tests demonstrate that disabling this loses live objects.
            return
        inrefs = self.inrefs
        if target not in inrefs:
            # Object has no remote holders recorded (e.g. a persistent root
            # being traversed from outside for the first time; the insert
            # protocol creates the entry separately).  Nothing to clean.
            return
        if inrefs.is_clean(target):
            # Already clean: the auxiliary invariant guarantees its outset's
            # outrefs are clean too; nothing to do.
            return
        self.metrics.incr("barrier.transfer_applied")
        inrefs.set_barrier_clean(target, True)
        outset = inrefs.outset_of(target)
        if self._recording:
            self._replay.append(target)
        if self.engine is not None:
            self.engine.notify_cleaned(INREF, target)
        for outref_target in outset:
            self.clean_outref(outref_target)

    def clean_outref(self, target: ObjectId) -> None:
        """Clean one outref (barrier effect or remote-copy case 3)."""
        outrefs = self.outrefs
        if target not in outrefs:
            return
        if not outrefs.is_clean(target):
            self.metrics.incr("barrier.outrefs_cleaned")
        outrefs.set_barrier_clean(target, True)
        if self.engine is not None:
            self.engine.notify_cleaned(OUTREF, target)
