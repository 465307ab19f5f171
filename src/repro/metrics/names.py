"""Canonical counter names.

Counter names used to be string literals scattered across the codebase,
which drifts: the same fact ends up counted under two spellings, and a typo
in a reader silently reads zero.  Fixed names live here as module-level
constants; families parameterized by payload kind or drop reason are small
helper functions.  Import from :mod:`repro.metrics`::

    from repro.metrics import names
    sim.metrics.count(names.MSG_LOST)
    sim.metrics.count(names.msg_dropped_kind("UpdatePayload"))
"""

from __future__ import annotations

from functools import lru_cache

# -- message accounting (Network) -----------------------------------------

MSG_TOTAL = "messages.total"
MSG_UNITS = "messages.units"
#: Original deliveries, all kinds (legacy aggregate; excludes dup copies).
MSG_DELIVERED = "messages.delivered"
#: Original drops, all kinds and reasons (legacy aggregate).
MSG_LOST = "messages.lost"
#: Prefix of every drop counter (per-kind and per-reason live under it).
MSG_DROPPED = "messages.dropped"
MSG_DROPPED_CRASH = "messages.dropped.crash"
MSG_DROPPED_PARTITION = "messages.dropped.partition"
MSG_DROPPED_FAULT = "messages.dropped.fault"
#: Prefix of the duplicate-copy injection counters.
MSG_DUPLICATED = "messages.duplicated"


@lru_cache(maxsize=None)
def msg_sent(kind: str) -> str:
    """Original sends of one payload kind (written by ``Network.send``)."""
    return f"messages.{kind}"


@lru_cache(maxsize=None)
def msg_delivered_kind(kind: str) -> str:
    """Original deliveries of one payload kind."""
    return f"messages.delivered.{kind}"


@lru_cache(maxsize=None)
def msg_dropped_kind(kind: str) -> str:
    """Original drops of one payload kind (any reason).

    Per kind: ``msg_sent == msg_delivered_kind + msg_dropped_kind`` once no
    message of the kind is in flight.
    """
    return f"messages.dropped.{kind}"


@lru_cache(maxsize=None)
def msg_dropped_reason(reason: str) -> str:
    """Original drops for one reason: crash, partition, fault."""
    return f"messages.dropped.{reason}"


@lru_cache(maxsize=None)
def msg_duplicated(kind: str) -> str:
    """Duplicate copies injected by a fault plan, per kind."""
    return f"messages.duplicated.{kind}"


@lru_cache(maxsize=None)
def msg_dup_delivered(kind: str) -> str:
    return f"messages.dup_delivered.{kind}"


@lru_cache(maxsize=None)
def msg_dup_dropped(kind: str) -> str:
    return f"messages.dup_dropped.{kind}"


@lru_cache(maxsize=None)
def dup_suppressed(kind: str) -> str:
    """Receiver-side duplicate deliveries suppressed, per payload kind."""
    return f"protocol.dup_suppressed.{kind}"


# -- local tracing ----------------------------------------------------------

LOCAL_TRACES = "gc.local_traces"
TRACES_SKIPPED = "gc.traces_skipped"
TRACES_FULL = "gc.traces_full"
OBJECTS_SWEPT = "gc.objects_swept"
OBJECTS_SCANNED = "gc.objects_scanned"
UPDATE_RETRANSMITS = "gc.update_retransmits"
UPDATE_RETRANSMITS_ABANDONED = "gc.update_retransmits_abandoned"

# -- delta update protocol ---------------------------------------------------

#: Delta payloads built at trace commit (sender side).
UPDATE_DELTAS_SENT = "gc.update_deltas_sent"
#: Periodic full state transfers built at trace commit.
UPDATE_FULL_REFRESHES = "gc.update_full_refreshes"
#: Deltas rejected by the receiver's in-order gap check.
UPDATE_GAPS_DETECTED = "gc.update_gaps_detected"
#: Refresh requests sent by a desynced receiver.
UPDATE_REFRESHES_REQUESTED = "gc.update_refreshes_requested"
#: Full updates served in response to a refresh request.
UPDATE_REFRESHES_SERVED = "gc.update_refreshes_served"

# -- back tracing -----------------------------------------------------------

BACKTRACE_STARTED = "backtrace.started"
BACKTRACE_COMPLETED_GARBAGE = "backtrace.completed_garbage"
BACKTRACE_COMPLETED_LIVE = "backtrace.completed_live"
BACKTRACE_COMPLETED_TIMEOUT_LIVE = "backtrace.completed_timeout_live"
BACKTRACE_FRAME_TIMEOUTS = "backtrace.frame_timeouts"
BACKTRACE_OUTCOME_TIMEOUTS = "backtrace.outcome_timeouts"
BACKTRACE_STALE_REPLIES = "backtrace.stale_replies"
BACKTRACE_RETRY_SUPPRESSED = "backtrace.retry_suppressed"
BACKTRACE_RETRIES_BACKED_OFF = "backtrace.retries_backed_off"

# -- termination-detection collector ----------------------------------------

TERMINATION_TRIALS_STARTED = "termination.trials_started"
TERMINATION_TRIALS_GARBAGE = "termination.trials_garbage"
TERMINATION_TRIALS_LIVE = "termination.trials_live"
TERMINATION_TRIALS_ABORTED = "termination.trials_aborted"
TERMINATION_TRIALS_TIMEOUT = "termination.trials_timeout"
#: TrialCollect verdicts refused because the member went dirty after acking.
TERMINATION_COLLECTS_SUPPRESSED = "termination.collects_suppressed"
#: Member objects flagged garbage by accepted TrialCollect verdicts.
TERMINATION_INREFS_FLAGGED = "termination.inrefs_flagged"
