"""Property: a shard injects routed-in messages in one order, however they
travelled.

A sender groups its cross-shard messages into one pickled bucket per
destination worker, and the coordinator forwards buckets in whatever order
replies arrived.  The destination's stash (:class:`_RecordStash`) must
still hand each message to its scheduler in ``(deliver_at, source site,
sender sequence)`` order -- the sequential engine's tie-break, with sites
compared as strings -- or a sharded run stops matching the sequential one.
"""

from hypothesis import given, settings, strategies as st

from repro.gc.update import UpdateAck
from repro.net.message import Message
from repro.sim.parallel import _pack_buckets, _RecordStash

from ..conftest import examples

# Numeric and string order disagree on these, so the stash must sort by name.
SITES = ["s10", "s2", "s9", "a", "s1"]
TIMES = [5.0, 5.5, 7.0, 12.0]


@st.composite
def routed_messages(draw):
    """Distinct (deliver_at, Message) pairs; uids are unique, as they are
    per sending site."""
    count = draw(st.integers(min_value=0, max_value=24))
    uids = draw(st.lists(st.integers(0, 10_000), min_size=count, max_size=count,
                         unique=True))
    return [
        (
            draw(st.sampled_from(TIMES)),
            Message(
                draw(st.sampled_from(SITES)),
                draw(st.sampled_from(SITES)),
                UpdateAck(seq=uid),
                uid,
                draw(st.booleans()),
            ),
        )
        for uid in uids
    ]


def _key(entry):
    return entry[0], entry[1].src, entry[1].uid


@given(
    routed_messages(),
    st.randoms(use_true_random=False),
    st.lists(st.sampled_from([5.0, 6.0, 7.0, 12.5, 100.0]), max_size=4),
)
@settings(max_examples=examples(200), deadline=None)
def test_take_due_order_is_independent_of_bucketing_and_arrival(
    routed, rng, bounds
):
    # Cut the messages into replies at random, bucket each reply by a random
    # site -> worker map, then deliver the buckets over several commands in
    # a random order.
    buckets = []
    start = 0
    while start < len(routed):
        end = start + rng.randint(1, len(routed) - start)
        site_to_worker = {site: rng.randrange(3) for site in SITES}
        buckets.extend(
            bucket for *_, bucket in _pack_buckets(routed[start:end], site_to_worker)
        )
        start = end
    rng.shuffle(buckets)
    stash = _RecordStash()
    while buckets:
        cut = rng.randint(1, len(buckets))
        stash.stash_buckets(buckets[:cut])
        buckets = buckets[cut:]

    assert stash.stash_min() == min((at for at, _ in routed), default=float("inf"))
    taken = []
    for bound in sorted(bounds) + [float("inf")]:
        due = stash.take_due(bound)
        assert all(at < bound for at, _ in due)
        taken.extend(due)
    assert taken == sorted(routed, key=_key)
    assert all(type(message) is Message for _, message in taken)
    assert stash.messages() == []


def test_buckets_carry_their_destination_minimum_and_count():
    routed = [
        (9.0, Message("a", "s2", UpdateAck(seq=1), 1)),
        (4.0, Message("a", "s9", UpdateAck(seq=2), 2)),
        (6.0, Message("s1", "s2", UpdateAck(seq=3), 3)),
    ]
    headers = [
        bucket[:3] for bucket in _pack_buckets(routed, {"s2": 1, "s9": 0})
    ]
    assert headers == [(1, 6.0, 2), (0, 4.0, 1)]
