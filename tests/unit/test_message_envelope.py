"""The message envelope keeps its value semantics.

``Message`` is the object the network builds once per message sent; it is a
named tuple with a drawn ``uid`` default.  Whatever it is built from, these
are the properties the rest of the system (handlers, the oracle's in-flight
scan, the cross-shard buckets, logs) relies on.
"""

import pickle

import pytest

from repro.gc.update import UpdateAck
from repro.net.message import Message
from repro.sim.parallel import _pack_buckets, _RecordStash

FIELDS = ("src", "dst", "payload", "uid", "dup")


def test_positional_and_keyword_construction_agree():
    payload = UpdateAck(seq=4)
    positional = Message("P", "Q", payload, 11, True)
    by_keyword = Message(src="P", dst="Q", payload=payload, uid=11, dup=True)
    assert positional == by_keyword
    assert Message._fields == FIELDS
    assert tuple(getattr(positional, name) for name in FIELDS) == (
        "P", "Q", payload, 11, True,
    )
    assert tuple(positional) == ("P", "Q", payload, 11, True)


def test_defaults_draw_a_strictly_increasing_uid_and_no_dup():
    payload = UpdateAck(seq=1)
    drawn = [Message("P", "Q", payload) for _ in range(5)]
    drawn.append(Message(src="P", dst="Q", payload=payload))
    uids = [message.uid for message in drawn]
    assert all(later > earlier for earlier, later in zip(uids, uids[1:]))
    assert not any(message.dup for message in drawn)


def test_explicit_uid_and_dup_are_honoured():
    message = Message("P", "Q", UpdateAck(seq=1), uid=0, dup=True)
    assert message.uid == 0 and message.dup is True
    # An explicit uid draws nothing from the counter.
    before = Message("P", "Q", UpdateAck(seq=1)).uid
    Message("P", "Q", UpdateAck(seq=1), uid=99)
    assert Message("P", "Q", UpdateAck(seq=1)).uid == before + 1


def test_eq_hash_repr_str_and_kind():
    payload = UpdateAck(seq=4)
    one = Message("P", "Q", payload, uid=7)
    same = Message("P", "Q", UpdateAck(seq=4), uid=7)
    assert one == same and hash(one) == hash(same)
    assert len({one, same}) == 1
    for other in (
        Message("R", "Q", payload, uid=7),
        Message("P", "R", payload, uid=7),
        Message("P", "Q", UpdateAck(seq=5), uid=7),
        Message("P", "Q", payload, uid=8),
        Message("P", "Q", payload, uid=7, dup=True),
    ):
        assert one != other
    assert repr(one) == (
        "Message(src='P', dst='Q', payload=UpdateAck(seq=4), uid=7, dup=False)"
    )
    assert one.kind == "UpdateAck"
    assert str(one) == "UpdateAck(P->Q)"


def test_envelope_is_immutable_and_has_no_instance_dict():
    message = Message("P", "Q", UpdateAck(seq=1))
    for name in FIELDS + ("kind", "anything_else"):
        with pytest.raises(AttributeError):
            setattr(message, name, "X")
    assert not hasattr(message, "__dict__")


def test_pickle_round_trip():
    message = Message("P", "Q", UpdateAck(seq=4), uid=7, dup=True)
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps(message, protocol))
        assert clone == message and type(clone) is Message


def test_wire_round_trip_of_a_duplicate_copy():
    message = Message("P", "Q", UpdateAck(seq=4), uid=7, dup=True)
    [(worker, first_at, count, bucket)] = _pack_buckets([(2.5, message)], {"Q": 1})
    assert (worker, first_at, count) == (1, 2.5, 1)
    stash = _RecordStash()
    stash.stash_buckets([bucket])
    [(deliver_at, unpacked)] = stash.take_due(float("inf"))
    assert deliver_at == 2.5
    assert unpacked == message and type(unpacked) is Message
    assert unpacked.dup is True and unpacked.uid == 7
