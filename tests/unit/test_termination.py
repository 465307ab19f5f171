"""Unit tests for credit-recovery termination detection."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.termination import FULL_CREDIT, CreditPool, split_credit


def test_split_preserves_total():
    shares, kept = split_credit(Fraction(1), 3)
    assert sum(shares) + kept == Fraction(1)
    assert len(shares) == 3
    assert all(share > 0 for share in shares)


def test_split_zero_children_keeps_everything():
    shares, kept = split_credit(Fraction(1, 7), 0)
    assert shares == []
    assert kept == Fraction(1, 7)


def test_pool_completes_only_at_full_credit():
    pool = CreditPool()
    shares = pool.hand_out(4)
    assert sum(shares) == FULL_CREDIT
    for share in shares[:-1]:
        pool.give_back(share)
        assert not pool.complete
    pool.give_back(shares[-1])
    assert pool.complete


def test_pool_handles_zero_seeds():
    pool = CreditPool()
    assert pool.hand_out(0) == []
    assert pool.complete


def test_reset():
    pool = CreditPool()
    for share in pool.hand_out(2):
        pool.give_back(share)
    assert pool.complete
    pool.reset()
    assert not pool.complete


@given(
    st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=60),
    st.integers(min_value=1, max_value=8),
)
@settings(max_examples=200, deadline=None)
def test_arbitrary_spawn_trees_conserve_credit(spawn_counts, seeds):
    """Simulate any interleaving of spawns and returns: credit is conserved
    and the pool completes exactly when all outstanding work is done."""
    pool = CreditPool()
    outstanding = list(pool.hand_out(seeds))
    spawn_iter = iter(spawn_counts)
    while outstanding:
        credit = outstanding.pop(0)
        spawned = next(spawn_iter, 0)
        shares, kept = split_credit(credit, spawned)
        assert sum(shares) + kept == credit
        outstanding.extend(shares)
        pool.give_back(kept)
        # The pool is complete iff nothing is outstanding.
        assert pool.complete == (not outstanding)
    assert pool.complete


def test_no_premature_completion_with_reordered_acks():
    """The exact race that broke spawned-minus-one counting: a child's ack
    arriving before its parent's.  With credits, order cannot matter."""
    pool = CreditPool()
    (root,) = pool.hand_out(1)
    # Root spawns one child; the child's ack (its full share) arrives first.
    shares, root_kept = split_credit(root, 1)
    child = shares[0]
    child_shares, child_kept = split_credit(child, 0)
    pool.give_back(child_kept)       # child acks first
    assert not pool.complete         # parent's credit still out
    pool.give_back(root_kept)
    assert pool.complete
