"""Canonical outset storage with memoized unions (section 5.2).

Two optimizations make the bottom-up computation near-linear in practice:

1. **Canonical form**: an outset is interned once; suspects with equal
   outsets share one stored copy.  On well-clustered heaps there are far
   fewer distinct outsets than suspected objects (chains and strongly
   connected components all share a single outset).
2. **Memoized unions**: a table maps ordered pairs of outset ids to the id of
   their union, so repeating a union costs O(1).

The store is created fresh for each local trace and discarded afterwards;
only the final insets/outsets survive, exactly as the paper prescribes.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

from ...ids import ObjectId

OutsetId = int


class OutsetStore:
    """Hash-consed frozensets of outref targets, with memoized unions."""

    def __init__(self) -> None:
        self._sets: List[FrozenSet[ObjectId]] = [frozenset()]
        self._ids: Dict[FrozenSet[ObjectId], OutsetId] = {frozenset(): 0}
        self._union_memo: Dict[Tuple[OutsetId, OutsetId], OutsetId] = {}
        self._add_memo: Dict[Tuple[OutsetId, ObjectId], OutsetId] = {}
        self.unions_computed = 0
        self.union_memo_hits = 0

    EMPTY: OutsetId = 0

    def __len__(self) -> int:
        """Number of distinct outsets interned (including the empty set)."""
        return len(self._sets)

    def get(self, outset_id: OutsetId) -> FrozenSet[ObjectId]:
        return self._sets[outset_id]

    def intern(self, members: FrozenSet[ObjectId]) -> OutsetId:
        """Return the id of ``members``, creating an entry if new."""
        existing = self._ids.get(members)
        if existing is not None:
            return existing
        new_id = len(self._sets)
        self._sets.append(members)
        self._ids[members] = new_id
        return new_id

    def add(self, outset_id: OutsetId, member: ObjectId) -> OutsetId:
        """Union with a singleton: the common case of meeting an outref."""
        key = (outset_id, member)
        cached = self._add_memo.get(key)
        if cached is not None:
            return cached
        current = self._sets[outset_id]
        if member in current:
            result = outset_id
        else:
            result = self.intern(current | {member})
        self._add_memo[key] = result
        return result

    def union(self, left: OutsetId, right: OutsetId) -> OutsetId:
        """Memoized union of two stored outsets."""
        if left == right:
            return left
        if left == self.EMPTY:
            return right
        if right == self.EMPTY:
            return left
        key = (left, right) if left < right else (right, left)
        cached = self._union_memo.get(key)
        if cached is not None:
            self.union_memo_hits += 1
            return cached
        self.unions_computed += 1
        left_set = self._sets[left]
        right_set = self._sets[right]
        if left_set <= right_set:
            result = right
        elif right_set <= left_set:
            result = left
        else:
            result = self.intern(left_set | right_set)
        self._union_memo[key] = result
        return result

    def storage_units(self) -> int:
        """Total elements across distinct stored outsets (space accounting)."""
        return sum(len(members) for members in self._sets)
