"""Indexed binary min-heap with O(log n) priority updates.

The Importance Cache (paper §4.2) is "a min-heap [that] manages the cache,
evicting the least important samples when full". Cache admission needs three
operations the stdlib ``heapq`` cannot provide directly:

* membership test by key (is sample ``i`` cached?),
* peek at the minimum priority (compare an incoming sample's score against
  the least-important resident),
* in-place priority update (global importance scores change across epochs).

This heap keeps a ``key -> slot`` position map alongside the array so all
three are O(1)/O(log n).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = ["IndexedMinHeap"]


class IndexedMinHeap:
    """Binary min-heap over ``(priority, key)`` pairs with keyed access.

    Keys must be hashable and unique. Ties on priority are broken by
    insertion order (via a monotonic counter) so behaviour is deterministic.
    """

    __slots__ = ("_heap", "_pos", "_counter")

    def __init__(self) -> None:
        # Each entry is [priority, tiebreak, key].
        self._heap: List[List[Any]] = []
        self._pos: Dict[Any, int] = {}
        self._counter = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._heap)

    def __contains__(self, key: Any) -> bool:
        return key in self._pos

    def __iter__(self) -> Iterator[Any]:
        """Iterate over keys in arbitrary (heap) order."""
        for entry in self._heap:
            yield entry[2]

    def priority(self, key: Any) -> float:
        """Return the current priority of ``key``.

        Raises ``KeyError`` if absent.
        """
        return self._heap[self._pos[key]][0]

    def peek(self) -> Tuple[float, Any]:
        """Return ``(priority, key)`` of the minimum without removing it."""
        if not self._heap:
            raise IndexError("peek from empty heap")
        entry = self._heap[0]
        return entry[0], entry[2]

    def peek_entry(self) -> Tuple[float, int, Any]:
        """Return ``(priority, tiebreak, key)`` of the minimum.

        Exposing the tiebreak lets a coordinator compare minima *across*
        heaps (the sharded cache service elects a global victim among
        per-shard minima) with exactly the ordering :meth:`pop` uses.
        """
        if not self._heap:
            raise IndexError("peek from empty heap")
        entry = self._heap[0]
        return entry[0], entry[1], entry[2]

    def min_priority(self) -> float:
        """Priority of the minimum element."""
        return self.peek()[0]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def push(self, key: Any, priority: float, tiebreak: Optional[int] = None) -> None:
        """Insert ``key`` with ``priority``; raises if key already present.

        ``tiebreak`` overrides the internal insertion counter. Heaps that
        are partitions of one logical heap (the sharded cache service)
        pass a globally assigned counter so equal-priority eviction order
        matches the monolithic heap's bit for bit; the internal counter is
        bumped past it so later local pushes never collide.
        """
        if key in self._pos:
            raise KeyError(f"duplicate heap key: {key!r}")
        if tiebreak is None:
            tiebreak = self._counter
            self._counter += 1
        else:
            tiebreak = int(tiebreak)
            self._counter = max(self._counter, tiebreak + 1)
        entry = [priority, tiebreak, key]
        self._heap.append(entry)
        self._pos[key] = len(self._heap) - 1
        self._sift_up(len(self._heap) - 1)

    def pop(self) -> Tuple[float, Any]:
        """Remove and return ``(priority, key)`` of the minimum element."""
        if not self._heap:
            raise IndexError("pop from empty heap")
        top = self._heap[0]
        last = self._heap.pop()
        del self._pos[top[2]]
        if self._heap:
            self._heap[0] = last
            self._pos[last[2]] = 0
            self._sift_down(0)
        return top[0], top[2]

    def remove(self, key: Any) -> float:
        """Remove ``key`` and return its priority. KeyError if absent."""
        slot = self._pos.pop(key)
        entry = self._heap[slot]
        last = self._heap.pop()
        if slot < len(self._heap):
            self._heap[slot] = last
            self._pos[last[2]] = slot
            # The replacement may need to move either direction.
            self._sift_down(slot)
            self._sift_up(slot)
        return entry[0]

    def update(self, key: Any, priority: float) -> None:
        """Change the priority of an existing key (KeyError if absent)."""
        slot = self._pos[key]
        old = self._heap[slot][0]
        self._heap[slot][0] = priority
        if priority < old:
            self._sift_up(slot)
        elif priority > old:
            self._sift_down(slot)

    def push_or_update(self, key: Any, priority: float) -> None:
        """Insert ``key`` or update its priority if already present."""
        if key in self._pos:
            self.update(key, priority)
        else:
            self.push(key, priority)

    def get(self, key: Any, default: Optional[float] = None) -> Optional[float]:
        """Priority of ``key``, or ``default`` if absent."""
        slot = self._pos.get(key)
        if slot is None:
            return default
        return self._heap[slot][0]

    def clear(self) -> None:
        """Remove every entry."""
        self._heap.clear()
        self._pos.clear()

    def keys(self) -> List[Any]:
        """Snapshot of all keys (arbitrary order)."""
        return [e[2] for e in self._heap]

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Exact snapshot: heap-array order, tie-break counters and all.

        Restoring this (rather than re-pushing keys) preserves tie-breaking
        behaviour, so eviction order after a restore is bit-identical to a
        never-interrupted run.
        """
        return {
            "entries": [[e[0], e[1], e[2]] for e in self._heap],
            "counter": self._counter,
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Replace contents with a :meth:`state_dict` snapshot."""
        self._heap = [[float(p), int(t), int(k)] for p, t, k in state["entries"]]
        self._pos = {e[2]: i for i, e in enumerate(self._heap)}
        self._counter = int(state["counter"])

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    # Both sifts carry the moving entry down a hole and write each moved
    # entry's ``_pos`` once. They compare ``(priority, tiebreak)`` inline,
    # making exactly the comparisons of a swap-per-level sift, so the heap
    # array after every operation is the same as that sift's.
    def _sift_up(self, slot: int) -> None:
        heap, pos = self._heap, self._pos
        entry = heap[slot]
        p, t = entry[0], entry[1]
        while slot > 0:
            parent = (slot - 1) >> 1
            up = heap[parent]
            if p < up[0] or (p == up[0] and t < up[1]):
                heap[slot] = up
                pos[up[2]] = slot
                slot = parent
            else:
                break
        heap[slot] = entry
        pos[entry[2]] = slot

    def _sift_down(self, slot: int) -> None:
        heap, pos = self._heap, self._pos
        n = len(heap)
        entry = heap[slot]
        p, t = entry[0], entry[1]
        while True:
            child = 2 * slot + 1
            if child >= n:
                break
            best = heap[child]
            if not (best[0] < p or (best[0] == p and best[1] < t)):
                best, child = entry, slot
            right = 2 * slot + 2
            if right < n:
                other = heap[right]
                if other[0] < best[0] or (other[0] == best[0] and other[1] < best[1]):
                    best, child = other, right
            if child == slot:
                break
            heap[slot] = best
            pos[best[2]] = slot
            slot = child
        heap[slot] = entry
        pos[entry[2]] = slot

    def check_invariants(self) -> None:
        """Assert heap-order and position-map consistency (for tests)."""
        n = len(self._heap)
        assert len(self._pos) == n
        for i in range(n):
            entry = self._heap[i]
            assert self._pos[entry[2]] == i
            left, right = 2 * i + 1, 2 * i + 2
            if left < n:
                assert (self._heap[i][0], self._heap[i][1]) <= (
                    self._heap[left][0],
                    self._heap[left][1],
                )
            if right < n:
                assert (self._heap[i][0], self._heap[i][1]) <= (
                    self._heap[right][0],
                    self._heap[right][1],
                )
