"""IndexedMinHeap unit + property tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.heap import IndexedMinHeap


def test_empty_heap():
    h = IndexedMinHeap()
    assert len(h) == 0
    assert "x" not in h
    with pytest.raises(IndexError):
        h.peek()
    with pytest.raises(IndexError):
        h.pop()


def test_push_pop_ordering():
    h = IndexedMinHeap()
    for k, p in [("a", 3.0), ("b", 1.0), ("c", 2.0)]:
        h.push(k, p)
    assert h.pop() == (1.0, "b")
    assert h.pop() == (2.0, "c")
    assert h.pop() == (3.0, "a")


def test_duplicate_key_rejected():
    h = IndexedMinHeap()
    h.push("a", 1.0)
    with pytest.raises(KeyError):
        h.push("a", 2.0)


def test_peek_does_not_remove():
    h = IndexedMinHeap()
    h.push(1, 5.0)
    h.push(2, 3.0)
    assert h.peek() == (3.0, 2)
    assert len(h) == 2
    assert h.min_priority() == 3.0


def test_contains_and_priority():
    h = IndexedMinHeap()
    h.push("k", 7.5)
    assert "k" in h
    assert h.priority("k") == 7.5
    with pytest.raises(KeyError):
        h.priority("missing")


def test_update_decrease_moves_to_top():
    h = IndexedMinHeap()
    for i in range(10):
        h.push(i, float(i + 10))
    h.update(9, 0.5)
    assert h.peek() == (0.5, 9)


def test_update_increase_moves_down():
    h = IndexedMinHeap()
    for i in range(10):
        h.push(i, float(i))
    h.update(0, 100.0)
    assert h.peek() == (1.0, 1)
    # The updated key is still present with its new priority.
    assert h.priority(0) == 100.0


def test_remove_middle_element():
    h = IndexedMinHeap()
    for i in range(7):
        h.push(i, float(i))
    assert h.remove(3) == 3.0
    assert 3 not in h
    popped = [h.pop()[1] for _ in range(len(h))]
    assert popped == [0, 1, 2, 4, 5, 6]


def test_remove_missing_raises():
    h = IndexedMinHeap()
    with pytest.raises(KeyError):
        h.remove("nope")


def test_push_or_update():
    h = IndexedMinHeap()
    h.push_or_update("a", 2.0)
    h.push_or_update("a", 1.0)
    assert len(h) == 1
    assert h.priority("a") == 1.0


def test_get_with_default():
    h = IndexedMinHeap()
    h.push("a", 1.0)
    assert h.get("a") == 1.0
    assert h.get("b") is None
    assert h.get("b", -1.0) == -1.0


def test_ties_broken_by_insertion_order():
    h = IndexedMinHeap()
    h.push("first", 1.0)
    h.push("second", 1.0)
    assert h.pop()[1] == "first"
    assert h.pop()[1] == "second"


def test_clear_and_keys():
    h = IndexedMinHeap()
    h.push(1, 1.0)
    h.push(2, 2.0)
    assert sorted(h.keys()) == [1, 2]
    h.clear()
    assert len(h) == 0


def test_iteration_yields_all_keys():
    h = IndexedMinHeap()
    for i in range(5):
        h.push(i, float(-i))
    assert sorted(h) == [0, 1, 2, 3, 4]


@given(st.lists(st.tuples(st.integers(0, 50), st.floats(-1e6, 1e6)), max_size=200))
@settings(max_examples=100)
def test_property_pop_order_sorted(ops):
    """Whatever the insert/update sequence, pops come out sorted."""
    h = IndexedMinHeap()
    for key, pri in ops:
        h.push_or_update(key, pri)
    h.check_invariants()
    out = []
    while len(h):
        out.append(h.pop()[0])
    assert out == sorted(out)


@given(
    st.lists(
        st.tuples(st.sampled_from(["push", "pop", "remove", "update"]),
                  st.integers(0, 20), st.floats(-100, 100)),
        max_size=150,
    )
)
@settings(max_examples=100)
def test_property_invariants_under_mixed_ops(ops):
    """Heap order + position map stay consistent under arbitrary ops."""
    h = IndexedMinHeap()
    model = {}
    for op, key, pri in ops:
        if op == "push":
            if key not in model:
                h.push(key, pri)
                model[key] = pri
        elif op == "pop":
            if model:
                p, k = h.pop()
                assert p == min(model.values())
                del model[k]
        elif op == "remove":
            if key in model:
                assert h.remove(key) == model.pop(key)
        else:  # update
            if key in model:
                h.update(key, pri)
                model[key] = pri
        h.check_invariants()
        assert len(h) == len(model)
    for k, v in model.items():
        assert h.priority(k) == v


class _SwapSiftHeap(IndexedMinHeap):
    """Reference: the swap-per-level sift the hole-style sift replaced."""

    __slots__ = ()

    def _less(self, a, b):
        ea, eb = self._heap[a], self._heap[b]
        return (ea[0], ea[1]) < (eb[0], eb[1])

    def _swap(self, a, b):
        heap, pos = self._heap, self._pos
        heap[a], heap[b] = heap[b], heap[a]
        pos[heap[a][2]] = a
        pos[heap[b][2]] = b

    def _sift_up(self, slot):
        while slot > 0:
            parent = (slot - 1) >> 1
            if not self._less(slot, parent):
                break
            self._swap(slot, parent)
            slot = parent

    def _sift_down(self, slot):
        n = len(self._heap)
        while True:
            left, right = 2 * slot + 1, 2 * slot + 2
            smallest = slot
            if left < n and self._less(left, smallest):
                smallest = left
            if right < n and self._less(right, smallest):
                smallest = right
            if smallest == slot:
                break
            self._swap(slot, smallest)
            slot = smallest


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["push", "pop", "remove", "update", "push_or_update"]),
            st.integers(0, 24),
            # Few distinct priorities, so tiebreaks decide many comparisons.
            st.one_of(st.integers(-3, 3).map(float), st.floats(-100, 100)),
        ),
        max_size=200,
    )
)
@settings(max_examples=150)
def test_hole_sift_matches_swap_sift(ops):
    """The hole-style sift leaves the heap array, position map and
    snapshot exactly as the swap-per-level sift does, after every op."""
    h, ref = IndexedMinHeap(), _SwapSiftHeap()
    for op, key, pri in ops:
        if op == "push":
            if key in ref:
                continue
            h.push(key, pri)
            ref.push(key, pri)
        elif op == "pop":
            if not len(ref):
                continue
            assert h.pop() == ref.pop()
        elif op == "remove":
            if key not in ref:
                continue
            assert h.remove(key) == ref.remove(key)
        elif op == "update":
            if key not in ref:
                continue
            h.update(key, pri)
            ref.update(key, pri)
        else:
            h.push_or_update(key, pri)
            ref.push_or_update(key, pri)
        assert h._heap == ref._heap
        assert h._pos == ref._pos
        assert h.state_dict() == ref.state_dict()
    h.check_invariants()
