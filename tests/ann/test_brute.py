"""BruteForceIndex tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ann.brute import BruteForceIndex


@pytest.fixture
def idx():
    index = BruteForceIndex(dim=4)
    rng = np.random.default_rng(0)
    for i in range(30):
        index.add(i, rng.normal(size=4))
    return index


def test_len_contains_ids(idx):
    assert len(idx) == 30
    assert 5 in idx
    assert 99 not in idx
    assert sorted(idx.ids) == list(range(30))


def test_vector_roundtrip():
    idx = BruteForceIndex(dim=3)
    v = np.array([1.0, 2.0, 3.0])
    idx.add(7, v)
    np.testing.assert_array_equal(idx.vector(7), v)
    # Returned vector is a copy.
    idx.vector(7)[0] = 99.0
    assert idx.vector(7)[0] == 1.0


def test_add_overwrites(idx):
    idx.add(3, np.zeros(4))
    assert len(idx) == 30
    np.testing.assert_array_equal(idx.vector(3), np.zeros(4))


def test_wrong_dim_rejected():
    idx = BruteForceIndex(dim=4)
    with pytest.raises(ValueError):
        idx.add(0, np.zeros(3))


def test_bad_dim_init():
    with pytest.raises(ValueError):
        BruteForceIndex(dim=0)


def test_search_exact(idx):
    q = idx.vector(10)
    ids, dists = idx.search(q, k=1)
    assert ids[0] == 10
    # GEMM-expansion distance has ~1e-8 abs error at true zero.
    assert dists[0] == pytest.approx(0.0, abs=1e-6)


def test_search_sorted(idx):
    ids, dists = idx.search(np.zeros(4), k=10)
    assert len(ids) == 10
    assert np.all(np.diff(dists) >= 0)


def test_search_exclude(idx):
    q = idx.vector(10)
    ids, _ = idx.search(q, k=5, exclude=10)
    assert 10 not in ids


def test_search_k_exceeds_size():
    idx = BruteForceIndex(dim=2)
    idx.add(0, np.zeros(2))
    ids, dists = idx.search(np.zeros(2), k=10)
    assert len(ids) == 1


def test_search_empty_index():
    idx = BruteForceIndex(dim=2)
    ids, dists = idx.search(np.zeros(2), k=3)
    assert len(ids) == 0 and len(dists) == 0


def test_remove_swaps_last(idx):
    idx.remove(0)
    assert 0 not in idx
    assert len(idx) == 29
    # Remaining searches still work.
    ids, _ = idx.search(np.zeros(4), k=29)
    assert 0 not in ids


def test_remove_missing_raises(idx):
    with pytest.raises(KeyError):
        idx.remove(1000)


def test_neighbors_within_radius(idx):
    q = np.zeros(4)
    ids, dists = idx.neighbors_within(q, radius=1.5)
    assert np.all(dists <= 1.5)
    # Verify completeness against search.
    all_ids, all_d = idx.search(q, k=30)
    expected = set(all_ids[all_d <= 1.5].tolist())
    assert set(ids.tolist()) == expected


def test_search_batch_matches_single(idx):
    rng = np.random.default_rng(1)
    queries = rng.normal(size=(5, 4))
    bids, bd = idx.search_batch(queries, k=7)
    for qi in range(5):
        sids, sd = idx.search(queries[qi], k=7)
        np.testing.assert_array_equal(bids[qi], sids)
        np.testing.assert_allclose(bd[qi], sd, atol=1e-10)


def test_search_batch_padding():
    idx = BruteForceIndex(dim=2)
    idx.add(0, np.zeros(2))
    ids, d = idx.search_batch(np.zeros((1, 2)), k=4)
    assert ids[0, 0] == 0
    assert np.all(ids[0, 1:] == -1)
    assert np.all(np.isinf(d[0, 1:]))


def test_neighbors_within_batch_excludes_self(idx):
    queries = np.stack([idx.vector(i) for i in [0, 1, 2]])
    res = idx.neighbors_within_batch(queries, radius=10.0, exclude=np.array([0, 1, 2]))
    for qi, (ids, dists) in enumerate(res):
        assert qi not in ids
        assert np.all(np.diff(dists) >= 0)


def test_neighbors_within_batch_max_neighbors(idx):
    res = idx.neighbors_within_batch(np.zeros((1, 4)), radius=100.0, max_neighbors=5)
    assert len(res[0][0]) == 5


def test_add_batch_length_mismatch():
    idx = BruteForceIndex(dim=2)
    with pytest.raises(ValueError):
        idx.add_batch(np.array([0, 1]), np.zeros((3, 2)))


def test_capacity_growth():
    idx = BruteForceIndex(dim=2, capacity=2)
    for i in range(10):
        idx.add(i, np.full(2, float(i)))
    assert len(idx) == 10
    np.testing.assert_array_equal(idx.vector(9), [9.0, 9.0])


# ----------------------------------------------------------------------
# Batched range query vs an oracle kept in the test.
#
# Vectors sit on a small integer grid, so every squared distance is an
# exact integer on both sides: a grid point exactly on the radius is a
# real boundary case, and duplicated points tie at the max_neighbors cut.
# ----------------------------------------------------------------------
_grid_points = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-1, 1)),
    min_size=1, max_size=40,
)


def _oracle_rows(index, model, queries, radius, exclude, cap):
    """Distance-sorted rows from the id -> vector ``model``, walking the
    index's slot order (``index.ids``) so ties break the same way."""
    order = index.ids
    assert sorted(order) == sorted(model)
    rows = []
    for q, ex in zip(queries, exclude):
        hits = []
        for i in order:
            d = float(np.sqrt(np.sum((q - model[i]) ** 2)))
            if d <= radius and i != ex:
                hits.append((d, i))
        hits.sort(key=lambda h: h[0])  # stable: slot order on ties
        hits = hits[:cap]
        rows.append((np.array([i for _, i in hits], dtype=np.int64),
                     np.array([d for d, _ in hits])))
    return rows


def _assert_rows_equal(got, want):
    assert len(got) == len(want)
    for (gi, gd), (wi, wd) in zip(got, want):
        np.testing.assert_array_equal(gi, wi)
        np.testing.assert_array_equal(gd, wd)


@given(_grid_points, st.integers(0, 20), st.integers(1, 8), st.data())
@settings(max_examples=150, deadline=None)
def test_range_rows_match_oracle_after_remove_and_reload(
    points, r2, cap, data
):
    """Range rows equal the oracle's (ids, dists) bit for bit, including
    points exactly on the radius and ties at the cap; they stay equal
    after removes (swap-with-last moves a slot's norm and id) and after a
    state_dict / load_state_dict round trip."""
    radius = float(np.sqrt(r2))
    vecs = np.array(points, dtype=np.float64)
    index = BruteForceIndex(dim=3, capacity=2)
    half = len(vecs) // 2
    for i in range(half):
        index.add(i, vecs[i])
    index.add_batch(np.arange(half, len(vecs)), vecs[half:])
    model = {i: vecs[i] for i in range(len(vecs))}
    exclude = np.array(
        data.draw(st.lists(st.integers(-1, len(vecs)), min_size=len(vecs),
                           max_size=len(vecs)))
    )

    def check(idx):
        got = idx.neighbors_within_batch(vecs, radius, exclude=exclude,
                                         max_neighbors=cap)
        _assert_rows_equal(got, _oracle_rows(idx, model, vecs, radius,
                                             exclude, cap))
        for q, ex, row in zip(vecs, exclude, got):
            single = idx.neighbors_within(q, radius, exclude=int(ex),
                                          max_neighbors=cap)
            _assert_rows_equal([row], [single])

    check(index)
    for i in data.draw(st.lists(st.sampled_from(sorted(model)), unique=True,
                                max_size=len(model) - 1)):
        index.remove(i)
        del model[i]
    check(index)
    restored = BruteForceIndex(dim=3, capacity=1)
    restored.load_state_dict(index.state_dict())
    check(restored)
    # Overwriting a stored vector refreshes its norm.
    moved = next(iter(model))
    model[moved] = model[moved] + 1.0
    restored.add_batch(np.array([moved]), model[moved][None, :])
    check(restored)


def test_range_rows_lazy_and_list_like(idx):
    queries = np.stack([idx.vector(i) for i in [0, 1, 2]])
    rows = idx.neighbors_within_batch(queries, radius=2.0,
                                      exclude=np.array([0, 1, 2]))
    assert len(rows) == 3
    assert rows._rows == [None, None, None]  # nothing sorted yet
    first = rows[0]
    assert rows[0] is first  # built once, then cached
    assert rows._rows[1] is None
    assert rows[-1] is rows[2]
    assert [r[0].tolist() for r in rows[1:]] == [rows[1][0].tolist(),
                                                rows[2][0].tolist()]
    assert sum(len(ids) for ids, _ in rows) == int(
        np.minimum(rows.hits, rows.max_neighbors).sum())
    with pytest.raises(IndexError):
        rows[3]


def test_range_rows_empty_index():
    rows = BruteForceIndex(dim=2).neighbors_within_batch(np.zeros((2, 2)), 1.0)
    assert len(rows) == 2
    for ids, dists in rows:
        assert ids.size == 0 and dists.size == 0
