"""Exact k-nearest-neighbor index.

Serves two roles: a correctness oracle for HNSW recall tests, and a drop-in
neighbor-search backend for small datasets where exact search is cheaper
than maintaining a graph index.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.ann.distance import l2_distances, squared_radius

__all__ = ["BruteForceIndex", "RangeRows"]

Row = Tuple[np.ndarray, np.ndarray]


class RangeRows(Sequence):
    """A batched range query's result, held as CSR.

    Query ``i``'s hits are ``ids[offsets[i]:offsets[i + 1]]`` in storage
    order. Indexing gives the list contract every range query keeps: an
    ``(ids, dists)`` pair, distance-sorted (stable, so equal distances keep
    storage order) and cut to ``max_neighbors``. A row is built on first
    access and cached, so a caller that only counts hits never pays for a
    ``sqrt`` or a sort.
    """

    __slots__ = ("offsets", "ids", "max_neighbors", "_sq", "_rows")

    def __init__(self, offsets: np.ndarray, ids: np.ndarray, sq: np.ndarray,
                 max_neighbors: int) -> None:
        self.offsets = offsets
        self.ids = ids
        self.max_neighbors = int(max_neighbors)
        self._sq = sq  # squared distances, aligned with ``ids``
        self._rows: List[Optional[Row]] = [None] * (len(offsets) - 1)

    @classmethod
    def from_lists(cls, rows: Sequence[Row]) -> "RangeRows":
        """Wrap finished ``(ids, dists)`` rows (the HNSW backend's result)."""
        rows = [(np.asarray(i, dtype=np.int64), np.asarray(d, dtype=np.float64))
                for i, d in rows]
        hits = [len(i) for i, _ in rows]
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(hits, out=offsets[1:])
        ids = (np.concatenate([i for i, _ in rows]) if rows
               else np.empty(0, dtype=np.int64))
        out = cls(offsets, ids, np.empty(0), max(hits, default=0))
        out._rows = rows
        return out

    @property
    def hits(self) -> np.ndarray:
        """Hits per query before the ``max_neighbors`` cut."""
        return np.diff(self.offsets)

    def over_cap(self) -> np.ndarray:
        """Queries whose ``max_neighbors`` cut drops hits: only their
        nearest ``max_neighbors`` are in the row."""
        return np.flatnonzero(self.hits > self.max_neighbors)

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self._rows))[i]]
        row = self._rows[i]
        if row is None:
            i = range(len(self._rows))[i]
            lo, hi = self.offsets[i], self.offsets[i + 1]
            dists = np.sqrt(np.maximum(self._sq[lo:hi], 0.0))
            order = np.argsort(dists, kind="stable")[: self.max_neighbors]
            row = self._rows[i] = (self.ids[lo:hi][order], dists[order])
        return row

    def __iter__(self) -> Iterator[Row]:
        for i in range(len(self._rows)):
            yield self[i]


class BruteForceIndex:
    """Flat exact index with the same interface as :class:`HNSWIndex`.

    Supports incremental ``add``/``update`` keyed by integer ids, like the
    paper's dynamically updated HNSW index (embeddings change every time a
    sample is re-processed). Each storage slot keeps its vector, its
    squared norm and its id, so a query never recomputes the stored norms.
    """

    def __init__(self, dim: int, capacity: int = 1024) -> None:
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = int(dim)
        self._data = np.empty((capacity, dim), dtype=np.float64)
        self._sqnorm = np.empty(capacity, dtype=np.float64)
        self._id_at = np.empty(capacity, dtype=np.int64)  # slot -> id
        self._n = 0
        self._slot_of: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    def __contains__(self, item_id: int) -> bool:
        return int(item_id) in self._slot_of

    @property
    def ids(self) -> List[int]:
        return self._id_at[: self._n].tolist()

    def vector(self, item_id: int) -> np.ndarray:
        """Return a copy of the stored vector for ``item_id``."""
        return self._data[self._slot_of[int(item_id)]].copy()

    # ------------------------------------------------------------------
    def _reserve(self, n: int) -> None:
        """Grow storage (doubling) to hold ``n`` slots."""
        cap = self._data.shape[0]
        if n <= cap:
            return
        cap = max(n, 4, 2 * cap)
        m = self._n
        data = np.empty((cap, self.dim), dtype=np.float64)
        data[:m] = self._data[:m]
        sqnorm = np.empty(cap, dtype=np.float64)
        sqnorm[:m] = self._sqnorm[:m]
        id_at = np.empty(cap, dtype=np.int64)
        id_at[:m] = self._id_at[:m]
        self._data, self._sqnorm, self._id_at = data, sqnorm, id_at

    def _new_slot(self, item_id: int) -> int:
        slot = self._n
        self._reserve(slot + 1)
        self._id_at[slot] = item_id
        self._slot_of[item_id] = slot
        self._n = slot + 1
        return slot

    def add(self, item_id: int, vector: np.ndarray) -> None:
        """Insert or update a single vector."""
        item_id = int(item_id)
        vector = np.asarray(vector, dtype=np.float64).ravel()
        if vector.shape[0] != self.dim:
            raise ValueError(f"expected dim {self.dim}, got {vector.shape[0]}")
        slot = self._slot_of.get(item_id)
        if slot is None:
            slot = self._new_slot(item_id)
        self._data[slot] = vector
        # Row-wise einsum: the same norm ``l2_distance_matrix`` computes.
        row = self._data[slot : slot + 1]
        self._sqnorm[slot] = np.einsum("ij,ij->i", row, row)[0]

    def add_batch(self, item_ids: np.ndarray, vectors: np.ndarray) -> None:
        """Insert or update many vectors at once (a repeated id keeps its
        last vector, as a loop of :meth:`add` would)."""
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        ids = [int(i) for i in np.asarray(item_ids).ravel()]
        if len(ids) != len(vectors):
            raise ValueError("item_ids and vectors length mismatch")
        if vectors.shape[1] != self.dim:
            raise ValueError(f"expected dim {self.dim}, got {vectors.shape[1]}")
        if len(set(ids)) != len(ids):
            for i, v in zip(ids, vectors):
                self.add(i, v)
            return
        slot_of = self._slot_of
        slots = np.fromiter(
            (slot_of[i] if i in slot_of else self._new_slot(i) for i in ids),
            dtype=np.int64, count=len(ids),
        )
        self._data[slots] = vectors
        self._sqnorm[slots] = np.einsum("ij,ij->i", vectors, vectors)

    # ``update`` is an alias: brute-force storage overwrites in place.
    update = add

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Snapshot of ids (slot order) and stored vectors."""
        n = self._n
        return {"ids": self._id_at[:n].copy(), "vectors": self._data[:n].copy()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Restore a :meth:`state_dict` snapshot (slot order preserved)."""
        ids = np.asarray(state["ids"], dtype=np.int64)
        vectors = np.asarray(state["vectors"], dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise ValueError("vector snapshot does not match index dim")
        if ids.shape[0] != vectors.shape[0]:
            raise ValueError("ids and vectors length mismatch")
        n = ids.shape[0]
        self._n = 0
        self._reserve(n)
        self._data[:n] = vectors
        self._sqnorm[:n] = np.einsum("ij,ij->i", vectors, vectors)
        self._id_at[:n] = ids
        self._n = n
        self._slot_of = {i: slot for slot, i in enumerate(ids.tolist())}

    def remove(self, item_id: int) -> None:
        """Delete a vector by id (swap-with-last)."""
        item_id = int(item_id)
        slot = self._slot_of.pop(item_id)
        last = self._n - 1
        if slot != last:
            last_id = int(self._id_at[last])
            self._data[slot] = self._data[last]
            self._sqnorm[slot] = self._sqnorm[last]
            self._id_at[slot] = last_id
            self._slot_of[last_id] = slot
        self._n = last

    # ------------------------------------------------------------------
    def search(
        self, query: np.ndarray, k: int, exclude: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact k-NN search.

        Returns ``(ids, distances)`` sorted ascending by distance. ``exclude``
        drops one id from the results (typically the query point itself when
        searching for a stored sample's neighbors).
        """
        n = self._n
        if n == 0:
            return np.empty(0, dtype=np.int64), np.empty(0)
        dists = l2_distances(query, self._data[:n])
        order = np.argsort(dists, kind="stable")
        ids = self._id_at[order]
        dists = dists[order]
        if exclude is not None:
            keep = ids != int(exclude)
            ids, dists = ids[keep], dists[keep]
        k = min(int(k), len(ids))
        return ids[:k], dists[:k]

    def search_batch(
        self, queries: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact k-NN for many queries at once (one GEMM).

        Returns ``(ids, dists)`` of shape ``(n_queries, k)``; rows are padded
        with ``-1``/``inf`` when fewer than ``k`` points are stored.
        """
        from repro.ann.distance import l2_distance_matrix

        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        nq = queries.shape[0]
        n = self._n
        k = int(k)
        out_ids = np.full((nq, k), -1, dtype=np.int64)
        out_d = np.full((nq, k), np.inf)
        if n == 0:
            return out_ids, out_d
        dmat = l2_distance_matrix(queries, self._data[:n])
        kk = min(k, n)
        part = np.argpartition(dmat, kk - 1, axis=1)[:, :kk]
        pd = np.take_along_axis(dmat, part, axis=1)
        order = np.argsort(pd, axis=1, kind="stable")
        sorted_idx = np.take_along_axis(part, order, axis=1)
        out_ids[:, :kk] = self._id_at[sorted_idx]
        out_d[:, :kk] = np.take_along_axis(dmat, sorted_idx, axis=1)
        return out_ids, out_d

    def neighbors_within_batch(
        self,
        queries: np.ndarray,
        radius: float,
        exclude: Optional[np.ndarray] = None,
        max_neighbors: int = 512,
    ) -> RangeRows:
        """Vectorized range query for many queries.

        Computes squared distances ``|q|^2 + |x|^2 - 2 q.x`` in the same
        float operations as :func:`~repro.ann.distance.l2_distance_matrix`
        and keeps those at or below :func:`~repro.ann.distance.squared_radius`,
        so the hits are exactly the ones ``sqrt(sq) <= radius`` keeps, with
        no ``sqrt`` taken. ``exclude[i]`` (if given, ``-1`` = none) removes
        one id from query ``i``'s results — used to drop self-matches when
        queries are stored points. Returns a :class:`RangeRows`: row ``i``
        is query ``i``'s ``(ids, dists)``, distance-sorted and truncated to
        ``max_neighbors``, built only when read.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        nq, n = queries.shape[0], self._n
        if n == 0:
            return RangeRows(np.zeros(nq + 1, dtype=np.int64),
                             np.empty(0, dtype=np.int64), np.empty(0),
                             max_neighbors)
        gram = queries @ self._data[:n].T
        gram *= 2.0
        sq = np.einsum("ij,ij->i", queries, queries)[:, None] + self._sqnorm[:n]
        sq -= gram
        hit = sq <= squared_radius(radius)
        if exclude is not None:
            slot_of = self._slot_of
            self_slot = np.fromiter(
                (slot_of.get(e, -1) if e >= 0 else -1
                 for e in np.asarray(exclude).tolist()),
                dtype=np.int64, count=nq,
            )
            rows = np.flatnonzero(self_slot >= 0)
            hit[rows, self_slot[rows]] = False
        flat = np.flatnonzero(hit)
        offsets = np.zeros(nq + 1, dtype=np.int64)
        np.cumsum(np.bincount(flat // n, minlength=nq), out=offsets[1:])
        return RangeRows(offsets, self._id_at[flat % n], sq.ravel()[flat],
                         max_neighbors)

    def neighbors_within(
        self,
        query: np.ndarray,
        radius: float,
        exclude: Optional[int] = None,
        max_neighbors: int = 512,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """All stored points with distance <= ``radius`` from ``query``,
        distance-sorted and truncated to ``max_neighbors`` (matching the
        batched variant's contract)."""
        n = self._n
        if n == 0:
            return np.empty(0, dtype=np.int64), np.empty(0)
        dists = l2_distances(query, self._data[:n])
        ids = self._id_at[:n]
        keep = dists <= radius
        if exclude is not None:
            keep &= ids != int(exclude)
        ids, dists = ids[keep], dists[keep]
        order = np.argsort(dists, kind="stable")[:max_neighbors]
        return ids[order], dists[order]
