"""Payload-store contract under the semantic cache layers.

The cache *policy* — importance admission with heap tiebreaks, the
homophily FIFO and its cover map, the Fig. 9 fetch chain, degraded
serving, the elastic split — lives in :mod:`repro.core` and only there.
Where a layer keeps its payload bytes is a separate concern behind this
small per-layer, keyed contract, so one policy runs over two stores:

* :class:`LocalPayloadStore` — an in-process dict that never fails (the
  monolithic cache; the paper's single-node setup);
* :class:`~repro.dist.client.ShardedPayloadStore` — payloads on shard
  servers behind RPC, where any read or write may fail (the paper's
  shared Redis tier).

Failure semantics every store follows, and the layers rely on:

* ``get`` / ``peek`` return ``None`` for a key they cannot serve (absent
  or unreachable); the layer counts a miss and moves on;
* ``put`` returns ``False`` when the payload did not land; the layer
  drops the admit and leaves its metadata untouched (payload-first
  writes — :meth:`~repro.core.importance_cache.ImportanceCache.admit`
  and :meth:`~repro.core.homophily_cache.HomophilyCache.update`);
* ``delete`` is best-effort and never raises;
* ``export`` is all-or-nothing: it raises rather than hand a checkpoint
  a partial snapshot.

Calls are keyed one at a time; a store is free to group them into
per-shard batches behind this interface.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Optional

__all__ = ["PayloadStore", "LocalPayloadStore"]


class PayloadStore(abc.ABC):
    """Keyed payload storage for one cache layer."""

    @abc.abstractmethod
    def get(self, key: int, substitute: bool = False) -> Optional[Any]:
        """Counted read for a cache hit: the payload, or ``None``.

        ``substitute`` marks a homophily neighbour-cover serve; stores
        that keep per-location hit counters use it to pick the counter.
        """

    @abc.abstractmethod
    def peek(self, key: int) -> Optional[Any]:
        """Neutral read for degraded serving: touches no hit counter."""

    @abc.abstractmethod
    def put(self, key: int, payload: Any) -> bool:
        """Store (or overwrite) a payload; ``False`` if it did not land."""

    @abc.abstractmethod
    def delete(self, key: int) -> None:
        """Drop a payload, best-effort (never raises)."""

    @abc.abstractmethod
    def export(self) -> Dict[int, Any]:
        """Every resident payload, in insertion order.

        Raises if any resident payload cannot be read.
        """

    @abc.abstractmethod
    def load(self, entries: Dict[int, Any]) -> None:
        """Replace the contents with ``entries`` (checkpoint restore)."""


class LocalPayloadStore(PayloadStore):
    """In-process dict store; every operation succeeds."""

    def __init__(self) -> None:
        self._data: Dict[int, Any] = {}

    def get(self, key: int, substitute: bool = False) -> Optional[Any]:
        return self._data.get(key)

    def peek(self, key: int) -> Optional[Any]:
        return self._data.get(key)

    def put(self, key: int, payload: Any) -> bool:
        self._data[key] = payload
        return True

    def delete(self, key: int) -> None:
        self._data.pop(key, None)

    def export(self) -> Dict[int, Any]:
        return dict(self._data)

    def load(self, entries: Dict[int, Any]) -> None:
        self._data = dict(entries)
