"""Sharded payload tier under the semantic cache: payloads on the shards.

:class:`ShardedCacheClient` is the one cache policy,
:class:`~repro.core.semantic_cache.SemanticCache`, with its two layers'
payloads kept on :class:`~repro.dist.server.CacheShardServer` partitions
instead of in-process dicts. The partitions are reached through
:class:`ShardedPayloadStore`, which implements the per-layer
:class:`~repro.core.payload_store.PayloadStore` contract over a
deadline-enforcing :class:`~repro.dist.rpc.Transport` — the simulated,
fault-injected :class:`~repro.dist.rpc.SimRpcChannel` (deterministic
oracle) or the wall-clock
:class:`~repro.dist.transport.RealRpcTransport` (servers in real worker
processes), selected by the ``transport`` parameter.

The store holds no policy. It keeps the ring, the transport, per-shard
circuit breakers, seeded-jitter retries
(:class:`~repro.dist.retry.RetryPolicy`), the anti-entropy queue, and
the per-key location maps; admission, eviction order, FIFO turnover,
the cover map and the capacity split stay in :mod:`repro.core`.
Consequences:

* every admission/eviction/substitution *decision* is the monolith's
  own code, so a fault-free sharded run is **bit-identical** (same
  ``state_dict``, same stats) to a monolithic run for any shard count —
  the differential oracle in ``tests/dist`` checks it for K in {1, 2, 4}
  and across live ring resizes;
* an RPC failure can only lose *payload availability*, never corrupt
  policy state: a failed read returns ``None`` (the layer counts a miss
  and the next protocol stage serves), a failed ``put`` returns
  ``False`` (the layer drops the admit before touching its metadata —
  the payload-first rule in
  :meth:`~repro.core.importance_cache.ImportanceCache.admit` and
  :meth:`~repro.core.homophily_cache.HomophilyCache.update`), so
  capacity/eviction/FIFO invariants hold through arbitrary
  outage/brownout schedules.

Victim deletes are best-effort: failures park in a per-shard
anti-entropy queue, flushed opportunistically after the next successful
call to that shard. An ambiguously timed-out put is queued there too.

Live resizing: :meth:`ShardedPayloadStore.resize` plans a key migration
to a ring of the new size (see :mod:`repro.dist.migration`) and
:meth:`~ShardedPayloadStore.continue_migration` drains it over the same
faulty channel — interruptible, idempotent, and verified by
:meth:`~ShardedPayloadStore.verify_placement`.

The store is not thread-safe. The cache's lock stripes serialize calls
within one layer but not across the two, so it relies on the data-parallel
trainer's single loader thread per worker.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.payload_store import PayloadStore
from repro.core.semantic_cache import FetchOutcome, SemanticCache
from repro.dist.migration import (
    DEFAULT_BATCH_SIZE,
    MigrationState,
    plan_migration,
)
from repro.dist.retry import RetryBudgetExhausted, RetryPolicy
from repro.dist.ring import DEFAULT_SEED, ConsistentHashRing
from repro.dist.rpc import (
    RpcError,
    RpcTimeoutError,
    ShardOutageError,
    SimRpcChannel,
    Transport,
)
from repro.dist.server import CacheShardServer
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.errors import CircuitOpenError
from repro.storage.clock import SimClock
from repro.storage.latency import LatencyModel

__all__ = ["ShardedCacheClient", "ShardedPayloadStore", "ShardLayerStore"]

#: Failures after which a shard interaction degrades instead of raising:
#: a burned retry budget (an ``RpcError`` subclass) or a fail-fast
#: rejection from an open per-shard breaker.
_DEGRADE_ERRORS = (RpcError, CircuitOpenError)

#: Single-attempt channel failures (retried / parked by the layers above).
_ATTEMPT_ERRORS = (ShardOutageError, RpcTimeoutError)

#: Audit-event layer names of the two payload namespaces.
_LAYER_NAMES = {"imp": "importance", "hom": "homophily"}


class ShardedPayloadStore:
    """The shard tier: breaker-guarded, retried RPCs to payload shards.

    Parameters
    ----------
    n_shards:
        Initial shard-server count (consistent-hash ring size).
    transport:
        ``"sim"`` (default) builds a :class:`SimRpcChannel` — in-process
        servers, simulated clock, fault injection; the deterministic
        oracle. ``"real"`` builds a
        :class:`~repro.dist.transport.RealRpcTransport` — servers in
        real worker processes on a wall clock (``latency`` /
        ``fault_plans`` are rejected; chaos uses the transport's
        ``kill_shard``). A prebuilt :class:`~repro.dist.rpc.Transport`
        instance is also accepted.
    clock / latency / deadline_s / fault_plans:
        Forwarded to the transport (shared clock, per-call latency
        model — sim only, per-call deadline, per-shard fault schedules —
        sim only).
    retry:
        :class:`RetryPolicy` for every cache-protocol call; default
        policy retries twice with seeded-jitter exponential backoff.
    breaker_failure_threshold / breaker_cooldown_s / breaker_close_threshold:
        Per-shard :class:`CircuitBreaker` parameters (every shard gets
        its own breaker; new shards added by :meth:`resize` inherit
        them).
    vnodes / seed:
        Consistent-hash ring geometry (see :mod:`repro.dist.ring`).
    migration_batch_size:
        Keys per migration transfer batch during a live resize.

    The cache layers run on its per-layer :class:`ShardLayerStore` views.
    """

    def __init__(
        self,
        n_shards: int = 1,
        transport: Any = "sim",
        clock: Optional[SimClock] = None,
        latency: Optional[LatencyModel] = None,
        deadline_s: float = 0.01,
        retry: Optional[RetryPolicy] = None,
        fault_plans: Optional[Dict[int, Any]] = None,
        breaker_failure_threshold: int = 3,
        breaker_cooldown_s: float = 0.05,
        breaker_close_threshold: int = 1,
        vnodes: int = 64,
        seed: int = DEFAULT_SEED,
        migration_batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.n_shards = int(n_shards)
        self.ring = ConsistentHashRing(self.n_shards, vnodes=vnodes, seed=seed)
        if isinstance(transport, str):
            if transport == "sim":
                self.transport: Transport = SimRpcChannel(
                    clock=clock,
                    latency=latency,
                    deadline_s=deadline_s,
                    fault_plans=fault_plans,
                )
            elif transport == "real":
                if latency is not None:
                    raise ValueError(
                        "latency models are a simulation feature; the real "
                        "transport has real latency"
                    )
                if fault_plans:
                    raise ValueError(
                        "fault plans are a simulation feature; use the real "
                        "transport's kill_shard for wall-clock chaos"
                    )
                from repro.dist.transport import RealRpcTransport

                self.transport = RealRpcTransport(
                    clock=clock, deadline_s=deadline_s
                )
            else:
                raise ValueError(
                    f"unknown transport {transport!r}; expected 'sim', "
                    "'real', or a Transport instance"
                )
        else:
            self.transport = transport
        for sid in range(self.n_shards):
            if not self.transport.has_shard(sid):
                self.transport.add_shard(sid)
        self.clock = self.transport.clock
        self.retry = retry if retry is not None else RetryPolicy()
        self._breaker_kwargs = dict(
            failure_threshold=int(breaker_failure_threshold),
            cooldown_s=float(breaker_cooldown_s),
            close_threshold=int(breaker_close_threshold),
        )
        self.breakers: Dict[int, CircuitBreaker] = {
            sid: CircuitBreaker(**self._breaker_kwargs)
            for sid in range(self.n_shards)
        }

        #: Per-layer ``key -> shard holding its payload`` maps. Mutated in
        #: place, never rebound (the :class:`ShardLayerStore` views hold
        #: references).
        self.locations: Dict[str, Dict[int, int]] = {"imp": {}, "hom": {}}

        # -- fault-tolerance bookkeeping ---------------------------------
        self._pending_deletes: Dict[int, List[Tuple[str, int]]] = {}
        self._shard_stats: Dict[int, Counter] = defaultdict(Counter)
        self.dropped_admits = 0  # failed payload puts (metadata untouched)
        self.degraded_lookups = 0  # failed payload reads served as misses
        self.rpc_retries = 0
        self._rpc_seq = 0  # deterministic per-request id for jitter

        self.migration_batch_size = int(migration_batch_size)
        self.migration: Optional[MigrationState] = None  # in-flight resize
        self.completed_resizes = 0
        self._obs = NULL_OBSERVER

    # ------------------------------------------------------------------
    # wiring / introspection
    # ------------------------------------------------------------------
    def attach_observer(self, observer: Observer) -> None:
        """Publish RPC and breaker activity to ``observer``."""
        self._obs = observer
        self.transport.attach_observer(observer)
        for sid, breaker in self.breakers.items():
            breaker.attach_observer(observer, label=f"shard{sid}")

    @property
    def servers(self) -> Dict[int, CacheShardServer]:
        """In-process server dict (sim transport only; the real
        transport's servers live in other processes)."""
        return self.transport.servers

    def set_fault_plan(self, shard: int, plan: Optional[Any]) -> None:
        """Install (or clear) one shard's fault schedule."""
        self.transport.set_fault_plan(shard, plan)

    def _placement_ring(self) -> ConsistentHashRing:
        """Ring governing *new* placements: the migration target while a
        resize is in flight (so fresh admits land where they will end
        up), the active ring otherwise."""
        if self.migration is not None:
            return self.migration.target_ring
        return self.ring

    # ------------------------------------------------------------------
    # RPC machinery
    # ------------------------------------------------------------------
    def _call_with_retries(
        self, shard: int, method: str, *args: Any, nbytes: int = 0
    ) -> Any:
        """One logical request: breaker gate, then up to
        ``retry.max_attempts`` channel attempts with seeded backoff.

        Raises :class:`CircuitOpenError` (fail-fast) or
        :class:`RetryBudgetExhausted`; callers degrade on both.
        """
        shard = int(shard)
        breaker = self.breakers[shard]
        clock = self.clock
        obs = self._obs
        request_id = self._rpc_seq
        self._rpc_seq += 1
        span = (
            obs.span_start(
                "rpc", clock.total_seconds, shard=shard, method=method,
                breaker=breaker.state.value, transport=self.transport.name,
            )
            if obs.active else None
        )
        last: Optional[RpcError] = None
        for attempt in range(self.retry.max_attempts):
            now = clock.total_seconds
            if not breaker.allow(now):
                breaker.fast_failures += 1
                self._shard_stats[shard]["rpc_fast_failures"] += 1
                if span is not None:
                    obs.span_end(
                        span, now, ok=False, error="circuit_open",
                        attempts=attempt,
                    )
                raise CircuitOpenError(
                    f"shard {shard} circuit open at t={now:.3f}s; "
                    f"rejecting {method}"
                )
            try:
                result = self.transport.call(shard, method, *args, nbytes=nbytes)
            except _ATTEMPT_ERRORS as exc:
                last = exc
                breaker.record_failure(clock.total_seconds)
                if attempt + 1 < self.retry.max_attempts:
                    self.rpc_retries += 1
                    self._shard_stats[shard]["rpc_retries"] += 1
                    t0 = clock.total_seconds
                    clock.advance(
                        self.transport.STAGE,
                        self.retry.backoff_s(request_id, attempt),
                    )
                    if obs.active:
                        obs.span_record(
                            "backoff", t0, clock.total_seconds,
                            shard=shard, attempt=attempt,
                        )
                continue
            breaker.record_success(clock.total_seconds)
            if span is not None:
                obs.span_end(
                    span, clock.total_seconds, ok=True, attempts=attempt + 1,
                )
            if self._pending_deletes.get(shard):
                self._flush_pending(shard)
            return result
        if span is not None:
            obs.span_end(
                span, clock.total_seconds, ok=False,
                error="retry_exhausted", attempts=self.retry.max_attempts,
            )
        raise RetryBudgetExhausted(shard, method, self.retry.max_attempts, last)

    def _best_effort_delete(self, shard: int, layer: str, key: int) -> None:
        """Victim/anti-entropy delete: single attempt, never raises.

        Failures park the ``(layer, key)`` pair in the shard's repair
        queue (a timed-out delete *executed* server-side; re-queueing is
        harmless because deletes are idempotent)."""
        shard = int(shard)
        entry = (layer, int(key))
        if not self.transport.has_shard(shard):
            return  # shard retired by a shrink resize; nothing to repair
        breaker = self.breakers.get(shard)
        now = self.clock.total_seconds
        if breaker is not None and not breaker.allow(now):
            self._pending_deletes.setdefault(shard, []).append(entry)
            return
        try:
            self.transport.call(shard, f"{layer}_delete", int(key))
        except _ATTEMPT_ERRORS:
            if breaker is not None:
                breaker.record_failure(self.clock.total_seconds)
            self._pending_deletes.setdefault(shard, []).append(entry)
        else:
            if breaker is not None:
                breaker.record_success(self.clock.total_seconds)

    def _bulk_delete(self, shard: int, entries: List[Tuple[str, int]]) -> None:
        """Single-attempt ``bulk_delete`` of ``(layer, key)`` pairs; on
        failure the pairs park in the shard's repair queue."""
        try:
            self.transport.call(shard, "bulk_delete", entries)
        except _ATTEMPT_ERRORS:
            self._pending_deletes.setdefault(shard, []).extend(entries)

    def _flush_pending(self, shard: int) -> None:
        """Opportunistic anti-entropy: drain a shard's queued deletes
        after a successful call proved it reachable. Entries whose key
        has since legitimately re-landed on that shard are dropped —
        deleting them would destroy a live payload."""
        queue = self._pending_deletes.get(shard)
        if not queue:
            return
        live: List[Tuple[str, int]] = []
        for layer, key in queue:
            if self.locations[layer].get(key) == shard:
                continue  # re-resident here; must NOT delete
            live.append((layer, key))
        self._pending_deletes[shard] = []
        if not live:
            return
        obs = self._obs
        span = (
            obs.span_start(
                "anti_entropy", self.clock.total_seconds,
                shard=int(shard), n=len(live),
            )
            if obs.active else None
        )
        repaired = True
        try:
            self.transport.call(shard, "bulk_delete", live)
        except _ATTEMPT_ERRORS:
            repaired = False
            self._pending_deletes[shard] = live + self._pending_deletes[shard]
        if span is not None:
            obs.span_end(span, self.clock.total_seconds, ok=repaired)

    # ------------------------------------------------------------------
    # live ring resize + key migration
    # ------------------------------------------------------------------
    def resize(
        self, new_shard_count: int, drain: bool = True
    ) -> Optional[MigrationState]:
        """Resize the ring to ``new_shard_count``, migrating keys.

        Grows spin up fresh servers/breakers immediately; the old ring
        stays authoritative for existing keys until their batch lands
        (new admits already target the new ring). With ``drain=True``
        (default) the whole migration runs now; otherwise call
        :meth:`continue_migration` — e.g. once per epoch boundary — to
        drain incrementally. Returns the :class:`MigrationState`, or
        ``None`` for a no-op resize."""
        new_n = int(new_shard_count)
        if new_n < 1:
            raise ValueError("new_shard_count must be >= 1")
        if self.migration is not None and not self.migration.done:
            raise RuntimeError("a ring resize is already in progress")
        old_n = self.ring.n_shards
        if new_n == old_n:
            return None
        for sid in range(old_n, new_n):
            self.transport.add_shard(sid)
            breaker = CircuitBreaker(**self._breaker_kwargs)
            breaker.attach_observer(self._obs, label=f"shard{sid}")
            self.breakers[sid] = breaker
        state = plan_migration(
            old_n,
            self.ring.spawn(new_n),
            {layer: dict(loc) for layer, loc in self.locations.items()},
            batch_size=self.migration_batch_size,
        )
        self.migration = state
        if self._obs.active:
            self._obs.on_resize(old_n, new_n, state.planned_moves)
        if drain:
            self.continue_migration()
        return state

    def continue_migration(
        self, max_batches: Optional[int] = None
    ) -> Optional[MigrationState]:
        """Drain (part of) the in-flight migration.

        Attempts each pending batch at most once per call; batches that
        fail (outage, open breaker, burned retry budget) rotate to the
        back and stay pending, so a dead shard stalls only its own keys.
        Batch keys are re-validated against live metadata at execution —
        keys evicted or relocated since planning are silently skipped.
        Finalizes the resize (ring swap, retired-server teardown) once
        the queue is empty. Safe to call when no migration is active."""
        state = self.migration
        if state is None:
            return None
        budget = len(state.pending)
        if max_batches is not None:
            budget = min(budget, int(max_batches))
        obs = self._obs
        span = (
            obs.span_start(
                "migration_drain", self.clock.total_seconds,
                pending=len(state.pending),
            )
            if obs.active and budget > 0 else None
        )
        moved_before = state.moved_keys
        while state.pending and budget > 0:
            budget -= 1
            batch = state.pending[0]
            loc = self.locations[batch.layer]
            live = [k for k in batch.keys if loc.get(k) == batch.src]
            if not live:
                state.pending.popleft()  # fully voided by eviction/churn
                continue
            try:
                payloads = self._call_with_retries(
                    batch.src, "migrate_out", batch.layer, live
                )
                entries = {k: payloads[k] for k in live if k in payloads}
                if entries:
                    nbytes = sum(
                        int(np.asarray(v).nbytes) for v in entries.values()
                    )
                    self._call_with_retries(
                        batch.dst, "migrate_in", batch.layer, entries,
                        nbytes=nbytes,
                    )
            except _DEGRADE_ERRORS:
                state.failed_batches += 1
                state.pending.rotate(-1)
                continue
            state.pending.popleft()
            for k in entries:
                loc[k] = batch.dst  # point of no return: reads move over
            state.moved_keys += len(entries)
            if entries:
                self._bulk_delete(
                    batch.src, [(batch.layer, k) for k in entries]
                )
        if span is not None:
            obs.span_end(
                span, self.clock.total_seconds,
                moved=state.moved_keys - moved_before,
                remaining=len(state.pending),
            )
        if state.done:
            self._finalize_migration(state)
        return state

    def _finalize_migration(self, state: MigrationState) -> None:
        old_n = self.ring.n_shards
        self.ring = state.target_ring
        self.n_shards = self.ring.n_shards
        for sid in range(self.n_shards, old_n):
            # Retired shards hold no referenced payloads any more; their
            # queued repairs die with them.
            self.transport.remove_shard(sid)
            self.breakers.pop(sid, None)
            self._pending_deletes.pop(sid, None)
        self.completed_resizes += 1
        self.migration = None

    def verify_placement(self) -> List[Tuple[str, int, int, Optional[int]]]:
        """Rebalance-correctness oracle; returns violations (empty = OK).

        Each violation is ``(layer, key, located_shard, expected_shard)``
        for a key whose location disagrees with the placement ring, or
        ``(layer, key, located_shard, None)`` for a key whose payload is
        missing from the shard its metadata points at. While a migration
        is in flight, not-yet-moved keys legitimately appear as
        ring-disagreement entries."""
        ring = self._placement_ring()
        resident: Dict[Tuple[int, str], Set[int]] = {}
        for sid in self.transport.shard_ids:
            for layer in ("imp", "hom"):
                try:
                    # Control-plane peek: no latency charge, no faults,
                    # no stats — the audit must not perturb the run.
                    keys = self.transport.peek(sid, "keys", layer)
                except _ATTEMPT_ERRORS:
                    # Unreachable shard (real-transport outage): every
                    # payload it held is reported lost, which is true.
                    keys = ()
                resident[(sid, layer)] = set(keys)
        bad: List[Tuple[str, int, int, Optional[int]]] = []
        for layer, loc in self.locations.items():
            for key, shard in loc.items():
                expected = ring.shard_for(key)
                if expected != shard:
                    bad.append((layer, key, shard, expected))
                if key not in resident.get((shard, layer), ()):  # lost payload
                    bad.append((layer, key, shard, None))
        return bad

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def shard_snapshots(self) -> List[Dict[str, Any]]:
        """Per-shard service snapshot (pure-local: no RPCs, so snapshots
        work even mid-outage). Consumed by ``Observer.on_shards`` and the
        report's shards table."""
        imp_occ = Counter(self.locations["imp"].values())
        hom_occ = Counter(self.locations["hom"].values())
        ch = self.transport
        snaps = []
        for sid in sorted(self.transport.shard_ids):
            ss = self._shard_stats[sid]
            snaps.append(
                {
                    "shard": sid,
                    "imp_len": imp_occ.get(sid, 0),
                    "hom_len": hom_occ.get(sid, 0),
                    "imp_hits": ss["imp_hits"],
                    "hom_hits": ss["hom_hits"],
                    "hom_substitute_hits": ss["hom_substitute_hits"],
                    "rpc_calls": ch.per_shard_calls.get(sid, 0),
                    "rpc_failures": ch.per_shard_failures.get(sid, 0)
                    + ch.per_shard_timeouts.get(sid, 0),
                    "rpc_timeouts": ch.per_shard_timeouts.get(sid, 0),
                    "rpc_retries": ss["rpc_retries"],
                    "rpc_fast_failures": ss["rpc_fast_failures"],
                    "dropped_admits": ss["dropped_admits"],
                    "breaker": self.breakers[sid].state.value,
                }
            )
        return snaps

    def close(self) -> None:
        """Release the transport (worker processes in real mode);
        idempotent, no-op for the in-process sim channel."""
        self.transport.close()


class ShardLayerStore(PayloadStore):
    """One cache layer's :class:`PayloadStore` view of the shard tier.

    A key's payload lives on the shard its location entry names; new
    keys are placed by the placement ring. Reads and writes go through
    the tier's retried, breaker-guarded RPCs and degrade instead of
    raising: a failed read returns ``None`` and counts a
    ``degraded_lookup``, a failed put returns ``False``, counts a
    ``dropped_admit`` and parks an anti-entropy delete for a possibly
    executed write.
    """

    def __init__(self, tier: ShardedPayloadStore, layer: str) -> None:
        self._tier = tier
        self._layer = layer
        self._loc = tier.locations[layer]
        self._get_method = f"{layer}_get"
        self._put_method = f"{layer}_put"
        self._hit_counter = f"{layer}_hits"

    def get(self, key: int, substitute: bool = False) -> Optional[Any]:
        shard = self._loc.get(key)
        if shard is None:
            return None  # not resident: a plain miss, no RPC
        tier = self._tier
        try:
            payload = tier._call_with_retries(shard, self._get_method, key)
        except _DEGRADE_ERRORS:
            payload = None
        if payload is None:
            # Unreachable, or the shard lost a payload the metadata owns
            # (a restarted worker): degrade to a miss.
            tier.degraded_lookups += 1
            return None
        # Per-shard hit counters feed the report's shards table.
        counter = "hom_substitute_hits" if substitute else self._hit_counter
        tier._shard_stats[shard][counter] += 1
        return payload

    def peek(self, key: int) -> Optional[Any]:
        """Neutral read through the read-only ``migrate_out`` export; it
        counts no per-shard hit."""
        shard = self._loc.get(key)
        if shard is None:
            return None
        try:
            out = self._tier._call_with_retries(
                shard, "migrate_out", self._layer, [key]
            )
        except _DEGRADE_ERRORS:
            self._tier.degraded_lookups += 1
            return None
        return out.get(key)

    def put(self, key: int, payload: Any) -> bool:
        """Put with retries; a resident overwrites in place, a new key
        goes where the placement ring says.

        A failure is a *dropped admit*. An ambiguously timed-out put may
        have executed server-side; the orphan payload is queued for
        anti-entropy deletion so shard contents reconverge with the
        metadata."""
        tier = self._tier
        shard = self._loc.get(key)
        if shard is None:
            shard = tier._placement_ring().shard_for(key)
        nbytes = int(np.asarray(payload).nbytes)
        try:
            tier._call_with_retries(
                shard, self._put_method, key, payload, nbytes=nbytes
            )
        except _DEGRADE_ERRORS:
            tier.dropped_admits += 1
            tier._shard_stats[shard]["dropped_admits"] += 1
            tier._pending_deletes.setdefault(shard, []).append(
                (self._layer, key)
            )
            if tier._obs.active:
                tier._obs.on_audit(
                    "drop", key, _LAYER_NAMES[self._layer],
                    reason="rpc_failed",
                )
            return False
        self._loc[key] = shard
        return True

    def delete(self, key: int) -> None:
        shard = self._loc.pop(key, None)
        if shard is not None:
            self._tier._best_effort_delete(shard, self._layer, key)

    def export(self) -> Dict[int, Any]:
        """Batched read-only exports, one per owning shard. Raises on RPC
        failure or a missing payload — a checkpoint must be exact or not
        taken at all."""
        by_shard: Dict[int, List[int]] = {}
        for k, shard in self._loc.items():
            by_shard.setdefault(shard, []).append(k)
        out: Dict[int, Any] = {}
        for shard, ks in by_shard.items():
            out.update(self._tier._call_with_retries(
                shard, "migrate_out", self._layer, ks
            ))
        missing = [k for k in self._loc if k not in out]
        if missing:
            raise RuntimeError(
                f"shard tier lost {len(missing)} {self._layer} payload(s) "
                f"(e.g. key {missing[0]}); cannot snapshot"
            )
        return {k: out[k] for k in self._loc}

    def load(self, entries: Dict[int, Any]) -> None:
        """Drop the current residents (best-effort; leftovers become
        orphans that anti-entropy or overwrites clean up), then place
        every entry per the placement ring. Raises if the shard tier is
        unreachable — a restore must be complete or not happen."""
        tier = self._tier
        layer = self._layer
        stale: Dict[int, List[Tuple[str, int]]] = {}
        for k, shard in self._loc.items():
            stale.setdefault(shard, []).append((layer, k))
        for shard, dead in stale.items():
            tier._bulk_delete(shard, dead)
        self._loc.clear()
        ring = tier._placement_ring()
        placed: Dict[int, Dict[int, Any]] = {}
        for k, payload in entries.items():
            shard = ring.shard_for(k)
            self._loc[k] = shard
            placed.setdefault(shard, {})[k] = payload
        for shard, batch in placed.items():
            tier._call_with_retries(shard, "migrate_in", layer, batch)


class _FromTier:
    """Class attribute that reads the same-named attribute of the
    instance's ``tier``. Non-data, so an instance may still shadow it
    (e.g. a tracing wrapper around one client's ``resize``)."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj: Any, owner: Optional[type] = None) -> Any:
        if obj is None:
            return self
        return getattr(obj.tier, self.name)


class ShardedCacheClient(SemanticCache):
    """:class:`SemanticCache` whose payloads live on the shard tier.

    The policy, the stats, ``state_dict`` and degraded serving are the
    monolith's; this class serves the shard tier's surface (the
    transport, ring, breakers and fault plans; resize, migration and the
    placement audit; per-shard snapshots; the ``dropped_admits`` /
    ``degraded_lookups`` / ``rpc_retries`` counters; ``close``) as its
    own attributes, and wraps each fetch and homophily insert in a trace
    span. Use it as a context manager, or call ``close()``, to release
    the tier.

    Parameters
    ----------
    total_capacity / imp_ratio:
        Item budget and importance split — exactly as the monolith.
    n_shards, transport, clock, latency, deadline_s, retry, fault_plans,
    breaker_*, vnodes, seed, migration_batch_size:
        The shard tier's configuration; see :class:`ShardedPayloadStore`.
    """

    def __init__(
        self,
        total_capacity: int,
        imp_ratio: float = 0.9,
        n_shards: int = 1,
        transport: Any = "sim",
        clock: Optional[SimClock] = None,
        latency: Optional[LatencyModel] = None,
        deadline_s: float = 0.01,
        retry: Optional[RetryPolicy] = None,
        fault_plans: Optional[Dict[int, Any]] = None,
        breaker_failure_threshold: int = 3,
        breaker_cooldown_s: float = 0.05,
        breaker_close_threshold: int = 1,
        vnodes: int = 64,
        seed: int = DEFAULT_SEED,
        migration_batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        # The policy first: it validates the budget before a real
        # transport forks any worker.
        super().__init__(total_capacity, imp_ratio)
        self.tier = ShardedPayloadStore(
            n_shards=n_shards,
            transport=transport,
            clock=clock,
            latency=latency,
            deadline_s=deadline_s,
            retry=retry,
            fault_plans=fault_plans,
            breaker_failure_threshold=breaker_failure_threshold,
            breaker_cooldown_s=breaker_cooldown_s,
            breaker_close_threshold=breaker_close_threshold,
            vnodes=vnodes,
            seed=seed,
            migration_batch_size=migration_batch_size,
        )
        self.importance.store = ShardLayerStore(self.tier, "imp")
        self.homophily.store = ShardLayerStore(self.tier, "hom")
        self.clock = self.tier.clock

    def attach_observer(self, observer: Observer) -> None:
        """Publish cache, RPC, and breaker activity to ``observer``."""
        super().attach_observer(observer)
        self.tier.attach_observer(observer)

    # ------------------------------------------------------------------
    # traced cache operations
    # ------------------------------------------------------------------
    def fetch(
        self,
        index: int,
        score: float,
        remote_get: Callable[[int], Any],
    ) -> FetchOutcome:
        """Serve one request per the Fig. 9 protocol (see
        :meth:`SemanticCache.fetch`).

        With span tracing enabled the whole request runs inside a
        ``fetch`` span — every RPC attempt, backoff, breaker rejection,
        and repair it causes hangs off that span in the trace.
        """
        index = int(index)
        obs = self._obs
        span = (
            obs.span_start("fetch", self.clock.total_seconds, requested_id=index)
            if obs.active else None
        )
        if span is None:
            return super().fetch(index, score, remote_get)
        try:
            out = super().fetch(index, score, remote_get)
        except BaseException as exc:
            obs.span_end(
                span, self.clock.total_seconds, error=type(exc).__name__
            )
            raise
        obs.span_end(
            span, self.clock.total_seconds,
            served_id=out.served_id, source=out.source.value,
        )
        return out

    def update_homophily(
        self, node_key: int, payload: Any, neighbor_ids: List[int]
    ) -> bool:
        """Per-batch Homophily Cache refresh inside a ``put`` span."""
        obs = self._obs
        span = (
            obs.span_start("put", self.clock.total_seconds, key=int(node_key))
            if obs.active else None
        )
        ok = super().update_homophily(node_key, payload, neighbor_ids)
        if span is not None:
            obs.span_end(span, self.clock.total_seconds, ok=ok)
        return ok

    # ------------------------------------------------------------------
    # the shard tier's surface, served as the client's own
    # ------------------------------------------------------------------
    transport = _FromTier()
    servers = _FromTier()
    breakers = _FromTier()
    ring = _FromTier()
    set_fault_plan = _FromTier()
    resize = _FromTier()
    continue_migration = _FromTier()
    migration = _FromTier()
    n_shards = _FromTier()
    completed_resizes = _FromTier()
    verify_placement = _FromTier()
    shard_snapshots = _FromTier()
    dropped_admits = _FromTier()
    degraded_lookups = _FromTier()
    rpc_retries = _FromTier()
    close = _FromTier()

    # Read-only views of the tier's location maps, which the
    # transport-parity suite inspects directly.
    @property
    def _imp_loc(self) -> Dict[int, int]:
        return self.tier.locations["imp"]

    @property
    def _hom_loc(self) -> Dict[int, int]:
        return self.tier.locations["hom"]

    def __enter__(self) -> "ShardedCacheClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
