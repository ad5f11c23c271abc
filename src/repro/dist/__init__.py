"""Sharded shared-cache service — the fault-tolerant tier.

Keeps the two-layer :class:`~repro.core.semantic_cache.SemanticCache`'s
payloads on N :class:`~repro.dist.server.CacheShardServer` partitions
behind an RPC transport. The cache policy itself (importance heap,
homophily FIFO + neighbor cover map, capacity split) stays in
:mod:`repro.core`; :class:`~repro.dist.client.ShardedPayloadStore`
implements its payload-store contract over the shards, and
:class:`~repro.dist.client.ShardedCacheClient` — the cache every
data-parallel worker shares — is ``SemanticCache`` over that store.
That makes the service

* **bit-identical** to the monolithic cache for any shard count when no
  faults fire (the Hypothesis differential oracle in ``tests/dist``), and
* **gracefully degraded** when shards do fail: lookups become misses,
  admits become counted ``dropped_admits``, and the global
  capacity/eviction/FIFO invariants are never corrupted.

Modules:

* :mod:`~repro.dist.ring` — splitmix64 consistent-hash ring (virtual
  nodes, minimal disruption on resize);
* :mod:`~repro.dist.rpc` — the :class:`Transport` interface and the
  simulated :class:`SimRpcChannel` with per-call deadlines, fault-plan
  outage/brownout injection, and timeout-vs-outage error classification;
* :mod:`~repro.dist.transport` — :class:`RealRpcTransport`, the
  wall-clock backend running shard servers in real worker processes
  behind a length-prefixed ``multiprocessing.connection`` protocol;
* :mod:`~repro.dist.retry` — seeded-jitter capped exponential backoff
  with a per-request retry budget;
* :mod:`~repro.dist.server` — idempotent shard partition servers;
* :mod:`~repro.dist.client` — the breaker-guarded payload store and the
  client cache over it;
* :mod:`~repro.dist.migration` — live ring resizing with retry-safe,
  interruptible, batched key migration.
"""

from repro.dist.client import ShardedCacheClient, ShardedPayloadStore
from repro.dist.migration import MigrationState
from repro.dist.retry import RetryBudgetExhausted, RetryPolicy
from repro.dist.ring import ConsistentHashRing
from repro.dist.rpc import (
    RpcError,
    RpcTimeoutError,
    ShardOutageError,
    SimRpcChannel,
    Transport,
)
from repro.dist.server import CacheShardServer
from repro.dist.transport import RealRpcTransport

__all__ = [
    "ConsistentHashRing",
    "CacheShardServer",
    "Transport",
    "SimRpcChannel",
    "RealRpcTransport",
    "ShardedCacheClient",
    "ShardedPayloadStore",
    "MigrationState",
    "RetryPolicy",
    "RetryBudgetExhausted",
    "RpcError",
    "RpcTimeoutError",
    "ShardOutageError",
]
