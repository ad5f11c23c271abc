"""Synchronous data-parallel training with real gradient math.

``world_size`` workers (paper §6.6 evaluates 1-4 GPUs) each hold a full
model replica. Every step, each worker computes gradients on its own
mini-batch; gradients are averaged and the identical update is applied
to every replica — so the replicas stay bit-identical, which
:meth:`DataParallelTrainer.replicas_in_sync` asserts. The epoch loop is
:class:`~repro.train.trainer.Trainer`'s, run over the worker replicas.

Two cache topologies:

* **shared** (``shared_cache=True``) — the paper's multi-GPU deployment:
  every worker fetches through ONE policy/cache over the full dataset
  (one Redis shared by every GPU), optionally partitioned across shard
  servers, and each epoch's global importance order is split
  round-robin across workers;
* **per-worker** (default) — PyTorch's ``DistributedSampler``
  convention: the dataset is partitioned across workers, and each owns
  its shard with its own cache policy, store and clock.

Simulated step time = the data-load time (the slowest worker's when
per-worker, the shared store's split across workers when shared) +
per-worker compute + a ring-all-reduce communication term that grows with
the worker count — the Fig.-17 shape from first principles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.data.loader import Batch, DataLoader
from repro.data.synthetic import SyntheticDataset
from repro.nn.models import Model
from repro.nn.optim import SGD
from repro.obs.observer import Observer
from repro.storage.backends import RemoteStore
from repro.storage.clock import SimClock
from repro.storage.latency import ConstantLatency, LatencyModel
from repro.train.pipeline import StageCostModel
from repro.train.policy_base import PolicyContext, TrainingPolicy
from repro.train.trainer import EpochAccumulator, Trainer, TrainerConfig
from repro.utils.rng import RngLike

__all__ = ["DataParallelTrainer", "WorkerState"]

#: SimClock stage the cache-protocol RPC tier charges. Mirrors
#: ``repro.dist.rpc.SimRpcChannel.STAGE`` without importing it — the
#: trainer must stay importable when the dist tier is absent or broken
#: (``repro.dist`` is only imported lazily, at shard-client construction).
RPC_STAGE = "rpc"


@dataclass
class WorkerState:
    """One worker's replica, shard, policy, and loader."""

    rank: int
    shard: np.ndarray  # global sample ids owned by this worker
    model: Model
    policy: TrainingPolicy
    store: RemoteStore
    clock: SimClock
    loader: DataLoader
    optimizer: SGD


class DataParallelTrainer(Trainer):
    """Train ``world_size`` synchronized replicas over shards.

    Parameters
    ----------
    model_factory:
        ``() -> Model``; called once per worker. Factories must be
        deterministic (same seed) so replicas start identical.
    policy_factory:
        ``(rank) -> TrainingPolicy``; called once per worker for
        per-worker caches, once (rank 0) for a shared cache.
    config:
        Shared :class:`TrainerConfig`. ``prefetch_workers`` and
        ``transform`` must stay at their defaults and are rejected rather
        than ignored: prefetch threads would run beside the real
        transport's forked shard workers, and the step makes no clock
        charge for a transform's preprocess cost.
    comm_ms_per_step:
        All-reduce cost at 2 workers; scaled by ``2 (K-1)/K``.
    shared_cache:
        One cache shared by every worker (the paper's deployment) instead
        of per-worker caches over data partitions.
    cache_shards:
        With ``shared_cache=True`` and ``cache_shards > 0``, the shared
        tier becomes a :class:`~repro.dist.client.ShardedCacheClient`
        over that many shard servers; RPC latency is charged to the
        shared clock's ``"rpc"`` stage. ``0`` keeps the in-process
        monolithic cache.
    """

    def __init__(
        self,
        model_factory: Callable[[], Model],
        train_set: SyntheticDataset,
        test_set: SyntheticDataset,
        policy_factory: Callable[[int], TrainingPolicy],
        world_size: int = 2,
        config: Optional[TrainerConfig] = None,
        latency: Optional[LatencyModel] = None,
        comm_ms_per_step: float = 8.0,
        shared_cache: Optional[bool] = None,
        cache_shards: Optional[int] = None,
        rpc_latency: Optional[LatencyModel] = None,
        observer: Optional[Observer] = None,
        rng: RngLike = None,
    ) -> None:
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        self._init_run(train_set, test_set, config, rng, observer)
        # Topology knobs live in TrainerConfig; explicit arguments win.
        if shared_cache is None:
            shared_cache = self.config.shared_cache
        if cache_shards is None:
            cache_shards = self.config.cache_shards
        if cache_shards < 0:
            raise ValueError("cache_shards must be non-negative")
        if cache_shards and not shared_cache:
            raise ValueError("cache_shards requires shared_cache=True")
        # Knobs the workers do not implement (see ``config`` above).
        for name in ("prefetch_workers", "transform"):
            value = getattr(self.config, name)
            if value != getattr(TrainerConfig, name):
                raise ValueError(
                    f"DataParallelTrainer does not support {name} "
                    f"(got {value!r}); use Trainer for a single worker"
                )
        self.world_size = int(world_size)
        self.comm_ms_per_step = float(comm_ms_per_step)
        self.shared_cache = bool(shared_cache)
        self.cache_shards = int(cache_shards)
        self._run_suffix = f"@dp{self.world_size}"
        self._topology = {
            "world_size": self.world_size,
            "shared_cache": self.shared_cache,
            "cache_shards": self.cache_shards,
        }

        n = len(train_set)
        per_worker_batch = max(1, self.config.batch_size // world_size)

        shared_policy: Optional[TrainingPolicy] = None
        shared_store: Optional[RemoteStore] = None
        shared_clock: Optional[SimClock] = None
        if self.shared_cache:
            shared_clock = SimClock()
            shared_store = RemoteStore(
                train_set.X,
                item_nbytes=train_set.item_nbytes,
                latency=latency or ConstantLatency(),
                clock=shared_clock,
            )
        self._shared_clock = shared_clock
        self._rpc_latency = rpc_latency

        if self.shared_cache:
            shards = [np.arange(n) for _ in range(world_size)]
        else:
            perm = self._rng.permutation(n)
            shards = np.array_split(perm, world_size)

        self.workers: List[WorkerState] = []
        for rank, shard in enumerate(shards):
            model = model_factory()
            if self.shared_cache:
                shard_set = train_set
                clock = shared_clock
                store = shared_store
                if rank == 0:
                    policy = policy_factory(rank)
                    if self.cache_shards:
                        # Swap the policy's cache tier for the sharded
                        # service: one logical cache, N shard servers,
                        # RPCs charged to the shared clock.
                        if not hasattr(policy, "cache_factory"):
                            raise ValueError(
                                "cache_shards requires a policy with a "
                                "cache_factory hook"
                            )
                        policy.cache_factory = self._make_shard_client
                    policy.setup(
                        PolicyContext(
                            dataset=train_set,
                            store=store,
                            batch_size=per_worker_batch,
                            total_epochs=self.config.epochs,
                            embedding_dim=model.embedding_dim,
                            rng=self._rng.spawn(1)[0],
                        )
                    )
                    shared_policy = policy
                else:
                    policy = shared_policy
            else:
                shard_set = train_set.subset(
                    shard, name=f"{train_set.name}-w{rank}"
                )
                clock = SimClock()
                store = RemoteStore(
                    shard_set.X,
                    item_nbytes=train_set.item_nbytes,
                    latency=latency or ConstantLatency(),
                    clock=clock,
                )
                policy = policy_factory(rank)
                policy.setup(
                    PolicyContext(
                        dataset=shard_set,
                        store=store,
                        batch_size=per_worker_batch,
                        total_epochs=self.config.epochs,
                        embedding_dim=model.embedding_dim,
                        rng=self._rng.spawn(1)[0],
                    )
                )
            loader = DataLoader(
                shard_set.y, policy.fetch, batch_size=per_worker_batch
            )
            self.workers.append(
                WorkerState(rank, shard, model, policy, store, clock, loader,
                            self._make_optimizer(model))
            )

        # Broadcast worker 0's weights so every replica starts identical
        # even if the factory is not perfectly deterministic.
        ref = self.workers[0].model.state_dict()
        for w in self.workers[1:]:
            w.model.load_state_dict(ref)

        self._attach_observer()

    @property
    def replicas(self) -> List[WorkerState]:
        """The worker replicas the epoch loop drives."""
        return self.workers

    # ------------------------------------------------------------------
    def _make_shard_client(self, capacity: int, imp_ratio: float):
        """Cache-factory hook injected into the rank-0 policy.

        Imports :mod:`repro.dist` lazily so plain (non-sharded) runs and
        module imports never depend on the dist tier being present.
        """
        try:
            from repro.dist.client import ShardedCacheClient
            from repro.dist.retry import RetryPolicy
        except ImportError as exc:  # pragma: no cover - env-specific
            raise RuntimeError(
                "cache_shards > 0 needs the sharded cache service "
                "(repro.dist), which failed to import; run without "
                "--cache-shards or repair the installation"
            ) from exc
        cfg = self.config
        if cfg.clock_mode == "real":
            # Wall-clock tier: shard servers in real worker processes on
            # their own WallClock (RPC time is measured, not charged to
            # the run's simulated clock; breaker cooldowns and retry
            # backoffs become real seconds).
            return ShardedCacheClient(
                capacity,
                imp_ratio=imp_ratio,
                n_shards=self.cache_shards,
                transport="real",
                deadline_s=cfg.rpc_deadline_s,
                retry=RetryPolicy(max_attempts=cfg.rpc_retry_budget),
            )
        return ShardedCacheClient(
            capacity,
            imp_ratio=imp_ratio,
            n_shards=self.cache_shards,
            clock=self._shared_clock,
            latency=self._rpc_latency,
            deadline_s=cfg.rpc_deadline_s,
            retry=RetryPolicy(max_attempts=cfg.rpc_retry_budget),
        )

    def _shared_client(self):
        """The shared sharded-cache client, if this run uses one.

        Duck-typed on ``shard_snapshots`` rather than an isinstance
        check, to keep this module import-independent of ``repro.dist``.
        """
        if not self.cache_shards:
            return None
        cache = getattr(self.workers[0].policy, "cache", None)
        return cache if hasattr(cache, "shard_snapshots") else None

    # ------------------------------------------------------------------
    def replicas_in_sync(self, atol: float = 1e-10) -> bool:
        """True iff every replica's parameters match worker 0's."""
        ref = self.workers[0].model.state_dict()
        for w in self.workers[1:]:
            for k, v in w.model.state_dict().items():
                if k.startswith(("features", "head")) and "running" in k:
                    continue  # batchnorm running stats differ per shard
                if not np.allclose(v, ref[k], atol=atol):
                    return False
        return True

    # ------------------------------------------------------------------
    # Accounting seams of Trainer's epoch loop.
    def _begin_epoch(self, epoch: int) -> None:
        """Drive a live shard resize, then mark each clock's load and RPC
        totals for :meth:`_epoch_data_load`.

        At the configured trigger epoch the client plans the migration;
        every epoch boundary after that drains as many pending batches
        as the (possibly faulted) shard tier will take, so a stalled
        migration simply resumes next epoch once outages end and breaker
        cool-downs elapse. ``cache_shards`` tracks the client's live
        shard count once the ring swap lands.
        """
        client = self._shared_client()
        if client is not None:
            at = self.config.resize_shards_at
            if at is not None and epoch == int(at[0]):
                client.resize(int(at[1]), drain=False)
            if client.migration is not None:
                client.continue_migration()
            self.cache_shards = client.n_shards
        self._load_marks = [
            c.stage_seconds(RemoteStore.STAGE) for c in self._clocks()
        ]
        self._rpc_mark = self._rpc_clock().stage_seconds(RPC_STAGE)

    def _charge_slot(
        self,
        trained: List[Tuple[Batch, float]],
        acc: EpochAccumulator,
        costs: StageCostModel,
        visible_is_ms: float,
        slot: int,
    ) -> None:
        """Add one synchronous step to the epoch's compute total: every
        worker waits for the one that trained the largest fraction."""
        cfg = self.config
        fraction = max(f for _, f in trained)
        acc.compute_s += (
            costs.stage1_ms + costs.stage2_ms * fraction
        ) / 1e3 * ((cfg.batch_size / self.world_size) / cfg.reference_batch)

    def _epoch_data_load(self, acc: EpochAccumulator) -> Tuple[float, float]:
        """Straggler load (per-worker) or the shared store's load split
        across workers plus cache RPC time (shared); and all-reduce time."""
        cfg = self.config
        k = self.world_size
        loads = [
            (c.stage_seconds(RemoteStore.STAGE) - b) / cfg.io_workers
            for c, b in zip(self._clocks(), self._load_marks)
        ]
        if self.shared_cache:
            # Cache-protocol RPC time (sharded service only) is extra
            # data-path latency; like the shared-store load it is split
            # across the workers issuing the calls.
            rpc_s = (self._rpc_clock().stage_seconds(RPC_STAGE)
                     - self._rpc_mark) / k
            data_load_s = loads[0] / k + rpc_s
        else:
            data_load_s = max(loads)
        comm_factor = 2 * (k - 1) / k if k > 1 else 0.0
        comm_s = acc.n_batches * self.comm_ms_per_step / 1e3 * comm_factor
        return data_load_s, comm_s

    def _clocks(self) -> List[SimClock]:
        if self.shared_cache:
            return [self.workers[0].clock]
        return [w.clock for w in self.workers]

    def _rpc_clock(self):
        """Where cache RPCs are charged: the shared clock, or in
        wall-clock mode the client's own WallClock."""
        client = self._shared_client()
        return client.clock if client is not None else self._clocks()[0]
