"""The benchmark's workloads: seeded inputs, set-up, one timed repeat.

Every workload reports the same end-to-end metric set (see
``perfbench/README.md`` for what each metric means on each workload).
An *operation* is one trained sample on the ``train-*`` workloads and one
replayed request on ``load-zipf``; a *step* is one batch slot on
``train-*`` and one replay window on ``load-zipf``.

``repro`` is used only to generate inputs (``make_dataset``,
``train_test_split``, ``make_trace``) and through its public entry points
(``Trainer``, ``DataParallelTrainer``, ``SpiderCachePolicy``,
``ReplayHarness``). Timing hooks and the traced pass wrap methods on the
live instances a repeat builds; no program code is changed.
"""

from __future__ import annotations

import multiprocessing
import resource
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.core.policy import SpiderCachePolicy
from repro.data import make_dataset, train_test_split
from repro.load import (
    Autoscaler,
    AutoscalerConfig,
    BurstyArrivals,
    ReplayConfig,
    ReplayHarness,
    SloPolicy,
    TraceConfig,
    make_trace,
)
from repro.nn.models import build_model
from repro.obs import JsonlRecorder, Observer
from repro.train.data_parallel import DataParallelTrainer
from repro.train.trainer import Trainer, TrainerConfig

from hostspeed import HostProbe
from spans import SpanRecorder

#: Shared training shape: the paper's CIFAR-10 stand-in, resnet18 config.
DATASET = "cifar10-like"
MODEL = "resnet18"
BATCH = 64
CACHE_FRACTION = 0.2
TEST_FRACTION = 0.25


def _hook_before(obj: Any, attr: str, fn: Callable[[], None]) -> None:
    inner = getattr(obj, attr)

    def hooked(*args, **kwargs):
        fn()
        return inner(*args, **kwargs)

    setattr(obj, attr, hooked)


def _hook_after(obj: Any, attr: str, fn: Callable[[], None]) -> None:
    inner = getattr(obj, attr)

    def hooked(*args, **kwargs):
        out = inner(*args, **kwargs)
        fn()
        return out

    setattr(obj, attr, hooked)


def _vm_hwm_mb(pid: int) -> float:
    """Peak resident set of ``pid`` in MB (0 if it is gone)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _running(pid: int) -> bool:
    """True if ``pid`` exists and is not a reaped-pending zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


def self_peak_rss_mb() -> float:
    """This process's peak resident set in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Repeat:
    """What one timed repeat produced."""

    setup_s: float
    wall_s: float
    ops: int
    step_ms: List[float]  # wall time per step
    sim_ms: np.ndarray  # modelled time per step (train) / request (load)
    sim_epoch_s: float
    hit_ratio: float
    attempted: int
    failed: int
    # Modelled outputs that must repeat bit for bit (None: not checked).
    outputs: Optional[tuple] = None
    errors: List[str] = field(default_factory=list)
    child_rss_mb: float = 0.0
    # Wall-time factors to the reference host (see hostspeed.py): one
    # per step, and one for the repeat's other wall figures. Traced
    # repeats do not probe and keep their wall times.
    step_scale: Optional[np.ndarray] = None
    scale: float = 1.0
    val_accuracy: float = 0.0  # training only
    layer: Dict[str, float] = field(default_factory=dict)


class StepTimer:
    """Marks batch slots from outside the trainer.

    A slot opens at its first fetch (``start``) and its wall time ends at
    the last optimizer step or policy update seen in it (``activity``),
    so epoch-boundary evaluation is not charged to any slot. Its modelled
    time is the SimClock advance from its start to the next slot's start,
    which includes the compute charge the trainer makes after the update.
    The host probe, if given, runs between slots.
    """

    def __init__(self, clock: Any, probe: Optional[HostProbe] = None) -> None:
        self.clock = clock
        self.probe = probe
        self.wall_ms: List[float] = []
        self.sim_ms: List[float] = []
        self._open: Optional[tuple] = None
        self._last = 0.0

    def start(self) -> None:
        if self.probe is not None:
            self.probe()
        now = perf_counter()
        self.close()
        self._open = (now, self.clock.total_seconds)
        self._last = now

    def activity(self) -> None:
        self._last = perf_counter()

    def close(self) -> None:
        """End the open slot, if any."""
        if self._open is not None:
            w0, s0 = self._open
            self.wall_ms.append((self._last - w0) * 1e3)
            self.sim_ms.append((self.clock.total_seconds - s0) * 1e3)
            self._open = None


# ----------------------------------------------------------------------
# training workloads
# ----------------------------------------------------------------------
@dataclass
class TrainInputs:
    train: Any
    test: Any
    seeds: np.ndarray


class TrainWorkload:
    """A SpiderCache training run, serial or data-parallel over shards."""

    def __init__(self, name: str, why: str, n_samples: int, epochs: int,
                 slo_ms: float, sharded: bool = False) -> None:
        self.name = name
        self.why = why
        self.n_samples = n_samples
        self.epochs = epochs
        self.slo_ms = slo_ms
        self.sharded = sharded
        # Shard workers are real processes; the sim workloads repeat bit
        # for bit, so their modelled outputs are checked across repeats.
        self.deterministic = not sharded

    def inputs(self, seed: int) -> TrainInputs:
        seeds = np.random.SeedSequence(seed).generate_state(5)
        ds = make_dataset(DATASET, rng=int(seeds[0]), n_samples=self.n_samples)
        train, test = train_test_split(ds, test_fraction=TEST_FRACTION,
                                       rng=int(seeds[1]))
        return TrainInputs(train, test, seeds)

    def build(self, inp: TrainInputs, observer: Optional[Observer] = None):
        """Model, policy and trainer, ready to train (forks shard workers
        on the sharded workload)."""
        tr, te, s = inp.train, inp.test, inp.seeds

        def model():
            return build_model(MODEL, tr.dim, tr.num_classes, rng=int(s[2]))

        def policy(rank: int = 0):
            return SpiderCachePolicy(cache_fraction=CACHE_FRACTION,
                                     backend="exact", rng=int(s[3]))

        if not self.sharded:
            return Trainer(model(), tr, te, policy(),
                           TrainerConfig(epochs=self.epochs, batch_size=BATCH),
                           rng=int(s[4]), observer=observer)
        cfg = TrainerConfig(
            epochs=self.epochs, batch_size=BATCH, clock_mode="real",
            shared_cache=True, cache_shards=2,
            # Real IPC on a busy 2-core host needs a wall-clock deadline,
            # as the CLI's real transport default does.
            rpc_deadline_s=1.0,
        )
        return DataParallelTrainer(model, tr, te, policy, world_size=2,
                                   config=cfg, rng=int(s[4]),
                                   observer=observer)

    def setup_only(self, inp: TrainInputs) -> tuple:
        """Build and release a trainer; returns (seconds, survivors)."""
        t0 = perf_counter()
        trainer = self.build(inp)
        setup_s = perf_counter() - t0
        if not self.sharded:
            return setup_s, 0
        pids = [p.pid for p in multiprocessing.active_children()]
        trainer.close()
        return setup_s, sum(_running(p) for p in pids)

    def repeat(self, inp: TrainInputs, spans: Optional[SpanRecorder] = None,
               observer: Optional[Observer] = None) -> Repeat:
        t0 = perf_counter()
        trainer = self.build(inp, observer=observer)
        setup_s = perf_counter() - t0

        # Both trainers are viewed as a list of replicas (one when serial)
        # sharing one policy, store and SimClock.
        replicas = trainer.workers if self.sharded else [trainer]
        policy, store, clock = (replicas[0].policy, replicas[0].store,
                                replicas[0].clock)
        loaders = [r.loader for r in replicas]
        pids = [p.pid for p in multiprocessing.active_children()]
        if spans is not None:
            _trace_training(spans, trainer, replicas)
        probe = HostProbe() if spans is None else None
        timer = StepTimer(clock, probe)
        _hook_before(loaders[0], "collate", timer.start)
        _hook_after(policy, "after_batch", timer.activity)
        for r in replicas:
            _hook_after(r.optimizer, "step", timer.activity)

        child_rss = [0.0]
        if self.sharded:
            def sample_children() -> None:
                child_rss[0] = max(child_rss[0],
                                   sum(_vm_hwm_mb(p) for p in pids))
            _hook_before(trainer, "close", sample_children)

        load_before = clock.stage_seconds("data_load")
        bytes_before = store.bytes_fetched
        w0 = perf_counter()
        try:
            result = trainer.run()  # closes the shard workers itself
        except BaseException:
            if self.sharded:
                trainer.close()
            raise
        wall_s = perf_counter() - w0 - (probe.spent_s if probe else 0.0)
        timer.close()
        step_scale, scale = (probe.step_scales(timer.wall_ms) if probe
                             else (None, 1.0))

        errors: List[str] = []
        survivors = sum(_running(p) for p in pids)
        if survivors:
            errors.append(f"{survivors} shard worker(s) outlived close()")
        if self.sharded and not trainer.replicas_in_sync():
            errors.append("replicas_in_sync() is False after the run")

        stats = policy.stats()
        cache = policy.cache
        skipped = sum(ld.skipped_count for ld in loaders)
        failed = (skipped + cache.degraded.errors_absorbed
                  + getattr(cache, "dropped_admits", 0)
                  + getattr(cache, "degraded_lookups", 0) + survivors)
        epochs = result.epochs
        hit_ratio = (stats.hits + stats.substitute_hits) / stats.requests
        sim_ms = np.asarray(timer.sim_ms)
        rep = Repeat(
            setup_s=setup_s,
            wall_s=wall_s,
            ops=len(inp.train) * self.epochs - skipped,
            step_ms=timer.wall_ms,
            sim_ms=sim_ms,
            sim_epoch_s=float(np.mean([e.epoch_time_s for e in epochs])),
            hit_ratio=hit_ratio,
            attempted=stats.requests,
            failed=failed,
            errors=errors,
            child_rss_mb=child_rss[0],
            val_accuracy=epochs[-1].val_accuracy,
            step_scale=step_scale,
            scale=scale,
        )
        if self.deterministic:
            rep.outputs = (
                tuple((e.hit_ratio, e.val_accuracy, e.epoch_time_s)
                      for e in epochs),
                (stats.requests, stats.hits, stats.substitute_hits),
                sim_ms.tobytes(),
            )
        if spans is not None:
            rep.layer = _training_layer_metrics(
                spans, policy, (w0, w0 + wall_s),
                clock.stage_seconds("data_load") - load_before,
                store.bytes_fetched - bytes_before, self.sharded,
            )
        return rep

    def observer_cost(self, inp: TrainInputs, out_dir: Path) -> dict:
        """One run with the program's own Observer + JsonlRecorder, its
        trace written to a temporary directory under ``out_dir``."""
        out_dir.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
            path = Path(tmp) / "trace.jsonl"
            recorder = JsonlRecorder(path)
            observer = Observer(recorder=recorder,
                                span_seed=int(inp.seeds[0]))
            try:
                rep = self.repeat(inp, observer=observer)
            finally:
                observer.close()
            nbytes = path.stat().st_size
        slots = len(rep.step_ms)
        return {
            "wall_s": rep.wall_s,
            "events_per_batch": recorder.emitted / slots,
            "bytes_per_batch": nbytes / slots,
            "outputs": rep.outputs,
        }


# ----------------------------------------------------------------------
# the load workload
# ----------------------------------------------------------------------
@dataclass
class LoadInputs:
    trace: Any
    seed: int


class LoadWorkload:
    """Trace replay against the sim-transport shard tier, autoscaled."""

    deterministic = True

    def __init__(self, name: str, why: str, n_requests: int, window: int,
                 slo_ms: float) -> None:
        self.name = name
        self.why = why
        self.n_requests = n_requests
        self.window = window
        self.slo_ms = slo_ms

    def inputs(self, seed: int) -> LoadInputs:
        seeds = np.random.SeedSequence(seed).generate_state(2)
        trace = make_trace(
            TraceConfig(n_requests=self.n_requests, n_keys=2000,
                        zipf_exponent=1.1, put_fraction=0.05),
            BurstyArrivals(rate_low=1200.0, rate_high=7000.0,
                           mean_on_s=0.25, mean_off_s=0.5),
            seed=int(seeds[0]),
        )
        return LoadInputs(trace, int(seeds[1]))

    def build(self, inp: LoadInputs) -> ReplayHarness:
        return ReplayHarness(
            ReplayConfig(
                total_capacity=512, imp_ratio=0.8, n_shards=2,
                window_requests=self.window,
                slo=SloPolicy(target_s=self.slo_ms / 1e3),
                seed=inp.seed,
            ),
            autoscaler=Autoscaler(AutoscalerConfig()),
        )

    def setup_only(self, inp: LoadInputs) -> tuple:
        t0 = perf_counter()
        harness = self.build(inp)
        setup_s = perf_counter() - t0
        harness.close()
        return setup_s, 0

    def repeat(self, inp: LoadInputs,
               spans: Optional[SpanRecorder] = None) -> Repeat:
        t0 = perf_counter()
        harness = self.build(inp)
        setup_s = perf_counter() - t0
        client = harness.client
        if spans is not None:
            _trace_load(spans, harness)
        # A window ends when the harness hands its stats to the
        # autoscaler, so window i's wall time runs between observe calls;
        # the host probe runs there too, outside both windows.
        probe = HostProbe() if spans is None else None
        ends: List[float] = []
        starts: List[float] = []

        def window_edge() -> None:
            ends.append(perf_counter())
            if probe is not None:
                probe()
            starts.append(perf_counter())

        _hook_before(harness.autoscaler, "observe", window_edge)
        try:
            w0 = perf_counter()
            result = harness.run(inp.trace)
            wall_s = (perf_counter() - w0
                      - (probe.spent_s if probe else 0.0))
            violations = client.verify_placement()
        finally:
            harness.close()

        errors: List[str] = []
        if violations:
            errors.append(f"verify_placement(): {len(violations)} violation(s)")
        resizes = result.grows + result.shrinks
        if result.resizes_verified != resizes:
            errors.append(f"{result.resizes_verified} resizes verified of "
                          f"{resizes}")
        c = result.cache
        step_ms = list((np.asarray(ends) - np.asarray([w0] + starts[:-1])) * 1e3)
        step_scale, scale = (probe.step_scales(step_ms) if probe
                             else (None, 1.0))
        rep = Repeat(
            setup_s=setup_s,
            wall_s=wall_s,
            ops=result.n_requests,
            step_ms=step_ms,
            sim_ms=result.latencies * 1e3,
            sim_epoch_s=float(result.latencies.sum()),
            hit_ratio=c["hit_ratio"],
            attempted=result.n_requests,
            failed=(c["dropped_admits"] + c["degraded_lookups"]
                    + c["degraded_serves"]),
            outputs=(result.digest(),),
            errors=errors,
            step_scale=step_scale,
            scale=scale,
        )
        if spans is not None:
            rep.layer = _load_layer_metrics(spans, harness, result,
                                            (w0, w0 + wall_s))
        return rep


# ----------------------------------------------------------------------
# traced pass: which public methods are wrapped, and what they count
# ----------------------------------------------------------------------
def _count_range_query(counts, args, out) -> None:
    counts["ann.range_query.queries"] += len(args[0])
    counts["ann.range_query.neighbors_returned"] += sum(len(ids) for ids, _ in out)


def _count_add_batch(counts, args, out) -> None:
    counts["ann.update.vectors"] += len(args[0])


def _is_sharded_client(cache: Any) -> bool:
    return hasattr(cache, "transport")


def _trace_cache(spans: SpanRecorder, cache: Any) -> None:
    prefix = "dist.client" if _is_sharded_client(cache) else "core.cache"
    for method in ("fetch", "update_score", "update_homophily"):
        spans.wrap(cache, method, f"{prefix}.{method}")
    if _is_sharded_client(cache):
        spans.wrap(cache, "close", "dist.client.close")
        spans.wrap(cache.transport, "call", "dist.transport.call")


def _trace_training(spans: SpanRecorder, trainer: Any, replicas: list) -> None:
    policy, store = replicas[0].policy, replicas[0].store
    if len(replicas) > 1:
        # The all-reduce has no public entry point; it is the one private
        # method the traced pass wraps.
        spans.wrap(trainer, "_all_reduce_and_step", "train.allreduce")
    index = policy.scorer.index
    spans.wrap(index, "neighbors_within_batch", "ann.range_query",
               _count_range_query)
    spans.wrap(index, "add_batch", "ann.update", _count_add_batch)
    spans.wrap(policy.scorer, "score_batch", "core.graph_is.score_batch")
    spans.wrap(policy, "after_batch", "core.policy.after_batch")
    spans.wrap(policy.sampler, "epoch_order", "core.sampler.epoch_order")
    spans.wrap(policy, "after_epoch", "core.elastic.after_epoch")
    _trace_cache(spans, policy.cache)
    spans.wrap(store, "get", "storage.get")
    for r in replicas:
        spans.wrap(r.loader, "collate", "data.collate")
        spans.wrap(r.model, "train_batch", "nn.train_batch")
        spans.wrap(r.model, "evaluate", "nn.evaluate")
        spans.wrap(r.optimizer, "step", "nn.optim.step")


def _trace_load(spans: SpanRecorder, harness: ReplayHarness) -> None:
    client = harness.client
    spans.wrap(harness, "run", "load.harness")
    _trace_cache(spans, client)
    spans.wrap(client, "resize", "dist.client.resize")
    spans.wrap(client, "continue_migration", "dist.client.continue_migration")
    # Not reported, but wrapped so load.harness self time is the replay
    # loop alone.
    spans.wrap(client, "verify_placement", "dist.client.verify_placement")
    spans.wrap(harness.autoscaler, "observe", "load.autoscaler.observe")


#: Per-layer metrics, in report order, with units. Every workload
#: reports all of them; a layer a workload never calls reads 0.
LAYER_METRICS = [
    ("ann.range_query.queries", "count"),
    ("ann.range_query.neighbors_returned", "count"),
    ("ann.range_query.self_s", "s"),
    ("ann.update.vectors", "count"),
    ("ann.update.self_s", "s"),
    ("core.graph_is.score_batch.calls", "count"),
    ("core.graph_is.score_batch.self_s", "s"),
    ("core.policy.after_batch.self_s", "s"),
    ("core.sampler.epoch_order.self_s", "s"),
    ("core.elastic.after_epoch.self_s", "s"),
    ("core.cache.fetch.calls", "count"),
    ("core.cache.fetch.self_s", "s"),
    ("core.cache.update_score.calls", "count"),
    ("core.cache.update_score.self_s", "s"),
    ("core.cache.update_homophily.self_s", "s"),
    ("core.cache.hit_ratio", "ratio"),
    ("core.cache.substitute_ratio", "ratio"),
    ("data.collate.calls", "count"),
    ("data.collate.self_s", "s"),
    ("storage.get.calls", "count"),
    ("storage.get.self_s", "s"),
    ("storage.get.modelled_s", "sim_s"),
    ("storage.get.bytes", "bytes"),
    ("nn.train_batch.self_s", "s"),
    ("nn.optim.step.self_s", "s"),
    ("nn.evaluate.self_s", "s"),
    ("nn.evaluate.accuracy", "ratio"),
    ("train.allreduce.self_s", "s"),
    ("dist.client.fetch.calls", "count"),
    ("dist.client.fetch.self_s", "s"),
    ("dist.client.update_score.self_s", "s"),
    ("dist.client.update_homophily.self_s", "s"),
    ("dist.client.close.self_s", "s"),
    ("dist.transport.call.calls", "count"),
    ("dist.transport.call.wait_s", "s"),
    ("dist.rpc.calls_per_fetch", "ratio"),
    ("dist.rpc.retries", "count"),
    ("dist.rpc.timeouts", "count"),
    ("dist.client.dropped_admits", "count"),
    ("dist.client.degraded_lookups", "count"),
    ("dist.client.resize.self_s", "s"),
    ("dist.client.continue_migration.self_s", "s"),
    ("dist.migration.keys_moved", "count"),
    ("load.autoscaler.decisions", "count"),
    ("load.harness.self_s", "s"),
    ("bench.unattributed_share", "ratio"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("obs.observer_wall_ratio", "ratio"),
    ("obs.events_per_batch", "count"),
    ("obs.trace_bytes_per_batch", "bytes"),
]


def _span_metrics(spans: SpanRecorder, window: tuple) -> Dict[str, float]:
    """Calls and self seconds per span name inside the timed ``window``,
    plus the unattributed share and the transport's total wait."""
    totals = spans.layer_totals(*window)
    wall_s = window[1] - window[0]
    out: Dict[str, float] = {}
    for name, t in totals.items():
        if name:
            out[f"{name}.calls"] = t["calls"]
            out[f"{name}.self_s"] = t["self_s"]
    out["dist.transport.call.wait_s"] = totals.get(
        "dist.transport.call", {}).get("total_s", 0.0)
    out["bench.unattributed_share"] = 1.0 - totals[""]["covered_s"] / wall_s
    out.update(spans.counts)
    return out


def _dist_metrics(client: Any, out: Dict[str, float]) -> None:
    transport = client.transport
    fetches = out.get("dist.client.fetch.calls", 0)
    out["dist.rpc.calls_per_fetch"] = (
        out.get("dist.transport.call.calls", 0) / fetches if fetches else 0.0
    )
    out["dist.rpc.retries"] = client.rpc_retries
    out["dist.rpc.timeouts"] = transport.timeouts
    out["dist.client.dropped_admits"] = client.dropped_admits
    out["dist.client.degraded_lookups"] = client.degraded_lookups


def _training_layer_metrics(spans, policy, window, modelled_s, nbytes,
                            sharded) -> Dict[str, float]:
    out = _span_metrics(spans, window)
    stats = policy.stats()
    out["core.cache.hit_ratio"] = (
        (stats.hits + stats.substitute_hits) / stats.requests
    )
    out["core.cache.substitute_ratio"] = stats.substitute_hits / stats.requests
    out["storage.get.modelled_s"] = modelled_s
    out["storage.get.bytes"] = nbytes
    if sharded:
        _dist_metrics(policy.cache, out)
    return out


def _load_layer_metrics(spans, harness, result, window) -> Dict[str, float]:
    out = _span_metrics(spans, window)
    c = result.cache
    gets = c["hits"] + c["substitute_hits"] + c["misses"]
    out["core.cache.hit_ratio"] = c["hit_ratio"]
    out["core.cache.substitute_ratio"] = c["substitute_hits"] / gets
    _dist_metrics(harness.client, out)
    out["dist.migration.keys_moved"] = result.moved_keys
    out["load.autoscaler.decisions"] = len(result.decisions)
    return out


WORKLOADS = {
    w.name: w
    for w in (
        TrainWorkload(
            "train-exact",
            "paper's canonical run on the exact backend: range queries and "
            "IS scoring dominate wall; monolithic cache (0 RPCs). train-hnsw "
            "is left out: too slow to run steadily",
            n_samples=8000, epochs=3, slo_ms=450.0,
        ),
        TrainWorkload(
            "train-sharded-real",
            "data-parallel world 2 over a 2-shard cache in forked worker "
            "processes: shard IPC is about half of wall",
            n_samples=4000, epochs=3, slo_ms=400.0,
            sharded=True,
        ),
        LoadWorkload(
            "load-zipf",
            "zipf 1.1 reads and 5% PUTs in bursts against an autoscaled "
            "sim shard tier: ring resizes and migration, no NN or IS work",
            n_requests=200_000, window=500, slo_ms=2.0,
        ),
    )
}
