"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload train-exact --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the workload untraced, repeating it until ``--seconds``
have passed (at least twice), checks its outputs and prints every
end-to-end metric. ``--trace 1`` runs the traced pass instead: spans
around each layer's public methods give per-layer counts and self times,
written to ``.perfbench_out/``. Either way the last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; a failed
output check prints ``"correct": false`` and exits 1.

The program is imported from ``src/`` of the checkout this file sits in;
without it this script exits 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
from pathlib import Path
from time import perf_counter

# One BLAS/OpenMP thread: on 2 cores a second BLAS thread doubles CPU time
# for the same throughput. Must be set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402 (after the thread pinning)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

MIN_REPEATS = 2  # the bit-identity check needs two
SETUPS = 10  # extra set-ups per run, for a steady setup_s median
SETUP_PROBES = 5  # host probes before each set-up-only build
TAIL_SHARE = 0.10  # latency_ms_tail: mean of the slowest 10% of operations

#: End-to-end metrics: name -> (unit, clock). Definitions per workload
#: are in README.md.
END_TO_END = {
    "setup_s": ("s", "scaled wall"),
    "throughput_per_s": ("1/s", "scaled wall"),
    "step_ms_p50": ("ms", "scaled wall"),
    "step_ms_p90": ("ms", "scaled wall"),
    "latency_ms_tail": ("sim_ms", "modelled"),
    "slo_attainment": ("ratio", "modelled"),
    "sim_epoch_s": ("sim_s", "modelled"),
    "hit_ratio": ("ratio", "modelled"),
    "success_fraction": ("ratio", "-"),
    "peak_rss_mb": ("MB", "wall"),
}


def _load_program():
    """Put ``src/`` and this directory on the path; exit 2 without it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src}/repro", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import workloads

    return workloads


def pin_to_one_cpu() -> None:
    """Run this process, and the shard workers it forks, on one CPU.

    On a 2-vCPU host a client and two shard workers spread over both
    CPUs pay a cross-CPU wake-up on every reply, and its cost follows the
    host's other tenants: the sharded workload's p90 slot swung between
    31 and 50 ms from repeat to repeat unpinned, and held at 26-27 ms
    pinned. Serial workloads run equally fast either way.
    """
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})


def _tail_mean(values, share: float) -> float:
    """Mean of the slowest ``share`` of ``values`` (at least one)."""
    k = max(1, int(np.ceil(share * len(values))))
    return float(np.sort(values)[-k:].mean())


def _check_repeats(wl, reps, errors: list) -> None:
    for rep in reps:
        errors.extend(rep.errors)
    if wl.deterministic:
        first = reps[0].outputs
        for i, rep in enumerate(reps[1:], start=1):
            if rep.outputs != first:
                errors.append(f"repeat {i}: modelled outputs differ from "
                              f"repeat 0")


def measure(wl, seed: int, seconds: float):
    """Untraced runs: end-to-end metrics plus (attempted, failed, errors).

    After one warm-up repeat (checked, not timed), repeats run until
    ``seconds`` have passed, at least ``MIN_REPEATS`` of them. Wall
    figures are scaled to the reference host (``hostspeed.py``) by the
    probes around each step, then summarised over repeats.
    """
    from hostspeed import HostProbe
    from workloads import self_peak_rss_mb

    inp = wl.inputs(seed)
    errors: list = []
    t0 = perf_counter()
    probe = HostProbe()
    setups = []
    orphans = 0
    for _ in range(SETUPS):
        for _ in range(SETUP_PROBES):
            probe()
        setup_s, survivors = wl.setup_only(inp)
        setups.append(setup_s)
        orphans += survivors
    if orphans:
        errors.append(f"{orphans} shard worker(s) outlived close() "
                      f"after set-up")

    gc.collect()
    warm = wl.repeat(inp)
    reps = []
    while True:
        gc.collect()  # earlier repeats' garbage is not this repeat's cost
        r0 = perf_counter()
        rep = wl.repeat(inp)
        # Modelled latencies come from the warm-up (every repeat is
        # checked equal); keeping every copy would tie peak RSS to how
        # many repeats the host's speed allowed.
        rep.sim_ms = None
        reps.append(rep)
        took = perf_counter() - r0
        if (len(reps) >= MIN_REPEATS
                and perf_counter() - t0 + took > seconds):
            break
    _check_repeats(wl, [warm, *reps], errors)

    med = statistics.median
    sim = warm.sim_ms
    # Each set-up-only build is one attempt at leaving no worker behind.
    attempted = sum(r.attempted for r in (warm, *reps)) + SETUPS
    failed = sum(r.failed for r in (warm, *reps)) + orphans

    def wall(scaled: bool) -> dict:
        setup_k = probe.scale() if scaled else 1.0
        k = [r.scale if scaled else 1.0 for r in reps]
        steps = [np.asarray(r.step_ms) * (r.step_scale if scaled else 1.0)
                 for r in reps]
        return {
            "setup_s": med([s * setup_k for s in setups]
                           + [r.setup_s * f for r, f in zip(reps, k)]),
            "throughput_per_s": (sum(r.ops for r in reps)
                                 / sum(r.wall_s * f for r, f in zip(reps, k))),
            # Per-repeat percentiles, then the median over repeats: a
            # burst of host contention in one repeat does not set the
            # run's tail.
            "step_ms_p50": med(float(np.percentile(s, 50)) for s in steps),
            "step_ms_p90": med(float(np.percentile(s, 90)) for s in steps),
        }

    metrics = {
        **wall(scaled=True),
        "latency_ms_tail": _tail_mean(sim, TAIL_SHARE),
        "slo_attainment": float(np.mean(sim <= wl.slo_ms)),
        "sim_epoch_s": med(r.sim_epoch_s for r in reps),
        "hit_ratio": med(r.hit_ratio for r in reps),
        "success_fraction": 1.0 - failed / attempted,
        "peak_rss_mb": self_peak_rss_mb() + max(r.child_rss_mb
                                                for r in (warm, *reps)),
    }
    notes = {
        "repeats": len(reps),
        "host_speed": "/".join(f"{r.scale:.3g}" for r in reps),
        **{f"unscaled_{m}": f"{v:.5g}" for m, v in wall(False).items()},
        "steps_per_repeat": len(reps[0].step_ms),
        "modelled_samples": int(sim.size),
        "slo_ms": wl.slo_ms,
    }
    if wl.name.startswith("train-"):
        notes["val_accuracy"] = warm.val_accuracy
    return metrics, attempted, failed, errors, notes


def traced(wl, name: str, seed: int):
    """Traced pass: per-layer metrics plus (attempted, failed, errors).

    Runs the workload untraced, traced, then untraced again; the traced
    run's modelled outputs must equal the untraced ones, and its wall
    over the best untraced wall is the wrappers' own cost.
    """
    from spans import SpanRecorder
    from workloads import LAYER_METRICS

    inp = wl.inputs(seed)
    errors: list = []
    plain = [wl.repeat(inp)]
    gc.collect()
    spans = SpanRecorder(run_id=seed)
    rep = wl.repeat(inp, spans=spans)
    gc.collect()
    plain.append(wl.repeat(inp))
    _check_repeats(wl, [plain[0], rep, plain[1]], errors)

    # Best of the untraced runs, so a cold first run does not hide the
    # wrappers' cost.
    untraced_s = min(p.wall_s for p in plain)
    layer = dict(rep.layer)
    layer["bench.trace_overhead_ratio"] = rep.wall_s / untraced_s
    layer["nn.evaluate.accuracy"] = rep.val_accuracy
    if name == "train-exact":
        cost = wl.observer_cost(inp, OUT_DIR)
        if cost["outputs"] != plain[0].outputs:
            errors.append("observed run's modelled outputs differ")
        layer["obs.observer_wall_ratio"] = cost["wall_s"] / untraced_s
        layer["obs.events_per_batch"] = cost["events_per_batch"]
        layer["obs.trace_bytes_per_batch"] = cost["bytes_per_batch"]
    path = spans.write(OUT_DIR / f"spans-{name}-seed{seed}.json.gz")

    metrics = {m: float(layer.get(m, 0.0)) for m, _ in LAYER_METRICS}
    units = dict(LAYER_METRICS)
    attempted = sum(r.attempted for r in (*plain, rep))
    failed = sum(r.failed for r in (*plain, rep))
    notes = {"spans": len(spans.t0), "span_file": str(path.relative_to(ROOT)),
             "traced_wall_s": rep.wall_s, "untraced_wall_s": untraced_s}
    return metrics, units, attempted, failed, errors, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workloads = _load_program()
    pin_to_one_cpu()
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    if args.trace:
        metrics, units, attempted, failed, errors, notes = traced(
            wl, args.workload, args.seed)
        clocks = {m: ("modelled" if u.startswith("sim") else "wall"
                      if u == "s" else "-") for m, u in units.items()}
    else:
        metrics, attempted, failed, errors, notes = measure(
            wl, args.seed, args.seconds)
        units = {m: unit for m, (unit, _) in END_TO_END.items()}
        clocks = {m: clock for m, (_, clock) in END_TO_END.items()}

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in notes.items()))
    for m, v in metrics.items():
        print(f"{m:40s} {v:>16.6g} {units[m]:>8s}  {clocks[m]}")
    for err in errors:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {m: {"value": v, "unit": units[m]}
                    for m, v in metrics.items()},
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
