"""Run-to-run spread of the end-to-end metrics, against their bounds.

Runs ``perfbench/run.py`` once per seed and workload, each in a fresh
process, then prints for every end-to-end metric the median of the runs
and the distance between the first and third quartile as a share of that
median (``statistics.quantiles(values, n=4)``), next to the metric's
bound from ``BENCHMARK.json``. A spread at or above a third of the bound
is flagged. Usage, from the repository root::

    python3 perfbench/spread.py --seeds 1-10 [--workloads load-zipf ...]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: output check failed")
    return {m: v["value"] for m, v in result["metrics"].items()}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args(argv)

    worst = 0.0
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, args.seconds))
            print(f"# {workload} seed {seed}: "
                  + " ".join(f"{m}={v:.5g}" for m, v in runs[-1].items()),
                  file=sys.stderr, flush=True)
        print(f"{workload}  ({len(runs)} runs)")
        for spec in bench["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            values = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if name != "setup_s":
                worst = max(worst, spread / bound)
            flag = "  <-- over a third of its bound" if spread >= bound / 3 else ""
            print(f"  {name:20s} median {med:12.6g}  spread {spread:7.4f}"
                  f"  bound {bound:5.2f}{flag}")
    print(f"worst spread/bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
