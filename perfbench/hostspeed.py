"""Host speed probe: wall figures scaled to a reference host speed.

The shared hosts this benchmark runs on change speed by 10-45% within a
second and stay changed for a second to minutes, in CPU time as much as
in wall time, mostly through memory latency (other tenants sharing the
cache). Unscaled, the per-repeat spread (CV) of a workload's step-time
p50 reads 0.11-0.19.

A probe of about a third of a millisecond runs between every two steps
of a workload (batch slots, replay windows), outside the timed regions,
and its time is taken off the repeat's wall time. It mixes work that
stays in the core's cache (an interpreter loop, two small matrix
products) with 200 dict lookups that cycle through 4000 random keys of a
50k-entry dict, whose lines other work evicts between visits, roughly
the workloads' own mix: the cache-missing part alone swings more than
the workloads do, the in-cache part alone less. Each step is scaled by
``REF_S`` over the median of the probes around it (``HALF_WINDOW`` on
each side), because the host changes state within a repeat; the
repeat's other wall figures are scaled by the step-time-weighted mean of
those factors.

On a 2-vCPU Xeon guest this took the per-repeat CV of samples or
requests per second, step p50 and step p90 to 0.01-0.03 on
``load-zipf`` and 0.02-0.06 on ``train-exact``. Scaling whole repeats by
a 0.3-s reference kernel timed between them did not help: the host
changes state faster than that.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter
from typing import List, Tuple

import numpy as np

#: Median probe seconds on the reference host (a 2.0 GHz Xeon vCPU,
#: between the steps of the workloads).
REF_S = 400e-6
LOOKUPS = 200
TABLE_SIZE = 50_000
HALF_WINDOW = 10

_rng = random.Random(0)
# Each key is allocated next to its value, so keys sit on separate lines.
_TABLE = {i * 7919: (i, str(i)) for i in range(TABLE_SIZE)}
_NP = np.random.default_rng(0)
_V = _NP.standard_normal((64, 32))
_W = _NP.standard_normal((32, 256))
# Equal to table keys but separate objects, so each lookup also reads
# the table's key object.
_KEYS = [_rng.randrange(TABLE_SIZE) * 7919 for _ in range(4000)]


class HostProbe:
    """Times one batch of dict lookups per call; keeps every timing."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._at = 0

    def __call__(self) -> None:
        keys = _KEYS[self._at:self._at + LOOKUPS]
        self._at = (self._at + LOOKUPS) % len(_KEYS)
        table = _TABLE
        t0 = perf_counter()
        acc = 0
        for j in range(750):
            acc += j * j
        for _ in range(2):
            (_V @ _W).max(axis=1)
        for k in keys:
            table[k]
        self.samples.append(perf_counter() - t0)

    @property
    def spent_s(self) -> float:
        """Wall seconds spent probing."""
        return sum(self.samples)

    def scale(self) -> float:
        """Factor from this host's wall times to the reference host's,
        from the median of every probe so far."""
        return REF_S / statistics.median(self.samples)

    def step_scales(self, step_ms) -> Tuple[np.ndarray, float]:
        """Per-step factors (probe ``i`` ran next to step ``i``) and their
        step-time-weighted mean, the factor for the whole repeat."""
        p = np.asarray(self.samples)
        local = np.array([
            np.median(p[max(0, i - HALF_WINDOW):i + HALF_WINDOW + 1])
            for i in range(len(step_ms))
        ])
        k = REF_S / local
        w = np.asarray(step_ms)
        return k, float((w * k).sum() / w.sum())
