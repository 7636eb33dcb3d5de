"""Raw-sample statistics, machine-speed calibration and the run report.

Every percentile here is computed from the recorded samples themselves
(linear interpolation between closest ranks), never from histogram
bucket edges.

On a shared virtual machine the CPU speed drifts by tens of percent
within minutes, and every query slows with it.  So a run also times
a fixed pure-Python calibration loop between its operations, and the
gated time metrics are scaled to a reference speed: a time is multiplied
by ``CALIBRATION_REF_MS`` over the calibration time measured around it —
the probes on either side of one query, or the median probe of a window
(a rate is divided by it).  The raw figures are printed beside them.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import sys
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentiles a tail is reported at, highest first; a tail is the highest
#: one with at least ``MIN_BEYOND`` samples above it.
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Exact ``p``-th percentile of ``values`` (0 <= p <= 100)."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(p, value)`` for the highest percentile with >= 10 samples beyond."""
    for p in TAIL_PERCENTILES:
        if len(values) * (100.0 - p) / 100.0 >= MIN_BEYOND:
            return p, percentile(values, p)
    return None


#: Median calibration time on the reference machine (2 vCPU, quiet).
CALIBRATION_REF_MS = 8.0


def _calibration_work(n: int = 6000) -> float:
    """Fixed interpreter-bound work: tuples, dict buckets, float math, a
    keyed sort — the instruction mix of the engine's Python paths."""
    table: Dict[Tuple[int, int], List[int]] = {}
    pts = []
    for i in range(n):
        x = (i * 7919 % 10007) / 10007.0
        y = (i * 104729 % 10009) / 10009.0
        pts.append((x, y))
        key = (int(x * 50), int(y * 50))
        bucket = table.get(key)
        if bucket is None:
            table[key] = bucket = []
        bucket.append(i)
    acc = 0.0
    for x, y in pts:
        dx = x - 0.5
        dy = y - 0.5
        acc += math.sqrt(dx * dx + dy * dy)
    pts.sort(key=lambda p: (p[1], p[0]))
    return acc + len(table)


class Speed:
    """Calibration samples of one run."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def probe(self) -> float:
        t0 = time.perf_counter()
        _calibration_work()
        ms = (time.perf_counter() - t0) * 1000.0
        self.samples.append(ms)
        return ms

    def scale(self, ms: float, before: float, after: float) -> float:
        """``ms`` at the reference speed, judged by the probes around it."""
        return ms * CALIBRATION_REF_MS * 2.0 / (before + after)

    def factor(self) -> float:
        """This run's speed / reference speed: 1.0 on a quiet reference
        machine, 0.5 when everything ran twice as slow.  Times are
        multiplied by it, rates divided."""
        return CALIBRATION_REF_MS / statistics.median(self.samples)


def geomean(values: Iterable[float]) -> float:
    xs = list(values)
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class OpLog:
    """Latency samples per operation kind — raw ms and ms scaled to the
    reference speed — plus attempt/failure counts."""

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = {}
        self.scaled: Dict[str, List[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def record(self, kind: str, ms: float, scaled_ms: float) -> None:
        self.samples.setdefault(kind, []).append(ms)
        self.scaled.setdefault(kind, []).append(scaled_ms)

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(why)

    def median(self, kind: str, scaled: bool = False) -> float:
        return statistics.median((self.scaled if scaled else self.samples)[kind])

    def geomean_of_medians(self, kinds: Sequence[str],
                           scaled: bool = False) -> float:
        return geomean(self.median(k, scaled) for k in kinds)

    def geomean_of_means(self, kinds: Sequence[str],
                         scaled: bool = False) -> float:
        by_kind = self.scaled if scaled else self.samples
        return geomean(statistics.fmean(by_kind[k]) for k in kinds)

    def merge(self, other: "OpLog") -> None:
        """Fold another window's attempts and failures into this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures


class Report:
    """Named metrics with units and sample counts; prints the run's result."""

    def __init__(self, workload: str, seed: int, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.rows: List[Tuple[str, float, str, int]] = []
        self.result_metrics: Dict[str, Dict[str, float]] = {}
        self.lines: List[str] = []

    def add(self, name: str, value: float, unit: str, n: int,
            result: bool = False) -> None:
        """Record one metric; ``result`` ones go into the final JSON line."""
        self.rows.append((name, value, unit, n))
        if result:
            self.result_metrics[name] = {"value": value, "unit": unit}

    def note(self, line: str) -> None:
        self.lines.append(line)

    def emit(self, correct: bool, attempted: int, failed: int,
             out=None) -> None:
        out = out if out is not None else sys.stdout
        mode = "traced" if self.trace else "untraced"
        print(f"# workload={self.workload} seed={self.seed} ({mode})",
              file=out)
        width = max((len(r[0]) for r in self.rows), default=10)
        for name, value, unit, n in self.rows:
            mark = "*" if name in self.result_metrics else " "
            print(f"{mark} {name:<{width}}  {value:>14.6g} {unit:<8} n={n}",
                  file=out)
        for line in self.lines:
            print(line, file=out)
        print(json.dumps({
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": self.result_metrics,
        }), file=out)
        out.flush()
