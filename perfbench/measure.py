"""Sample collection, the percentile rule and the run report.

A percentile above the median is reported only when at least
``MIN_BEYOND`` samples lie beyond it; a tail with fewer samples would be
decided by a handful of operations and flip between runs.
"""

from __future__ import annotations

import math
import resource
import time
from dataclasses import dataclass, field

MIN_BEYOND = 10


def percentile(samples, q: float):
    """Nearest-rank ``q``-th percentile of ``samples``, or None.

    None when there are no samples, or when ``q`` is above 50 and fewer
    than ``MIN_BEYOND`` samples lie strictly beyond the percentile's rank.
    """
    n = len(samples)
    if n == 0:
        return None
    rank = max(1, math.ceil(q / 100.0 * n))
    if q > 50 and n - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Recorder:
    """Per-class latency samples (seconds) and operation counts.

    ``pause``/``resume`` bracket oracle work so that it is excluded from
    the timed window that ``ops_per_s`` divides by.
    """

    samples: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    _window_start: float = 0.0
    _paused: float = 0.0
    _pause_start: float | None = None
    _window_end: float | None = None

    def start_window(self) -> None:
        self._window_start = time.perf_counter()
        self._paused = 0.0
        self._window_end = None

    def end_window(self) -> None:
        self._window_end = time.perf_counter()

    def pause(self) -> None:
        self._pause_start = time.perf_counter()

    def resume(self) -> None:
        if self._pause_start is not None:
            self._paused += time.perf_counter() - self._pause_start
            self._pause_start = None

    @property
    def window_seconds(self) -> float:
        end = self._window_end if self._window_end is not None else time.perf_counter()
        return end - self._window_start - self._paused

    def add(self, classes, seconds: float) -> None:
        for name in classes:
            self.samples.setdefault(name, []).append(seconds)

    def op(self, classes, fn, *args, **kwargs):
        """Run one operation, timing it into each class in ``classes``.

        Returns ``(ok, result)``.  An exception counts as a failed
        operation and is kept for the report.
        """
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # every failure is reported, none is fatal
            self.failed += 1
            self.errors.append(f"{getattr(fn, '__name__', fn)}: {type(exc).__name__}: {exc}")
            return False, None
        self.add(classes, time.perf_counter() - start)
        return True, result

    def fail(self, message: str) -> None:
        """An operation that completed but returned an error to the client."""
        self.failed += 1
        self.errors.append(message)


@dataclass
class Metric:
    """One reported figure: value (None when withheld), unit, sample count."""

    value: float | None
    unit: str
    n: int
    note: str = ""


def latency(samples, q: float, scale: float, unit: str) -> Metric:
    """A latency percentile of ``samples`` (seconds) scaled to ``unit``."""
    value = percentile(samples, q)
    note = ""
    if value is None and samples:
        note = f"withheld: {len(samples)} samples, fewer than {MIN_BEYOND} beyond p{q:g}"
    return Metric(None if value is None else value * scale, unit, len(samples), note)


def class_metrics(recorder: Recorder, spec) -> dict:
    """Metrics named in ``spec``: ``name -> (sample class, percentile)``."""
    out = {}
    for name, (cls, q) in spec.items():
        unit = name.rsplit("_", 1)[1]
        scale = {"ms": 1e3, "us": 1e6, "s": 1.0}[unit]
        out[name] = latency(recorder.samples.get(cls, []), q, scale, unit)
    return out


def print_report(workload: str, seed: int, metrics: dict, recorder: Recorder,
                 notes=()) -> None:
    """Human-readable table of every metric with unit and sample count."""
    print(f"== perfbench {workload} seed={seed} "
          f"window={recorder.window_seconds:.2f}s "
          f"attempted={recorder.attempted} failed={recorder.failed}")
    for name, metric in metrics.items():
        shown = "n/a" if metric.value is None else f"{metric.value:.6g}"
        note = f"  ({metric.note})" if metric.note else ""
        print(f"  {name:<40} {shown:>14} {metric.unit:<6} n={metric.n}{note}")
    for line in notes:
        print(f"  {line}")
    for error in recorder.errors[:10]:
        print(f"  error: {error}")
