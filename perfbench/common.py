"""What every workload shares: options, set-up timing, the run result."""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.measure import Metric, Recorder

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"

#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3


@dataclass
class Options:
    workload: str
    seed: int
    seconds: float
    trace: bool
    smoke: bool = False

    @property
    def window(self) -> float:
        """Seconds of each timed window: a traced run splits ``seconds``
        between an untraced window and a traced one."""
        return self.seconds / 2 if self.trace else self.seconds


@dataclass
class RunResult:
    """A workload's outcome: oracle verdict, counts, metrics, report lines."""

    correct: bool
    recorder: Recorder
    end_to_end: dict = field(default_factory=dict)    # name -> Metric
    per_layer: dict = field(default_factory=dict)     # name -> Metric
    notes: list = field(default_factory=list)
    oracle_failures: list = field(default_factory=list)
    spans: list = field(default_factory=list)         # traced window only


def timed_setups(build, repeats: int = SETUP_REPEATS):
    """Run ``build()`` ``repeats`` times; keep the last program.

    Earlier programs are dropped before the next build so their memory is
    reused rather than stacked.  Returns (program, setup seconds list).
    """
    seconds = []
    program = None
    for _ in range(repeats):
        program = None
        gc.collect()
        start = time.perf_counter()
        program = build()
        seconds.append(time.perf_counter() - start)
    return program, seconds


def setup_metric(seconds) -> Metric:
    return Metric(statistics.median(seconds), "s", len(seconds))


class Oracle:
    """Collects failed correctness checks; a run with any is incorrect."""

    def __init__(self) -> None:
        self.failures: list = []

    def check(self, condition: bool, message: str) -> bool:
        if not condition:
            self.failures.append(message)
        return condition


def same_value(a, b) -> bool:
    """Cell equality for oracle comparisons (NaN equals NaN)."""
    if a == b:
        return True
    return isinstance(a, float) and isinstance(b, float) and a != a and b != b
