"""Run machinery shared by the workloads: timed windows, set-up, statistics.

A workload run has three phases:

1. **set-up** — input generation, snapshot capture or fleet bootstrap, and
   warm-up, repeated :data:`SETUP_REPEATS` times; ``setup_s`` is the
   interpreter's import time plus the median repetition;
2. **window** — whole rounds of operations, each operation timed on its
   own; rounds continue until the timed intervals add up to ``--seconds``;
3. **checks** — between rounds and after the window, never inside a timed
   interval.
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

#: Set-up repetitions per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

#: Operation id spans carry while no timed operation runs (checks).
UNTIMED_OP = -99

#: Tail percentiles tried from the top; a tail is reported at the highest
#: rung that leaves at least :data:`TAIL_BEYOND` samples above it.
TAIL_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0)
TAIL_BEYOND = 10


def quantile(samples: list[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] of ``samples``."""
    ordered = sorted(samples)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(samples: list[float]) -> float:
    """Median, or 0.0 for no samples (a failed run reports no latency)."""
    return statistics.median(samples) if samples else 0.0


def tail(samples: list[float]) -> tuple[float, float] | None:
    """``(percentile, value)`` of the highest ladder rung with enough
    samples beyond it, or None when there are too few samples for any."""
    for percentile in TAIL_LADDER:
        if len(samples) * (1.0 - percentile / 100.0) >= TAIL_BEYOND:
            return percentile, quantile(samples, percentile / 100.0)
    return None


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live child process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def repeated_setup(build: Callable[[], Any],
                   discard: Callable[[Any], None] | None = None,
                   tracer: Any = None) -> tuple[Any, float]:
    """Run ``build`` :data:`SETUP_REPEATS` times; keep the last result.

    Earlier results are handed to ``discard`` (untimed) before the next
    build starts, so at most one set-up is alive at a time. Spans of
    repetition ``i`` carry op id ``-(i + 1)``, so the kept set-up's spans
    carry :func:`kept_setup_op`. Returns the kept state and the median
    build time.
    """
    state = None
    times: list[float] = []
    for repeat in range(SETUP_REPEATS):
        if state is not None and discard is not None:
            discard(state)
        if tracer is not None:
            tracer.op = -(repeat + 1)
        started = time.perf_counter()
        state = build()
        times.append(time.perf_counter() - started)
    if tracer is not None:
        tracer.op = UNTIMED_OP
    return state, statistics.median(times)


def kept_setup_op() -> int:
    """Op id of the spans recorded by the set-up the window runs on."""
    return -SETUP_REPEATS


class Window:
    """The timed window: a running sum of the timed operation intervals.

    With a tracer, spans recorded inside :meth:`time` carry the operation
    id passed to it and every other span carries :data:`UNTIMED_OP`.
    """

    def __init__(self, seconds: float, tracer: Any = None):
        self.seconds = seconds
        self.elapsed = 0.0
        self.tracer = tracer

    @property
    def open(self) -> bool:
        """True while the timed intervals fall short of the run length."""
        return self.elapsed < self.seconds

    def time(self, call: Callable[[], Any],
             op: int = 0) -> tuple[Any, float, Exception | None]:
        """Time one operation; returns ``(result, seconds, error)``."""
        if self.tracer is not None:
            self.tracer.op = op
        started = time.perf_counter()
        try:
            result, error = call(), None
        except Exception as exc:   # noqa: BLE001 - a raised error is a
            result, error = None, exc   # failed operation, counted by caller
        spent = time.perf_counter() - started
        if self.tracer is not None:
            self.tracer.op = UNTIMED_OP
        self.elapsed += spent
        return result, spent, error


@dataclass
class Outcome:
    """What one workload run reports back to ``run.py``.

    Attributes:
        attempted / failed: operation counts; a raised error, an exception
            answer, or a check mismatch each fail one operation.
        mismatches: descriptions of failed checks (kept to the first few);
            any mismatch makes the run incorrect.
        e2e: the gated end-to-end metrics (``BENCHMARK.json``).
        info: printed alongside, not gated: tails, sample counts, the
            per-workload names of the end-to-end figures.
        layers: per-layer metrics, filled by traced runs.
    """

    attempted: int = 0
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)
    e2e: dict[str, float] = field(default_factory=dict)
    info: dict[str, Any] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)

    def error(self) -> None:
        """Count one operation that raised or answered with an exception."""
        self.failed += 1

    def check(self, ok: bool, what: str) -> bool:
        """Record one check; a failed check fails one operation."""
        if not ok:
            self.failed += 1
            if len(self.mismatches) < 20:
                self.mismatches.append(what)
        return ok


def latency_info(prefix: str, samples: list[float]) -> dict[str, Any]:
    """Median, tail and sample count of one latency series, for printing."""
    info: dict[str, Any] = {f"{prefix}_p50_s": median(samples),
                            f"{prefix}_samples": len(samples)}
    found = tail(samples)
    if found is not None:
        info[f"{prefix}_tail_s"] = found[1]
        info[f"{prefix}_tail_pct"] = found[0]
    return info
