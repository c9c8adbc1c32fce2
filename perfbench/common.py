"""What every workload shares: the outcome record, medians, process
memory and the environment line."""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple


@dataclass
class Outcome:
    """One workload run: metrics, the attempted/failed op counts and
    the correctness checks."""

    #: name -> (value, unit, sample count)
    metrics: Dict[str, Tuple[float, str, int]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: (check, passed, detail)
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    #: extra human-readable lines (per-kind tables, layer breakdowns)
    notes: List[str] = field(default_factory=list)
    #: per-layer metrics of a traced run
    layer: Dict[str, float] = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = (float(value), unit, int(samples))

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, bool(passed), detail))

    @property
    def correct(self) -> bool:
        return all(passed for _name, passed, _detail in self.checks)


def pin(cpu: int) -> None:
    """Keep the calling thread, and threads it starts later, on *cpu*."""
    os.sched_setaffinity(0, {cpu})


def pin_to_fastest_cpu() -> int:
    """Pin as :func:`pin` does, to the CPU that runs the calibration loop
    fastest now, and return it.

    The reference host's two vCPUs switch speed states independently (at
    one moment the loop took 0.10 s on one and 0.17 s on the other), so
    an unpinned process may be timed on one CPU and calibrated on the
    other; a pinned one is timed and calibrated on the same CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    times = {}
    for cpu in cpus:
        pin(cpu)
        times[cpu] = _calibration_loop()
    fastest = min(cpus, key=times.__getitem__)
    pin(fastest)
    return fastest


#: the calibration loop's time on the reference host in its fast state
#: (2-vCPU VM, Python 3.11); see :class:`HostSpeed`
REFERENCE_CALIBRATION_S = 0.110

#: how a single-threaded workload's wall time follows the calibration
#: loop's: fitting log(raw time) to log(calibration) over 20 pinned runs
#: each gave 0.73 for ``registry_nway`` and 0.80 for ``interactive`` (the
#: program slows less than the pure-Python loop in the host's slow
#: states); scaling by the full factor made their figures read 10-15% low
#: there
WALL_EXPONENT = 0.75


def _calibration_loop(clock: Callable[[], float] = time.perf_counter
                      ) -> float:
    """A fixed pure-Python workload (string, dict, sort and float work;
    none of the program's code): its time on *clock* tracks the host's
    speed.

    The cyclic garbage collector is off while it runs: it allocates no
    cycles, and a collection would scan the program's whole heap, which
    grows over a run and would make the loop track the heap, not the
    host."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        counts: Dict[str, int] = {}
        words = [f"w{i}x{i * 7 % 13}" for i in range(2000)]
        acc = 0.0
        for _ in range(60):
            for i, word in enumerate(words):
                key = word[: (i % 5) + 2]
                counts[key] = counts.get(key, 0) + len(word)
                acc += (i * 0.5) ** 0.5
            ordered = sorted(words, key=lambda w: (len(w), w[::-1]))
            acc += len(set(ordered[:500]) & set(words[::3]))
        return clock() - t0
    finally:
        if collecting:
            gc.enable()


class HostSpeed:
    """Scales times to the reference host's speed.

    The reference host is a shared VM whose vCPUs each switch between a
    faster and a slower state, in spells of a few seconds and in drifts
    over hours; a run pins itself to one CPU and samples a fixed
    calibration loop on it at its start, between its ops and at its end,
    and multiplies its times by ``(REFERENCE_CALIBRATION_S /
    median(samples)) ** exponent`` (dividing rates), so the reported
    figures are what the reference host would show; the raw figures are
    printed beside them.

    Wall times are scaled by the loop's wall time, with
    ``WALL_EXPONENT``.  CPU times are scaled by the loop's CPU time in
    the same process (*clock* = ``time.thread_time``), with exponent 1.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 exponent: float = 1.0) -> None:
        self.clock = clock
        self.exponent = exponent
        self.samples: List[float] = []

    def sample(self, repeats: int = 3) -> None:
        self.samples.extend(_calibration_loop(self.clock)
                            for _ in range(repeats))

    @property
    def factor(self) -> float:
        """Multiply a time by this (divide a rate by it)."""
        ratio = REFERENCE_CALIBRATION_S / median(self.samples)
        return ratio ** self.exponent

    def note(self) -> str:
        return (f"host speed: calibration median {median(self.samples):.4f} s"
                f" over {len(self.samples)} samples (reference "
                f"{REFERENCE_CALIBRATION_S} s), times scaled by "
                f"{self.factor:.3f}")


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def rss_peak_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> Dict[str, str]:
    import numpy

    from repro.harmony.flooding import resolve_sweep_backend

    return {
        "nproc": str(os.cpu_count()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sweep_backend": resolve_sweep_backend("auto").name,
        "platform": sys.platform,
    }
