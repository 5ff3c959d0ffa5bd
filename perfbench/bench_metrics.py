"""Metric arithmetic over the program runs of one benchmark run.

Pure functions over :class:`ProgramRun` records, so the geomeans,
ratios and failure counting can be tested on fake runs.  A run
repeats whole passes (every program, native then LASER) with the same
seed, so each pass yields the same simulated values: the seed-only
metrics (``sim_overhead``, ``repair_speedup``, ``detect_recall``) are
taken from one pass, and only the host-time metrics use the others.
"""

import math
import re
import statistics
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["ProgramRun", "geomean", "ratio", "failed_count", "pairs",
           "end_to_end", "METRIC_NAME"]

#: Every metric name the benchmark prints matches this.
METRIC_NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


@dataclass
class ProgramRun:
    """One program run, native or under LASER, in one pass."""

    program: str
    mode: str  # "native" or "laser"
    pass_index: int
    seconds: float
    cycles: int = 0
    instructions: int = 0
    #: Why the run failed (raised, did not finish, or failed its
    #: workload's check); ``None`` if it passed.
    failure: Optional[str] = None
    # LASER runs only.
    bugs: int = 0
    fn: int = 0
    fp: int = 0
    repaired: bool = False
    #: What a traced run must reproduce: cycles, instructions,
    #: records seen and the reported locations.
    fingerprint: Tuple = ()
    #: Per-layer counts read from the result objects.
    counts: Dict[str, int] = field(default_factory=dict)
    #: Resolved ``(engine, sim_engine)`` from ``RunHealth``.
    engines: Tuple = ()

    @property
    def ok(self) -> bool:
        return self.failure is None


def geomean(values: Iterable[float]) -> float:
    """Geometric mean; 1.0 for no values (the empty product)."""
    logs = [math.log(v) for v in values]
    if not logs:
        return 1.0
    return math.exp(sum(logs) / len(logs))


def ratio(numerator: float, denominator: float) -> float:
    if denominator <= 0:
        raise ValueError("ratio with non-positive denominator %r"
                         % denominator)
    return numerator / denominator


def failed_count(runs: Iterable[ProgramRun]) -> Tuple[int, int]:
    """``(attempted, failed)`` over program runs."""
    runs = list(runs)
    return len(runs), sum(1 for r in runs if not r.ok)


def pairs(runs: Iterable[ProgramRun]) -> List[Tuple[ProgramRun, ProgramRun]]:
    """``(native, laser)`` of each program and pass where both passed."""
    native: Dict[Tuple[int, str], ProgramRun] = {}
    laser: Dict[Tuple[int, str], ProgramRun] = {}
    for run in runs:
        if run.ok:
            (native if run.mode == "native" else laser)[
                (run.pass_index, run.program)] = run
    return [(native[key], laser[key]) for key in native if key in laser]


def end_to_end(runs: List[ProgramRun]) -> Dict[str, float]:
    """The metrics that come from program runs.

    Host time per program is its median over passes, which keeps a
    burst of host contention in one pass out of the rates.  The two
    absolute rates (``sim_instr_per_s``, ``sim_cycles_per_s``) follow
    the host's speed, so ``BENCHMARK.json`` lists them as per-layer
    metrics; the rest are end-to-end.  ``setup_s`` and ``peak_rss_mb``
    are measured elsewhere.
    """
    by_program: Dict[str, List[Tuple[ProgramRun, ProgramRun]]] = {}
    for native, laser in pairs(runs):
        by_program.setdefault(laser.program, []).append((native, laser))
    if not by_program:
        raise ValueError("no program passed both its native and LASER run")
    rows = []  # (native, laser, native seconds, laser seconds)
    for matched in by_program.values():
        native, laser = matched[0]
        rows.append((native, laser,
                     statistics.median(n.seconds for n, _ in matched),
                     statistics.median(l.seconds for _, l in matched)))
    laser_s = sum(row[3] for row in rows)
    bugs = sum(l.bugs for _, l, _, _ in rows)
    return {
        "sim_instr_per_s": ratio(sum(l.instructions for _, l, _, _ in rows),
                                 laser_s),
        "sim_cycles_per_s": geomean(ratio(l.cycles, s)
                                    for _, l, _, s in rows),
        "host_overhead": ratio(laser_s, sum(row[2] for row in rows)),
        "sim_overhead": geomean(ratio(l.cycles, n.cycles)
                                for n, l, _, _ in rows),
        "repair_speedup": geomean(ratio(n.cycles, l.cycles)
                                  for n, l, _, _ in rows if l.repaired),
        "detect_recall": (1.0 - ratio(sum(l.fn for _, l, _, _ in rows), bugs)
                          if bugs else 1.0),
    }
