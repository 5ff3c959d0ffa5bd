"""The benchmark's three workloads and the output check of each.

A workload names the programs it runs, the input scale, the LASER
settings, an optional fault plan, and the check every LASER run must
pass.  The seed reaches the program only through ``Workload.build``
and ``LaserConfig`` / ``FaultPlan``, so the same seed gives the same
inputs.  ``README.md`` says why each workload was chosen.
"""

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.config import LaserConfig
from repro.faults import FaultPlan
from repro.workloads.registry import workload_names

__all__ = ["LaserSummary", "BenchWorkload", "WORKLOADS", "run_failure"]

#: The standard ``load.burst`` storm of ``repro.experiments.frontier``.
STORM_PROBABILITY = 0.5
#: Fire cap for the storm.  A run fires about 1.4K-2.1K times, so the
#: cap never ends the storm early: it lasts the whole run.
STORM_MAX_FIRES = 20_000


@dataclass(frozen=True)
class LaserSummary:
    """The fields of one LASER run that the output checks read.

    Plain values, so a test can build a failing one by hand.
    """

    finished: bool
    bugs: int
    fn: int
    fp: int
    repaired: bool
    rollbacks: int
    records_generated: int
    records_seen: int
    records_dropped: int
    records_shed: int
    records_pending_at_exit: int


def _no_false_negative(s: LaserSummary) -> Optional[str]:
    if s.fn:
        return "%d false negative(s) against the bug database" % s.fn
    return None


def _repair_sticks(s: LaserSummary) -> Optional[str]:
    if not s.repaired:
        return "repair did not attach"
    if s.rollbacks:
        return "repair rolled back %d time(s)" % s.rollbacks
    return None


def _records_balance(s: LaserSummary) -> Optional[str]:
    accounted = (s.records_seen + s.records_dropped + s.records_shed
                 + s.records_pending_at_exit)
    if s.records_generated != accounted:
        return ("record accounting unbalanced: generated %d, accounted %d"
                % (s.records_generated, accounted))
    return None


@dataclass(frozen=True)
class BenchWorkload:
    name: str
    #: ``None`` means every program in the registry.
    programs: Optional[Tuple[str, ...]]
    scale: float
    check: Callable[[LaserSummary], Optional[str]]
    config_overrides: Tuple[Tuple[str, object], ...] = ()
    storm: bool = False
    #: Inputs per program.  Throughput on a few programs depends on the
    #: seed (how early repair fires, say), so such a workload runs each
    #: program on several seeds derived from the run's seed.
    seeds_per_program: int = 1

    def program_names(self) -> Tuple[str, ...]:
        return self.programs or tuple(workload_names())

    def inputs(self, seed: int) -> List[Tuple[str, int]]:
        """``(program, seed)`` of every program run in one pass."""
        k = self.seeds_per_program
        return [(name, seed * k + i) for name in self.program_names()
                for i in range(k)]

    def config(self, seed: int, **extra) -> LaserConfig:
        return LaserConfig(seed=seed, **dict(self.config_overrides), **extra)

    def faults(self, seed: int) -> Optional[FaultPlan]:
        if not self.storm:
            return None
        return FaultPlan(seed=seed).add(
            "load.burst", probability=STORM_PROBABILITY,
            max_fires=STORM_MAX_FIRES)


def run_failure(workload: BenchWorkload,
                summary: LaserSummary) -> Optional[str]:
    """Why a LASER run failed its checks, or ``None`` if it passed."""
    if not summary.finished:
        return "machine did not finish"
    return workload.check(summary)


WORKLOADS: Dict[str, BenchWorkload] = {
    w.name: w for w in (
        # Table 1 / Fig. 10: every program, default LASER.
        BenchWorkload("paper_sweep", None, 1.0, _no_false_negative),
        # Fig. 11: post-repair SSB code dominates at scale 4.
        BenchWorkload("repair_heavy", ("histogram'", "linear_regression"),
                      4.0, _repair_sticks, seeds_per_program=3),
        # Fig. 13's per-event end under a record storm.
        BenchWorkload(
            "record_storm", ("kmeans", "volrend", "x264"), 1.0,
            _records_balance,
            config_overrides=(("sample_after_value", 1),
                              ("repair_enabled", False),
                              ("control_enabled", False)),
            storm=True, seeds_per_program=2),
    )
}
