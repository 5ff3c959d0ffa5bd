"""The serial closed loop, the two kinds of run, and the result line.

One process runs one program at a time: natively, then under LASER.
A pass runs every program of the workload; a run repeats whole passes
with the same seed until its time is up.
"""

import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from typing import Dict, List, Optional, Tuple

from repro.accel import get_numpy, resolve_engine, resolve_sim_engine
from repro.core.laser import Laser
from repro.experiments.accuracy import score_report_lines
from repro.experiments.runner import run_built_native
from repro.obs.profile import HostProfiler
from repro.workloads.registry import get_workload

from bench_metrics import ProgramRun, end_to_end, failed_count
from bench_trace import SpanRecorder, installed, layer_seconds, replay_rate
from bench_workloads import BenchWorkload, LaserSummary, run_failure

__all__ = ["setup_probe", "measure_end_to_end", "measure_per_layer",
           "reference", "check_repeats", "emit"]

#: Child processes timed for ``setup_s``; the median is reported.
SETUP_PROBES = 5
#: Replays per engine for the detection replay rate; median reported.
REPLAY_REPEATS = 5
#: Batches of this many records or more take the numpy plane
#: (``repro.core.detect.pipeline._BATCH_MIN``).
NUMPY_CROSSOVER = 128


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------

def setup_probe(bench: BenchWorkload, seed: int) -> None:
    """Child process body: engines resolved, every program built.

    The imports at the top of this module are the rest of set-up.
    """
    resolve_engine("auto")
    resolve_sim_engine("auto")
    for name, input_seed in bench.inputs(seed):
        get_workload(name).build(heap_offset=0, seed=input_seed,
                                 scale=bench.scale)


def _setup_seconds(script: str, root: str, bench: BenchWorkload,
                   seed: int) -> float:
    """Median wall time of fresh processes that only set up."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, script, "--setup-probe", "--workload",
             bench.name, "--seed", str(seed)], check=True, cwd=root)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# ----------------------------------------------------------------------
# Program runs
# ----------------------------------------------------------------------

def _run_program(bench: BenchWorkload, name: str, seed: int,
                 pass_index: int, recorder: Optional[SpanRecorder] = None,
                 profile: Optional[HostProfiler] = None) -> List[ProgramRun]:
    """One program on one input seed natively, then under LASER; traced
    when given a recorder (spans) and a profiler (merged
    ``HostProfiler``)."""
    workload = get_workload(name)
    label = name if bench.seeds_per_program == 1 else "%s@%d" % (name, seed)

    def root(mode):
        if recorder is None:
            return nullcontext()
        recorder.begin_run(mode)
        return recorder.span("bench." + mode)

    native = ProgramRun(label, "native", pass_index, 0.0)
    # Collect the previous run's garbage outside the timed region.
    gc.collect()
    with root("native"):
        start = time.perf_counter()
        try:
            built = workload.build(heap_offset=0, seed=seed,
                                   scale=bench.scale)
            result = run_built_native(built, seed=seed)
        except Exception as exc:  # a failed run is counted, not fatal
            native.failure = "raised %r" % exc
        native.seconds = time.perf_counter() - start
    if native.ok:
        native.cycles = result.cycles
        native.instructions = result.instructions
        if not result.finished:
            native.failure = "machine did not finish"

    laser = ProgramRun(label, "laser", pass_index, 0.0)
    config = bench.config(seed, profile_enabled=profile is not None)
    gc.collect()
    with root("laser"):
        start = time.perf_counter()
        try:
            lr = Laser(config, faults=bench.faults(seed)).run_workload(
                workload, scale=bench.scale)
        except Exception as exc:  # a failed run is counted, not fatal
            laser.failure = "raised %r" % exc
        laser.seconds = time.perf_counter() - start
    if laser.ok:
        _fill_laser(laser, lr, workload, bench)
        if profile is not None:
            profile.merge(lr.profile)
    return [native, laser]


def _fill_laser(run: ProgramRun, lr, workload, bench: BenchWorkload) -> None:
    reported = lr.report.reported_locations()
    accuracy = score_report_lines(workload, reported)
    stats = [core.stats for core in lr.machine.cores]
    run.cycles = lr.cycles
    run.instructions = sum(s.instructions for s in stats)
    run.bugs = len(workload.bugs)
    run.fn, run.fp = accuracy["fn"], accuracy["fp"]
    run.repaired = lr.repaired
    seen = lr.pipeline.stats.records_seen
    run.fingerprint = (run.cycles, run.instructions, seen,
                       tuple(str(loc) for loc in reported))
    run.counts = {
        "sim.instructions": run.instructions,
        "sim.cycles": run.cycles,
        "sim.ssb_ops": sum(s.ssb_stores + s.ssb_loads + s.ssb_flushes
                           for s in stats),
        "sim.hitm_events": lr.machine.directory.hitm_count,
        "pebs.records_generated": lr.pmu.records_generated,
        "pebs.records_dropped": lr.driver.records_dropped,
        "detect.records_seen": seen,
        "detect.fn": run.fn,
        "detect.fp": run.fp,
        "repair.attached": int(lr.repaired),
        "resilience.checkpoints_written": lr.health.checkpoints_written,
    }
    run.engines = (lr.health.engine, lr.health.sim_engine)
    run.failure = run_failure(bench, LaserSummary(
        finished=lr.machine.finished, bugs=run.bugs, fn=run.fn, fp=run.fp,
        repaired=lr.repaired, rollbacks=lr.health.rollbacks,
        records_generated=lr.pmu.records_generated, records_seen=seen,
        records_dropped=lr.driver.records_dropped,
        records_shed=lr.driver.records_shed,
        records_pending_at_exit=lr.health.records_pending_at_exit))


def reference(runs: List[ProgramRun]) -> Dict[Tuple[str, str], ProgramRun]:
    """The first passing run of each (mode, program)."""
    ref: Dict[Tuple[str, str], ProgramRun] = {}
    for run in runs:
        if run.ok:
            ref.setdefault((run.mode, run.program), run)
    return ref


def check_repeats(runs: List[ProgramRun], ref) -> None:
    """Fail any run whose simulated values differ from its reference."""
    for run in runs:
        base = ref.get((run.mode, run.program))
        if run.ok and base is not None and (
                (run.cycles, run.fingerprint)
                != (base.cycles, base.fingerprint)):
            run.failure = "simulated values differ from an identical run"


# ----------------------------------------------------------------------
# The two kinds of run
# ----------------------------------------------------------------------

def measure_end_to_end(bench: BenchWorkload, seed: int, seconds: float,
                       script: str, root: str):
    """Untraced whole passes for ``seconds``; the end-to-end metrics."""
    setup_s = _setup_seconds(script, root, bench, seed)
    runs: List[ProgramRun] = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    passes = 0
    while passes == 0 or time.perf_counter() - wall0 < seconds:
        for name, input_seed in bench.inputs(seed):
            runs += _run_program(bench, name, input_seed, passes)
        passes += 1
    cpu_frac = (time.process_time() - cpu0) / (time.perf_counter() - wall0)
    check_repeats(runs, reference(runs))
    metrics = end_to_end(runs)
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return metrics, runs, _provenance(runs, cpu_frac, passes), []


def measure_per_layer(bench: BenchWorkload, seed: int, seconds: float):
    """Untraced and traced runs of every program, alternating which
    goes first, in whole passes for ``seconds``; per-layer metrics."""
    recorder, profile = SpanRecorder(), HostProfiler()
    workloads = [get_workload(n) for n in bench.program_names()]
    plain: List[ProgramRun] = []
    traced: List[ProgramRun] = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    passes = turn = 0
    while passes == 0 or time.perf_counter() - wall0 < seconds:
        for name, input_seed in bench.inputs(seed):
            for is_traced in ((False, True) if turn % 2 == 0
                              else (True, False)):
                if is_traced:
                    with installed(recorder, workloads):
                        traced += _run_program(bench, name, input_seed,
                                               passes, recorder, profile)
                else:
                    plain += _run_program(bench, name, input_seed, passes)
            turn += 1
        passes += 1
    cpu_frac = (time.process_time() - cpu0) / (time.perf_counter() - wall0)
    ref = reference(plain)
    check_repeats(plain, ref)
    check_repeats(traced, ref)

    captured = list(recorder.batches.values())
    numpy_rate, numpy_state = replay_rate(captured, "numpy", REPLAY_REPEATS)
    python_rate, python_state = replay_rate(captured, "python",
                                            REPLAY_REPEATS)
    reasons = []
    if numpy_state != python_state:
        reasons.append("detection replay: numpy and python states differ")

    layers = {name: s / passes
              for name, s in layer_seconds(recorder, profile).items()}
    sizes = sorted(len(b) for _, bs in captured for b in bs if len(b))
    counts: Dict[str, int] = {}
    for run in traced:
        if run.mode == "laser" and run.pass_index == 0:
            for key, value in run.counts.items():
                counts[key] = counts.get(key, 0) + value
    native = [r for r in traced if r.mode == "native" and r.ok]
    traced_s = sum(r.seconds for r in traced)
    runs = plain + traced
    attempted, failed = failed_count(runs)
    metrics = {
        "workloads.build_s": layers["workloads.build"],
        "sim.self_s": layers["sim"],
        "sim.native_s": layers["sim.native"],
        "sim.native_instr_per_s": (
            sum(r.instructions for r in native)
            / sum(r.seconds for r in native)) if native else 0.0,
        "pebs.drain_s": layers["pebs.drain"],
        "detect.self_s": layers["detect"],
        "detect.batch_p50": statistics.median(sizes) if sizes else 0,
        "detect.batch_max": sizes[-1] if sizes else 0,
        "detect.batches_ge_128": (
            sum(1 for n in sizes if n >= NUMPY_CROSSOVER) // passes),
        "detect.replay_records_per_s.numpy": numpy_rate,
        "detect.replay_records_per_s.python": python_rate,
        "repair.self_s": layers["repair"],
        "repair.plan_s": recorder.self_ns("laser").get("repair.plan", 0)
        / 1e9 / passes,
        "resilience.self_s": layers["resilience"],
        "services.kernel_s": layers["services.kernel"],
        "services.telemetry_s": layers["services.telemetry"],
        "control.self_s": layers["control"],
        "obs.trace_overhead": traced_s / sum(r.seconds for r in plain),
        "obs.traced_wall_s": traced_s / passes,
        "obs.unattributed_s": traced_s / passes - sum(layers.values()),
        "host.cpu_frac": cpu_frac,
        "bench.failed_frac": failed / attempted,
    }
    metrics.update(counts)
    rates = end_to_end(plain)
    metrics["sim_instr_per_s"] = rates["sim_instr_per_s"]
    metrics["sim_cycles_per_s"] = rates["sim_cycles_per_s"]
    provenance = _provenance(runs, cpu_frac, passes)
    return metrics, runs, provenance, reasons, recorder


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------

def _provenance(runs: List[ProgramRun], cpu_frac: float,
                passes: int) -> Dict:
    numpy = get_numpy()
    engines = next((r.engines for r in runs if r.engines), (None, None))
    return {
        "passes": passes,
        "engine": engines[0],
        "sim_engine": engines[1],
        "LASER_ENGINE": os.environ.get("LASER_ENGINE"),
        "LASER_SIM_ENGINE": os.environ.get("LASER_SIM_ENGINE"),
        "python": platform.python_version(),
        "numpy": numpy.__version__ if numpy is not None else None,
        "nproc": os.cpu_count(),
        "host.cpu_frac": cpu_frac,
    }


def emit(metrics: Dict, units: Dict[str, str], runs: List[ProgramRun],
         provenance: Dict, reasons=()) -> None:
    """Print the table, the failures, the provenance and the result.

    Exactly the metrics named in ``units`` (from ``BENCHMARK.json``)
    are printed; a missing one raises ``KeyError``.
    """
    attempted, failed = failed_count(runs)
    for name in units:
        print("%-36s %18.6g %s" % (name, metrics[name], units[name]))
    failures = sorted({"%s/%s: %s" % (r.program, r.mode, r.failure)
                       for r in runs if not r.ok} | set(reasons))
    for line in failures:
        print("FAILED " + line)
    print("%d of %d program runs failed" % (failed, attempted))
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps({
        "correct": not failed and not reasons,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
