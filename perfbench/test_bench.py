"""Tests of the benchmark's own logic.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import io
import json
import math
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from bench_metrics import (METRIC_NAME, ProgramRun, end_to_end,  # noqa: E402
                           failed_count, geomean, ratio)
from bench_trace import SpanRecorder, layer_seconds  # noqa: E402
from bench_workloads import WORKLOADS, LaserSummary, run_failure  # noqa: E402
from repro.obs.profile import HostProfiler  # noqa: E402
import bench_loop  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def _names(section):
    return [m["name"] for m in BENCHMARK[section]]


# ----------------------------------------------------------------------
# Arithmetic
# ----------------------------------------------------------------------

def test_geomean_and_ratio():
    assert geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert geomean([3.0]) == pytest.approx(3.0)
    assert geomean([]) == 1.0
    assert ratio(3.0, 2.0) == 1.5
    with pytest.raises(ValueError):
        ratio(1.0, 0.0)


def _pair(program, pass_index, native_cycles, laser_cycles, native_s,
          laser_s, instructions=0, repaired=False, bugs=0, fn=0):
    return [
        ProgramRun(program, "native", pass_index, native_s,
                   cycles=native_cycles),
        ProgramRun(program, "laser", pass_index, laser_s,
                   cycles=laser_cycles, instructions=instructions,
                   repaired=repaired, bugs=bugs, fn=fn),
    ]


def test_end_to_end_metrics_on_fake_runs():
    runs = (_pair("a", 0, 100, 200, 1.0, 2.0, instructions=1000,
                  bugs=1)
            + _pair("b", 0, 400, 100, 1.0, 4.0, instructions=3000,
                    repaired=True, bugs=1, fn=1))
    metrics = end_to_end(runs)
    assert metrics["sim_instr_per_s"] == pytest.approx(4000 / 6.0)
    assert metrics["sim_cycles_per_s"] == pytest.approx(
        math.sqrt(100.0 * 25.0))
    assert metrics["host_overhead"] == pytest.approx(6.0 / 2.0)
    assert metrics["sim_overhead"] == pytest.approx(math.sqrt(2.0 * 0.25))
    # Only the repaired program counts towards the repair speedup.
    assert metrics["repair_speedup"] == pytest.approx(4.0)
    assert metrics["detect_recall"] == pytest.approx(0.5)


def test_repeated_passes_leave_seed_only_metrics_unchanged():
    one = _pair("a", 0, 100, 150, 1.0, 1.5) + _pair("b", 0, 80, 60, 1.0,
                                                       1.0, repaired=True)
    two = one + _pair("a", 1, 100, 150, 1.2, 1.6) + _pair(
        "b", 1, 80, 60, 0.9, 1.1, repaired=True)
    for name in ("sim_overhead", "repair_speedup", "detect_recall"):
        assert end_to_end(one)[name] == pytest.approx(end_to_end(two)[name])


def test_host_time_is_the_median_over_passes():
    runs = []
    for index, laser_s in enumerate((2.0, 2.2, 9.0)):
        runs += _pair("a", index, 100, 100, 1.0, laser_s,
                      instructions=400)
    metrics = end_to_end(runs)
    assert metrics["sim_instr_per_s"] == pytest.approx(400 / 2.2)
    assert metrics["host_overhead"] == pytest.approx(2.2)


def test_failed_runs_leave_the_metrics_and_count_as_failed():
    runs = _pair("a", 0, 100, 200, 1.0, 2.0) + _pair("b", 0, 100, 50, 1.0,
                                                     9.0)
    runs[3].failure = "machine did not finish"
    assert failed_count(runs) == (4, 1)
    assert end_to_end(runs)["sim_overhead"] == pytest.approx(2.0)
    with pytest.raises(ValueError):
        end_to_end(runs[3:])


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------

def _summary(**changes):
    fields = dict(finished=True, bugs=1, fn=0, fp=0, repaired=True,
                  rollbacks=0, records_generated=100, records_seen=90,
                  records_dropped=4, records_shed=5,
                  records_pending_at_exit=1)
    fields.update(changes)
    return LaserSummary(**fields)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_clean_summary_passes_every_check(workload):
    assert run_failure(WORKLOADS[workload], _summary()) is None


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_unfinished_machine_fails_every_workload(workload):
    assert run_failure(WORKLOADS[workload], _summary(finished=False))


@pytest.mark.parametrize("workload, changes", [
    ("paper_sweep", {"fn": 1}),
    ("repair_heavy", {"repaired": False}),
    ("repair_heavy", {"rollbacks": 1}),
    ("record_storm", {"records_generated": 101}),
    ("record_storm", {"records_pending_at_exit": 0}),
])
def test_workload_check_fails_bad_summary(workload, changes):
    assert run_failure(WORKLOADS[workload], _summary(**changes))


def test_traced_run_with_other_values_counts_as_failed():
    reference = bench_loop.reference([
        ProgramRun("a", "laser", 0, 1.0, cycles=10, fingerprint=(10, 5)),
    ])
    same = ProgramRun("a", "laser", 0, 2.0, cycles=10, fingerprint=(10, 5))
    moved = ProgramRun("a", "laser", 0, 2.0, cycles=10, fingerprint=(10, 6))
    bench_loop.check_repeats([same, moved], reference)
    assert same.ok and not moved.ok
    assert failed_count([same, moved]) == (2, 1)


# ----------------------------------------------------------------------
# Layer accounting
# ----------------------------------------------------------------------

def test_self_time_subtracts_direct_children():
    rec = SpanRecorder()
    rec.begin_run("laser")
    rec.spans = [
        ["bench.laser", 0, 100, -1, 1],
        ["repair.service", 10, 40, 0, 1],
        ["detect.report", 15, 25, 1, 1],
        ["sim", 50, 90, 0, 1],
    ]
    own = rec.self_ns("laser")
    assert own == {"bench.laser": 30, "repair.service": 20,
                   "detect.report": 10, "sim": 40}
    assert rec.self_ns("native") == {}
    assert rec.self_ns("laser", parent="repair.service") == {
        "detect.report": 10}


def test_layer_seconds_are_disjoint():
    rec = SpanRecorder()
    rec.begin_run("laser")
    rec.spans = [
        ["bench.laser", 0, 1000, -1, 1],
        ["sim", 0, 500, 0, 1],
        ["detect", 500, 530, 0, 1],
        ["repair.service", 600, 700, 0, 1],
        ["detect.report", 610, 630, 3, 1],
    ]
    profile = HostProfiler()
    # What the profiler would hold for the same run: the detection
    # service around ``detect`` plus 10 ns of journal work, the repair
    # service around the interim report.
    profile._self_ns = {("poll", "detection"): 40, ("check", "repair"): 100,
                        ("poll",): 5}
    layers = layer_seconds(rec, profile)
    assert layers["sim"] == pytest.approx(500e-9)
    assert layers["detect"] == pytest.approx(50e-9)
    assert layers["resilience"] == pytest.approx(10e-9)
    assert layers["repair"] == pytest.approx(80e-9)
    assert layers["services.kernel"] == pytest.approx(5e-9)


# ----------------------------------------------------------------------
# Printed names
# ----------------------------------------------------------------------

def test_benchmark_json_names_are_well_formed_and_unique():
    names = _names("end_to_end") + _names("per_layer")
    assert len(names) == len(set(names))
    for name in names:
        assert METRIC_NAME.match(name), name
    assert "setup_s" in _names("end_to_end")


def test_end_to_end_computes_every_listed_metric():
    computed = set(end_to_end(_pair("a", 0, 1, 1, 1.0, 1.0)))
    computed |= {"setup_s", "peak_rss_mb"}
    assert computed >= set(_names("end_to_end"))


def test_emit_prints_exactly_the_listed_names():
    units = run.metric_units("end_to_end")
    metrics = {name: 1.0 for name in units}
    out = io.StringIO()
    with redirect_stdout(out):
        bench_loop.emit(metrics, units, _pair("a", 0, 1, 1, 1.0, 1.0), {})
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(_names("end_to_end"))
    with pytest.raises(KeyError):
        bench_loop.emit({}, units, [], {})


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py"] + list(args), cwd=cwd,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        universal_newlines=True, timeout=300)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"),
                                            ("1", "per_layer")])
def test_real_run_prints_every_metric(trace, section):
    proc = _bench("--workload", "repair_heavy", "--seed", "3",
                  "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(_names(section))
    for name, metric in result["metrics"].items():
        assert METRIC_NAME.match(name)
        assert isinstance(metric["value"], (int, float))


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), str(tmp_path))
    shutil.copytree(HERE, str(tmp_path / "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "paper_sweep", "--seed", "0",
                  "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
