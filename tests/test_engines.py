"""Engine bit-identity: the execution plane is observationally invisible.

The acceleration engines (``repro.accel``) change *how* the hot paths
run — struct-of-arrays numpy kernels vs scalar loops for the record
plane, precompiled traces vs the per-instruction interpreter for the
simulator — and must never change *what* they compute.  This module
pins that contract four ways:

* the full golden grid (``tests/golden/run_built_golden.json``) replayed
  under every engine combination, byte-for-byte;
* interp-vs-trace differentials on the trace engine's inline paths (SSB
  pseudo-ops, L1-hit atomics, the lock-step spin kernel), with routing
  guards that fail if those paths fall back to the interpreter;
* hypothesis property tests driving the vectorized detection kernels
  against their scalar twins on adversarial random batches;
* a whole-pipeline equivalence check on randomized record streams
  (state_dict byte equality, which covers counters, dict insertion
  order and JSON-serializability of every accumulated value).
"""

import json
import os
import random
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from golden_runbuilt import assert_cell_matches, golden_cells, load_golden  # noqa: E402

from repro.accel import numpy_available, resolve_engine, resolve_sim_engine  # noqa: E402
from repro.core.config import LaserConfig  # noqa: E402
from repro.core.detect.linemodel import CacheLineModel, SharingType  # noqa: E402

np = pytest.importorskip("numpy") if numpy_available() else None

ENGINE_COMBOS = [
    ("python", "interp"),
    ("python", "trace"),
    ("numpy", "interp"),
    ("numpy", "trace"),
]

_SHARING_CODE = {
    SharingType.NONE: 0,
    SharingType.TRUE_SHARING: 1,
    SharingType.FALSE_SHARING: 2,
}


def _needs_numpy(engine):
    if engine == "numpy" and not numpy_available():
        pytest.skip("numpy not installed; numpy-engine cells skipped")


# ----------------------------------------------------------------------
# Golden matrix: every engine combination replays the committed pins
# ----------------------------------------------------------------------

@pytest.mark.services
@pytest.mark.parametrize("engine,sim_engine", ENGINE_COMBOS)
def test_golden_grid_is_engine_invariant(engine, sim_engine, monkeypatch):
    """All golden cells must be byte-identical under every engine."""
    from golden_runbuilt import collect_cell

    _needs_numpy(engine)
    monkeypatch.setenv("LASER_ENGINE", engine)
    monkeypatch.setenv("LASER_SIM_ENGINE", sim_engine)
    assert resolve_engine("auto") == engine
    assert resolve_sim_engine("auto") == sim_engine
    golden = load_golden()
    cells = golden_cells()
    assert len(golden) == len(cells)
    for want in golden:
        got = collect_cell(want["workload"], want["seed"], want["schedule"])
        assert_cell_matches(got, want)


@pytest.mark.parametrize("engine,sim_engine", ENGINE_COMBOS)
def test_run_health_reports_resolved_engines(engine, sim_engine):
    """RunHealth carries engine provenance without entering as_dict."""
    from repro.core.laser import Laser
    from repro.workloads import get_workload

    _needs_numpy(engine)
    cfg = LaserConfig().replace(engine=engine, sim_engine=sim_engine)
    result = Laser(cfg).run_workload(get_workload("histogram'"))
    assert result.health.engine == engine
    assert result.health.sim_engine == sim_engine
    assert "engine" not in result.health.as_dict()
    assert "sim_engine" not in result.health.as_dict()


def test_config_rejects_unknown_engines():
    with pytest.raises(ValueError):
        LaserConfig(engine="fortran")
    with pytest.raises(ValueError):
        LaserConfig(sim_engine="jit")


# ----------------------------------------------------------------------
# SSB pseudo-ops in the trace engine: differential + routing guards
# ----------------------------------------------------------------------

def _machine_state(machine) -> dict:
    """Every simulator observable of a machine outside the SSB."""
    return {
        "cycles": machine.cycle,
        "core_stats": [{k: getattr(c.stats, k) for k in c.stats.__slots__}
                       for c in machine.cores],
        "registers": [list(c.registers) for c in machine.cores],
        "pages": {i: bytes(p) for i, p in machine.memory._pages.items()},
        "lines": {line: {c: s.name for c, s in states.items()}
                  for line, states in machine.directory._lines.items()},
        "directory_now": machine.directory.now,
    }


def _sim_state(machine, buffers, tracer) -> dict:
    """Every simulator observable an SSB fast path could perturb."""
    state = _machine_state(machine)
    state["ssb_stats"] = sorted(
        (b.core_id, [getattr(b.stats, k) for k in b.stats.__slots__])
        for b in buffers)
    state["trace_jsonl"] = tracer.to_jsonl()
    return state


def _laser_state(result) -> dict:
    from repro.core.services.context import ssb_buffers

    extra = (result.resilience.detached_buffers
             if result.resilience is not None else ())
    buffers = ssb_buffers(result.machine, result.repair_plan, extra)
    return _sim_state(result.machine, buffers, result.telemetry.tracer)


def _count_interpreter_steps(monkeypatch):
    """Count ``Core._execute`` calls per opcode name."""
    from collections import Counter

    from repro.sim.core import Core

    steps = Counter()
    execute = Core._execute

    def counting(self, inst):
        steps[inst.op.name] += 1
        return execute(self, inst)

    monkeypatch.setattr(Core, "_execute", counting)
    return steps


def _check_every_store(monkeypatch):
    """Guard every store/ADDM in a repair region with an ALIAS_CHECK on
    its own address, so checks hit buffered bytes and misspeculate."""
    from repro.core.repair import analysis
    from repro.isa.instructions import Opcode

    original = analysis.speculative_alias_analysis

    def patched(cfg, region):
        exempt, checks = original(cfg, region)
        insts = cfg.code.instructions
        for block in region:
            for i in cfg.blocks[block].instruction_indices():
                if insts[i].op in (Opcode.STORE, Opcode.ADDM):
                    checks[i] = i
        return exempt, checks

    monkeypatch.setattr(analysis, "speculative_alias_analysis", patched)


def _small_preflush(monkeypatch):
    """Pre-emptive flush at 2 lines: flushes land mid-burst constantly."""
    import functools

    from repro.core.repair import manager
    from repro.core.repair.ssb import SoftwareStoreBuffer

    monkeypatch.setattr(manager, "SoftwareStoreBuffer", functools.partial(
        SoftwareStoreBuffer, preflush_lines=2))


def _sum_ssb(state, field):
    from repro.core.repair.ssb import SsbStats

    k = SsbStats.__slots__.index(field)
    return sum(stats[k] for _cid, stats in state["ssb_stats"])


def _sum_core(state, field):
    return sum(stats[field] for stats in state["core_stats"])


_SSB_EDGE_CASES = {
    # name: (config overrides, htm.abort probability, patches, coverage)
    "preflush": ({}, 0.0, (_small_preflush,),
                 lambda s: _sum_core(s, "ssb_flushes") >= 100),
    "misspeculation": ({}, 0.0, (_check_every_store,),
                       lambda s: _sum_core(s, "alias_misspeculations") > 0),
    "htm_abort_fallback": ({}, 1.0, (_small_preflush,),
                           lambda s: _sum_ssb(s, "fallback_stores") > 0
                           and _sum_core(s, "ssb_flushes") >= 100),
    "rollback": ({"watchdog_rate_ratio": 0.0, "watchdog_windows": 1}, 0.0,
                 (), None),
}


@pytest.mark.parametrize("case", sorted(_SSB_EDGE_CASES))
@pytest.mark.parametrize("workload", ["histogram'", "linear_regression"])
def test_ssb_edge_paths_are_engine_identical(workload, case, monkeypatch):
    """interp and trace agree byte-for-byte on the SSB edge paths.

    Each case drives repaired code through one path the trace engine's
    inline SSB bodies must reproduce or hand back to the interpreter:
    pre-emptive flushes inside a burst, ALIAS_CHECK misspeculation
    flushes, the per-store writeback after an ``htm.abort`` storm, and
    a repair that attaches and is rolled back mid-run.  Both workloads'
    SSB_ADDM / SSB_LOAD also miss the buffer after every flush (the
    not-fully-buffered hand-off).
    """
    from repro.core.laser import Laser
    from repro.faults import FaultPlan
    from repro.workloads import get_workload

    overrides, abort_p, patches, covered = _SSB_EDGE_CASES[case]
    for patch in patches:
        patch(monkeypatch)
    states = {}
    for sim_engine in ("interp", "trace"):
        faults = None
        if abort_p:
            faults = FaultPlan(seed=0).add("htm.abort", probability=abort_p)
        cfg = LaserConfig().replace(seed=0, sim_engine=sim_engine,
                                    trace_enabled=True, **overrides)
        result = Laser(cfg, faults=faults).run_workload(
            get_workload(workload))
        states[sim_engine] = (_laser_state(result), result.health)
    (want, want_health), (got, got_health) = states["interp"], states["trace"]
    for key in want:
        assert got[key] == want[key], "%s differs under trace" % key
    assert got_health.as_dict() == want_health.as_dict()
    if covered is None:
        assert got_health.rollbacks >= 1
    else:
        assert covered(got), "case %r did not reach its edge path" % case


def _ssb_torture_program(num_threads=3, iters=120):
    """Mixed-size SSB traffic no registry workload produces.

    Per iteration: a 4-byte SSB_STORE then an 8-byte SSB_LOAD of the
    same address (partly buffered after each flush, until the ADDM
    below refills bytes 4..7), a line-straddling SSB_STORE, an SSB_ADDM
    walking 16 lines
    (pre-emptive flushes), an ALIAS_CHECK that hits buffered bytes on
    every eighth iteration, and plain traffic on a line all threads
    share.
    """
    from repro.isa.assembler import Assembler
    from repro.isa.instructions import Instruction, Opcode, Operand
    from repro.isa.program import Program

    shared = 0x10000000
    threads = []
    for tid in range(num_threads):
        base = 0x10010000 + tid * 0x1000
        asm = Assembler("t%d" % tid)
        asm.mov("r1", base)
        asm.mov("r2", iters)
        asm.label("loop")
        asm.store("r1", "r2", size=4).op = Opcode.SSB_STORE
        asm.load("r3", "r1", size=8).op = Opcode.SSB_LOAD
        asm.addm("r1", "r3", offset=4, size=8).op = Opcode.SSB_ADDM
        asm.store("r1", "r3", offset=60, size=8).op = Opcode.SSB_STORE
        asm.and_("r4", "r2", 15)
        asm.shl("r4", "r4", 6)
        asm.add("r4", "r4", "r1")
        asm.addm("r4", 3, offset=128, size=2).op = Opcode.SSB_ADDM
        asm.and_("r5", "r2", 7)
        asm.shl("r5", "r5", 12)
        asm.add("r5", "r5", "r1")
        asm._emit(Instruction(Opcode.ALIAS_CHECK, a=Operand(True, 5),
                              size=8))
        asm.load("r6", shared, size=8)
        asm.addm(shared + 8 * tid, "r2", size=8)
        asm.sub("r2", "r2", 1)
        asm.bne("r2", 0, "loop")
        asm.fence()
        asm.halt()
        threads.append(asm.build())
    return Program("ssb_torture", threads)


@pytest.mark.parametrize("abort_p", [0.0, 0.4])
def test_ssb_partial_buffering_is_engine_identical(abort_p):
    """Partly buffered SSB_LOAD / SSB_ADDM, straddling puts and
    misspeculations on a hand-built program, run in resumable slices
    (as the service loop does) with and without an abort storm."""
    from repro.core.repair.ssb import SoftwareStoreBuffer
    from repro.faults import FaultInjector, FaultPlan
    from repro.obs.trace import EventTracer
    from repro.sim.machine import Machine

    states = {}
    for sim_engine in ("interp", "trace"):
        plan = FaultPlan(seed=3).add("htm.abort", probability=abort_p)
        tracer = EventTracer()
        machine = Machine(_ssb_torture_program(), seed=1, tracer=tracer,
                          fault_injector=FaultInjector(plan),
                          engine=sim_engine)
        buffers = []
        for core in machine.cores:
            core.ssb = SoftwareStoreBuffer(machine, core.core_id)
            buffers.append(core.ssb)
        until = 0
        while not machine.finished:
            until += 1500
            machine.run(until_cycle=until)
        states[sim_engine] = _sim_state(machine, buffers, tracer)
    want, got = states["interp"], states["trace"]
    for key in want:
        assert got[key] == want[key], "%s differs under trace" % key
    assert _sum_ssb(got, "partial_hits") > 0
    assert _sum_ssb(got, "full_hits") > 0
    assert _sum_core(got, "alias_misspeculations") > 0
    # Beyond the one drain per thread at its fence: pre-emptive flushes.
    assert _sum_core(got, "ssb_flushes") > len(got["core_stats"])
    if abort_p:
        assert _sum_ssb(got, "fallback_stores") > 0


def test_trace_engine_runs_ssb_ops_inline(monkeypatch):
    """Routing guard: repaired code stays off the interpreter.

    Under the trace engine SSB_STORE never takes a ``core.step()``, and
    ALIAS_CHECK does only for a misspeculation (which flushes).
    """
    from repro.core.laser import Laser
    from repro.workloads import get_workload

    steps = _count_interpreter_steps(monkeypatch)
    cfg = LaserConfig().replace(seed=0, sim_engine="trace")
    result = Laser(cfg).run_workload(get_workload("linear_regression"))
    assert result.repaired
    stats = [core.stats for core in result.machine.cores]
    assert sum(s.ssb_stores for s in stats) > 0
    assert sum(s.alias_checks for s in stats) > 0
    assert steps["SSB_STORE"] == 0
    assert steps["ALIAS_CHECK"] <= sum(s.alias_misspeculations
                                       for s in stats)


@pytest.mark.parametrize("field", ["ssb_store", "ssb_load", "alias_check",
                                   "pin_tax"])
def test_ssb_micro_cache_key_covers_baked_latencies(field):
    """Two latency models differing in one baked literal never share a
    compiled SSB micro function; equal models do."""
    from repro.isa.instructions import Instruction, Opcode, Operand
    from repro.sim.timing import LatencyModel
    from repro.sim.trace import CompiledTrace

    insts = [Instruction(Opcode.SSB_STORE, a=Operand(True, 1),
                         b=Operand(True, 2), size=8),
             Instruction(Opcode.SSB_LOAD, rd=3, a=Operand(True, 1), size=8),
             Instruction(Opcode.ALIAS_CHECK, a=Operand(True, 4), size=8),
             Instruction(Opcode.HALT)]
    base = LatencyModel()
    bumped = LatencyModel(**{field: getattr(base, field) + 7})

    def micro(latency, i):
        return CompiledTrace(insts, latency, taxed=True, use_jitter=True,
                             fast_mem=True).resolve_micro(i)

    for i in range(3):
        assert micro(base, i) is micro(LatencyModel(), i)
        assert micro(base, i) is not micro(bumped, i)


# ----------------------------------------------------------------------
# Spin-waits in the trace engine: inline atomics + lock-step kernel
# ----------------------------------------------------------------------

#: The benchmark's record_storm settings: per-event sampling under the
#: standard load.burst storm, repair and overload control off.
_STORM_CONFIG = {"sample_after_value": 1, "repair_enabled": False,
                 "control_enabled": False}


def _storm_plan():
    from repro.faults import FaultPlan

    return FaultPlan(seed=0).add("load.burst", probability=0.5,
                                 max_fires=20_000)


def _log_pmu_records(monkeypatch) -> list:
    """Log every record the PMU hands the kernel driver, in order."""
    from repro.pebs.driver import KernelDriver

    log = []
    deliver = KernelDriver.deliver

    def logging(self, record):
        log.append((record.pc, record.data_addr, record.core, record.cycle,
                    record.store_triggered, record.weight,
                    None if record.register_file is None
                    else tuple(record.register_file)))
        return deliver(self, record)

    monkeypatch.setattr(KernelDriver, "deliver", logging)
    return log


def _run_sliced(machine, slice_cycles) -> list:
    """Run to completion in resumable slices (``None``: one run).

    Returns ``(cycle, directory.now)`` at every pause: a kernel span
    cut by the slice limit must leave both exactly as the interpreter
    does.
    """
    if slice_cycles is None:
        machine.run()
        return []
    pauses = []
    until = 0
    while not machine.finished:
        until += slice_cycles
        machine.run(until_cycle=until)
        pauses.append((machine.cycle, machine.directory.now))
    return pauses


def _spin_run(workload, mode, sim_engine, records):
    """One run of ``workload`` as ``mode``; returns (state, machine)."""
    from repro.core.laser import Laser
    from repro.sim.machine import Machine
    from repro.workloads import get_workload

    records.clear()
    if mode.startswith("laser"):
        overrides = dict(_STORM_CONFIG, seed=0, sim_engine=sim_engine)
        scale = 1.0
        if mode == "laser_sliced":
            # Ten times the polls; half the input keeps the cost down.
            overrides["check_interval_cycles"] = 4_999
            scale = 0.5
        result = Laser(LaserConfig(**overrides), faults=_storm_plan()) \
            .run_workload(get_workload(workload), scale=scale)
        state = _machine_state(result.machine)
        state["pmu_records"] = list(records)
        state["report"] = result.report.render()
        state["health"] = result.health.as_dict()
        return state, result.machine
    built = get_workload(workload).build(heap_offset=0, seed=0, scale=1.0)
    machine = Machine(built.program, seed=0, allocator=built.allocator,
                      engine=sim_engine)
    built.apply_init(machine)
    pauses = _run_sliced(machine, 997 if mode == "native_sliced" else None)
    state = _machine_state(machine)
    state["pauses"] = pauses
    return state, machine


@pytest.mark.parametrize("mode", ["native", "native_sliced", "laser",
                                  "laser_sliced"])
@pytest.mark.parametrize("workload", ["kmeans", "volrend", "x264",
                                      "ocean_ncp"])
def test_spin_paths_are_engine_identical(workload, mode, monkeypatch):
    """interp and trace agree byte-for-byte where cores spin.

    kmeans and ocean_ncp park in ``load; bge; pause; jmp`` waits (the
    latter in ``emit_barrier_wait``), volrend in a naive ``cmpxchg``
    lock, and x264 barely spins (a control).  LASER runs use the
    record_storm settings, so PMU stalls stretch every wait; the sliced
    modes pause the machine every 997 cycles (native) or poll every
    4,999 (LASER), so slice limits and services land inside kernel
    spans.
    """
    records = _log_pmu_records(monkeypatch)
    want, _ = _spin_run(workload, mode, "interp", records)
    got, machine = _spin_run(workload, mode, "trace", records)
    for key in want:
        assert got[key] == want[key], "%s differs under trace" % key
    if workload != "x264":
        assert machine.kernel_instructions > 0
    if mode.startswith("laser"):
        assert want["pmu_records"]


def _asm_program(name, bodies):
    """A Program with one thread per ``body(asm, tid)`` emitter."""
    from repro.isa.assembler import Assembler
    from repro.isa.program import Program

    threads = []
    for tid, body in enumerate(bodies):
        asm = Assembler("%s_%d" % (name, tid))
        body(asm, tid)
        asm.halt()
        threads.append(asm.build())
    return Program(name, threads)


_FLAG = 0x10000000
_LOCK = 0x10000040
_COUNTER = 0x10000080


def _counted_loops(asm, tid):
    """A read-only loop that counts: statically excluded (``sub r2, r2,
    1`` rewrites what it reads) on thread 0, and on the others admitted
    (the counter moves between two registers) but never a no-op."""
    asm.mov("r1", _FLAG)
    asm.mov("r2", 300)
    asm.label("loop")
    asm.load("r5", "r1", size=8)
    if tid == 0:
        asm.sub("r2", "r2", 1)
        asm.bne("r2", 0, "loop")
    else:
        asm.add("r3", "r2", 1)
        asm.mov("r2", "r3")
        asm.blt("r2", 600, "loop")


def _release_after_work(asm, tid):
    """Thread 0 works, then releases the spinners with a store that
    misses (the flag line is Shared in every spinner's cache)."""
    if tid == 0:
        asm.mov("r2", 400)
        asm.label("work")
        asm.sub("r2", "r2", 1)
        asm.bne("r2", 0, "work")
        asm.mov("r1", _FLAG)
        asm.store("r1", 1, size=8)
        return
    asm.mov("r1", _FLAG)
    asm.label("spin")
    asm.load("r5", "r1", size=8)
    asm.bne("r5", 0, "done")
    asm.pause()
    asm.jmp("spin")
    asm.label("done")
    asm.xadd("r6", _COUNTER, 1, size=8)


def _cas_spin(asm, tid):
    """Thread 1 polls with ``cmpxchg r10, [flag], 0, 0`` (an atomic
    load): while the flag is 0 every compare *succeeds* and rewrites
    it, so the loop must never park even though its registers and the
    flag's value stay the same.  Thread 2 parks on a second flag, so a
    wrong proof for thread 1 would put both in the kernel."""
    if tid == 0:
        _release_after_work(asm, tid)
        asm.store(_FLAG + 64, 1, size=8)
        return
    asm.mov("r1", _FLAG + 64 * (tid - 1))
    asm.label("spin")
    if tid == 1:
        asm.cmpxchg("r10", "r1", 0, 0, size=8)
    else:
        asm.load("r10", "r1", size=8)
    asm.bne("r10", 0, "done")
    asm.pause()
    asm.jmp("spin")
    asm.label("done")


def _atomic_states(asm, tid):
    """CMPXCHG success on an E and an M line, failure, XADD — each
    thread on its own line — then a naive lock all threads fight over
    (failed compares on Shared lines, successes that must upgrade)."""
    line = _COUNTER + 64 * (tid + 1)
    asm.mov("r1", line)
    asm.load("r2", "r1", size=8)                 # miss: E
    asm.cmpxchg("r3", "r1", 0, 5, size=8)        # success on E
    asm.cmpxchg("r4", "r1", 5, 7, size=8)        # success on M
    asm.cmpxchg("r5", "r1", 0, 9, size=8)        # failure
    asm.xadd("r6", "r1", 3, size=4)              # XADD on M
    asm.cmpxchg("r7", "r1", 10, "r14", size=2)   # 2-byte success
    asm.mov("r8", 3)
    asm.mov("r9", _LOCK)
    asm.label("retry")
    asm.cmpxchg("r10", "r9", 0, 1, size=8)
    asm.beq("r10", 0, "held")
    asm.pause()
    asm.jmp("retry")
    asm.label("held")
    asm.addm(_COUNTER, 1, size=8)
    asm.store("r9", 0, size=8)
    asm.sub("r8", "r8", 1)
    asm.bne("r8", 0, "retry")


def _straddling_atomics(asm, tid):
    """Atomics that straddle a line boundary (split locked accesses)."""
    asm.mov("r1", _COUNTER + 64 * (tid + 1))
    asm.load("r2", "r1", size=8)
    asm.load("r2", "r1", offset=64, size=8)
    asm.cmpxchg("r3", "r1", 0, 5, offset=60, size=8)
    asm.cmpxchg("r4", "r1", 0, 5, offset=60, size=8)
    asm.xadd("r5", "r1", 1, offset=62, size=4)


_SPIN_PROGRAMS = {
    # name: (thread body, threads)
    "counted": (_counted_loops, 4),
    "release": (_release_after_work, 4),
    "cas_spin": (_cas_spin, 3),
    "atomic_states": (_atomic_states, 3),
    "straddle": (_straddling_atomics, 2),
}


def _run_program(name, sim_engine, slice_cycles):
    from repro.sim.machine import Machine

    body, nthreads = _SPIN_PROGRAMS[name]
    machine = Machine(_asm_program(name, [body] * nthreads), seed=2,
                      engine=sim_engine)
    pauses = _run_sliced(machine, slice_cycles)
    state = _machine_state(machine)
    state["pauses"] = pauses
    return state, machine


@pytest.mark.parametrize("slice_cycles", [None, 97])
@pytest.mark.parametrize("name", sorted(_SPIN_PROGRAMS))
def test_spin_programs_are_engine_identical(name, slice_cycles, monkeypatch):
    """Hand-built spin and atomic cases, whole and in 97-cycle slices,
    with per-path routing checks on the trace run."""
    steps = _count_interpreter_steps(monkeypatch)
    want, _ = _run_program(name, "interp", slice_cycles)
    steps.clear()
    got, machine = _run_program(name, "trace", slice_cycles)
    for key in want:
        assert got[key] == want[key], "%s differs under trace" % key
    atomics = sum(c.stats.atomics for c in machine.cores)
    if name == "counted":
        loops = [machine.cores[t]._trace.spin for t in range(4)]
        assert all(entry is None for entry in loops[0])
        assert all(any(entry is not None for entry in s) for s in loops[1:])
        assert machine.kernel_instructions == 0
    elif name == "release":
        assert machine.kernel_instructions > 0
        assert steps["XADD"] == 3  # the counter line misses every time
    elif name == "cas_spin":
        assert machine.kernel_instructions == 0
    elif name == "atomic_states":
        # The per-thread sequence runs inline after its one miss.
        assert steps["CMPXCHG"] + steps["XADD"] <= atomics - 5 * 3
    else:
        assert steps["CMPXCHG"] + steps["XADD"] == atomics


def test_trace_engine_parks_barrier_spinners():
    """Routing guard: under the record_storm settings most of kmeans'
    LASER instructions (its barrier waits) run in the spin kernel."""
    from repro.core.laser import Laser
    from repro.workloads import get_workload

    cfg = LaserConfig(seed=0, sim_engine="trace", **_STORM_CONFIG)
    machine = Laser(cfg, faults=_storm_plan()).run_workload(
        get_workload("kmeans")).machine
    total = sum(c.stats.instructions for c in machine.cores)
    assert machine.kernel_instructions >= 0.70 * total


def test_trace_engine_runs_lock_spins_off_the_interpreter(monkeypatch):
    """Routing guard: volrend's naive-lock CMPXCHGs stay off
    ``core.step()`` except for coherence misses."""
    from repro.core.laser import Laser
    from repro.workloads import get_workload

    steps = _count_interpreter_steps(monkeypatch)
    cfg = LaserConfig(seed=0, sim_engine="trace", **_STORM_CONFIG)
    machine = Laser(cfg, faults=_storm_plan()).run_workload(
        get_workload("volrend")).machine
    atomics = sum(c.stats.atomics for c in machine.cores)
    assert atomics > 0
    assert steps["CMPXCHG"] <= 0.05 * atomics


def test_atomic_micro_cache_key_covers_desired_operand():
    """Two CMPXCHGs differing only in the desired operand ``c`` never
    share a compiled function; identical ones do."""
    from repro.isa.instructions import Instruction, Opcode, Operand
    from repro.sim.timing import LatencyModel
    from repro.sim.trace import CompiledTrace

    def micro(c):
        insts = [Instruction(Opcode.CMPXCHG, rd=3, a=Operand(True, 1),
                             b=Operand(False, 0), c=c, size=8),
                 Instruction(Opcode.HALT)]
        return CompiledTrace(insts, LatencyModel(), taxed=False,
                             use_jitter=True, fast_mem=True).resolve_micro(0)

    variants = [Operand(False, 1), Operand(False, 2), Operand(True, 2),
                Operand(True, 4)]
    fns = [micro(c) for c in variants]
    assert len({id(fn) for fn in fns}) == len(variants)
    assert all(micro(c) is fn for c, fn in zip(variants, fns))


@pytest.mark.parametrize("workload", ["volrend", "water_spatial"])
def test_fence_extra_override_keeps_engines_identical(workload):
    """A Machine subclass overriding only ``fence_extra`` charges its
    extra at every atomic, so the trace engine must not inline them."""
    from repro.sim.machine import Machine
    from repro.workloads import get_workload

    class FenceTaxMachine(Machine):
        def fence_extra(self, core):
            return 3 + core.core_id

    states = {}
    for sim_engine in ("interp", "trace"):
        built = get_workload(workload).build(heap_offset=0, seed=0, scale=0.5)
        machine = FenceTaxMachine(built.program, seed=0,
                                  allocator=built.allocator,
                                  engine=sim_engine)
        assert not machine._fast_mem_ok
        built.apply_init(machine)
        machine.run()
        states[sim_engine] = _machine_state(machine)
    assert states["trace"] == states["interp"]


# ----------------------------------------------------------------------
# Property tests: vectorized kernels vs their scalar twins
# ----------------------------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

# A handful of cache lines so random batches collide constantly (the
# sequential-per-line chain is the hard part of the vectorization).
_access = st.tuples(
    st.integers(min_value=0, max_value=4 * 64 - 1),   # addr in 4 lines
    st.integers(min_value=1, max_value=64),           # size (may straddle)
    st.booleans(),                                    # is_write
)


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
@settings(max_examples=200, deadline=None)
@given(st.lists(_access, min_size=0, max_size=64),
       st.lists(_access, min_size=0, max_size=64))
def test_linemodel_batch_matches_scalar(first, second):
    """observe_batch == observe, access by access, across two batches.

    Two consecutive batches exercise the head-chaining path: the second
    batch's group heads must pick up previous-access state the first
    batch stored in the line table.
    """
    scalar = CacheLineModel()
    vector = CacheLineModel()
    for batch in (first, second):
        want = [_SHARING_CODE[scalar.observe(a, s, w)] for a, s, w in batch]
        if batch:
            addr = np.array([a for a, _, _ in batch], np.uint64)
            size = np.array([s for _, s, _ in batch], np.int64)
            write = np.array([w for _, _, w in batch], np.bool_)
            got = vector.observe_batch(addr, size, write, np)
            assert list(got) == want
        assert scalar.state_dict() == vector.state_dict()
    assert json.dumps(scalar.state_dict()) == json.dumps(vector.state_dict())


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_pipeline_batch_matches_scalar_on_random_records(seed):
    """Whole-pipeline equivalence on a random record stream.

    The same records flow through a scalar pipeline one by one and
    through a numpy pipeline as one batch; every accumulated statistic
    (admission counters, per-line aggregation, line-model state, the
    per-location TS/FS scatter) must serialize to identical bytes.
    """
    from repro.core.detect.pipeline import DetectionPipeline
    from repro.pebs.events import StrippedRecord
    from repro.workloads import get_workload

    built = get_workload("histogram'").build(heap_offset=0, seed=0, scale=1.0)
    from repro.sim.machine import Machine

    machine = Machine(built.program, seed=0, allocator=built.allocator)
    rng = random.Random(seed)
    pcs = built.program.all_pcs()
    heap = 0x1000_0000
    records = []
    for i in range(rng.randrange(0, 96)):
        if rng.random() < 0.8:
            pc = rng.choice(pcs)
        else:
            pc = rng.randrange(0, 2**47)   # skid noise, any region
        addr = heap + rng.randrange(0, 1024)
        records.append(StrippedRecord(
            pc=pc, data_addr=addr, core=rng.randrange(4), cycle=i,
            seq=i, weight=rng.choice((1, 1, 1, 2, 4)),
        ))

    scalar = DetectionPipeline(built.program, machine.vmmap, 1000,
                               engine="python")
    vector = DetectionPipeline(built.program, machine.vmmap, 1000,
                               engine="numpy" if numpy_available()
                               else "python")
    for record in records:
        scalar.process([record])
    vector.process(records)
    assert json.dumps(scalar.state_dict(), sort_keys=True) == \
        json.dumps(vector.state_dict(), sort_keys=True)
    assert scalar.stats.records_admitted == vector.stats.records_admitted
    assert scalar.stats.undecodable_pcs == vector.stats.undecodable_pcs


# ----------------------------------------------------------------------
# Batch plumbing: RecordBatch merge/dedup vs the scalar code paths
# ----------------------------------------------------------------------

@pytest.mark.obs
@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
def test_numpy_engine_hot_path_floor():
    """The vectorized pipeline must stay >= 5x the scalar loop.

    Measured on a large synthetic batch (the hot path the refactor
    targets — per-poll batches on the small bench workloads sit below
    ``_BATCH_MIN`` and deliberately take the scalar path).  Scalar and
    numpy trials alternate and the ratio is of their median rates, so
    runner speed and load drifting during the test hit both sides alike.
    """
    import statistics
    import time

    from repro.core.detect.pipeline import DetectionPipeline
    from repro.pebs.events import StrippedRecord
    from repro.sim.machine import Machine
    from repro.workloads import get_workload

    built = get_workload("histogram'").build(heap_offset=0, seed=0,
                                             scale=1.0)
    machine = Machine(built.program, seed=0, allocator=built.allocator)
    rng = random.Random(0)
    pcs = built.program.all_pcs()
    n = 65536
    records = [
        StrippedRecord(pc=rng.choice(pcs),
                       data_addr=0x1000_0000 + rng.randrange(0, 1024),
                       core=rng.randrange(4), cycle=i, seq=i, weight=1)
        for i in range(n)
    ]

    def rate(engine):
        pipeline = DetectionPipeline(built.program, machine.vmmap, 1000,
                                     engine=engine)
        t0 = time.perf_counter()
        pipeline.process(records)
        return n / (time.perf_counter() - t0)

    rates = {"python": [], "numpy": []}
    for _ in range(5):
        for engine in rates:
            rates[engine].append(rate(engine))
    scalar = statistics.median(rates["python"])
    vector = statistics.median(rates["numpy"])
    assert vector >= 5.0 * scalar, (
        "numpy engine %.0f recs/s is only %.1fx the scalar %.0f recs/s "
        "(floor: 5x)" % (vector, vector / scalar, scalar)
    )


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
@settings(max_examples=100, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 2**40), st.integers(0, 2**40),
              st.integers(0, 3), st.integers(0, 10_000)),
    min_size=0, max_size=80,
))
def test_record_batch_merge_matches_python_sort(rows):
    from repro.pebs.batch import RecordBatch
    from repro.pebs.events import StrippedRecord

    records = [StrippedRecord(pc=pc, data_addr=addr, core=core, cycle=cyc,
                              seq=i, weight=1)
               for i, (pc, addr, core, cyc) in enumerate(rows)]
    want = sorted(records, key=lambda r: (r.cycle, r.core, r.pc))
    got = RecordBatch(list(records), "numpy").sorted_merge().records
    assert [(r.cycle, r.core, r.pc, r.seq) for r in got] == \
        [(r.cycle, r.core, r.pc, r.seq) for r in want]
