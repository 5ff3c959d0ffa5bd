"""The traced run: spans around public layer calls, layer self times,
and the detection replay.

The benchmark installs timing wrappers from this file around the
public calls of each layer (``Workload.build``, ``Machine.run``, the
``KernelDriver`` reads and flushes, ``DetectionPipeline.process`` /
``roll_window`` / ``report``, ``LaserRepair.plan`` / ``attach`` /
``detach``) and removes them afterwards; the program itself is not
changed.  Spans stay in memory until the run ends.

The traced LASER runs also turn on the program's own ``HostProfiler``
(``LaserConfig(profile_enabled=True)``), whose per-category self time
splits the service kernel (resilience, telemetry, control, the
scheduler slices) that no public call brackets.
"""

import statistics
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

from repro.core.detect.pipeline import DetectionPipeline
from repro.core.repair.manager import LaserRepair
from repro.core.services.repair import RepairService
from repro.obs.profile import HostProfiler
from repro.pebs.batch import RecordBatch
from repro.pebs.driver import KernelDriver
from repro.sim.machine import Machine

__all__ = ["SpanRecorder", "installed", "layer_seconds", "replay_rate"]

#: Wrapped calls: (owner, method, layer span name).
_WRAPPED = (
    (Machine, "run", "sim"),
    (KernelDriver, "read_records", "pebs"),
    (KernelDriver, "read_batch", "pebs"),
    (KernelDriver, "flush_all", "pebs"),
    (KernelDriver, "flush_batch", "pebs"),
    (DetectionPipeline, "process", "detect"),
    (DetectionPipeline, "roll_window", "detect.roll"),
    (DetectionPipeline, "report", "detect.report"),
    (LaserRepair, "plan", "repair.plan"),
    (LaserRepair, "attach", "repair.attach"),
    (LaserRepair, "detach", "repair.detach"),
    # The repair service cuts interim reports to decide on repair; this
    # span tells those apart from the final report.
    (RepairService, "on_check_interval", "repair.service"),
)

#: Profiler categories of the scheduler itself: the four slices and
#: the driver-poll service (whose PEBS drain is its own category).
SERVICE_SLICES = ("start", "poll", "check", "exit", "driver_poll")


class SpanRecorder:
    """In-memory spans: ``[name, start_ns, end_ns, parent, run]``.

    ``parent`` is the index of the enclosing span (-1 at the root);
    every span of one program run carries that run's ``run`` id.
    """

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.run_id = 0
        #: Mode (``"native"``/``"laser"``) of each program run id.
        self.run_modes: Dict[int, str] = {}
        #: Batches handed to ``DetectionPipeline.process``, per pipeline:
        #: ``{id(pipeline): (pipeline, [batch, ...])}``.
        self.batches: Dict[int, Tuple[DetectionPipeline, list]] = {}

    def begin_run(self, mode: str) -> None:
        """Start a new program run: later spans carry its id."""
        self.run_id += 1
        self.run_modes[self.run_id] = mode

    def open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter_ns(), 0, parent,
                           self.run_id])

    def close(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter_ns()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def self_ns(self, mode: str, parent: str = "") -> Dict[str, int]:
        """Self time per span name over the runs of one mode: each
        span's duration minus that of its direct children.  With
        ``parent``, only spans whose direct parent has that name."""
        child_ns = [0] * len(self.spans)
        for _, start, end, up, _ in self.spans:
            if up >= 0:
                child_ns[up] += end - start
        out: Dict[str, int] = {}
        for (name, start, end, up, run), children in zip(self.spans,
                                                          child_ns):
            if self.run_modes.get(run) != mode:
                continue
            if not parent or (up >= 0 and self.spans[up][0] == parent):
                out[name] = out.get(name, 0) + (end - start) - children
        return out

    def export(self) -> List[list]:
        """Spans with start times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0
        return [[name, start - origin, end - start, parent, run]
                for name, start, end, parent, run in self.spans]


def _wrap(recorder: SpanRecorder, original, name: str, capture: bool):
    def wrapper(self, *args, **kwargs):
        if capture:
            batches = recorder.batches.setdefault(id(self), (self, []))[1]
            batches.append(args[0] if args else kwargs["records"])
        recorder.open(name)
        try:
            return original(self, *args, **kwargs)
        finally:
            recorder.close()
    return wrapper


def _build_owners(workloads) -> List[type]:
    """The classes that define ``build`` for these workloads."""
    owners = []
    for workload in workloads:
        owner = next(k for k in type(workload).__mro__ if "build" in vars(k))
        if owner not in owners:
            owners.append(owner)
    return owners


@contextmanager
def installed(recorder: SpanRecorder, workloads) -> Iterator[None]:
    """Wrap every layer call for the duration of the block."""
    targets = [(owner, method, name) for owner, method, name in _WRAPPED]
    targets += [(owner, "build", "workloads.build")
                for owner in _build_owners(workloads)]
    originals = []
    try:
        for owner, method, name in targets:
            original = vars(owner)[method]
            originals.append((owner, method, original))
            setattr(owner, method, _wrap(
                recorder, original, name,
                capture=(owner is DetectionPipeline and method == "process")))
        yield
    finally:
        for owner, method, original in reversed(originals):
            setattr(owner, method, original)


def layer_seconds(recorder: SpanRecorder,
                  profile: HostProfiler) -> Dict[str, float]:
    """Disjoint per-layer self times, in seconds.

    Wrapper spans give the layers a public call brackets.  The merged
    profiler of the traced LASER runs gives the rest: the repair
    service (which contains the ``LaserRepair`` spans), resilience,
    telemetry, control and the scheduler slices.  The detection
    service's own time, less the pipeline calls it makes, is its
    journal dedup and acknowledgement, so it is charged to resilience.
    Interim reports cut inside the repair service are charged to
    detection, not repair.  ``sim.native`` is ``Machine.run`` under
    native runs.
    """
    own = recorder.self_ns("laser")
    native = recorder.self_ns("native")
    interim = recorder.self_ns("laser", parent="repair.service").get(
        "detect.report", 0)
    leaf = profile.leaf_self_ns
    detect_in_service = own.get("detect", 0) + own.get("detect.roll", 0)
    ns = {
        "workloads.build": (own.get("workloads.build", 0)
                            + native.get("workloads.build", 0)),
        "sim": own.get("sim", 0),
        "sim.native": native.get("sim", 0),
        "pebs.drain": own.get("pebs", 0),
        "detect": detect_in_service + own.get("detect.report", 0),
        "repair": max(0, leaf("repair") - interim),
        "resilience": leaf("resilience") + max(
            0, leaf("detection") - detect_in_service),
        "services.telemetry": leaf("telemetry"),
        "control": leaf("control"),
        "services.kernel": sum(leaf(label) for label in SERVICE_SLICES),
    }
    return {name: value / 1e9 for name, value in ns.items()}


def replay_rate(batches, engine: str,
                repeats: int = 5) -> Tuple[float, List[dict]]:
    """Records per second through fresh pipelines on ``engine``.

    Every captured batch goes through a new pipeline built like the
    original; the time is the median over ``repeats`` replays of the
    ``process`` calls alone.  Returns the rate and the replayed
    pipelines' state, which must not depend on the engine.
    """
    total = sum(len(b) for _, bs in batches for b in bs)
    times = []
    states: List[dict] = []
    for _ in range(repeats):
        elapsed = 0
        states = []
        for original, captured in batches:
            pipeline = DetectionPipeline(
                original.program, original.filter.vmmap,
                original.sample_after_value, engine=engine)
            inputs = [RecordBatch(list(b), engine) for b in captured]
            start = time.perf_counter_ns()
            for batch in inputs:
                pipeline.process(batch)
            elapsed += time.perf_counter_ns() - start
            states.append(pipeline.state_dict())
        times.append(elapsed)
    median_ns = statistics.median(times)
    return (total / (median_ns / 1e9) if median_ns else 0.0), states
