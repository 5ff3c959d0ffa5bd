"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_sweep --seed 0 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every
program untraced and traced, and prints the per-layer metrics.
``--workload all`` runs the three workloads one after another, each in
its own process.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it holds the run's provenance.  See ``README.md``.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")


def _bootstrap() -> None:
    """Put the checkout's ``src`` on the path, or exit if it is absent."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write("perfbench: no repro package under %s\n" % SRC)
        sys.exit(2)
    sys.path.insert(0, SRC)


def metric_units(section: str) -> dict:
    """``{name: unit}`` of one metric section of ``BENCHMARK.json``."""
    with open(BENCHMARK_JSON) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _run_all(args) -> int:
    """Each workload in its own process, as the benchmark is run."""
    from bench_workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, universal_newlines=True)
        print("== %s" % name)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {name: r["metrics"] for name, r in results.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _bootstrap()
    from bench_workloads import WORKLOADS

    if args.workload == "all":
        return _run_all(args)
    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r (have: all, %s)"
                     % (args.workload, ", ".join(WORKLOADS)))
    bench = WORKLOADS[args.workload]
    import bench_loop

    if args.setup_probe:
        bench_loop.setup_probe(bench, args.seed)
        return 0
    if args.trace:
        metrics, runs, provenance, reasons, recorder = \
            bench_loop.measure_per_layer(bench, args.seed, args.seconds)
    else:
        metrics, runs, provenance, reasons = bench_loop.measure_end_to_end(
            bench, args.seed, args.seconds, os.path.abspath(__file__), ROOT)
    provenance.update(workload=args.workload, seed=args.seed,
                      seconds=args.seconds, trace=args.trace)
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, "trace-%s-seed%d.json"
                            % (args.workload, args.seed))
        with open(path, "w") as fh:
            json.dump({"provenance": provenance, "metrics": metrics,
                       "spans": recorder.export()}, fh)
    section = "per_layer" if args.trace else "end_to_end"
    bench_loop.emit(metrics, metric_units(section), runs, provenance,
                    reasons)
    return 0


if __name__ == "__main__":
    sys.exit(main())
