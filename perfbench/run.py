"""bubblesim benchmark: one workload, one workload seed, one result line.

    python3 perfbench/run.py --workload cli-simulate --seed 1 --seconds 20 --trace 0

Run it from the root of a bubblesim checkout: the package is imported from
./src, never from an installed copy, and scratch files go to ./.perfbench.
Workloads (see perfbench/README.md for why each exists):

  cli-simulate    per seed: simulate, summarize, CSV, summary JSON, SVG
  ensemble-sweep  run_sweep(n_jobs=1) over the b grid, sweep JSON, sweep SVG
  ensemble-pool   run_sweep(n_jobs=2) over the b grid, no artifacts

--trace 0 prints the end-to-end metrics, measured with nothing traced.
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics; its spans are written to .perfbench/trace-<workload>-seed<n>.json.
The last line of stdout is the JSON result; the lines before it say the same
for a reader, with the provenance of the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

SETUP_RUNS = 9
# a fresh interpreter up to the first operation; prints the import time and where it came from
SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import bubblesim; "
    "print(time.perf_counter() - t0, bubblesim.__file__)"
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one bubblesim benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="workload seed: derives the inputs")
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed closed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def measure_setup(root: Path, src: Path, env: dict) -> tuple[list[float], list[float], list[float]]:
    """Fresh interpreters importing bubblesim: wall time, wall time at the
    reference speed (see workloads.calibrate), and the import time alone."""
    from workloads import CAL_REF_S, calibrate

    walls, refs, imports = [], [], []
    for _ in range(SETUP_RUNS):
        before = statistics.median(calibrate() for _ in range(3))
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=root, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        walls.append(perf_counter() - t0)
        after = statistics.median(calibrate() for _ in range(3))
        refs.append(walls[-1] * CAL_REF_S / ((before + after) / 2))
        seconds, origin = proc.stdout.strip().split(" ", 1)
        if not Path(origin).resolve().is_relative_to(src):
            raise RuntimeError(f"fresh interpreter imported bubblesim from {origin}, not {src}")
        imports.append(float(seconds))
    return walls, refs, imports


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its level."""
    ordered = sorted(samples)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def provenance(root: Path, src: Path, inputs, args) -> dict:
    import numpy as np

    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)),
        )
        git_sha = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        git_sha = None
    digest = hashlib.sha256()
    for path in sorted((src / "bubblesim").rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "workload": inputs.workload,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "T": inputs.base.T,
        "grid": {"axis": "b", "values": list(inputs.values)},
        "n_seeds": len(inputs.seeds),
        "seeds": list(inputs.seeds),
        "n_jobs": inputs.n_jobs,
    }


def end_to_end(bench, passes, setup_walls: list[float], setup_refs: list[float]) -> tuple[dict, dict]:
    T = bench.inputs.base.T
    med = statistics.median
    done = [p for p in passes if p.complete]
    per_run = [t / (p.trajectories / len(p.op_s)) for p in done for t in p.ref_s]
    tail_s, level = tail(per_run)
    metrics = {
        "run_ms.p50": (med(per_run) * 1e3, "ref_ms"),
        "run_ms.tail": (tail_s * 1e3, "ref_ms"),
        "sweep_s": (med(sum(p.ref_s) for p in done), "ref_s"),
        "sim_periods_per_s": (med(p.trajectories * (T - 1) / p.sim_ref_s for p in done), "1/ref_s"),
        # reference seconds, like the other timings; the name and unit are fixed
        "setup_s": (med(setup_refs), "s"),
    }
    raw = [t / (p.trajectories / len(p.op_s)) for p in done for t in p.op_s]
    notes = {
        "run_ms.samples": len(per_run),
        "run_ms.tail_percentile": level,
        "sweep_s.samples": len(done),
        "setup_s.samples": len(setup_walls),
        "wall.run_ms.p50": med(raw) * 1e3,
        "wall.run_ms.tail": tail(raw)[0] * 1e3,
        "wall.sweep_s": med(sum(p.op_s) for p in done),
        "wall.setup_s": med(setup_walls),
    }
    return metrics, notes


def layer_metrics(bench, passes, import_s: list[float], process_s: list[float]) -> tuple[dict, dict]:
    from workloads import POOL_JOBS

    tr, c = bench.tracer, bench.counts
    T = bench.inputs.base.T
    med = statistics.median

    def ms(name: str, tag: str | None = None) -> float:
        return med(tr.durations(name, tag)) * 1e3

    sim = med(tr.durations("model.simulate"))
    serial = med(tr.durations("sweep.run_sweep"))
    pooled = med(tr.durations("sweep.run_sweep.pool", ""))
    replay = sum(tr.durations("model.simulate", "replay")) + sum(tr.durations("analysis.summarize", "replay"))
    traced = med(sum(p.ref_s) for p in passes if p.traced and p.complete)
    plain = med(sum(p.ref_s) for p in passes if not p.traced and p.complete)
    crossings = c["analysis.crossings"]
    metrics = {
        "rng.ns_per_draw": (med(tr.durations("rng.uniform")) / (2 * (T - 1)) * 1e9, "ns"),
        "rng.draws": (c["rng.draws"], "count"),
        "model.simulate_ms.p50": (sim * 1e3, "ms"),
        "model.ns_per_period": (sim / (T - 1) * 1e9, "ns"),
        "model.calls": (c["model.calls"], "count"),
        "model.trades": (c["model.trades"], "count"),
        "analysis.summarize_ms.p50": (ms("analysis.summarize"), "ms"),
        "analysis.detect_ms.p50": (ms("analysis.detect_crashes"), "ms"),
        "analysis.crossings": (crossings, "count"),
        "analysis.events": (c["analysis.events"], "count"),
        "analysis.events_per_crossing": (c["analysis.events"] / crossings if crossings else 0.0, "ratio"),
        "sweep.run_ms": (serial * 1e3, "ms"),
        "sweep.overhead_ms": ((serial - replay) * 1e3, "ms"),
        "sweep.cells": (c["sweep.cells"], "count"),
        "sweep.cells_failed": (c["sweep.cells_failed"], "count"),
        "sweep.pool_fixed_ms": (ms("sweep.run_sweep.pool", "pool-fixed"), "ms"),
        "sweep.pool_efficiency": (replay / (POOL_JOBS * pooled), "ratio"),
        "io.csv_write_ms.p50": (ms("io.write_trajectory_csv"), "ms"),
        "io.csv_bytes": (c["io.csv_bytes"], "count"),
        "io.json_write_ms.p50": (ms("io.write_summary_json"), "ms"),
        "io.json_bytes": (c["io.json_bytes"], "count"),
        "io.csv_read_ms.p50": (ms("io.read_trajectory_csv"), "ms"),
        "svgplot.trajectory_ms.p50": (ms("svgplot.plot_trajectory"), "ms"),
        "svgplot.sweep_ms": (ms("svgplot.plot_sweep"), "ms"),
        "svgplot.svg_bytes": (c["svgplot.svg_bytes"], "count"),
        "svgplot.points": (c["svgplot.points"], "count"),
        "cli.parse_config_ms": (ms("cli.config"), "ms"),
        "cli.process_ms.p50": (med(process_s) * 1e3, "ms"),
        "cli.import_ms": (med(import_s) * 1e3, "ms"),
        "trace.overhead_frac": (traced / plain - 1.0, "frac"),
        "trace.coverage": (tr.coverage("op"), "frac"),
    }
    notes = {
        "traced_passes": sum(p.traced for p in passes),
        "untraced_passes": sum(not p.traced for p in passes),
        "spans": len(tr.spans),
        "self_ms": {k: v * 1e3 for k, v in sorted(tr.self_times().items())},
    }
    return metrics, notes


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "bubblesim" / "__init__.py").is_file():
        print(f"error: no bubblesim package under {src}; run from the root of a bubblesim checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from tracing import Tracer
    from workloads import WORKLOADS, Bench, Calibrator, make_inputs, stop_child_processes

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONPATH=str(src))
    setup_walls, setup_refs, import_s = measure_setup(root, src, env)
    inputs = make_inputs(args.workload, args.seed)
    state = root / ".perfbench"
    state.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=state))
    tracer = Tracer() if args.trace else None
    calibrator = None
    try:
        calibrator = Calibrator(cores=inputs.n_jobs)
        bench = Bench(inputs, work, tracer, calibrator)
        bench.prepare()
        passes = bench.loop(args.seconds, alternate=bool(args.trace))
        if not any(p.complete for p in passes):
            print("error: no pass of the workload completed", *bench.errors[:5], sep="\n", file=sys.stderr)
            return 1
        if tracer is None:
            metrics, notes = end_to_end(bench, passes, setup_walls, setup_refs)
        else:
            process_s = bench.probes(root, env)
            metrics, notes = layer_metrics(bench, passes, import_s, process_s)
            trace_path = state / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.dump(trace_path, {"workload": args.workload, "seed": args.seed})
            notes["trace_file"] = str(trace_path.relative_to(root))
    finally:
        if calibrator is not None:
            calibrator.close()
        stop_child_processes()
        shutil.rmtree(work, ignore_errors=True)

    for line in bench.errors[:20]:
        print(f"failed: {line}", file=sys.stderr)
    print("provenance " + json.dumps(provenance(root, src, inputs, args)))
    print("notes " + json.dumps(notes))
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value!r} {unit}")
    print(f"{'failed_frac':32s} {bench.failed / bench.attempted!r} ({bench.failed}/{bench.attempted})")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
