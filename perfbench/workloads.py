"""The three workloads: inputs from the workload seed, timed passes, output checks.

Every workload works on a grid of (b value, seed) cells derived from the
workload seed.  ``Bench.prepare`` runs the untimed reference work every run
needs (the frozen seed-42 hash, the serial reference sweep of the grid and a
replay of its cells through simulate + summarize), ``Bench.loop`` runs timed
passes of the workload's operation in a closed loop with one client, and
``Bench.probes`` (traced runs only) measures the layers and artifact writers
the workload's own operation does not call.

Checks run outside the timed region; an operation whose call raises or whose
output fails a check counts as failed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import multiprocessing
import random
import re
import subprocess
import sys
from collections import Counter
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from bubblesim import CSV_HEADER, CrashConfig, ModelParams, RngStream, SweepSpec
from bubblesim.io import sweep_payload, traj_column

from tracing import Api, Tracer

# sha256 of the baseline seed-42 trajectory CSV, as frozen in tests/test_acceptance.py
BASELINE_SEED42_CSV_SHA256 = "17c5f1757c6f61337cd6e1139cab5f0218ab681b311ef3da63cb2d744b9539d5"

B_VALUES = (0.0001, 0.01, 0.02)  # the criterion-06 grid
POOL_JOBS = 2  # the pool size of a 2-core box; never more
# seeds per workload: enough work per pass to time, enough passes per run for a tail
SEED_COUNTS = {"cli-simulate": 5, "ensemble-sweep": 3, "ensemble-pool": 6}
WORKLOADS = tuple(SEED_COUNTS)

_POINTS = re.compile(r'points="([^"]*)"')

# One reference second is the time calibrate() takes, times 200.
CAL_REF_S = 0.005


def calibrate() -> float:
    """Seconds taken by a fixed piece of pure-Python work like the program's own.

    The benchmark host is shared, and its speed drifts by up to about 1.8x
    over seconds to minutes. Timing this loop just before and just after an
    operation measures that speed during the operation.
    """
    t0 = perf_counter()
    x, out = 0.0, []
    for i in range(4000):
        x = 0.5 * x + 0.25 * math.erfc(-i * 1e-3)
        out.append(format(x, ".17g"))
    return perf_counter() - t0


def _calibration_helper(conn) -> None:
    while conn.recv():
        conn.send(calibrate())


class Calibrator:
    """Times calibrate() at once on as many cores as the operation uses.

    A pool sweep runs on every core, so its speed is that of all of them:
    helper processes (forked, idle between calls) run the loop alongside
    this process and the mean of all the times is the result.  Forking
    starts no resource-tracker process, so nothing outlives close().
    """

    def __init__(self, cores: int) -> None:
        ctx = multiprocessing.get_context("fork")
        self._helpers = []
        try:
            for _ in range(cores - 1):
                parent, child = ctx.Pipe()
                proc = ctx.Process(target=_calibration_helper, args=(child,), daemon=True)
                proc.start()
                child.close()
                self._helpers.append((proc, parent))
        except BaseException:
            self.close()
            raise

    def measure(self) -> float:
        for _, conn in self._helpers:
            conn.send(True)
        times = [calibrate()] + [conn.recv() for _, conn in self._helpers]
        return sum(times) / len(times)

    def close(self) -> None:
        """Stops every helper and waits until each has ended."""
        for proc, conn in self._helpers:
            try:
                conn.send(False)
            except OSError:
                pass  # the helper has already gone; join reaps it
            proc.join(timeout=30)
            if proc.is_alive():
                proc.kill()
                proc.join()
            conn.close()
        self._helpers = []


def stop_child_processes() -> None:
    """Ends and waits for every process this one started through multiprocessing.

    Besides the calibration helpers, a start method other than fork (the
    default on some platforms and Python versions) makes run_sweep's process
    pool start a resource tracker and possibly a fork server, which would
    otherwise outlive the benchmark.
    """
    for proc in multiprocessing.active_children():
        proc.kill()
        proc.join()
    from multiprocessing import forkserver, resource_tracker

    for server in (getattr(forkserver, "_forkserver", None), getattr(resource_tracker, "_resource_tracker", None)):
        stop = getattr(server, "_stop", None)
        if stop is not None:
            stop()


class CheckFailed(Exception):
    """An output differs from what the contract says it must be."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Inputs:
    """What the program receives: baseline params, the b grid and the seed list."""

    workload: str
    base: ModelParams
    values: tuple[float, ...]
    seeds: tuple[int, ...]

    @property
    def spec(self) -> SweepSpec:
        return SweepSpec(base=self.base, axis="b", values=self.values, seeds=self.seeds)

    @property
    def cells(self) -> int:
        return len(self.values) * len(self.seeds)

    @property
    def n_jobs(self) -> int:
        return POOL_JOBS if self.workload == "ensemble-pool" else 1


def make_inputs(workload: str, seed: int) -> Inputs:
    rng = random.Random(seed)
    seeds = tuple(rng.sample(range(1_000_000), SEED_COUNTS[workload]))
    base = ModelParams()
    # cli-simulate runs the baseline itself, which is the b = 0.02 column of the grid
    values = (base.b,) if workload == "cli-simulate" else B_VALUES
    return Inputs(workload, base, values, seeds)


@dataclass
class Pass:
    """One timed pass: every seed once (cli-simulate) or one sweep (ensembles)."""

    traced: bool
    op_s: list[float] = field(default_factory=list)
    ref_s: list[float] = field(default_factory=list)  # op_s at the reference speed
    sim_ref_s: float = 0.0  # inside simulate + summarize, or inside run_sweep
    trajectories: int = 0
    counts: Counter = field(default_factory=Counter)
    complete: bool = True


def simulate_op(api, params: ModelParams, seed: int, out: Path):
    """`bubblesim simulate`: the public calls of cli._run_simulate, in its order."""
    t0 = perf_counter()
    traj = api.simulate(params, seed)
    crash = CrashConfig.for_params(params)
    stats = api.summarize(traj, crash)
    sim_s = perf_counter() - t0
    out.mkdir(parents=True, exist_ok=True)
    api.write_trajectory_csv(traj, out / "trajectory.csv")
    api.write_summary_json(api.summary_payload(stats, params, seed, crash), out / "summary.json")
    api.plot_trajectory(traj, out / "trajectory.svg")
    return sim_s, (traj, stats)


def sweep_artifacts(api, result, out: Path) -> None:
    """The writes of cli._run_sweep_cmd after its run_sweep call, in its order."""
    out.mkdir(parents=True, exist_ok=True)
    api.write_summary_json(api.sweep_payload(result, None), out / "sweep.json")
    api.plot_sweep(result, out / "sweep.svg")
    api.compare_medians(result, "peak_log_price")


def sweep_op(api, spec: SweepSpec, n_jobs: int, out: Path | None):
    """`bubblesim sweep` (with out) or a bare run_sweep (without)."""
    t0 = perf_counter()
    result = api.run_sweep(spec, None, n_jobs)
    sim_s = perf_counter() - t0
    if out is not None:
        sweep_artifacts(api, result, out)
    return sim_s, result


def canonical(result) -> str:
    """Every number of a sweep result, as the bitwise-exact JSON of its payload."""
    return json.dumps(sweep_payload(result, None), sort_keys=True)


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype.kind == "f" or b.dtype.kind == "f":
        a, b = a.astype(np.float64).view(np.uint64), b.astype(np.float64).view(np.uint64)
    return a.shape == b.shape and bool(np.array_equal(a, b))


def svg_points(text: str) -> int:
    """Polyline vertices in an SVG document."""
    return sum(len(p.split()) for p in _POINTS.findall(text))


class Bench:
    """One run of one workload: inputs, reference results, checks and counts."""

    def __init__(self, inputs: Inputs, work: Path, tracer: Tracer | None, calibrator: Calibrator):
        self.inputs = inputs
        self.calibrator = calibrator
        self.work = work
        self.tracer = tracer
        self.raw = Api()
        self.api = Api(tracer) if tracer is not None else self.raw
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[tuple, str] = {}
        self.counts: Counter = Counter()  # counts of the run's fixed work, see prepare/probes
        self.reference = None
        self.reference_json = ""

    # -- bookkeeping -----------------------------------------------------

    def attempt(self, label: str, fn, *args):
        """Run one operation with its checks; a raise counts it as failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # any failure is a failed operation, reported below
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return None

    def same_bytes(self, key: tuple, data: bytes) -> None:
        """Equal inputs must give equal bytes: compare with the first time seen."""
        digest = hashlib.sha256(data).hexdigest()
        first = self.digests.setdefault(key, digest)
        expect(digest == first, f"{key} bytes differ between operations on the same input")

    def tagged(self, tag: str):
        return self.tracer.tagged(tag) if self.tracer is not None else nullcontext()

    # -- checks ----------------------------------------------------------

    def check_simulate_artifacts(self, api, traj, stats, seed: int, out: Path) -> Counter:
        """Checks one baseline run of a grid seed and counts what it wrote."""
        inp = self.inputs
        T = traj.params.T
        expect(traj.n_rng_draws == 2 * (T - 1), f"seed {seed}: {traj.n_rng_draws} draws, expected {2 * (T - 1)}")
        ref = self.reference.cell(inp.values.index(inp.base.b), inp.seeds.index(seed)).stats
        expect(stats == ref, f"seed {seed}: summary differs from its reference sweep cell")
        csv = (out / "trajectory.csv").read_bytes()
        back = api.read_trajectory_csv(out / "trajectory.csv")
        for name in CSV_HEADER.split(","):
            expect(bitwise_equal(back[name], traj_column(traj, name)), f"seed {seed}: CSV column {name} does not round-trip")
        summary = (out / "summary.json").read_bytes()
        payload = json.loads(summary)
        expect(payload["seed"] == seed and payload["stats"] == asdict(stats), f"seed {seed}: summary.json stats differ")
        svg = (out / "trajectory.svg").read_bytes()
        expect(svg.count(b'class="panel"') == 4, f"seed {seed}: trajectory.svg lacks its four panels")
        for key, data in (("trajectory.csv", csv), ("summary.json", summary), ("trajectory.svg", svg)):
            self.same_bytes((seed, key), data)
        return Counter({
            "io.csv_bytes": len(csv),
            "io.json_bytes": len(summary),
            "svgplot.svg_bytes": len(svg),
            "svgplot.points": svg_points(svg.decode()),
        })

    def check_sweep(self, result, out: Path | None) -> Counter:
        expect(canonical(result) == self.reference_json, "sweep result differs from the serial reference")
        if out is None:
            return Counter()
        data = (out / "sweep.json").read_bytes()
        payload = json.loads(data)
        expect(len(payload["sweep"]["cells"]) == self.inputs.cells, "sweep.json lacks cells")
        svg = (out / "sweep.svg").read_bytes()
        expect(svg.count(b"<polyline") >= 1, "sweep.svg draws no path")
        self.same_bytes(("sweep", "sweep.json"), data)
        self.same_bytes(("sweep", "sweep.svg"), svg)
        return Counter({
            "io.json_bytes": len(data),
            "svgplot.svg_bytes": len(svg),
            "svgplot.points": svg_points(svg.decode()),
        })

    # -- untimed work every run does -------------------------------------

    def prepare(self) -> None:
        self.attempt("seed-42 hash", self._seed42)
        self.attempt("reference sweep", self._reference)
        if self.reference is not None:
            with self.tagged("replay"):
                self.attempt("replay", self._replay)

    def _seed42(self) -> None:
        traj = self.api.simulate(ModelParams(), 42)
        path = self.work / "seed42.csv"
        self.api.write_trajectory_csv(traj, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        expect(digest == BASELINE_SEED42_CSV_SHA256, f"baseline seed-42 CSV sha256 is {digest}")
        expect(traj.n_rng_draws == 2 * (traj.params.T - 1), "seed 42: wrong draw count")

    def _reference(self) -> None:
        result = self.api.run_sweep(self.inputs.spec, None, 1)
        failed = sum(c.error is not None for c in result.cells)
        self.counts.update({"sweep.cells": len(result.cells), "sweep.cells_failed": failed})
        expect(failed == 0, f"{failed} reference cells failed: {[c.error for c in result.cells if c.error][:1]}")
        self.reference = result
        self.reference_json = canonical(result)

    def _replay(self) -> None:
        """The grid's cells through simulate + summarize, as run_sweep's cells do."""
        inp = self.inputs
        for i, value in enumerate(inp.values):
            for j, seed in enumerate(inp.seeds):
                params = inp.base.with_value("b", value)
                traj = self.api.simulate(params, seed)
                stats = self.api.summarize(traj, None)
                ref = self.reference.cell(i, j).stats
                expect(stats == ref, f"replay of (b={value}, seed {seed}) differs from its sweep cell")
                expect(traj.n_rng_draws == 2 * (params.T - 1), f"(b={value}, seed {seed}): wrong draw count")
                crash = CrashConfig.for_params(params)
                events = self.api.detect_crashes(traj, crash)
                crossings = self.api.up_crossings(traj.momentum, crash.threshold)
                expect(len(events) == stats.n_crashes, f"(b={value}, seed {seed}): detector disagrees with summarize")
                self.counts.update({
                    "model.calls": 1,
                    "model.trades": int(traj.n_trades[-1]),
                    "rng.draws": traj.n_rng_draws,
                    "analysis.crossings": len(crossings),
                    "analysis.events": len(events),
                })

    # -- the timed closed loop -------------------------------------------

    def one_pass(self, traced: bool) -> Pass:
        api = self.api if traced else self.raw
        inp = self.inputs
        rec = Pass(traced)
        if inp.workload == "cli-simulate":
            ops = [(simulate_op, (api, inp.base, s, self.work / "simulate")) for s in inp.seeds]
        else:
            out = self.work / "sweep" if inp.workload == "ensemble-sweep" else None
            ops = [(sweep_op, (api, inp.spec, inp.n_jobs, out))]
        for fn, args in ops:
            outcome = self.attempt(inp.workload, self._timed_op, rec, fn, args)
            rec.complete = rec.complete and outcome is not None
        return rec

    def _timed_op(self, rec: Pass, fn, args) -> bool:
        gc.collect()  # every operation starts from the same collector state
        cal = self.calibrator.measure()
        t0 = perf_counter()
        if rec.traced:
            with self.tracer.span("op"):
                sim_s, result = fn(*args)
        else:
            sim_s, result = fn(*args)
        op_s = perf_counter() - t0
        scale = CAL_REF_S / ((cal + self.calibrator.measure()) / 2)
        api = args[0]
        if fn is simulate_op:
            traj, stats = result
            rec.counts += self.check_simulate_artifacts(api, traj, stats, args[2], args[3])
            rec.trajectories += 1
        else:
            rec.counts += self.check_sweep(result, args[3])
            rec.trajectories += self.inputs.cells
        rec.op_s.append(op_s)
        rec.ref_s.append(op_s * scale)
        rec.sim_ref_s += sim_s * scale
        return True

    def loop(self, seconds: float, alternate: bool) -> list[Pass]:
        """Closed loop, one client: passes back to back until `seconds` have gone.

        With `alternate`, every second pass is traced, so traced and untraced
        passes see the same conditions and their ratio is the tracing overhead.
        """
        passes: list[Pass] = []
        deadline = perf_counter() + seconds
        while perf_counter() < deadline or not passes:
            rec = self.one_pass(traced=alternate and len(passes) % 2 == 1)
            if rec.complete:
                first = next((p for p in passes if p.complete), None)
                if first is None:
                    self.counts.update(rec.counts)
                elif rec.counts != first.counts:
                    self.failed += 1
                    self.errors.append(f"pass {len(passes)}: counts {dict(rec.counts)} != first pass {dict(first.counts)}")
            passes.append(rec)
        return passes

    # -- traced runs only: the layers the workload's operation does not call --

    def probes(self, root: Path, env: dict) -> list[float]:
        """Returns the wall times of whole CLI processes; the rest lands in spans and counts."""
        inp = self.inputs
        tr = self.tracer
        with tr.tagged("rng"):
            self.attempt("rng probe", self._rng_probe)
        with tr.tagged("pool-fixed"):
            tiny = SweepSpec(base=ModelParams(T=2), axis="b", values=(inp.base.b,), seeds=inp.seeds[:2])
            for _ in range(5):
                self.attempt("pool fixed cost", self._pool_fixed, tiny)
        if inp.workload != "ensemble-pool":
            self.attempt("pool probe", self._pool_probe)
        if inp.workload != "cli-simulate":
            self.attempt("simulate artifacts probe", self._simulate_probe)
        if inp.workload != "ensemble-sweep":
            self.attempt("sweep artifacts probe", self._sweep_probe)
        for _ in range(30):
            self.attempt("cli config", self._cli_config)
        process_s = []
        for k in range(5):
            wall = self.attempt("cli process", self._cli_process, root, env, k)
            if wall is not None:
                process_s.append(wall)
        return process_s

    def _rng_probe(self) -> None:
        n = 2 * (self.inputs.base.T - 1)
        for seed in self.inputs.seeds[:5]:
            with self.tracer.span("rng.uniform"):
                stream = RngStream(seed)
                for _ in range(n):
                    stream.uniform()
            expect(stream.n_draws == n, "RngStream miscounted its draws")

    def _pool_fixed(self, tiny: SweepSpec) -> None:
        result = self.api.run_sweep(tiny, None, POOL_JOBS)
        expect(all(c.error is None for c in result.cells), "T=2 pool sweep failed")

    def _pool_probe(self) -> None:
        _, result = sweep_op(self.api, self.inputs.spec, POOL_JOBS, None)
        self.check_sweep(result, None)

    def _simulate_probe(self) -> None:
        out = self.work / "simulate"
        seed = self.inputs.seeds[0]
        _, (traj, stats) = simulate_op(self.api, self.inputs.base, seed, out)
        self.counts.update(self.check_simulate_artifacts(self.api, traj, stats, seed, out))

    def _sweep_probe(self) -> None:
        out = self.work / "sweep"
        sweep_artifacts(self.api, self.reference, out)
        self.counts.update(self.check_sweep(self.reference, out))

    def _cli_config(self) -> None:
        seed = self.inputs.seeds[0]
        argv = ["simulate", "--seed", str(seed), "--out", str(self.work / "cli")]
        with self.tracer.span("cli.config"):
            cfg = self.api.parse_config(self.api.build_parser().parse_args(argv))
        expect(cfg.seed == seed and cfg.params == self.inputs.base, "parse_config resolved the wrong run")

    def _cli_process(self, root: Path, env: dict, k: int) -> float:
        """A whole `python -m bubblesim simulate` process; its CSV must match in-process bytes."""
        seed = self.inputs.seeds[0]
        out = self.work / f"cli{k}"
        cmd = [sys.executable, "-m", "bubblesim", "simulate", "--seed", str(seed), "--out", str(out)]
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=120)
        wall = perf_counter() - t0
        expect(proc.returncode == 0, f"bubblesim simulate exited {proc.returncode}: {proc.stderr.strip()[-200:]}")
        self.same_bytes((seed, "trajectory.csv"), (out / "trajectory.csv").read_bytes())
        return wall
