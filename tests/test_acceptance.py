"""Acceptance gate: one test per shipping criterion, numbered 01-10.

Run with -v to get one pass/fail line per criterion.  Ensemble criteria
(06-08, 10) use the session-scoped 50-seed sweeps from conftest, so the whole
gate stays well under the time budget.

Two criteria need context:

* 06 checks, besides the median ordering, that the micro-bubble median peak
  at b = 0.0001 stays under half the b = 0.02 median peak.  What shrinks
  with b is the drift: the cubic holds momentum near b, so the log price
  drifts by about r*b per period (median final log price -0.01, 0.05, 0.11
  against r*b*T = 0.0005, 0.05, 0.1 on seeds 0..399).  The b = 0.0001 peaks
  are not plain random-walk maxima: the frenzy channel still amplifies them
  (median 0.13 on seeds 0..399, against 0.07 with h = k = 1e-12 and 0.06
  with k = 1e-12 alone).  The paper's abstract states no figure for this
  ratio, so the bound comes from the model: on the 1,000 seeds 50..1049,
  which the gate does not use, the ratio of medians is 0.33, and 99.6% of
  5,000 random 50-seed subsets of them fall below one half (99th percentile
  0.48).  Should the full paper text state a figure, the bound follows it.

* 07 (the inverted-U in r) is, by its own wording, allowed to fail at the
  median level provided the suite reports the deviation loudly instead of
  passing silently; the test emits a warning with the measured medians when
  the interior maximum does not hold.
"""

import hashlib
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from bubblesim import (
    ModelParams,
    SweepSpec,
    compare_medians,
    detect_crashes,
    normal_cdf,
    run_sweep,
    simulate,
    write_trajectory_csv,
)
from bubblesim.cli import main
from bubblesim.model import cubic_increment
from oracles import momentum_direct, normal_cdf_reference
from synthetic import flat_trajectory, single_crash_trajectory

# sha256 of the baseline seed-42 trajectory CSV, frozen from the first
# verified run
BASELINE_SEED42_CSV_SHA256 = "17c5f1757c6f61337cd6e1139cab5f0218ab681b311ef3da63cb2d744b9539d5"

# sha256 of the other CLI artifacts, frozen from the same code as the CSV:
# `simulate --seed 42` and `sweep --axis b --values 0.0001,0.01,0.02
# --seeds 0..2`.  No other test pins the SVG bytes.
BASELINE_SEED42_SVG_SHA256 = "0194bc6ee3b426eaac7ed8d124a651e5e3098e46296691785e5e7e0a94e9a646"
BASELINE_SEED42_JSON_SHA256 = "f3104629afee0d7c353e9e9562d11bf79a613adee66666e414bcd55b463eec2c"
B_SWEEP_3_JSON_SHA256 = "8d3a99779d21f47fc1b7eac0a32b8c8876a94552cfbb00300b3a812ffb52463a"
B_SWEEP_3_SVG_SHA256 = "551b617d76bc4846f40c85076d4171e179b8c8bac04a7176cb0b30a2f4e8cdf2"

# exact pilot outcome for the crossing ensemble (criterion 10 demands >= 80)
PILOT_CROSSING_COUNT = 100

DETECTOR_CFG = None  # criteria use the parameter-derived detector throughout


def test_criterion_01_momentum_equivalence():
    """Recursive momentum equals the explicit weighted sum, 20 random setups."""
    rng = np.random.Generator(np.random.PCG64(20250819))
    worst = 0.0
    for _ in range(20):
        params = ModelParams(
            d=float(rng.uniform(0.005, 0.02)),
            r=float(rng.uniform(0.0002, 0.02)),
            Lambda=float(rng.uniform(-2.5, -1.5)),
            k=float(rng.uniform(5.0, 15.0)),
            h=float(rng.uniform(0.1, 0.4)),
            b=float(rng.uniform(0.005, 0.1)),
        )
        seed = int(rng.integers(0, 2**32))
        traj = simulate(params, seed)
        returns = np.diff(traj.log_price)
        assert traj.momentum[1] == 0.0
        for t in range(2, params.T + 1):
            direct = momentum_direct(returns[: t - 1], params.r)
            err = abs(traj.momentum[t] - direct)
            worst = max(worst, err)
            assert err <= 1e-12, f"momentum mismatch at t={t}, seed={seed}: {err:.3e}"
    print(f"criterion 01: worst |recursive - direct| = {worst:.3e} (<= 1e-12)")


def test_criterion_02_normal_cdf_accuracy():
    """CDF within 1e-12 of the quadrature oracle on 10,001 points; symmetric."""
    grid = np.linspace(-8.0, 8.0, 10_001)
    ref = normal_cdf_reference(grid)
    ours = np.array([normal_cdf(float(z)) for z in grid])
    max_err = float(np.max(np.abs(ours - ref)))
    assert max_err <= 1e-12, f"max CDF error {max_err:.3e} exceeds 1e-12"
    sym = max(abs(normal_cdf(float(z)) + normal_cdf(float(-z)) - 1.0) for z in grid)
    assert sym <= 1e-15, f"symmetry defect {sym:.3e} exceeds 1e-15"
    print(f"criterion 02: max error {max_err:.3e}, symmetry defect {sym:.3e}")


def test_criterion_03_cubic_sign_structure():
    """Sign pattern of the cubic on 1,000 random root triples."""
    rng = np.random.Generator(np.random.PCG64(3))
    checked = 0
    while checked < 1000:
        a, b, c = np.sort(rng.uniform(-3.0, 3.0, size=3))
        if not (a < b < c):
            continue
        checked += 1
        p = ModelParams(a=float(a), b=float(b), c=float(c))
        assert cubic_increment(p, float(a)) == 0.0
        assert cubic_increment(p, float(b)) == 0.0
        assert cubic_increment(p, float(c)) == 0.0
        for m in rng.uniform(a, b, size=100):
            if a < m < b:
                assert cubic_increment(p, float(m)) > 0.0
        for m in rng.uniform(b, c, size=100):
            if b < m < c:
                assert cubic_increment(p, float(m)) < 0.0
    print("criterion 03: 1000 root triples, sign structure exact")


def test_criterion_04_determinism(tmp_path):
    """Byte-identical CSV across runs; sweep equal serially and in parallel."""
    base = ModelParams()
    paths = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        write_trajectory_csv(simulate(base, 42), path)
        paths.append(path)
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1]
    digest = hashlib.sha256(blobs[0]).hexdigest()
    assert digest == BASELINE_SEED42_CSV_SHA256, f"baseline CSV hash drifted: {digest}"

    spec = SweepSpec(base=ModelParams(T=1000), axis="b", values=(0.01, 0.02), seeds=tuple(range(6)))
    serial = run_sweep(spec, n_jobs=1)
    parallel = run_sweep(spec, n_jobs=2)
    assert serial.cells == parallel.cells
    assert serial.summaries == parallel.summaries
    print(f"criterion 04: CSV sha256 {digest[:16]}..., serial == parallel")


def test_frozen_cli_artifact_bytes(tmp_path):
    """Every CLI artifact of seed 42 and of a small b-sweep keeps its bytes."""
    sim, sweep = tmp_path / "sim", tmp_path / "sweep"
    assert main(["simulate", "--seed", "42", "--out", str(sim)]) == 0
    assert main(["sweep", "--axis", "b", "--values", "0.0001,0.01,0.02",
                 "--seeds", "0..2", "--out", str(sweep)]) == 0
    expected = {
        sim / "trajectory.csv": BASELINE_SEED42_CSV_SHA256,
        sim / "trajectory.svg": BASELINE_SEED42_SVG_SHA256,
        sim / "summary.json": BASELINE_SEED42_JSON_SHA256,
        sweep / "sweep.json": B_SWEEP_3_JSON_SHA256,
        sweep / "sweep.svg": B_SWEEP_3_SVG_SHA256,
    }
    for path, want in expected.items():
        got = hashlib.sha256(path.read_bytes()).hexdigest()
        assert got == want, f"{path.name} hash drifted: {got}"


def test_criterion_05_lattice_and_rng_freeze():
    """Tick lattice exact, no-trade freeze, and fixed RNG consumption."""
    rng = np.random.Generator(np.random.PCG64(55))
    for _ in range(10):
        params = ModelParams(
            T=int(rng.integers(500, 1500)),
            d=float(rng.uniform(0.005, 0.02)),
            log_p0=float(rng.uniform(-0.5, 0.5)),
        )
        traj = simulate(params, int(rng.integers(0, 2**32)))
        j = np.rint((traj.log_price - params.log_p0) / params.d).astype(np.int64)
        assert np.array_equal(params.log_p0 + params.d * j, traj.log_price)
        assert np.all(np.abs(j) <= traj.t)
        frozen = traj.trade == 0
        assert np.all(traj.log_price[1:][frozen[1:]] == traj.log_price[:-1][frozen[1:]])
        assert traj.n_rng_draws == 2 * (params.T - 1)
    print("criterion 05: 10 random trajectories on the lattice, 2(T-1) draws each")


def test_criterion_06_b_sweep_peak_scaling(b_sweep_50):
    """b-sweep medians strictly increasing AND micro-bubble peak < 50%.

    The one-half bound is not fitted to seeds 0..49: the model keeps the
    ratio of medians below it on 99.6% of 50-seed sets drawn from the
    disjoint seeds 50..1049 (see the module docstring).
    """
    medians = compare_medians(b_sweep_50, "peak_log_price")
    vals = [m for _, m in medians]
    print(f"criterion 06: median peak_log_price by b: {medians}")
    assert vals[0] < vals[1] < vals[2], f"medians not strictly increasing: {vals}"
    ratio = vals[0] / vals[2]
    assert vals[0] < 0.5 * vals[2], (
        f"micro-bubble median peak {vals[0]} is {ratio:.1%} of the b=0.02 median "
        f"{vals[2]}; the bound is 50%. Measured medians: {medians}. "
        "See the module docstring: the model drifts by about r*b per period, "
        "and on seeds disjoint from the gate the ratio of medians is about 33%."
    )


def test_criterion_07_r_sweep_goldilocks(r_sweep_50):
    """Interior r should maximize the median peak; deviation reported loudly."""
    medians = compare_medians(r_sweep_50, "peak_log_price")
    vals = [m for _, m in medians]
    print(f"criterion 07: median peak_log_price by r: {medians}")
    if vals[1] >= vals[0] and vals[1] >= vals[2]:
        print("criterion 07: inverted-U holds at the median level")
        return
    warnings.warn(
        "criterion 07 DOCUMENTED DEVIATION: the inverted-U in r does not hold "
        f"for ensemble medians: median peak_log_price is {vals[0]} at "
        f"r=0.0005, {vals[1]} at r=0.001, {vals[2]} at r=0.005 (50 matched seeds); "
        "the interior value is not the maximum. Seeds the gate does not use give "
        "the same U (0.505 / 0.39 / 0.54 on seeds 50..1049), so it is a property "
        "of the model, not of this seed set. Reported per the sweep module's "
        "documented caveat instead of passing silently.",
        stacklevel=1,
    )


def test_criterion_08_lambda_sweep_frequency(lambda_sweep_50):
    """Crash count and trade count both non-decreasing in Lambda, plus anchor."""
    crashes = [m for _, m in compare_medians(lambda_sweep_50, "n_crashes")]
    trades = [m for _, m in compare_medians(lambda_sweep_50, "total_trades")]
    print(f"criterion 08: median n_crashes {crashes}, median total_trades {trades}")
    assert crashes == sorted(crashes), f"n_crashes medians decrease: {crashes}"
    assert trades == sorted(trades), f"total_trades medians decrease: {trades}"
    # closed-form anchor with the independent CDF oracle: momentum pinned at
    # zero would give 4999 * Phi(-2) expected trades; feedback must add more
    phi_m2 = float(normal_cdf_reference(np.linspace(-8.0, -2.0, 601))[-1])
    anchor = 4999 * phi_m2
    assert abs(anchor - 113.7) < 0.1
    baseline_median = trades[1]  # the Lambda = -2 column is the baseline
    assert baseline_median > anchor, (
        f"baseline median total_trades {baseline_median} does not exceed the "
        f"pinned-momentum expectation {anchor:.2f}"
    )


def test_criterion_09_detector_fixtures():
    """No crossing / 10-tick drop / sub-floor drop give 0 / 1 / 0 events."""
    assert detect_crashes(flat_trajectory()) == []
    events = detect_crashes(single_crash_trajectory(drop_ticks=10))
    assert len(events) == 1
    assert events[0].drawdown == 10 * 0.01
    assert detect_crashes(single_crash_trajectory(drop_ticks=2)) == []
    print("criterion 09: fixtures yield 0 / 1 / 0 events, drawdown exact")


def test_criterion_10_baseline_qualitative(baseline_crossing_count, tmp_path):
    """Crossings occur in >= 80% of baseline seeds; baseline SVG structure."""
    assert baseline_crossing_count >= 80, (
        f"only {baseline_crossing_count}/100 baseline seeds cross the threshold"
    )
    assert baseline_crossing_count == PILOT_CROSSING_COUNT, (
        f"crossing count drifted from the frozen pilot value: "
        f"{baseline_crossing_count} != {PILOT_CROSSING_COUNT}"
    )
    out = tmp_path / "base"
    assert main(["baseline", "--seed", "0", "--out", str(out)]) == 0
    ns = {"svg": "http://www.w3.org/2000/svg"}
    root = ET.parse(out / "trajectory.svg").getroot()
    panels = root.findall(".//svg:g[@class='panel']", ns)
    assert [p.get("data-name") for p in panels] == [
        "log_price", "momentum", "intensity", "direction",
    ]
    thresholds = panels[1].findall("svg:line[@class='threshold']", ns)
    assert len(thresholds) == 1
    assert float(thresholds[0].get("data-level")) == ModelParams().b
    print(f"criterion 10: {baseline_crossing_count}/100 seeds cross; SVG panels ordered")
