"""Acceptance gate: one test per shipping criterion, numbered 01-14.

Run with -v to get one pass/fail line per criterion.  Ensemble criteria
(06-08, 10) use the session-scoped 50-seed sweeps from conftest, so the whole
gate stays well under the time budget.

Six criteria need context:

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

* 11 reads the abstract's "simultaneous surges in liquidity and price" as
  the trade rate over each event's run-up [t_cross, t_peak] against its
  path's rate.  The claim itself gives the bounds: the median surge is
  above 1, and the surge is above 1 in more than half of the events.  On
  seeds the gate does not use the surge is a median 1.71x, above 1 in
  77.5% of 986 events (seeds 5000..5199), and 1.88x, 79.7% of 479 events
  (seeds 7000..7099).

* 12 checks the degenerate limit k = h = 5e-324, where momentum no longer
  feeds back and a path's trade total is Binomial(T - 1, Phi(Lambda)).
  The bounds come from the seeds 20000..23999, which the gate does not
  use: over 5,000 random 200-seed subsets of them the mean's |z| has a
  99.9th percentile of 3.39 (largest 3.55), and the variance ratio lies
  between 0.71 and 1.43 (0.1th and 99.9th percentiles 0.77 and 1.35).
  Seeds 9000..9199 give z = 1.07 and a ratio of 1.049.

* 13 reads the abstract's "followed by dramatic crashes" as each event's
  fall to half its drawdown against its run-up, both as log-price per
  period (the test's docstring defines them).  The claim itself gives the
  bounds: the median ratio is above 1, and more than half of the events
  are above 1.  Over 5,000 random 100-seed subsets of the seeds
  40000..43999, which the gate does not use, the median ratio was at
  least 1.41 (0.1th percentile 1.44) and the share above 1 at least 68.3%
  (0.1th percentile 69.3%).

* 14 reads the abstract's "endogenizes market frenzy by linking trading
  frequency to the accumulated momentum" as self-excitation: trades
  cluster in time beyond a null that trades at a fixed rate (the test's
  docstring defines both).  The claim itself gives the bounds: the median
  Fano factor is above 1 and above the null's, and the median lag-10
  autocorrelation is above the null's.  Over 5,000 random 100-seed subsets
  of the seeds 65000..65999, which the gate does not use, the model's
  median Fano factor was at least 9.16 (0.1th percentile 9.62) against a
  null median of at most 1.01, and the model's median autocorrelation was
  at least 0.106 above the null's (0.1th percentile 0.117).  The null
  there took its Lambda from all 1,000 seeds.
"""

import hashlib
import json
import math
import warnings
import xml.etree.ElementTree as ET

import numpy as np

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
from make_golden import GOLDEN
from oracles import momentum_direct, normal_cdf_reference
from synthetic import flat_trajectory, single_crash_trajectory

# sha256 of the baseline seed-42 trajectory CSV, frozen from the first
# verified run; tests/golden.json records it too, beside every other CLI
# artifact's
BASELINE_SEED42_CSV_SHA256 = "17c5f1757c6f61337cd6e1139cab5f0218ab681b311ef3da63cb2d744b9539d5"

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


def test_frozen_cli_artifact_bytes():
    """The golden corpus pins every CLI artifact of seed 42 and of a small
    b-sweep, which test_golden.py re-runs, and its seed-42 CSV is the one
    criterion 04 froze: a rewritten corpus cannot move that hash."""
    runs = {tuple(run["argv"]): run for run in json.loads(GOLDEN.read_text(encoding="utf-8")) if "argv" in run}
    sim = runs["simulate", "--seed", "42"]
    sweep = runs["sweep", "--axis", "b", "--values", "0.0001,0.01,0.02", "--seeds", "0..2"]
    assert sim["exit"] == sweep["exit"] == 0
    assert sorted(sim["files"]) == ["summary.json", "trajectory.csv", "trajectory.svg"]
    assert sorted(sweep["files"]) == ["sweep.json", "sweep.svg"]
    assert sim["files"]["trajectory.csv"] == BASELINE_SEED42_CSV_SHA256


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
        rebuilt = params.log_p0 + params.d * j
        assert rebuilt.dtype == traj.log_price.dtype and rebuilt.tobytes() == traj.log_price.tobytes()
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


def test_criterion_11_trades_surge_with_the_price():
    """The trade rate over each event's run-up beats its path's rate."""
    params = ModelParams()
    surges = []
    for seed in range(6000, 6100):
        traj = simulate(params, seed)
        rate = traj.trade.sum() / (params.T - 1)  # one trade draw per period t >= 2
        for event in detect_crashes(traj, DETECTOR_CFG):
            surges.append(traj.trade[event.t_cross:event.t_peak + 1].mean() / rate)
    median, above = float(np.median(surges)), float(np.mean(np.greater(surges, 1.0)))
    print(f"criterion 11: median surge {median:.2f}x, above 1 in {above:.1%} of {len(surges)} events")
    assert median > 1.0, f"median run-up trade rate is {median:.3f}x the path's rate"
    assert above > 0.5, f"the run-up trade rate beats the path's in only {above:.1%} of events"


def test_criterion_12_vanishing_feedback_trades_binomially():
    """With k = h = 5e-324, trade totals are Binomial(T - 1, Phi(-2))."""
    params = ModelParams(k=5e-324, h=5e-324)
    totals = np.array([simulate(params, seed).trade.sum() for seed in range(11000, 11200)], float)
    p = 0.5 * math.erfc(-params.Lambda / math.sqrt(2.0))
    mean, var = (params.T - 1) * p, (params.T - 1) * p * (1.0 - p)
    z = (totals.mean() - mean) / math.sqrt(var / len(totals))
    ratio = totals.var(ddof=1) / var
    print(f"criterion 12: mean {totals.mean():.2f} against {mean:.2f} (z = {z:.2f}), variance ratio {ratio:.3f}")
    assert abs(z) < 4.0, f"mean trade total {totals.mean():.2f} is {z:.2f} sd from {mean:.2f}"
    assert 2 / 3 < ratio < 3 / 2, f"trade total variance is {ratio:.3f}x the binomial's"


def test_criterion_13_crashes_fall_faster_than_the_run_up_rose():
    """Each default-detector event whose price rose from t_cross to t_peak
    falls faster than it rose.

    rise = (lp[t_peak] - lp[t_cross]) / (t_peak - t_cross);
    fall = (drawdown / 2) / (t_half - t_peak), where t_half is the first
    period after the peak at or below peak - drawdown / 2;
    ratio = fall / rise.
    """
    params = ModelParams()
    ratios = []
    for seed in range(30000, 30100):
        traj = simulate(params, seed)
        lp = traj.log_price
        for event in detect_crashes(traj, DETECTOR_CFG):
            peak = lp[event.t_peak]
            if not peak > lp[event.t_cross]:
                continue  # no rise to compare with
            rise = (peak - lp[event.t_cross]) / (event.t_peak - event.t_cross)
            t_half = event.t_peak + 1 + int(np.argmax(lp[event.t_peak + 1:] <= peak - event.drawdown / 2))
            ratios.append(event.drawdown / 2 / (t_half - event.t_peak) / rise)
    median, above = float(np.median(ratios)), float(np.mean(np.greater(ratios, 1.0)))
    print(f"criterion 13: median fall/rise {median:.3f}, above 1 in {above:.1%} of {len(ratios)} events")
    assert median > 1.0, f"the median crash falls {median:.3f}x as fast as its run-up rose"
    assert above > 0.5, f"the crash outpaces the run-up in only {above:.1%} of events"


def test_criterion_14_trades_cluster_beyond_a_fixed_rate():
    """Trades cluster in time: their window counts are overdispersed and
    the trade series stays correlated at lag 10, beyond a null whose trade
    rate does not move with momentum.

    Per seed, trade[2:] (one trade draw per period t >= 2) gives the Fano
    factor, the variance over the mean (ddof 0) of its trade counts in 49
    windows of W = 100 periods, and its lag-10 autocorrelation.  The null
    runs the same seeds with k = 1e-12 and Lambda set so that
    Phi(Lambda) is the model's median trade rate, found by bisection on
    normal_cdf.  Each statistic is compared as its median over the seeds.
    This tests clustering, which a Hawkes process implies, and not that
    the trades are a Hawkes process.
    """
    W, lag, seeds = 100, 10, range(64000, 64100)

    def clustering(params):
        out = []
        for seed in seeds:
            x = simulate(params, seed).trade[2:].astype(float)
            counts = x[: len(x) // W * W].reshape(-1, W).sum(axis=1)
            c = x - x.mean()
            out.append((counts.var() / counts.mean(), c[:-lag] @ c[lag:] / (c @ c), x.mean()))
        return np.median(out, axis=0)

    fano, acf, rate = clustering(ModelParams())
    lo, hi = -40.0, 40.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if normal_cdf(mid) < rate else (lo, mid)
    null_fano, null_acf, _ = clustering(ModelParams(k=1e-12, Lambda=hi))
    print(f"criterion 14: median Fano {fano:.2f} against the null's {null_fano:.2f}, "
          f"median lag-{lag} autocorrelation {acf:.3f} against {null_acf:.3f}")
    assert fano > 1.0, f"median Fano factor {fano:.3f}: trade counts are not overdispersed"
    assert fano > null_fano, f"median Fano factor {fano:.3f} is not above the null's {null_fano:.3f}"
    assert acf > null_acf, f"median lag-{lag} autocorrelation {acf:.4f} is not above the null's {null_acf:.4f}"
