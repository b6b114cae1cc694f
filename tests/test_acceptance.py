"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with pytest -s); the
asserts carry the same conditions so plain pytest reports them too.
"""

import math
import time

import numpy as np
import pytest

from gathersim.bounds import expected_time_bound, shrink, shrink_partials
from gathersim.cli import main
from gathersim.continuous import (
    ContinuousConfig,
    check_lyapunov_monotone,
    check_separation_band,
    run_continuous,
)
from gathersim.discrete import DiscreteConfig, discrete_step, run_discrete
from gathersim.geometry import convex_hull, corner_angles, min_enclosing_disc
from gathersim.harness import SweepConfig, fit_sweep, run_many, run_sweep
from gathersim.rng import make_rng
from gathersim.state import Constellation, draw_headings, init_constellation

from test_geometry import brute_min_disc


def report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------
# 1. Radius-1 gathering (discrete): n in {20, 40}, 50x50 spread, 20 seeds,
#    >= 95% converged within 1e4 steps, under a minute total.
# ---------------------------------------------------------------------


def test_criterion_1_radius_one_gathering():
    t0 = time.perf_counter()
    runs = [(DiscreteConfig(n=n, spread=50.0, seed=seed, max_steps=10_000), run_discrete)
            for n in (20, 40) for seed in range(20)]
    summaries = run_many(runs)
    rates = {n: sum(s.converged_step is not None for s in summaries if s.n == n) / 20.0
             for n in (20, 40)}
    elapsed = time.perf_counter() - t0
    ok = all(rate >= 0.95 for rate in rates.values()) and elapsed < 60.0
    report("criterion 1 (radius-1 gathering)", ok,
           f"convergence rates {rates}, wall {elapsed:.1f}s")


# ---------------------------------------------------------------------
# 2. Linear convergence trend: sweep n in {10,...,80}, 20 reps, spread 50,
#    step 1; Pearson r of mean convergence step vs n >= 0.9.
# ---------------------------------------------------------------------


def test_criterion_2_linear_trend():
    cfg = SweepConfig(model="discrete", n_values=list(range(10, 81, 10)), reps=20,
                      base_seed=2026, spread=50.0, max_steps=10_000)
    summaries = run_sweep(cfg)
    fit, n_means, excluded = fit_sweep(summaries)
    ok = fit.pearson_r >= 0.9 and excluded == 0
    report("criterion 2 (linear convergence trend)", ok,
           f"pearson_r={fit.pearson_r:.4f}, slope={fit.slope:.1f}, "
           f"means={[(m['n'], round(m['mean'], 1)) for m in n_means]}")


# ---------------------------------------------------------------------
# 3. Continuous convergence within the theoretical ceiling: n in {2, 5, 10},
#    delta 0.1, spread 5, 50 seeds each; every run confines within the bound
#    and the empirical mean sits below 5% of it.
# ---------------------------------------------------------------------


def test_criterion_3_continuous_within_bound():
    delta = 0.1
    n_values = (2, 5, 10)
    runs = [(ContinuousConfig(n=n, delta=delta, spread=5.0, seed=seed, max_intervals=100_000),
             run_continuous)
            for n in n_values for seed in range(50)]
    summaries = run_many(runs)
    ok = True
    steps = {n: [] for n in n_values}
    bounds = {n: [] for n in n_values}
    for (cfg, _), summary in zip(runs, summaries):
        # the run's own start, rebuilt only for its initial diameter
        initial = init_constellation(cfg, make_rng(cfg.seed))
        diff = initial.positions[None] - initial.positions[:, None]
        d_max0 = float(np.sqrt((diff ** 2).sum(-1)).max())
        bound = expected_time_bound(cfg.n, delta, d_max0)
        confined_in_bound = (summary.converged_step is not None
                             and summary.converged_step <= bound)
        ok = ok and confined_in_bound
        steps[cfg.n].append(summary.converged_step if summary.converged_step is not None
                            else math.inf)
        bounds[cfg.n].append(bound)
    details = []
    for n in n_values:
        mean_steps = float(np.mean(steps[n]))
        mean_bound = float(np.mean(bounds[n]))
        ok = ok and mean_steps < 0.05 * mean_bound
        details.append(f"n={n}: mean {mean_steps:.1f} vs bound {mean_bound:.0f} "
                       f"({100 * mean_steps / mean_bound:.3f}%)")
    report("criterion 3 (continuous within bound)", ok, "; ".join(details))


# ---------------------------------------------------------------------
# 4 + 5 share the same 20 seeded continuous runs (n=10, delta=0.1, dt=1e-3).
# ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def band_audit_runs():
    runs = []
    for seed in range(20):
        cfg = ContinuousConfig(n=10, delta=0.1, substep=1e-3, spread=5.0, seed=seed,
                               max_intervals=100_000)
        trace, summary = run_continuous(cfg)
        assert summary.converged_step is not None
        runs.append((cfg, trace))
    return runs


def test_criterion_4_distance_bands(band_audit_runs):
    violations = []
    for cfg, trace in band_audit_runs:
        violations.extend(check_separation_band(trace, cfg.delta, cfg.substep))
    intervals = sum(len(trace.frames) for _, trace in band_audit_runs)
    report("criterion 4 (distance bands)", len(violations) == 0,
           f"{len(violations)} violations over {intervals} recorded intervals")


def test_criterion_5_lyapunov_monotone(band_audit_runs):
    # each violation names the pairs that crossed delta upward, so a failure
    # explains itself
    violations = []
    for cfg, trace in band_audit_runs:
        bad = check_lyapunov_monotone(trace, cfg.n, cfg.substep, cfg.delta)
        violations.extend((f"seed {cfg.seed}", *v) for v in bad)
    steps = sum(len(trace.series) - 1 for _, trace in band_audit_runs)
    detail = f"{len(violations)} increases beyond 2 n^2 dt over {steps} interval pairs"
    if violations:
        detail += f" {violations}"
    report("criterion 5 (lyapunov monotone)", len(violations) == 0, detail)


# ---------------------------------------------------------------------
# 6. Adversarial divergence: injected headings (sin 0.1, cos 0.1) and its
#    negation from distance 1 give distance sqrt(5 - 4 sin 0.1) in one step.
# ---------------------------------------------------------------------


def test_criterion_6_adversarial_divergence():
    cfg = DiscreteConfig(n=2, seed=0)
    state = Constellation(np.array([[0.0, 0.0], [1.0, 0.0]]), np.zeros(2))
    chi = math.atan2(math.cos(0.1), math.sin(0.1))
    new = discrete_step(state, cfg, headings=np.array([chi, chi + math.pi]))
    dist = float(np.hypot(*(new.positions[1] - new.positions[0])))
    target = math.sqrt(5.0 - 4.0 * math.sin(0.1))
    ok = abs(dist - target) < 1e-9 and dist > 1.0
    report("criterion 6 (adversarial divergence)", ok,
           f"one-step distance {dist:.10f} vs closed form {target:.10f}")


# ---------------------------------------------------------------------
# 7. Theory oracle suite: finite differences, angle sums, enclosing disc,
#    hull-vertex movers. Zero violations.
# ---------------------------------------------------------------------


def test_criterion_7_theory_oracles():
    bad = []

    # (a) all three partials vs central finite differences, 1e4 points
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 10_000:
        d = rng.uniform(0.1, 5.0)
        st = rng.uniform(0.01, 5.0)
        theta = rng.uniform(1e-4, math.pi / 2 - 1e-4)
        if math.sqrt(d * d + st * st - 2 * d * st * math.cos(theta)) < 1e-2:
            continue
        dd, dst, dtheta = shrink_partials(d, st, theta)
        h = 1e-6
        fd = (
            (shrink(d + h, st, theta) - shrink(d - h, st, theta)) / (2 * h),
            (shrink(d, st + h, theta) - shrink(d, st - h, theta)) / (2 * h),
            (shrink(d, st, theta + h) - shrink(d, st, theta - h)) / (2 * h),
        )
        for got, ref in zip((dd, dst, dtheta), fd):
            if abs(got - ref) > 1e-6 * max(1.0, abs(got)):
                bad.append(("partial", d, st, theta, got, ref))
        checked += 1

    # (b) corner-angle sums match pi (m - 2) within 1e-9
    for seed in range(200):
        r = np.random.default_rng(seed)
        pts = r.uniform(0, 50, (int(r.integers(3, 60)), 2))
        hull = convex_hull(pts)
        if len(hull.vertices) < 3:
            continue
        angles = corner_angles(hull)
        if abs(angles.sum() - math.pi * (len(angles) - 2)) > 1e-9:
            bad.append(("angle_sum", seed))

    # (c) minimal enclosing disc vs the exhaustive oracle, n <= 12
    for seed in range(40):
        r = np.random.default_rng(5000 + seed)
        pts = r.uniform(-20, 20, (int(r.integers(1, 13)), 2))
        disc = min_enclosing_disc(pts)
        oracle = brute_min_disc(pts)
        if abs(disc.radius - oracle) > 1e-9 * max(1.0, oracle):
            bad.append(("disc", seed, disc.radius, oracle))

    # (d) movers are hull vertices over 1e4 discrete steps
    steps_checked = 0
    run_seed = 0
    while steps_checked < 10_000:
        cfg = DiscreteConfig(n=25, spread=50.0, seed=run_seed, max_steps=1)
        rng_run = make_rng(cfg.seed)
        state = init_constellation(cfg, rng_run)
        for _ in range(500):
            hull_idx = set(convex_hull(state.positions).indices.tolist())
            new = discrete_step(state, cfg, draw_headings(rng_run, cfg.n))
            movers = set(np.nonzero(np.any(new.positions != state.positions,
                                           axis=1))[0].tolist())
            if not movers <= hull_idx:
                bad.append(("hull_movers", run_seed, steps_checked))
            state = new
            steps_checked += 1
        run_seed += 1

    report("criterion 7 (theory oracle suite)", len(bad) == 0,
           f"{len(bad)} violations (partials 1e4 pts, 200 polygons, 40 discs, "
           f"{steps_checked} hull steps)")


# ---------------------------------------------------------------------
# 8. Determinism: identical sim / sweep invocations give byte-identical files.
# ---------------------------------------------------------------------


def test_criterion_8_byte_determinism(tmp_path):
    def run_twice(make_args):
        outs = []
        for tag in ("x", "y"):
            paths = make_args(tag)
            assert main(paths[0]) == 0
            outs.append([p.read_bytes() for p in paths[1]])
        return outs[0] == outs[1]

    def sim_discrete(tag):
        t = tmp_path / f"d{tag}_t.csv"
        s = tmp_path / f"d{tag}_s.csv"
        return (["sim", "--model", "discrete", "--n", "15", "--spread", "50",
                 "--seed", "11", "--trace", str(t), "--summary", str(s)], [t, s])

    def sim_continuous(tag):
        t = tmp_path / f"c{tag}_t.csv"
        s = tmp_path / f"c{tag}_s.csv"
        series = tmp_path / f"c{tag}_t.series.csv"
        return (["sim", "--model", "continuous", "--n", "5", "--spread", "3",
                 "--seed", "7", "--delta", "0.1", "--trace", str(t),
                 "--summary", str(s)], [t, s, series])

    def sweep(tag):
        out = tmp_path / f"sw{tag}.csv"
        fit = tmp_path / f"sw{tag}.fit.json"
        return (["sweep", "--model", "discrete", "--n-list", "5,10", "--reps", "3",
                 "--base-seed", "4", "--out", str(out)], [out, fit])

    results = {"sim discrete": run_twice(sim_discrete),
               "sim continuous": run_twice(sim_continuous),
               "sweep": run_twice(sweep)}
    report("criterion 8 (byte determinism)", all(results.values()), f"{results}")
