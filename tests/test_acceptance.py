"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Criterion 6 (small regime, theta(h) = h^(1/2)) checks the limit
1/(6 pi) = l1(1)/4 of the boundary-coefficient estimate within 2% at
h = 2e-5, not at h = 0.005. The theorem gives only an o(h^(1-d))
remainder, and the estimate tracks l2(2, sqrt(h)), whose slope at b = 0
is -1/(2 pi) (certified by test_coeffs.py::test_derivative_continuous_across_zero).
The relative deficit is therefore about 3 sqrt(h): ~21% at h = 0.005, and
2% needs h <= ~4.4e-5. At h = 0.005 the estimate is checked against what
holds there, l2(2, sqrt(0.005)), within 2%.
"""

import math
import time

import numpy as np
import pytest

from conftest import neumann_count
from robin_semiclassics import asympt, cli, coeffs, halfline
from robin_semiclassics.asympt import RegimeSpec, fit_sweep, predict, run_sweep
from robin_semiclassics.riesz import BoxDomain, riesz_mean
from robin_semiclassics.spectra1d import RobinInterval, enumerate_eigenvalues, fd_oracle

SQ2 = math.sqrt(2.0)
H_SWEEP = (0.04, 0.02, 0.01, 0.005)
# The small regime's 2% limit holds only below h ~ 4.4e-5 (criterion 6).
H_SWEEP_SMALL = H_SWEEP + (2e-4, 4e-5, 2e-5)
QUARTER_L1 = 1.0 / (6.0 * math.pi)  # l1(1)/4
# Large-regime points past H_SWEEP, where band sums keep each point fast.
H_LARGE_EXTRA = (1e-4, 1e-5)


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def boundary_estimate(rep, box):
    return (rep.trace - rep.weyl_term) / (box.surface_area / rep.h)


@pytest.fixture(scope="module")
def box():
    return BoxDomain.uniform((1.0, SQ2), 1.0)


def timed_sweep(box, regime, hs):
    """(reports, seconds): the sweep's own time counts toward each criterion's limit."""
    start = time.perf_counter()
    reports = run_sweep(box, regime, hs)
    return reports, time.perf_counter() - start


@pytest.fixture(scope="module")
def sweep_fixed(box):
    regime = RegimeSpec("fixed")
    return (regime, *timed_sweep(box, regime, H_SWEEP))


@pytest.fixture(scope="module")
def sweep_small(box):
    regime = RegimeSpec("small", exponent=0.5)
    return (regime, *timed_sweep(box, regime, H_SWEEP_SMALL))


@pytest.fixture(scope="module")
def sweep_large():
    box_neg = BoxDomain.uniform((1.0, SQ2), -1.0)
    regime = RegimeSpec("large", exponent=0.25)
    return (box_neg, regime, *timed_sweep(box_neg, regime, H_SWEEP))


def test_criterion_01_coefficient_identities():
    start = time.perf_counter()
    worst_id = max(abs(coeffs.c_d(d).value * math.pi / 4.0 - coeffs.l1(d - 1).value / 4.0)
                   for d in (2, 3, 4))
    zero_err = abs(coeffs.l2(2, 0.0).value - QUARTER_L1)
    limit_err = abs(coeffs.l2(2, 1e6).value + QUARTER_L1)
    elapsed = time.perf_counter() - start
    ok = worst_id <= 1e-12 and zero_err <= 1e-12 and limit_err <= 1e-4 and elapsed < 1.0
    assert report(1, ok, f"identity={worst_id:.2e}, l2(2,0) err={zero_err:.2e}, "
                         f"large-b err={limit_err:.2e}, {elapsed:.2f}s")


def test_criterion_02_lemma_lz_crosscheck():
    start = time.perf_counter()
    worst = 0.0
    c2 = coeffs.c_d(2).value
    for b in (-2.0, -0.5, 0.5, 2.0):
        val = halfline.i_b_integral(2, b)
        if b < 0.0:
            val += math.pi * (b * b + 1.0) ** 1.5
        worst = max(worst, abs(c2 * val - coeffs.l2(2, b).value))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 30.0
    assert report(2, ok, f"worst gap={worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_model_operator_identities():
    start = time.perf_counter()
    bs = (-3.0, -1.0, -0.4, 0.0, 0.5, 1.0, 2.0)
    bc_res = max(abs(halfline.psi_derivative(b, 0.0) - b * halfline.psi(b, 0.0)) for b in bs)
    eta = 1e-3
    ode_res = max(
        abs((halfline.psi(b, t - eta) - 2 * halfline.psi(b, t) + halfline.psi(b, t + eta)) / eta**2
            + halfline.psi(b, t))
        for b in bs for t in (0.5, 1.5, 3.0)
    )
    b_grid = np.linspace(-4.0, 4.0, 20)
    t_grid = np.linspace(0.0, 6.0, 20)
    ident = max(
        abs(halfline.psi(b, t) ** 2 - 0.5
            - ((1 - b * b) * math.cos(2 * t) + 2 * b * math.sin(2 * t)) / (2 * (1 + b * b)))
        for b in b_grid for t in t_grid
    )
    t_nodes = np.linspace(0.0, 4.0, 17)
    dt = t_nodes[1] - t_nodes[0]
    l2_err = 0.0
    for b in (-1.0, 0.0, 2.0):
        sq = [(halfline.reconstruct(b, float(t)) - math.exp(-t)) ** 2
              for t in t_nodes]
        l2_err = max(l2_err, math.sqrt(math.fsum(sq) * dt))
    elapsed = time.perf_counter() - start
    ok = (bc_res <= 1e-10 and ode_res <= eta**2 and ident <= 1e-14
          and l2_err <= 1e-4 and elapsed < 60.0)
    assert report(3, ok, f"bc={bc_res:.1e}, ode={ode_res:.1e}, eigenf={ident:.1e}, "
                         f"recon L2={l2_err:.1e}, {elapsed:.1f}s")


ORACLE_CASES = [
    (1.0, 0.0, 0.0), (1.0, 1.0, 1.0), (1.0, -1.0, -1.0), (1.0, -3.0, -3.0),
    (1.0, 2.5, 0.0), (1.0, 0.0, -1.0), (1.0, 1.0, -1.0), (1.0, -2.0, 3.0),
    (SQ2, 5.0, 5.0), (0.75, -0.7, -2.3), (1.3, 0.3, 0.9), (2.0, -1.0, 0.0),
]


def test_criterion_04_spectral_oracle_equivalence():
    start = time.perf_counter()
    worst_rel = 0.0
    worst_drift = 0
    for length, cl, cr in ORACLE_CASES:
        iv = RobinInterval(length, cl, cr)
        coarse = fd_oracle(iv, 6000, 20)
        fine = fd_oracle(iv, 12000, 20)
        oracle = [(4.0 * f - c) / 3.0 for c, f in zip(coarse, fine)]
        lam_max = oracle[-1] + 0.5 * (oracle[-1] - oracle[-2]) + 1.0
        sp = enumerate_eigenvalues(iv, lam_max)
        assert len(sp.eigenvalues) >= 20
        for got, want in zip(sp.eigenvalues[:20], oracle):
            worst_rel = max(worst_rel, abs(got - want) / max(1.0, abs(want)))
        worst_drift = max(worst_drift,
                          abs(len(sp.eigenvalues) - neumann_count(length, lam_max)))
    elapsed = time.perf_counter() - start
    ok = worst_rel <= 1e-6 and worst_drift <= 2 and elapsed < 120.0
    assert report(4, ok, f"12 cases, worst rel={worst_rel:.2e}, "
                         f"count drift={worst_drift}, {elapsed:.1f}s")


def test_criterion_05_fixed_regime_two_term(box, sweep_fixed):
    start = time.perf_counter()
    _, reports, sweep_seconds = sweep_fixed
    target = coeffs.l2(2, 1.0).value
    errs = [abs(boundary_estimate(rep, box) - target) for rep in reports]
    tol = 2e-3 * QUARTER_L1
    decreasing = all(b < a for a, b in zip(errs[:-1], errs[1:]))
    elapsed = sweep_seconds + time.perf_counter() - start
    ok = decreasing and errs[-1] <= tol and elapsed < 300.0
    assert report(5, ok, f"errors {['%.2e' % e for e in errs]} decreasing={decreasing}, "
                         f"final tol={tol:.2e}, {elapsed:.1f}s")


def test_criterion_06_small_regime_as_stated(box, sweep_small):
    # Stated: b = h^(1/2) * 1, estimate -> +1/(6 pi) with relative error <= 2%
    # and fitted exponent > 0.3. The estimate tracks l2(2, sqrt(h)) =
    # 1/(6 pi) - sqrt(h)/(2 pi) + O(h), a relative deficit of ~3 sqrt(h), so
    # the 2% clause is checked at h = 2e-5 (~1.3%); at h = 0.005 (~19% below
    # the limit) the estimate must instead match l2(2, sqrt(0.005)) within 2%.
    # The slope -1/(2 pi) is certified by
    # test_coeffs.py::test_derivative_continuous_across_zero.
    start = time.perf_counter()
    regime, reports, sweep_seconds = sweep_small
    rep_final = next(rep for rep in reports if rep.h == 2e-5)
    est_final = boundary_estimate(rep_final, box)
    rel_err = abs(est_final - QUARTER_L1) / QUARTER_L1
    rep_mid = next(rep for rep in reports if rep.h == 0.005)
    density_mid = coeffs.l2(2, math.sqrt(rep_mid.h)).value
    est_mid = boundary_estimate(rep_mid, box)
    mid_gap = abs(est_mid - density_mid) / density_mid
    fit = fit_sweep(box, regime, reports)
    elapsed = sweep_seconds + time.perf_counter() - start
    ok = (rel_err <= 0.02 and mid_gap <= 0.02 and fit.fitted_exponent > 0.3
          and elapsed < 300.0)
    report(6, ok, f"est(h=2e-5)={est_final:.5f} vs 1/(6pi)={QUARTER_L1:.5f} "
                  f"rel err={rel_err:.2%} (required <= 2%), "
                  f"est(h=0.005)={est_mid:.5f} vs l2(2,sqrt h)={density_mid:.5f} "
                  f"gap={mid_gap:.2%} (required <= 2%), "
                  f"alpha={fit.fitted_exponent:.3f}, {elapsed:.1f}s")
    assert ok, (
        f"criterion 6: at h = 2e-5 the estimate {est_final:.5f} is "
        f"{rel_err:.2%} from 1/(6 pi) (limit 2%); at h = 0.005 it is {mid_gap:.2%} "
        f"from l2(2, sqrt(h)) = {density_mid:.5f} (limit 2%); fitted exponent "
        f"{fit.fitted_exponent:.3f} (must exceed 0.3). The 2% clause sits at "
        f"h = 2e-5 because the first-order deficit ~3 sqrt(h) is ~21% at h = 0.005."
    )


def test_criterion_07_large_regime(sweep_large):
    start = time.perf_counter()
    box_neg, regime, reports, sweep_seconds = sweep_large
    gamma = regime.exponent
    # Extra clause: the decrease goes on at h = 1e-4 and 1e-5 (4.5e-5 and 2.6e-6).
    reports = list(reports) + run_sweep(box_neg, regime, H_LARGE_EXTRA)
    norms = [asympt.normalized_remainder(box_neg, regime, rep) for rep in reports]
    decreasing = all(b < a for a, b in zip(norms[:-1], norms[1:]))
    ratios = [predict(box_neg, regime, h).ratio for h in H_SWEEP]
    target = 2.0 ** -(1.0 - 3.0 * gamma)
    halving_dev = max(abs((ratios[i + 1] / ratios[i]) / target - 1.0)
                      for i in range(len(ratios) - 1))
    elapsed = sweep_seconds + time.perf_counter() - start
    ok = decreasing and halving_dev <= 0.10 and elapsed < 600.0
    assert report(7, ok, f"|R|h Theta^-3 = {['%.3g' % n for n in norms]} "
                         f"decreasing={decreasing}, ratio halving dev={halving_dev:.1%}, "
                         f"{elapsed:.1f}s")


def test_criterion_08_kroger_everywhere(sweep_fixed, sweep_small, sweep_large):
    _, fixed_reports, _ = sweep_fixed
    _, small_reports, _ = sweep_small
    _, _, large_reports, _ = sweep_large
    all_reports = list(fixed_reports) + list(small_reports) + list(large_reports)
    violations = [rep.h for rep in all_reports if not rep.kroger_ok]
    ok = not violations
    assert report(8, ok, f"{len(all_reports)} reports, violations={violations}")


def test_criterion_09_monotonicity_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(20120824)
    failures = []
    for case in range(20):
        d = 3 if case >= 18 else 2
        sides = tuple(float(s) for s in rng.uniform(0.8, 1.8, size=d))
        facets = [[float(b) for b in rng.uniform(-2.0, 2.0, size=2)] for _ in range(d)]
        h = float(rng.uniform(0.05, min(sides) / 4.0))
        box = BoxDomain(sides, tuple(tuple(f) for f in facets))
        base = riesz_mean(box, h).trace
        axis = int(rng.integers(0, d))
        side_idx = int(rng.integers(0, 2))
        raised = [list(f) for f in facets]
        raised[axis][side_idx] += float(rng.uniform(0.1, 1.5))
        box_up = BoxDomain(sides, tuple(tuple(f) for f in raised))
        up = riesz_mean(box_up, h).trace
        if up > base + 1e-12 * max(1.0, base):
            failures.append((case, base, up))
    grid = np.linspace(-5.0, 5.0, 201)
    vals = [coeffs.l2(2, float(b)).value for b in grid]
    monotone = all(b <= a + 1e-12 for a, b in zip(vals[:-1], vals[1:]))
    elapsed = time.perf_counter() - start
    ok = not failures and monotone and elapsed < 120.0
    assert report(9, ok, f"20 trace cases, failures={failures}, "
                         f"l2 grid monotone={monotone}, {elapsed:.1f}s")


def test_criterion_10_determinism(tmp_path):
    args = ["sweep", "--regime", "fixed", "--b0", "1",
            "--sides", "1,1.4142135623730951",
            "--h", "0.04,0.02,0.01,0.005"]
    paths = [tmp_path / "run1.csv", tmp_path / "run2.csv"]
    for p in paths:
        assert cli.main(args + ["--output", str(p)]) == 0
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    assert report(10, identical, f"{paths[0].stat().st_size} bytes, byte-identical={identical}")
