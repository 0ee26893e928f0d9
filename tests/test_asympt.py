import math
from dataclasses import replace

import numpy as np
import pytest

from robin_semiclassics import asympt, coeffs
from robin_semiclassics.asympt import RegimeSpec, SweepFit, crossover_demo, fit_sweep, predict
from robin_semiclassics.riesz import BoxDomain, RieszReport

SQ2 = math.sqrt(2.0)
HS = [0.04, 0.02, 0.01, 0.005]


def uniform_regime(kind, b0, d=2, exponent=0.0):
    facets = tuple((b0, b0) for _ in range(d))
    return RegimeSpec(kind, facets, exponent)


def test_regime_validation():
    with pytest.raises(ValueError):
        uniform_regime("large", -1.0, exponent=1.0)
    with pytest.raises(ValueError):
        uniform_regime("large", -1.0, exponent=0.0)
    with pytest.raises(ValueError):
        uniform_regime("small", 1.0, exponent=0.0)
    with pytest.raises(ValueError):
        uniform_regime("banana", 1.0)


def test_predict_fixed_neumann_square():
    box = BoxDomain.uniform((1.0, 1.0), 0.0)
    pred = predict(box, uniform_regime("fixed", 0.0), 0.1)
    assert abs(pred.boundary - 4.0 / (6.0 * math.pi) * 10.0) < 1e-12
    assert abs(pred.weyl - 100.0 / (8.0 * math.pi)) < 1e-12


def test_predict_fixed_b1():
    box = BoxDomain.uniform((1.0, 1.0), 1.0)
    pred = predict(box, uniform_regime("fixed", 1.0), 0.1)
    assert abs(pred.boundary - 4.0 * coeffs.l2(2, 1.0).value * 10.0) < 1e-12


def test_fixed_b0_equals_small_prediction():
    box = BoxDomain.uniform((1.0, SQ2), 0.0)
    for h in HS:
        fixed = predict(box, uniform_regime("fixed", 0.0), h)
        small = predict(box, uniform_regime("small", 1.0, exponent=0.5), h)
        assert abs(fixed.boundary - small.boundary) < 1e-12 * abs(small.boundary)


def test_predict_large_uses_exact_density_below_switch():
    box = BoxDomain.uniform((1.0, 1.0), -1.0)
    h = 0.04  # Theta = h^(-1/4) ~ 2.24
    regime = uniform_regime("large", -1.0, exponent=0.25)
    pred = predict(box, regime, h)
    exact = 4.0 * coeffs.l2(2, -(h**-0.25)).value / h
    assert abs(pred.boundary - exact) < 1e-10 * exact
    # ... and the pure leading form differs by the O(Theta^(d-1)) gap
    leading = 4.0 * coeffs.l2_large_negative_leading(2, -(h**-0.25)).value / h
    assert pred.boundary > leading


def test_predict_large_exact_density_at_theta_100():
    box = BoxDomain.uniform((1.0, 1.0), -1.0)
    regime = uniform_regime("large", -1.0, exponent=0.5)
    h = 1e-4  # Theta = 100: still the exact l2, not its leading form
    pred = predict(box, regime, h)
    exact = 4.0 * coeffs.l2(2, -100.0).value / h
    assert abs(pred.boundary - exact) < 1e-10 * exact
    leading = 4.0 * coeffs.l2_large_negative_leading(2, -100.0).value / h
    assert pred.boundary > leading


def test_predict_large_nonnegative_densities():
    box = BoxDomain((1.0, 1.0), ((1.0, 1.0), (0.0, 0.0)))
    regime = RegimeSpec("large", ((1.0, 1.0), (0.0, 0.0)), 0.5)
    assert not regime.has_negative_part
    pred = predict(box, regime, 0.01)
    quarter = 0.25 * coeffs.l1(1).value
    # facets with b0 > 0 contribute -quarter, facets with b0 = 0 contribute +quarter
    expected = (2.0 * 1.0 * (-quarter) + 2.0 * 1.0 * quarter) / 0.01
    assert abs(pred.boundary - expected) < 1e-12


def test_predict_linear_in_facet_areas():
    h = 0.05
    regime2 = uniform_regime("fixed", 1.0)
    small = BoxDomain.uniform((1.0, 1.0), 1.0)
    wide = BoxDomain.uniform((2.0, 1.0), 1.0)
    rho = coeffs.l2(2, 1.0).value
    got = predict(wide, regime2, h).boundary - predict(small, regime2, h).boundary
    assert abs(got - 2.0 * 1.0 * rho / h) < 1e-12 * abs(rho / h)


def test_predict_rejects_a_regime_of_another_dimension():
    box = BoxDomain.uniform((1.0, 1.0), 1.0)
    with pytest.raises(ValueError, match="regime carries 3 facet pairs for a 2-d box"):
        predict(box, uniform_regime("fixed", 1.0, d=3), 0.05)


def test_remainder_definition():
    from robin_semiclassics import riesz

    box = BoxDomain.uniform((1.0, SQ2), 1.0)
    regime = uniform_regime("fixed", 1.0)
    h = 0.05
    r = asympt.run_sweep(box, regime, [h])[0].remainder
    rep = riesz.riesz_mean(box, h)
    pred = predict(box, regime, h)
    assert abs(r - (rep.trace - pred.weyl - pred.boundary)) < 1e-12


def synthetic_reports(exponent, d=2, const=1.0):
    reports = []
    for h in HS:
        rem = const * h**exponent
        reports.append(RieszReport(h=h, trace=0.0, weyl_term=0.0, boundary_term=0.0,
                                   remainder=rem, eig_count=1, kroger_ok=True))
    return reports


def test_fit_sweep_synthetic_power_law():
    box = BoxDomain.uniform((1.0, 1.0), 0.0)
    regime = uniform_regime("fixed", 0.0)
    fit = fit_sweep(box, regime, synthetic_reports(-2.0 + 1.5))
    assert abs(fit.fitted_exponent - 0.5) < 1e-8
    assert fit.fit_residual < 1e-10
    assert fit.decay_verified
    assert not fit.sign_flips


def test_fit_sweep_degenerate_no_decay():
    box = BoxDomain.uniform((1.0, 1.0), 0.0)
    regime = uniform_regime("fixed", 0.0)
    fit = fit_sweep(box, regime, synthetic_reports(-1.0))
    assert abs(fit.fitted_exponent) < 1e-8
    assert not fit.decay_verified


def test_fit_sweep_sign_flip_flag():
    box = BoxDomain.uniform((1.0, 1.0), 0.0)
    regime = uniform_regime("fixed", 0.0)
    reports = synthetic_reports(1.5 - 2.0)
    reports[2] = replace(reports[2], remainder=-reports[2].remainder)
    fit = fit_sweep(box, regime, reports)
    assert fit.sign_flips
    assert isinstance(fit, SweepFit)


def test_fit_sweep_requires_four_points():
    box = BoxDomain.uniform((1.0, 1.0), 0.0)
    regime = uniform_regime("fixed", 0.0)
    with pytest.raises(ValueError):
        fit_sweep(box, regime, synthetic_reports(-0.5)[:3])


def test_fit_sweep_requires_distinct_h():
    box = BoxDomain.uniform((1.0, 1.0), 0.0)
    regime = uniform_regime("fixed", 0.0)
    reports = synthetic_reports(-0.5)
    reports[1] = replace(reports[1], h=reports[0].h)
    with pytest.raises(ValueError, match="sweep h values must be distinct"):
        fit_sweep(box, regime, reports)


def test_normalized_remainder_large_regime():
    regime = uniform_regime("large", -1.0, exponent=0.25)
    assert regime.has_negative_part
    rep = RieszReport(h=0.01, trace=0.0, weyl_term=0.0, boundary_term=0.0,
                      remainder=2.0, eig_count=1, kroger_ok=True)
    theta = 0.01**-0.25
    assert abs(asympt.normalized_remainder(regime, rep, 2) - 2.0 * 0.01 * theta**-3) < 1e-15


def test_run_sweep_deterministic_and_ordered():
    box = BoxDomain.uniform((1.0, SQ2), 1.0)
    regime = uniform_regime("fixed", 1.0)
    first = asympt.run_sweep(box, regime, [0.1, 0.2, 0.05, 0.025])
    second = asympt.run_sweep(box, regime, [0.025, 0.05, 0.1, 0.2])
    assert [r.h for r in first] == [0.2, 0.1, 0.05, 0.025]
    assert first == second


@pytest.mark.parametrize("regime", [uniform_regime("fixed", 1.0), uniform_regime("small", 1.0, exponent=0.5),
                                    uniform_regime("large", -1.0, exponent=0.25)],
                         ids=["fixed", "small", "large"])
@pytest.mark.parametrize("bad", [math.nan, 0.0, -0.01])
def test_run_sweep_checks_every_h_before_the_sort(regime, bad):
    # A NaN once reached the small and large regimes' realized facets first,
    # which named the facet coefficients instead of h.
    box = BoxDomain.uniform((1.0, SQ2), regime.b0_facets[0][0])
    with pytest.raises(ValueError, match=f"need h > 0, got {bad}"):
        asympt.run_sweep(box, regime, [0.04, bad, 0.02, 0.01])


def test_sweep_computes_each_density_once(monkeypatch):
    calls = []
    l2 = coeffs.l2

    def counted(d, b):
        calls.append(b)
        return l2(d, b)

    monkeypatch.setattr(coeffs, "l2", counted)
    box = BoxDomain.uniform((1.0, SQ2), 1.0)
    regime = uniform_regime("fixed", 1.0)
    first = asympt.run_sweep(box, regime, HS)
    assert calls == [1.0]
    # No cache outlives a sweep: the second one pays for its own quadrature.
    assert asympt.run_sweep(box, regime, HS) == first
    assert calls == [1.0, 1.0]
    calls.clear()
    mixed = RegimeSpec("fixed", ((1.0, -1.0), (2.0, 1.0)))
    asympt.run_sweep(BoxDomain((1.0, SQ2), mixed.b0_facets), mixed, HS)
    assert sorted(calls) == [-1.0, 1.0, 2.0]
    # The large regime realizes a new b = h^(-1/4) b0 at every h.
    calls.clear()
    large = uniform_regime("large", -1.0, exponent=0.25)
    asympt.run_sweep(BoxDomain.uniform((1.0, SQ2), -1.0), large, HS)
    assert sorted(calls) == sorted(-large.scale(h) for h in HS)


def test_neumann_box_remainder_averages_to_corner_term():
    # Each right angle adds 1/16 to the Neumann heat trace (Kac 1966; van den
    # Berg & Srisatkunarajah 1988), so the remainder of the 1 x sqrt(2) box
    # oscillates about 1/4. Averaged over 16 h near 1e-5, the mean checks the
    # traces there to about 1e-4 absolute.
    box = BoxDomain.uniform((1.0, SQ2), 0.0)
    reports = asympt.run_sweep(box, uniform_regime("fixed", 0.0), np.geomspace(0.74e-5, 1.35e-5, 16))
    remainders = np.array([r.remainder for r in reports])
    standard_error = remainders.std(ddof=1) / math.sqrt(remainders.size)
    assert abs(remainders.mean() - 0.25) <= 3.0 * standard_error, (remainders.mean(), standard_error)


def test_crossover_ratio_scaling():
    box = BoxDomain.uniform((1.0, 1.0), -1.0)
    # gamma < 1/(d+1): boundary/weyl ratio shrinks as h decreases
    r1 = crossover_demo(box, 0.2, 0.01)
    r2 = crossover_demo(box, 0.2, 0.005)
    assert r2.ratio < r1.ratio
    # gamma > 1/(d+1): ratio grows
    r1 = crossover_demo(box, 0.5, 0.01)
    r2 = crossover_demo(box, 0.5, 0.005)
    assert r2.ratio > r1.ratio
    # at gamma = 1/(d+1) the ratio is h-independent up to lower-order terms
    r1 = crossover_demo(box, 1.0 / 3.0, 0.01)
    r2 = crossover_demo(box, 1.0 / 3.0, 0.005)
    assert abs(r2.ratio / r1.ratio - 1.0) < 0.05


def test_crossover_requires_negative_part():
    box = BoxDomain.uniform((1.0, 1.0), 1.0)
    with pytest.raises(ValueError):
        crossover_demo(box, 0.25, 0.01)


def test_neumann_sweep_remainder_decay():
    # |R_h| h strictly decreasing on the default sweep; fitted exponent
    # frozen as a regression baseline from the first full run.
    box = BoxDomain.uniform((1.0, 1.0), 0.0)
    regime = uniform_regime("fixed", 0.0)
    reports = asympt.run_sweep(box, regime, HS)
    norm = [abs(r.remainder) * r.h for r in reports]
    assert all(b < a for a, b in zip(norm[:-1], norm[1:]))
    fit = fit_sweep(box, regime, reports)
    assert fit.fitted_exponent > 0.3
    assert abs(fit.fitted_exponent - 0.9232) < 0.02


def test_fixed_b1_sweep_remainder_decay():
    box = BoxDomain.uniform((1.0, SQ2), 1.0)
    regime = uniform_regime("fixed", 1.0)
    reports = asympt.run_sweep(box, regime, HS)
    norm = [abs(r.remainder) * r.h for r in reports]
    assert all(b < a for a, b in zip(norm[:-1], norm[1:]))


def test_small_regime_rem2_envelope():
    # |R_h| h^(d-1) <= C min over mu in (0, 1/4] of (mu + theta (1+|ln theta|)/mu)
    # with theta = sqrt(h); checked as an upper envelope with C = 1.
    box = BoxDomain.uniform((1.0, SQ2), 1.0)
    regime = uniform_regime("small", 1.0, exponent=0.5)
    reports = asympt.run_sweep(box, regime, HS)
    for rep in reports:
        theta = math.sqrt(rep.h)
        blob = theta * (1.0 + abs(math.log(theta)))
        envelope = min(mu + blob / mu for mu in (0.25, 0.2, 0.15, 0.1, 0.05, 0.01))
        assert abs(rep.remainder) * rep.h <= envelope
