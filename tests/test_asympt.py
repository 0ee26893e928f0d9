import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from robin_semiclassics import asympt, coeffs, riesz
from robin_semiclassics.asympt import (
    RegimeSpec,
    SweepFit,
    SweepPoint,
    fit_sweep,
    predict,
)
from robin_semiclassics.riesz import BoxDomain

SQ2 = math.sqrt(2.0)
HS = [0.04, 0.02, 0.01, 0.005]
THREE_REGIMES = pytest.mark.parametrize(
    "regime,b0", [(RegimeSpec("fixed"), 1.0), (RegimeSpec("small", 0.5), 1.0),
                  (RegimeSpec("large", 0.25), -1.0)], ids=["fixed", "small", "large"])


def test_regime_validation():
    with pytest.raises(ValueError):
        RegimeSpec("large", 1.0)
    with pytest.raises(ValueError):
        RegimeSpec("large", 0.0)
    with pytest.raises(ValueError):
        RegimeSpec("small", 0.0)
    # h^inf b0 is the Neumann problem for h < 1 and overflows past it.
    with pytest.raises(ValueError, match="small regime needs a finite exponent s > 0, got inf"):
        RegimeSpec("small", math.inf)
    with pytest.raises(ValueError):
        RegimeSpec("banana")


def test_regime_holds_no_coefficients():
    # b0 belongs to the box; a stale call that passes facets as the exponent fails.
    assert [f.name for f in fields(RegimeSpec)] == ["kind", "exponent"]
    with pytest.raises(TypeError):
        RegimeSpec("fixed", ((1.0, 1.0), (1.0, 1.0)))


def test_sweep_reads_b0_from_the_box():
    regime = RegimeSpec("fixed")
    plus, minus = (asympt.run_sweep(BoxDomain.uniform((1.0, SQ2), b), regime, HS) for b in (1.0, -1.0))
    assert [r.boundary_term for r in plus] != [r.boundary_term for r in minus]
    assert [r.trace for r in plus] != [r.trace for r in minus]


def test_predict_fixed_neumann_square():
    box = BoxDomain.uniform((1.0, 1.0), 0.0)
    pred = predict(box, RegimeSpec("fixed"), 0.1)
    assert abs(pred.boundary - 4.0 / (6.0 * math.pi) * 10.0) < 1e-12
    assert abs(pred.weyl - 100.0 / (8.0 * math.pi)) < 1e-12


def test_predict_fixed_b1():
    box = BoxDomain.uniform((1.0, 1.0), 1.0)
    pred = predict(box, RegimeSpec("fixed"), 0.1)
    assert abs(pred.boundary - 4.0 * coeffs.l2(2, 1.0).value * 10.0) < 1e-12


def test_fixed_b0_equals_small_prediction():
    box = BoxDomain.uniform((1.0, SQ2), 0.0)
    for h in HS:
        fixed = predict(box, RegimeSpec("fixed"), h)
        small = predict(box, RegimeSpec("small", 0.5), h)
        assert abs(fixed.boundary - small.boundary) < 1e-12 * abs(small.boundary)


def test_predict_large_uses_exact_density_below_switch():
    box = BoxDomain.uniform((1.0, 1.0), -1.0)
    h = 0.04  # Theta = h^(-1/4) ~ 2.24
    regime = RegimeSpec("large", 0.25)
    pred = predict(box, regime, h)
    exact = 4.0 * coeffs.l2(2, -(h**-0.25)).value / h
    assert abs(pred.boundary - exact) < 1e-10 * exact
    # ... and the pure leading form differs by the O(Theta^(d-1)) gap
    leading = 4.0 * coeffs.l2_large_negative_leading(2, -(h**-0.25)).value / h
    assert pred.boundary > leading


def test_predict_large_exact_density_at_theta_100():
    box = BoxDomain.uniform((1.0, 1.0), -1.0)
    regime = RegimeSpec("large", 0.5)
    h = 1e-4  # Theta = 100: still the exact l2, not its leading form
    pred = predict(box, regime, h)
    exact = 4.0 * coeffs.l2(2, -100.0).value / h
    assert abs(pred.boundary - exact) < 1e-10 * exact
    leading = 4.0 * coeffs.l2_large_negative_leading(2, -100.0).value / h
    assert pred.boundary > leading


def test_predict_large_nonnegative_densities():
    box = BoxDomain((1.0, 1.0), ((1.0, 1.0), (0.0, 0.0)))
    regime = RegimeSpec("large", 0.5)
    assert not asympt._has_negative_b0(box)
    pred = predict(box, regime, 0.01)
    quarter = 0.25 * coeffs.l1(1).value
    # facets with b0 > 0 contribute -quarter, facets with b0 = 0 contribute +quarter
    expected = (2.0 * 1.0 * (-quarter) + 2.0 * 1.0 * quarter) / 0.01
    assert abs(pred.boundary - expected) < 1e-12


def test_predict_linear_in_facet_areas():
    h = 0.05
    regime2 = RegimeSpec("fixed")
    small = BoxDomain.uniform((1.0, 1.0), 1.0)
    wide = BoxDomain.uniform((2.0, 1.0), 1.0)
    rho = coeffs.l2(2, 1.0).value
    got = predict(wide, regime2, h).boundary - predict(small, regime2, h).boundary
    assert abs(got - 2.0 * 1.0 * rho / h) < 1e-12 * abs(rho / h)


@THREE_REGIMES
def test_remainder_definition(regime, b0):
    # A sweep point is riesz_mean on the realized box plus predict, bit for bit.
    box = BoxDomain.uniform((1.0, SQ2), b0)
    h = 0.05
    point = asympt.run_sweep(box, regime, [h])[0]
    rep = riesz.riesz_mean(asympt._realized_box(box, regime, h), h)
    pred = predict(box, regime, h)
    assert (point.trace, point.eig_count, point.kroger_ok) == (rep.trace, rep.eig_count, rep.kroger_ok)
    assert (point.weyl_term, point.boundary_term) == (pred.weyl, pred.boundary)
    assert point.remainder == point.trace - point.weyl_term - point.boundary_term


def synthetic_reports(exponent, d=2, const=1.0):
    reports = []
    for h in HS:
        rem = const * h**exponent
        reports.append(SweepPoint(h=h, trace=0.0, weyl_term=0.0, boundary_term=0.0,
                                  remainder=rem, eig_count=1, kroger_ok=True))
    return reports


def test_fit_sweep_synthetic_power_law():
    box = BoxDomain.uniform((1.0, 1.0), 0.0)
    regime = RegimeSpec("fixed")
    fit = fit_sweep(box, regime, synthetic_reports(-2.0 + 1.5))
    assert abs(fit.fitted_exponent - 0.5) < 1e-8
    assert fit.fit_residual < 1e-10
    assert fit.decay_verified
    assert not fit.sign_flips


def test_fit_sweep_degenerate_no_decay():
    box = BoxDomain.uniform((1.0, 1.0), 0.0)
    regime = RegimeSpec("fixed")
    fit = fit_sweep(box, regime, synthetic_reports(-1.0))
    assert abs(fit.fitted_exponent) < 1e-8
    assert not fit.decay_verified


def test_fit_sweep_sign_flip_flag():
    box = BoxDomain.uniform((1.0, 1.0), 0.0)
    regime = RegimeSpec("fixed")
    reports = synthetic_reports(1.5 - 2.0)
    reports[2] = replace(reports[2], remainder=-reports[2].remainder)
    fit = fit_sweep(box, regime, reports)
    assert fit.sign_flips
    assert isinstance(fit, SweepFit)


def test_fit_sweep_requires_four_points():
    box = BoxDomain.uniform((1.0, 1.0), 0.0)
    regime = RegimeSpec("fixed")
    with pytest.raises(ValueError):
        fit_sweep(box, regime, synthetic_reports(-0.5)[:3])


def test_fit_sweep_requires_distinct_h():
    box = BoxDomain.uniform((1.0, 1.0), 0.0)
    regime = RegimeSpec("fixed")
    reports = synthetic_reports(-0.5)
    reports[1] = replace(reports[1], h=reports[0].h)
    with pytest.raises(ValueError, match="sweep h values must be distinct"):
        fit_sweep(box, regime, reports)


def test_normalized_remainder_large_regime():
    box = BoxDomain.uniform((1.0, SQ2), -1.0)
    regime = RegimeSpec("large", 0.25)
    assert asympt._has_negative_b0(box)
    rep = SweepPoint(h=0.01, trace=0.0, weyl_term=0.0, boundary_term=0.0,
                     remainder=2.0, eig_count=1, kroger_ok=True)
    theta = 0.01**-0.25
    assert abs(asympt.normalized_remainder(box, regime, rep) - 2.0 * 0.01 * theta**-3) < 1e-15


def test_run_sweep_deterministic_and_ordered():
    box = BoxDomain.uniform((1.0, SQ2), 1.0)
    regime = RegimeSpec("fixed")
    first = asympt.run_sweep(box, regime, [0.1, 0.2, 0.05, 0.025])
    second = asympt.run_sweep(box, regime, [0.025, 0.05, 0.1, 0.2])
    assert [r.h for r in first] == [0.2, 0.1, 0.05, 0.025]
    assert first == second


@THREE_REGIMES
@pytest.mark.parametrize("bad", [math.nan, 0.0, -0.01])
def test_run_sweep_checks_every_h_before_the_sort(regime, b0, bad):
    # A NaN once reached the small and large regimes' realized facets first,
    # which named the facet coefficients instead of h.
    box = BoxDomain.uniform((1.0, SQ2), b0)
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
    regime = RegimeSpec("fixed")
    first = asympt.run_sweep(box, regime, HS)
    assert calls == [1.0]
    # No cache outlives a sweep: the second one pays for its own quadrature.
    assert asympt.run_sweep(box, regime, HS) == first
    assert calls == [1.0, 1.0]
    calls.clear()
    asympt.run_sweep(BoxDomain((1.0, SQ2), ((1.0, -1.0), (2.0, 1.0))), regime, HS)
    assert sorted(calls) == [-1.0, 1.0, 2.0]
    # The large regime realizes a new b = h^(-1/4) b0 at every h.
    calls.clear()
    large = RegimeSpec("large", 0.25)
    asympt.run_sweep(BoxDomain.uniform((1.0, SQ2), -1.0), large, HS)
    assert sorted(calls) == sorted(-large.scale(h) for h in HS)


def test_neumann_box_remainder_averages_to_corner_term():
    # Each right angle adds 1/16 to the Neumann heat trace (Kac 1966; van den
    # Berg & Srisatkunarajah 1988), so the remainder of the 1 x sqrt(2) box
    # oscillates about 1/4. Averaged over 16 h near 1e-5, the mean checks the
    # traces there to about 1e-4 absolute.
    box = BoxDomain.uniform((1.0, SQ2), 0.0)
    reports = asympt.run_sweep(box, RegimeSpec("fixed"), np.geomspace(0.74e-5, 1.35e-5, 16))
    remainders = np.array([r.remainder for r in reports])
    standard_error = remainders.std(ddof=1) / math.sqrt(remainders.size)
    assert abs(remainders.mean() - 0.25) <= 3.0 * standard_error, (remainders.mean(), standard_error)


def test_crossover_ratio_scaling():
    box = BoxDomain.uniform((1.0, 1.0), -1.0)
    # gamma < 1/(d+1): boundary/weyl ratio shrinks as h decreases
    r1 = predict(box, RegimeSpec("large", 0.2), 0.01)
    r2 = predict(box, RegimeSpec("large", 0.2), 0.005)
    assert r2.ratio < r1.ratio
    # gamma > 1/(d+1): ratio grows
    r1 = predict(box, RegimeSpec("large", 0.5), 0.01)
    r2 = predict(box, RegimeSpec("large", 0.5), 0.005)
    assert r2.ratio > r1.ratio
    # at gamma = 1/(d+1) the ratio is h-independent up to lower-order terms
    r1 = predict(box, RegimeSpec("large", 1.0 / 3.0), 0.01)
    r2 = predict(box, RegimeSpec("large", 1.0 / 3.0), 0.005)
    assert abs(r2.ratio / r1.ratio - 1.0) < 0.05


@THREE_REGIMES
@pytest.mark.parametrize("bad", [math.nan, 0.0, -0.01])
def test_predict_checks_h(regime, b0, bad):
    box = BoxDomain.uniform((1.0, SQ2), b0)
    with pytest.raises(ValueError, match=f"need h > 0, got {bad}"):
        predict(box, regime, bad)


@THREE_REGIMES
def test_predict_refuses_h_whose_inverse_square_overflows(regime, b0):
    # h^-2 once raised OverflowError in riesz's per-axis cutoff and here;
    # riesz.check_h now refuses such an h in predict as in riesz_mean.
    box = BoxDomain.uniform((1.0, SQ2), b0)
    with pytest.raises(ValueError, match="h = 1e-160 is too small"):
        predict(box, regime, 1e-160)


@THREE_REGIMES
def test_predict_and_sweep_refuse_h_whose_power_of_minus_d_overflows(regime, b0):
    # In 3-D h = 1e-110 passes the h^-2 check, but the Weyl term's
    # h^-3 = 1e330 overflows; predict once raised OverflowError there.
    box = BoxDomain.uniform((1.0, SQ2, math.sqrt(3.0)), b0)
    with pytest.raises(ValueError, match=r"h = 1e-110 is too small: h\^-3 overflows"):
        predict(box, regime, 1e-110)
    with pytest.raises(ValueError, match=r"h = 1e-110 is too small: h\^-3 overflows"):
        asympt.run_sweep(box, regime, [0.2, 0.1, 0.05, 1e-110])
    assert predict(box, regime, 1e-100).weyl > 0.0


def test_neumann_sweep_remainder_decay():
    # |R_h| h strictly decreasing on the default sweep; fitted exponent
    # frozen as a regression baseline from the first full run.
    box = BoxDomain.uniform((1.0, 1.0), 0.0)
    regime = RegimeSpec("fixed")
    reports = asympt.run_sweep(box, regime, HS)
    norm = [abs(r.remainder) * r.h for r in reports]
    assert all(b < a for a, b in zip(norm[:-1], norm[1:]))
    fit = fit_sweep(box, regime, reports)
    assert fit.fitted_exponent > 0.3
    assert abs(fit.fitted_exponent - 0.9232) < 0.02


def test_fixed_b1_sweep_remainder_decay():
    box = BoxDomain.uniform((1.0, SQ2), 1.0)
    regime = RegimeSpec("fixed")
    reports = asympt.run_sweep(box, regime, HS)
    norm = [abs(r.remainder) * r.h for r in reports]
    assert all(b < a for a, b in zip(norm[:-1], norm[1:]))


def test_small_regime_rem2_envelope():
    # |R_h| h^(d-1) <= C min over mu in (0, 1/4] of (mu + theta (1+|ln theta|)/mu)
    # with theta = sqrt(h); checked as an upper envelope with C = 1.
    box = BoxDomain.uniform((1.0, SQ2), 1.0)
    regime = RegimeSpec("small", 0.5)
    reports = asympt.run_sweep(box, regime, HS)
    for rep in reports:
        theta = math.sqrt(rep.h)
        blob = theta * (1.0 + abs(math.log(theta)))
        envelope = min(mu + blob / mu for mu in (0.25, 0.2, 0.15, 0.1, 0.05, 0.01))
        assert abs(rep.remainder) * rep.h <= envelope


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## Library example\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    assert lines[-1].startswith("remainder decay exponent:")
