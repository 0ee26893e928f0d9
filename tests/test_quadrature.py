import math

import numpy as np
import pytest

from robin_semiclassics import quadrature
from robin_semiclassics.errors import QuadratureError
from robin_semiclassics.quadrature import adaptive_quadrature, panel_rule


def test_polynomial_exact():
    res = adaptive_quadrature(lambda x: x**5, 0.0, 1.0, abs_tol=1e-14)
    assert abs(res.value - 1.0 / 6.0) < 1e-15


def test_kink_with_breakpoint():
    res = adaptive_quadrature(lambda x: np.abs(x - 0.3), 0.0, 1.0,
                              abs_tol=1e-13, breakpoints=(0.3,))
    assert abs(res.value - (0.3**2 / 2 + 0.7**2 / 2)) < 1e-14


def test_oscillatory():
    # int_0^2pi cos(40 x) dx = 0, needs panel refinement
    res = adaptive_quadrature(lambda x: np.cos(40.0 * x), 0.0, 2.0 * math.pi, abs_tol=1e-12)
    assert abs(res.value) < 1e-11


def test_narrow_peak():
    b = 1e-5
    res = adaptive_quadrature(lambda x: b / (b * b + x * x), 0.0, 1.0,
                              abs_tol=1e-13, breakpoints=(b,))
    assert abs(res.value - math.atan(1.0 / b)) < 1e-12


def test_error_estimate_reported():
    res = adaptive_quadrature(lambda x: np.exp(-x), 0.0, 2.0, abs_tol=1e-12)
    assert res.error_estimate <= 1e-12
    assert abs(res.value - (1.0 - math.exp(-2.0))) <= 1e-13


def test_refinement_limit_raises():
    # Non-integrable-derivative spike with a tiny panel budget fails loudly.
    with pytest.raises(QuadratureError):
        adaptive_quadrature(lambda x: 1.0 / np.sqrt(np.abs(x - 1.0 / math.pi) + 1e-300),
                            0.0, 1.0, abs_tol=1e-14, max_panels=8)


def test_seeded_panels_over_budget_raise_before_any_evaluation():
    # 100 seeded panels against a budget of 50: the budget holds even where
    # no panel would be bisected, and nothing is evaluated.
    calls = []

    def integrand(x):
        calls.append(x.size)
        return x

    with pytest.raises(QuadratureError, match="100 seeded panels exceed the budget of 50"):
        adaptive_quadrature(integrand, 0.0, 1.0, breakpoints=np.linspace(0.0, 1.0, 101)[1:-1],
                            max_panels=50)
    assert calls == []
    # At the budget itself the seeded panels are integrated.
    res = adaptive_quadrature(integrand, 0.0, 1.0, breakpoints=np.linspace(0.0, 1.0, 51)[1:-1],
                              max_panels=50)
    assert res.panels == 50 and abs(res.value - 0.5) <= 1e-15


def test_nan_integrand_raises_at_once():
    # A NaN error estimate selects no panel to bisect; the loop once spun
    # through its round limit before it raised.
    calls = []

    def integrand(x):
        calls.append(x.size)
        return np.where(x < 0.5, math.nan, x)

    with pytest.raises(QuadratureError, match="error estimate nan is not finite"):
        adaptive_quadrature(integrand, 0.0, 1.0, breakpoints=(0.25, 0.75))
    assert len(calls) == 1


def test_jump_between_panels_stalls_at_machine_resolution():
    # The panel holding the jump keeps an error estimate in proportion to its
    # width, so abs_tol = 5e-17 asks for a panel narrower than bisection
    # reaches: it stops once a half panel is below 1e-15 max(1, |mid|).
    with pytest.raises(QuadratureError, match=r"quadrature on \[0.0, 0.1\] stalled at machine resolution; "
                                              r"error estimate .* > tol 5.000e-17"):
        adaptive_quadrature(lambda x: np.where(x < 1.0 / (10.0 * math.pi), 0.0, 1.0), 0.0, 0.1,
                            abs_tol=5e-17)


def test_round_limit_raises(monkeypatch):
    # A rule whose error sits on the one panel holding 1/3: each round halves
    # that panel, and on [0, 2^80] 64 halvings leave it far above the stall
    # width. No real integrand tried gets here before convergence, the stall
    # or the panel budget.
    calls = []

    def one_bad_panel(f, lo, hi):
        calls.append(lo.size)
        return np.zeros(lo.size), np.where((lo <= 1.0 / 3.0) & (1.0 / 3.0 < hi), 1.0, 0.0)

    monkeypatch.setattr(quadrature, "panel_rule", one_bad_panel)
    with pytest.raises(QuadratureError, match=r"did not converge within the round limit; "
                                              r"error estimate 1.000e\+00 > tol 1.000e-03"):
        adaptive_quadrature(lambda x: x, 0.0, 2.0**80, abs_tol=1e-3)
    assert calls == [1] + [2] * 64


def test_share_fallback_bisects_the_largest_error(monkeypatch):
    # On [0, 3] cut at 1.5, each panel's error 0.1 * 1.5 / 3 = 0.05000000000000001
    # is exactly its share of abs_tol = 0.1, so none exceeds it, yet the two sum
    # above 0.1. The panels with the largest error, here both, are bisected.
    calls = []

    def share_errors(f, lo, hi):
        calls.append((lo.tolist(), hi.tolist()))
        err = 0.1 * (hi - lo) / 3.0 if len(calls) == 1 else np.zeros(lo.size)
        return np.zeros(lo.size), err

    monkeypatch.setattr(quadrature, "panel_rule", share_errors)
    res = adaptive_quadrature(lambda x: x, 0.0, 3.0, abs_tol=0.1, breakpoints=(1.5,))
    assert calls[1] == ([0.0, 1.5, 0.75, 2.25], [0.75, 2.25, 1.5, 3.0])
    assert (res.value, res.error_estimate, res.panels) == (0.0, 0.0, 4)


def test_empty_interval_rejected():
    with pytest.raises(ValueError):
        adaptive_quadrature(lambda x: x, 1.0, 1.0)


def test_panel_rule_batch_shape():
    kron, err = panel_rule(lambda x: x * x, np.array([0.0, 0.5]), np.array([0.5, 1.0]))
    assert kron.shape == (2,)
    assert abs(kron.sum() - 1.0 / 3.0) < 1e-15
    assert np.all(err >= 0.0)
