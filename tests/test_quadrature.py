import math

import numpy as np
import pytest

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


def test_empty_interval_rejected():
    with pytest.raises(ValueError):
        adaptive_quadrature(lambda x: x, 1.0, 1.0)


def test_panel_rule_batch_shape():
    kron, err = panel_rule(lambda x: x * x, np.array([0.0, 0.5]), np.array([0.5, 1.0]))
    assert kron.shape == (2,)
    assert abs(kron.sum() - 1.0 / 3.0) < 1e-15
    assert np.all(err >= 0.0)
