import math

import pytest

from robin_semiclassics import coeffs


def closed_l2_d2(b):
    """Independent closed form for d = 2, from the trigonometric reduction of
    the p-integral: for a = b^2,
    K(a) = pi * (-1/4 - (a+1)/2 + (a+1)^(3/2) / (2 sqrt(a))),
    l2 = c_2 * (-pi/4 + b K(b^2) [+ pi (b^2+1)^(3/2) for b < 0]).
    """
    c2 = 2.0 / (3.0 * math.pi**2)
    if b == 0.0:
        return c2 * math.pi / 4.0
    a = b * b
    k = math.pi * (-0.25 - (a + 1.0) / 2.0 + (a + 1.0) ** 1.5 / (2.0 * math.sqrt(a)))
    val = -math.pi / 4.0 + b * k
    if b < 0.0:
        val += math.pi * (a + 1.0) ** 1.5
    return c2 * val


def closed_l2_d3(b):
    """Independent closed form for d = 3 via polynomial division of (1-p^2)^2."""
    c3 = coeffs.c_d(3).value
    if b == 0.0:
        return c3 * math.pi / 4.0
    integral = b * (1.0 / 3.0 - 2.0 - b * b) + (1.0 + b * b) ** 2 * math.atan(1.0 / b)
    val = -math.pi / 4.0 + integral
    if b < 0.0:
        val += math.pi * (b * b + 1.0) ** 2
    return c3 * val


def test_unit_ball_volumes():
    assert abs(coeffs.unit_ball_volume(2).value - math.pi) < 1e-15
    assert abs(coeffs.unit_ball_volume(3).value - 4.0 * math.pi / 3.0) < 1e-15
    # Gamma(3) = 2, so omega_4 = pi^2 / 2
    assert abs(coeffs.unit_ball_volume(4).value - math.pi**2 / 2.0) < 1e-15


def test_index_checks():
    for k in (-1, 9):
        with pytest.raises(ValueError, match="sphere index must lie in"):
            coeffs.sphere_surface(k)
    for n in (0, 2.5):
        with pytest.raises(ValueError, match="positive integer half-count"):
            coeffs.gamma_half_integer(n)


def test_sphere_surfaces():
    assert coeffs.sphere_surface(0).value == 2.0
    assert abs(coeffs.sphere_surface(1).value - 2.0 * math.pi) < 1e-15
    assert abs(coeffs.sphere_surface(2).value - 4.0 * math.pi) < 1e-14


def test_l1_values():
    assert abs(coeffs.l1(1).value - 2.0 / (3.0 * math.pi)) < 1e-16
    assert abs(coeffs.l1(2).value - 1.0 / (8.0 * math.pi)) < 1e-16
    assert abs(coeffs.l1(3).value - 1.0 / (15.0 * math.pi**2)) < 1e-16


def test_c_d_values():
    assert abs(coeffs.c_d(2).value - 2.0 / (3.0 * math.pi**2)) < 1e-16
    assert abs(coeffs.c_d(3).value - 1.0 / (8.0 * math.pi**2)) < 1e-16


@pytest.mark.parametrize("d", [2, 3, 4])
def test_consistency_identity(d):
    assert abs(coeffs.c_d(d).value * math.pi / 4.0 - coeffs.l1(d - 1).value / 4.0) <= 1e-12


def test_l2_zero_branch():
    assert abs(coeffs.l2(2, 0.0).value - 1.0 / (6.0 * math.pi)) <= 1e-15
    assert coeffs.l2(2, 0.0).abs_error_estimate == 0.0


@pytest.mark.parametrize("b", [-3.0, -1.0, -0.5, -0.1, 0.1, 0.5, 1.0, 2.5, 7.0])
def test_l2_d2_closed_form(b):
    got = coeffs.l2(2, b)
    assert abs(got.value - closed_l2_d2(b)) < 1e-11
    assert got.abs_error_estimate < 1e-10


@pytest.mark.parametrize("b", [-2.0, -0.8, 0.4, 1.5, 6.0])
def test_l2_d3_closed_form(b):
    assert abs(coeffs.l2(3, b).value - closed_l2_d3(b)) < 1e-11


ORACLE_MAGNITUDES = (1e-12, 1e-9, 1e-8, 1e-6, 1e-3, 0.1, 0.5, 1.0, 10.0, 1e3, 1e5)


# Both sides of the series switch at |b| = 1.5, the realized couplings of the
# perfbench sweep2d_large workload, and couplings whose b^2 overflows.
SWITCH = math.nextafter(1.5, math.inf)
ORACLE_EXTRA = (1.5, -1.5, SWITCH, -SWITCH, 2.0, -2.0,
                -5.654, -8.470, -10.063, -11.996, 1e100, -1e100, 1e200)


def mpmath_l2(mpmath, d, b, digits=30, exact=False):
    """l2(d, b) from the unsplit integrand, peak included, to ``digits`` digits.

    A float unless ``exact``; inf where it overflows a float.
    """
    with mpmath.workdps(digits):
        b = mpmath.mpf(b)
        k = mpmath.mpf(d + 1) / 2
        points = [0, abs(b), 1] if abs(b) < 1 else [0, 1]
        value = -mpmath.pi / 4 + mpmath.quad(lambda p: (1 - p * p) ** k * b / (b * b + p * p),
                                             points)
        if b < 0:
            value += mpmath.pi * (b * b + 1) ** k
        sphere = 2 * mpmath.pi ** (mpmath.mpf(d - 1) / 2) / mpmath.gamma(mpmath.mpf(d - 1) / 2)
        value = 4 * sphere * (2 * mpmath.pi) ** (-d) / (d * d - 1) * value
        return +value if exact else float(value)


@pytest.mark.parametrize("d", range(2, 9))
def test_l2_mpmath_oracle(d):
    # Covers 0 < |b| <= 1e-8, where the peak of width |b| once made the
    # quadrature raise although l2 is continuous at 0.
    mpmath = pytest.importorskip("mpmath")
    for b in [s * m for m in ORACLE_MAGNITUDES for s in (1, -1)] + list(ORACLE_EXTRA):
        want = mpmath_l2(mpmath, d, b)
        if math.isinf(want):  # the bound-state mass of b = -1e100 for d >= 3
            with pytest.raises(ValueError, match="bound-state mass .* overflows"):
                coeffs.l2(d, b)
            continue
        got = coeffs.l2(d, b).value
        assert abs(got - want) <= 1e-13 * abs(want), (d, b, got, want)


@pytest.mark.parametrize("d", range(2, 9))
def test_l2_series_within_its_estimate(d):
    # Past |b| = 1.5 the estimate bounds the series' truncation and rounding,
    # and the rounding of c_d (-pi/4 + I + mass) around it, which dominates
    # for large negative b: l2(8, -1e5) is off by 5.7e22.
    mpmath = pytest.importorskip("mpmath")
    for b in (SWITCH, -SWITCH, 2.0, -2.0, -5.654, -11.996, -12.0, 10.0, 1e3, -1e5, 1e100, 1e200):
        got = coeffs.l2(d, b)
        want = mpmath_l2(mpmath, d, b, digits=50, exact=True)
        gap = float(abs(mpmath.mpf(got.value) - want))
        assert gap <= got.abs_error_estimate, (d, b, gap, got)


@pytest.mark.parametrize("d", range(2, 9))
def test_l2_quadrature_within_its_estimate(d):
    # Up to |b| = 1.5 the estimate adds the quadrature's own to the same rounding.
    mpmath = pytest.importorskip("mpmath")
    for b in (1.5, -1.5, 1.0, -1.0, 0.1, -0.1, 1e-3, -1e-3, -1e-6, 1e-9):
        got = coeffs.l2(d, b)
        want = mpmath_l2(mpmath, d, b, digits=50, exact=True)
        gap = float(abs(mpmath.mpf(got.value) - want))
        assert gap <= got.abs_error_estimate, (d, b, gap, got)


def test_l2_series_makes_no_quadrature_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("quadrature called")

    monkeypatch.setattr(coeffs, "adaptive_quadrature", refuse)
    for d in (2, 8):
        for b in (SWITCH, -SWITCH, 2.0, -5.654, 1e5, 1e200):
            assert math.isfinite(coeffs.l2(d, b).value), (d, b)
        for b in (1.5, -1.5, 1.0, -0.5):
            with pytest.raises(AssertionError, match="quadrature called"):
                coeffs.l2(d, b)


def test_l2_large_positive_limit():
    assert abs(coeffs.l2(2, 1e6).value + 1.0 / (6.0 * math.pi)) < 1e-5


def test_branch_continuity():
    for d in (2, 3):
        base = coeffs.l2(d, 0.0).value
        assert abs(coeffs.l2(d, 1e-6).value - base) <= 1e-4
        assert abs(coeffs.l2(d, -1e-6).value - base) <= 1e-4


@pytest.mark.parametrize("b", [1e-200, -1e-200, 1e-300, -1e-300, 5e-324, -5e-324])
def test_l2_for_tiny_b_is_l2_at_zero(b):
    # The rest integral is bounded by k |b| and is not integrated where that
    # is below the tolerance; once b^2 + p^2 underflowed there, giving 0/0.
    for d in range(2, 9):
        val = coeffs.l2(d, b)
        assert val.value == coeffs.l2(d, 0.0).value, d
        mass = math.pi if b < 0.0 else 0.0  # pi (1 + b^2)^((d+1)/2) with b^2 = 0
        rounding = coeffs._L2_ROUNDING * (math.pi / 4.0 + math.pi / 2.0 + mass)  # I = arctan(1 / b)
        assert val.abs_error_estimate == coeffs.c_d(d).value * (0.5 * (d + 1) * abs(b) + rounding), d


def test_symmetric_limits():
    for d in (2, 3):
        quarter = 0.25 * coeffs.l1(d - 1).value
        assert abs(coeffs.l2(d, 0.0).value - quarter) <= 1e-15
        assert abs(coeffs.l2(d, 1e8).value + quarter) <= 1e-6


def test_monotone_nonincreasing_grid():
    grid = [-5.0 + 10.0 * i / 200.0 for i in range(201)]
    vals = [coeffs.l2(2, b).value for b in grid]
    for lo, hi in zip(vals[1:], vals[:-1]):
        assert lo <= hi + 1e-12


def test_derivative_continuous_across_zero():
    # Central differences of l2 on a grid straddling 0; no derivative jump
    # beyond 10x the neighboring jumps (l2 is C^1 with slope -1/(2 pi) at 0).
    step = 0.05
    grid = [step * (i - 10) for i in range(21)]
    deriv = [(coeffs.l2(2, b + step).value - coeffs.l2(2, b - step).value) / (2 * step)
             for b in grid]
    jumps = [abs(a - b) for a, b in zip(deriv[1:], deriv[:-1])]
    middle = jumps[9:11]  # the two jumps spanning b = 0
    typical = max(j for i, j in enumerate(jumps) if i not in (9, 10))
    assert max(middle) <= 10.0 * typical
    assert abs(deriv[10] + 1.0 / (2.0 * math.pi)) < 5e-3


def test_derivative_growth_qualitative():
    # |d l2 / db| should grow no faster than ~(1 + b_-^d); constant untested.
    for b in (-1.0, -2.0, -4.0):
        d_est = (coeffs.l2(2, b + 1e-5).value - coeffs.l2(2, b - 1e-5).value) / 2e-5
        assert abs(d_est) <= 5.0 * (1.0 + b * b)


def test_large_negative_leading():
    assert abs(coeffs.l2_large_negative_leading(2, -1.0).value - 2.0 / (3.0 * math.pi)) < 1e-15
    assert abs(coeffs.l2_large_negative_leading(2, -2.0).value - 16.0 / (3.0 * math.pi)) < 1e-14
    gaps = []
    for b in (-10.0, -100.0):
        gap = abs(coeffs.l2(2, b).value - coeffs.l2_large_negative_leading(2, b).value)
        gaps.append(gap / abs(b) ** 3)
    assert gaps[1] < gaps[0] < 0.01


def test_l2_quadrature_failure_is_loud(monkeypatch):
    from robin_semiclassics.errors import QuadratureError

    monkeypatch.setattr(coeffs, "_L2_TOL", 1e-30)
    with pytest.raises(QuadratureError):
        coeffs.l2(2, 0.5)


def test_l2_bound_state_overflow_raises():
    # pi (1 + b^2)^((d+1)/2) once raised OverflowError from the float power
    # (b = -1e120) or, where b * b is already inf, gave l2 = inf (b = -1e200).
    # It overflows below about b = -3.85e102 at d = 2 and -1.57e34 at d = 8.
    for d, b in ((2, -1e120), (2, -1e200), (8, -1e50)):
        with pytest.raises(ValueError, match="bound-state mass .* overflows"):
            coeffs.l2(d, b)
    for d, b in ((2, -3.8e102), (8, -1.5e34)):
        assert 0.0 < coeffs.l2(d, b).value < math.inf, d


def test_validation():
    with pytest.raises(ValueError):
        coeffs.c_d(1)
    with pytest.raises(ValueError):
        coeffs.l1(0)
    with pytest.raises(ValueError):
        coeffs.l2(9, 1.0)
    with pytest.raises(ValueError):
        coeffs.l2(2, math.inf)
    with pytest.raises(TypeError):
        coeffs.l2(2.5, 1.0)
    with pytest.raises(ValueError):
        coeffs.l2_large_negative_leading(2, 1.0)
    with pytest.raises(ValueError, match="must be finite"):
        coeffs.l2_large_negative_leading(2, -math.inf)
    for b in (-1e120, -1e200):  # (-b)^3 raised a bare OverflowError
        with pytest.raises(ValueError, match="leading density .* overflows"):
            coeffs.l2_large_negative_leading(2, b)
