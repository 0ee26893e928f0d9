"""Semiclassical constants for the two-term Robin eigenvalue-sum asymptotics.

Closed forms for unit-ball volumes, sphere surfaces and the Weyl
coefficient. The boundary-density coefficient l2(d, b) interpolates
between +l1(d-1)/4 at b = 0 and -l1(d-1)/4 as b -> +infinity and grows
like pi*c_d*|b|^(d+1) as b -> -infinity; its p-integral is an
alternating Beta series for |b| > 1.5 and adaptive quadrature otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import adaptive_quadrature

MIN_DIMENSION = 2
MAX_DIMENSION = 8  # desk-scale guard
_L2_TOL = 1e-13  # absolute tolerance of l2's quadrature
_L2_SERIES_MIN = 1.5  # l2's p-integral is a series for |b| above this
# Past |b| = 1.5 each series term is below 1/2.25 = 4/9 of the one before,
# and the alternating sum is at least 1 - 4/9 = 5/9 of its first term, so
# after N terms the first omitted one is below (9/5) (4/9)^N of the sum:
# below 2^-53 of it from N = 47 on.
_L2_SERIES_TERMS = 47
_UNIT_ROUNDOFF = 2.0**-53
# l2 rounds c_d (-pi/4 + I + mass) within this times c_d (pi/4 + |I| + mass):
# c_d by at most 16 units (the powers of pi and 2 pi, the Gamma recursion,
# four more operations), mass by 8 (1 + b^2 raised to (d+1)/2 <= 4.5, the
# power and pi), I's arctan form by 6 units of pi/4, the sums and product by 3.
_L2_ROUNDING = 33 * _UNIT_ROUNDOFF


@dataclass(frozen=True)
class CoefficientValue:
    """A dimensionless constant and an absolute error estimate.

    ``abs_error_estimate`` is 0 for closed-form values. For l2 it is c_d times
    the error of its p-integral (the quadrature's error estimate, or the
    series' truncation and rounding bound) plus the rounding of the sum
    around it, c_d (-pi/4 + I + pi (1 + b^2)^((d+1)/2)) (see l2).
    """

    value: float
    abs_error_estimate: float = 0.0


def check_dimension(d, minimum=MIN_DIMENSION):
    if not isinstance(d, (int, np.integer)) or isinstance(d, bool):
        raise TypeError(f"dimension must be an integer, got {d!r}")
    if d < minimum or d > MAX_DIMENSION:
        raise ValueError(f"dimension must lie in [{minimum}, {MAX_DIMENSION}], got {d}")
    return int(d)


def check_coupling(b):
    """A Robin coefficient as a float; it must be finite."""
    b = float(b)
    if not math.isfinite(b):
        raise ValueError(f"Robin coefficient must be finite, got {b!r}")
    return b


def gamma_half_integer(n):
    """Gamma(n/2) for integer n >= 1 via the recursion from Gamma(1/2), Gamma(1)."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"need a positive integer half-count, got {n!r}")
    value = math.sqrt(math.pi) if n % 2 == 1 else 1.0
    k = 2 - (n % 2)  # 1 or 2, the recursion anchor
    while k < n:
        value *= k / 2.0
        k += 2
    return value


def unit_ball_volume(d):
    """Volume of the unit ball in R^d: pi^(d/2) / Gamma(d/2 + 1).

    Accepts d >= 1 so the (d-1)-dimensional constants remain available.
    """
    d = check_dimension(d, minimum=1)
    return CoefficientValue(math.pi ** (d / 2.0) / gamma_half_integer(d + 2))


def sphere_surface(k):
    """Surface measure of the unit k-sphere in R^(k+1): (k+1) * omega_(k+1)."""
    if not isinstance(k, (int, np.integer)) or k < 0 or k > MAX_DIMENSION:
        raise ValueError(f"sphere index must lie in [0, {MAX_DIMENSION}], got {k!r}")
    omega = math.pi ** ((k + 1) / 2.0) / gamma_half_integer(k + 3)
    return CoefficientValue((k + 1) * omega)


def l1(d):
    """Weyl constant: (2/(d+2)) * (2*pi)^(-d) * omega_d, defined for d >= 1."""
    d = check_dimension(d, minimum=1)
    omega = unit_ball_volume(d).value
    return CoefficientValue((2.0 / (d + 2)) * (2.0 * math.pi) ** (-d) * omega)


def c_d(d):
    """Prefactor of the boundary density: 4 |S^(d-2)| (2*pi)^(-d) / (d^2 - 1)."""
    d = check_dimension(d)
    surf = sphere_surface(d - 2).value
    return CoefficientValue(4.0 * surf * (2.0 * math.pi) ** (-d) / (d * d - 1.0))


def _l2_series(d, k, b):
    """_l2_integral for |b| > 1.5 as sum_n (-1)^n b^(-2n-1) beta_n.

    beta_n = int_0^1 p^(2n) (1-p^2)^k dp, with beta_0 =
    sqrt(pi) Gamma(k+1) / (2 Gamma(k+3/2)) and beta_(n+1) = beta_n (n+1/2)
    / (n+k+3/2). The terms alternate and shrink, so the first omitted one
    bounds the truncation. Rounding: beta_0 takes at most 16 rounded
    operations, each later term 5 more, and the running sum of N terms
    N - 1 more, so (6N + 16) 2^-53 times the sum of |terms| bounds it.
    Where b^2 overflows, 1 / b^2 is 0 and the series is its first term.
    """
    beta0 = math.sqrt(math.pi) * gamma_half_integer(d + 3) / (2.0 * gamma_half_integer(d + 4))
    q = 1.0 / (b * b)
    term = beta0 / b
    total = abs_sum = 0.0
    for n in range(_L2_SERIES_TERMS):
        total += term
        abs_sum += abs(term)
        term *= -q * (n + 0.5) / (n + k + 1.5)
        if abs(term) <= _UNIT_ROUNDOFF * abs(total):
            break
    return total, abs(term) + (6 * (n + 1) + 16) * _UNIT_ROUNDOFF * abs_sum


def _l2_integral(d, b):
    """int_0^1 (1-p^2)^k * b / (b^2 + p^2) dp with k = (d+1)/2, and its error, for b != 0.

    For |b| > _L2_SERIES_MIN it is _l2_series. Otherwise the peak
    b / (b^2 + p^2) integrates in closed form to arctan(1/b); only the rest
    ((1-p^2)^k - 1) * b / (b^2 + p^2), bounded by k |b|, goes to adaptive
    quadrature. That rest turns from ~ -k p^2 / b to ~ -k b across p ~ |b|,
    a turn one panel [|b|, 1] misses by up to ~k b^2 unseen by its error
    estimate, so the interval is split at every |b| * 16^j below 1. Where
    k |b| <= _L2_TOL the rest is not integrated (at |b| <~ 1e-200 its
    b^2 + p^2 underflows): it is reported as 0 with error k |b|.
    """
    k = 0.5 * (d + 1)
    if abs(b) > _L2_SERIES_MIN:
        return _l2_series(d, k, b)
    if k * abs(b) <= _L2_TOL:
        return math.atan(1.0 / b), k * abs(b)
    b2 = b * b

    def rest(p):
        return np.expm1(k * np.log1p(-p * p)) * (b / (b2 + p * p))

    breaks = []
    p = abs(b)
    while p < 1.0:
        breaks.append(p)
        p *= 16.0
    res = adaptive_quadrature(rest, 0.0, 1.0, abs_tol=_L2_TOL, breakpoints=breaks)
    return math.atan(1.0 / b) + res.value, res.error_estimate


def bound_state_mass(d, b):
    """pi (1 + b^2)^((d+1)/2), the bound state's term of l2(d, b) / c_d for b < 0.

    Raises ValueError where it overflows a float.
    """
    try:
        value = math.pi * (1.0 + b * b) ** (0.5 * (d + 1))
    except OverflowError:
        value = math.inf
    if math.isinf(value):
        raise ValueError(f"d={d}, b={b}: the bound-state mass pi (1 + b^2)^((d+1)/2) overflows a float")
    return value


def l2(d, b):
    """Boundary-density coefficient l2(d, b), three-branch form.

    b > 0:  c_d * (-pi/4 + I(b))
    b = 0:  c_d * pi/4
    b < 0:  c_d * (-pi/4 + I(b) + pi * (b^2 + 1)^((d+1)/2))
    with I(b) the p-integral: an alternating Beta series for |b| > 1.5,
    adaptive quadrature otherwise. abs_error_estimate adds c_d times the
    integral's error and _L2_ROUNDING c_d (pi/4 + |I| + mass), the rounding
    of the sum above, which grows with the bound-state term (l2(8, -1e5),
    about 2.7e39, is off by about 5.7e22, the integral's error 1e-26).
    Where the bound-state term overflows a float (below about
    b = -3.9e102 for d = 2, -1.6e34 for d = 8), bound_state_mass raises
    ValueError.
    """
    d, b = check_dimension(d), check_coupling(b)
    cd = c_d(d).value
    if b == 0.0:
        return CoefficientValue(cd * math.pi / 4.0)
    integral, err = _l2_integral(d, b)
    mass = bound_state_mass(d, b) if b < 0.0 else 0.0
    rounding = _L2_ROUNDING * (math.pi / 4.0 + abs(integral) + mass)
    return CoefficientValue(cd * (-math.pi / 4.0 + integral + mass), cd * (err + rounding))


def l2_large_negative_leading(d, b):
    """Leading large-coupling density pi * c_d * (-b)^(d+1), for finite b < 0.

    Raises ValueError where it overflows a float.
    """
    d, b = check_dimension(d), check_coupling(b)
    if not b < 0.0:
        raise ValueError(f"leading form is defined for b < 0, got {b}")
    try:
        value = math.pi * c_d(d).value * (-b) ** (d + 1)
    except OverflowError:
        value = math.inf
    if math.isinf(value):
        raise ValueError(f"d={d}, b={b}: the leading density pi c_d (-b)^(d+1) overflows a float")
    return CoefficientValue(value)
