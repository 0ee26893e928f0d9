"""Half-line Robin model operator -d^2/dt^2 with boundary condition v'(0) = b v(0).

Generalized eigenfunctions psi_b, the bound state Psi_b (b < 0 only),
the kernel I_b(t) and its integral over the half-line, and an
eigenfunction-expansion reconstruction used as a completeness check.

The integral is defined for every finite b whose pole integral
-pi (1 + b^2)^((d+1)/2) is a float. It is truncated at one point T for every
b and d; the bound state's pole, the one part of I_b that does not
oscillate, is integrated past T in closed form. The tail check past T
measures the amplitude of I_b's oscillation from a third partial integral,
a quarter period past T.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from . import coeffs
from .errors import QuadratureError
from .quadrature import adaptive_quadrature

_HALF_PI = 0.5 * math.pi
_PHI_SPACING = math.pi / 16.0  # widest phi panel, whatever t is
# Panel budget of the phi-quadratures. The mesh seeds about 2 t panels at t,
# so i_b answers up to t of about 30,000.
_PHI_PANELS = 60000
_KERNEL_TOL = 1e-9  # absolute tolerance of i_b
_INTEGRAL_TOL = 1e-7  # absolute tolerance of i_b_integral
_RECONSTRUCT_TOL = 1e-6  # absolute tolerance of reconstruct
# reconstruct takes cos(tp) as 1 past p_max where |1 + b| t is at most this:
# that moves its result by at most (2 / pi) 2 |1 + b| t = 1.3e-8.
_STATIC_TAIL = 1e-8
_QUARTER_PI = 0.25 * math.pi
_T_QUARTERS = math.ceil(200.0 / _QUARTER_PI)  # i_b_integral's T = 200 rounded up to a multiple of pi/4


def _check_t(t):
    t = float(t)
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"half-line coordinate must be finite with t >= 0, got {t}")
    return t


def _psi_norm(b):
    """sqrt(1 + b^2); where b * b overflows, |b|, the same float."""
    b2 = b * b
    return abs(b) if math.isinf(b2) else math.sqrt(1.0 + b2)


def psi(b, t):
    """Generalized eigenfunction (cos t + b sin t) / sqrt(1 + b^2)."""
    b, t = coeffs.check_coupling(b), _check_t(t)
    return (math.cos(t) + b * math.sin(t)) / _psi_norm(b)


def psi_derivative(b, t):
    """d/dt of psi; psi'(0) = b * psi(0) holds exactly."""
    b, t = coeffs.check_coupling(b), _check_t(t)
    return (-math.sin(t) + b * math.cos(t)) / _psi_norm(b)


def psi_bound(b, t):
    """Bound state sqrt(-2b) e^(bt) for b < 0, identically 0 for b >= 0."""
    b, t = coeffs.check_coupling(b), _check_t(t)
    if b >= 0.0:
        return 0.0
    return math.sqrt(-2.0 * b) * math.exp(b * t)


def _kernel_factors(d, b, sin_phi, cos_phi):
    """t-independent factors of the I_b integrand in the phi = arcsin(p) variable.

    The substitution p = sin(phi) absorbs the (1 - p^2)^((d+1)/2) endpoint
    singularity into an analytic cos^(d+2) weight.
    """
    weight = cos_phi ** (d + 2)
    if b == 0.0:
        return weight, np.zeros_like(weight)
    if math.isinf(b * b):
        # The same factors over b^2, in r = sin(phi) / b.
        r = sin_phi / b
        denom = r * r + 1.0
        return weight * (r * r - 1.0) / denom, weight * (2.0 * r) / denom
    s2 = sin_phi * sin_phi
    denom = s2 + b * b
    return weight * (s2 - b * b) / denom, weight * (2.0 * b * sin_phi) / denom


def _phi_mesh(b, t_max):
    """Panel cuts for [0, pi/2]: oscillation-sized plus a cluster at arcsin|b|.

    The cuts come unsorted and may repeat or fall outside (0, pi/2); they are
    passed whole, and adaptive_quadrature keeps those inside (0, pi/2), once
    each, in order. The oscillation cuts start at 0.0, which the quadrature
    drops, because a start at the spacing rounds every later cut differently.
    A cluster cut whose square is not a normal float is left out: near it
    sin^2 + b^2 may round to 0. The spike at arcsin|b| below the kept cuts
    integrates to O(|b|). A mesh of more than _PHI_PANELS oscillation panels,
    2 t_max of them, raises QuadratureError before it is built.
    """
    spacing = _PHI_SPACING
    if t_max > 0.0:
        spacing = min(spacing, math.pi / (4.0 * t_max))
    if _HALF_PI / spacing > _PHI_PANELS:
        raise QuadratureError(f"the phi mesh at t = {t_max!r} needs {_HALF_PI / spacing:.3g} panels, "
                              f"past the budget of {_PHI_PANELS}")
    cuts = np.arange(0.0, _HALF_PI, spacing)
    if abs(b) < 1.0:
        q = math.asin(abs(b)) * 2.0 ** np.arange(-8, 9)
        cuts = np.concatenate([cuts, q[q * q >= sys.float_info.min]])
    return cuts


def _phi_quadrature(d, b, t, combine, abs_tol):
    """QuadResult of combine(sin(phi), fc, fs) over phi in [0, pi/2], fc, fs the _kernel_factors.

    The one phi-quadrature of i_b and _i_b_partial: on the mesh at t, within
    _PHI_PANELS panels, to the absolute tolerance abs_tol.
    """

    def integrand(phi):
        sin_phi = np.sin(phi)
        fc, fs = _kernel_factors(d, b, sin_phi, np.cos(phi))
        return combine(sin_phi, fc, fs)

    return adaptive_quadrature(integrand, 0.0, _HALF_PI, abs_tol=abs_tol,
                               breakpoints=_phi_mesh(b, t), max_panels=_PHI_PANELS)


def i_b(d, b, t):
    """Kernel I_b(t): the p-integral over [0, 1] of the oscillatory model density.

    Computed by _phi_quadrature, in the arcsin substitution with panels
    aligned to the cos(2tp) oscillation; non-convergence raises rather than
    truncates.
    """
    d, b, t = coeffs.check_dimension(d), coeffs.check_coupling(b), _check_t(t)

    def combine(sin_phi, fc, fs):
        arg = 2.0 * t * sin_phi
        return fc * np.cos(arg) + fs * np.sin(arg)

    return _phi_quadrature(d, b, t, combine, _KERNEL_TOL).value


def _pole_tail(d, b, s):
    """int_s^infty P_b(t) dt = -pi (1 + b^2)^((d+1)/2) e^(-2|b| s) for b < 0, else 0.

    P_b(t) = -2 pi |b| (1 + b^2)^((d+1)/2) e^(-2|b| t), 2|b| times this tail,
    is the bound state's pole: the one part of I_b that does not oscillate.
    Its integral over [0, infty) is minus coeffs.bound_state_mass, which
    raises ValueError where it overflows a float. ``s`` is an array.
    """
    if b >= 0.0:
        return np.zeros_like(s)
    return -coeffs.bound_state_mass(d, b) * np.exp(2.0 * b * s)


def _i_b_partial(d, b, big_t, abs_tol):
    """int_0^T I_b(t) dt as one phi-integral, the t-integral done in closed form.

    int_0^T cos(2ts) dt = sin(2Ts)/(2s) and int_0^T sin(2ts) dt = sin(Ts)^2/s
    with s = sin(phi). One _phi_quadrature, on the mesh i_b uses at t = T,
    returns the QuadResult. Every Kronrod node is interior, so s > 0.
    """

    def combine(sin_phi, fc, fs):
        return (0.5 * fc * np.sin(2.0 * big_t * sin_phi) + fs * np.sin(big_t * sin_phi) ** 2) / sin_phi

    return _phi_quadrature(d, b, big_t, combine, abs_tol)


def _tail_amplitude(head, mid, full, err):
    """max |I_b - P_b| on [T, T + pi/2] from the partial integrals F at T, T + pi/4 and T + pi/2.

    Past the pole, R(s) = F(infty) - F(s) oscillates at frequency 2 only
    (the p = 1 endpoint of I_b), with half the amplitude of I_b - P_b. So
    full - head is about 2 R(T), and mid minus the phase average
    (head + full) / 2 is about -R(T + pi/4), a quarter period on. ``err``,
    the partial integrals' summed error estimates, is added: a loose
    quadrature can only raise the amplitude.
    """
    return 2.0 * math.hypot(0.5 * (full - head), mid - 0.5 * (head + full)) + err


def i_b_integral(d, b):
    """int_0^infty I_b(t) dt from closed-form partial integrals and a phase average.

    The truncation point T is 200 rounded up to a multiple of pi/4, for every
    b and d. Each partial integral F(s) = int_0^s I_b, s = T, T + pi/4 and
    T + pi/2, is one certified phi-quadrature (the t-integral is closed form).
    For b < 0 the pole's tail int_s^infty P_b (_pole_tail) is added to F(s)
    in closed form, so what is left past s is oscillatory,
    O(s^(-(d+3)/2)), whatever b is. Returning the average of F(T) and
    F(T + pi/2) cancels that oscillation to first order. The closing check
    bounds the residual tail by their difference and by the amplitude of
    I_b - P_b on [T, T + pi/2] that the three partial integrals measure
    (_tail_amplitude); it and the quadratures raise QuadratureError past the
    absolute tolerance _INTEGRAL_TOL. A b < 0 whose pole integral
    -pi (1 + b^2)^((d+1)/2) overflows a float raises ValueError.
    """
    d, b = coeffs.check_dimension(d), coeffs.check_coupling(b)
    ends = _QUARTER_PI * np.array([_T_QUARTERS, _T_QUARTERS + 1, _T_QUARTERS + 2])  # T, T + pi/4, T + pi/2
    tails = _pole_tail(d, b, ends)
    head, mid, full = (_i_b_partial(d, b, s, 0.25 * _INTEGRAL_TOL) for s in ends.tolist())
    head_value, mid_value, full_value = (np.array([head.value, mid.value, full.value]) + tails).tolist()
    value = 0.5 * (head_value + full_value)
    extra = full_value - head_value
    quad_err = head.error_estimate + full.error_estimate
    last_amp = _tail_amplitude(head_value, mid_value, full_value, quad_err + mid.error_estimate)
    tail_estimate = max(abs(extra), last_amp * _QUARTER_PI) * (4.0 / ends[0])
    if tail_estimate + quad_err > _INTEGRAL_TOL:
        raise QuadratureError(
            f"i_b_integral(d={d}, b={b}): tail estimate {tail_estimate:.3e} plus "
            f"panel error {quad_err:.3e} exceeds tolerance {_INTEGRAL_TOL:.3e}"
        )
    return value


def bound_state_overlap(b):
    """<Psi_b, e^(-s)> = sqrt(-2b)/(1 - b) for b < 0; 0 otherwise."""
    b = coeffs.check_coupling(b)
    if b >= 0.0:
        return 0.0
    return math.sqrt(-2.0 * b) / (1.0 - b)


def reconstruct(b, t):
    """Reconstruct v(t) for v(s) = e^(-s) from the generalized eigenfunctions.

    Uses the closed-form transforms int e^(-s) cos(sp) ds = 1/(1+p^2) and
    int e^(-s) sin(sp) ds = p/(1+p^2), so only the completeness integral
    itself is evaluated numerically, on [0, p_max]. Past p_max the integrand
    is (1 + b) (cos(tp) / p^2 + b sin(tp) / p^3) + O(p^-4), integrated in
    closed form. Where |1 + b| t <= _STATIC_TAIL (t = 0 among them) the tail
    takes cos(tp) as 1, with p_max = 300 max(1, |b|). Elsewhere it is
    integrated by parts to order p^-3; the terms it drops add up to at most
    2 |1 + b| (6 / t^2 + 3 |b| / t + 1 + b^2) / (t p_max^4), and p_max is the
    largest of 300 max(1, |b|), 12 / t and the point past which that, times
    2 / pi, stays below a quarter of the tolerance. At b = -1, where e^(-s)
    is proportional to the bound state, the integrand and both tails carry
    the factor 1 + b = 0, so the result is the bound-state part exactly.
    Raises ValueError where the integrand's (1 + p^2)(p^2 + b^2) overflows a
    float on [0, p_max], as it does once b * b does.
    """
    b, t = coeffs.check_coupling(b), _check_t(t)
    # Both tails assume p_max >> |b|.
    p_max = 300.0 * max(1.0, abs(b))
    static = abs(1.0 + b) * t <= _STATIC_TAIL
    if not static:
        dropped = abs(1.0 + b) * ((6.0 / t + 3.0 * abs(b)) / t + 1.0 + b * b) / t
        p_max = max(p_max, 12.0 / t, (16.0 * dropped / (math.pi * _RECONSTRUCT_TOL)) ** 0.25)
    p2 = p_max * p_max
    if math.isinf((1.0 + p2) * (p2 + b * b)):
        raise ValueError(f"reconstruct(b={b}, t={t}): (1 + p^2)(p^2 + b^2) overflows a float "
                         f"below p_max = {p_max:.3e}")
    bound_part = psi_bound(b, t) * bound_state_overlap(b)

    def integrand(p):
        p2 = p * p
        return (1.0 + b) * p * (p * np.cos(t * p) + b * np.sin(t * p)) / ((1.0 + p2) * (p2 + b * b))

    spacing = max(0.25 if t <= 1.0 else math.pi / (4.0 * t), p_max / 4000.0)
    breaks = np.arange(spacing, p_max, spacing)
    res = adaptive_quadrature(integrand, 0.0, p_max, abs_tol=_RECONSTRUCT_TOL / 4.0,
                              breakpoints=breaks, max_panels=80000)
    if static:
        tail = (1.0 + b) / p_max
    else:
        tp = t * p_max
        tail = (1.0 + b) * (-math.sin(tp) / (t * p_max**2)
                            + 2.0 * math.cos(tp) / (t * t * p_max**3)
                            + b * math.cos(tp) / (t * p_max**3))
    return (2.0 / math.pi) * (res.value + tail) + bound_part
