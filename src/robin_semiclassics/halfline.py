"""Half-line Robin model operator -d^2/dt^2 with boundary condition v'(0) = b v(0).

Generalized eigenfunctions psi_b, the bound state Psi_b (b < 0 only),
the kernel I_b(t) and its integral over the half-line, and an
eigenfunction-expansion reconstruction used as a completeness check.

The integral is defined for every finite b whose pole integral
-pi (1 + b^2)^((d+1)/2) is a float. It is truncated at one point T for every
b and d; the bound state's pole, the one part of I_b that does not
oscillate, is integrated past T in closed form. The tail check past T
samples I_b on one node set, rotating each node's phase from one t to the
next.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from . import coeffs
from .errors import QuadratureError
from .quadrature import adaptive_quadrature, panel_nodes, panel_sums

_HALF_PI = 0.5 * math.pi
_PHI_SPACING = math.pi / 16.0  # widest phi panel, whatever t is
_ROTATION_ULPS = 8.0  # per-step relative rounding of _max_abs_i_b's phase rotation, in eps
_INTEGRAL_TOL = 1e-7  # absolute tolerance of i_b_integral
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


def psi_bound_derivative(b, t):
    """d/dt of the bound state; equals b * psi_bound(b, t)."""
    return b * psi_bound(b, t)


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
    """Panel cut points on [0, pi/2]: oscillation-sized plus a cluster at arcsin|b|.

    A cluster cut whose square is not a normal float is left out: near it
    sin^2 + b^2 may round to 0. The spike at arcsin|b| below the kept cuts
    integrates to O(|b|).
    """
    spacing = _PHI_SPACING
    if t_max > 0.0:
        spacing = min(spacing, math.pi / (4.0 * t_max))
    cuts = set(np.arange(0.0, _HALF_PI, spacing).tolist())
    cuts.add(_HALF_PI)
    if abs(b) < 1.0:
        q = math.asin(abs(b)) * 2.0 ** np.arange(-8, 9)
        cuts.update(q[(q * q >= sys.float_info.min) & (q < _HALF_PI)].tolist())
    return np.array(sorted(cuts))


def _i_b_integrand(d, b, t):
    """The I_b(t) integrand in phi."""

    def integrand(phi):
        sin_phi = np.sin(phi)
        cos_phi = np.cos(phi)
        fc, fs = _kernel_factors(d, b, sin_phi, cos_phi)
        arg = 2.0 * t * sin_phi
        return fc * np.cos(arg) + fs * np.sin(arg)

    return integrand


def i_b(d, b, t, abs_tol=1e-9):
    """Kernel I_b(t): the p-integral over [0, 1] of the oscillatory model density.

    Computed in the arcsin substitution with panels aligned to the
    cos(2tp) oscillation; non-convergence raises rather than truncates.
    """
    d, b, t = coeffs.check_dimension(d), coeffs.check_coupling(b), _check_t(t)
    mesh = _phi_mesh(b, t)
    res = adaptive_quadrature(_i_b_integrand(d, b, t), 0.0, _HALF_PI, abs_tol=abs_tol,
                              breakpoints=mesh[1:-1], max_panels=60000)
    return res.value


def _pole_integral(d, b):
    """int_0^infty P_b(t) dt = -pi (1 + b^2)^((d+1)/2), for b < 0.

    Raises ValueError where it overflows a float: i_b_integral could not be
    added to it to give l2 / c_d there.
    """
    try:
        value = -math.pi * (1.0 + b * b) ** (0.5 * (d + 1))
    except OverflowError:
        value = -math.inf
    if math.isinf(value):
        raise ValueError(f"i_b_integral(d={d}, b={b}): the pole integral "
                         f"-pi (1 + b^2)^((d+1)/2) overflows a float")
    return value


def _pole_tail(d, b, s):
    """int_s^infty P_b(t) dt = -pi (1 + b^2)^((d+1)/2) e^(-2|b| s) for b < 0, else 0.

    P_b(t) = -2 pi |b| (1 + b^2)^((d+1)/2) e^(-2|b| t), 2|b| times this tail,
    is the bound state's pole: the one part of I_b that does not oscillate.
    ``s`` is an array.
    """
    if b >= 0.0:
        return np.zeros_like(s)
    return _pole_integral(d, b) * np.exp(2.0 * b * s)


def _max_abs_i_b(d, b, t0, delta, count, abs_tol=1e-9):
    """max |I_b(t) - P_b(t)| over t_j = t0 + j delta, j < count, each plus its rounding bound.

    I_b is the Gauss-Kronrod sum on the one mesh i_b uses at the last t; that
    mesh resolves the oscillation of every smaller t. The nodes are evaluated
    once: with the kernel factors f_c, f_s and s = sin(phi) at each node,
    u = (f_c - i f_s) e^(2i t0 s) has the t0 integrand as its real part, and
    each next row multiplies u by z = e^(2i delta s). Against the exact rule at
    t_j, each node of row j is off by at most rho_j |u|, with
    rho_j = (3 t_j + _ROTATION_ULPS (j + 1)) eps: the rounded phase arguments
    give t_j eps, the rounded t grid 2 t_j eps, and each row's complex product
    and rounded e^(i theta) at most _ROTATION_ULPS eps. Both rules' weights
    sum to 2 on a panel, so rho_j times 4 sum(half width * max |u|) over the
    panels bounds the rounding of row j's Kronrod and Gauss sums. That bound
    is added to the row's summed Gauss-Kronrod error and to its
    |I_b - P_b|. A row whose error exceeds abs_tol falls back to its own
    adaptive i_b.
    """
    ts = t0 + delta * np.arange(count)
    mesh = _phi_mesh(b, float(ts[-1]))
    phi, half = panel_nodes(mesh[:-1], mesh[1:])
    sin_phi = np.sin(phi)
    fc, fs = _kernel_factors(d, b, sin_phi, np.cos(phi))
    u = (fc - 1j * fs) * np.exp(2j * t0 * sin_phi)
    z = np.exp(2j * delta * sin_phi)
    mass = 4.0 * float((half * np.abs(u).max(axis=-1)).sum())  # >= the Kronrod plus the Gauss sum of |u|
    rho = (3.0 * ts + _ROTATION_ULPS * np.arange(1, count + 1)) * np.finfo(float).eps
    poles = 2.0 * abs(b) * _pole_tail(d, b, ts)
    amp = 0.0
    for j in range(count):
        if j:
            u *= z
        kron, err = panel_sums(u.real, half)
        value, bound = float(kron.sum()), float(rho[j]) * mass
        if float(err.sum()) + bound > abs_tol:
            value, bound = i_b(d, b, ts[j], abs_tol), 0.0
        amp = max(amp, abs(value - poles[j]) + bound)
    return amp


def _i_b_partial(d, b, big_t, abs_tol):
    """int_0^T I_b(t) dt as one phi-integral, the t-integral done in closed form.

    int_0^T cos(2ts) dt = sin(2Ts)/(2s) and int_0^T sin(2ts) dt = sin(Ts)^2/s
    with s = sin(phi); the mesh is the one i_b uses at t = T. Every Kronrod
    node is interior, so s > 0.
    """
    mesh = _phi_mesh(b, big_t)

    def integrand(phi):
        sin_phi = np.sin(phi)
        fc, fs = _kernel_factors(d, b, sin_phi, np.cos(phi))
        return (0.5 * fc * np.sin(2.0 * big_t * sin_phi) + fs * np.sin(big_t * sin_phi) ** 2) / sin_phi

    return adaptive_quadrature(integrand, 0.0, _HALF_PI, abs_tol=abs_tol,
                               breakpoints=mesh[1:-1], max_panels=60000)


def i_b_integral(d, b):
    """int_0^infty I_b(t) dt from two closed-form partial integrals and a phase average.

    The truncation point T is 200 rounded up to a multiple of pi/4, for every
    b and d. Each partial integral F(s) = int_0^s I_b, s = T and T + pi/2, is
    one certified phi-quadrature (the t-integral is closed form). For b < 0
    the pole's tail int_s^infty P_b (_pole_tail) is added to F(s) in closed
    form, so what is left past s is oscillatory, O(s^(-(d+3)/2)), whatever b
    is. Returning the average of the two sums cancels that oscillation to
    first order. The closing check bounds the residual tail by the sums'
    difference and by |I_b - P_b| sampled at 31 points of [T, T + pi/2]
    (_max_abs_i_b); it and the quadratures raise QuadratureError past the
    absolute tolerance _INTEGRAL_TOL. A b < 0 whose pole integral
    -pi (1 + b^2)^((d+1)/2) overflows a float raises ValueError.
    """
    d, b = coeffs.check_dimension(d), coeffs.check_coupling(b)
    ends = _QUARTER_PI * np.array([_T_QUARTERS, _T_QUARTERS + 2])  # T and T + pi/2
    tails = _pole_tail(d, b, ends)
    head, full = (_i_b_partial(d, b, s, 0.25 * _INTEGRAL_TOL) for s in ends.tolist())
    head_value, full_value = (np.array([head.value, full.value]) + tails).tolist()
    value = 0.5 * (head_value + full_value)
    extra = full_value - head_value
    quad_err = head.error_estimate + full.error_estimate
    last_amp = _max_abs_i_b(d, b, ends[0], (ends[1] - ends[0]) / 30.0, 31)
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


def reconstruct(b, test_fn_id, t, abs_tol=1e-6):
    """Reconstruct v(t) for v(s) = e^(-s) from the generalized eigenfunctions.

    Uses the closed-form transforms int e^(-s) cos(sp) ds = 1/(1+p^2) and
    int e^(-s) sin(sp) ds = p/(1+p^2), so only the completeness integral
    itself is evaluated numerically.
    """
    if test_fn_id != "exp_decay":
        raise ValueError(f"unknown test function id {test_fn_id!r}")
    b, t = coeffs.check_coupling(b), _check_t(t)
    bound_part = psi_bound(b, t) * bound_state_overlap(b)
    if b == -1.0:
        # e^(-s) is proportional to the bound state; the continuum transform
        # p(1+b)/((1+p^2) sqrt(p^2+b^2)) vanishes identically.
        return bound_part

    def integrand(p):
        p2 = p * p
        return (1.0 + b) * p * (p * np.cos(t * p) + b * np.sin(t * p)) / ((1.0 + p2) * (p2 + b * b))

    static = t < 4e-4
    p_max = 300.0 if static else max(300.0, 12.0 / t)
    spacing = min(0.25 if t <= 1.0 else math.pi / (4.0 * t), 1.0)
    spacing = max(spacing, p_max / 4000.0)
    breaks = np.arange(spacing, p_max, spacing)
    res = adaptive_quadrature(integrand, 0.0, p_max, abs_tol=abs_tol / 4.0,
                              breakpoints=breaks, max_panels=80000)
    if static:
        tail = (1.0 + b) / p_max
    else:
        tp = t * p_max
        tail = (1.0 + b) * (-math.sin(tp) / (t * p_max**2)
                            + 2.0 * math.cos(tp) / (t * t * p_max**3)
                            + b * math.cos(tp) / (t * p_max**3))
    return (2.0 / math.pi) * (res.value + tail) + bound_part
