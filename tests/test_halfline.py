import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robin_semiclassics import coeffs, halfline
from robin_semiclassics.errors import QuadratureError
from robin_semiclassics.quadrature import adaptive_quadrature, panel_rule

B_GRID = [-3.0, -1.0, -0.4, 0.0, 0.5, 1.0, 2.0, 5.0]
T_GRID = [0.0, 0.2, 0.7, 1.5, 3.0, 8.0]


def test_psi_special_values():
    assert halfline.psi(0.0, 1.3) == math.cos(1.3)
    assert abs(halfline.psi(1.0, 0.0) - 1.0 / math.sqrt(2.0)) < 1e-16


def test_psi_uniform_bound():
    for b in B_GRID:
        for t in T_GRID:
            assert halfline.psi(b, t) ** 2 <= 1.0 + 1e-15


def test_psi_double_angle_identity():
    # psi_b^2 = 1/2 + ((1-b^2) cos 2t + 2b sin 2t) / (2 (1+b^2))
    for b in B_GRID:
        for t in T_GRID:
            lhs = halfline.psi(b, t) ** 2
            rhs = 0.5 + ((1 - b * b) * math.cos(2 * t) + 2 * b * math.sin(2 * t)) / (2 * (1 + b * b))
            assert abs(lhs - rhs) <= 1e-14


@pytest.mark.parametrize("b", [1e200, -1e200, 1.7e308])
def test_psi_for_huge_b(b):
    # sqrt(1 + b^2) once overflowed to inf past |b| ~ 1.3e154, giving psi = 0.
    sign = math.copysign(1.0, b)
    assert abs(halfline.psi(b, 1.0) - sign * math.sin(1.0)) <= 1e-15
    assert abs(halfline.psi_derivative(b, 1.0) - sign * math.cos(1.0)) <= 1e-15


def test_boundary_conditions_exact():
    for b in B_GRID:
        assert abs(halfline.psi_derivative(b, 0.0) - b * halfline.psi(b, 0.0)) <= 1e-16
        assert abs(halfline.psi_bound_derivative(b, 0.0) - b * halfline.psi_bound(b, 0.0)) <= 1e-16


def test_ode_residuals_fd():
    eta = 1e-3
    for b in B_GRID:
        for t in (0.5, 1.1, 2.7):
            res = (halfline.psi(b, t - eta) - 2 * halfline.psi(b, t) + halfline.psi(b, t + eta)) / eta**2
            assert abs(res + halfline.psi(b, t)) <= eta**2
            if b < 0.0:
                res = (halfline.psi_bound(b, t - eta) - 2 * halfline.psi_bound(b, t)
                       + halfline.psi_bound(b, t + eta)) / eta**2
                scale = (1.0 + b**4) * max(halfline.psi_bound(b, t), 1.0)
                assert abs(res - b * b * halfline.psi_bound(b, t)) <= scale * eta**2


def test_psi_bound_branches_and_norm():
    assert halfline.psi_bound(0.5, 3.0) == 0.0
    assert halfline.psi_bound(0.0, 1.0) == 0.0
    assert abs(halfline.psi_bound(-1.0, 0.0) - math.sqrt(2.0)) < 1e-15
    # L2 normalization via quadrature
    res = adaptive_quadrature(lambda t: halfline.psi_bound(-2.0, 0.0) ** 2 * np.exp(-8.0 * t),
                              0.0, 10.0, abs_tol=1e-11)
    assert abs(res.value - 0.5) < 1e-10  # tail e^(-80) negligible; int_0^inf 4 e^(-4t) crosschecked below
    full = adaptive_quadrature(lambda t: 4.0 * np.exp(-4.0 * t), 0.0, 12.0, abs_tol=1e-11)
    assert abs(full.value - 1.0) < 1e-10


def test_i_b_closed_values():
    assert abs(halfline.i_b(2, 0.0, 0.0) - 3.0 * math.pi / 16.0) <= 1e-9
    # int (1-p^2)^(3/2) (p^2-1)/(p^2+1) dp = pi (43/16 - 2 sqrt(2))
    closed = math.pi * (43.0 / 16.0 - 2.0 * math.sqrt(2.0))
    assert abs(halfline.i_b(2, 1.0, 0.0) - closed) <= 1e-9


def test_i_b_riemann_oracle():
    # brute-force midpoint rule, 10^6 nodes, for (d, b, t) = (2, 1, 0)
    p = (np.arange(1_000_000) + 0.5) / 1_000_000
    brute = float(np.mean((1 - p * p) ** 1.5 * (p * p - 1) / (p * p + 1)))
    assert abs(halfline.i_b(2, 1.0, 0.0) - brute) <= 5e-9


@pytest.mark.parametrize("b,t", [(-2.0, 0.0), (-0.5, 0.9), (0.7, 0.9), (3.0, 4.0), (-2.0, 4.0), (0.7, 0.0)])
def test_i_b_psi_identity(b, t):
    # I_b(t) = int (1-p^2)^((d+1)/2) (2 psi_(b/p)^2(tp) - 1) dp, substituting
    # the double-angle identity; evaluated through the psi implementation.
    psi_vec = np.vectorize(halfline.psi)

    def integrand(p):
        return (1.0 - p * p) ** 1.5 * (2.0 * psi_vec(b / p, t * p) ** 2 - 1.0)

    spacing = min(0.2, math.pi / (2.0 * t) if t > 0 else 0.2)
    res = adaptive_quadrature(integrand, 0.0, 1.0, abs_tol=1e-9,
                              breakpoints=np.arange(spacing, 1.0, spacing))
    assert abs(halfline.i_b(2, b, t) - res.value) <= 1e-9


def test_i_b_integral_values():
    assert abs(halfline.i_b_integral(2, 0.0) - math.pi / 4.0) <= 1e-6
    closed = -math.pi / 4.0 + math.pi * (math.sqrt(2.0) - 1.25)
    assert abs(halfline.i_b_integral(2, 1.0) - closed) <= 1e-6


def test_i_b_integral_matches_l2_rearranged():
    b = -0.5
    target = coeffs.l2(2, b).value / coeffs.c_d(2).value - math.pi * (b * b + 1.0) ** 1.5
    assert abs(halfline.i_b_integral(2, b) - target) <= 1e-6


def test_i_b_integral_tail_tolerance_failure(monkeypatch):
    monkeypatch.setattr(halfline, "_INTEGRAL_TOL", 1e-14)
    with pytest.raises(QuadratureError, match="tail estimate"):
        halfline.i_b_integral(2, 0.3)


def test_i_b_integral_tail_amplitude_failure(monkeypatch):
    # The phase average's closing check: a tail amplitude of 1 on [T, T + pi/2]
    # bounds the residual tail by about pi / T, far past the tolerance.
    monkeypatch.setattr(halfline, "_max_abs_i_b", lambda *args: 1.0)
    with pytest.raises(QuadratureError, match="tail estimate"):
        halfline.i_b_integral(2, -0.5)


def test_i_b_abs_integral_bounded_and_decaying():
    # int_0^T |I_b| dt stays under an empirical envelope, uniformly on a b grid,
    # and |I_b(t)| decays like t^(-(d+3)/2): t^(5/2) |I_b(t)| <= 1 for t >= 5
    # (measured maximum 0.85).
    ts = np.linspace(0.0, 60.0, 1201)
    for b in (-5.0, -1.0, 0.0, 2.0, 5.0):
        vals = np.abs([halfline.i_b(2, b, t) for t in ts])
        partial = np.cumsum((vals[1:] + vals[:-1]) * 0.5 * (ts[1] - ts[0]))
        assert partial[-1] < 10.0
        tail = ts >= 5.0
        assert np.all(ts[tail] ** 2.5 * vals[tail] <= 1.0), b


@pytest.mark.parametrize("b", [-2.0, -0.5, 0.5, 2.0, -0.1, -0.05, 0.05, -0.01, 0.01, -1e-4, 1e-4])
def test_l2_via_i_b_integral(b):
    # l2 is the reference (mpmath-certified to 1e-13); the gap is held to the
    # absolute tolerance 1e-7 of i_b_integral in every dimension. Small |b|
    # once needed a truncation point of 50/|b|, past a cap of 3000.
    for d in (2, 3, 5, 8):
        lhs = halfline.i_b_integral(d, b)
        if b < 0.0:
            lhs += math.pi * (b * b + 1.0) ** (0.5 * (d + 1))
        assert abs(lhs - coeffs.l2(d, b).value / coeffs.c_d(d).value) <= 1e-7, d


@pytest.mark.parametrize("d", [2, 5])
@pytest.mark.parametrize("b", [-2.0, -0.1, 0.0, 0.5])
def test_i_b_partial_matches_t_quadrature(d, b):
    # The closed-form t-integral against quadrature in t of I_b itself; T is
    # not a multiple of pi/4, so no phase average can hide an error.
    def kernel(ts):
        return np.array([halfline.i_b(d, b, t, abs_tol=1e-12) for t in ts])

    for big_t in (3.3, 17.0):
        swapped = halfline._i_b_partial(d, b, big_t, 1e-11)
        direct = adaptive_quadrature(kernel, 0.0, big_t, abs_tol=1e-11,
                                     breakpoints=np.arange(0.5, big_t, 0.5))
        assert abs(swapped.value - direct.value) <= 1e-10, big_t


@pytest.mark.parametrize("d", [1, 9, 50, -3])
def test_dimension_outside_the_coefficient_range_rejected(d):
    # d = -3 once ran i_b to its 60,000-panel limit, and d = 50 returned a value.
    with pytest.raises(ValueError, match=f"dimension must lie in \\[2, 8\\], got {d}"):
        halfline.i_b(d, 1.0, 1.0)
    with pytest.raises(ValueError, match=f"dimension must lie in \\[2, 8\\], got {d}"):
        halfline.i_b_integral(d, 1.0)


def test_bound_state_overlap():
    assert abs(halfline.bound_state_overlap(-1.0) - math.sqrt(2.0) / 2.0) < 1e-15
    assert halfline.bound_state_overlap(0.3) == 0.0


def test_reconstruct_cases():
    assert abs(halfline.reconstruct(0.0, "exp_decay", 1.0) - math.exp(-1.0)) <= 1e-4
    assert abs(halfline.reconstruct(-1.0, "exp_decay", 0.5) - math.exp(-0.5)) <= 1e-4
    assert abs(halfline.reconstruct(2.0, "exp_decay", 2.0) - math.exp(-2.0)) <= 1e-4
    # mixed bound + continuum contribution
    assert abs(halfline.reconstruct(-0.4, "exp_decay", 1.0) - math.exp(-1.0)) <= 1e-4


def test_reconstruct_rejects_unknown_fn():
    with pytest.raises(ValueError):
        halfline.reconstruct(0.0, "gaussian", 1.0)


def test_negative_t_rejected():
    with pytest.raises(ValueError):
        halfline.psi(1.0, -0.1)
    with pytest.raises(ValueError):
        halfline.i_b(2, 0.0, -1.0)
    # Non-finite b or t is rejected, not carried through as nan.
    for bad in (math.nan, math.inf, -math.inf):
        for call in (lambda: halfline.psi(1.0, bad), lambda: halfline.psi(bad, 1.0),
                     lambda: halfline.psi_derivative(bad, 1.0), lambda: halfline.psi_bound(-1.0, bad),
                     lambda: halfline.psi_bound_derivative(bad, 1.0), lambda: halfline.i_b(2, 0.5, bad),
                     lambda: halfline.i_b(2, bad, 1.0), lambda: halfline.i_b_integral(2, bad),
                     lambda: halfline.bound_state_overlap(bad),
                     lambda: halfline.reconstruct(bad, "exp_decay", 1.0),
                     lambda: halfline.reconstruct(0.5, "exp_decay", bad)):
            with pytest.raises(ValueError, match="finite"):
                call()


# The 31 points t0 + j delta of [T, T + pi/2] at which i_b_integral samples
# |I_b - P_b|, with T = 200 rounded up to a multiple of pi/4.
T0 = 0.25 * math.pi * 255
DELTA = (0.25 * math.pi * 257 - T0) / 30.0
TAIL_POINTS = T0 + DELTA * np.arange(31)


def pole(d, b, t):
    """The bound state's pole P_b(t) of I_b(t), 0 for b >= 0."""
    if b >= 0.0:
        return 0.0
    return -2.0 * math.pi * abs(b) * (1.0 + b * b) ** (0.5 * (d + 1)) * math.exp(-2.0 * abs(b) * t)


def direct_max_abs_i_b(d, b, ts, abs_tol=1e-9):
    """The tail amplitude evaluated directly: a fresh cos and sin at every (t, node) pair.

    The same mesh and Gauss-Kronrod rule as _max_abs_i_b, and the same
    fallback to i_b for a t whose summed error exceeds abs_tol.
    """
    mesh = halfline._phi_mesh(b, float(ts[-1]))
    amp = 0.0
    for t in ts:
        kron, err = panel_rule(halfline._i_b_integrand(d, b, t), mesh[:-1], mesh[1:])
        value = kron.sum() if err.sum() <= abs_tol else halfline.i_b(d, b, t, abs_tol)
        amp = max(amp, abs(value - pole(d, b, t)))
    return amp


def rotation_bound(ts):
    """An a-priori form of _max_abs_i_b's largest row rounding bound rho_j * 4 sum(half * max |u|).

    |u| <= 1, and the half widths sum to pi/4.
    """
    eps = np.finfo(float).eps
    return math.pi * (3.0 * ts[-1] + halfline._ROTATION_ULPS * ts.size) * eps


@pytest.mark.parametrize("d", [2, 5])
@pytest.mark.parametrize("b", [-2.0, -0.5, -0.1, 0.0, 0.5, 2.0, -0.01])
def test_shared_mesh_tail_amplitude_matches_per_t_i_b(d, b):
    per_t = max(abs(halfline.i_b(d, b, t) - pole(d, b, t)) for t in TAIL_POINTS)
    assert abs(halfline._max_abs_i_b(d, b, T0, DELTA, 31) - per_t) <= 1e-9


def test_shared_mesh_tail_amplitude_falls_back_per_t(monkeypatch):
    # Rows whose error estimate misses the tolerance are recomputed by i_b,
    # so a wrong value on such a row cannot reach the maximum.
    d, b = 2, -0.5
    per_t = max(abs(halfline.i_b(d, b, t) - pole(d, b, t)) for t in TAIL_POINTS)
    panel_sums = halfline.panel_sums
    rows = []

    def failing_rows(y, half):
        kron, err = panel_sums(y, half)
        if len(rows) % 2 == 0:
            kron[:], err[:] = 1.0, 1.0
        rows.append(None)
        return kron, err

    monkeypatch.setattr(halfline, "panel_sums", failing_rows)
    assert abs(halfline._max_abs_i_b(d, b, T0, DELTA, 31) - per_t) <= 1e-9
    assert len(rows) == 31
    # The rounding bound is part of a row's error: past abs_tol it alone sends
    # every row to i_b, whose values carry no such bound.
    monkeypatch.setattr(halfline, "panel_sums", panel_sums)
    monkeypatch.setattr(halfline, "_ROTATION_ULPS", 1e12)
    i_b, calls = halfline.i_b, []
    monkeypatch.setattr(halfline, "i_b", lambda *args: calls.append(args) or i_b(*args))
    assert abs(halfline._max_abs_i_b(d, b, T0, DELTA, 31) - per_t) <= 1e-12
    assert [args[2] for args in calls] == TAIL_POINTS.tolist()


couplings = st.one_of(st.just(0.0), st.builds(lambda sign, exponent: sign * 10.0**exponent,
                                              st.sampled_from((1.0, -1.0)), st.floats(-323.0, 5.0)))


@settings(max_examples=200, deadline=None)
@given(d=st.integers(2, 8), b=couplings)
@example(d=2, b=-0.1)
@example(d=8, b=-1e5)
@example(d=2, b=5e-324)
def test_rotated_tail_amplitude_matches_direct_evaluation(d, b):
    # Each row of _max_abs_i_b is off from the exact rule by at most its
    # rounding bound B, which it adds; the direct evaluation is off by at
    # most B too. So new - direct lies in [-B, 3B].
    new = halfline._max_abs_i_b(d, b, T0, DELTA, 31)
    direct = direct_max_abs_i_b(d, b, TAIL_POINTS)
    bound = rotation_bound(TAIL_POINTS)
    assert -bound <= new - direct <= 3.0 * bound


@pytest.mark.parametrize("d", [2, 5, 8])
@pytest.mark.parametrize("b", [-1e-4, -0.01, -0.05])
def test_pole_is_the_part_of_i_b_that_does_not_oscillate(d, b):
    # Past the pole, I_b is an oscillation from p = 1 of amplitude about
    # Gamma((d+3)/2) / (2 t^((d+3)/2)); at t = 50 the pole is far larger.
    for t in (50.0, 200.0):
        envelope = math.gamma(0.5 * (d + 3)) / (2.0 * t ** (0.5 * (d + 3)))
        rest = max(abs(halfline.i_b(d, b, s) - pole(d, b, s)) for s in np.linspace(t, t + math.pi, 17))
        assert rest <= 1.5 * envelope, t
        if t == 50.0:
            assert abs(pole(d, b, t)) > 10.0 * envelope
    # The pole's closed-form tail, and P_b = 2|b| times it.
    tail = halfline._pole_tail(d, b, np.array([0.0, 200.0]))
    assert tail[0] == -math.pi * (1.0 + b * b) ** (0.5 * (d + 1))
    assert math.isclose(2.0 * abs(b) * tail[1], pole(d, b, 200.0), rel_tol=1e-14)


@pytest.mark.parametrize("b", [1e-300, -1e-300, 1e-200, -1e-200, 5e-324])
def test_i_b_for_tiny_b_is_i_b_at_zero(b):
    # The cluster cuts at arcsin|b| 2^j once made sin^2 + b^2 round to 0 there.
    for d in (2, 8):
        for t in (0.0, 1.0, 200.0):
            assert abs(halfline.i_b(d, b, t) - halfline.i_b(d, 0.0, t)) <= 1e-9, (d, t)


@pytest.mark.parametrize("b", [1e-300, -1e-300, 1e-200, -5e-324, 1e-160, -1e-100])
def test_i_b_integral_for_tiny_b(b):
    # l2 is continuous at b = 0, and the bound-state term tends to pi, so
    # int I_b tends to int I_0 from above and to int I_0 - pi from below.
    for d in (2, 5, 8):
        want = halfline.i_b_integral(d, 0.0) - (math.pi if b < 0.0 else 0.0)
        assert abs(halfline.i_b_integral(d, b) - want) <= 1e-7, d


@pytest.mark.parametrize("b", [1e200, -1e200, 1.4e154, -1e160, 1.7e308])
def test_i_b_for_huge_b_is_minus_i_b_at_zero(b):
    # b * b overflows past |b| ~ 1.3e154; the kernel then scales by sin(phi) / b.
    for d in (2, 8):
        for t in (0.0, 1.0, 200.0):
            assert abs(halfline.i_b(d, b, t) + halfline.i_b(d, 0.0, t)) <= 1e-12, (d, t)


def test_i_b_integral_for_huge_b():
    # The kernel tends to -I_0, and so does its integral for b -> +infinity.
    assert abs(halfline.i_b_integral(2, 1e200) + halfline.i_b_integral(2, 0.0)) <= 1e-7
    # For b < 0 the pole integral -pi (1 + b^2)^((d+1)/2) leaves the floats
    # at |b| ~ 1.3e154 for every d, and earlier for larger d.
    for d, b in ((2, -1e200), (8, -1e50)):
        with pytest.raises(ValueError, match="pole integral .* overflows"):
            halfline.i_b_integral(d, b)
