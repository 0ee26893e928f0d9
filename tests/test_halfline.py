import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robin_semiclassics import coeffs, halfline
from robin_semiclassics.errors import QuadratureError
from robin_semiclassics.quadrature import QuadResult, adaptive_quadrature

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
    # The closing check reads the tail amplitude from the partial integral at
    # T + pi/4. Shifted by 1, it gives an amplitude of about 2 and bounds the
    # residual tail by about 2 pi / T, far past the tolerance; so does an
    # error estimate of 1 on that partial integral alone.
    partial = halfline._i_b_partial
    mid = 0.25 * math.pi * (halfline._T_QUARTERS + 1)
    for shift, error in ((1.0, 0.0), (0.0, 1.0)):
        def corrupt_mid(d, b, big_t, abs_tol):
            res = partial(d, b, big_t, abs_tol)
            if big_t != mid:
                return res
            return QuadResult(res.value + shift, res.error_estimate + error, res.panels)

        monkeypatch.setattr(halfline, "_i_b_partial", corrupt_mid)
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
def test_i_b_partial_matches_t_quadrature(d, b, monkeypatch):
    # The closed-form t-integral against quadrature in t of I_b itself; T is
    # not a multiple of pi/4, so no phase average can hide an error.
    monkeypatch.setattr(halfline, "_KERNEL_TOL", 1e-12)

    def kernel(ts):
        return np.array([halfline.i_b(d, b, t) for t in ts])

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


# b = +-10^u from the least subnormal to near the largest float, and the largest float itself.
COUPLINGS = st.one_of(
    st.builds(lambda sign, u: sign * 10.0**u, st.sampled_from((-1.0, 1.0)), st.floats(-323.3, 308.25)),
    st.sampled_from((-1.7976931348623157e308, 1.7976931348623157e308)))
TINY = 2.0**-1074  # the least subnormal


@settings(max_examples=300, deadline=None)
@given(b=COUPLINGS, t=st.one_of(st.just(0.0), st.floats(-310.0, 2.0).map(lambda v: 10.0**v)))
@example(b=-1e308, t=0.0)  # -2b overflowed, so psi_bound was inf, then nan at t = 1e-300
@example(b=-1e308, t=1e-300)
@example(b=0.0, t=1.0)
def test_property_model_functions_match_mpmath(b, t):
    # Against 40 digits, within a few ulps of the terms' magnitudes. psi and
    # psi' add two terms that may cancel, so their bound is in ulps of the
    # terms' size; psi_bound's exp(b t) moves by |b t| ulps for the one
    # rounding of b t; a product or quotient that leaves the normal floats
    # rounds to a multiple of the least subnormal.
    eps = 2.0**-52
    with mpmath.workdps(40):
        B, T = mpmath.mpf(b), mpmath.mpf(t)
        norm, cos, sin = mpmath.sqrt(1 + B * B), mpmath.cos(T), mpmath.sin(T)
        bound = mpmath.sqrt(-2 * B) if b < 0.0 else mpmath.mpf(0)
        checks = [
            ("psi", halfline.psi(b, t), (cos + B * sin) / norm,
             4 * eps * (abs(cos) + abs(B * sin)) / norm + 2 * eps * abs(cos + B * sin) / norm + 4 * TINY),
            ("psi_derivative", halfline.psi_derivative(b, t), (-sin + B * cos) / norm,
             4 * eps * (abs(sin) + abs(B * cos)) / norm + 2 * eps * abs(-sin + B * cos) / norm + 4 * TINY),
            ("psi_bound", halfline.psi_bound(b, t), bound * mpmath.exp(B * T),
             (2 + abs(B * T)) * eps * bound * mpmath.exp(B * T) + (bound + 1) * TINY),
            ("bound_state_overlap", halfline.bound_state_overlap(b), bound / (1 + abs(B)),
             2 * eps * bound / (1 + abs(B))),
        ]
        for name, got, exact, tol in checks:
            assert math.isfinite(got) and abs(got - exact) <= tol, (name, b, t, got, float(exact))


@settings(max_examples=300, deadline=None)
@given(b=st.one_of(COUPLINGS, st.just(0.0)), d=st.integers(2, 8))
def test_property_kernel_factors_are_finite_and_keep_their_bits(b, d):
    # Finite for every finite b; for 0 < |b| < 1.3e154, where b * b is a
    # float, bit-equal to the unscaled (s^2 - b^2) / (s^2 + b^2) and
    # 2 b s / (s^2 + b^2). The nodes reach 2^-59 pi/2 and within 1e-6 of pi/2.
    phi = np.concatenate([np.linspace(1e-6, 0.5 * math.pi - 1e-6, 64), 0.5 * math.pi * 2.0 ** -np.arange(1, 60)])
    sin_phi, cos_phi = np.sin(phi), np.cos(phi)
    fc, fs = halfline._kernel_factors(d, b, sin_phi, cos_phi)
    assert np.isfinite(fc).all() and np.isfinite(fs).all()
    if 0.0 < abs(b) < 1.3e154:
        weight, s2 = cos_phi ** (d + 2), sin_phi * sin_phi
        denom = s2 + b * b
        assert np.array_equal(fc, weight * (s2 - b * b) / denom)
        assert np.array_equal(fs, weight * (2.0 * b * sin_phi) / denom)


def test_reconstruct_cases():
    # (-0.4, 1) mixes the bound state and the continuum. |b| >= 10 once
    # returned values off by 2.4e-7 (b = 10) to 0.04 (b = 1e3): the tail
    # past p_max = 300 assumed p_max >> |b|.
    cases = [(0.0, 1.0), (-1.0, 0.5), (2.0, 2.0), (-0.4, 1.0)]
    cases += [(b, t) for b in (10.0, -10.0, 30.0, -30.0, 300.0, -300.0, 1e3) for t in (0.5, 2.0)]
    # Small t: a tail that took cos(tp) as 1 for t max(1, |b|) < 4e-4 was
    # off by about t (1e-4 at b = 0, t = 1e-4; 2.9e-4 at b = 2).
    cases += [(b, t) for b in (0.0, -0.4, 2.0, 10.0, -10.0) for t in (1e-6, 1e-5, 1e-4, 3e-4)]
    cases += [(b, t) for b in (0.0, 2.0, -10.0) for t in (0.0, 1e-30, 1e-9)]
    # t p_max near 12, where the tail's dropped p^-4 terms once reached 6e-6.
    cases += [(10.0, 4e-3), (-10.0, 4e-3), (10.0, 1e-3), (0.0, 0.04), (2.0, 0.013), (300.0, 1.3e-4),
              (1e3, 4e-5)]
    for b, t in cases:
        assert abs(halfline.reconstruct(b, t) - math.exp(-t)) <= 1e-6, (b, t)
    # At b = 1e5 (once off by 331), p_max = 3e7: the oscillation at t = 0.5
    # needs more panels than the budget, and reconstruct raises.
    with pytest.raises(QuadratureError, match="panels"):
        halfline.reconstruct(1e5, 0.5)


@pytest.mark.parametrize("b", [1e200, -1e200, 1e100])
def test_reconstruct_names_an_overflowing_integrand(b):
    # (1 + p^2)(p^2 + b^2) overflows once b * b does, and before it at
    # p_max = 300 |b|; no RuntimeWarning comes first (they are errors here).
    with pytest.raises(ValueError, match="overflows"):
        halfline.reconstruct(b, 1.0)


def test_reconstruct_at_b_minus_1_is_the_bound_state_part():
    # e^(-s) is proportional to the b = -1 bound state: the continuum
    # integrand and both tails carry the factor 1 + b = 0, so nothing is
    # added to the bound-state part, not even a rounding.
    for t in (0.0, 1e-3, 0.5, 1.0, 2.0, 10.0, 100.0):
        want = halfline.psi_bound(-1.0, t) * halfline.bound_state_overlap(-1.0)
        assert halfline.reconstruct(-1.0, t) == want, t


def test_i_b_panel_budget_caps_t():
    # The mesh seeds about 2 t panels: t = 3e4 fits the budget, and t = 1e9
    # raises before a mesh of 2e9 cuts is built.
    assert math.isfinite(halfline.i_b(2, 1.0, 3e4))
    start = time.perf_counter()
    with pytest.raises(QuadratureError, match="needs 2e\\+09 panels"):
        halfline.i_b(2, 1.0, 1e9)
    assert time.perf_counter() - start < 1.0


def test_negative_t_rejected():
    with pytest.raises(ValueError):
        halfline.psi(1.0, -0.1)
    with pytest.raises(ValueError):
        halfline.i_b(2, 0.0, -1.0)
    # Non-finite b or t is rejected, not carried through as nan.
    for bad in (math.nan, math.inf, -math.inf):
        for call in (lambda: halfline.psi(1.0, bad), lambda: halfline.psi(bad, 1.0),
                     lambda: halfline.psi_derivative(bad, 1.0), lambda: halfline.psi_bound(-1.0, bad),
                     lambda: halfline.i_b(2, 0.5, bad), lambda: halfline.i_b(2, bad, 1.0),
                     lambda: halfline.i_b_integral(2, bad),
                     lambda: halfline.bound_state_overlap(bad),
                     lambda: halfline.reconstruct(bad, 1.0),
                     lambda: halfline.reconstruct(0.5, bad)):
            with pytest.raises(ValueError, match="finite"):
                call()


# 31 evenly spaced points of [T, T + pi/2], with T = 200 rounded up to a
# multiple of pi/4 as in i_b_integral.
TAIL_POINTS = np.linspace(0.25 * math.pi * 255, 0.25 * math.pi * 257, 31)


def pole(d, b, t):
    """The bound state's pole P_b(t) of I_b(t), 0 for b >= 0."""
    if b >= 0.0:
        return 0.0
    return -2.0 * math.pi * abs(b) * (1.0 + b * b) ** (0.5 * (d + 1)) * math.exp(-2.0 * abs(b) * t)


@pytest.mark.parametrize("d", [2, 5, 8])
@pytest.mark.parametrize("b", [-2.0, -0.5, -0.1, -0.01, 0.0, 0.5, 2.0, 1e5])
def test_tail_amplitude_matches_per_t_i_b(d, b, monkeypatch):
    # The amplitude of I_b - P_b that the closing check reads from three
    # partial integrals, against its maximum over the 31 points, each t
    # evaluated by i_b.
    amplitude, amplitudes = halfline._tail_amplitude, []

    def record(*args):
        amplitudes.append(amplitude(*args))
        return amplitudes[-1]

    monkeypatch.setattr(halfline, "_tail_amplitude", record)
    halfline.i_b_integral(d, b)
    per_t = max(abs(halfline.i_b(d, b, t) - pole(d, b, t)) for t in TAIL_POINTS)
    assert 0.95 <= amplitudes[0] / per_t <= 1.05


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
    # b * b overflows past |b| ~ 1.3e154; the kernel scales sin(phi) and b by a power of two first.
    for d in (2, 8):
        for t in (0.0, 1.0, 200.0):
            assert abs(halfline.i_b(d, b, t) + halfline.i_b(d, 0.0, t)) <= 1e-12, (d, t)


def test_i_b_integral_for_huge_b():
    # The kernel tends to -I_0, and so does its integral for b -> +infinity.
    assert abs(halfline.i_b_integral(2, 1e200) + halfline.i_b_integral(2, 0.0)) <= 1e-7
    # For b < 0 the pole integral -pi (1 + b^2)^((d+1)/2) leaves the floats
    # at |b| ~ 1.3e154 for every d, and earlier for larger d.
    for d, b in ((2, -1e200), (8, -1e50)):
        with pytest.raises(ValueError, match="bound-state mass .* overflows"):
            halfline.i_b_integral(d, b)
