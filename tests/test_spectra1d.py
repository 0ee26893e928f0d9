import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from conftest import neumann_count, secular_positive
from robin_semiclassics import spectra1d
from robin_semiclassics.errors import EnumerationError
from robin_semiclassics.spectra1d import (
    RobinInterval,
    enumerate_eigenvalues,
    fd_oracle,
    negative_eigenvalues,
)


def richardson(iv, n_eigs, n_grid=6000):
    coarse = fd_oracle(iv, n_grid, n_eigs)
    fine = fd_oracle(iv, 2 * n_grid, n_eigs)
    return [(4.0 * f - c) / 3.0 for c, f in zip(coarse, fine)]


def test_secular_positive_neumann_nodes():
    iv = RobinInterval(1.0, 0.0, 0.0)
    for n in range(1, 6):
        k = n * math.pi
        assert abs(secular_positive(iv, k)) < 1e-9 * k * k


def test_positive_coefficients_have_no_bound_states():
    assert negative_eigenvalues(RobinInterval(1.0, 1.0, 2.0)) == []


def test_neumann_spectrum_explicit():
    sp = enumerate_eigenvalues(RobinInterval(1.0, 0.0, 0.0), 100.0)
    expected = [0.0] + [(n * math.pi) ** 2 for n in (1, 2, 3)]
    assert len(sp.eigenvalues) == 4
    assert max(abs(a - b) for a, b in zip(sp.eigenvalues, expected)) < 1e-10


def test_deep_well_long_interval():
    # L = 10, c_left = -1: root at kappa = coth(10), lambda ~ -1 + O(e^-20)
    negs = negative_eigenvalues(RobinInterval(10.0, -1.0, 0.0))
    assert len(negs) == 1
    assert abs(negs[0] + 1.0) < 1e-4


def test_symmetric_well_root_count_threshold():
    # kappa coth(kappa L / 2) = gamma has a root only for gamma > 2/L, so
    # c = -1 on both ends of a unit interval binds a single state while
    # c = -3 binds two.
    assert len(negative_eigenvalues(RobinInterval(1.0, -1.0, -1.0))) == 1
    assert len(negative_eigenvalues(RobinInterval(1.0, -3.0, -3.0))) == 2
    fd = fd_oracle(RobinInterval(1.0, -1.0, -1.0), 4000, 3)
    assert fd[0] < 0.0 <= fd[1] + 1e-6
    fd = fd_oracle(RobinInterval(1.0, -3.0, -3.0), 4000, 3)
    assert fd[0] < fd[1] < 0.0 <= fd[2]


def test_deep_symmetric_pair_resolved():
    # c = -200 on both ends: nearly degenerate pair at lambda ~ -c^2.
    negs = negative_eigenvalues(RobinInterval(1.0, -200.0, -200.0))
    assert len(negs) == 2
    for lam in negs:
        assert abs(lam + 200.0**2) < 1.0


def test_pinched_pair_is_two_equal_floats():
    # c = -1e3 on a unit interval: the even and odd states split by about
    # e^-1000, so the upper branch is 0 at the lower root, and the solve
    # returns that end of the upper bracket at once.
    iv = RobinInterval(1.0, -1e3, -1e3)
    lower = spectra1d._branch_root(iv, False, 1e-300, spectra1d._kappa_upper_bound(iv))
    assert spectra1d._boundary_form_branch(lower, iv, True) == 0.0
    negs = negative_eigenvalues(iv)
    assert len(negs) == 2 and negs[0] == negs[1] == -lower * lower
    assert all(type(lam) is float for lam in negs)


def test_zero_eigenvalue_condition():
    # c_l + c_r + c_l c_r L = 0 with (1, -0.5, L=1)
    sp = enumerate_eigenvalues(RobinInterval(1.0, 1.0, -0.5), 50.0)
    assert sp.eigenvalues[0] == 0.0
    sp = enumerate_eigenvalues(RobinInterval(1.0, 1.0, -0.5 + 1e-3), 50.0)
    assert 0.0 not in sp.eigenvalues


@pytest.mark.parametrize("length", [1e-100, 1e-13, 1.0, 1e13, 1e100])
def test_zero_state_test_is_scale_free(length):
    # c_l + c_r + c_l c_r L against the size of its own terms: couplings
    # scaled with 1 / L keep or lose their zero state together.
    assert spectra1d._zero_eigenvalue_present(RobinInterval(length, 1.0 / length, -0.5 / length))
    assert not spectra1d._zero_eigenvalue_present(RobinInterval(length, -4.0 / length, -4.0 / length))
    assert not spectra1d._zero_eigenvalue_present(RobinInterval(length, 1e-9 / length, 0.0))
    # A state whose lambda L^2 (about z L) or lambda (about z / L) lies below
    # the normal floats is a zero one.
    assert spectra1d._zero_eigenvalue_present(RobinInterval(length, 1e-309 / length, 0.0))
    assert spectra1d._zero_eigenvalue_present(RobinInterval(length, 1e-309 * length, 0.0))


def test_antisymmetric_coefficients_spectrum_at_nodes():
    # c_r = -c_l: secular function reduces to (k^2 + c^2) sin(kL); the
    # positive spectrum is exactly the Dirichlet nodes plus one bound state.
    sp = enumerate_eigenvalues(RobinInterval(1.0, 2.0, -2.0), 100.0)
    assert abs(sp.eigenvalues[0] + 4.0) < 1e-10
    nodes = [(n * math.pi) ** 2 for n in (1, 2, 3)]
    assert max(abs(a - b) for a, b in zip(sp.eigenvalues[1:], nodes)) < 1e-10


CASES = [
    (1.0, 0.0, 0.0),
    (1.0, 1.0, 1.0),
    (1.0, -1.0, -1.0),
    (1.0, -3.0, -3.0),
    (1.0, 2.5, 0.0),
    (1.0, 0.0, -1.0),
    (1.0, 1.0, -1.0),
    (1.0, -2.0, 3.0),
    (math.sqrt(2.0), 5.0, 5.0),
    (0.75, -0.7, -2.3),
    (1.3, 0.3, 0.9),
    (2.0, -1.0, 0.0),
]


@pytest.mark.parametrize("length,cl,cr", CASES)
def test_enumerate_matches_fd_oracle(length, cl, cr):
    iv = RobinInterval(length, cl, cr)
    oracle = richardson(iv, 20)
    lam_max = oracle[-1] + 0.5 * (oracle[-1] - oracle[-2]) + 1.0
    sp = enumerate_eigenvalues(iv, lam_max)
    assert len(sp.eigenvalues) >= 20
    for got, want in zip(sp.eigenvalues[:20], oracle):
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want))
    assert abs(len(sp.eigenvalues) - neumann_count(length, lam_max)) <= 2


@pytest.mark.parametrize("length,cl,cr", [(1.0, 1.0, 1.0), (1.0, -2.0, 3.0), (0.75, -0.7, -2.3)])
def test_dirichlet_interlacing(length, cl, cr):
    sp = enumerate_eigenvalues(RobinInterval(length, cl, cr), 400.0)
    pos = [lam for lam in sp.eigenvalues if lam > 0.0]
    nodes = [(n * math.pi / length) ** 2 for n in range(1, 40)]
    for lo, hi in zip(pos[:-1], pos[1:]):
        inside = [nd for nd in nodes if lo < nd < hi]
        assert len(inside) == 1


def test_monotone_in_coefficients():
    base = enumerate_eigenvalues(RobinInterval(1.0, -1.0, 0.5), 300.0).eigenvalues
    raised = enumerate_eigenvalues(RobinInterval(1.0, -0.5, 0.5), 300.0).eigenvalues
    for lo, hi in zip(base, raised):
        assert hi >= lo - 1e-10


def test_counting_stability_across_cutoffs():
    iv = RobinInterval(1.0, -3.0, 2.0)
    for lam in (5.0, 50.0, 137.0, 400.0):
        sp = enumerate_eigenvalues(iv, lam)
        n_robin = len(sp.eigenvalues)
        assert abs(n_robin - neumann_count(1.0, lam)) <= 2


def test_fd_oracle_neumann_accuracy():
    vals = fd_oracle(RobinInterval(1.0, 0.0, 0.0), 10000, 2)
    assert abs(vals[0]) < 1e-6
    assert abs(vals[1] - math.pi**2) < 1e-3 * math.pi**2


def test_fd_oracle_perturbative_ground_state():
    # lambda_0 ~ (c_l + c_r)/L for small c; c = 1e-3 on both ends
    vals = fd_oracle(RobinInterval(1.0, 1e-3, 1e-3), 4000, 1)
    assert abs(vals[0] - 2e-3) <= 0.05 * 2e-3


def test_fd_oracle_second_order_convergence():
    iv = RobinInterval(1.0, 1.0, 1.0)
    errs = []
    exact = richardson(iv, 3, n_grid=12000)[2]
    for n in (500, 1000, 2000):
        errs.append(abs(fd_oracle(iv, n, 3)[2] - exact))
    assert 3.0 < errs[0] / errs[1] < 5.0
    assert 3.0 < errs[1] / errs[2] < 5.0


def test_validation_errors():
    with pytest.raises(ValueError):
        RobinInterval(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        RobinInterval(1.0, math.nan, 0.0)
    with pytest.raises(ValueError):
        fd_oracle(RobinInterval(1.0, 0.0, 0.0), 50, 1)
    with pytest.raises(ValueError):
        fd_oracle(RobinInterval(1.0, 0.0, 0.0), 100, 500)
    with pytest.raises(ValueError):
        secular_positive(RobinInterval(1.0, 0.0, 0.0), -1.0)
    with pytest.raises(ValueError):
        enumerate_eigenvalues(RobinInterval(1.0, 0.0, 0.0), math.inf)


def test_negative_cutoff_returns_only_deep_states():
    iv = RobinInterval(1.0, -3.0, -3.0)
    sp = enumerate_eigenvalues(iv, -5.0)
    assert all(lam <= -5.0 for lam in sp.eigenvalues)
    assert sp.certificate.n_positive == 0


@pytest.mark.parametrize("length,cl,cr", [(1.0, 0.0, 0.0), (1.0, -3.0, -3.0), (1.3, -2.0, 0.7)])
def test_eigenvalues_lie_in_their_brackets(length, cl, cr):
    # A bound state lies above minus the squared depth bound; eigenvalue n
    # >= 0 lies in the phase bracket ((n - 2) pi / L, n pi / L] in k.
    iv = RobinInterval(length, cl, cr)
    node = math.pi / length
    for n, lam in enumerate(enumerate_eigenvalues(iv, 400.0).eigenvalues, start=1):
        if lam < 0.0:
            assert -spectra1d._kappa_upper_bound(iv) ** 2 <= lam < 0.0, (n, lam)
        else:
            assert max(n - 2, 0) * node <= math.sqrt(lam) <= n * node, (n, lam)


def brentq_positive_reference(iv, lam_max):
    """Scalar brentq on every sign-change bracket between eps, the Dirichlet
    nodes and sqrt(lam_max): the per-root loop the batched solver replaced."""
    k_max = math.sqrt(lam_max)
    step = math.pi / iv.length
    edges = [1e-4 * step] + [n * step for n in range(1, int(k_max / step) + 2) if n * step < k_max]
    edges.append(k_max)
    roots = []
    for a, b in zip(edges[:-1], edges[1:]):
        if secular_positive(iv, a) * secular_positive(iv, b) < 0.0:
            roots.append(brentq(lambda k: secular_positive(iv, k), a, b, xtol=1e-300, rtol=1e-15))
    return np.array(roots) ** 2


H_SWEEP = 2e-5


@pytest.mark.parametrize("length,c,lam_max", [
    (1.0, 1.0 / H_SWEEP, H_SWEEP**-2),
    (math.sqrt(2.0), -1.0 / H_SWEEP, 2.0 * H_SWEEP**-2),
])
def test_batched_roots_match_scalar_brentq(length, c, lam_max):
    # Sweep-sized intervals: c = +-1/h at h = 2e-5, 16k and 32k positive roots.
    iv = RobinInterval(length, c, c)
    sp = enumerate_eigenvalues(iv, lam_max)
    got = np.array([lam for lam in sp.eigenvalues if lam > 0.0])
    want = brentq_positive_reference(iv, lam_max)
    assert got.size == want.size == sp.certificate.n_positive
    assert np.max(np.abs(got - want) / want) <= 1e-12


@pytest.mark.parametrize("length,cl,cr", [(1.0, 1e5, 1e5), (math.sqrt(2.0), 2e4, -7e4)])
def test_roots_near_1e5_match_mpmath(length, cl, cr):
    iv = RobinInterval(length, cl, cr)
    positives = [lam for lam in enumerate_eigenvalues(iv, 1e10).eigenvalues if lam > 0.0]
    with mpmath.workdps(30):
        L, a, b = mpmath.mpf(length), mpmath.mpf(cl), mpmath.mpf(cr)

        def f(k):
            return (k * k - a * b) * mpmath.sin(k * L) - k * (a + b) * mpmath.cos(k * L)

        for lam in positives[-5:]:
            k = math.sqrt(lam)
            exact = mpmath.findroot(f, mpmath.mpf(k))
            assert abs(k - exact) <= 1e-14 * exact, (k, exact)


@pytest.mark.parametrize("length,cl,cr,n_bound", [
    (1.0, -10.0, -10.0, 2),
    (1.0, -20.0, -20.0, 2),
    (2.0, -9.0, -9.0, 2),
    (1.0, -8.0, -8.001, 2),
    (1.0, -12.0, -12.0001, 2),
    (1.0, -15.0, -15.000001, 2),
    (0.5, -30.0, -30.01, 2),
    (3.0, -5.0, -5.001, 2),
    (1.0, -1e-8, 0.0, 1),
    (1.4352426176743935, -2537.9354549289155, -2537.93545492892, 2),  # pinched below resolution
])
def test_deep_double_wells_match_mpmath(length, cl, cr, n_bound):
    # Nearly degenerate pairs (splittings down to 1e-7) and one shallow well,
    # against 30-digit roots of the unfactorized secular function.
    negs = negative_eigenvalues(RobinInterval(length, cl, cr))
    assert len(negs) == n_bound
    with mpmath.workdps(30):
        L, a, b = mpmath.mpf(length), mpmath.mpf(cl), mpmath.mpf(cr)

        def f(k):
            return (k * k + a * b) * mpmath.tanh(k * L) + k * (a + b)

        for lam in negs:
            kappa = mpmath.findroot(f, mpmath.sqrt(-mpmath.mpf(lam)))
            assert abs(lam + kappa**2) <= 1e-14 * kappa**2, (lam, kappa)


def test_newton_step_cap_fails_loudly(monkeypatch):
    iv = RobinInterval(1.0, 1.0, 1.0)
    assert enumerate_eigenvalues(iv, 1e4).certificate.bracket_count == 32
    monkeypatch.setattr(spectra1d, "_NEWTON_MAX_ITER", 1)
    with pytest.raises(EnumerationError):
        enumerate_eigenvalues(iv, 1e4)


def test_branch_without_sign_change_fails_loudly(monkeypatch):
    # N(0+) = 2 says both branches of B(kappa) cross 0; one that stays
    # positive on its bracket raises EnumerationError, naming the branch.
    iv = RobinInterval(1.0, -3.0, -2.0)
    assert len(negative_eigenvalues(iv)) == spectra1d._nonpositive_count(iv) == 2
    branch = spectra1d._boundary_form_branch
    for lifted in (False, True):
        monkeypatch.setattr(spectra1d, "_boundary_form_branch",
                            lambda k, iv, upper: branch(k, iv, upper) + (1e9 if upper == lifted else 0.0))
        with pytest.raises(EnumerationError, match="upper" if lifted else "lower"):
            enumerate_eigenvalues(iv, 100.0)


BRENTQ = dict(xtol=1e-300, rtol=1e-15, maxiter=2000)
signed_couplings = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from((-1.0, 1.0)), st.floats(-12.0, 8.0)))


def is_float_crossing(f, x):
    """f is 0 at x, or changes sign between x and an adjacent float where |f| is not smaller."""
    fx = f(x)
    if fx == 0.0:
        return True
    neighbours = (f(math.nextafter(x, 0.0)), f(math.nextafter(x, math.inf)))
    return any((fo < 0.0) != (fx < 0.0) and fo != 0.0 and abs(fx) <= abs(fo) for fo in neighbours)


@settings(max_examples=300, deadline=None)
@given(log_length=st.floats(-3.0, 2.0), cl=signed_couplings, cr=signed_couplings,
       pairing=st.sampled_from(("free", "symmetric", "antisymmetric")))
@example(log_length=0.0, cl=-3.0, cr=-2.0, pairing="free")  # two bound states
@example(log_length=0.0, cl=-3.0, cr=-3.0, pairing="free")  # an even and an odd state
@example(log_length=0.0, cl=-0.01, cr=0.01, pairing="free")  # a run of zeros at kappa = 0.01
@example(log_length=math.log10(1.4330125702369627), cl=-1.539926526059492, cr=0.0, pairing="symmetric")
def test_branch_root_is_the_float_crossing_near_brentq(log_length, cl, cr, pairing):
    # The brackets negative_eigenvalues searches: both branches on the full
    # range, and the upper one on either side of the lower root. Each root
    # is a float crossing of its branch, within 1e-15 kappa and 2 ulps of
    # scipy's brentq at xtol = 1e-300 and rtol = 1e-15.
    cr = {"free": cr, "symmetric": cl, "antisymmetric": -cl}[pairing]
    iv = RobinInterval(10.0**log_length, cl, cr)
    lo, hi = 1e-300 * max(1.0, 1.0 / iv.length), spectra1d._kappa_upper_bound(iv)
    brackets = [(False, lo, hi), (True, lo, hi)]
    try:
        k0 = spectra1d._branch_root(iv, False, lo, hi)
        brackets += [(True, lo, k0), (True, k0, hi)]
    except EnumerationError:
        pass
    for upper, a, b in brackets:
        try:
            want = brentq(spectra1d._boundary_form_branch, a, b, args=(iv, upper), **BRENTQ)
        except ValueError:
            with pytest.raises(EnumerationError, match="different signs"):
                spectra1d._branch_root(iv, upper, a, b)
            continue
        got = spectra1d._branch_root(iv, upper, a, b)
        assert a <= got <= b
        branch = functools.partial(spectra1d._boundary_form_branch, iv=iv, upper=upper)
        assert is_float_crossing(branch, got), (iv, upper)
        # Where the branch rounds to 0 or turns sign on a run of floats (at
        # kappa = |c| for c_r = -c_l, or near an odd state's threshold), the
        # two solves may stop at different crossings of it: a few eps of the
        # branch's terms over its slope apart.
        gap = abs(got - want) - 1e-15 * want - 2.0 * math.ulp(want)
        if gap > 0.0:
            slope = (branch(got * (1.0 + 1e-7)) - branch(got * (1.0 - 1e-7))) / (2e-7 * got)
            terms = got / math.tanh(0.5 * got * iv.length) + abs(cl) + abs(cr)
            assert gap * slope <= 8.0 * spectra1d._EPS * terms, (iv, upper, a, b, got, want)


@pytest.mark.parametrize("length,cl,cr", [
    (1.0, 0.0, -5.5e-188),  # once a ZeroDivisionError in the brentq port's extrapolation
    (1.0, -6.2e-166, 0.0),  # likewise, with the scale-invariant zero-state test
    (4.436e142, -1.319e124, -2.254e-143),  # once no convergence in 2000 Brent steps
])
def test_bound_states_at_extreme_scales_match_mpmath(length, cl, cr):
    # Each interval binds one state (c_l + c_r + c_l c_r L < 0, the trace of
    # B(0) negative): a float crossing of the lower branch, within 1e-15 of
    # the 50-digit root of the unfactorized secular function.
    iv = RobinInterval(length, cl, cr)
    negs = negative_eigenvalues(iv)
    assert len(negs) == spectra1d._nonpositive_count(iv) == 1
    kappa = spectra1d._branch_root(iv, False, 1e-300 * max(1.0, 1.0 / length), spectra1d._kappa_upper_bound(iv))
    assert negs == [-kappa * kappa]
    assert is_float_crossing(lambda k: spectra1d._boundary_form_branch(k, iv, False), kappa)
    with mpmath.workdps(50):
        L, a, b = mpmath.mpf(length), mpmath.mpf(cl), mpmath.mpf(cr)

        def f(k):
            return (k * k + a * b) * mpmath.tanh(k * L) + k * (a + b)

        exact = mpmath.findroot(f, (kappa * (1 - mpmath.mpf(1e-12)), kappa * (1 + mpmath.mpf(1e-12))))
        assert abs(negs[0] + exact**2) <= 1e-15 * exact**2, (negs, exact)


def test_branch_root_fails_loudly(monkeypatch):
    iv = RobinInterval(1.0, 0.0, 0.0)
    # The first step interpolates to 0.75, where the branch is NaN.
    monkeypatch.setattr(spectra1d, "_boundary_form_branch",
                        lambda k, iv, upper: math.nan if 0.6 < k < 0.9 else k - 0.75)
    with pytest.raises(EnumerationError, match="NaN at 0.75"):
        spectra1d._branch_root(iv, False, 0.5, 1.0)
    monkeypatch.setattr(spectra1d, "_boundary_form_branch", lambda k, iv, upper: k - 2.0)
    with pytest.raises(EnumerationError, match="different signs"):
        spectra1d._branch_root(iv, False, 0.5, 1.0)
    monkeypatch.setattr(spectra1d, "_boundary_form_branch", lambda k, iv, upper: math.tan(k) - 1.0)
    monkeypatch.setattr(spectra1d, "_CROSSING_MAX_ITER", 3)
    with pytest.raises(EnumerationError, match="no convergence in 3 steps"):
        spectra1d._branch_root(iv, False, 0.1, 1.5)


def test_bound_state_failures_name_the_branch(monkeypatch):
    # A non-converging root once escaped as scipy's RuntimeError, past the CLI's exits.
    iv = RobinInterval(1.0, -3.0, -2.0)
    monkeypatch.setattr(spectra1d, "_CROSSING_MAX_ITER", 3)
    with pytest.raises(EnumerationError, match=r"lower branch .* fails on \[.*\]: no convergence"):
        negative_eigenvalues(iv)
    branch = spectra1d._boundary_form_branch
    monkeypatch.undo()
    monkeypatch.setattr(spectra1d, "_boundary_form_branch",
                        lambda k, iv, upper: math.nan if upper and k < 1.0 else branch(k, iv, upper))
    with pytest.raises(EnumerationError, match="upper branch .* is NaN"):
        negative_eigenvalues(iv)


EPS40 = mpmath.mpf(2) ** -52


@pytest.mark.parametrize("length", [0.5, 1.0, 2.5])
@pytest.mark.parametrize("gamma", ["odd+1e-9", "odd+1e-3", 1.0, 3.0, 10.0, 200.0, 1e5])
def test_symmetric_wells_match_even_and_odd_equations(length, gamma):
    # For c_l = c_r = -gamma the branches of B(kappa) are the even and odd
    # equations kappa tanh(kappa L / 2) = gamma and kappa coth(kappa L / 2) = gamma;
    # the odd one has a root only for gamma > 2 / L. Each eigenvalue lies within
    # 2 eps (1 + S (S + 2 / L) / |lam|) relative of the 40-digit root, S = 2 gamma:
    # the bound grows with the state's conditioning, as the odd state nears 0.
    if isinstance(gamma, str):
        gamma = 2.0 / length * (1.0 + float(gamma[3:]))
    negs = negative_eigenvalues(RobinInterval(length, -gamma, -gamma))
    assert len(negs) == 1 + (gamma > 2.0 / length)
    s = 2.0 * gamma
    with mpmath.workdps(40):
        L, g = mpmath.mpf(length), mpmath.mpf(gamma)
        equations = (lambda k: k * mpmath.tanh(k * L / 2) - g, lambda k: k * mpmath.coth(k * L / 2) - g)
        for lam, f in zip(negs, equations):
            exact = -mpmath.findroot(f, mpmath.sqrt(-mpmath.mpf(lam))) ** 2
            bound = 2 * EPS40 * (1 + s * (s + 2 / L) / abs(exact))
            assert abs(lam - exact) <= bound * abs(exact), (lam, exact, bound)


@pytest.mark.parametrize("gamma", [0.5, 1.0, 3.0, 1e3])
def test_tiny_symmetric_wells_match_even_equation(gamma):
    # On L = 1e-10 ... 1e-300 the even state kappa tanh(kappa L / 2) = gamma sits
    # near kappa^2 = 2 gamma / L, where the depth bound's slack once rounded
    # away. No odd state binds (gamma < 2 / L). With s = sqrt(gamma L / 2) and
    # y tanh(s y) = s, lam = -(2 gamma / L) y^2, solved at 40 digits with y near 1.
    for e in range(10, 301, 5):
        length = 10.0 ** -e
        eigs = enumerate_eigenvalues(RobinInterval(length, -gamma, -gamma), 1.0).eigenvalues
        assert len(eigs) == 1, (length, eigs)
        s = 2.0 * gamma
        with mpmath.workdps(40):
            L, g = mpmath.mpf(length), mpmath.mpf(gamma)
            root = mpmath.sqrt(g * L / 2)
            y = mpmath.findroot(lambda y: y * mpmath.tanh(root * y) - root, 1)
            exact = -2 * g / L * y * y
            bound = 2 * EPS40 * (1 + s * (s + 2 / L) / abs(exact))
            assert abs(eigs[0] - exact) <= bound * abs(exact), (length, eigs[0], exact, bound)


EPS = np.finfo(float).eps


@pytest.mark.parametrize("length,cl,cr", [
    (1.0, 1.03e-8, 0.0),  # Phi - pi cancels: arccot(c_l / k) sits near pi / 2
    (1.0, 3.0, -0.7),  # Phi dips below pi before its ground state
    (1.0, 1.0, -0.5 + 1e-11),  # z = c_l + c_r + c_l c_r L = 2e-11: ill-conditioned
    (1.0, 1.0, -0.5 + 1e-9),
])
def test_lowest_positive_root_matches_mpmath(length, cl, cr):
    # 40-digit root of the secular function. The tolerance is 1e-14, or the
    # conditioning bound eps (|c_l| + |c_r| + |c_l c_r| L) / |z| near z = 0.
    lam = min(lam for lam in enumerate_eigenvalues(RobinInterval(length, cl, cr), 100.0).eigenvalues
              if lam > 0.0)
    z = cl + cr + cl * cr * length
    tol = max(1e-14, EPS * (abs(cl) + abs(cr) + abs(cl * cr) * length) / abs(z))
    with mpmath.workdps(40):
        L, a, b = mpmath.mpf(length), mpmath.mpf(cl), mpmath.mpf(cr)

        def f(k):
            return (k * k - a * b) * mpmath.sin(k * L) - k * (a + b) * mpmath.cos(k * L)

        exact = mpmath.findroot(f, mpmath.sqrt(mpmath.mpf(lam))) ** 2
        assert abs(lam - exact) <= tol * exact, (lam, exact, tol)


@pytest.mark.parametrize("length,cl,cr", [
    (math.sqrt(2.0), 5e4, 5e4),  # c = 1/h at h = 2e-5
    (1.0, -5e4, -5e4),  # c = -1/h
    (1.0, 1.5e4, -1.5e4),  # c = 0.3/h, one side negative
    (math.sqrt(2.0), 1e-8, 1e-8),  # tiny couplings
    (math.sqrt(2.0), 670.0, 670.0),  # c near k, as on the 4-D box at h = 1.5e-3
    (1.0, -670.0, 1e-8),
])
def test_high_roots_match_mpmath(length, cl, cr):
    # Roots on both sides of the switch to the plain sum at k L = 64 and up
    # to k L = 1e5, within _ROOT_RTOL k of the 40-digit root of Phi = n pi.
    iv = RobinInterval(length, cl, cr)
    eigenvalues = enumerate_eigenvalues(iv, (1e5 / length) ** 2).eigenvalues
    # Positive eigenvalue i (from 0, bound states first) has phase index i + 1.
    ks = np.where(eigenvalues > 0.0, np.sqrt(np.maximum(eigenvalues, 0.0)), 0.0)
    switch = np.flatnonzero((ks * length >= 60.0) & (ks * length <= 70.0))
    near_c = np.flatnonzero(np.abs(ks - abs(cl)) <= 3.0 * math.pi / length)
    spread = np.unique(np.geomspace(switch[-1], ks.size - 1, 25).astype(int))
    picked = np.concatenate([switch, near_c, spread])
    assert ks[switch[0]] * length < spectra1d._PLAIN_KL < ks[switch[-1]] * length
    with mpmath.workdps(40):
        L, a, b = mpmath.mpf(length), mpmath.mpf(cl), mpmath.mpf(cr)
        for i in picked.tolist():
            k = float(ks[i])
            exact = mpmath.findroot(
                lambda x: x * L + mpmath.atan2(x, a) + mpmath.atan2(x, b) - (i + 1) * mpmath.pi,
                mpmath.mpf(k))
            assert abs(k - exact) <= spectra1d._ROOT_RTOL * exact, (i + 1, k, exact)


@pytest.mark.parametrize("cl,cr", [(1e200, 1e200), (-1e200, -1e200), (-1e200, 0.0)])
def test_overflowing_couplings_rejected(cl, cr):
    # c_l c_r L or the squared bound-state depth bound overflows.
    with pytest.raises(ValueError):
        RobinInterval(1.0, cl, cr)


def test_deepest_finite_couplings_enumerate():
    sp = enumerate_eigenvalues(RobinInterval(1.0, -1e153, -1e153), 100.0)
    assert len(sp.eigenvalues) == 5
    for lam in sp.eigenvalues[:2]:
        assert abs(lam + 1e306) <= 1e-14 * 1e306
    for n, lam in enumerate(sp.eigenvalues[2:], start=1):
        assert abs(lam - (n * math.pi) ** 2) <= 1e-14 * lam


@pytest.mark.parametrize("length,cl,cr", [(0.13, 0.0, 1.8e-12), (1.0, 1e-10, 0.0)])
def test_ground_state_far_below_its_bracket_takes_few_phase_evaluations(monkeypatch, length, cl, cr):
    # The ground state k ~ sqrt(c / L) lies ten decades below its bracket
    # (0, pi / L); halving k alone took 49 and 38 phase evaluations.
    iv = RobinInterval(length, cl, cr)
    calls = []
    phase_offset = spectra1d._phase_offset

    def counted(*args):
        calls.append(1)
        return phase_offset(*args)

    monkeypatch.setattr(spectra1d, "_phase_offset", counted)
    eigenvalues = enumerate_eigenvalues(iv, 1000.0).eigenvalues
    assert len(calls) <= 15
    with mpmath.workdps(40):
        L, a, b = mpmath.mpf(length), mpmath.mpf(cl), mpmath.mpf(cr)
        for n, lam in enumerate(eigenvalues, start=1):
            exact = mpmath.findroot(
                lambda k: k * L + mpmath.atan2(k, a) + mpmath.atan2(k, b) - n * mpmath.pi,
                mpmath.sqrt(mpmath.mpf(lam))) ** 2
            assert abs(lam - exact) <= 1e-14 * exact, (n, lam, exact)


def band_start(iv, h):
    """(cut, lam) for the band above the cut h^-2 (1 + 1e-12) of iv's
    spectrum, up to h^-2 minus the deepest bound state of the same interval."""
    return h**-2 * (1.0 + 1e-12), h**-2 - negative_eigenvalues(iv)[0]


def explicit_band(iv, cut, lam):
    n_below = len(enumerate_eigenvalues(iv, cut).eigenvalues)
    roots = np.array([x for x in enumerate_eigenvalues(iv, lam).eigenvalues[n_below:] if lam - x > 0.0])
    return math.fsum((lam - roots).tolist()), roots.size


@pytest.mark.parametrize("length,h", [(1.0, 4e-5), (math.sqrt(2.0), 5e-4)])
def test_band_sum_closed_form_within_its_bound_of_mpmath(length, h):
    # Fixed b = -1 at h = 4e-5 (3296 roots) and the large regime gamma = 1/4
    # at h = 5e-4 (5187 roots): each band root refined to 30 digits by Newton
    # on Phi(k) = n pi, and the terms summed in 30 digits.
    c = -1.0 / h if length == 1.0 else -h**-1.25
    iv = RobinInterval(length, c, c)
    cut, lam = band_start(iv, h)
    band = spectra1d.band_sum(iv, cut, lam)
    assert band is not None
    n_below = len(enumerate_eigenvalues(iv, cut).eigenvalues)
    n_top = spectra1d._phase_count(iv, lam)
    assert 3000 <= band.count == n_top - n_below
    roots = np.sqrt(spectra1d._positive_eigenvalues(iv, n_below, n_top, lam))
    with mpmath.workdps(30):
        L, cm, pi = mpmath.mpf(length), mpmath.mpf(c), mpmath.pi
        total = mpmath.mpf(0)
        for n, k in enumerate(roots.tolist(), start=n_below + 1):
            k = mpmath.mpf(k)
            for _ in range(2):
                phase = k * L + 2 * mpmath.atan2(k, cm) - n * pi
                k -= phase / (L + 2 * cm / (k * k + cm * cm))
            total += mpmath.mpf(lam) - k * k
        error = abs(mpmath.mpf(band.value) - total)
    assert error <= band.error <= 1e-13 * band.value, (error, band.error)


def test_band_sum_short_band_is_not_certified():
    # h = 0.1, b = -2: the three-term Euler-Maclaurin sum over these four
    # roots is 7e-7 off, inside its remainder bound, so it is not certified.
    iv = RobinInterval(1.0, -20.0, -20.0)
    cut, lam = band_start(iv, 0.1)
    assert spectra1d.band_sum(iv, cut, lam) is None
    value, count = explicit_band(iv, cut, lam)
    n_below = len(enumerate_eigenvalues(iv, cut).eigenvalues)
    n_top = spectra1d._phase_count(iv, lam)
    assert count == n_top - n_below == 4
    k_a, k_n = spectra1d._phase_roots(iv, np.array([n_below + 1, n_top]), math.sqrt(lam)).tolist()
    closed, rounding = spectra1d._closed_form_band(iv, k_a, k_n, lam)
    bound = spectra1d._remainder_bound(iv, k_a, k_n)
    assert 1e-7 * value < abs(closed - value) <= bound + rounding


def test_band_sum_uncertifiable_bound_is_not_certified(monkeypatch):
    # From the ground state at k = 0.336 on, Phi' = 1 + 3 / (k^2 + 9) - 0.7 / (k^2 + 0.49)
    # is bounded below only by 1 - 1.16 + 0.008 < 0, so no remainder bound exists.
    iv = RobinInterval(1.0, 3.0, -0.7)
    k_a, k_n = spectra1d._phase_roots(iv, np.array([1, spectra1d._phase_count(iv, 400.0)]), 20.0)
    assert spectra1d._remainder_bound(iv, k_a, k_n) == math.inf
    assert spectra1d.band_sum(iv, 0.01, 400.0) is None  # 0.01 lies below the ground state
    # A band that takes the closed form, once its remainder bound is NaN.
    iv = RobinInterval(1.0, -2.5e4, -2.5e4)
    cut, lam = band_start(iv, 4e-5)
    assert spectra1d.band_sum(iv, cut, lam) is not None
    monkeypatch.setattr(spectra1d, "_remainder_bound", lambda *args: math.nan)
    assert spectra1d.band_sum(iv, cut, lam) is None


@pytest.mark.parametrize("c", [1e100, 1e200])
def test_band_sum_huge_coupling_is_not_certified(c):
    # (lam + c^2) arctan(k / c) - c k cancels to nothing at c = 1e100 and
    # overflows at c = 1e200, though the remainder bound is 0 for both.
    iv = RobinInterval(1.0, c, 0.0)
    assert spectra1d.band_sum(iv, 1.0, 1e8) is None  # 1.0 lies below the ground state
    value, count = explicit_band(iv, 1.0, 1e8)
    k_a, k_n = spectra1d._phase_roots(iv, np.array([1, count]), 1e4).tolist()
    assert spectra1d._remainder_bound(iv, k_a, k_n) == 0.0
    closed, rounding = spectra1d._closed_form_band(iv, k_a, k_n, 1e8)
    assert not abs(closed - value) <= 1e-12 * value


def test_band_sum_drops_a_top_root_at_the_cutoff():
    # Neumann interval, lam the 301st eigenvalue (300 pi)^2 itself: the top
    # root has lam - k_N^2 <= 0 in floating point, so it is not counted, and
    # its term is taken out of the closed form.
    iv = RobinInterval(1.0, 0.0, 0.0)
    eigenvalues = enumerate_eigenvalues(iv, 1e6).eigenvalues
    cut, lam = float(np.nextafter(eigenvalues[100], math.inf)), float(eigenvalues[300])
    n_below, n_top = spectra1d._phase_count(iv, cut), spectra1d._phase_count(iv, lam)
    k_n = spectra1d._phase_roots(iv, np.array([n_top]), math.sqrt(lam))[0]
    assert lam - k_n * k_n <= 0.0
    band = spectra1d.band_sum(iv, cut, lam)
    assert band is not None
    value, count = explicit_band(iv, cut, lam)
    assert band.count == count == n_top - n_below - 1 == 199
    assert abs(band.value - value) <= band.error


def test_band_sum_fails_loudly(monkeypatch):
    iv = RobinInterval(1.0, -20.0, -20.0)
    cut, lam = band_start(iv, 0.1)
    with pytest.raises(ValueError):
        spectra1d.band_sum(iv, -500.0, lam)  # reaching down to the two bound states
    with pytest.raises(ValueError):
        spectra1d.band_sum(iv, cut, math.inf)
    assert spectra1d.band_sum(iv, cut, 50.0) == spectra1d.BandSum(0.0, 0, 0.0)
    # An end root that does not converge raises rather than returning a sum.
    monkeypatch.setattr(spectra1d, "_NEWTON_MAX_ITER", 0)
    with pytest.raises(EnumerationError):
        spectra1d.band_sum(iv, 1.0, 1e4)


# Property tests on random intervals. Counts are taken a relative 1e-9 off
# each node, far above the root error, so no comparison is a float tie.
NODE_GAP = 1e-9
LAM_MAX = 2500.0
lengths = st.floats(0.3, 3.0)
couplings = st.floats(-25.0, 25.0)


def count_below(values, lam):
    return sum(1 for v in values if v <= lam)


def dirichlet_nodes(length, lam_max):
    step = math.pi / length
    return [(n * step) ** 2 for n in range(1, int(math.sqrt(lam_max) / step) + 1)]


@settings(max_examples=200, deadline=None)
@given(length=lengths, cl=couplings, cr=couplings)
@example(length=1.0, cl=1.0346422931260303e-08, cr=0.0)  # ground state below the first probe
@example(length=1.9375, cl=190.0, cr=-189.0)  # f(a) f(b) underflows at the bound state
@example(length=1.0, cl=-0.5, cr=-5e-324)  # kappa^2 underflows to -0.0
@example(length=1.0, cl=-1.1754943508222875e-38, cr=0.0)  # a state reported both at 0 and below it
def test_property_dirichlet_brackets(length, cl, cr):
    sp = enumerate_eigenvalues(RobinInterval(length, cl, cr), LAM_MAX)
    # Rank-two interlacing: 0 <= N_Robin - N_Dirichlet <= 2 on both sides of every node.
    for n, node in enumerate(dirichlet_nodes(length, LAM_MAX), start=1):
        for lam, n_dirichlet in ((node * (1.0 - NODE_GAP), n - 1), (node * (1.0 + NODE_GAP), n)):
            assert 0 <= count_below(sp.eigenvalues, lam) - n_dirichlet <= 2
    # The eigenvalue of rank N solves Phi(k) = N pi, so k lies in ((N - 2) pi / L, N pi / L).
    step = math.pi / length
    for rank, lam in enumerate(sp.eigenvalues, start=1):
        if lam > 0.0:
            assert (rank - 2) * step < math.sqrt(lam) < rank * step


def phase(length, cl, cr, k):
    """Pruefer phase k L + arccot(c_l / k) + arccot(c_r / k), arccot in (0, pi)."""
    return k * length + math.atan2(k, cl) + math.atan2(k, cr)


@settings(max_examples=200, deadline=None)
@given(length=lengths, cl=couplings, cr=couplings)
@example(length=1.0, cl=3.0, cr=-0.7)  # Phi is not monotone: the ground state needs N(0+)
@example(length=1.0, cl=1.0, cr=-0.5)  # lambda = 0 exactly
@example(length=1.0, cl=1.0, cr=-0.5 + 1e-13)  # inside the zero condition's tolerance
@example(length=1.0, cl=1.0, cr=-0.5 - 1e-13)
@example(length=1.0, cl=-2.0 - 4e-14, cr=-2.0 - 4e-14)  # a shallow odd state within that tolerance
@example(length=1.0, cl=-1e-13, cr=0.0)  # a shallow state within that tolerance
@example(length=1.0, cl=1.0346422931260303e-08, cr=0.0)
@example(length=1.9375, cl=190.0, cr=-189.0)
@example(length=1.0, cl=-0.5, cr=-5e-324)
@example(length=1.5409293574918808, cl=-17.900350442533103, cr=-17.900350442533107)  # a deep pair
@example(length=4.134819949852971, cl=-0.4836969987220648, cr=-0.4836969987220648)  # odd state at 2 / L
def test_property_phase_count(length, cl, cr):
    # The count below lam is exactly floor(Phi(sqrt(lam)) / pi), on both sides of every node.
    eigenvalues = enumerate_eigenvalues(RobinInterval(length, cl, cr), LAM_MAX).eigenvalues
    cutoffs = [LAM_MAX] + [node * (1.0 + g) for node in dirichlet_nodes(length, LAM_MAX)
                           for g in (-NODE_GAP, NODE_GAP)]
    for lam in cutoffs:
        assert count_below(eigenvalues, lam) == math.floor(phase(length, cl, cr, math.sqrt(lam)) / math.pi)


@settings(max_examples=200, deadline=None)
@given(length=lengths, cl=st.floats(-25.0, -0.5), log_delta=st.floats(-16.0, -6.0))
def test_property_near_degenerate_pairs_all_found(length, cl, log_delta):
    # c_r = c_l (1 + delta): the two wells' states are nearly degenerate, and
    # every one of the N(0+) nonpositive states is found.
    iv = RobinInterval(length, cl, cl * (1.0 + 10.0**log_delta))
    eigenvalues = enumerate_eigenvalues(iv, LAM_MAX).eigenvalues
    assert count_below(eigenvalues, 0.0) == spectra1d._nonpositive_count(iv)
    assert count_below(eigenvalues, 0.0) == len(negative_eigenvalues(iv)) + spectra1d._zero_eigenvalue_present(iv)


@settings(max_examples=150, deadline=None)
@given(length=lengths, cl=couplings, cr=couplings, delta=st.floats(1e-3, 5.0), side=st.booleans())
@example(length=4.3125, cl=-3.0, cr=-0.2513466870978531, delta=1.0, side=False)  # shallow 2nd state
# M = 1 / c_r^2 on the first brackets, so the certificate's M e^2 overflows.
@example(length=0.5, cl=0.5, cr=1.1429459981256881e-154, delta=1.0, side=False)
def test_property_monotone_in_couplings(length, cl, cr, delta, side):
    base = enumerate_eigenvalues(RobinInterval(length, cl, cr), LAM_MAX).eigenvalues
    raised_iv = RobinInterval(length, cl + delta, cr) if side else RobinInterval(length, cl, cr + delta)
    raised = enumerate_eigenvalues(raised_iv, LAM_MAX).eigenvalues
    assert len(raised) <= len(base)
    for lo, hi in zip(base, raised):
        assert hi >= lo - 1e-9 * max(1.0, abs(lo))


@settings(max_examples=200, deadline=None)
@given(length=lengths, cl=couplings, cr=couplings)
def test_property_neumann_count(length, cl, cr):
    eigenvalues = enumerate_eigenvalues(RobinInterval(length, cl, cr), LAM_MAX).eigenvalues
    cutoffs = [LAM_MAX] + [node * (1.0 + g) for node in dirichlet_nodes(length, LAM_MAX)
                           for g in (-NODE_GAP, NODE_GAP)]
    for lam in cutoffs:
        assert abs(count_below(eigenvalues, lam) - neumann_count(length, lam)) <= 2


def left_and_right(couplings, key):
    """Strategies for c_l and c_r: c_r repeats c_l's draw part of the time.

    Every sweep axis has c_l == c_r, where the solver evaluates each coupling
    term once for both ends.
    """
    left = st.shared(couplings, key=key)
    return left, st.one_of(couplings, left)


# Couplings of every scale the stop must handle: O(1), stiff, and near 1e-12,
# where the ground state lies decades below its bracket.
stop_couplings = st.one_of(couplings, st.floats(-3e3, 3e3), st.floats(1e-13, 1e-11),
                           st.floats(-1e-11, -1e-13))
stop_left, stop_right = left_and_right(stop_couplings, "stop")


@settings(max_examples=300, deadline=None)
@given(length=lengths, cl=stop_left, cr=stop_right, rank=st.integers(1, 40),
       log_gap=st.floats(-16.0, -0.01), below=st.booleans())
@example(length=1.0, cl=-0.3, cr=-0.3, rank=1, log_gap=-0.01, below=True)  # Phi' < 0 at k
@example(length=1.0, cl=-0.3, cr=-0.3, rank=1, log_gap=-3.0, below=True)
@example(length=1.0, cl=1e-12, cr=0.0, rank=1, log_gap=-9.0, below=False)  # ground state near 1e-6
@example(length=1.4142135623730951, cl=1e5, cr=-3e4, rank=40, log_gap=-8.0, below=True)
# Equal couplings, as on sweep axes: c = +-1/h at h = 2e-5, the 4-D box's c, and no coupling.
@example(length=1.4142135623730951, cl=5e4, cr=5e4, rank=40, log_gap=-8.0, below=True)
@example(length=1.4142135623730951, cl=-5e4, cr=-5e4, rank=40, log_gap=-8.0, below=False)
@example(length=1.0, cl=670.0, cr=670.0, rank=40, log_gap=-10.0, below=True)
@example(length=1.0, cl=-0.3, cr=-0.3, rank=2, log_gap=-6.0, below=False)
@example(length=1.0, cl=0.0, cr=0.0, rank=3, log_gap=-12.0, below=True)
@example(length=1.0, cl=1e-200, cr=1e-200, rank=1, log_gap=-9.0, below=False)
@example(length=0.5, cl=5e-324, cr=5e-324, rank=1, log_gap=-1.0, below=False)  # a zero state
def test_property_kantorovich_stop_within_tolerance_of_mpmath(length, cl, cr, rank, log_gap, below):
    # A Newton iterate the bound accepts lies within _ROOT_RTOL of the
    # 30-digit root of Phi(k) = n pi, plus the offset's rounding,
    # _OFFSET_ROUNDING eps (k L + 2 pi) in phase, as a shift of the root.
    iv = RobinInterval(length, cl, cr)
    n = spectra1d._nonpositive_count(iv) + rank
    start = spectra1d._phase_roots(iv, np.array([n]), n * math.pi / length)[0]
    with mpmath.workdps(30):
        L, a, b = mpmath.mpf(length), mpmath.mpf(cl), mpmath.mpf(cr)
        exact = mpmath.findroot(
            lambda k: k * L + mpmath.atan2(k, a) + mpmath.atan2(k, b) - n * mpmath.pi, mpmath.mpf(start))
        k = np.array([float(exact * (1 + (-1 if below else 1) * mpmath.mpf(10) ** log_gap))])
        exact = float(exact)
    offset, slope = spectra1d._phase_offset(iv, k, np.array([n]))
    with np.errstate(divide="ignore", invalid="ignore"):
        newton = k - offset / slope
    # The lower end of the root's first bracket, which the solver keeps at or below k.
    lo = np.minimum(max((n - 2) * math.pi / length, 0.0), k)
    certified = spectra1d._newton_certified(iv, k, offset, newton, lo)[0]
    if slope[0] <= 0.0:
        assert not certified
    if certified:
        rounding = spectra1d._OFFSET_ROUNDING * spectra1d._EPS * (k[0] * length + 2.0 * math.pi) / slope[0]
        assert abs(newton[0] - exact) <= spectra1d._ROOT_RTOL * exact + rounding, (newton[0], exact)



offset_left, offset_right = left_and_right(signed_couplings, "offset")


@settings(max_examples=300, deadline=None)
@given(length=lengths, cl=offset_left, cr=offset_right, log_kl=st.floats(-3.0, 9.0),
       upper=st.booleans())
@example(length=1.0, cl=1e-8, cr=0.0, log_kl=math.log10(64.0), upper=False)
@example(length=1.0, cl=670.0, cr=670.0, log_kl=math.log10(670.0), upper=True)
@example(length=1.0, cl=-5e4, cr=1e-12, log_kl=5.0, upper=False)
@example(length=1.0, cl=1e8, cr=-1e8, log_kl=8.5, upper=True)  # n past 2^27
@example(length=1.4142135623730951, cl=5e4, cr=5e4, log_kl=4.5, upper=True)  # equal couplings
@example(length=1.4142135623730951, cl=-5e4, cr=-5e4, log_kl=4.8, upper=False)
@example(length=1.0, cl=670.0, cr=670.0, log_kl=1.5, upper=False)  # the angle form
@example(length=1.0, cl=-0.3, cr=-0.3, log_kl=0.5, upper=True)
@example(length=1.0, cl=0.0, cr=0.0, log_kl=2.0, upper=False)
@example(length=1.0, cl=1e-200, cr=1e-200, log_kl=-2.0, upper=True)
def test_property_offset_within_its_rounding_bound(length, cl, cr, log_kl, upper):
    # For k in the bracket ((n - 2) pi, n pi) / L, the evaluated Phi(k) - n pi
    # lies within _OFFSET_ROUNDING eps (k L + 2 pi) of the 40-digit offset at
    # that float k, in the plain form for k L >= 64 and the angle form for
    # every k L; where both apply they agree within the same bound.
    iv = RobinInterval(length, cl, cr)
    k = np.array([10.0**log_kl / length])
    kl = float(k[0]) * length
    n = np.array([math.floor(kl / math.pi) + (2 if upper else 1)])
    offset = spectra1d._phase_offset(iv, k, n)[0]
    angle = spectra1d._angle_offset(iv, k, n, offset)
    bound = spectra1d._OFFSET_ROUNDING * spectra1d._EPS * (kl + 2.0 * math.pi)
    with mpmath.workdps(40):
        km = mpmath.mpf(float(k[0]))
        exact = (km * mpmath.mpf(length) + mpmath.atan2(km, mpmath.mpf(cl))
                 + mpmath.atan2(km, mpmath.mpf(cr)) - int(n[0]) * mpmath.pi)
        assert abs(offset[0] - exact) <= bound, (offset[0], exact, bound)
        assert abs(angle[0] - exact) <= bound, (angle[0], exact, bound)
    assert abs(offset[0] - angle[0]) <= bound


bound_couplings = st.one_of(signed_couplings, st.sampled_from((1e-200, -1e-200, 1e200)))
bound_left, bound_right = left_and_right(bound_couplings, "bound")


@settings(max_examples=300, deadline=None)
@given(length=lengths, cl=bound_left, cr=bound_right,
       log_lo=st.one_of(st.floats(-13.0, 9.0), st.floats(-200.0, 150.0)), u=st.floats(0.0, 1.0))
@example(length=1.0, cl=1e200, cr=-1.0, log_lo=0.0, u=0.0)  # c^2 overflows: that coupling adds 0
@example(length=1.0, cl=-1e-200, cr=1e-200, log_lo=2.0, u=0.5)  # c^2 underflows
@example(length=1.0, cl=-1e-200, cr=0.0, log_lo=-200.0, u=0.0)  # lo^2 + c^2 underflows: M = inf
@example(length=1.0, cl=-3.0, cr=2.0, log_lo=math.log10(3.0), u=0.0)  # |p'| = 1 / (lo^2 + c^2) at k = lo = |c|
@example(length=0.3, cl=-1e3, cr=-1e3, log_lo=1.0, u=0.3)  # m < 0
@example(length=1.4142135623730951, cl=5e4, cr=5e4, log_lo=4.0, u=0.5)  # equal couplings
@example(length=1.4142135623730951, cl=-5e4, cr=-5e4, log_lo=4.5, u=0.0)
@example(length=1.0, cl=670.0, cr=670.0, log_lo=math.log10(670.0), u=0.2)
@example(length=1.0, cl=-0.3, cr=-0.3, log_lo=-1.0, u=1.0)
@example(length=1.0, cl=0.0, cr=0.0, log_lo=0.0, u=0.5)
@example(length=1.0, cl=1e-200, cr=1e-200, log_lo=-150.0, u=0.5)
@example(length=1.0, cl=1e-154, cr=1e-154, log_lo=-200.0, u=0.0)  # each 1 / c^2 is finite, their sum is not
def test_property_bracket_bounds_hold_past_lo(length, cl, cr, log_lo, u):
    # m <= Phi'(k) and |Phi''(k)| <= M for k in [lo, 8 lo], against 30-digit
    # values, up to the bounds' own rounding: a few eps of the terms of m,
    # and of M.
    try:
        iv = RobinInterval(length, cl, cr)
    except ValueError:  # c_l c_r L overflows
        assume(False)
    lo = 10.0**log_lo
    k = lo * 8.0**u
    slope_min, curve_max = (float(b) for b in spectra1d._bracket_bounds(iv, np.float64(lo)))
    with mpmath.workdps(30):
        km, lm = mpmath.mpf(k), mpmath.mpf(lo)
        cs = [mpmath.mpf(c) for c in (cl, cr) if c != 0.0]
        slope = length + sum(c / (km**2 + c**2) for c in cs)
        curve = sum(-2 * c * km / (km**2 + c**2) ** 2 for c in cs)
        scale = length + sum(abs(c) / (lm**2 + c**2) for c in cs)
        assert slope_min <= slope + 4 * spectra1d._EPS * scale, (slope_min, slope)
        assert float(abs(curve)) <= curve_max * (1.0 + 4.0 * spectra1d._EPS), (curve, curve_max)


def test_stiff_interval_roots_match_brentq():
    # c = (1e5, -3e4) up to lam = 1e10: 45,015 positive roots, most of them
    # accepted by the Kantorovich stop after one phase evaluation.
    iv = RobinInterval(math.sqrt(2.0), 1e5, -3e4)
    eigenvalues = enumerate_eigenvalues(iv, 1e10).eigenvalues
    got = np.sqrt(eigenvalues[eigenvalues > 0.0])
    want = np.sqrt(brentq_positive_reference(iv, 1e10))
    assert got.size == want.size == 45_015
    assert np.max(np.abs(got - want) / want) <= 2.0 * spectra1d._ROOT_RTOL


@pytest.mark.parametrize("iv, lam_max, n_positive", [
    (RobinInterval(math.sqrt(2.0), 5e4, 5e4), 2.5e9, 22_508),  # a fixed b = +1 axis at h = 2e-5
    (RobinInterval(math.sqrt(2.0), -5e4, -5e4), 2.5e9, 22_507),  # a fixed b = -1 axis
    (RobinInterval(1.0, -1.0, 2.0), 1e8, 3_183),
], ids=["fixed_b_plus_1_axis", "fixed_b_minus_1_axis", "mixed_signs"])
def test_one_phase_evaluation_per_root(monkeypatch, iv, lam_max, n_positive):
    # Sweep-sized axes, c = +-1/h at h = 2e-5, and a mixed-sign interval: the
    # fixed-point start and the Kantorovich stop on the bracket bounds take
    # one phase point per root, up to 2 %.
    points = []
    phase_offset = spectra1d._phase_offset

    def counted(iv, k, n):
        points.append(k.size)
        return phase_offset(iv, k, n)

    monkeypatch.setattr(spectra1d, "_phase_offset", counted)
    sp = enumerate_eigenvalues(iv, lam_max)
    assert sp.certificate.n_positive == n_positive
    assert sum(points) <= 1.02 * n_positive


@pytest.mark.parametrize("iv, n", [
    # A sweep-sized block: c = 1/h at h = 2e-5, equal couplings.
    (RobinInterval(math.sqrt(2.0), 5e4, 5e4), np.arange(10_001, 10_001 + spectra1d._BRACKET_BLOCK)),
    (RobinInterval(math.sqrt(2.0), 5e4, -3e4), np.arange(2, 2 + spectra1d._BRACKET_BLOCK)),
    # k L < 64, the angle form, whose turn reads n % 2, for odd and even n.
    (RobinInterval(1.0, -0.3, -0.3), np.arange(3, 23)),
    (RobinInterval(1.0, 670.0, 670.0), np.arange(1, 21)),
    (RobinInterval(1.0, 1.03e-8, 0.0), np.arange(1, 21)),
], ids=["sweep_block", "unequal_block", "angle_well", "angle_stiff", "angle_tiny"])
def test_float_phase_indices_give_the_same_roots(iv, n):
    # The enumeration passes float-valued indices; integer ones give the same bits.
    k_max = n[-1] * math.pi / iv.length
    assert np.array_equal(spectra1d._phase_roots(iv, n.astype(float), k_max),
                          spectra1d._phase_roots(iv, n, k_max))


@pytest.mark.parametrize("iv, n", [
    # Indices still open per phase evaluation: 40, 12, 1, 1.
    (RobinInterval(1.0, -0.3, -0.3), np.arange(2, 42)),
    # 1040, then 330.
    (RobinInterval(math.sqrt(5.0), 667.0, 667.0), np.arange(1, 1041)),
    # 30, then the ground state, far below its bracket, alone for 10 more.
    (RobinInterval(0.13, 0.0, 1.8e-12), np.arange(1, 31)),
], ids=["well", "stiff", "far_ground_state"])
def test_a_root_does_not_depend_on_its_block(monkeypatch, iv, n):
    # Indices that settle at the first phase point leave with their Newton
    # iterate in the same rounds in which the rest update their brackets.
    n = n.astype(float)
    k_max = n[-1] * math.pi / iv.length
    alone = [spectra1d._phase_roots(iv, n[i:i + 1], k_max)[0] for i in range(n.size)]
    points = []
    phase_offset = spectra1d._phase_offset

    def counted(iv, k, n):
        points.append(k.size)
        return phase_offset(iv, k, n)

    monkeypatch.setattr(spectra1d, "_phase_offset", counted)
    assert np.array_equal(spectra1d._phase_roots(iv, n, k_max), alone)
    assert 0 < points[1] < points[0] == n.size


def test_phase_count_refuses_2_27_indices(monkeypatch):
    # n _PI_HI is exact only for n < 2^27. On the Neumann interval, where
    # Phi(k) = k L + pi, the count is refused from 2^27 on, before any root
    # is solved; lam = 2e17 gives N = 1.42e8.
    iv = RobinInterval(1.0, 0.0, 0.0)
    below = ((2**27 - 1.5) * math.pi) ** 2
    assert spectra1d._phase_count(iv, below) == 2**27 - 1

    def unsolved(*args):
        raise AssertionError("a root was solved")

    monkeypatch.setattr(spectra1d, "_phase_roots", unsolved)
    for call in (lambda: enumerate_eigenvalues(iv, 2e17), lambda: spectra1d.band_sum(iv, 1.0, 2e17),
                 lambda: spectra1d._phase_count(iv, ((2**27 - 0.5) * math.pi) ** 2)):
        with pytest.raises(ValueError, match=r"e\+08 eigenvalues .* past the solver's 2\^27"):
            call()


# One state, at -143.897, and the first positive eigenvalue at 0.8969.
ONE_DEEP_STATE = RobinInterval(0.8689832091001229, -11.995713818886975, -1.0285271763290529)


@pytest.mark.parametrize("lam", [1e-300, 1e-40])
def test_tiny_cutoff_reports_no_positive_root(lam):
    # Phi(k) = 2 pi - 0.186 k near k = 0, and the plain sum rounds it onto
    # 2 pi; the cutoff itself was once reported as an eigenvalue.
    spectrum = enumerate_eigenvalues(ONE_DEEP_STATE, lam)
    assert spectrum.eigenvalues.tolist() == negative_eigenvalues(ONE_DEEP_STATE)
    assert spectrum.certificate.n_positive == 0
    assert spectra1d._phase_count(ONE_DEEP_STATE, lam) == 1
    assert enumerate_eigenvalues(ONE_DEEP_STATE, 0.9).eigenvalues[1] == pytest.approx(0.8969, abs=1e-4)


@settings(max_examples=200, deadline=None)
@given(length=lengths, cl=couplings, cr=couplings, log_low=st.floats(-300.0, 3.0),
       log_ratio=st.floats(0.0, 4.0))
@example(length=ONE_DEEP_STATE.length, cl=ONE_DEEP_STATE.c_left, cr=ONE_DEEP_STATE.c_right,
         log_low=-40.0, log_ratio=40.0)
def test_property_spectrum_is_a_prefix_of_the_spectrum_at_a_larger_cutoff(length, cl, cr, log_low,
                                                                          log_ratio):
    # Each root is solved to a few ulps, and the top one in a bracket cut at
    # the cutoff, so the shared roots agree to 1e-12 rather than bitwise.
    iv = RobinInterval(length, cl, cr)
    low = enumerate_eigenvalues(iv, 10.0**log_low).eigenvalues
    high = enumerate_eigenvalues(iv, 10.0 ** (log_low + log_ratio)).eigenvalues
    assert low.size <= high.size
    np.testing.assert_allclose(low, high[:low.size], rtol=1e-12, atol=0.0)
