import bisect
import itertools
import math
import re
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from robin_semiclassics import coeffs, riesz, spectra1d
from robin_semiclassics.riesz import (
    BoxDomain,
    _outer_sum,
    _pair_trace,
    _tree_sum,
    axis_spectra,
    kroger_check,
    riesz_mean,
    trace_bruteforce,
    weyl_term,
)

SQ2 = math.sqrt(2.0)


def test_box_geometry():
    box = BoxDomain((1.0, 2.0, 3.0), ((0, 0), (0, 0), (0, 0)))
    assert box.d == 3
    assert abs(box.volume - 6.0) < 1e-15
    assert abs(box.surface_area - 22.0) < 1e-15
    assert abs(box.facet_area(0) - 6.0) < 1e-15
    assert abs(box.facet_area(2) - 2.0) < 1e-15


def test_box_validation():
    with pytest.raises(ValueError):
        BoxDomain((1.0,), ((0.0, 0.0),))
    with pytest.raises(ValueError):
        BoxDomain((1.0, -1.0), ((0.0, 0.0), (0.0, 0.0)))
    with pytest.raises(ValueError):
        BoxDomain((1.0, 1.0), ((0.0, 0.0),))


@pytest.mark.parametrize("facets", [((math.nan, 0.0), (0.0, 0.0)), ((0.0, 0.0), (0.0, -math.inf))],
                         ids=["nan", "-inf"])
def test_box_rejects_non_finite_b(facets):
    # The box is the one owner of b0, so this is the only check on it.
    with pytest.raises(ValueError, match="facet Robin coefficients must be finite"):
        BoxDomain((1.0, 1.0), facets)


def test_neumann_unit_square_reference():
    # Reference value from the explicit lattice sum over pi^2 (m^2 + n^2).
    box = BoxDomain.uniform((1.0, 1.0), 0.0)
    rep = riesz_mean(box, 0.1)
    direct = math.fsum(sorted(
        1.0 - 0.01 * math.pi**2 * (m * m + n * n)
        for m in range(40) for n in range(40)
        if 0.01 * math.pi**2 * (m * m + n * n) < 1.0
    ))
    assert abs(rep.trace - direct) <= 1e-12 * direct
    assert abs(rep.trace - 6.2886690072592355) < 1e-12
    assert rep.eig_count == 13
    assert rep.kroger_ok
    assert [f.name for f in fields(rep)] == ["h", "trace", "eig_count", "kroger_ok"]


@pytest.mark.parametrize("h", [0.2, 0.1, 0.05])
@pytest.mark.parametrize("b", [0.0, 1.0, -1.0, -3.0])
def test_bruteforce_equivalence_d2(h, b):
    box = BoxDomain.uniform((1.0, SQ2), b)
    rep = riesz_mean(box, h)
    brute = trace_bruteforce(box, h)
    assert abs(rep.trace - brute) <= 1e-10 * max(1.0, brute)


def test_bruteforce_equivalence_mixed_facets():
    box = BoxDomain((0.8, 1.7), ((-2.0, 0.5), (1.0, -0.3)))
    rep = riesz_mean(box, 0.1)
    assert abs(rep.trace - trace_bruteforce(box, 0.1)) <= 1e-10 * max(1.0, rep.trace)


def test_bruteforce_equivalence_d3():
    box = BoxDomain((1.0, 1.3, 0.9), ((-1.0, 0.0), (0.5, 0.5), (-0.5, 2.0)))
    rep = riesz_mean(box, 0.15)
    assert abs(rep.trace - trace_bruteforce(box, 0.15)) <= 1e-10 * max(1.0, rep.trace)


@pytest.mark.parametrize("box,h", [
    (BoxDomain((1.0, 1.3, 0.9, 1.1), ((-1.0, 0.0), (0.5, 0.5), (-0.5, 2.0), (-2.0, -0.3))), 0.15),
    (BoxDomain.uniform((1.0, 1.2, 0.9, 1.1), -1.0), 0.1),
    (BoxDomain((0.8,) * 5, ((-1.0, 0.0), (0.5, 0.5), (-0.5, 2.0), (-2.0, -0.3), (1.0, -1.5))),
     0.2),
])
def test_bruteforce_equivalence_d4_d5(box, h):
    # Negative floors on both halves of the axis split: each set of free
    # axes folds its halves up to h^-2 less its own deepest shift.
    rep = riesz_mean(box, h)
    assert abs(rep.trace - trace_bruteforce(box, h)) <= 1e-10 * max(1.0, rep.trace)


def test_tiny_couplings_raise_no_overflow_warning():
    # The bracket bound's 1 / c_l^2 + 1 / c_r^2 overflows for |c| near 1e-154;
    # it is formed where numpy's overflow warning is off.
    iv = spectra1d.RobinInterval(1.0, 1e-154, 1e-154)
    eigenvalues = spectra1d.enumerate_eigenvalues(iv, 100.0).eigenvalues
    np.testing.assert_allclose(eigenvalues, [0.0, math.pi**2, 4.0 * math.pi**2, 9.0 * math.pi**2],
                               rtol=1e-12, atol=1e-12)
    assert riesz_mean(BoxDomain.uniform((1.0, 1.3), 1e-155), 0.1).kroger_ok


def assert_unit_box_trace(length):
    box = BoxDomain.uniform((length, 1.3 * length), -1.0)
    rep = riesz_mean(box, length / 4.0)
    unit = riesz_mean(BoxDomain.uniform((1.0, 1.3), -1.0), 0.25)
    assert abs(rep.trace - unit.trace) <= 1e-13 * unit.trace
    assert rep.eig_count == unit.eig_count == 8
    assert abs(rep.trace - trace_bruteforce(box, length / 4.0)) <= 1e-10 * max(1.0, rep.trace)


@pytest.mark.parametrize("length", [1e-60, 1e-82, 1e-100, 1e-105, 1e-130, 1e-150])
def test_riesz_mean_scale_invariant_on_tiny_boxes(length):
    # Scaling the sides and h by one factor leaves the trace unchanged. On
    # tiny boxes Phi'^4 in the band remainder bound underflows (sides below
    # about 1e-82) and k^3 in the closed form overflows (below about 1e-103),
    # so those bands are enumerated.
    assert_unit_box_trace(length)


@pytest.mark.parametrize("length", [1e12, 1e13, 1e14, 1e20, 1e50, 1e100])
def test_riesz_mean_scale_invariant_on_huge_boxes(length):
    # The couplings b / h = -4 / L make c_l + c_r + c_l c_r L = 8 / L, which
    # the zero-state test's absolute floor 1e-12 (1 + |c_l c_r| L) once read
    # as a zero eigenvalue from L = 1e13 on, dropping a bound state with no
    # error. Its floor is now the size of those three terms.
    assert_unit_box_trace(length)


# How far below the h <= min(sides)/4 guard h is drawn, in decades, per d:
# the oracle builds the full product of the axis spectra.
H_DECADES = {2: 2.0, 3: 0.9, 4: 0.5}


@st.composite
def boxes_and_h(draw):
    """d in {2, 3, 4}, sides in [0.5, 2], facet b in [-3, 3], h log-uniform below the guard."""
    d = draw(st.sampled_from(sorted(H_DECADES)))
    sides = tuple(draw(st.floats(0.5, 2.0)) for _ in range(d))
    facet_b = tuple((draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))) for _ in range(d))
    return BoxDomain(sides, facet_b), min(sides) / 4.0 * 10.0 ** -draw(st.floats(0.0, H_DECADES[d]))


@settings(max_examples=200, deadline=None)
@given(case=boxes_and_h())
@example(case=(BoxDomain((0.8, 1.7), ((-2.0, 0.5), (1.0, -0.3))), 0.1))  # certified bands in 2-D
@example(case=(BoxDomain((0.6, 1.9, 1.2, 0.7), ((-2.5, 1.0), (0.3, -1.2), (2.0, -0.4), (-3.0, 3.0))), 0.1))
# Axis 0 has no state, so its bands are dropped and its one-free set must
# still reach the two partner states' shift.
@example(case=(BoxDomain((1.0, 1.0, 1.0), ((0.0, 0.0), (0.0, -1.0), (0.0, -1.0))), 0.25))
def test_property_riesz_mean_matches_bruteforce(case):
    box, h = case
    spectra = axis_spectra(box, h)
    # The oracle's product of every axis spectrum, capped to keep memory small.
    assume(math.prod(spec.size for spec in spectra) <= 3_000_000)
    rep = riesz_mean(box, h)
    oracle = trace_bruteforce(box, h)
    assert abs(rep.trace - oracle) <= 1e-10 * max(1.0, abs(oracle))
    total = spectra[0]
    for spec in spectra[1:]:
        total = (total[:, None] + spec[None, :]).ravel()
    assert rep.eig_count == np.count_nonzero(1.0 - h * h * total > 0.0)


def test_three_dimensional_large_regime_matches_bruteforce():
    # gamma = 1/4, b0 = -1 at h = 0.02: c = -133 on every facet, so each axis
    # has two states near -17700, seven times h^-2 deep, and every set of
    # free axes has a pattern. The oracle's product is 6e5 tuples.
    h = 0.02
    box = BoxDomain.uniform((1.0, SQ2, math.sqrt(3.0)), -(h**-0.25))
    spectra = axis_spectra(box, h)
    assert all(spec[1] < -7.0 * h**-2 for spec in spectra)
    rep = riesz_mean(box, h)
    assert abs(rep.trace - trace_bruteforce(box, h)) <= 1e-10 * rep.trace
    total = (spectra[0][:, None, None] + spectra[1][None, :, None] + spectra[2][None, None, :]).ravel()
    assert rep.eig_count == np.count_nonzero(1.0 - h * h * total > 0.0)


def test_three_dimensional_large_regime_answers_at_2_5e_4(monkeypatch):
    # Folding whole axes, each enumerated past h^-2 by its partners' floors,
    # took a 14377 x 20332 fold here, past the budget. Each set's folds are
    # cut at its own h^-2 - sigma, and the largest (1273 x 1800) is far below
    # 2^22 sums. Negative couplings raise the trace above Neumann's.
    h = 2.5e-4
    sides = (1.0, SQ2, math.sqrt(3.0))
    monkeypatch.setattr(riesz, "_MAX_FOLD_SIZE", 2**22)
    rep = riesz_mean(BoxDomain.uniform(sides, -(h**-0.25)), h)
    neumann = riesz_mean(BoxDomain.uniform(sides, 0.0), h)
    assert rep.kroger_ok and math.isfinite(rep.trace)
    assert rep.trace > neumann.trace and rep.eig_count > neumann.eig_count


def test_single_mode_hand_count():
    # h = 0.24 on the unit square: per-axis spectrum below cutoff is {0, pi^2},
    # so the trace is 1 + 2 (1 - h^2 pi^2) by hand.
    h = 0.24
    rep = riesz_mean(BoxDomain.uniform((1.0, 1.0), 0.0), h)
    hand = 1.0 + 2.0 * (1.0 - h * h * math.pi**2)
    assert abs(rep.trace - hand) < 1e-14
    assert rep.eig_count == 3


def test_trace_monotone_in_b():
    h = 0.1
    t_neg = riesz_mean(BoxDomain.uniform((1.0, 1.0), -1.0), h).trace
    t_neu = riesz_mean(BoxDomain.uniform((1.0, 1.0), 0.0), h).trace
    t_pos = riesz_mean(BoxDomain.uniform((1.0, 1.0), 1.0), h).trace
    assert t_neg > t_neu > t_pos


def test_trace_nonincreasing_in_h():
    box = BoxDomain.uniform((1.0, SQ2), 1.0)
    traces = [riesz_mean(box, h).trace for h in (0.2, 0.1, 0.05, 0.025)]
    assert all(a < b for a, b in zip(traces[:-1], traces[1:]))


def test_weyl_term_values_and_scaling():
    sq = BoxDomain.uniform((1.0, 1.0), 0.0)
    assert abs(weyl_term(sq, 0.1) - 100.0 / (8.0 * math.pi)) < 1e-12
    cube = BoxDomain.uniform((1.0, 1.0, 1.0), 0.0)
    assert abs(weyl_term(cube, 0.1) - 1000.0 / (15.0 * math.pi**2)) < 1e-10
    for box, d in ((sq, 2), (cube, 3)):
        assert abs(weyl_term(box, 0.05) / weyl_term(box, 0.1) - 2.0**d) < 1e-12


def test_kroger_neumann_reduces_to_weyl_bound():
    box = BoxDomain.uniform((1.0, 1.0), 0.0)
    for h in (0.2, 0.1, 0.05):
        rep = riesz_mean(box, h)
        # Neumann: bound is trace >= l1 |Omega| h^-2 exactly
        assert rep.trace >= coeffs.l1(2).value * h**-2 - 1e-10
        assert kroger_check(box, h, rep.trace)


def test_kroger_positive_b_weaker_and_negative_b_margin():
    for h in (0.2, 0.1, 0.05):
        pos = BoxDomain.uniform((1.0, 1.0), 2.0)
        assert riesz_mean(pos, h).kroger_ok
    margins = []
    for h in (0.2, 0.1, 0.05):
        box = BoxDomain.uniform((1.0, 1.0), -1.0)
        rep = riesz_mean(box, h)
        assert rep.kroger_ok
        lam = h**-2
        c_int = sum(box.facet_area(i) * (lo + hi) / h for i, (lo, hi) in enumerate(box.facet_b))
        rhs = (coeffs.l1(2).value * box.volume * lam**2.0
               - coeffs.unit_ball_volume(2).value / (2 * math.pi) ** 2 * c_int * lam)
        margins.append((rep.trace * lam - rhs) * h**3)
    # margin scales roughly like the h^(-d+1) term: normalized values comparable
    assert max(margins) / min(margins) < 4.0


def test_kroger_violated_by_fabricated_trace():
    box = BoxDomain.uniform((1.0, 1.0), 0.0)
    assert not kroger_check(box, 0.1, 1.0)


def test_h_guard():
    box = BoxDomain.uniform((1.0, 1.0), 0.0)
    with pytest.raises(ValueError):
        riesz_mean(box, 0.26)
    with pytest.raises(ValueError):
        riesz_mean(box, -0.1)


def test_nan_h_rejected_by_the_h_guard():
    with pytest.raises(ValueError, match="need h > 0, got nan"):
        riesz_mean(BoxDomain.uniform((1.0, 1.0), 0.0), math.nan)


def test_h_whose_inverse_square_overflows_is_rejected():
    # h^-2 overflows exactly at h <= 2^-512; it once escaped as OverflowError.
    box = BoxDomain.uniform((1.0, 1.0), 0.0)
    with pytest.raises(ValueError, match="h = 1e-160 is too small: h\\^-2 overflows"):
        riesz_mean(box, 1e-160)
    with pytest.raises(ValueError, match="overflows"):
        riesz.check_h(2.0**-512, 2)
    smallest = math.nextafter(2.0**-512, 1.0)
    assert riesz.check_h(smallest, 2) == smallest and math.isfinite(smallest**-2)


def test_fold_past_the_budget_is_refused(monkeypatch):
    # A 3-D box folds its first two axes into one half: the refusal names
    # both sizes, and a budget of exactly their product still answers.
    box = BoxDomain((1.0, SQ2, math.sqrt(3.0)), ((1.0, -0.5), (0.0, 2.0), (-1.0, 1.0)))
    want = riesz_mean(box, 0.05)
    monkeypatch.setattr(riesz, "_MAX_FOLD_SIZE", 40)
    with pytest.raises(ValueError, match="past the budget of 40 ") as info:
        riesz_mean(box, 0.05)
    assert str(info.value).endswith(" at h = 0.05")
    rows, cols = map(int, re.search(r"a fold of (\d+) x (\d+) ", str(info.value)).groups())
    monkeypatch.setattr(riesz, "_MAX_FOLD_SIZE", rows * cols)
    assert riesz_mean(box, 0.05) == want


def test_trace_bruteforce_refuses_past_the_budget(monkeypatch):
    box = BoxDomain.uniform((1.0, SQ2), -1.0)
    sizes = [spec.size for spec in axis_spectra(box, 0.05)]
    monkeypatch.setattr(riesz, "_MAX_FOLD_SIZE", sizes[0] * sizes[1] - 1)
    with pytest.raises(ValueError, match=f"a fold of {sizes[0]} x {sizes[1]} eigenvalue sums .* at h = 0.05$"):
        trace_bruteforce(box, 0.05)


def test_negative_b_extends_partner_cutoff():
    # Deep wells push pair contributions past the naive h^-2 cutoff; the
    # brute-force oracle shares the extended spectra, so compare against a
    # directly enumerated, deliberately oversized product sum.
    from robin_semiclassics.spectra1d import RobinInterval, enumerate_eigenvalues

    h = 0.1
    box = BoxDomain.uniform((1.0, 1.0), -2.0)
    rep = riesz_mean(box, h)
    big = enumerate_eigenvalues(RobinInterval(1.0, -20.0, -20.0), 5.0 * h**-2).eigenvalues
    vals = [1.0 - h * h * (a + b) for a in big for b in big]
    oversized = math.fsum(sorted(v for v in vals if v > 0.0))
    assert abs(rep.trace - oversized) <= 1e-10 * oversized


def pair_trace_loop(sorted_axis, other_axis, h):
    """The per-eigenvalue searchsorted loop over a plain prefix, summed by fsum."""
    cutoff = h**-2
    h2 = h * h
    prefix = np.concatenate(([0.0], np.cumsum(sorted_axis)))
    terms = []
    count = 0
    for lam in other_axis:
        k = int(np.searchsorted(sorted_axis, cutoff - lam, side="left"))
        if k == 0:
            break
        terms.append(k * (1.0 - h2 * lam) - h2 * prefix[k])
        count += k
    return math.fsum(terms), count


def exact_pair_trace(sorted_axis, other_axis, h):
    """(trace, count, scale) of _pair_trace in rational arithmetic from the same floats.

    scale is the sum of 1 + h^2 (|x| + |y|) over the counted pairs, the
    size of the row terms' rounding.
    """
    xs = [Fraction(x) for x in sorted_axis.tolist()]
    prefix, abs_prefix = [Fraction(0)], [Fraction(0)]
    for x in xs:
        prefix.append(prefix[-1] + x)
        abs_prefix.append(abs_prefix[-1] + abs(x))
    cutoff, h2 = Fraction(h**-2), Fraction(h * h)
    trace, count, scale = Fraction(0), 0, Fraction(0)
    for y in map(Fraction, other_axis.tolist()):
        k = bisect.bisect_left(xs, cutoff - y)
        trace += k * (1 - h2 * y) - h2 * prefix[k]
        count += k
        scale += k * (1 + h2 * abs(y)) + h2 * abs_prefix[k]
    return trace, count, scale


@pytest.mark.parametrize("box,h,exits_early", [
    (BoxDomain.uniform((1.0, SQ2), 1.0), 2e-3, False),
    (BoxDomain.uniform((1.0, SQ2), -1.0), 2e-3, False),
    (BoxDomain((1.0, 1.3, 0.9), ((-1.0, 0.0), (0.5, 0.5), (-0.5, 2.0))), 0.02, False),
    (BoxDomain.uniform((1.0, 1.3, 0.9), 0.5), 0.02, True),
])
def test_pair_trace_near_exact_rational(box, h, exits_early):
    # The compensated trace against a rational recomputation from the same
    # sorted arrays, and no further from it than the plain loop's fsum.
    spectra = axis_spectra(box, h)
    combined = spectra[0]
    for axis in range(1, box.d - 1):
        allowance = sum(min(0.0, float(spec.min())) for spec in spectra[axis + 1:])
        combined = _outer_sum(combined, spectra[axis], h)
        combined = combined[combined <= h**-2 - allowance]
        combined.sort()
    # Whether the last partner eigenvalue passes the cutoff, i.e. the loop breaks.
    assert (combined[0] + spectra[-1][-1] >= h**-2) == exits_early
    trace, count = _pair_trace(combined, spectra[-1], h)
    plain, loop_count = pair_trace_loop(combined, spectra[-1], h)
    exact, exact_count, _ = exact_pair_trace(combined, spectra[-1], h)
    assert count == loop_count == exact_count
    error = abs(Fraction(trace) - exact)
    assert error <= 1e-7
    assert error <= abs(Fraction(plain) - exact)


def test_cumsum_adds_in_order():
    # _pair_trace's low part rests on np.cumsum rounding each step in turn.
    rng = np.random.default_rng(1)
    x = rng.standard_normal(100_000) * 10.0 ** rng.integers(-8, 9, 100_000)
    steps = np.cumsum(x)
    assert np.array_equal(steps[1:], steps[:-1] + x[1:])


finite = st.floats(-1e200, 1e200, allow_nan=False)


@st.composite
def cancelling(draw):
    """Values and their negatives, nudged and shuffled, with a few small ones."""
    big = draw(st.lists(finite, max_size=40))
    nudged = [-v * (1.0 + draw(st.sampled_from((0.0, 2.0**-52, -(2.0**-40))))) for v in big]
    small = draw(st.lists(st.floats(-1.0, 1.0), max_size=5))
    return draw(st.permutations(big + nudged + small))


@settings(max_examples=300, deadline=None)
@given(values=st.one_of(st.lists(finite, max_size=1), st.lists(finite, max_size=65), cancelling()))
@example(values=[])
@example(values=[3.5])
@example(values=[1e16, 1.0, -1e16])
@example(values=[1.0, 1e100, 1.0, -1e100])
def test_tree_sum_matches_fsum(values):
    # Within one ulp of the correctly rounded sum, plus the rounding of the
    # levels' error sums, second order in eps.
    reference = math.fsum(values)
    size = max(len(values), 1)
    bound = math.ulp(reference) + size**2 * 2.0**-104 * math.fsum(map(abs, values))
    assert abs(_tree_sum(np.array(values, dtype=float)) - reference) <= bound


spectrum_like = st.lists(st.floats(-300.0, 3e4), max_size=60).map(lambda v: np.array(sorted(v)))


@settings(max_examples=200, deadline=None)
@given(a=spectrum_like, b=spectrum_like, h=st.floats(0.01, 0.5))
@example(a=np.array([0.1]), b=np.array([3.9]), h=0.5)  # 0.1 + 3.9 < 4, fl(4 - 0.1) = 3.9
@example(a=np.array([50.0, 60.0]), b=np.array([70.0]), h=0.2)  # no pair below h^-2 = 25
def test_pair_trace_is_symmetric(a, b, h):
    exact, exact_count, scale = exact_pair_trace(a, b, h)
    # Each row term rounds a few times at the size of its pairs; the tree, once.
    bound = 8.0 * 2.0**-53 * float(scale) + math.ulp(float(exact))
    for first, second in ((a, b), (b, a)):
        trace, count = _pair_trace(first, second, h)
        assert count == exact_count
        assert abs(Fraction(trace) - exact) <= bound
    if exact_count == 0:
        assert _pair_trace(a, b, h) == _pair_trace(b, a, h) == (0.0, 0)


@settings(max_examples=200, deadline=None)
@given(a=spectrum_like, b=st.lists(st.floats(-300.0, 3e4), max_size=60).map(np.array),
       h=st.floats(0.01, 0.5))
@example(a=np.array([0.1, 2.0, 5.0]), b=np.array([3.9, -1.0, 20.0, 0.5]), h=0.5)
def test_pair_trace_keys_in_any_order(a, b, h):
    # Each y of the searched axis is counted on its own, so that axis may come in any order.
    exact, exact_count, scale = exact_pair_trace(a, b, h)
    trace, count = _pair_trace(a, b, h)
    assert count == exact_count
    assert abs(Fraction(trace) - exact) <= 8.0 * 2.0**-53 * float(scale) + math.ulp(float(exact))


def test_pair_trace_of_a_shuffled_sweep_axis():
    # A 2-D sweep's axes with the searched one shuffled: the exact count, and
    # the trace within the row terms' rounding of the rational one.
    h = 2e-3
    first, second = axis_spectra(BoxDomain.uniform((1.0, SQ2), -1.0), h)
    shuffled = np.random.default_rng(3).permutation(second)
    exact, exact_count, scale = exact_pair_trace(first, shuffled, h)
    trace, count = _pair_trace(first, shuffled, h)
    assert count == exact_count == _pair_trace(first, second, h)[1]
    assert abs(Fraction(trace) - exact) <= 8.0 * 2.0**-53 * float(scale) + math.ulp(float(exact))


@pytest.mark.parametrize("box,h,paths", [
    # Large regime gamma = 1/4, b0 = -1: b = -h^(-1/4). Uniform axes have two
    # bound states each, the same float, so each axis takes one band.
    (BoxDomain.uniform((1.0, SQ2), -(1e-3 ** -0.25)), 1e-3, (False,) * 2),
    (BoxDomain.uniform((1.0, SQ2), -(2e-4 ** -0.25)), 2e-4, (True,) * 2),
    (BoxDomain.uniform((1.0, SQ2), -1.0), 4e-5, (True,) * 2),
    # The first band holds no root; the second, 7 roots, is too short for
    # the closed form, so the second axis is enumerated.
    (BoxDomain((0.8, 1.7), ((-2.0, 0.5), (1.0, -0.3))), 0.1, (True, False)),
    # The first band, 112 roots above index 2547, fails both the remainder
    # and the rounding test of the closed form: the first axis is
    # enumerated, the second takes its band in closed form.
    (BoxDomain((0.8, 1.7), ((-2.0, 0.5), (1.0, -0.3))), 1e-4, (False, True)),
    # The same facets in the large regime gamma = 1/4.
    (BoxDomain((0.8, 1.7), ((-2.0 * 2e-4 ** -0.25, 0.5 * 2e-4 ** -0.25),
                            (1.0 * 2e-4 ** -0.25, -0.3 * 2e-4 ** -0.25))), 2e-4, (True, True)),
])
def test_band_sums_match_the_inflated_enumeration(monkeypatch, box, h, paths):
    # riesz_mean cuts an axis at h^-2 and adds its bands above the cut where
    # every one is certified in closed form, and else enumerates that axis
    # through its deepest band; axis_spectra enumerates every band.
    taken = []
    band_sum = riesz.band_sum

    def recorded(*args):
        band = band_sum(*args)
        taken.append(band is not None)
        return band

    monkeypatch.setattr(riesz, "band_sum", recorded)
    rep = riesz_mean(box, h)
    trace, count = _pair_trace(*axis_spectra(box, h), h)
    assert abs(rep.trace - trace) <= 1e-14 * trace
    assert rep.eig_count == count
    assert tuple(taken) == paths


def test_no_phase_index_is_solved_twice(monkeypatch):
    # Uniform b0 = -1 at h = 1e-3: each axis has two bound states, the same
    # float, so each axis takes one band. Each band may solve its two end
    # roots; every other index is solved once, by the one enumeration of its
    # axis (1093 indices in all).
    solved, enumerated, bands = [], [], []
    phase_roots, enumerate_eigenvalues, band_sum = (
        spectra1d._phase_roots, riesz.enumerate_eigenvalues, riesz.band_sum)

    def counted_roots(iv, n, k_max):
        solved.append(n.size)
        return phase_roots(iv, n, k_max)

    def counted_enumeration(iv, lam_max):
        spectrum = enumerate_eigenvalues(iv, lam_max)
        enumerated.append(spectrum.certificate.n_positive)
        return spectrum

    def counted_band(*args):
        bands.append(args)
        return band_sum(*args)

    monkeypatch.setattr(spectra1d, "_phase_roots", counted_roots)
    monkeypatch.setattr(riesz, "enumerate_eigenvalues", counted_enumeration)
    monkeypatch.setattr(riesz, "band_sum", counted_band)
    riesz_mean(BoxDomain.uniform((1.0, SQ2), -1.0), 1e-3)
    assert len(enumerated) == 2 and len(bands) == 2
    assert sum(solved) <= sum(enumerated) + 2 * len(bands)


def _product_count(box, h):
    """Tuples below h^-2 in the full product of axis_spectra."""
    spectra = axis_spectra(box, h)
    total = spectra[0]
    for spec in spectra[1:]:
        total = (total[:, None] + spec[None, :]).ravel()
    return np.count_nonzero(1.0 - h * h * total > 0.0)


DISTINCT_2D = BoxDomain((1.0, SQ2), ((-1.0, -1.5), (-0.7, -1.2)))
DISTINCT_3D = BoxDomain((1.0, SQ2, 1.3), ((-1.0, -1.5), (-0.7, 0.4), (-1.1, -1.1)))
UNIFORM_3D = BoxDomain.uniform((1.0, SQ2, 1.3), -1.0)


@pytest.mark.parametrize("box,h", [
    # Two distinct states per axis: four distinct shifts per one-free set.
    *[(DISTINCT_2D, h) for h in (1e-2, 2e-3, 5e-4)],
    # Distinct states on axis 0, one on axis 1, a pinched pair on axis 2.
    *[(DISTINCT_3D, h) for h in (0.05, 0.02, 0.01)],
    # Sets (0, 1) and (0, 2) both reach (0,); only the first takes it in.
    (UNIFORM_3D, 0.02),
])
def test_taken_in_sets_match_bruteforce(box, h):
    # A set of at most two free axes pairs its longer axis with that axis's
    # states below its roots, so its pairing also covers the set without it.
    rep = riesz_mean(box, h)
    oracle = trace_bruteforce(box, h)
    assert rep.eig_count == _product_count(box, h)
    assert abs(rep.trace - oracle) <= 1e-14 * oracle


@pytest.mark.parametrize("box,h,pairings", [
    (BoxDomain.uniform((1.0, SQ2), -1.0), 4e-5, 1),
    (BoxDomain.uniform((1.0, SQ2), -(1e-3 ** -0.25)), 1e-3, 1),
    (DISTINCT_2D, 2e-3, 1),
    (UNIFORM_3D, 0.02, 3),
])
def test_one_pairing_in_2d_and_one_band_per_distinct_shift(monkeypatch, box, h, pairings):
    # In 2-D the set of both axes takes in one one-free set, and the other
    # one-free set takes in the set of none, through the same prefix: one
    # pairing. Each axis sums one band per distinct shift of its one-free set.
    pairs, bands = [], []
    pair_trace, band_sum = riesz._pair_trace, riesz.band_sum

    def counted_pair(*args):
        pairs.append(args)
        return pair_trace(*args)

    def counted_band(*args):
        bands.append(args)
        return band_sum(*args)

    monkeypatch.setattr(riesz, "_pair_trace", counted_pair)
    monkeypatch.setattr(riesz, "band_sum", counted_band)
    riesz_mean(box, h)
    states = [spectra1d.negative_eigenvalues(iv) for iv in riesz._intervals(box, h)]
    distinct = sum(len({sum(p) for p in itertools.product(*states[:i], *states[i + 1:])})
                   for i in range(box.d))
    assert len(pairs) == pairings
    assert len(bands) == len(set(bands)) == distinct


@pytest.mark.parametrize("box,h", [(BoxDomain.uniform((1.0, SQ2), -1.0), 4e-5), (DISTINCT_2D, 2e-3)])
def test_pairing_prefix_sums_the_enumeration_array(monkeypatch, box, h):
    # The axis a 2-D pairing prefix-sums, its states below its roots, is
    # the array enumerate_eigenvalues returned, not a copy of it.
    report = riesz_mean(box, h)
    enumerated, paired = [], []
    enumerate_eigenvalues, pair_trace = riesz.enumerate_eigenvalues, riesz._pair_trace

    def kept_enumeration(*args):
        spectrum = enumerate_eigenvalues(*args)
        enumerated.append(spectrum.eigenvalues)
        return spectrum

    def kept_pair(sorted_axis, *args):
        paired.append(sorted_axis)
        return pair_trace(sorted_axis, *args)

    monkeypatch.setattr(riesz, "enumerate_eigenvalues", kept_enumeration)
    monkeypatch.setattr(riesz, "_pair_trace", kept_pair)
    assert riesz_mean(box, h) == report
    assert len(paired) == 1 and paired[0][0] < 0.0
    assert any(paired[0] is whole for whole in enumerated)


@pytest.mark.parametrize("sides", [(1.0, SQ2), (1.0, SQ2, 1.3), (1.0, SQ2, 1.3, 0.9)])
def test_each_axis_solved_once_at_the_top_level(monkeypatch, sides):
    # The benchmark's span counts rest on this: riesz_mean asks for each
    # axis's bound states once and enumerates each axis once, in any d.
    calls = []

    def counted(name):
        original = getattr(riesz, name)

        def call(*args):
            calls.append(name)
            return original(*args)

        return call

    for name in ("negative_eigenvalues", "enumerate_eigenvalues"):
        monkeypatch.setattr(riesz, name, counted(name))
    riesz_mean(BoxDomain.uniform(sides, -1.0), 0.05)
    assert calls.count("negative_eigenvalues") == len(sides)
    assert calls.count("enumerate_eigenvalues") == len(sides)


def _longdouble_trace(box, h):
    """Trace and count from the two halves' full pair sums, all in long double."""
    spectra = [spec.astype(np.longdouble) for spec in axis_spectra(box, h)]
    h2 = np.longdouble(h) * np.longdouble(h)
    halves = []
    for axes in ((0, 1), (2, 3)):
        sums = (spectra[axes[0]][:, None] + spectra[axes[1]][None, :]).ravel()
        sums.sort()
        halves.append(sums)
    first, second = halves
    prefix = np.concatenate(([np.longdouble(0.0)], np.cumsum(first)))
    counts = np.searchsorted(first, 1.0 / h2 - second, side="left")
    terms = counts * (1.0 - h2 * second) - h2 * prefix[counts]
    return terms.sum(), int(counts.sum())


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-16,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("b", [1.0, -1.0])
def test_d4_trace_within_1e14_of_long_double(b):
    # The prefix sums run over one half's pair sums, tens of thousands of
    # entries, rather than millions of three-axis sums.
    box = BoxDomain.uniform((1.0, SQ2, math.sqrt(3.0), math.sqrt(5.0)), b)
    h = 1.5e-3
    rep = riesz_mean(box, h)
    ref, count = _longdouble_trace(box, h)
    assert abs(np.longdouble(rep.trace) - ref) <= 1e-14 * ref
    assert rep.eig_count == count
