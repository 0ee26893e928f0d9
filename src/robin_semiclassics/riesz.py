"""Tensorized box spectra, the Riesz mean Tr(H(b))_-, and the sharp lower bound.

The operator is H(b) = -h^2 Delta - 1 on a box with per-facet Robin
coefficients b (classical coefficients c = b/h). Its Riesz mean is the
sum of (1 - h^2 lambda)_+ over tuples of per-axis interval eigenvalues,
evaluated by sorted prefix sums so that no O(N^2) pass is needed. It is
assembled the same way in every dimension. Each axis's bound states give
its floor, and each axis is enumerated once, to h^-2 less the other axes'
floors (_axis_cutoff). In 2-D the roots of an axis above h^-2 pair only
with the other axis's bound states; where spectra1d.band_sum certifies the
closed form of every such band, the axis is cut at h^-2 and the bands are
added. The axes split into halves 0..ceil(d/2)-1 and ceil(d/2)..d-1; each
half folds into sorted partial sums below the cutoff (in 2-D a half is one
axis), and the two sorted arrays are paired by the same prefix sums (meet
in the middle), so no (d-1)-axis tuple array is built. The longer half is
prefix-summed and the shorter one searched. The trace is of order h^-d
while the remainder checked against the paper is O(1), so the pairing is
compensated: the prefix carries the TwoSum errors of its steps in a low
part, and the row terms are added by a vectorized TwoSum tree.

riesz_mean reports only what it measures: the trace, the tuple count and
the Kroger check. The two-term prediction and the remainder belong to
asympt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import coeffs
from .spectra1d import RobinInterval, band_sum, enumerate_eigenvalues, negative_eigenvalues

# Relative slack of kroger_check, for the rounding of trace and both bound terms.
_KROGER_RTOL = 1e-10


@dataclass(frozen=True)
class BoxDomain:
    """A d-dimensional box; facet_b[i] = (b at x_i = 0, b at x_i = side_i)."""

    sides: tuple
    facet_b: tuple

    def __post_init__(self):
        sides = tuple(float(s) for s in self.sides)
        facets = tuple((float(lo), float(hi)) for lo, hi in self.facet_b)
        object.__setattr__(self, "sides", sides)
        object.__setattr__(self, "facet_b", facets)
        d = coeffs.check_dimension(len(sides))
        if any(not (math.isfinite(s) and s > 0.0) for s in sides):
            raise ValueError(f"box sides must be positive, got {sides}")
        if len(facets) != d:
            raise ValueError(f"need one facet pair per axis: {d} axes, {len(facets)} pairs")
        if any(not (math.isfinite(lo) and math.isfinite(hi)) for lo, hi in facets):
            raise ValueError("facet Robin coefficients must be finite")

    @classmethod
    def uniform(cls, sides, b):
        return cls(tuple(sides), tuple((float(b), float(b)) for _ in sides))

    @property
    def d(self):
        return len(self.sides)

    @property
    def volume(self):
        return math.prod(self.sides)

    @property
    def surface_area(self):
        return sum(2.0 * self.volume / s for s in self.sides)

    def facet_area(self, axis):
        return self.volume / self.sides[axis]


@dataclass(frozen=True)
class RieszReport:
    """What riesz_mean measures at h: the Riesz mean Tr(H(b))_-, the number
    of tuples below h^-2 it sums, and whether the Kroger lower bound holds."""

    h: float
    trace: float
    eig_count: int
    kroger_ok: bool


def check_h(h):
    """The semiclassical parameter as a float; it must be positive (NaN is not)."""
    h = float(h)
    if not h > 0.0:
        raise ValueError(f"need h > 0, got {h}")
    return h


def weyl_term(box, h):
    """Leading volume term l1(d) |Omega| h^(-d)."""
    return coeffs.l1(box.d).value * box.volume * h ** (-box.d)


def _intervals(box, h):
    return [RobinInterval(side, lo / h, hi / h) for side, (lo, hi) in zip(box.sides, box.facet_b)]


def _axis_cutoff(h, floors, i):
    """How far axis i is enumerated: h^-2 less the other axes' floors.

    A tuple below h^-2 puts at most h^-2 minus their floors on axis i. The
    slack takes in a root that rounding in this difference or in the phase
    count would put just past it; a root it takes in past the cut pairs
    with nothing, since _pair_trace cuts every tuple at h^-2 exactly.
    """
    return (h**-2 - sum(f for j, f in enumerate(floors) if j != i)) * (1.0 + 1e-12)


def axis_spectra(box, h):
    """Exhaustive per-axis spectra with cutoffs raised by the partner axes'
    negative parts, so no tuple below the total cutoff h^-2 is missed."""
    intervals = _intervals(box, h)
    floors = [min(negative_eigenvalues(iv), default=0.0) for iv in intervals]
    return [enumerate_eigenvalues(iv, _axis_cutoff(h, floors, i)).eigenvalues
            for i, iv in enumerate(intervals)]


def _two_sum_error(a, b, s):
    """The error of s = fl(a + b), exactly: a + b = s + error (Knuth's TwoSum).

    (a - (s - bb)) + (b - bb) with bb = s - a, written in place: on the
    prefix arrays a fresh temporary costs more than the arithmetic.
    """
    bb = s - a
    error = s - bb
    np.subtract(a, error, out=error)
    np.subtract(b, bb, out=bb)
    error += bb
    return error


def _tree_sum(values):
    """Compensated sum of a float array.

    Pairwise levels of vectorized TwoSum; each level's errors are summed
    into one float, and the last value, the levels' error sums and the
    values left over at odd levels are added exactly by math.fsum. The
    result is within about one ulp of the exact sum (Ogita, Rump & Oishi
    2005), at numpy speed rather than fsum's one Python scalar at a time.
    """
    rest = []
    while values.size > 1:
        if values.size % 2:
            rest.append(float(values[-1]))
            values = values[:-1]
        a, b = values[0::2], values[1::2]
        values = a + b
        rest.append(float(_two_sum_error(a, b, values).sum()))
    return math.fsum([*values.tolist(), *rest])


def _pair_trace(sorted_axis, other_axis, h):
    """Sum of (1 - h^2 (x + y))_+ over x in sorted_axis, y in other_axis.

    Each y searches sorted_axis, which must be ascending, for the count k
    of x with x + y < h^-2 in exact arithmetic, and adds the row term
    k (1 - h^2 y) - h^2 (x_0 + ... + x_{k-1}) from a prefix sum. The count
    and the sum are the same with the arguments swapped, so riesz_mean
    prefix-sums the longer half and searches the shorter. The prefix is
    compensated: the TwoSum error of each np.cumsum step is prefix-summed
    into a low part, and each row term subtracts h^2 times it. That needs
    np.cumsum to add strictly in order, s_k = fl(s_{k-1} + x_k), as
    np.add.accumulate does. The row terms are added by _tree_sum. What
    rounding is left comes from the products in each row term; on the
    4-D box at h = 1.5e-3 it is 2e-8 on a trace of 1.1e9. Returns
    (trace, count).
    """
    cutoff = h**-2
    h2 = h * h
    prefix = np.zeros(sorted_axis.size + 1)
    np.cumsum(sorted_axis, out=prefix[1:])
    low = np.zeros_like(prefix)
    np.cumsum(_two_sum_error(prefix[:-1], sorted_axis, prefix[1:]), out=low[1:])
    # x < cutoff - y exactly: below the rounded key, or equal to it where
    # the key was rounded down.
    keys = cutoff - other_axis
    rounded_down = _two_sum_error(cutoff, -other_axis, keys) > 0.0
    np.nextafter(keys, np.inf, out=keys, where=rounded_down)
    counts = np.searchsorted(sorted_axis, keys, side="left")
    terms = counts * (1.0 - h2 * other_axis) - h2 * prefix[counts] - h2 * low[counts]
    return _tree_sum(terms), int(counts.sum())


def _reduce_pair(a, b, cutoff):
    """Sorted pair sums a_i + b_j not exceeding ``cutoff``."""
    sums = (a[:, None] + b[None, :]).ravel()
    sums = sums[sums <= cutoff]
    sums.sort()
    return sums


def riesz_mean(box, h):
    """Riesz mean Tr(H(b))_-; returns a report with trace, eig_count and kroger_ok."""
    h = check_h(h)
    if h > min(box.sides) / 4.0:
        raise ValueError(
            f"h = {h} violates the h <= min(sides)/4 = {min(box.sides) / 4.0} guard"
        )
    intervals = _intervals(box, h)
    bound_states = [negative_eigenvalues(iv) for iv in intervals]
    floors = [min(states, default=0.0) for states in bound_states]
    spectra, parts, count = [], [], 0
    for i, iv in enumerate(intervals):
        lam_max = _axis_cutoff(h, floors, i)
        if box.d == 2:
            # A root x above h^-2 pairs only with a partner bound state y,
            # adding h^2 (h^-2 - y - x), so the bands are summed in closed
            # form where every one of them is certified. For d >= 3 a tuple
            # can have two axes above h^-2, so the spectra stay exhaustive.
            cut = _axis_cutoff(h, (), i)
            bands = [band_sum(iv, cut, h**-2 - y) for y in bound_states[1 - i]]
            if not any(band is None for band in bands):
                lam_max = cut
                parts += [h * h * band.value for band in bands]
                count += sum(band.count for band in bands)
        spectra.append(enumerate_eigenvalues(iv, lam_max).eigenvalues)
    halves = []
    for axes in (range((box.d + 1) // 2), range((box.d + 1) // 2, box.d)):
        # Each half folds into sorted partial sums, cut at h^-2 less the
        # floors of every axis not yet summed.
        combined = spectra[axes[0]]
        for i in axes[1:]:
            allowance = sum(f for j, f in enumerate(floors) if j not in axes or j > i)
            combined = _reduce_pair(combined, spectra[i], h**-2 - allowance)
        halves.append(combined)
    # The longer half is prefix-summed and the shorter one searched: fewer keys.
    trace, pairs = _pair_trace(*sorted(halves, key=len, reverse=True), h)
    trace, count = math.fsum([trace, *parts]), count + pairs
    return RieszReport(h=h, trace=trace, eig_count=count, kroger_ok=kroger_check(box, h, trace))


def trace_bruteforce(box, h):
    """Naive full product-spectrum sum; the independence oracle for riesz_mean."""
    spectra = axis_spectra(box, h)
    total = spectra[0]
    for spec in spectra[1:]:
        total = (total[:, None] + spec[None, :]).ravel()
    vals = 1.0 - h * h * total
    return math.fsum(vals[vals > 0.0].tolist())


def kroger_check(box, h, trace):
    """Sharp lower bound Tr(-Delta_c - Lambda)_- >= Weyl - boundary correction.

    With Lambda = h^-2 and c = b/h the left side is trace * h^-2; the
    correction integrates c over the boundary.
    """
    d = box.d
    lam = h**-2
    lhs = trace * lam
    c_integral = sum(box.facet_area(i) * (lo + hi) / h
                     for i, (lo, hi) in enumerate(box.facet_b))
    omega = coeffs.unit_ball_volume(d).value
    rhs = weyl_term(box, h) * lam - omega * (2.0 * math.pi) ** (-d) * c_integral * lam ** (0.5 * d)
    return lhs >= rhs - _KROGER_RTOL * max(1.0, abs(lhs), abs(rhs))
