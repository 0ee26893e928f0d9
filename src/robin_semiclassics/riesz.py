"""Tensorized box spectra, the Riesz mean Tr(H(b))_-, and the sharp lower bound.

The operator is H(b) = -h^2 Delta - 1 on a box with per-facet Robin
coefficients b (classical coefficients c = b/h). Its Riesz mean is the
sum of (1 - h^2 lambda)_+ over tuples of per-axis interval eigenvalues,
evaluated by sorted prefix sums so that no O(N^2) pass is needed. It is
assembled by one rule in every dimension. A pattern pins each axis to one
of its negative states or leaves it free on its nonnegative roots (a zero
state among them), so its tuples are those of its free axes shifted by
sigma, the sum of the pinned states. Patterns with the same free axes
differ only in sigma, and each such set is one sum. Its free axes split
into halves 0..ceil(f/2)-1 and the rest; each half folds into sorted
partial sums up to h^-2 less the set's deepest sigma (a half of one axis
is that axis, and one of none is [0]); and the two sorted arrays are
paired by the same prefix sums (meet in the middle), the searched keys
shifted by each sigma. The longer half is prefix-summed and the shorter
one searched, and sets whose prefix-summed half is the same array share
one pairing. A set of at most two free axes has uncut halves; where its
longer half is axis j, the pairing prefix-sums j's enumeration itself,
its states below its roots (j's nonnegative roots are a view past the
states), so it also takes in the set without j (shifts sigma + y_j), if
that set exists and is not yet taken in. Sets come in product order, so
a set is taken in before it would run; in 2-D one pairing then serves
every set unless neither axis enumerates a nonnegative root. A fold
builds every pair sum before its cut, so one of more than _MAX_FOLD_SIZE
sums raises ValueError, naming h, before it is built. Each axis is
enumerated once, into one array, as far as the sets where it is free
with another axis need. Its roots past that pair only in the set where
it is the only free axis: where spectra1d.band_sum certifies the closed form of
every such band, the bands are added, and else the axis is enumerated
through that set's deepest sigma. band_sum runs once per distinct shift
of that set (a uniform axis's two states are one float), and each band is
added once per pattern. The trace is of order h^-d while the
remainder checked against the paper is O(1), so the pairing is
compensated: the prefix carries the TwoSum errors of its steps in a low
part, and the row terms are added by a vectorized TwoSum tree.

riesz_mean reports only what it measures: the trace, the tuple count and
the Kroger check. The two-term prediction and the remainder belong to
asympt.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import coeffs
from .spectra1d import RobinInterval, band_sum, enumerate_eigenvalues, negative_eigenvalues

# Relative slack of kroger_check, for the rounding of trace and both bound terms.
_KROGER_RTOL = 1e-10
# Most sums one fold may build, 1 GiB of float64; past it _outer_sum raises ValueError.
_MAX_FOLD_SIZE = 2**27
# Factor on every enumeration cutoff. It takes in a root that rounding in the
# cutoff or in the phase count would put just past it; a root it takes in past
# the cut pairs with nothing, since _pair_trace cuts every tuple exactly.
_CUTOFF_SLACK = 1.0 + 1e-12


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


def check_h(h, d):
    """The semiclassical parameter as a float; it must be positive (NaN is not),
    and h^-d must not overflow a float, as h^-2 does for h <= 2^-512. d is
    the box's dimension."""
    h = float(h)
    if not h > 0.0:
        raise ValueError(f"need h > 0, got {h}")
    try:
        h**-d
    except OverflowError:
        raise ValueError(f"h = {h} is too small: h^-{d} overflows a float") from None
    return h


def weyl_term(box, h):
    """Leading volume term l1(d) |Omega| h^(-d)."""
    return coeffs.l1(box.d).value * box.volume * h ** (-box.d)


def _intervals(box, h):
    """Each axis's RobinInterval, with c = b/h; a c that overflows a float is refused, naming b and h."""
    overflow = next((b for pair in box.facet_b for b in pair if math.isinf(b / h)), None)
    if overflow is not None:
        raise ValueError(f"c = b/h overflows a float for facet b = {overflow!r} at h = {h!r}")
    return [RobinInterval(side, lo / h, hi / h) for side, (lo, hi) in zip(box.sides, box.facet_b)]


def axis_spectra(box, h):
    """Exhaustive per-axis spectra, each to h^-2 less the other axes' floors.

    A tuple below h^-2 puts no more than that on the axis, so none is
    missed. Each cutoff is raised by _CUTOFF_SLACK.
    """
    intervals = _intervals(box, h)
    floors = [min(negative_eigenvalues(iv), default=0.0) for iv in intervals]
    return [enumerate_eigenvalues(iv, (h**-2 - sum(floors[:i] + floors[i + 1:])) * _CUTOFF_SLACK).eigenvalues
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


def _outer_sum(a, b, h):
    """All sums a_i + b_j, flat; first raises ValueError naming h where there are more than _MAX_FOLD_SIZE."""
    if a.size * b.size > _MAX_FOLD_SIZE:
        raise ValueError(f"a fold of {a.size} x {b.size} eigenvalue sums is past the budget of "
                         f"{_MAX_FOLD_SIZE} (2^27) sums at h = {h}")
    return (a[:, None] + b[None, :]).ravel()


def _fold(spectra, h, shift):
    """Sorted sums of one entry of each nonnegative spectrum, up to h^-2 - shift.

    A lone spectrum is returned as it is, and no spectrum as [0], the sum of
    the empty tuple. Each spectrum is cut before it is folded, since no sum
    with a larger entry stays below the cut. A fold past _MAX_FOLD_SIZE
    raises ValueError naming h (_outer_sum).
    """
    cutoff = h**-2 - shift
    combined = spectra[0] if spectra else np.zeros(1)
    for spectrum in spectra[1:]:
        combined = _outer_sum(combined[combined <= cutoff], spectrum[spectrum <= cutoff], h)
        combined = combined[combined <= cutoff]
        combined.sort()
    return combined


def riesz_mean(box, h):
    """Riesz mean Tr(H(b))_-; returns a report with trace, eig_count and kroger_ok."""
    h = check_h(h, box.d)
    if h > min(box.sides) / 4.0:
        raise ValueError(f"h = {h} violates the h <= min(sides)/4 = {min(box.sides) / 4.0} guard")
    intervals = _intervals(box, h)
    bound_states = [negative_eigenvalues(iv) for iv in intervals]
    # A pattern is a state or None (free) per axis; its shift sums the states.
    shifts = {}  # each set of free axes -> the shifts of its patterns
    for p in itertools.product(*[[None, *states] for states in bound_states]):
        shifts.setdefault(tuple(i for i, y in enumerate(p) if y is None), []).append(sum(filter(None, p)))
    # wholes[i]: axis i's enumeration, its states below its roots; spectra[i]:
    # a view of its roots. sums: (trace, tuple count) of each band and each pairing.
    wholes, spectra, sums = [], [], []
    for i, iv in enumerate(intervals):
        # Axis i is enumerated as far as a set where it is free with another
        # axis needs, with _CUTOFF_SLACK. A root x past that pairs only
        # in the set where i is the only free axis, adding h^2 (h^-2 - sigma - x),
        # so those bands are summed in closed form where all are certified.
        lam_max = max(h**-2 - min(s) for axes, s in shifts.items() if i in axes and len(axes) > 1)
        ys = shifts.get((i,), [])
        # One band per distinct shift (a uniform axis's two states are one
        # float), added once per pattern.
        bands = {y: band_sum(iv, lam_max * _CUTOFF_SLACK, h**-2 - y) for y in dict.fromkeys(ys)}
        if None in bands.values():
            lam_max, ys = h**-2 - min(ys), []
        sums += [(h * h * bands[y].value, bands[y].count) for y in ys]
        wholes.append(enumerate_eigenvalues(iv, lam_max * _CUTOFF_SLACK).eigenvalues)
        spectra.append(wholes[i][len(bound_states[i]):])
    groups = {}  # id of a prefix-summed half -> that half and the keys searched in it
    taken = set()  # the sets another set's pairing covers
    for axes, sigmas in shifts.items():
        if axes in taken:
            continue
        split = (len(axes) + 1) // 2
        parts = (axes[:split], axes[split:])
        halves = [_fold([spectra[i] for i in part], h, min(sigmas)) for part in parts]
        # The longer half is prefix-summed and the shorter one searched, its
        # keys shifted by each sigma (uncopied where the shift is 0).
        (longer, part), (shorter, _) = sorted(zip(halves, parts), key=lambda half: len(half[0]), reverse=True)
        # Halves of at most two free axes are uncut. A longer half that is
        # axis j is prefix-summed as wholes[j], j's states below its roots, so
        # the pairing also covers the set without j, whose shifts are sigma + y_j.
        rest = tuple(i for i in axes if i not in part)
        if len(axes) <= 2 and len(part) == 1 and rest in shifts.keys() - taken:
            taken.add(rest)
            longer = wholes[part[0]]
        groups.setdefault(id(longer), (longer, []))[1].extend(shorter + s if s else shorter for s in sigmas)
    sums += [_pair_trace(longer, keys[0] if len(keys) == 1 else np.concatenate(keys), h)
             for longer, keys in groups.values()]
    trace, count = math.fsum(part for part, _ in sums), sum(n for _, n in sums)
    return RieszReport(h=h, trace=trace, eig_count=count, kroger_ok=kroger_check(box, h, trace))


def trace_bruteforce(box, h):
    """Naive full product-spectrum sum; the independence oracle for riesz_mean.

    A product past _MAX_FOLD_SIZE tuples raises ValueError naming h before it is built.
    """
    spectra = axis_spectra(box, h)
    total = spectra[0]
    for spec in spectra[1:]:
        total = _outer_sum(total, spec, h)
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
