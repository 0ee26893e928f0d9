"""Tensorized box spectra, the Riesz mean Tr(H(b))_-, and the sharp lower bound.

The operator is H(b) = -h^2 Delta - 1 on a box with per-facet Robin
coefficients b (classical coefficients c = b/h). Its Riesz mean is the
sum of (1 - h^2 lambda)_+ over tuples of per-axis interval eigenvalues,
evaluated by sorted prefix sums so that no O(N^2) pass is needed. In 2-D
both axes are enumerated only up to h^-2; the roots above it, which pair
only with the other axis's bound states, enter as band sums
(spectra1d.band_sum), in closed form where certified. For d >= 3 the axes
split into halves 0..ceil(d/2)-1 and ceil(d/2)..d-1; each half folds into
sorted partial sums below the cutoff, and the two sorted arrays are paired
by the same prefix sums (meet in the middle), so no (d-1)-axis tuple array
is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import coeffs
from .spectra1d import RobinInterval, band_sum, enumerate_eigenvalues, negative_eigenvalues

# Largest materialized pair-sum array in the d >= 3 reduction.
_PAIR_CHUNK = 20_000_000
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
        d = len(sides)
        if d < coeffs.MIN_DIMENSION or d > coeffs.MAX_DIMENSION:
            raise ValueError(f"box dimension must lie in [2, {coeffs.MAX_DIMENSION}], got {d}")
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
        v = 1.0
        for s in self.sides:
            v *= s
        return v

    @property
    def surface_area(self):
        return sum(2.0 * self.volume / s for s in self.sides)

    def facet_area(self, axis):
        return self.volume / self.sides[axis]


@dataclass(frozen=True)
class RieszReport:
    h: float
    trace: float
    weyl_term: float
    boundary_term: float
    remainder: float
    eig_count: int
    kroger_ok: bool
    # Wall time of the sweep point, set by asympt.run_sweep; not part of the result.
    seconds: float = field(default=0.0, compare=False)


def weyl_term(box, h):
    """Leading volume term l1(d) |Omega| h^(-d)."""
    return coeffs.l1(box.d).value * box.volume * h ** (-box.d)


def _intervals(box, h):
    return [RobinInterval(side, lo / h, hi / h) for side, (lo, hi) in zip(box.sides, box.facet_b)]


def axis_spectra(box, h):
    """Exhaustive per-axis spectra with cutoffs raised by the partner axes'
    negative parts, so no tuple below the total cutoff h^-2 is missed."""
    intervals = _intervals(box, h)
    neg_floors = [min(negative_eigenvalues(iv), default=0.0) for iv in intervals]
    cutoff_total = h**-2
    spectra = []
    for i, iv in enumerate(intervals):
        allowance = sum(neg_floors[j] for j in range(len(intervals)) if j != i)
        lam_max = (cutoff_total - allowance) * (1.0 + 1e-12)
        spectra.append(enumerate_eigenvalues(iv, lam_max).eigenvalues)
    return spectra


def _pair_trace(sorted_axis, other_axis, h):
    """Sum of (1 - h^2 (x + y))_+ over the product spectrum via prefix sums."""
    cutoff = h**-2
    h2 = h * h
    prefix = np.concatenate(([0.0], np.cumsum(sorted_axis)))
    counts = np.searchsorted(sorted_axis, cutoff - other_axis, side="left")
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        # other_axis ascending, so entries past the first empty row contribute nothing
        counts, other_axis = counts[:empty[0]], other_axis[:empty[0]]
    terms = counts * (1.0 - h2 * other_axis) - h2 * prefix[counts]
    return math.fsum(terms), int(counts.sum())


def _band_trace(box, h):
    """Trace and tuple count of a 2-D box from spectra cut at h^-2 (1 + 1e-12).

    A root x above that cut pairs only with a partner's bound state y < 0,
    so for each of those (at most two per axis) the band of the other axis
    between the cut and h^-2 - y adds h^2 sum (h^-2 - y - x), a sum that
    spectra1d.band_sum takes in closed form where its remainder bound allows.
    """
    intervals = _intervals(box, h)
    bound_states = [negative_eigenvalues(iv) for iv in intervals]
    cutoff = h**-2
    spectra = [enumerate_eigenvalues(iv, cutoff * (1.0 + 1e-12)).eigenvalues for iv in intervals]
    trace, count = _pair_trace(spectra[0], spectra[1], h)
    parts = [trace]
    for axis, partner in ((0, 1), (1, 0)):
        for y in bound_states[partner]:
            band = band_sum(intervals[axis], spectra[axis].size, cutoff - y)
            parts.append(h * h * band.value)
            count += band.count
    return math.fsum(parts), count


def _reduce_pair(a, b, cutoff):
    """Sorted pair sums a_i + b_j not exceeding ``cutoff``, chunked for memory."""
    if a.size * b.size > _PAIR_CHUNK:
        step = max(1, _PAIR_CHUNK // max(b.size, 1))
        parts = []
        for i in range(0, a.size, step):
            block = (a[i:i + step, None] + b[None, :]).ravel()
            parts.append(block[block <= cutoff])
        sums = np.concatenate(parts)
    else:
        sums = (a[:, None] + b[None, :]).ravel()
        sums = sums[sums <= cutoff]
    sums.sort()
    return sums


def riesz_mean(box, h):
    """Riesz mean Tr(H(b))_-; returns a report with trace and eig_count.

    The boundary_term slot is zero here (no regime attached); the
    remainder is trace minus the Weyl term until a prediction fills it.
    """
    h = float(h)
    if h <= 0.0:
        raise ValueError(f"need h > 0, got {h}")
    if h > min(box.sides) / 4.0:
        raise ValueError(
            f"h = {h} violates the h <= min(sides)/4 = {min(box.sides) / 4.0} guard"
        )
    if box.d == 2:
        trace, count = _band_trace(box, h)
    else:
        # A tuple can have two axes above h^-2 here, so the spectra stay exhaustive.
        # Each half folds into sorted partial sums, cut at h^-2 less the floors of
        # every axis not yet summed, and _pair_trace pairs the two halves.
        spectra = axis_spectra(box, h)
        floors = [min(0.0, float(spec.min())) for spec in spectra]
        halves = []
        for axes in (range((box.d + 1) // 2), range((box.d + 1) // 2, box.d)):
            combined = spectra[axes[0]]
            for i in axes[1:]:
                allowance = sum(f for j, f in enumerate(floors) if j not in axes or j > i)
                combined = _reduce_pair(combined, spectra[i], h**-2 - allowance)
            halves.append(combined)
        trace, count = _pair_trace(*halves, h)
    weyl = weyl_term(box, h)
    return RieszReport(
        h=h,
        trace=trace,
        weyl_term=weyl,
        boundary_term=0.0,
        remainder=trace - weyl,
        eig_count=count,
        kroger_ok=kroger_check(box, h, trace),
    )


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
    rhs = (coeffs.l1(d).value * box.volume * lam ** (1.0 + 0.5 * d)
           - omega * (2.0 * math.pi) ** (-d) * c_integral * lam ** (0.5 * d))
    return lhs >= rhs - _KROGER_RTOL * max(1.0, abs(lhs), abs(rhs))
