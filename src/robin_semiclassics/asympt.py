"""Regime-aware two-term predictions, h-sweeps, and remainder-decay fitting.

Three coupling regimes for b = scale(h) * b0: fixed (scale 1, boundary
density l2(d, b0)), small (scale h^s -> 0, Neumann density l1(d-1)/4),
and large (scale h^(-gamma) -> infinity). A large regime with a negative
b0 on some facet uses the exact density l2(d, b) at the realized b for
every |b|, which is dominated by the negative part pi c_d b_-^(d+1); with
every b0 >= 0 it uses the limits -l1(d-1)/4 (b0 > 0) and +l1(d-1)/4
(b0 = 0). Whether a regime has a negative part is read off its b0.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import coeffs, riesz

REGIME_FIXED = "fixed"
REGIME_SMALL = "small"
REGIME_LARGE = "large"


@dataclass(frozen=True)
class RegimeSpec:
    """Coupling regime with per-facet reference coefficients b0.

    ``exponent`` is s > 0 for the small regime (scale h^s) and
    0 < gamma < 1 for the large regime (scale h^(-gamma)); the fixed
    regime ignores it.
    """

    kind: str
    b0_facets: tuple
    exponent: float = 0.0

    def __post_init__(self):
        facets = tuple((float(lo), float(hi)) for lo, hi in self.b0_facets)
        object.__setattr__(self, "b0_facets", facets)
        if self.kind not in (REGIME_FIXED, REGIME_SMALL, REGIME_LARGE):
            raise ValueError(f"unknown regime kind {self.kind!r}")
        if self.kind == REGIME_SMALL and not self.exponent > 0.0:
            raise ValueError(f"small regime needs exponent s > 0, got {self.exponent}")
        if self.kind == REGIME_LARGE and not 0.0 < self.exponent < 1.0:
            raise ValueError(
                f"large regime needs 0 < gamma < 1 (the growth must stay o(1/h); "
                f"beyond gamma = 1 no two-term expansion is available), got {self.exponent}"
            )

    @property
    def has_negative_part(self):
        """True when some facet has b0 < 0."""
        return any(b < 0.0 for pair in self.b0_facets for b in pair)

    def scale(self, h):
        if self.kind == REGIME_FIXED:
            return 1.0
        if self.kind == REGIME_SMALL:
            return h**self.exponent
        return h**-self.exponent

    def realized_facets(self, h):
        s = self.scale(h)
        return tuple((s * lo, s * hi) for lo, hi in self.b0_facets)


@dataclass(frozen=True)
class TwoTermPrediction:
    weyl: float
    boundary: float


@dataclass(frozen=True)
class CrossoverRecord:
    weyl: float
    boundary: float
    ratio: float


def _facet_densities(d, regime, h, l2_values):
    """Per-facet boundary densities; l2_values maps each realized b to l2(d, b).value.

    The dict lives for one sweep, so a fixed regime computes each distinct b
    once per sweep, and every sweep pays for its own quadratures.
    """
    quarter = 0.25 * coeffs.l1(d - 1).value
    if regime.kind == REGIME_SMALL:
        return [(quarter, quarter) for _ in regime.b0_facets]
    if regime.kind == REGIME_FIXED or regime.has_negative_part:
        realized = regime.realized_facets(h)
        for b in {b for pair in realized for b in pair} - l2_values.keys():
            l2_values[b] = coeffs.l2(d, b).value
        return [(l2_values[lo], l2_values[hi]) for lo, hi in realized]
    return [(-quarter if lo > 0.0 else quarter, -quarter if hi > 0.0 else quarter)
            for lo, hi in regime.b0_facets]


def _boundary_term(box, regime, h, l2_values):
    d = box.d
    if len(regime.b0_facets) != d:
        raise ValueError(f"regime carries {len(regime.b0_facets)} facet pairs for a {d}-d box")
    densities = _facet_densities(d, regime, h, l2_values)
    boundary = sum(box.facet_area(i) * (lo + hi) for i, (lo, hi) in enumerate(densities))
    return boundary * h ** (1 - d)


def predict(box, regime, h):
    """Two-term prediction: Weyl term and the regime's boundary term."""
    return TwoTermPrediction(weyl=riesz.weyl_term(box, h),
                             boundary=_boundary_term(box, regime, h, {}))


def _sweep_point(box, regime, h, l2_values):
    start = time.perf_counter()
    realized = replace(box, facet_b=regime.realized_facets(h))
    rep = riesz.riesz_mean(realized, h)
    boundary = _boundary_term(box, regime, h, l2_values)
    return replace(rep, boundary_term=boundary, remainder=rep.trace - rep.weyl_term - boundary,
                   seconds=time.perf_counter() - start)


def run_sweep(box, regime, h_list):
    """RieszReports over distinct h > 0, sorted by descending h, with
    regime-filled boundary terms and remainders trace - weyl - boundary.

    Every h is checked before the sort, so a NaN gets the same message in
    every regime. Each report's ``seconds`` is the wall time of its own
    point. A boundary density l2(d, b) is computed once per distinct
    realized b in the sweep.
    """
    items = [float(h) for h in h_list]
    for h in items:
        if not h > 0.0:
            raise ValueError(f"need h > 0, got {h}")
    hs = sorted(set(items), reverse=True)
    if len(hs) != len(items):
        raise ValueError("sweep h values must be distinct")
    l2_values = {}
    return [_sweep_point(box, regime, h, l2_values) for h in hs]


def normalized_remainder(regime, report, d):
    """|R_h| h^(d-1), additionally scaled by Theta(h)^-(d+1) in the
    large/negative regime, whose remainder scale is o(Theta^(d+1) h^(-d+1))."""
    y = abs(report.remainder) * report.h ** (d - 1)
    if regime.kind == REGIME_LARGE and regime.has_negative_part:
        y *= regime.scale(report.h) ** (-(d + 1))
    return y


@dataclass(frozen=True)
class SweepFit:
    points: tuple
    fitted_exponent: float
    fit_residual: float
    sign_flips: bool

    @property
    def decay_verified(self):
        return self.fitted_exponent > 0.3 and self.fit_residual < 0.2


def fit_sweep(box, regime, reports):
    """Log-log least squares of the normalized remainder against h.

    A positive fitted exponent certifies decay of |R_h| h^(d-1); sign
    flips of the raw remainder within the sweep are flagged and the fit
    proceeds on absolute values.
    """
    if len(reports) < 4:
        raise ValueError(f"need at least 4 sweep points, got {len(reports)}")
    reports = sorted(reports, key=lambda r: -r.h)
    hs = [r.h for r in reports]
    if len(set(hs)) != len(hs):
        raise ValueError("sweep h values must be distinct")
    d = box.d
    points = tuple((r.h, normalized_remainder(regime, r, d)) for r in reports)
    signs = {math.copysign(1.0, r.remainder) for r in reports if r.remainder != 0.0}
    log_h = np.log([p[0] for p in points])
    log_y = np.log([max(p[1], 1e-300) for p in points])
    slope, intercept = np.polyfit(log_h, log_y, 1)
    residuals = log_y - (slope * log_h + intercept)
    return SweepFit(
        points=points,
        fitted_exponent=float(slope),
        fit_residual=float(np.sqrt(np.mean(residuals**2))),
        sign_flips=len(signs) > 1,
    )


def crossover_demo(box, gamma, h):
    """Boundary/Weyl ratio in the large regime; the ratio scales as
    h^(1 - gamma (d+1)), so gamma = 1/(d+1) is the crossover."""
    regime = RegimeSpec(REGIME_LARGE, box.facet_b, gamma)
    if not regime.has_negative_part:
        raise ValueError("crossover_demo needs a facet with negative b0")
    pred = predict(box, regime, h)
    return CrossoverRecord(weyl=pred.weyl, boundary=pred.boundary,
                           ratio=pred.boundary / pred.weyl)
