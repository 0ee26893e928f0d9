"""Regime-aware two-term predictions, h-sweeps, and remainder-decay fitting.

Three coupling regimes for b = scale(h) * b0: fixed (scale 1, boundary
density l2(d, b0)), small (scale h^s -> 0, Neumann density l1(d-1)/4),
and large (scale h^(-gamma) -> infinity). The box owns the reference
coefficients: its facet_b is b0, and a RegimeSpec is only the kind of
scale and its exponent. A large regime with a negative b0 on some facet
uses the exact density l2(d, b) at the realized b for every |b|, which is
dominated by the negative part pi c_d b_-^(d+1); with every b0 >= 0 it
uses the limits -l1(d-1)/4 (b0 > 0) and +l1(d-1)/4 (b0 = 0).

This module owns the two-term law: _prediction builds the Weyl and
boundary terms, and a sweep point subtracts them from what
riesz.riesz_mean measures on the realized box.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import coeffs, riesz

REGIME_FIXED = "fixed"
REGIME_SMALL = "small"
REGIME_LARGE = "large"


@dataclass(frozen=True)
class RegimeSpec:
    """Coupling regime: b = scale(h) * b0, with b0 the box's facet_b.

    ``exponent`` is a finite s > 0 for the small regime (scale h^s) and
    0 < gamma < 1 for the large regime (scale h^(-gamma)); the fixed
    regime ignores it.
    """

    kind: str
    exponent: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "exponent", float(self.exponent))
        if self.kind not in (REGIME_FIXED, REGIME_SMALL, REGIME_LARGE):
            raise ValueError(f"unknown regime kind {self.kind!r}")
        if self.kind == REGIME_SMALL and not 0.0 < self.exponent < math.inf:
            raise ValueError(f"small regime needs a finite exponent s > 0, got {self.exponent}")
        if self.kind == REGIME_LARGE and not 0.0 < self.exponent < 1.0:
            raise ValueError(
                f"large regime needs 0 < gamma < 1 (the growth must stay o(1/h); "
                f"beyond gamma = 1 no two-term expansion is available), got {self.exponent}"
            )

    def scale(self, h):
        if self.kind == REGIME_FIXED:
            return 1.0
        if self.kind == REGIME_SMALL:
            return h**self.exponent
        return h**-self.exponent


def _realized_box(box, regime, h):
    """The box with b = scale(h) * b0 on every facet."""
    s = regime.scale(h)
    return replace(box, facet_b=tuple((s * lo, s * hi) for lo, hi in box.facet_b))


def _has_negative_b0(box):
    return any(b < 0.0 for pair in box.facet_b for b in pair)


@dataclass(frozen=True)
class TwoTermPrediction:
    weyl: float
    boundary: float

    @property
    def ratio(self):
        """Boundary term over Weyl term."""
        return self.boundary / self.weyl


@dataclass(frozen=True)
class SweepPoint:
    """One sweep point: riesz_mean's measurement on the realized box, the
    two-term prediction, and the remainder trace - weyl_term - boundary_term."""

    h: float
    trace: float
    weyl_term: float
    boundary_term: float
    remainder: float
    eig_count: int
    kroger_ok: bool
    # Wall time of the point inside its sweep; not part of the result.
    seconds: float = field(default=0.0, compare=False)


def _facet_densities(box, regime, h, l2_values):
    """Per-facet boundary densities; l2_values maps each realized b to l2(d, b).value.

    The dict lives for one sweep, so a fixed regime computes each distinct b
    once per sweep, and every sweep pays for its own quadratures.
    """
    quarter = 0.25 * coeffs.l1(box.d - 1).value
    if regime.kind == REGIME_SMALL:
        return [(quarter, quarter) for _ in box.facet_b]
    if regime.kind == REGIME_FIXED or _has_negative_b0(box):
        realized = _realized_box(box, regime, h).facet_b
        for b in {b for pair in realized for b in pair} - l2_values.keys():
            l2_values[b] = coeffs.l2(box.d, b).value
        return [(l2_values[lo], l2_values[hi]) for lo, hi in realized]
    return [(-quarter if lo > 0.0 else quarter, -quarter if hi > 0.0 else quarter)
            for lo, hi in box.facet_b]


def _prediction(box, regime, h, l2_values):
    """The Weyl term and the regime's boundary term at h."""
    densities = _facet_densities(box, regime, h, l2_values)
    boundary = sum(box.facet_area(i) * (lo + hi) for i, (lo, hi) in enumerate(densities))
    return TwoTermPrediction(weyl=riesz.weyl_term(box, h), boundary=boundary * h ** (1 - box.d))


def predict(box, regime, h):
    """Two-term prediction: Weyl term and the regime's boundary term."""
    return _prediction(box, regime, riesz.check_h(h, box.d), {})


def _sweep_point(box, regime, h, l2_values):
    start = time.perf_counter()
    rep = riesz.riesz_mean(_realized_box(box, regime, h), h)
    pred = _prediction(box, regime, h, l2_values)
    return SweepPoint(h=rep.h, trace=rep.trace, weyl_term=pred.weyl, boundary_term=pred.boundary,
                      remainder=rep.trace - pred.weyl - pred.boundary, eig_count=rep.eig_count,
                      kroger_ok=rep.kroger_ok, seconds=time.perf_counter() - start)


def run_sweep(box, regime, h_list):
    """SweepPoints over distinct h > 0, sorted by descending h: the Riesz
    mean on the box realized at h, the regime's two-term prediction, and
    the remainder trace - weyl_term - boundary_term.

    Every h is checked before the sort, so a NaN gets the same message in
    every regime. Each point's ``seconds`` is the wall time of its Riesz
    mean and prediction. A boundary density l2(d, b) is computed once per
    distinct realized b in the sweep.
    """
    items = [riesz.check_h(h, box.d) for h in h_list]
    hs = sorted(set(items), reverse=True)
    if len(hs) != len(items):
        raise ValueError("sweep h values must be distinct")
    l2_values = {}
    return [_sweep_point(box, regime, h, l2_values) for h in hs]


def normalized_remainder(box, regime, report):
    """|R_h| h^(d-1), additionally scaled by Theta(h)^-(d+1) in the
    large/negative regime, whose remainder scale is o(Theta^(d+1) h^(-d+1))."""
    d = box.d
    y = abs(report.remainder) * report.h ** (d - 1)
    if regime.kind == REGIME_LARGE and _has_negative_b0(box):
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
    points = tuple((r.h, normalized_remainder(box, regime, r)) for r in reports)
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

