"""Adaptive Gauss-Kronrod panel quadrature with certified error reporting.

The integrator never degrades silently: if the panel budget runs out
before the accumulated error estimate meets the requested tolerance it
raises QuadratureError instead of returning a value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError

# 15-point Kronrod extension of the 7-point Gauss rule (QUADPACK DQK15).
_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
    0.0,
)
_WGK = (
    0.022935322010529225,
    0.06309209262997855,
    0.10479001032225019,
    0.14065325971552592,
    0.1690047266392679,
    0.19035057806478542,
    0.20443294007529889,
    0.20948214108472782,
)
_WG = (
    0.12948496616886969,
    0.2797053914892767,
    0.3818300505051189,
    0.4179591836734694,
)

_GK_NODES = np.array([-x for x in _XGK[:-1]] + [0.0] + [x for x in reversed(_XGK[:-1])])
_GK_WEIGHTS = np.array(list(_WGK) + list(reversed(_WGK[:-1])))
# Embedded Gauss rule lives on nodes 1, 3, ..., 13.
_GAUSS_INDEX = np.array([1, 3, 5, 7, 9, 11, 13])
_GAUSS_WEIGHTS = np.array(list(_WG) + list(reversed(_WG[:-1])))


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    panels: int


def panel_rule(f, lo, hi):
    """Kronrod values and Gauss-Kronrod error estimates on a batch of panels.

    ``f`` must accept a flat ndarray and return values elementwise.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = mid[:, None] + half[:, None] * _GK_NODES[None, :]
    y = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    kron = (y * _GK_WEIGHTS).sum(axis=-1) * half
    gauss = (y[:, _GAUSS_INDEX] * _GAUSS_WEIGHTS).sum(axis=-1) * half
    return kron, np.abs(kron - gauss)


def adaptive_quadrature(f, a, b, abs_tol=1e-12, breakpoints=(), max_panels=20000):
    """Integrate ``f`` over [a, b] to absolute tolerance ``abs_tol``.

    ``breakpoints`` seeds the initial panel decomposition (interval
    splits at known kinks, oscillation periods, near-singular points).
    Panels whose error exceeds their share of the budget are bisected;
    exceeding ``max_panels``, with the seeded panels or by bisection, raises
    QuadratureError, and so does an error estimate that is not finite (an
    integrand returning NaN or inf).
    """
    a = float(a)
    b = float(b)
    if not b > a:
        raise ValueError(f"empty integration interval [{a}, {b}]")
    inner = sorted({float(p) for p in breakpoints if a < float(p) < b})
    if len(inner) >= max_panels:
        raise QuadratureError(f"quadrature on [{a}, {b}]: {len(inner) + 1} seeded panels "
                              f"exceed the budget of {max_panels}")
    cuts = np.array([a] + inner + [b])
    lo, hi = cuts[:-1], cuts[1:]
    val, err = panel_rule(f, lo, hi)
    for _ in range(64):
        total_err = float(err.sum())
        if not np.isfinite(total_err):
            raise QuadratureError(f"quadrature on [{a}, {b}]: error estimate {total_err} is not finite")
        if total_err <= abs_tol:
            return QuadResult(float(val.sum()), total_err, int(lo.size))
        # Local acceptance: a panel keeps its width-proportional share.
        bad = err > abs_tol * (hi - lo) / (b - a)
        if not bad.any():
            bad = err == err.max()
        n_new = int(lo.size + bad.sum())
        if n_new > max_panels:
            raise QuadratureError(
                f"quadrature on [{a}, {b}] needs more than {max_panels} panels; "
                f"error estimate {total_err:.3e} > tol {abs_tol:.3e}"
            )
        mid = 0.5 * (lo[bad] + hi[bad])
        if np.any((mid - lo[bad]) < 1e-15 * np.maximum(1.0, np.abs(mid))):
            raise QuadratureError(
                f"quadrature on [{a}, {b}] stalled at machine resolution; "
                f"error estimate {total_err:.3e} > tol {abs_tol:.3e}"
            )
        new_lo = np.concatenate([lo[bad], mid])
        new_hi = np.concatenate([mid, hi[bad]])
        new_val, new_err = panel_rule(f, new_lo, new_hi)
        lo = np.concatenate([lo[~bad], new_lo])
        hi = np.concatenate([hi[~bad], new_hi])
        val = np.concatenate([val[~bad], new_val])
        err = np.concatenate([err[~bad], new_err])
        order = np.argsort(lo, kind="stable")
        lo, hi, val, err = lo[order], hi[order], val[order], err[order]
    raise QuadratureError(
        f"quadrature on [{a}, {b}] did not converge within the round limit; "
        f"error estimate {float(err.sum()):.3e} > tol {abs_tol:.3e}"
    )
