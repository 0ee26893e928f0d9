"""Certified enumeration of the Robin eigenvalues of -u'' on an interval.

Boundary conditions u'(0) = c_left u(0), -u'(L) = c_right u(L). Positive
eigenvalues are bracketed between consecutive Dirichlet nodes of the
secular function, at most two negative eigenvalues are located on the
hyperbolic branch, and completeness is certified against the Neumann
counting function (the boundary form is a rank-two perturbation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.optimize import brentq

from .errors import EnumerationError

# Matches the lambda = 0 secular condition at root-finding accuracy.
_ZERO_EIG_RTOL = 1e-12
# Below this, c_left + c_right is treated as exactly zero and the positive
# spectrum collapses onto the Dirichlet nodes (the secular function becomes
# (k^2 - c_l c_r) sin(kL)).
_SUM_COLLAPSE_RTOL = 1e-13


@dataclass(frozen=True)
class RobinInterval:
    length: float
    c_left: float
    c_right: float

    def __post_init__(self):
        if not (math.isfinite(self.length) and self.length > 0.0):
            raise ValueError(f"interval length must be positive, got {self.length!r}")
        if not (math.isfinite(self.c_left) and math.isfinite(self.c_right)):
            raise ValueError("Robin coefficients must be finite")


@dataclass(frozen=True)
class SpectrumCertificate:
    n_negative: int
    n_positive: int
    bracket_count: int


@dataclass(frozen=True)
class Spectrum1D:
    eigenvalues: tuple
    cutoff: float
    certificate: SpectrumCertificate


def secular_positive(iv, k):
    """(k^2 - c_l c_r) sin(kL) - k (c_l + c_r) cos(kL); zeros are lambda = k^2."""
    if k <= 0.0:
        raise ValueError(f"need k > 0, got {k}")
    kl = k * iv.length
    return (k * k - iv.c_left * iv.c_right) * math.sin(kl) - k * (iv.c_left + iv.c_right) * math.cos(kl)


def secular_negative(iv, kappa):
    """(kappa^2 + c_l c_r) sinh(kappa L) + kappa (c_l + c_r) cosh(kappa L); zeros are lambda = -kappa^2."""
    if kappa <= 0.0:
        raise ValueError(f"need kappa > 0, got {kappa}")
    kl = kappa * iv.length
    return (kappa * kappa + iv.c_left * iv.c_right) * math.sinh(kl) + kappa * (iv.c_left + iv.c_right) * math.cosh(kl)


def _secular_negative_scaled(iv, kappa):
    # secular_negative / cosh(kappa L): same zeros, no overflow for deep wells.
    kl = kappa * iv.length
    return (kappa * kappa + iv.c_left * iv.c_right) * math.tanh(kl) + kappa * (iv.c_left + iv.c_right)


def _kappa_upper_bound(iv):
    # Variational bound: lambda_0 >= -(G/L + G^2) with G the total negative
    # coupling, so every root satisfies kappa <= sqrt(G/L + G^2). The
    # 2*max(c-)+1 rule alone fails on short intervals.
    gl = max(-iv.c_left, 0.0)
    gr = max(-iv.c_right, 0.0)
    g = gl + gr
    return max(2.0 * max(gl, gr) + 1.0, math.sqrt(g / iv.length + g * g) + 1.0)


def eigenvalue_bracket(iv, lam):
    """Interval (lo, hi) holding the eigenvalue ``lam`` of ``iv``.

    A negative eigenvalue lies in [-kappa_max^2, 0] with kappa_max the
    variational bound on the hyperbolic branch; a positive one lies
    between the squared Dirichlet nodes n pi / L enclosing sqrt(lam).
    """
    if lam < 0.0:
        kappa_hi = _kappa_upper_bound(iv)
        return -kappa_hi * kappa_hi, 0.0
    if lam == 0.0:
        return 0.0, 0.0
    node = math.pi / iv.length
    n = int(math.floor(math.sqrt(lam) / node))
    return (n * node) ** 2, ((n + 1) * node) ** 2


def _dedupe_sorted(values, rtol=1e-9):
    out = []
    for v in sorted(values):
        if not out or abs(v - out[-1]) > rtol * max(1.0, abs(v)):
            out.append(v)
    return out


def negative_eigenvalues(iv):
    """All negative eigenvalues (at most two), sorted ascending."""
    cl, cr = iv.c_left, iv.c_right
    if cl >= 0.0 and cr >= 0.0:
        return []
    length = iv.length
    kappa_max = _kappa_upper_bound(iv)
    roots = []
    if cl == cr:
        # Symmetric well: even/odd factorization. Both branches are strictly
        # monotone, which keeps deep, nearly-degenerate pairs resolvable.
        gamma = -cl
        roots.append(brentq(lambda k: k * math.tanh(0.5 * length * k) - gamma,
                            1e-300, kappa_max, rtol=1e-15))
        if gamma > 2.0 / length:
            roots.append(brentq(lambda k: k / math.tanh(0.5 * length * k) - gamma,
                                1e-12 * kappa_max, kappa_max, rtol=1e-15))
    else:
        grid = set(np.linspace(0.0, kappa_max, 401)[1:].tolist())
        for g0 in (max(-cl, 0.0), max(-cr, 0.0)):
            if g0 > 0.0:
                for e in range(-48, 3):
                    step = g0 * 2.0**e
                    for cand in (g0 - step, g0 + step, g0):
                        if 0.0 < cand <= kappa_max:
                            grid.add(cand)
        grid = sorted(grid)
        vals = [_secular_negative_scaled(iv, k) for k in grid]
        for i in range(len(grid) - 1):
            if vals[i] == 0.0:
                roots.append(grid[i])
            elif vals[i] * vals[i + 1] < 0.0:
                roots.append(brentq(lambda k: _secular_negative_scaled(iv, k),
                                    grid[i], grid[i + 1], rtol=1e-15))
        if vals[-1] == 0.0:
            roots.append(grid[-1])
        # A double root pinched below float resolution shows up as an exact
        # zero of the tanh-plateau quadratic with no sign change around it.
        for g0 in (max(-cl, 0.0), max(-cr, 0.0)):
            if g0 > 0.0 and all(abs(r - g0) > 1e-9 * g0 for r in roots):
                if _secular_negative_scaled(iv, g0) == 0.0:
                    roots.append(g0)
        roots = sorted(_dedupe_sorted(roots))
    if len(roots) > 2:
        raise EnumerationError(
            f"found {len(roots)} negative-branch roots for {iv}; at most 2 are possible"
        )
    return sorted(-k * k for k in roots)


def _zero_eigenvalue_present(iv):
    z = iv.c_left + iv.c_right + iv.c_left * iv.c_right * iv.length
    return abs(z) <= _ZERO_EIG_RTOL * (1.0 + abs(iv.c_left * iv.c_right) * iv.length)


def _bisect_refine(f, a, b):
    try:
        return brentq(f, a, b, rtol=1e-13)
    except ValueError:
        return None


def _positive_eigenvalues(iv, lam_max):
    """Roots of the positive secular function up to k = sqrt(lam_max).

    Returns (eigenvalues, bracket_count). Brackets are the Dirichlet
    intervals ((n-1)pi/L, n pi/L); each carries at most one extra or
    missing root, recovered by interior subdivision when the endpoint
    signs agree.
    """
    length, cl, cr = iv.length, iv.c_left, iv.c_right
    k_max = math.sqrt(lam_max)
    node_step = math.pi / length
    s = cl + cr
    if abs(s) <= _SUM_COLLAPSE_RTOL * max(1.0, abs(cl), abs(cr)):
        # c_r = -c_l: secular function is (k^2 + c_l^2) sin(kL), spectrum at nodes.
        n_hi = int(math.floor(k_max / node_step * (1.0 + 1e-15)))
        return [(n * node_step) ** 2 for n in range(1, n_hi + 1)], n_hi

    def f(k):
        kl = k * length
        return (k * k - cl * cr) * math.sin(kl) - k * s * math.cos(kl)

    def node_sign(n):
        # f(n pi / L) = -k s cos(n pi) exactly; evaluate the sign analytically.
        return -math.copysign(1.0, s) * (1.0 if n % 2 == 0 else -1.0)

    eps = 1e-4 * node_step
    roots = []
    bracket_count = 0
    n = 1
    left_k = eps
    left_sign = math.copysign(1.0, f(eps)) if f(eps) != 0.0 else 1.0
    while left_k < k_max:
        at_node = n * node_step <= k_max
        right_k = n * node_step if at_node else k_max
        if right_k - left_k <= 1e-15 * right_k:
            break
        right_val = None
        if at_node:
            right_sign = node_sign(n)
        else:
            right_val = f(right_k)
            if right_val == 0.0:
                right_sign = 0.0
            else:
                right_sign = math.copysign(1.0, right_val)
        bracket_count += 1
        if right_sign == 0.0:
            roots.append(right_k)
        elif left_sign * right_sign < 0.0:
            root = _bisect_refine(f, left_k, right_k)
            if root is None:
                raise EnumerationError(
                    f"sign-change bracket ({left_k}, {right_k}) failed to refine for {iv}"
                )
            roots.append(root)
        else:
            # Same-sign bracket: scan for an interior root pair. The only
            # mechanism is the envelope phase reversal near k^2 = c_l c_r.
            scan = set(np.linspace(left_k, right_k, 26)[1:-1].tolist())
            if cl * cr > 0.0:
                k_env = math.sqrt(cl * cr)
                if left_k < k_env < right_k:
                    for e in range(-30, 4):
                        for cand in (k_env - k_env * 2.0**e, k_env + k_env * 2.0**e):
                            if left_k < cand < right_k:
                                scan.add(cand)
            scan = sorted(scan)
            vals = [f(k) for k in scan]
            pts = [left_k] + scan + [right_k]
            sgs = [left_sign] + [math.copysign(1.0, v) if v != 0.0 else 0.0 for v in vals] + [right_sign]
            for i in range(len(pts) - 1):
                if sgs[i + 1] == 0.0:
                    roots.append(pts[i + 1])
                elif sgs[i] * sgs[i + 1] < 0.0:
                    root = _bisect_refine(f, pts[i], pts[i + 1])
                    if root is not None:
                        roots.append(root)
        left_k = right_k
        left_sign = right_sign
        n += 1
    roots = _dedupe_sorted(roots, rtol=1e-12)
    return [k * k for k in roots if k * k <= lam_max * (1.0 + 1e-14)], bracket_count


def neumann_count(length, lam_max):
    """Counting function of the Neumann interval: #{n >= 0 : (n pi / L)^2 <= lam}."""
    if lam_max < 0.0:
        return 0
    return 1 + int(math.floor(math.sqrt(lam_max) * length / math.pi * (1.0 + 1e-15)))


def enumerate_eigenvalues(iv, lam_max):
    """All eigenvalues <= lam_max with a completeness certificate.

    Raises EnumerationError when the Neumann-count cross-check (rank-two
    perturbation bound |N_Robin - N_Neumann| <= 2) fails.
    """
    lam_max = float(lam_max)
    if not math.isfinite(lam_max):
        raise ValueError("cutoff must be finite")
    negatives = [lam for lam in negative_eigenvalues(iv) if lam <= lam_max]
    zeros = [0.0] if (lam_max >= 0.0 and _zero_eigenvalue_present(iv)) else []
    if lam_max > 0.0:
        positives, bracket_count = _positive_eigenvalues(iv, lam_max)
    else:
        positives, bracket_count = [], 0
    eigenvalues = sorted(negatives + zeros + positives)
    cert = SpectrumCertificate(len(negatives), len(positives), bracket_count)
    drift = abs(len(eigenvalues) - neumann_count(iv.length, lam_max))
    if drift > 2:
        raise EnumerationError(
            f"counting certificate failed for {iv} at cutoff {lam_max}: "
            f"N_Robin = {len(eigenvalues)}, N_Neumann = {neumann_count(iv.length, lam_max)}"
        )
    return Spectrum1D(tuple(eigenvalues), lam_max, cert)


def fd_oracle(iv, n_grid, n_eigs):
    """Independent finite-difference eigenvalues, lowest ``n_eigs`` of them.

    Ghost-point Robin discretization symmetrized onto a tridiagonal matrix
    (endpoint rows carry half cells, couplings sqrt(2)/delta^2), solved by
    LAPACK Sturm-sequence bisection. Accuracy O(1/n_grid^2).
    """
    if n_grid < 100:
        raise ValueError(f"need n_grid >= 100, got {n_grid}")
    n_pts = n_grid + 1
    if n_eigs > n_pts:
        raise ValueError(f"requested {n_eigs} eigenvalues from a {n_pts}-point grid")
    delta = iv.length / n_grid
    diag = np.full(n_pts, 2.0 / delta**2)
    diag[0] += 2.0 * iv.c_left / delta
    diag[-1] += 2.0 * iv.c_right / delta
    off = np.full(n_pts - 1, -1.0 / delta**2)
    off[0] = -math.sqrt(2.0) / delta**2
    off[-1] = -math.sqrt(2.0) / delta**2
    vals = eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, n_eigs - 1))
    return [float(v) for v in vals]
