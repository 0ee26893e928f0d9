"""Certified enumeration of the Robin eigenvalues of -u'' on an interval.

Boundary conditions u'(0) = c_left u(0), -u'(L) = c_right u(L). Positive
eigenvalues are bracketed between consecutive Dirichlet nodes of the
secular function, at most two negative eigenvalues are located on the
hyperbolic branch, and completeness is certified against the Neumann
counting function (the boundary form is a rank-two perturbation).
"""

from __future__ import annotations

import functools
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
# Sign-change brackets are solved in blocks of this many, which bounds the
# solver's temporaries whatever the size of the spectrum.
_BRACKET_BLOCK = 4096
# A bracket counts as solved once it is narrower than this times k (four
# ulps), far inside the 1e-13 relative tolerance of the scalar rescue path.
_ROOT_RTOL = 4.0 * np.finfo(float).eps
# Dirichlet brackets have needed at most about 20 steps and the (0, eps)
# bracket of a tiny ground state about 50; the cap only bounds a failure.
_ILLINOIS_MAX_ITER = 200


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
    rescues: int  # same-sign brackets sent down the scalar scan


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
    cl, cr = iv.c_left, iv.c_right
    if kl <= 1.0:
        return (kappa * kappa + cl * cr) * math.tanh(kl) + kappa * (cl + cr)
    # (kappa + c_l)(kappa + c_r) - (kappa^2 + c_l c_r)(1 - tanh(kappa L)): the
    # two terms of the tanh form cancel for deep, nearly degenerate pairs.
    decay = math.exp(-2.0 * kl)
    return (kappa + cl) * (kappa + cr) - (kappa * kappa + cl * cr) * (2.0 * decay / (1.0 + decay))


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


def _dedupe_sorted(values):
    out = []
    for v in sorted(values):
        if not out or abs(v - out[-1]) > 1e-9 * max(1.0, abs(v)):
            out.append(v)
    return out


def _kappa_root(f, a, b):
    # Relative tolerance only: brentq's default absolute xtol = 2e-12 would
    # swamp shallow states (kappa ~ 1e-4 and below). Bisecting down to a
    # kappa near 1e-300 takes about a thousand steps, hence maxiter.
    return brentq(f, a, b, xtol=1e-300, rtol=1e-15, maxiter=2000)


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
        roots.append(_kappa_root(lambda k: k * math.tanh(0.5 * length * k) - gamma,
                                 1e-300, kappa_max))
        if gamma > 2.0 / length:
            roots.append(_kappa_root(lambda k: k / math.tanh(0.5 * length * k) - gamma,
                                     1e-12 * kappa_max, kappa_max))
    else:
        grid = set(np.linspace(0.0, kappa_max, 401)[1:].tolist())
        if not _zero_eigenvalue_present(iv):
            # f(kappa) = kappa (c_l + c_r + c_l c_r L) + O(kappa^3): a shallow
            # state can lie below every other grid point.
            grid.add(1e-300)
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
            elif vals[i + 1] != 0.0 and (vals[i] < 0.0) != (vals[i + 1] < 0.0):
                # Compare signs, not the product: near a deep root it underflows.
                roots.append(_kappa_root(lambda k: _secular_negative_scaled(iv, k),
                                         grid[i], grid[i + 1]))
        if vals[-1] == 0.0:
            roots.append(grid[-1])
        # A double root pinched below float resolution shows up as an exact
        # zero of (kappa + c_l)(kappa + c_r), once the tanh correction
        # underflows, with no sign change around it.
        for g0 in (max(-cl, 0.0), max(-cr, 0.0)):
            if g0 > 0.0 and all(abs(r - g0) > 1e-9 * g0 for r in roots):
                if _secular_negative_scaled(iv, g0) == 0.0:
                    roots.append(g0)
        roots = _dedupe_sorted(roots)
    if len(roots) > 2:
        raise EnumerationError(
            f"found {len(roots)} negative-branch roots for {iv}; at most 2 are possible"
        )
    # A root whose square underflows is a zero eigenvalue, which
    # enumerate_eigenvalues reports from the exact lambda = 0 condition.
    return sorted(-k * k for k in roots if k * k > 0.0)


def _zero_eigenvalue_present(iv):
    z = iv.c_left + iv.c_right + iv.c_left * iv.c_right * iv.length
    return abs(z) <= _ZERO_EIG_RTOL * (1.0 + abs(iv.c_left * iv.c_right) * iv.length)


def _bisect_refine(f, a, b):
    try:
        return brentq(f, a, b, rtol=1e-13)
    except ValueError:
        return None


def _illinois(f, lo, hi, flo, fhi, max_iter=_ILLINOIS_MAX_ITER):
    """Roots of ``f`` in the brackets (lo, hi), all solved together.

    ``flo`` and ``fhi`` are the endpoint values and must differ in sign bit.
    Vectorized safeguarded regula falsi (Illinois; Dowell & Jarratt 1971):
    a secant point outside its bracket is replaced by the midpoint, one
    within a quarter tolerance of an endpoint is moved that far inside, the
    value at an endpoint kept for a second step running is halved, and a
    bracket leaves the active set once it is narrower than _ROOT_RTOL * k.
    Raises EnumerationError if any bracket is still open after ``max_iter``
    steps.
    """
    lo, hi, flo, fhi = (np.array(a, dtype=float) for a in (lo, hi, flo, fhi))
    roots = np.empty(lo.size)
    active = np.arange(lo.size)
    kept = np.zeros(lo.size, dtype=np.int8)  # +1: hi kept last step, -1: lo kept
    for _ in range(max_iter):
        if active.size == 0:
            return roots
        c = hi - fhi * ((hi - lo) / (fhi - flo))
        c = np.where((lo <= c) & (c <= hi), c, 0.5 * (lo + hi))
        # A point that rounds onto an endpoint would never move it.
        nudge = 0.25 * _ROOT_RTOL * hi
        c = np.clip(c, lo + nudge, hi - nudge)
        fc = f(c)
        up = np.signbit(fc) == np.signbit(flo)  # the root lies in (c, hi)
        fhi[up & (kept == 1)] *= 0.5
        flo[~up & (kept == -1)] *= 0.5
        lo = np.where(up, c, lo)
        flo = np.where(up, fc, flo)
        hi = np.where(up, hi, c)
        fhi = np.where(up, fhi, fc)
        kept = np.where(up, 1, -1).astype(np.int8)
        hit = fc == 0.0
        done = hit | (hi - lo <= _ROOT_RTOL * hi)
        if done.any():
            roots[active[done]] = np.where(hit[done], c[done], 0.5 * (lo[done] + hi[done]))
            live = ~done
            active, lo, hi, flo, fhi, kept = (a[live] for a in (active, lo, hi, flo, fhi, kept))
    if active.size:
        raise EnumerationError(
            f"{active.size} sign-change brackets did not converge in {max_iter} Illinois steps"
        )
    return roots


def _scan_same_sign(f, cl, cr, left_k, right_k, sign):
    """Roots in a bracket whose endpoints share ``sign``: an even number, found
    by an interior scan. The only mechanism is the envelope phase reversal
    near k^2 = c_l c_r, so the scan is refined geometrically around it."""
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
    sgs = [sign] + [math.copysign(1.0, v) if v != 0.0 else 0.0 for v in vals] + [sign]
    roots = []
    for i in range(len(pts) - 1):
        if sgs[i + 1] == 0.0:
            roots.append(pts[i + 1])
        elif sgs[i] * sgs[i + 1] < 0.0:
            root = _bisect_refine(f, pts[i], pts[i + 1])
            if root is not None:
                roots.append(root)
    return roots


def _positive_eigenvalues(iv, lam_max):
    """Roots of the positive secular function up to k = sqrt(lam_max).

    Returns (eigenvalues, bracket_count, rescues), the eigenvalues as a
    sorted array. Brackets are the Dirichlet intervals ((n-1)pi/L, n pi/L),
    the first starting at a small eps and the last ending at k_max. Node
    values are known exactly and alternate in sign, so every bracket between
    two nodes changes sign; all sign-change brackets go to _illinois in
    blocks of _BRACKET_BLOCK. A same-sign bracket (only the first or the
    last can be one) may hide a root pair and is rescued by _scan_same_sign.
    A ground state below eps is found from the sign of f as k -> 0+.
    """
    length, cl, cr = iv.length, iv.c_left, iv.c_right
    k_max = math.sqrt(lam_max)
    node_step = math.pi / length
    s = cl + cr
    if abs(s) <= _SUM_COLLAPSE_RTOL * max(1.0, abs(cl), abs(cr)):
        # c_r = -c_l: secular function is (k^2 + c_l^2) sin(kL), spectrum at nodes.
        n_hi = int(math.floor(k_max / node_step * (1.0 + 1e-15)))
        nodes = np.arange(1, n_hi + 1) * node_step
        return nodes * nodes, n_hi, 0

    def f_array(k):
        kl = k * length
        return (k * k - cl * cr) * np.sin(kl) - k * s * np.cos(kl)

    f = functools.partial(secular_positive, iv)
    eps = 1e-4 * node_step
    if not eps < k_max:
        return np.empty(0), 0, 0
    # Edges: eps, the nodes n * node_step <= k_max, then k_max unless it
    # (nearly) coincides with the last of them.
    n_nodes = int(k_max / node_step)
    while (n_nodes + 1) * node_step <= k_max:
        n_nodes += 1
    while n_nodes > 0 and n_nodes * node_step > k_max:
        n_nodes -= 1
    last_edge = n_nodes * node_step if n_nodes else eps
    tail = last_edge < k_max and k_max - last_edge > 1e-15 * k_max
    bracket_count = n_nodes + int(tail)
    f_eps = f(eps) or 0.0  # a zero start counts as positive
    f_tail = f(k_max) if tail else None

    parts = []
    rescues = 0
    for j0 in range(0, bracket_count, _BRACKET_BLOCK):
        j1 = min(j0 + _BRACKET_BLOCK, bracket_count)
        n = np.arange(j0, j1 + 1)
        edges = n * node_step
        values = np.where(n % 2 == 0, -s, s) * edges  # f(n pi / L) = -k s cos(n pi)
        if j0 == 0:
            edges[0], values[0] = eps, f_eps
        at_tail = tail and j1 == bracket_count
        if at_tail:
            edges[-1], values[-1] = k_max, f_tail
        solve = np.signbit(values[:-1]) != np.signbit(values[1:])
        same = ~solve
        if at_tail and f_tail == 0.0:
            # A root on the cutoff itself; its bracket is not searched further.
            solve[-1] = same[-1] = False
            parts.append(np.array([k_max]))
        lo, hi, flo, fhi = edges[:-1], edges[1:], values[:-1], values[1:]
        parts.append(_illinois(f_array, lo[solve], hi[solve], flo[solve], fhi[solve]))
        for i in np.flatnonzero(same):
            rescues += 1
            parts.append(np.array(_scan_same_sign(
                f, cl, cr, float(lo[i]), float(hi[i]), math.copysign(1.0, flo[i]))))
    z = cl + cr + cl * cr * length  # f(k) = -k z + O(k^3) as k -> 0+
    if bracket_count and not _zero_eigenvalue_present(iv) and (f_eps < 0.0) != (z > 0.0):
        # f changes sign on (0, eps): a ground state below eps.
        parts.append(_illinois(f_array, [0.0], [eps], [math.copysign(0.0, -z)], [f_eps]))
    roots = np.concatenate(parts) if parts else np.empty(0)
    roots.sort()
    dup = np.flatnonzero(np.diff(roots) <= 1e-12 * np.maximum(roots[1:], 1.0))
    roots = np.delete(roots, dup + 1)
    lam = roots * roots
    return lam[:np.searchsorted(lam, lam_max * (1.0 + 1e-14), side="right")], bracket_count, rescues


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
        positives, bracket_count, rescues = _positive_eigenvalues(iv, lam_max)
    else:
        positives, bracket_count, rescues = np.empty(0), 0, 0
    eigenvalues = sorted(negatives + zeros + positives.tolist())
    cert = SpectrumCertificate(len(negatives), positives.size, bracket_count, rescues)
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
