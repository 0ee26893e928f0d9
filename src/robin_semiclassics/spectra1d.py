"""Certified enumeration of the Robin eigenvalues of -u'' on an interval.

Boundary conditions u'(0) = c_left u(0), -u'(L) = c_right u(L). The
constant-coefficient Pruefer phase

    Phi(k) = k L + arccot(c_left / k) + arccot(c_right / k),  arccot in (0, pi),

counts the spectrum exactly: floor(Phi(k) / pi) eigenvalues lie at or below
k^2 > 0 (Pryce, Numerical Solution of Sturm-Liouville Problems, 1993). So the
n-th eigenvalue is the one point where Phi - n pi turns from negative to
positive, inside ((n - 2) pi / L, n pi / L), and each positive one is solved
by safeguarded Newton steps on Phi. Phi - n pi is the plain sum for
k L >= 64 and an angle below, where the sum cancels; a Newton iterate is
accepted without a further step where a Kantorovich bound proves it, from
the offset's rounding and bounds on Phi' and |Phi''| past the lower end of
the root's bracket. The negative ones, at most two, are the kappa where
the two eigenvalue branches of the boundary form B(kappa) cross 0
(lambda = -kappa^2), each solved to its float crossing by regula falsi
with the Illinois safeguard; B(0) gives N(0+). The
two counts fix how many roots are solved, so the spectrum is complete
wherever every solve converges; a solve that fails raises EnumerationError.

band_sum gives the sum of (lam - lambda_n)_+ over a band of high indices by
Euler-Maclaurin summation over the phase index, from the band's two end
roots, wherever an analytic bound puts its remainder below eps times the
sum and its rounding stays small; elsewhere it returns None, and the caller
enumerates the band instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EnumerationError

# Matches the lambda = 0 secular condition at root-finding accuracy.
_ZERO_EIG_RTOL = 1e-12
# Phase indices are solved in blocks of this many, which bounds the solver's
# temporaries whatever the size of the spectrum.
_BRACKET_BLOCK = 4096
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)  # the smallest normal float
# A root counts as solved once its last step is below this times k (four ulps).
_ROOT_RTOL = 4.0 * _EPS
# From k L = 64 on, _phase_offset takes the plain sum, whose arctan2 terms
# of size pi round by a few eps, against the eps k L / 2 >= 32 eps that
# fl(k L) may carry in either form. Phi' then lies within L / 64 of L (each coupling adds c / (k^2 + c^2), at
# most 1 / (2k) in magnitude), so an offset rounding of _OFFSET_ROUNDING
# eps (k L + 2 pi) moves a root by 2.3 eps k at most, inside _ROOT_RTOL.
# Below it the plain sum cancels, and the angle form keeps small offsets
# accurate.
_PLAIN_KL = 64.0
# pi = _PI_HI + _PI_LO to 1.3e-24, _PI_HI of 26 bits: n _PI_HI is exact for
# n < _MAX_PHASE_COUNT = 2^27, and so is k L - n _PI_HI in the bracket
# ((n - 2) pi, n pi), within a factor 2 of n pi once k L >= 64 (Sterbenz).
_PI_HI = 3.1415926814079285
_PI_LO = -2.7818135228334233e-08
_MAX_PHASE_COUNT = 2**27
# The evaluated offset lies within this times eps (k L + 2 pi) of Phi(k) - n pi.
_OFFSET_ROUNDING = 2.0
# Bound on |P_3(x)| / 3! for the periodic Bernoulli function: the
# Euler-Maclaurin remainder after the g' term is at most this times
# the integral of |g'''|.
_EM_REMAINDER = 2.0 * 1.2020569031595942 / (2.0 * math.pi) ** 3  # 2 zeta(3) / (2 pi)^3
# Largest rounding bound, relative to the band, with which band_sum takes the
# closed form. The bands of uniform-coupling sweeps stay below 1e-13. A short
# band far up the spectrum, where G(k_N) - G(k_a) cancels, or a huge positive
# coupling c, where (lam + c^2) arctan(k / c) - c k does, exceeds it.
_CLOSED_FORM_RTOL = 1e-12
# The bound-state solve halves the bracket at a midpoint at least once in
# four rounds that keep one end. From lo >= 1e-300 to hi <= kappa_max <
# 1.4e154 (its square is finite), log2(hi / lo) < 1510, so 11 geometric
# midpoints bring hi <= 2 lo and 53 arithmetic ones two adjacent floats.
# Rounds that move the two ends in turn are regula falsi's fast ones, so
# the cap only bounds a failure.
_CROSSING_MAX_ITER = 4 * 64
# Newton has needed 2-6 steps per block on sweep-sized spectra, and 13-19
# where a ground state lies far below its bracket (couplings c L from 1e-12
# down to 1e-308, the smallest the zero condition leaves). The cap only
# bounds a failure.
_NEWTON_MAX_ITER = 200


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
        # Both bound the arithmetic below: the zero condition forms
        # c_l c_r L, and negative_eigenvalues squares a kappa that may
        # reach kappa_max.
        if not math.isfinite(self.c_left * self.c_right * self.length):
            raise ValueError(f"c_left * c_right * length overflows for {self}")
        kappa_max = _kappa_upper_bound(self)
        if not math.isfinite(kappa_max * kappa_max):
            raise ValueError(f"the bound-state depth bound overflows for {self}")


@dataclass(frozen=True)
class SpectrumCertificate:
    n_negative: int
    n_positive: int

    @property
    def bracket_count(self):
        """Phase indices solved, one per positive eigenvalue."""
        return self.n_positive


@dataclass(frozen=True, eq=False)
class Spectrum1D:
    eigenvalues: np.ndarray  # ascending, read-only float64
    certificate: SpectrumCertificate


def _kappa_upper_bound(iv):
    # Variational bound: lambda_0 >= -(G/L + G^2) with G the total negative
    # coupling, so every root satisfies kappa <= sqrt(G/L + G^2). The
    # 2*max(c-)+1 rule alone fails on short intervals. The slack is relative
    # too, since a bare + 1 rounds away once the square root passes 1e16.
    gl = max(-iv.c_left, 0.0)
    gr = max(-iv.c_right, 0.0)
    g = gl + gr
    return max(2.0 * max(gl, gr) + 1.0, math.sqrt(g / iv.length + g * g) * (1.0 + 1e-8) + 1.0)


def _boundary_form_branch(kappa, iv, upper):
    """mu_hi(kappa) if upper else mu_lo(kappa), the eigenvalues of B(kappa), kappa > 0.

    B(kappa) = kappa [[coth kL, -csch kL], [-csch kL, coth kL]] + diag(c_l, c_r) is
    the Dirichlet-to-Neumann map of -u'' + kappa^2 u plus the couplings. The branch
    of larger magnitude is mean -+ spread, the other det B over it, with det B =
    (kappa coth(kL/2) + c_l)(kappa tanh(kL/2) + c_r) + (c_l - c_r) kappa csch kL for
    kL <= 1 (the odd and even equations' product if c_l = c_r), and else
    (kappa + c_l)(kappa + c_r) + (c_l + c_r) kappa (coth kL - 1).
    """
    cl, cr = iv.c_left, iv.c_right
    kl = kappa * iv.length
    if kl <= 1.0:
        t = math.tanh(0.5 * kl)
        odd = kappa / t  # kappa coth(kL/2)
        cross = 0.5 * odd * (1.0 - t * t)  # kappa csch kL
        det = (odd + cl) * (kappa * t + cr) + (cl - cr) * cross
        mean = 0.5 * odd * (1.0 + t * t) + 0.5 * (cl + cr)
    else:
        decay = math.exp(-kl)
        cross = 2.0 * kappa * decay / (1.0 - decay * decay)
        excess = cross * decay  # kappa (coth kL - 1)
        det = (kappa + cl) * (kappa + cr) + (cl + cr) * excess
        mean = (kappa + 0.5 * (cl + cr)) + excess
    spread = math.hypot(0.5 * (cl - cr), cross)
    big = mean - spread if mean < 0.0 else mean + spread
    small = det / big if big != 0.0 else 0.0  # big = 0 only where B = 0
    return small if (mean < 0.0) == upper else big


def negative_eigenvalues(iv):
    """All negative eigenvalues (at most two), sorted ascending.

    -kappa^2 is one exactly where a branch of B(kappa) crosses 0. Both rise
    strictly from B(0) (see _nonpositive_count) to positive values at the
    depth bound, so N(0+) branches cross, less one for a zero state, which is
    not reported here even if it truly lies just below 0. Each is the float
    crossing of its branch (_branch_root), or a zero of it. Raises
    EnumerationError, naming the branch and its bracket, if a branch that
    must cross shows no sign change, turns NaN or does not converge.
    """
    n_branches = _nonpositive_count(iv) - int(_zero_eigenvalue_present(iv))
    # The lower end keeps kappa and kappa L normal, so B is accurate there.
    ends = (1e-300 * max(1.0, 1.0 / iv.length), _kappa_upper_bound(iv))
    kappas = []
    for upper in (False, True)[:n_branches]:  # the lower branch first
        if upper:
            # mu_hi >= mu_lo crosses 0 first: its sign at the lower root says on
            # which side of it the upper root lies. Where it is 0, a pinched pair
            # shares that root, the lower end of the bracket, returned at once.
            at = _boundary_form_branch(kappas[0], iv, True)
            ends = (ends[0], kappas[0]) if at > 0.0 else (kappas[0], ends[1])
        try:
            kappas.append(_branch_root(iv, upper, *ends))
        except EnumerationError as exc:
            raise EnumerationError(f"the {'upper' if upper else 'lower'} branch of the boundary "
                                   f"form of {iv} fails on {list(ends)}: {exc}") from exc
    return sorted(-k * k for k in kappas)


def _branch_root(iv, upper, lo, hi):
    """The float crossing of the rising branch mu_hi (upper) or mu_lo of B on [lo, hi].

    Regula falsi with the Illinois safeguard (Dowell and Jarratt, BIT 11,
    1971): an end kept twice in a row has its stored value halved, and after
    three rounds that keep one end the next point is the bracket's midpoint.
    It stops at two adjacent floats, where the branch turns from - to +, and
    returns the one of smaller |B|; a point where the branch is 0 is returned
    at once. Raises EnumerationError if the branch has the same sign at both
    ends, turns NaN, or is still bracketed after _CROSSING_MAX_ITER rounds.
    """
    def value(kappa):
        f = _boundary_form_branch(kappa, iv, upper)
        if math.isnan(f):
            raise EnumerationError(f"the function is NaN at {kappa!r}")
        return f

    f_lo, f_hi = value(lo), value(hi)
    if (f_lo < 0.0) == (f_hi < 0.0) and f_lo != 0.0 and f_hi != 0.0:
        raise EnumerationError(f"f must have different signs at the ends, got {f_lo!r} and {f_hi!r}")
    w_lo, w_hi = f_lo, f_hi  # the stored values regula falsi interpolates
    kept = 0  # rounds in a row that kept the same end: > 0 the lower, < 0 the upper
    for _ in range(_CROSSING_MAX_ITER):
        if f_lo == 0.0 or f_hi == 0.0 or math.nextafter(lo, hi) == hi:
            return lo if abs(f_lo) <= abs(f_hi) else hi
        x = lo + (hi - lo) * (w_lo / (w_lo - w_hi))
        if abs(kept) >= 3 or not lo < x < hi:
            x = math.sqrt(lo) * math.sqrt(hi) if hi > 2.0 * lo else 0.5 * (lo + hi)
        fx = value(x)
        if (fx < 0.0) == (f_lo < 0.0) and fx != 0.0:
            lo, f_lo, w_lo = x, fx, fx
            kept = min(kept, 0) - 1
            if kept <= -2:
                w_hi *= 0.5
        else:
            hi, f_hi, w_hi = x, fx, fx
            kept = max(kept, 0) + 1
            if kept >= 2:
                w_lo *= 0.5
    raise EnumerationError(f"no convergence in {_CROSSING_MAX_ITER} steps, bracket [{lo!r}, {hi!r}]")


def _zero_eigenvalue_present(iv):
    """Whether z = c_l + c_r + c_l c_r L, L det B(0), is 0 up to rounding.

    It is where |z| is at most _ZERO_EIG_RTOL times the size of its terms,
    a test the same on every scale. A state of z below tiny max(L, 1 / L)
    is a zero one too: its lambda, about z / L, or lambda L^2, about z L,
    lies below the normal floats, where the phase no longer sees the
    couplings and Newton on that ground state would run past its cap.
    """
    cl, cr, length = iv.c_left, iv.c_right, iv.length
    floor = max(_ZERO_EIG_RTOL * (abs(cl) + abs(cr) + abs(cl * cr) * length), _TINY * max(length, 1.0 / length))
    return abs(cl + cr + cl * cr * length) <= floor


def _nonpositive_count(iv):
    """N(0+), the number of eigenvalues <= 0.

    The quadratic form splits into a positive part on H^1_0 and its
    restriction to linear functions, the boundary form
    B(0) = [[1/L + c_l, -1/L], [-1/L, 1/L + c_r]] with determinant
    (c_l + c_r + c_l c_r L) / L; N(0+) is that matrix's number of eigenvalues
    <= 0, with a zero one wherever _zero_eigenvalue_present says so.
    """
    negative_trace = int(2.0 / iv.length + iv.c_left + iv.c_right < 0.0)
    if _zero_eigenvalue_present(iv):
        return 1 + negative_trace
    if iv.c_left + iv.c_right + iv.c_left * iv.c_right * iv.length < 0.0:
        return 1
    return 2 * negative_trace


def _phase_count(iv, lam):
    """floor(Phi(sqrt(lam)) / pi), the number of eigenvalues <= lam, for lam > 0.

    It is at least N(0+): a state the zero condition places at 0 may truly
    lie just above it, past a cutoff that small. Below k L = _PLAIN_KL the
    plain sum may round up onto the multiple of pi that Phi lies just below
    (Phi = 2 pi - 0.19 k near k = 0 on an interval of length 0.87 with one
    state, at -144), so there the sign of _phase_offset, whose angle form
    keeps small offsets, confirms the count. A count of _MAX_PHASE_COUNT or
    more raises ValueError, before any root is solved.
    """
    k = math.sqrt(lam)
    phase = k * iv.length + math.atan2(k, iv.c_left) + math.atan2(k, iv.c_right)
    nonpositive = _nonpositive_count(iv)
    count = max(math.floor(phase / math.pi), nonpositive)
    if count > nonpositive and k * iv.length < _PLAIN_KL:
        count -= int(_phase_offset(iv, np.array([k]), np.array([float(count)]))[0][0] < 0.0)
    if count >= _MAX_PHASE_COUNT:
        raise ValueError(f"{count:.4g} eigenvalues of {iv} lie at or below {lam!r}, past the solver's 2^27")
    return count


def _per_coupling(iv, term):
    """(term(c_left), term(c_right)), with term evaluated once where the couplings are equal.

    Each term is an array operation over a block, and every sweep's axes
    have c_left == c_right.
    """
    left = term(iv.c_left)
    return left, (left if iv.c_right == iv.c_left else term(iv.c_right))


def _phase_offset(iv, k, n):
    """Phi(k) - n pi and Phi'(k) for arrays k > 0 and integer-valued n.

    Two forms give the offset. Where k L >= _PLAIN_KL it is the plain sum
    (k L - n pi_hi) + arccot(c_l / k) + arccot(c_r / k) - n pi_lo, pi split
    so that the first difference is exact. Below, that sum cancels near a
    root (the ground state of c = (1.03e-8, 0) would lose three digits), and
    the offset is the angle of (cos Phi, sin Phi) turned by n pi
    (_angle_offset). For k in its root's bracket either form lies within
    rounding = _OFFSET_ROUNDING eps (k L + 2 pi) of Phi(k) - n pi: fl(k L)
    rounds by eps k L / 2 in both, and the terms of size pi (each arctan2,
    and the angle form's hypot, sin and cos) by a few ulps of pi.
    Phi' = L + sum_c 1 / (c + k^2 / c) is one expression for the whole block,
    finite for every finite c and k > 0.
    """
    slope = np.full_like(k, iv.length)
    with np.errstate(over="ignore"):  # k^2 / c may overflow; its term is then 0
        for part in _per_coupling(iv, lambda c: 1.0 / (c + k * (k / c)) if c != 0.0 else 0.0):
            slope += part
    kl = k * iv.length
    arc_l, arc_r = _per_coupling(iv, lambda c: np.arctan2(k, c))
    offset = n * _PI_HI  # the plain sum, in place and in the docstring's order
    np.subtract(kl, offset, out=offset)
    offset += arc_l
    offset += arc_r
    offset -= n * _PI_LO
    low = np.flatnonzero(kl < _PLAIN_KL)
    if low.size:
        offset[low] = _angle_offset(iv, k[low], n[low], offset[low])
    return offset, slope


def _angle_offset(iv, k, n, plain):
    """Phi(k) - n pi as the angle of (cos Phi, sin Phi) turned by n pi.

    Each arccot(c / k) enters through its unit vector (c, k) / |k + ic|, so
    the offset keeps its relative accuracy near a root; ``plain``, the plain
    sum, only picks the whole turn.
    """
    def unit(c):  # (cos, sin) of arccot(c / k)
        r = np.hypot(k, c)
        return c / r, k / r

    (cos_l, sin_l), (cos_r, sin_r) = _per_coupling(iv, unit)
    cos_b = cos_l * cos_r - sin_l * sin_r
    sin_b = sin_l * cos_r + cos_l * sin_r
    kl = k * iv.length
    s, c = np.sin(kl), np.cos(kl)
    turn = 1.0 - 2.0 * (n % 2)
    offset = np.arctan2(turn * (s * cos_b + c * sin_b), turn * (c * cos_b - s * sin_b))
    return offset + 2.0 * math.pi * np.round((plain - offset) / (2.0 * math.pi))


def _phase_roots(iv, n, k_max):
    """The roots k of Phi(k) = n pi for the integer-valued array n, all solved together.

    Root n lies in ((n - 2) pi / L, n pi / L), cut to (0, k_max], and
    Phi - n pi changes sign there once, from - to +, since the count never
    decreases. So every evaluated point narrows the bracket. The start is
    one fixed-point step of k L = (n - 1) pi + arctan(c_l / k) + arctan(c_r / k)
    from the bracket's midpoint, or the midpoint where that step leaves the
    bracket. Then vectorized Newton steps on the phase; a step that leaves
    the bracket, is not half the step before last or is longer than the last
    one is replaced by the midpoint (rtsafe, Press et al., Numerical
    Recipes), taken in log k once the bracket's lower end is positive. Below
    a ground state, where the phase goes as -c / k, Newton only doubles k.
    An index leaves the active set with its Newton iterate once
    _newton_certified proves that iterate or the Newton step is below
    _ROOT_RTOL * k, on sweep spectra at its first phase point, or once a
    safeguarded step is below _ROOT_RTOL times where it lands. While no
    index has left, a round in which all settle returns the Newton iterates
    before any bracket update. In every other round the settled and the
    open indices take the same elementwise update, which keeps a settled
    index at its Newton iterate, and all that settled leave in one
    compaction; so a root does not depend on its block. The enumeration
    passes n as floats, which spares an int-to-float cast in each product
    with n; the roots are the same for integers. Raises EnumerationError if
    any index is still open after _NEWTON_MAX_ITER steps.
    """
    node_step = math.pi / iv.length
    lo = np.maximum((n - 2) * node_step, 0.0)
    hi = np.minimum(n * node_step, k_max)
    middle = 0.5 * (lo + hi)
    arc_l, arc_r = _per_coupling(iv, lambda c: np.arctan2(c, middle))
    k = (n - 1) * math.pi  # the fixed-point step, in place
    k += arc_l
    k += arc_r
    k /= iv.length
    k = np.where((lo < k) & (k < hi), k, middle)
    last = before = hi - lo  # the last two step lengths
    roots = np.empty(n.size)
    active = np.arange(n.size)
    for _ in range(_NEWTON_MAX_ITER):
        offset, slope = _phase_offset(iv, k, n)
        with np.errstate(divide="ignore", invalid="ignore"):
            dk = offset / slope
        newton = k - dk
        # The step test only for what the certificate leaves open. A converged
        # step may round onto k, which is now an end of the bracket.
        converged = _newton_certified(iv, k, offset, newton, lo)
        if not converged.all():
            converged |= np.abs(dk) <= _ROOT_RTOL * k
        if active.size == roots.size and converged.all():
            return newton  # active is every index, in order
        lo = np.where(offset < 0.0, k, lo)
        hi = np.where(offset > 0.0, k, hi)
        # The initial ends are bounds, not evaluated points: a root within
        # rounding of one is reached by stepping onto it.
        inside = (lo <= newton) & (newton <= hi) & (newton > 0.0)
        take = converged | (inside & (np.abs(dk) <= np.minimum(0.5 * before, last)))
        middle = np.where(lo > 0.0, np.sqrt(lo) * np.sqrt(hi), 0.5 * (lo + hi))
        new = np.where(take, newton, middle)
        last, before = np.abs(new - k), last
        done = converged | (last <= _ROOT_RTOL * new)
        if done.any():
            roots[active[done]] = new[done]
            live = np.flatnonzero(~done)
            if live.size == 0:
                return roots
            active, n, lo, hi, last, before, new = (
                a[live] for a in (active, n, lo, hi, last, before, new))
        k = new
    raise EnumerationError(
        f"{active.size} phase indices did not converge in {_NEWTON_MAX_ITER} Newton steps for {iv}"
    )


def _newton_certified(iv, k, offset, newton, lo):
    """Where the Newton iterate ``newton`` from k is proven close to its root.

    k and the root lie in the bracket [lo, hi], where m <= Phi' and
    M >= |Phi''| (_bracket_bounds). The offset is within rounding =
    _OFFSET_ROUNDING eps (k L + 2 pi) of Phi(k) - n pi, so for m > 0 the root
    lies within e = (|offset| + rounding) / m of k, and Newton's error is at
    most M e^2 / (2 m) (Kantorovich), accepted up to _ROOT_RTOL * k. The
    iterate then lies within _ROOT_RTOL * k + rounding / Phi'(k) of the root.
    A bound that is not finite compares False.
    """
    slope_min, curve_max = _bracket_bounds(iv, lo)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        e = (np.abs(offset) + _OFFSET_ROUNDING * _EPS * (k * iv.length + 2.0 * math.pi)) / slope_min
        return (slope_min > 0.0) & (curve_max * e * e <= 2.0 * _ROOT_RTOL * slope_min * newton)


def _bracket_bounds(iv, lo):
    """m <= Phi'(k) and M >= |Phi''(k)| for every k >= lo >= 0.

    A coupling adds p = c / (k^2 + c^2) to Phi': p > 0 for c > 0, and
    p >= c / (lo^2 + c^2) for c < 0. Since 2 |c| k <= k^2 + c^2,
    |p'| <= 1 / (lo^2 + c^2). M is inf where lo^2 + c^2 underflows to 0
    or the two couplings' parts overflow in their sum.
    """
    def parts(c):  # c r where c < 0, and r = 1 / (lo^2 + c^2); both 0 for c = 0
        if c == 0.0:
            return 0.0, 0.0
        r = 1.0 / (lo2 + c * c)
        return (c * r if c < 0.0 else 0.0), r

    with np.errstate(divide="ignore", over="ignore"):
        lo2 = lo * lo
        (neg_l, r_l), (neg_r, r_r) = _per_coupling(iv, parts)
        return iv.length + neg_l + neg_r, r_l + r_r


def _positive_eigenvalues(iv, n_low, n_high, lam_max):
    """Eigenvalues k_n^2 of the phase indices n_low < n <= n_high, in order."""
    k_max = math.sqrt(lam_max)
    roots = np.empty(max(n_high - n_low, 0))
    for j in range(0, roots.size, _BRACKET_BLOCK):
        n = np.arange(n_low + 1 + j, n_low + 1 + min(j + _BRACKET_BLOCK, roots.size), dtype=float)
        roots[j:j + n.size] = _phase_roots(iv, n, k_max)
    roots *= roots
    return roots


def enumerate_eigenvalues(iv, lam_max):
    """All eigenvalues <= lam_max, ascending, with their counts.

    The N(0+) nonpositive ones come from negative_eigenvalues and the zero
    condition; for lam_max > 0 the phase indices N(0+) + 1 .. N(lam_max),
    N(lam_max) = floor(Phi(sqrt(lam_max)) / pi), give the positive ones. So
    the counts are exact by construction, and the spectrum is complete
    wherever every root converges: a bound-state solve without a sign change,
    a NaN or a step cap, or a Newton step cap, raises EnumerationError.
    """
    lam_max = float(lam_max)
    if not math.isfinite(lam_max):
        raise ValueError("cutoff must be finite")
    negatives = negative_eigenvalues(iv)
    nonpositive = negatives + ([0.0] if _zero_eigenvalue_present(iv) else [])
    positives = np.empty(0)
    if lam_max > 0.0:
        positives = _positive_eigenvalues(iv, len(nonpositive), _phase_count(iv, lam_max), lam_max)
    eigenvalues = np.concatenate(([lam for lam in nonpositive if lam <= lam_max], positives))
    eigenvalues.flags.writeable = False
    cert = SpectrumCertificate(sum(lam <= lam_max for lam in negatives), positives.size)
    return Spectrum1D(eigenvalues, cert)


@dataclass(frozen=True)
class BandSum:
    value: float  # sum of lam - lambda_n over the counted roots
    count: int  # roots with lam - lambda_n > 0 in floating point
    error: float  # bound on |value - exact sum|, roots taken within _ROOT_RTOL


def band_sum(iv, lam_low, lam):
    """Certified closed-form sum of (lam - lambda_n)_+ over the eigenvalues above lam_low, or None.

    The band is the phase indices a .. N = N(lam) above the N(lam_low)
    eigenvalues that enumerate_eigenvalues(iv, lam_low) returns, all positive
    roots; a root with lam - lambda_n <= 0 in floating point is not counted.
    With k(n) the root of Phi(k) = n pi and g(n) = lam - k(n)^2,
    Euler-Maclaurin summation over n gives

        sum_{n=a..N} g(n) = G(k_N) - G(k_a) + (g_a + g_N) / 2 + (g'_N - g'_a) / 12 + R,

    with G(k) = [lam L k - L k^3 / 3 + sum_{c != 0} ((lam + c^2) arctan(k / c) - c k)] / pi
    the antiderivative of (lam - k^2) Phi'(k) / pi and g' = -2 pi k / Phi'(k).
    So only k_a and k_N are solved. |R| <= 2 zeta(3) / (2 pi)^3 int |g'''| dn,
    bounded analytically over the band (_remainder_bound). The sum is
    returned only when that bound is at most eps * value and its rounding
    bound at most _CLOSED_FORM_RTOL * value; its error adds the two. Otherwise
    (short bands, a bound that is not finite or not small, huge couplings,
    a bound or a term past the float range) the result is None, and the
    caller enumerates the band.
    """
    lam_low, lam = float(lam_low), float(lam)
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError(f"band cutoff must be positive and finite, got {lam!r}")
    if not (math.isfinite(lam_low) and lam_low > 0.0):
        raise ValueError(f"the band must start above the nonpositive eigenvalues of {iv}, "
                         f"got lam_low = {lam_low!r}")
    n_below = _phase_count(iv, lam_low)
    n_top = _phase_count(iv, lam)
    if n_top <= n_below:
        return BandSum(0.0, 0, 0.0)
    k_a, k_n = _phase_roots(iv, np.array([n_below + 1, n_top], dtype=float), math.sqrt(lam)).tolist()
    try:  # on tiny or huge intervals, Phi'^4 or k_N^3 may leave the float range
        bound = _remainder_bound(iv, k_a, k_n)
        value, rounding = _closed_form_band(iv, k_a, k_n, lam)
    except (OverflowError, ZeroDivisionError):
        return None
    if not (bound <= _EPS * value and rounding <= _CLOSED_FORM_RTOL * value):
        return None
    return BandSum(value, n_top - n_below - (lam - k_n * k_n <= 0.0), bound + rounding)


def _slope_part(c, k):
    """c / (k^2 + c^2), one coupling's part of Phi'(k), and its k-derivative."""
    r = k * k + c * c
    return c / r, -2.0 * c * k / (r * r)


def _remainder_bound(iv, k_a, k_n):
    """2 zeta(3) / (2 pi)^3 times a bound on int |g'''| dn over the band [k_a, k_n].

    With dn = Phi' dk / pi,
    |g'''| dn = 2 pi^2 |k Phi''' Phi' + 3 (Phi' - k Phi'') Phi''| / Phi'^4 dk.
    Each coupling c adds p = c / (k^2 + c^2) to Phi', p' to Phi'' and p'' to
    Phi'''. Since p is monotone, Phi' lies between the sums of its end values,
    and int |p'| dk = |p(k_N) - p(k_a)|. p'' changes sign only at
    k = |c| / sqrt(3), and k p'' = (k p' - p)', so int k |p''| dk is a sum of
    differences of k p' - p. k |p'| = 2 |c| k^2 / (k^2 + c^2)^2 peaks at
    k = |c|. Returns inf when Phi' may vanish on the band.
    """
    slope_min = slope_max = iv.length
    curl = turn = peak = 0.0  # sums of int k |p''|, int |p'| and max k |p'|
    for c in (iv.c_left, iv.c_right):
        nodes = [k_a, k_n]
        if k_a < abs(c) / math.sqrt(3.0) < k_n:
            nodes.insert(1, abs(c) / math.sqrt(3.0))
        parts = [_slope_part(c, k) for k in nodes]
        q = [k * dp - p for k, (p, dp) in zip(nodes, parts)]
        curl += sum(abs(b - a) for a, b in zip(q[:-1], q[1:]))
        p_a, p_n = parts[0][0], parts[-1][0]
        slope_min += min(p_a, p_n)
        slope_max += max(p_a, p_n)
        turn += abs(p_n - p_a)
        k_peak = min(max(abs(c), k_a), k_n)
        peak += abs(k_peak * _slope_part(c, k_peak)[1])
    if not slope_min > 0.0:
        return math.inf
    integral = 2.0 * math.pi**2 * (slope_max * curl + 3.0 * (slope_max + peak) * turn) / slope_min**4
    return _EM_REMAINDER * integral


def _closed_form_band(iv, k_a, k_n, lam):
    """The Euler-Maclaurin sum over the band [k_a, k_n] and its rounding bound.

    A last root with lam - k_n^2 <= 0 in floating point is taken out. The
    rounding bound counts a few ulps of every term, and the change of the sum
    when either end root moves by _ROOT_RTOL * k: its k-derivative at an end
    is about g Phi' / pi + k + pi / Phi'.
    """
    length = iv.length
    terms = []
    sensitivity = 0.0
    for sign, k in ((-1.0, k_a), (1.0, k_n)):
        slope = length + sum(_slope_part(c, k)[0] for c in (iv.c_left, iv.c_right))
        g = lam - k * k
        parts = [lam * length * k, -length * k**3 / 3.0]
        for c in (iv.c_left, iv.c_right):
            if c != 0.0:
                parts += [(lam + c * c) * math.atan(k / c), -c * k]
        terms += [sign * t / math.pi for t in parts]
        terms += [0.5 * g, sign * (-2.0 * math.pi * k / slope) / 12.0]
        sensitivity += _ROOT_RTOL * k * (abs(g) * slope / math.pi + k + math.pi / slope)
    if lam - k_n * k_n <= 0.0:
        terms.append(k_n * k_n - lam)
    rounding = 8.0 * _EPS * math.fsum(abs(t) for t in terms) + sensitivity
    if not math.isfinite(rounding):  # a term overflows, as lam + c^2 does for huge c
        return math.nan, rounding
    return math.fsum(terms), rounding


def fd_oracle(iv, n_grid, n_eigs):
    """Independent finite-difference eigenvalues, lowest ``n_eigs`` of them.

    Ghost-point Robin discretization symmetrized onto a tridiagonal matrix
    (endpoint rows carry half cells, couplings sqrt(2)/delta^2), solved by
    LAPACK Sturm-sequence bisection. Accuracy O(1/n_grid^2). It is the one
    use of scipy, which the package does not install (it comes with the
    ``test`` extra, ``pip install -e ".[test]"``); it is imported here so
    that the package itself loads without it.
    """
    from scipy.linalg import eigvalsh_tridiagonal

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
