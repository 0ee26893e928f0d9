"""Correctness gate: independent oracles for every benchmark operation.

Nothing here runs inside a timed region. Each check returns a list of
problems; an empty list means the operation's output is correct.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.integrate import quad

from robin_semiclassics import riesz
from robin_semiclassics.riesz import BoxDomain
from robin_semiclassics.spectra1d import RobinInterval, enumerate_eigenvalues, fd_oracle

# Product spectra up to this many tuples go through riesz.trace_bruteforce
# in one piece; larger ones (box4d) only through the slab-wise sum below.
FULL_PRODUCT_MAX = 20_000_000
SLAB_ROWS = 2048
FD_LEVELS = (6000, 12000, 24000)
FD_EIGS = 20
FD_RTOL = 1e-6
TRACE_RTOL = 1e-10
L2_RTOL = 1e-10
LEMMA_ATOL = 1e-6


def unit_ball_volume(d):
    return math.pi ** (0.5 * d) / math.gamma(0.5 * d + 1.0)


def weyl_constant(d):
    return (2.0 / (d + 2)) * (2.0 * math.pi) ** (-d) * unit_ball_volume(d)


def boundary_prefactor(d):
    """c_d = 4 |S^(d-2)| (2 pi)^(-d) / (d^2 - 1), with |S^k| = 2 pi^((k+1)/2) / Gamma((k+1)/2)."""
    sphere = 2.0 * math.pi ** (0.5 * (d - 1)) / math.gamma(0.5 * (d - 1))
    return 4.0 * sphere * (2.0 * math.pi) ** (-d) / (d * d - 1.0)


def l2_bracket(d, b):
    """l2(d, b) / c_d with the peak of b / (b^2 + p^2) integrated in closed form.

    int_0^1 b / (b^2 + p^2) dp = arctan(1 / b); the remainder integrand
    ((1 - p^2)^k - 1) b / (b^2 + p^2) is bounded by k |b|, so plain
    adaptive quadrature resolves it for every b != 0.
    """
    k = 0.5 * (d + 1)

    def smooth(p):
        return math.expm1(k * math.log1p(-p * p)) * b / (b * b + p * p)

    points = [abs(b)] if abs(b) < 1.0 else None
    rest, _ = quad(smooth, 0.0, 1.0, points=points, epsabs=1e-15, epsrel=1e-13, limit=400)
    value = -0.25 * math.pi + math.atan(1.0 / b) + rest
    if b < 0.0:
        value += math.pi * (b * b + 1.0) ** k
    return value


def check_l2(d, b, value):
    want = l2_bracket(d, b)
    got = value / boundary_prefactor(d)
    if abs(got - want) > L2_RTOL * max(1.0, abs(want)):
        return [f"l2({d}, {b!r}) = {value!r}; reference/c_d {want!r}, got/c_d {got!r}"]
    return []


def check_i_b_integral(d, b, value):
    """Lemma identity c_d (int I_b + pi (b^2 + 1)^((d+1)/2) [b < 0]) = l2(d, b) (criterion 2)."""
    total = value + (math.pi * (b * b + 1.0) ** (0.5 * (d + 1)) if b < 0.0 else 0.0)
    gap = abs(boundary_prefactor(d) * (total - l2_bracket(d, b)))
    if gap > LEMMA_ATOL:
        return [f"i_b_integral({d}, {b!r}) = {value!r} misses the l2 lemma identity by {gap:.3e}"]
    return []


def bruteforce(box, h):
    """Trace and tuple count by summing (1 - h^2 sum lambda)_+ over the product spectrum.

    Slabs of rows (partial sums over all axes but the last) meet the last
    axis; a partial sum that already exceeds the cutoff with every later
    axis at its minimum is skipped, since each of its completions
    contributes zero. Where the whole product fits in
    memory, riesz.trace_bruteforce must agree as well.
    """
    spectra = [np.sort(s) for s in riesz.axis_spectra(box, h)]
    cutoff = h**-2
    slack = cutoff * (1.0 + 1e-9)
    first, last = spectra[0], spectra[-1]
    mid = np.zeros(1)
    for spec in spectra[1:-1]:
        mid = (mid[:, None] + spec[None, :]).ravel()
        mid = mid[mid + first[0] + last[0] <= slack]
    mid.sort()
    sums = []
    count = 0
    for x in first:
        keep = mid[: int(np.searchsorted(mid, slack - x - last[0], side="right"))]
        for i in range(0, keep.size, SLAB_ROWS):
            rows = x + keep[i:i + SLAB_ROWS]
            width = int(np.searchsorted(last, slack - rows[0], side="right"))
            block = rows[:, None] + last[None, :width]
            vals = 1.0 - h * h * block
            vals = vals[vals > 0.0]
            sums.append(float(vals.sum()))
            count += vals.size
    trace = math.fsum(sums)
    problems = []
    if math.prod(s.size for s in spectra) <= FULL_PRODUCT_MAX:
        reference = riesz.trace_bruteforce(box, h)
        if abs(reference - trace) > TRACE_RTOL * abs(reference):
            problems.append(f"slab sum {trace!r} disagrees with trace_bruteforce {reference!r}")
    return trace, count, problems


def fd_problems(iv):
    """Lowest FD_EIGS eigenvalues against Richardson-extrapolated finite differences.

    Two extrapolations (levels 1-2 and 2-3, criterion 4's recipe) give the
    oracle and its own error estimate; deep bound states with |c| delta
    near 1 are resolved only to that estimate, the rest to FD_RTOL.
    """
    levels = [fd_oracle(iv, n, FD_EIGS) for n in FD_LEVELS]
    coarse = [(4.0 * f - c) / 3.0 for c, f in zip(levels[0], levels[1])]
    fine = [(4.0 * f - c) / 3.0 for c, f in zip(levels[1], levels[2])]
    lam_max = fine[-1] + 0.5 * (fine[-1] - fine[-2]) + 1.0
    got = enumerate_eigenvalues(iv, lam_max).eigenvalues
    if len(got) < FD_EIGS:
        return [f"{iv}: {len(got)} eigenvalues below {lam_max!r}, the FD oracle has {FD_EIGS}"]
    problems = []
    for n, (value, want, rough) in enumerate(zip(got, fine, coarse)):
        tol = FD_RTOL * max(1.0, abs(want)) + abs(want - rough)
        if abs(value - want) > tol:
            problems.append(f"{iv}: eigenvalue {n} = {value!r}, FD oracle {want!r} +- {tol:.2e}")
    return problems


def parse_sweep_csv(text):
    """(columns, rows as dicts of strings, fit document) of a ``sweep`` CSV."""
    fit = None
    rows = []
    columns = None
    for line in text.splitlines():
        if line.startswith("# fit = "):
            fit = json.loads(line[len("# fit = "):])
        elif line and not line.startswith("#"):
            if columns is None:
                columns = line.split(",")
            else:
                rows.append(dict(zip(columns, line.split(","))))
    return columns, rows, fit


class SweepOracle:
    """Oracles for one sweep operation, computed once per run from its inputs."""

    def __init__(self, sweep):
        self.sweep = sweep
        h = sweep.hs[0]
        b = sweep.realized_b(h)
        box = BoxDomain.uniform(sweep.sides, b)
        self.trace, self.count, self.problems = bruteforce(box, h)
        for side in sweep.sides:
            self.problems += fd_problems(RobinInterval(side, b / h, b / h))

    def check(self, text):
        sweep = self.sweep
        problems = list(self.problems)
        columns, rows, fit = parse_sweep_csv(text)
        if fit is None or columns is None or len(rows) != len(sweep.hs):
            return problems + [f"{sweep.label}: malformed CSV ({len(rows)} rows, fit={fit is not None})"]
        d = len(sweep.sides)
        volume = math.prod(sweep.sides)
        last_count = last_trace = None
        for want_h, row in zip(sweep.hs, rows):
            h = float(row["h"])
            trace, weyl = float(row["trace"]), float(row["weyl"])
            boundary, remainder = float(row["boundary"]), float(row["remainder"])
            count = int(row["eig_count"])
            if h != want_h:
                problems.append(f"{sweep.label}: row h {h!r}, requested {want_h!r}")
                continue
            want_weyl = weyl_constant(d) * volume * h ** (-d)
            if abs(weyl - want_weyl) > 1e-12 * want_weyl:
                problems.append(f"{sweep.label} h={h!r}: weyl {weyl!r}, closed form {want_weyl!r}")
            if abs(remainder - (trace - weyl - boundary)) > 1e-12 * abs(trace):
                problems.append(f"{sweep.label} h={h!r}: remainder != trace - weyl - boundary")
            if row["kroger_ok"] != "true" or not _kroger_holds(sweep, h, trace):
                problems.append(f"{sweep.label} h={h!r}: Kroger bound fails or is misreported")
            if last_count is not None and not (count > last_count and trace > last_trace):
                problems.append(f"{sweep.label} h={h!r}: eig_count or trace not increasing as h falls")
            last_count, last_trace = count, trace
        top = rows[0]
        if abs(float(top["trace"]) - self.trace) > TRACE_RTOL * abs(self.trace):
            problems.append(f"{sweep.label} h={sweep.hs[0]!r}: trace {top['trace']}, "
                            f"brute force {self.trace!r}")
        if int(top["eig_count"]) != self.count:
            problems.append(f"{sweep.label} h={sweep.hs[0]!r}: eig_count {top['eig_count']}, "
                            f"brute force {self.count}")
        return problems


def _kroger_holds(sweep, h, trace):
    """Independent evaluation of the sharp lower bound the CLI certifies."""
    d = len(sweep.sides)
    lam = h**-2
    volume = math.prod(sweep.sides)
    c_integral = sum(2.0 * volume / s for s in sweep.sides) * sweep.realized_b(h) / h
    rhs = (weyl_constant(d) * volume * lam ** (1.0 + 0.5 * d)
           - unit_ball_volume(d) * (2.0 * math.pi) ** (-d) * c_integral * lam ** (0.5 * d))
    lhs = trace * lam
    return lhs >= rhs - 1e-10 * max(1.0, abs(lhs), abs(rhs))
