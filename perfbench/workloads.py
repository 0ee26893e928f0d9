"""Seeded workload inputs and the operations that run them.

Every value below is a seed default. ``build(name, seed)`` jitters each
side, Robin coefficient, regime exponent and h by a uniform factor in
[1 - BAND, 1 + BAND], so the workload keeps its shape and cost while the
program sees inputs it was not tuned on. The program receives only the
generated numbers.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import time
from dataclasses import dataclass

from robin_semiclassics import cli, coeffs, halfline

BAND = 0.005

RECTANGLE = (1.0, math.sqrt(2.0))
BOX4D = (1.0, math.sqrt(2.0), math.sqrt(3.0), math.sqrt(5.0))
H_2D = (1e-3, 2e-4, 4e-5, 2e-5)
H_LARGE = (1e-3, 2e-4, 1e-4, 5e-5)
H_4D = (3e-3, 2.5e-3, 2e-3, 1.5e-3)
L2_DIMS = tuple(range(2, 9))
L2_MAGNITUDES = (1e-9, 1e-6, 1e-3, 0.1, 1.0, 10.0, 1e3, 1e5)
# l2 raises QuadratureError at |b| = 1e-9 for every d, but only at some
# nearby values, so this probe of the known domain hole is not jittered:
# every seed then counts the same 14 failures.
L2_DOMAIN_HOLE = 1e-9
IB_COUPLINGS = (-0.1, -0.5, 0.5, 2.0)

WHY = {
    "sweep2d": "paper's headline 2-D sweep in fixed b=+1, fixed b=-1 and small regimes; "
               "spectra1d brackets dominate, riesz is light, halfline is absent",
    "sweep2d_large": "large regime: partner bound states inflate per-axis cutoffs, "
                     "about 8x the 1-D roots of sweep2d at equal h, mostly above h^-2",
    "box4d": "4-D box: the riesz pair reduction, sort and memory dominate "
             "while spectra1d is minor",
    "constants": "only workload calling coeffs.l2, quadrature and halfline.i_b_integral; "
                 "keeps the l2 |b|=1e-9 domain hole visible as failures",
}
NAMES = tuple(WHY)


@dataclass(frozen=True)
class Sweep:
    """One ``sweep`` CLI call; ``exponent`` is s (small) or gamma (large)."""

    label: str
    sides: tuple
    regime: str
    b0: float
    exponent: float
    hs: tuple

    def argv(self):
        argv = ["sweep", "--sides", ",".join(map(repr, self.sides)), "--regime", self.regime,
                "--b0", repr(self.b0), "--h", ",".join(map(repr, self.hs)), "--timings"]
        if self.regime == "small":
            argv += ["--s", repr(self.exponent)]
        elif self.regime == "large":
            argv += ["--gamma", repr(self.exponent)]
        return argv

    def realized_b(self, h):
        if self.regime == "small":
            return h**self.exponent * self.b0
        if self.regime == "large":
            return h**-self.exponent * self.b0
        return self.b0

    def run(self):
        out = io.StringIO()
        err = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(self.argv())
            except Exception as exc:  # an escaped exception is a failed operation
                return OpResult(None, f"{type(exc).__name__}: {exc}")
        if code != 0:
            return OpResult(None, f"exit code {code}: {err.getvalue().strip()}")
        return OpResult(out.getvalue(), None)


@dataclass(frozen=True)
class L2:
    d: int
    b: float
    label: str = "l2"

    def run(self):
        try:
            return OpResult(coeffs.l2(self.d, self.b).value, None)
        except Exception as exc:
            return OpResult(None, f"{type(exc).__name__}: {exc}")


@dataclass(frozen=True)
class IbIntegral:
    b: float
    label: str = "i_b_integral"
    d: int = 2

    def run(self):
        try:
            return OpResult(halfline.i_b_integral(self.d, self.b), None)
        except Exception as exc:
            return OpResult(None, f"{type(exc).__name__}: {exc}")


@dataclass(frozen=True)
class OpResult:
    """``output`` is the CSV text or the returned number; ``error`` is set when the call failed."""

    output: object
    error: str | None
    seconds: float = 0.0
    start: float = 0.0  # perf_counter at the call


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple
    frontier_index: int  # the operation holding the most expensive point
    probe: str = "spin"  # the speed.PROBES entry whose work is most like this workload's

    def frontier_seconds(self, results):
        """Seconds of the single most expensive operation in one pass.

        For a sweep this is the CLI's --timings column at the smallest h;
        a failed operation counts with the seconds it ran before failing.
        """
        res = results[self.frontier_index]
        if res.error is not None or not isinstance(self.ops[self.frontier_index], Sweep):
            return res.seconds
        last_row = [line for line in res.output.splitlines() if line and line[0] != "#"][-1]
        return float(last_row.rsplit(",", 1)[1])

    def frontier_interval(self, results):
        """(start, end) perf_counter times of the frontier: the last point of a sweep ends its call."""
        res = results[self.frontier_index]
        end = res.start + res.seconds
        return end - self.frontier_seconds(results), end


def timed(op):
    start = time.perf_counter()
    res = op.run()
    return OpResult(res.output, res.error, time.perf_counter() - start, start)


def build(name, seed):
    rng = random.Random(f"{name}:{seed}")

    def j(x):
        return x * (1.0 + BAND * rng.uniform(-1.0, 1.0))

    def hs(grid):
        return tuple(sorted((j(h) for h in grid), reverse=True))

    if name == "sweep2d":
        sides = tuple(j(s) for s in RECTANGLE)
        ops = (Sweep("fixed_b+1", sides, "fixed", j(1.0), 0.0, hs(H_2D)),
               Sweep("fixed_b-1", sides, "fixed", j(-1.0), 0.0, hs(H_2D)),
               Sweep("small_s0.5", sides, "small", j(1.0), j(0.5), hs(H_2D)))
        # fixed b0 = -1 carries the slowest smallest-h point (about 1.2 s against <= 1 s).
        return Workload(name, ops, 1, "brent")
    if name == "sweep2d_large":
        sides = tuple(j(s) for s in RECTANGLE)
        return Workload(name, (Sweep("large_g0.25", sides, "large", j(-1.0), j(0.25),
                                     hs(H_LARGE)),), 0, "brent")
    if name == "box4d":
        sides = tuple(j(s) for s in BOX4D)
        return Workload(name, (Sweep("fixed_b+1", sides, "fixed", j(1.0), 0.0, hs(H_4D)),), 0,
                        "churn")
    if name == "constants":
        ops = [L2(d, sign * (m if m == L2_DOMAIN_HOLE else j(m)))
               for d in L2_DIMS for sign in (1.0, -1.0) for m in L2_MAGNITUDES]
        ops += [IbIntegral(j(b)) for b in IB_COUPLINGS]
        return Workload(name, tuple(ops), len(ops) - len(IB_COUPLINGS))
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
