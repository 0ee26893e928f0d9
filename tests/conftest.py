import math
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


def secular_positive(iv, k):
    """(k^2 - c_l c_r) sin(kL) - k (c_l + c_r) cos(kL); zeros are lambda = k^2.

    The secular equation of the interval, an oracle independent of the phase
    the solver uses.
    """
    if k <= 0.0:
        raise ValueError(f"need k > 0, got {k}")
    kl = k * iv.length
    return (k * k - iv.c_left * iv.c_right) * math.sin(kl) - k * (iv.c_left + iv.c_right) * math.cos(kl)


def neumann_count(length, lam_max):
    """Counting function of the Neumann interval: #{n >= 0 : (n pi / L)^2 <= lam}."""
    if lam_max < 0.0:
        return 0
    return 1 + int(math.floor(math.sqrt(lam_max) * length / math.pi * (1.0 + 1e-15)))
