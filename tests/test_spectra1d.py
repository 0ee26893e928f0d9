import math

import numpy as np
import pytest

from robin_semiclassics.errors import EnumerationError
from robin_semiclassics.spectra1d import (
    RobinInterval,
    eigenvalue_bracket,
    enumerate_eigenvalues,
    fd_oracle,
    negative_eigenvalues,
    neumann_count,
    secular_negative,
    secular_positive,
)


def richardson(iv, n_eigs, n_grid=6000):
    coarse = fd_oracle(iv, n_grid, n_eigs)
    fine = fd_oracle(iv, 2 * n_grid, n_eigs)
    return [(4.0 * f - c) / 3.0 for c, f in zip(coarse, fine)]


def test_secular_positive_neumann_nodes():
    iv = RobinInterval(1.0, 0.0, 0.0)
    for n in range(1, 6):
        k = n * math.pi
        assert abs(secular_positive(iv, k)) < 1e-9 * k * k


def test_secular_negative_positive_coefficients_have_no_zeros():
    iv = RobinInterval(1.0, 1.0, 2.0)
    kappas = np.linspace(0.01, 10.0, 200)
    assert all(secular_negative(iv, k) > 0.0 for k in kappas)
    assert negative_eigenvalues(iv) == []


def test_neumann_spectrum_explicit():
    sp = enumerate_eigenvalues(RobinInterval(1.0, 0.0, 0.0), 100.0)
    expected = [0.0] + [(n * math.pi) ** 2 for n in (1, 2, 3)]
    assert len(sp.eigenvalues) == 4
    assert max(abs(a - b) for a, b in zip(sp.eigenvalues, expected)) < 1e-10


def test_deep_well_long_interval():
    # L = 10, c_left = -1: root at kappa = coth(10), lambda ~ -1 + O(e^-20)
    negs = negative_eigenvalues(RobinInterval(10.0, -1.0, 0.0))
    assert len(negs) == 1
    assert abs(negs[0] + 1.0) < 1e-4


def test_symmetric_well_root_count_threshold():
    # kappa coth(kappa L / 2) = gamma has a root only for gamma > 2/L, so
    # c = -1 on both ends of a unit interval binds a single state while
    # c = -3 binds two.
    assert len(negative_eigenvalues(RobinInterval(1.0, -1.0, -1.0))) == 1
    assert len(negative_eigenvalues(RobinInterval(1.0, -3.0, -3.0))) == 2
    fd = fd_oracle(RobinInterval(1.0, -1.0, -1.0), 4000, 3)
    assert fd[0] < 0.0 <= fd[1] + 1e-6
    fd = fd_oracle(RobinInterval(1.0, -3.0, -3.0), 4000, 3)
    assert fd[0] < fd[1] < 0.0 <= fd[2]


def test_deep_symmetric_pair_resolved():
    # c = -200 on both ends: nearly degenerate pair at lambda ~ -c^2.
    negs = negative_eigenvalues(RobinInterval(1.0, -200.0, -200.0))
    assert len(negs) == 2
    for lam in negs:
        assert abs(lam + 200.0**2) < 1.0


def test_zero_eigenvalue_condition():
    # c_l + c_r + c_l c_r L = 0 with (1, -0.5, L=1)
    sp = enumerate_eigenvalues(RobinInterval(1.0, 1.0, -0.5), 50.0)
    assert sp.eigenvalues[0] == 0.0
    sp = enumerate_eigenvalues(RobinInterval(1.0, 1.0, -0.5 + 1e-3), 50.0)
    assert 0.0 not in sp.eigenvalues


def test_antisymmetric_coefficients_spectrum_at_nodes():
    # c_r = -c_l: secular function reduces to (k^2 + c^2) sin(kL); the
    # positive spectrum is exactly the Dirichlet nodes plus one bound state.
    sp = enumerate_eigenvalues(RobinInterval(1.0, 2.0, -2.0), 100.0)
    assert abs(sp.eigenvalues[0] + 4.0) < 1e-10
    nodes = [(n * math.pi) ** 2 for n in (1, 2, 3)]
    assert max(abs(a - b) for a, b in zip(sp.eigenvalues[1:], nodes)) < 1e-10


CASES = [
    (1.0, 0.0, 0.0),
    (1.0, 1.0, 1.0),
    (1.0, -1.0, -1.0),
    (1.0, -3.0, -3.0),
    (1.0, 2.5, 0.0),
    (1.0, 0.0, -1.0),
    (1.0, 1.0, -1.0),
    (1.0, -2.0, 3.0),
    (math.sqrt(2.0), 5.0, 5.0),
    (0.75, -0.7, -2.3),
    (1.3, 0.3, 0.9),
    (2.0, -1.0, 0.0),
]


@pytest.mark.parametrize("length,cl,cr", CASES)
def test_enumerate_matches_fd_oracle(length, cl, cr):
    iv = RobinInterval(length, cl, cr)
    oracle = richardson(iv, 20)
    lam_max = oracle[-1] + 0.5 * (oracle[-1] - oracle[-2]) + 1.0
    sp = enumerate_eigenvalues(iv, lam_max)
    assert len(sp.eigenvalues) >= 20
    for got, want in zip(sp.eigenvalues[:20], oracle):
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want))
    assert abs(len(sp.eigenvalues) - neumann_count(length, lam_max)) <= 2


@pytest.mark.parametrize("length,cl,cr", [(1.0, 1.0, 1.0), (1.0, -2.0, 3.0), (0.75, -0.7, -2.3)])
def test_dirichlet_interlacing(length, cl, cr):
    sp = enumerate_eigenvalues(RobinInterval(length, cl, cr), 400.0)
    pos = [lam for lam in sp.eigenvalues if lam > 0.0]
    nodes = [(n * math.pi / length) ** 2 for n in range(1, 40)]
    for lo, hi in zip(pos[:-1], pos[1:]):
        inside = [nd for nd in nodes if lo < nd < hi]
        assert len(inside) == 1


def test_monotone_in_coefficients():
    base = enumerate_eigenvalues(RobinInterval(1.0, -1.0, 0.5), 300.0).eigenvalues
    raised = enumerate_eigenvalues(RobinInterval(1.0, -0.5, 0.5), 300.0).eigenvalues
    for lo, hi in zip(base, raised):
        assert hi >= lo - 1e-10


def test_counting_stability_across_cutoffs():
    iv = RobinInterval(1.0, -3.0, 2.0)
    for lam in (5.0, 50.0, 137.0, 400.0):
        sp = enumerate_eigenvalues(iv, lam)
        n_robin = len(sp.eigenvalues)
        assert abs(n_robin - neumann_count(1.0, lam)) <= 2


def test_fd_oracle_neumann_accuracy():
    vals = fd_oracle(RobinInterval(1.0, 0.0, 0.0), 10000, 2)
    assert abs(vals[0]) < 1e-6
    assert abs(vals[1] - math.pi**2) < 1e-3 * math.pi**2


def test_fd_oracle_perturbative_ground_state():
    # lambda_0 ~ (c_l + c_r)/L for small c; c = 1e-3 on both ends
    vals = fd_oracle(RobinInterval(1.0, 1e-3, 1e-3), 4000, 1)
    assert abs(vals[0] - 2e-3) <= 0.05 * 2e-3


def test_fd_oracle_second_order_convergence():
    iv = RobinInterval(1.0, 1.0, 1.0)
    errs = []
    exact = richardson(iv, 3, n_grid=12000)[2]
    for n in (500, 1000, 2000):
        errs.append(abs(fd_oracle(iv, n, 3)[2] - exact))
    assert 3.0 < errs[0] / errs[1] < 5.0
    assert 3.0 < errs[1] / errs[2] < 5.0


def test_validation_errors():
    with pytest.raises(ValueError):
        RobinInterval(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        RobinInterval(1.0, math.nan, 0.0)
    with pytest.raises(ValueError):
        fd_oracle(RobinInterval(1.0, 0.0, 0.0), 50, 1)
    with pytest.raises(ValueError):
        fd_oracle(RobinInterval(1.0, 0.0, 0.0), 100, 500)
    with pytest.raises(ValueError):
        secular_positive(RobinInterval(1.0, 0.0, 0.0), -1.0)
    with pytest.raises(ValueError):
        enumerate_eigenvalues(RobinInterval(1.0, 0.0, 0.0), math.inf)


def test_negative_cutoff_returns_only_deep_states():
    iv = RobinInterval(1.0, -3.0, -3.0)
    sp = enumerate_eigenvalues(iv, -5.0)
    assert all(lam <= -5.0 for lam in sp.eigenvalues)
    assert sp.certificate.n_positive == 0


@pytest.mark.parametrize("length,cl,cr", [(1.0, 0.0, 0.0), (1.0, -3.0, -3.0), (1.3, -2.0, 0.7)])
def test_eigenvalues_lie_in_their_brackets(length, cl, cr):
    iv = RobinInterval(length, cl, cr)
    for lam in enumerate_eigenvalues(iv, 400.0).eigenvalues:
        lo, hi = eigenvalue_bracket(iv, lam)
        assert lo <= lam <= hi, (lam, lo, hi)
