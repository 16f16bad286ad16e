"""Finite-difference reference solver on the disc."""

import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fredholm import fd
from fredholm.cli import main
from fredholm.errors import DomainError, ValidationError
from fredholm.fd import MAX_NODES, solve_fd


def _cos2(t):
    return 1.0 + np.cos(2.0 * t)


def _exact(r, t):
    return 1.0 + r ** 2 * np.cos(2.0 * t)


def _max_err(sol):
    ex = _exact(sol.radii[:, None], sol.theta[None, :])
    return max(float(np.max(np.abs(sol.values - ex))), abs(sol.center - 1.0))


# Reference: the sparse 5-point system the direct solve must reproduce.
def _assemble(nr: int, nt: int, f: np.ndarray):
    """Sparse 5-point system over (nr-1)*nt ring unknowns + 1 center."""
    dr = 1.0 / nr
    dth = 2.0 * np.pi / nt
    n_unknowns = (nr - 1) * nt + 1
    ic = n_unknowns - 1

    i = np.arange(1, nr)
    r = i * dr
    crp = 1.0 / dr ** 2 + 1.0 / (2.0 * r * dr)
    crm = 1.0 / dr ** 2 - 1.0 / (2.0 * r * dr)
    ct = 1.0 / (r * dth) ** 2
    dg = -(2.0 / dr ** 2 + 2.0 / (r * dth) ** 2)

    ii, jj = np.meshgrid(i, np.arange(nt), indexing="ij")
    k = ((ii - 1) * nt + jj).ravel()
    ii = ii.ravel()
    jj = jj.ravel()

    rows = [k, k, k]
    cols = [k,
            ((ii - 1) * nt + (jj - 1) % nt),
            ((ii - 1) * nt + (jj + 1) % nt)]
    vals = [np.repeat(dg, nt), np.repeat(ct, nt), np.repeat(ct, nt)]

    b = np.zeros(n_unknowns)
    outward = ii < nr - 1
    rows.append(k[outward])
    cols.append((ii[outward] * nt + jj[outward]))
    vals.append(np.repeat(crp, nt)[outward])
    at_boundary = ~outward
    b[k[at_boundary]] = -np.repeat(crp, nt)[at_boundary] * f[jj[at_boundary]]

    inward = ii > 1
    rows.append(k[inward])
    cols.append(((ii[inward] - 2) * nt + jj[inward]))
    vals.append(np.repeat(crm, nt)[inward])
    at_center = ~inward
    rows.append(k[at_center])
    cols.append(np.full(at_center.sum(), ic))
    vals.append(np.repeat(crm, nt)[at_center])

    # center closure: u_c - mean(first ring) = 0
    rows.append(np.concatenate(([ic], np.full(nt, ic))))
    cols.append(np.concatenate(([ic], np.arange(nt))))
    vals.append(np.concatenate(([1.0], np.full(nt, -1.0 / nt))))

    a = sp.coo_matrix(
        (np.concatenate(vals),
         (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_unknowns, n_unknowns)).tocsr()
    return a, b


@pytest.mark.parametrize("nr,nt", [(16, 16), (32, 64), (64, 9)])
def test_direct_solve_matches_sparse_reference(nr, nt):
    def data(t):
        return 1.0 + np.cos(2.0 * t) + 0.3 * np.sin(5.0 * t)

    sol = solve_fd(data, nr, nt)
    a, b = _assemble(nr, nt, data(np.arange(nt) * (2.0 * np.pi / nt)))
    ref = spla.spsolve(a.tocsc(), b)
    x = np.append(sol.values.ravel(), sol.center)
    assert float(np.max(np.abs(x - ref))) <= 1e-10
    assert sol.residual <= 1e-12
    assert sol.iterations == 0

    # the stencil oracle equals the sparse residual, also far from a solution
    def sparse_residual(v):
        return float(np.max(np.abs(a @ v - b)) / np.max(np.abs(b)))

    assert sol.residual == pytest.approx(sparse_residual(x), abs=1e-13)
    y = x + np.random.default_rng(0).standard_normal(x.shape)
    f = data(sol.theta)
    stencil = fd._residual(y[:-1].reshape(nr - 1, nt), y[-1], f,
                           fd._coefficients(nr, nt))
    assert stencil == pytest.approx(sparse_residual(y), rel=1e-12)


def _thomas(sub, diag, sup, rhs):
    """General Thomas elimination of tridiagonal systems along axis 0, one
    per column, with a full right-hand side ``rhs``: the reference the
    solve's rim-only sweep must match bit for bit."""
    cp = np.empty_like(diag)
    x = np.empty_like(rhs)
    cp[0] = sup[0] / diag[0]
    x[0] = rhs[0] / diag[0]
    for i in range(1, diag.shape[0]):
        pivot = diag[i] - sub[i] * cp[i - 1]
        cp[i] = sup[i] / pivot
        x[i] = (rhs[i] - sub[i] * x[i - 1]) / pivot
    for i in range(diag.shape[0] - 2, -1, -1):
        x[i] -= cp[i] * x[i + 1]
    return x


@pytest.mark.parametrize("nr,nt", [(8, 8), (60, 64), (101, 37), (200, 200)])
def test_rim_sweep_matches_the_general_elimination(monkeypatch, nr, nt):
    calls = []
    sweep = fd._rim_sweep
    monkeypatch.setattr(fd, "_rim_sweep",
                        lambda *args: calls.append(args) or sweep(*args))
    # every Fourier mode of this data is nonzero
    solve_fd(lambda t: np.exp(np.sin(3.0 * t)) + t, nr, nt)
    (sub, diag, sup, rim), = calls
    rhs = np.zeros(diag.shape, dtype=complex)
    rhs[-1] = rim
    assert np.array_equal(sweep(sub, diag, sup, rim),
                          _thomas(sub, diag, sup, rhs))


def test_constant_data_reproduced_exactly():
    sol = solve_fd(lambda t: np.ones(np.shape(t)), 32, 32)
    assert float(np.max(np.abs(sol.values - 1.0))) < 1e-9
    assert abs(sol.center - 1.0) < 1e-9


def test_second_order_convergence():
    errs = {n: _max_err(solve_fd(_cos2, n, n)) for n in (32, 64)}
    assert errs[32] == pytest.approx(2.36e-3, rel=0.05)
    assert 3.0 <= errs[32] / errs[64] <= 5.0


def test_fine_grids_second_order():
    errs = {}
    for n in (1000, 2000):
        sol = solve_fd(_cos2, n, n)
        assert sol.residual <= 1e-9
        errs[n] = _max_err(sol)
    assert errs[2000] <= 1e-6
    assert 3.0 <= errs[1000] / errs[2000] <= 5.0


def test_large_finite_data_does_not_overflow():
    sol = solve_fd(lambda t: np.full(np.shape(t), 1e306), 16, 16)
    assert np.all(np.isfinite(sol.values))
    assert float(np.max(np.abs(sol.values / 1e306 - 1.0))) <= 1e-9
    assert sol.center / 1e306 == pytest.approx(1.0, rel=1e-9)


def test_discrete_maximum_principle():
    sol = solve_fd(_cos2, 32, 32)
    lo, hi = 0.0, 2.0
    assert sol.values.min() >= lo - 1e-9
    assert sol.values.max() <= hi + 1e-9
    assert lo - 1e-9 <= sol.center <= hi + 1e-9


def test_center_equals_boundary_mean():
    # mean of 1 + cos(2 theta) over the circle is 1
    sol = solve_fd(_cos2, 32, 32)
    assert sol.center == pytest.approx(1.0, abs=1e-8)


def test_deterministic_repeat():
    a = solve_fd(_cos2, 16, 16)
    b = solve_fd(_cos2, 16, 16)
    assert np.array_equal(a.values, b.values)
    assert a.center == b.center
    assert a.iterations == b.iterations


def test_grid_properties():
    sol = solve_fd(_cos2, 16, 8)
    assert sol.values.shape == (15, 8)
    assert sol.theta[1] == pytest.approx(np.pi / 4.0)
    assert sol.radii[0] == pytest.approx(1.0 / 16.0)
    assert sol.theta[-1] == pytest.approx(2.0 * np.pi - np.pi / 4.0)


@pytest.mark.parametrize("nr,nt", [(4, 32), (32, 4)])
def test_coarse_grids_rejected(nr, nt):
    with pytest.raises(ValidationError):
        solve_fd(_cos2, nr, nt)


@pytest.mark.parametrize("nr,nt,name,bad", [
    (8.5, 8, "nr", 8.5), (8, 8.5, "nt", 8.5), (True, 8, "nr", True),
    (4, 32, "nr", 4), (32, 4, "nt", 4)])
def test_cell_counts_must_be_integers_before_the_data_is_sampled(nr, nt, name,
                                                                 bad):
    # 8.5 cells once solved silently on rings at i/8.5
    def data(t):
        raise AssertionError("boundary data evaluated")

    with pytest.raises(ValidationError) as exc:
        solve_fd(data, nr, nt)
    assert str(exc.value) == f"{name} must be an integer >= 8, got {bad!r}"


def test_compare_fd_refuses_a_coarse_grid_with_the_count_message(capsys):
    assert main(["compare-fd", "--nr", "4", "--nt", "4"]) == 2
    assert capsys.readouterr().err == (
        "error: nr must be an integer >= 8, got 4\n")


def test_oversized_grid_refused_before_data_is_evaluated(capsys):
    # 10**6 x 10**6 would need ~80 TB; the guard must fire first
    assert (10 ** 6 - 1) * 10 ** 6 > MAX_NODES

    def data(t):
        raise AssertionError("boundary data evaluated")

    with pytest.raises(ValidationError, match="limit"):
        solve_fd(data, 10 ** 6, 10 ** 6)
    assert main(["compare-fd", "--nr", "1000000", "--nt", "1000000"]) == 2
    assert "limit" in capsys.readouterr().err


def test_non_finite_boundary_rejected():
    with pytest.raises(DomainError) as exc:
        solve_fd(lambda t: np.where(t > 3.0, np.inf, 1.0), 16, 16)
    assert str(exc.value) == (
        f"boundary is not finite at node phi[8]={np.pi!r}: inf")


def test_solution_arrays_read_only():
    sol = solve_fd(_cos2, 16, 16)
    with pytest.raises(ValueError):
        sol.values[0, 0] = 1.0


def test_import_does_not_load_scipy():
    code = "import sys, fredholm; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"
