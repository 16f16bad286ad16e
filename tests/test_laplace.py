"""Boundary integral equation on the unit disc and potential evaluation."""

import math
import tracemalloc

import numpy as np
import pytest

from fredholm.cli import run_example
from fredholm.errors import DomainError, ValidationError
from fredholm.grid import uniform_grid
from fredholm.laplace import (build_bie, evaluate_potential,
                              projected_potential)
from fredholm.network import SolutionField, build_network, forward
from fredholm.operator import KMSchedule, estimate_contraction

TWO_PI = 2.0 * math.pi


def _solve_density(boundary, n, layers):
    """The density: the forward pass of the network over build_bie."""
    op = build_bie(boundary, n)
    return forward(build_network(op, layers, KMSchedule(2.0 / 3.0)))


def _given_density(values):
    """A density field with the given values on the theta grid."""
    values = np.asarray(values, dtype=float)
    grid = uniform_grid(0.0, TWO_PI, len(values))
    return SolutionField(grid=grid, values=values)


def _density(n=2000, layers=15):
    return _solve_density(lambda t: 1.0 + 2.0 * np.cos(2.0 * t), n, layers)


def test_bie_matrix_is_constant():
    op = build_bie(lambda t: np.cos(t), 4)
    assert np.allclose(op.matrix, -0.25, rtol=1e-14, atol=0)
    big = build_bie(lambda t: np.cos(t), 2000)
    assert np.allclose(big.matrix, -0.0005, rtol=1e-13, atol=0)
    # the row sums make the operator non-expansive but not a contraction
    assert estimate_contraction(big) == pytest.approx(1.0, rel=1e-12)


def test_bie_source_doubles_boundary_data():
    op = build_bie(lambda t: 1.0 + 2.0 * np.cos(2.0 * t), 8)
    assert op.source[0] == 6.0
    th = op.grid.nodes
    assert np.array_equal(op.source, 2.0 * (1.0 + 2.0 * np.cos(2.0 * th)))


def test_density_matches_harmonic_law():
    den = _density()
    th = den.grid.nodes
    expected = 1.0 + 4.0 * np.cos(2.0 * th)
    assert float(np.max(np.abs(den.values - expected))) < 1e-6


def test_density_constant_data():
    den = _solve_density(lambda t: np.full(np.shape(t), 0.7), 500, 20)
    assert np.allclose(den.values, 0.7, rtol=0, atol=1e-8)


def test_density_zero_data_is_exactly_zero():
    den = _solve_density(lambda t: np.zeros(np.shape(t)), 64, 10)
    assert np.array_equal(den.values, np.zeros(64))


def test_projected_potential_term():
    den = _given_density(np.ones(64))
    assert projected_potential(den) == pytest.approx(0.5, rel=1e-12)


def test_unit_density_gives_unit_potential_exactly():
    den = _given_density(np.ones(64))
    _, _, values = evaluate_potential(den, [(0.3, 1.1), (0.0, 0.0),
                                            (1.0, 2.0), (0.999, 4.0)])
    assert np.array_equal(values, np.ones(4))


def test_potential_returns_queries_with_wrapped_angles():
    r, phi, _ = evaluate_potential(_given_density(np.ones(8)),
                                   [(0.5, -1.0), (1.0, 7.0)])
    assert np.array_equal(r, [0.5, 1.0])
    assert np.array_equal(phi, np.mod([-1.0, 7.0], TWO_PI))


def test_center_value_is_density_mean():
    den = _density(n=400, layers=15)
    _, _, values = evaluate_potential(den, [(0.0, 0.0)])
    assert float(values[0]) == pytest.approx(float(np.mean(den.values)),
                                             abs=1e-12)


def test_origin_projection_independent_of_angle():
    den = _density(n=200, layers=12)
    a = evaluate_potential(den, [(0.0, 0.0)])
    b = evaluate_potential(den, [(0.0, 2.5)])
    assert a[2][0] == b[2][0]


def test_boundary_identity_half_density_plus_projection():
    den = _density()
    th = den.grid.nodes
    f = 1.0 + 2.0 * np.cos(2.0 * th)
    ident = 0.5 * den.values + projected_potential(den)
    assert float(np.max(np.abs(ident - f))) < 1e-6


def test_boundary_queries_use_degenerate_branch():
    den = _density(n=500, layers=15)
    th0 = den.grid.nodes[17]
    _, _, values = evaluate_potential(den, [(1.0, th0)])
    expected = 0.5 * den.values[17] + projected_potential(den)
    assert float(values[0]) == pytest.approx(expected, rel=1e-13)


def test_potential_is_harmonic_probe():
    den = _density()

    def u_at(x, y):
        r = math.hypot(x, y)
        phi = math.atan2(y, x)
        return float(evaluate_potential(den, [(r, phi)])[2][0])

    h = 0.02
    for x, y in [(0.3, 0.2), (0.5, -0.1), (0.1, 0.6), (-0.4, 0.3),
                 (0.0, 0.0)]:
        lap = (u_at(x + h, y) + u_at(x - h, y) + u_at(x, y + h)
               + u_at(x, y - h) - 4.0 * u_at(x, y)) / h ** 2
        assert abs(lap) < 1e-8


def test_evaluate_potential_validation():
    den = _density(n=64, layers=5)
    with pytest.raises(ValidationError):
        evaluate_potential(den, [(1.5, 0.0)])
    with pytest.raises(ValidationError):
        evaluate_potential(den, [(0.5, float("nan"))])
    with pytest.raises(ValidationError):
        evaluate_potential(den, np.zeros((2, 3)))
    with pytest.raises(ValidationError, match=r"must be \(r, phi\) pairs"):
        evaluate_potential(den, (0.5, 0.0))


def test_evaluate_potential_refuses_bad_density():
    grid = _given_density(np.ones(8)).grid
    for values in (np.ones(5), np.full(8, np.nan)):
        with pytest.raises(ValidationError, match="density"):
            evaluate_potential(SolutionField(grid=grid, values=values),
                               [(0.5, 0.0)])


def test_problem_validation():
    with pytest.raises(ValidationError, match="theta_n 1 must be >= 2"):
        build_bie(lambda t: t, 1)


def _random_density(n, seed=0):
    return _given_density(np.random.default_rng(seed).uniform(-2.0, 2.0, n))


def _dense_potential(density, queries):
    """The smoothed sum over full P x N arrays: the reference that the
    blocked scan in evaluate_potential must match bit for bit."""
    q = np.asarray(queries, dtype=float)
    r, phi = q[:, 0], np.mod(q[:, 1], TWO_PI)
    th, mu = density.grid.nodes, density.values
    mu_star = np.interp(np.where(r == 0.0, 0.0, phi), np.append(th, TWO_PI),
                        np.append(mu, mu[0]))
    values = 0.5 * mu_star + projected_potential(density)
    inner = r < 1.0
    ri = r[inner, None]
    c = np.cos(th[None, :] - phi[inner, None])
    k = (1.0 - ri * c) / (TWO_PI * (1.0 - 2.0 * ri * c + ri * ri))
    diff = mu[None, :] - mu_star[inner, None]
    values[inner] += ((diff * (k - 1.0 / (2.0 * TWO_PI))).sum(axis=1)
                      * density.grid.spacing)
    return values


def _query_sets():
    rng = np.random.default_rng(7)
    lattice = [(r, p) for r in np.linspace(0.0, 1.0, 21)
               for p in np.linspace(0.0, TWO_PI, 41)]
    distinct = np.column_stack([rng.uniform(0.0, 1.0, 861),
                                rng.permutation(np.linspace(-9.0, 9.0, 861))])
    # the same angle many times, and angles equal only after wrapping
    wrapped = [(rr, p) for rr in (0.2, 0.5, 0.9, 0.999)
               for p in (0.0, TWO_PI, -math.pi, math.pi, 1.0, 1.0,
                         1.0 + TWO_PI, -TWO_PI, 3.0 * math.pi)]
    mixed = np.column_stack([np.tile([0.0, 0.3, 1.0, 0.95, 1.0, 0.0], 12),
                             rng.uniform(-4.0, 4.0, 72)])
    sets = {"lattice": lattice, "distinct": distinct, "wrapped": wrapped,
            "mixed": mixed}
    for p in (1, 31, 32, 33, 65):
        sets[f"P{p}"] = np.column_stack([rng.uniform(0.0, 1.0, p),
                                         rng.uniform(0.0, TWO_PI, p)])
    return sets


@pytest.mark.parametrize("theta_n", [64, 2000])
@pytest.mark.parametrize("name", sorted(_query_sets()))
def test_blocked_potential_matches_dense_reference(theta_n, name):
    den = _random_density(theta_n)
    queries = _query_sets()[name]
    _, _, values = evaluate_potential(den, queries)
    assert np.array_equal(values, _dense_potential(den, queries))


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_potential_scan_holds_a_few_row_blocks():
    # a P x N formula would hold about four P x N blocks
    p, n = 861, 2000
    den = _random_density(n)
    queries = np.column_stack([np.random.default_rng(3).uniform(0, 1, p),
                               np.linspace(0.0, 20.0, p)])
    assert _peak_bytes(lambda: evaluate_potential(den, queries)) <= (
        0.1 * p * n * 8)
    # the whole example stays within the kernel matrix's own budget
    assert _peak_bytes(lambda: run_example("laplace_disc")) <= 1.25 * n * n * 8


def test_singular_query_in_a_later_block_raises():
    den = _random_density(64)
    th5 = float(den.grid.nodes[5])
    # 40 smaller angles put it in the second block of the angle order
    queries = [(0.5, p) for p in np.linspace(0.0, th5, 40, endpoint=False)]
    queries.append((float(np.nextafter(1.0, 0.0)), th5))
    with pytest.raises(DomainError, match="kernel evaluated exactly at its "
                                          "boundary singularity"):
        evaluate_potential(den, queries)
