"""Boundary integral equation on the unit disc and potential evaluation."""

import math

import numpy as np
import pytest

from fredholm.errors import DomainError, ValidationError
from fredholm.laplace import (BoundaryDensity, DiscBoundaryProblem, build_bie,
                              evaluate_potential, polar_double_layer_kernel)
from fredholm.network import build_network, forward
from fredholm.operator import KMSchedule, estimate_contraction

TWO_PI = 2.0 * math.pi


def _solve_density(boundary, n, layers):
    """The density through build_bie, the network and its forward pass."""
    op = build_bie(DiscBoundaryProblem(boundary=boundary, theta_n=n))
    field = forward(build_network(op, layers, KMSchedule(2.0 / 3.0)))
    return BoundaryDensity(grid=op.grid, values=field.values.copy())


def _density(n=2000, layers=15):
    return _solve_density(lambda t: 1.0 + 2.0 * np.cos(2.0 * t), n, layers)


def test_kernel_spot_values():
    k = polar_double_layer_kernel
    assert float(k(0.0, 0.0, 1.3)) == pytest.approx(1.0 / TWO_PI, rel=1e-15)
    assert float(k(1.0, 0.0, math.pi)) == pytest.approx(1.0 / (2.0 * TWO_PI),
                                                        rel=1e-14)
    assert float(k(0.5, 0.0, 0.0)) == pytest.approx(1.0 / math.pi, rel=1e-14)


def test_kernel_boundary_singularity():
    with pytest.raises(DomainError):
        polar_double_layer_kernel(1.0, 0.7, 0.7)


def test_kernel_radius_validated():
    with pytest.raises(ValidationError):
        polar_double_layer_kernel(1.2, 0.0, 0.0)
    with pytest.raises(ValidationError):
        polar_double_layer_kernel(-0.1, 0.0, 0.0)


def test_kernel_broadcasts():
    r = np.array([[0.0], [0.5]])
    th = np.array([0.0, 1.0, 2.0])
    out = polar_double_layer_kernel(r, 0.0, th)
    assert out.shape == (2, 3)
    assert np.allclose(out[0], 1.0 / TWO_PI)


def test_bie_matrix_is_constant():
    problem = DiscBoundaryProblem(boundary=lambda t: np.cos(t), theta_n=4)
    op = build_bie(problem)
    assert np.allclose(op.matrix, -0.25, rtol=1e-14, atol=0)
    big = build_bie(DiscBoundaryProblem(boundary=lambda t: np.cos(t),
                                        theta_n=2000))
    assert np.allclose(big.matrix, -0.0005, rtol=1e-13, atol=0)
    # the row sums make the operator non-expansive but not a contraction
    assert estimate_contraction(big) == pytest.approx(1.0, rel=1e-12)


def test_bie_source_doubles_boundary_data():
    problem = DiscBoundaryProblem(
        boundary=lambda t: 1.0 + 2.0 * np.cos(2.0 * t), theta_n=8)
    op = build_bie(problem)
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


def test_mean_weighted_projected_term():
    grid_problem = DiscBoundaryProblem(boundary=lambda t: np.ones(np.shape(t)),
                                       theta_n=64)
    den = BoundaryDensity(grid=grid_problem.grid, values=np.ones(64))
    assert den.mean_weighted == pytest.approx(0.5, rel=1e-12)


def test_unit_density_gives_unit_potential_exactly():
    problem = DiscBoundaryProblem(boundary=lambda t: np.ones(np.shape(t)),
                                  theta_n=64)
    den = BoundaryDensity(grid=problem.grid, values=np.ones(64))
    pot = evaluate_potential(den, [(0.3, 1.1), (0.0, 0.0), (1.0, 2.0),
                                   (0.999, 4.0)])
    assert np.array_equal(pot.values, np.ones(4))


def test_center_value_is_density_mean():
    den = _density(n=400, layers=15)
    pot = evaluate_potential(den, [(0.0, 0.0)])
    assert float(pot.values[0]) == pytest.approx(float(np.mean(den.values)),
                                                 abs=1e-12)


def test_origin_projection_independent_of_angle():
    den = _density(n=200, layers=12)
    a = evaluate_potential(den, [(0.0, 0.0)])
    b = evaluate_potential(den, [(0.0, 2.5)])
    assert a.values[0] == b.values[0]
    assert a.phi_star[0] == 0.0 and b.phi_star[0] == 0.0


def test_boundary_identity_half_density_plus_projection():
    den = _density()
    th = den.grid.nodes
    f = 1.0 + 2.0 * np.cos(2.0 * th)
    ident = 0.5 * den.values + den.mean_weighted
    assert float(np.max(np.abs(ident - f))) < 1e-6


def test_boundary_queries_use_degenerate_branch():
    den = _density(n=500, layers=15)
    th0 = den.grid.nodes[17]
    pot = evaluate_potential(den, [(1.0, th0)])
    expected = 0.5 * den.values[17] + den.mean_weighted
    assert float(pot.values[0]) == pytest.approx(expected, rel=1e-13)
    assert float(pot.mu_star[0]) == pytest.approx(den.values[17], rel=1e-13)


def test_potential_is_harmonic_probe():
    den = _density()

    def u_at(x, y):
        r = math.hypot(x, y)
        phi = math.atan2(y, x)
        return float(evaluate_potential(den, [(r, phi)]).values[0])

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


def test_density_container_validation():
    grid = DiscBoundaryProblem(boundary=lambda t: np.ones(np.shape(t)),
                               theta_n=8).grid
    with pytest.raises(ValidationError):
        BoundaryDensity(grid=grid, values=np.ones(5))
    with pytest.raises(ValidationError):
        BoundaryDensity(grid=grid, values=np.full(8, np.nan))


def test_problem_validation():
    with pytest.raises(ValidationError):
        DiscBoundaryProblem(boundary=lambda t: t, theta_n=1)
