"""Outer re-linearization loop for nonlinear integral equations."""

import math

import numpy as np
import pytest

from fredholm.errors import DomainError, ValidationError
from fredholm.grid import uniform_grid
from fredholm.network import build_network, forward
from fredholm.nonlinear import (IterationTrace, NonlinearProblem,
                                evaluate_nonlinear, linearized_source,
                                solve_nonlinear)
from fredholm.operator import KMSchedule, discretize


def _identity_problem(n=30):
    problem = NonlinearProblem(kernel=lambda x, z: 0.2,
                               source=lambda x: np.sin(x),
                               nonlinearity=lambda u: u, a=0.0, b=1.0)
    grid = uniform_grid(0.0, 1.0, n, scheme="left")
    return problem, grid


def _log_problem():
    """u = g + (1/36) I z u(z)^2 dz with solution log(x) + 1."""
    problem = NonlinearProblem(
        kernel=lambda x, z: z / 36.0,
        source=lambda x: np.log(x) + 143.0 / 144.0,
        nonlinearity=lambda u: u * u, a=0.0, b=1.0)
    grid = uniform_grid(0.0, 1.0, 1000, scheme="midpoint")
    return problem, grid


def test_linearized_source_identity_nonlinearity_is_noop():
    problem, grid = _identity_problem()
    base = discretize(problem.linear_problem(), grid)
    f = np.cos(grid.nodes)
    out = linearized_source(problem, base, f)
    assert np.array_equal(out, base.source)


def test_linearized_source_zero_iterate_quadratic():
    problem, grid = _identity_problem()
    problem = NonlinearProblem(kernel=problem.kernel, source=problem.source,
                               nonlinearity=lambda u: u * u, a=0.0, b=1.0)
    base = discretize(problem.linear_problem(), grid)
    out = linearized_source(problem, base, np.zeros(base.n))
    assert np.array_equal(out, base.source)


def test_linearized_source_shape_check():
    problem, grid = _identity_problem()
    base = discretize(problem.linear_problem(), grid)
    with pytest.raises(ValidationError):
        linearized_source(problem, base, np.zeros(base.n + 1))


def test_log_problem_exact_solution_is_discrete_fixed_point():
    # midpoint nodes avoid the x = 0 singularity of the source
    problem, grid = _log_problem()
    base = discretize(problem.linear_problem(), grid)
    f_exact = np.log(grid.nodes) + 1.0
    mapped = base.source + base.matrix @ (f_exact ** 2)
    assert float(np.max(np.abs(mapped - f_exact))) < 1e-6
    # quadrature identity behind the source constant: I z (log z + 1)^2 dz = 1/4
    quad = float(np.sum(grid.nodes * f_exact ** 2) * grid.spacing)
    assert abs(quad - 0.25) < 1e-5


def test_identity_nonlinearity_reduces_to_linear_solve():
    problem, grid = _identity_problem()
    base = discretize(problem.linear_problem(), grid)
    schedule = KMSchedule(1.0, contractive=True)
    linear = forward(build_network(base, 5, schedule))
    for outer in (1, 2, 3):
        field, trace = solve_nonlinear(problem, base, 5, schedule, outer)
        assert np.array_equal(field.values, linear.values)
        assert trace.deltas == (0.0,) * outer
        assert np.array_equal(trace.source, base.source)


def test_delta_tol_stops_early():
    problem, grid = _identity_problem()
    base = discretize(problem.linear_problem(), grid)
    field, trace = solve_nonlinear(problem, base, 5,
                                   KMSchedule(1.0, contractive=True),
                                   outer_iterations=6, delta_tol=1e-30)
    assert len(trace.deltas) == 1


def test_outer_iteration_count_validated():
    problem, grid = _identity_problem()
    base = discretize(problem.linear_problem(), grid)
    with pytest.raises(ValidationError):
        solve_nonlinear(problem, base, 5, KMSchedule(1.0, contractive=True), 0)


def test_outer_deltas_shrink_monotonically():
    problem = NonlinearProblem(
        kernel=lambda x, z: z / 36.0,
        source=lambda x: np.sin(x) + 1.0 - math.pi / 12.0
        - 5.0 * math.pi ** 2 / 144.0,
        nonlinearity=lambda u: u + u * u, a=0.0, b=math.pi)
    grid = uniform_grid(0.0, math.pi, 200, scheme="left")
    base = discretize(problem.linear_problem(), grid)
    _, trace = solve_nonlinear(problem, base, 7,
                               KMSchedule(1.0, contractive=True), 7)
    assert len(trace.deltas) == 7
    floor = 1e-13
    for a, b in zip(trace.deltas, trace.deltas[1:]):
        if a > floor:
            assert b < a


def test_final_iterate_is_consistent_fixed_point():
    problem, grid = _log_problem()
    base = discretize(problem.linear_problem(), grid)
    field, trace = solve_nonlinear(problem, base, 7,
                                   KMSchedule(1.0, contractive=True), 5)
    mapped = base.source + base.matrix @ (field.values ** 2)
    drift = float(np.max(np.abs(mapped - field.values)))
    assert drift <= max(trace.deltas[-1], 1e-13) * 10.0 + 1e-10


def test_nonlinearity_domain_violation_names_node():
    problem = NonlinearProblem(
        kernel=lambda x, z: 0.1,
        source=lambda x: np.full(np.shape(x), -1.0),
        nonlinearity=lambda u: np.sqrt(u), a=0.0, b=1.0)
    base = discretize(problem.linear_problem(),
                      uniform_grid(0.0, 1.0, 10, scheme="left"))
    with pytest.raises(DomainError) as exc:
        solve_nonlinear(problem, base, 4, KMSchedule(1.0, contractive=True), 3)
    assert "node" in str(exc.value)
    assert "source update" in str(exc.value)


def test_evaluate_nonlinear_zero_kernel_is_source():
    problem = NonlinearProblem(kernel=lambda x, z: 0.0,
                               source=lambda x: np.exp(x),
                               nonlinearity=lambda u: u * u, a=0.0, b=1.0)
    grid = uniform_grid(0.0, 1.0, 16, scheme="left")
    base = discretize(problem.linear_problem(), grid)
    field = forward(build_network(base, 2, KMSchedule(1.0, contractive=True)))
    pts = np.array([0.0, 0.4, 1.0])
    assert np.array_equal(evaluate_nonlinear(problem, base, field, pts),
                          np.exp(pts))


def test_evaluate_nonlinear_rejects_outside_points():
    problem, grid = _identity_problem()
    base = discretize(problem.linear_problem(), grid)
    field = forward(build_network(base, 3, KMSchedule(1.0, contractive=True)))
    with pytest.raises(ValidationError):
        evaluate_nonlinear(problem, base, field, [1.2])


def test_evaluate_nonlinear_domain_violation():
    problem, grid = _identity_problem()
    base = discretize(problem.linear_problem(), grid)
    field = forward(build_network(base, 3, KMSchedule(1.0, contractive=True)))
    sqrt_problem = NonlinearProblem(kernel=problem.kernel,
                                    source=lambda x: np.full(np.shape(x), -5.0),
                                    nonlinearity=lambda u: np.sqrt(u),
                                    a=0.0, b=1.0)
    bad = forward(build_network(
        discretize(sqrt_problem.linear_problem(), grid), 2,
        KMSchedule(1.0, contractive=True)))
    with pytest.raises(DomainError) as exc:
        evaluate_nonlinear(sqrt_problem, base, bad, [0.5])
    assert "evaluation" in str(exc.value)


def test_trace_validation():
    with pytest.raises(ValidationError):
        IterationTrace(outer_iterations=1, deltas=(-1.0,), source=np.ones(3))
    trace = IterationTrace(outer_iterations=1, deltas=(0.5,),
                           source=np.ones(3))
    with pytest.raises(ValueError):
        trace.source[0] = 2.0


def test_problem_domain_validated():
    with pytest.raises(ValidationError):
        NonlinearProblem(kernel=lambda x, z: 0.0, source=lambda x: 0.0,
                         nonlinearity=lambda u: u, a=1.0, b=0.0)
