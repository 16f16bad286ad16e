"""Nonlinear integral equations as one network with G as its activation."""

import math
from dataclasses import replace

import numpy as np
import pytest

from fredholm.cli import run_config
from fredholm.errors import DivergenceError, DomainError, ValidationError
from fredholm.grid import uniform_grid
from fredholm.network import (SolutionField, build_network, forward,
                               layer_sweep, query)
from fredholm.nonlinear import (IterationTrace, evaluate_nonlinear,
                                linearized_source, solve_nonlinear)
from fredholm.operator import FieProblem, KMSchedule, discretize


def _identity_problem(n=30):
    problem = FieProblem(kernel=lambda x, z: 0.2,
                         source=lambda x: np.sin(x),
                         nonlinearity=lambda u: u)
    grid = uniform_grid(0.0, 1.0, n, scheme="left")
    return problem, grid


def _linear_part(problem):
    """The linear problem with ``problem``'s kernel and source."""
    return replace(problem, nonlinearity=None)


def _log_problem():
    """u = g + (1/36) I z u(z)^2 dz with solution log(x) + 1."""
    problem = FieProblem(
        kernel=lambda x, z: z / 36.0,
        source=lambda x: np.log(x) + 143.0 / 144.0,
        nonlinearity=lambda u: u * u)
    grid = uniform_grid(0.0, 1.0, 1000, scheme="midpoint")
    return problem, grid


def test_linearized_source_identity_nonlinearity_is_noop():
    problem, grid = _identity_problem()
    base = discretize(problem, grid)
    f = np.cos(grid.nodes)
    out = linearized_source(problem, base, f)
    assert np.array_equal(out, base.source)


def test_linearized_source_zero_iterate_quadratic():
    problem, grid = _identity_problem()
    problem = FieProblem(kernel=problem.kernel, source=problem.source,
                         nonlinearity=lambda u: u * u)
    base = discretize(problem, grid)
    out = linearized_source(problem, base, np.zeros(base.n))
    assert np.array_equal(out, base.source)


def test_linearized_source_shape_check():
    problem, grid = _identity_problem()
    base = discretize(problem, grid)
    with pytest.raises(ValidationError):
        linearized_source(problem, base, np.zeros(base.n + 1))


def test_log_problem_exact_solution_is_discrete_fixed_point():
    # midpoint nodes avoid the x = 0 singularity of the source
    problem, grid = _log_problem()
    base = discretize(problem, grid)
    f_exact = np.log(grid.nodes) + 1.0
    mapped = base.source + base.matrix @ (f_exact ** 2)
    assert float(np.max(np.abs(mapped - f_exact))) < 1e-6
    # quadrature identity behind the source constant: I z (log z + 1)^2 dz = 1/4
    quad = float(np.sum(grid.nodes * f_exact ** 2) * grid.spacing)
    assert abs(quad - 0.25) < 1e-5


def test_identity_nonlinearity_reduces_to_linear_solve():
    # G(u) = u as the activation runs the arithmetic of the linear net
    # over the same kernel and source, bit for bit, undamped, damped and
    # with a rising kappa, whose updates grow on the q = 0.9 contraction
    # (0.5 at layer 1, 0.658 at layer 6) while its residuals fall
    problem, grid = _identity_problem()
    rising = replace(problem, kernel=lambda x, z: 0.9,
                     source=lambda x: np.ones(np.shape(x)))
    for problem, schedule in (
            (problem, KMSchedule(1.0)),
            (problem, KMSchedule(0.5)),
            (rising, KMSchedule([0.5, 0.5, 1.0, 1.0, 1.0, 1.0]))):
        base = discretize(problem, grid)
        plain = discretize(_linear_part(problem), grid)
        for layers in (1, 2, 5, 6):
            linear = forward(build_network(plain, layers, schedule))
            field, trace = solve_nonlinear(problem, base, layers, schedule)
            assert np.array_equal(field.values, linear.values)
            assert trace.deltas == linear.deltas
            assert len(trace.deltas) == layers


def _sin_problem():
    """u = g + (1/36) I z (u + u^2) dz with solution sin(x) + 1."""
    problem = FieProblem(
        kernel=lambda x, z: z / 36.0,
        source=lambda x: np.sin(x) + 1.0 - math.pi / 12.0
        - 5.0 * math.pi ** 2 / 144.0,
        nonlinearity=lambda u: u + u * u)
    grid = uniform_grid(0.0, math.pi, 200, scheme="left")
    return problem, discretize(problem, grid)


def test_net_takes_g_from_the_operator_problem():
    problem, base = _sin_problem()
    assert base.problem is problem
    # layer 2 is g + A G(g), with G the problem's own
    g = base.source
    field = forward(build_network(base, 2, KMSchedule(1.0)))
    assert np.array_equal(field.values, base.matrix @ (g + g * g) + g)
    # without G the activation is the identity, the linear net's
    assert _linear_part(problem).activation(g) is g


def test_query_applies_the_nonlinear_map():
    # query and the error sweep read a nonlinear net through the one
    # evaluation layer, which applies its map u -> g + A G(u)
    problem, base = _sin_problem()
    net = build_network(base, 20, KMSchedule(1.0))
    field = forward(net, 20)
    pts = np.linspace(0.0, math.pi, 21)
    exact = np.sin(pts) + 1.0
    values = query(net, field, pts)
    assert np.array_equal(values,
                          evaluate_nonlinear(problem, base, field, pts))
    err = np.abs(values - exact).max()
    assert err < 5e-3
    sweep = layer_sweep(base, field, exact, pts)
    assert [m for m, _ in sweep] == list(range(1, 21))
    assert sweep[-1][1] == pytest.approx(err, rel=1e-12)


def test_solve_nonlinear_refuses_another_problems_operator():
    problem, base = _sin_problem()
    linear = discretize(_linear_part(problem), base.grid)
    quadratic = replace(problem, nonlinearity=lambda u: u * u)
    for other, op in ((quadratic, base), (problem, linear)):
        with pytest.raises(ValidationError, match="does not discretize"):
            solve_nonlinear(other, op, 5, KMSchedule(1.0))


def test_layer_deltas_shrink_monotonically():
    problem, base = _sin_problem()
    _, trace = solve_nonlinear(problem, base, 20, KMSchedule(1.0))
    assert len(trace.deltas) == 20
    floor = 1e-13
    for a, b in zip(trace.deltas, trace.deltas[1:]):
        if a > floor:
            assert b < a


def test_layer_deltas_are_the_sweep_update_sizes():
    problem, base = _sin_problem()
    field, trace = solve_nonlinear(problem, base, 9, KMSchedule(1.0),
                                   keep_history=9)
    steps = np.diff(field.history, axis=1, prepend=0.0)
    assert list(trace.deltas) == np.max(np.abs(steps), axis=0).tolist()
    # without an exact solution a run's sweep is its pass's own updates
    config = {"kind": "nonlinear_fie", "kernel": "z/36", "source": "sin(x)",
              "nonlinearity": "u + u^2", "domain": [0, 3], "grid_n": 50,
              "layers": 9}
    bundle = run_config(config, sweep_layers=9)
    assert bundle.sweep_column == "max_update"
    assert bundle.sweep == list(enumerate(bundle.metadata["layer_deltas"], 1))
    # the first layer's update is the bias g itself
    assert trace.deltas[0] == float(np.max(np.abs(base.source)))


def _quadratic_blowup(layers):
    """The problem of ``_sin_problem`` with kernel 2 and G(u) = u^2, on 50
    nodes: Picard's updates grow without bound."""
    problem = replace(_sin_problem()[0], kernel=lambda x, z: 2.0,
                      nonlinearity=lambda u: u * u)
    base = discretize(problem,
                      uniform_grid(0.0, math.pi, 50, scheme="left"))
    return lambda: solve_nonlinear(problem, base, layers, KMSchedule(1.0))


def test_growing_residuals_raise_divergence_error():
    with pytest.raises(DivergenceError) as exc:
        _quadratic_blowup(7)()
    text = str(exc.value)
    assert text.startswith("iteration diverging: its residual grew from ")
    # the second residual, the map's first step, is the larger reference
    assert "at layer 2 to" in text and "at layer 7" in text
    # past double range the iterate overflows; still a verdict, with both
    # updates named
    with pytest.raises(DivergenceError) as exc:
        _quadratic_blowup(20)()
    text = str(exc.value)
    assert "non-finite values at layer 10" in text
    assert "at layer 1 and" in text and "at layer 9" in text


def test_small_source_with_nonzero_g0_converges():
    # the first update is |g|, which is not a step of u -> g + A G(u) when
    # G(0) != 0; the verdict must not take it as the reference
    grid = uniform_grid(0.0, 1.0, 20, scheme="left")
    for source, kernel, layers in ((0.0, 0.1, 2), (0.0, 0.1, 12),
                                   (0.01, 0.5, 7)):
        problem = FieProblem(
            kernel=lambda x, z, k=kernel: k,
            source=lambda x, s=source: np.full(np.shape(x), s),
            nonlinearity=lambda u: 1.0 + u)
        base = discretize(problem, grid)
        field, trace = solve_nonlinear(problem, base, layers, KMSchedule(1.0))
        assert trace.deltas[0] == source
        assert trace.deltas[-1] <= trace.deltas[1]
        # the fixed point of u = s + k (1 + u) is (s + k) / (1 - k)
        assert np.allclose(field.values, (source + kernel) / (1.0 - kernel),
                           atol=kernel ** (layers - 1) / (1.0 - kernel))


def test_final_iterate_is_consistent_fixed_point():
    problem, grid = _log_problem()
    base = discretize(problem, grid)
    field, trace = solve_nonlinear(problem, base, 7, KMSchedule(1.0))
    mapped = base.source + base.matrix @ (field.values ** 2)
    drift = float(np.max(np.abs(mapped - field.values)))
    assert drift <= max(trace.deltas[-1], 1e-13) * 10.0 + 1e-10


def test_nonlinearity_domain_violation_names_node():
    problem = FieProblem(
        kernel=lambda x, z: 0.1,
        source=lambda x: np.full(np.shape(x), -1.0),
        nonlinearity=lambda u: np.sqrt(u))
    base = discretize(problem,
                      uniform_grid(0.0, 1.0, 10, scheme="left"))
    with pytest.raises(DomainError) as exc:
        solve_nonlinear(problem, base, 4, KMSchedule(1.0))
    # a raw numpy G gives NaN where exprlang's would raise
    assert str(exc.value) == (
        "nonlinearity is not finite at node 0 (iterate value -1.0): nan")


def test_evaluate_nonlinear_zero_kernel_is_source():
    problem = FieProblem(kernel=lambda x, z: 0.0,
                         source=lambda x: np.exp(x),
                         nonlinearity=lambda u: u * u)
    grid = uniform_grid(0.0, 1.0, 16, scheme="left")
    base = discretize(problem, grid)
    field = forward(build_network(base, 2, KMSchedule(1.0)))
    pts = np.array([0.0, 0.4, 1.0])
    assert np.array_equal(evaluate_nonlinear(problem, base, field, pts),
                          np.exp(pts))


def test_evaluate_nonlinear_rejects_outside_points():
    problem, grid = _identity_problem()
    base = discretize(problem, grid)
    field = forward(build_network(base, 3, KMSchedule(1.0)))
    with pytest.raises(ValidationError):
        evaluate_nonlinear(problem, base, field, [1.2])


def test_evaluate_nonlinear_refuses_another_problems_operator():
    # G from one problem over another's grid and kernel is no solution's map
    problem, base = _sin_problem()
    field = forward(build_network(base, 5, KMSchedule(1.0)))
    linear = discretize(_linear_part(problem), base.grid)
    quadratic = replace(problem, nonlinearity=lambda u: u * u)
    for other, op in ((quadratic, base), (problem, linear)):
        with pytest.raises(ValidationError, match="does not discretize"):
            evaluate_nonlinear(other, op, field, [1.0])


def test_evaluate_nonlinear_domain_violation():
    problem, grid = _identity_problem()
    sqrt_problem = FieProblem(kernel=problem.kernel,
                              source=lambda x: np.full(np.shape(x), -5.0),
                              nonlinearity=lambda u: np.sqrt(u))
    sqrt_base = discretize(sqrt_problem, grid)
    bad = SolutionField(grid=grid, values=np.full(grid.n, -5.0))
    with pytest.raises(DomainError) as exc:
        evaluate_nonlinear(sqrt_problem, sqrt_base, bad, [0.5])
    assert str(exc.value) == (
        "nonlinearity is not finite at node 0 (iterate value -5.0): nan")
    # an infinite G value makes the sum infinite at its query point
    inv_problem = replace(sqrt_problem, nonlinearity=lambda u: 1.0 / u)
    zero = replace(bad, values=np.where(grid.nodes > 0.3, 1.0, 0.0))
    with pytest.raises(DomainError) as exc:
        evaluate_nonlinear(inv_problem, discretize(inv_problem, grid), zero,
                           [0.5])
    assert str(exc.value) == (
        "evaluation layer is not finite at query point x[0]=0.5: inf")


def test_trace_validation():
    for deltas in ((-1.0,), (0.5, float("nan"))):
        with pytest.raises(ValidationError):
            IterationTrace(deltas=deltas)
    assert IterationTrace(deltas=(0.5, 0.0)).deltas == (0.5, 0.0)
