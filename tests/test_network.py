"""Layered network assembly, forward equivalence, budgets and planning."""

import math
import tracemalloc

import numpy as np
import pytest

from fredholm.errors import (DivergenceError, SingularSystemError,
                             ValidationError)
from fredholm.grid import uniform_grid
from fredholm.network import (SolutionField, budget_from_operator,
                              build_network, dense_solve, error_bound,
                              evaluation_layer, forward, layer_sweep,
                              plan_layers, query)
from fredholm.operator import (_BLOCK, DiscreteOperator, FieProblem,
                               KMSchedule, discretize, estimate_contraction)


def _km_step(op, f, kappa):
    return kappa * (op.source + op.matrix @ f) + (1.0 - kappa) * f


def _sweep(op, schedule, depth, exact=None):
    field = forward(build_network(op, depth, schedule), depth)
    return layer_sweep(op, field,
                       None if exact is None else exact(op.grid.nodes))


def _iterate(op, schedule, layers):
    h = schedule.at(1) * op.source
    for m in range(2, layers + 1):
        h = _km_step(op, h, schedule.at(m))
    return h


# ---------------------------------------------------------------------------
# assembly

def test_network_rejects_bad_depth(const_kernel_factory):
    op = const_kernel_factory(n=8, scheme="left")
    with pytest.raises(ValidationError):
        build_network(op, 0, KMSchedule(0.5))
    with pytest.raises(ValidationError):
        build_network(op, 5, KMSchedule([0.5, 0.5]))


# ---------------------------------------------------------------------------
# forward

def test_forward_matches_km_iteration(const_kernel_factory,
                                      separable_kernel_factory, bie_factory):
    cases = [
        (const_kernel_factory(n=64, scheme="closed"),
         KMSchedule(1.0), 12),
        (separable_kernel_factory(n=64), KMSchedule(1.0), 12),
        (bie_factory(n=64)[1], KMSchedule(2.0 / 3.0), 12),
        (const_kernel_factory(n=64, scheme="left"),
         KMSchedule([1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.5, 0.5, 0.5, 0.5]), 10),
    ]
    for op, schedule, layers in cases:
        field = forward(build_network(op, layers, schedule))
        expected = _iterate(op, schedule, layers)
        scale = float(np.max(np.abs(expected)))
        assert np.max(np.abs(field.values - expected)) <= 1e-12 * scale


def test_forward_history(const_kernel_factory):
    op = const_kernel_factory(n=16, scheme="left")
    net = build_network(op, 6, KMSchedule(1.0))
    field = forward(net, 6)
    assert field.history is not None and len(field.history) == 6
    assert np.array_equal(field.history[0], op.source)
    assert np.array_equal(field.history[-1], field.values)
    with pytest.raises(ValueError):
        field.values[0] = 0.0


def test_forward_keeps_the_first_k_iterates(const_kernel_factory):
    op = const_kernel_factory(n=16, scheme="left")
    net = build_network(op, 6, KMSchedule(0.7))
    full = forward(net, 6)
    for k in (1, 4, 6, 9):
        field = forward(net, keep_history=k)
        assert len(field.history) == min(k, 6)
        assert all(np.array_equal(a, b)
                   for a, b in zip(field.history, full.history))
        assert np.array_equal(field.values, full.values)
    assert forward(net, keep_history=0).history is None
    # a count only: True is no depth
    for keep in (True, -1):
        with pytest.raises(ValidationError, match="must be a count"):
            forward(net, keep)


def test_forward_zero_kernel_is_source_every_depth():
    problem = FieProblem(kernel=lambda x, z: 0.0, source=lambda x: np.sin(x))
    op = discretize(problem, uniform_grid(0.0, 1.0, 20))
    for layers in (1, 2, 9):
        net = build_network(op, layers, KMSchedule(1.0))
        assert np.array_equal(forward(net).values, op.source)


def test_forward_update_sizes_contract(const_kernel_factory):
    op = const_kernel_factory(n=100, scheme="left")
    q = estimate_contraction(op)
    field = forward(build_network(op, 12, KMSchedule(1.0)), 12)
    h = field.history
    deltas = [float(np.max(np.abs(h[i + 1] - h[i])))
              for i in range(len(h) - 1)]
    for a, b in zip(deltas, deltas[1:]):
        assert b <= q * a * (1.0 + 1e-9)


def test_forward_never_stores_a_weight_matrix(separable_kernel_factory):
    # 15 distinct relaxations would mean 14 N x N weights if W_m were built
    op = separable_kernel_factory(n=2000)
    schedule = KMSchedule(list(np.linspace(0.5, 0.95, 15)))
    net = build_network(op, 15, schedule)
    tracemalloc.start()
    try:
        forward(net)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < op.matrix.nbytes


def test_operator_and_budget_stay_near_one_matrix():
    # the matrix is the one N x N block; dense formulas would hold four
    n = 2000
    problem = FieProblem(kernel=lambda x, z: np.sin(x) * np.cos(z),
                         source=lambda x: np.sin(x))
    grid = uniform_grid(0.0, np.pi / 2.0, n)
    tracemalloc.start()
    try:
        budget_from_operator(discretize(problem, grid))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * n * n * 8


def test_forward_divergence_names_layer():
    problem = FieProblem(kernel=lambda x, z: 1e8, source=lambda x: 1.0)
    op = discretize(problem, uniform_grid(0.0, 1.0, 16))
    net = build_network(op, 60, KMSchedule(1.0))
    with pytest.raises(DivergenceError) as exc:
        forward(net)
    assert "layer" in str(exc.value)


# ---------------------------------------------------------------------------
# query

def test_query_zero_kernel_returns_source_exactly():
    problem = FieProblem(kernel=lambda x, z: 0.0, source=lambda x: np.exp(x))
    op = discretize(problem, uniform_grid(0.0, 1.0, 20))
    net = build_network(op, 3, KMSchedule(1.0))
    field = forward(net)
    pts = np.array([0.0, 0.31, 1.0])
    assert np.array_equal(query(net, field, pts), np.exp(pts))


def test_query_at_nodes_is_one_extra_step(const_kernel_factory):
    op = const_kernel_factory(n=200, scheme="closed")
    net = build_network(op, 8, KMSchedule(1.0))
    field = forward(net)
    # fresh kernel rows at the nodes rebuild the matrix rows bit for bit
    assert np.array_equal(query(net, field, op.grid.nodes),
                          _km_step(op, field.values, 1.0))


def test_query_accuracy_const_kernel(const_kernel_factory):
    op = const_kernel_factory(n=2000, scheme="closed")
    net = build_network(op, 10, KMSchedule(1.0))
    field = forward(net)
    got = float(query(net, field, [0.5])[0])
    assert abs(got - (math.exp(0.5) + 1.0)) <= 1.6e-3


def test_query_rejects_outside_interval(const_kernel_factory):
    op = const_kernel_factory(n=16, scheme="left")
    net = build_network(op, 2, KMSchedule(1.0))
    field = forward(net)
    with pytest.raises(ValidationError):
        query(net, field, [1.5])
    with pytest.raises(ValidationError):
        query(net, field, [float("nan")])


def test_query_rejects_mismatched_field(const_kernel_factory):
    op = const_kernel_factory(n=16, scheme="left")
    net = build_network(op, 2, KMSchedule(1.0))
    other = forward(build_network(const_kernel_factory(n=8, scheme="left"), 2,
                                  KMSchedule(1.0)))
    with pytest.raises(ValidationError, match=r"field of size \(8,\) does "
                       "not match grid of size 16"):
        query(net, other, [0.5])


# ---------------------------------------------------------------------------
# evaluation layer

def _full_rows_layer(problem, grid, points, values):
    """The evaluation layer through all P x N kernel rows at once, as it was
    computed before the points were scanned in row blocks."""
    pts = np.asarray(points, dtype=float).ravel()
    rows = np.asarray(problem.kernel(pts[:, None], grid.nodes[None, :]),
                      dtype=float)
    rows = np.broadcast_to(rows, (pts.size, grid.n)) * grid.spacing
    g = np.broadcast_to(np.asarray(problem.source(pts), dtype=float),
                        pts.shape)
    return (g[:, None] if np.ndim(values) == 2 else g) + rows @ values


@pytest.mark.parametrize("p", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 201])
def test_blocked_evaluation_layer_matches_full_rows(p):
    b = 1.3
    # positive kernel, source and iterates: no cancellation in the sums
    problem = FieProblem(kernel=lambda x, z: 0.1 * np.exp(-(x - z) ** 2),
                         source=lambda x: 1.0 + np.sin(x) ** 2)
    grid = uniform_grid(0.0, b, 400)
    pts = np.linspace(0.0, b, p)
    field = forward(build_network(discretize(problem, grid), 15,
                                  KMSchedule(0.5)), 15)
    got = evaluation_layer(problem, grid, pts, field.values)
    assert got.shape == (p,)
    # one field is a gemv: each row's dot product is the same in any block
    assert np.array_equal(got, _full_rows_layer(problem, grid, pts,
                                                field.values))
    # a stack of fields is a gemm, which a 32-row block may round apart
    history = np.stack(field.history, axis=1)
    got = evaluation_layer(problem, grid, pts, history)
    assert got.shape == (p, 15)
    np.testing.assert_allclose(
        got, _full_rows_layer(problem, grid, pts, history), rtol=1e-14,
        atol=0.0)


# ---------------------------------------------------------------------------
# dense reference

# hand-set matrices; the solve reads no continuous problem
_NO_PROBLEM = FieProblem(kernel=None, source=None)


def test_dense_solve_two_node_oracle():
    grid = uniform_grid(0.0, 1.0, 2, scheme="left")
    op = DiscreteOperator(grid=grid,
                          matrix=np.array([[0.1, 0.2], [0.3, 0.4]]),
                          source=np.array([1.0, 1.0]), problem=_NO_PROBLEM)
    field = dense_solve(op)
    assert np.allclose(field.values, [5.0 / 3.0, 2.5], rtol=1e-14, atol=0)
    # fixed point of f = g + A f
    residual = field.values - (op.source + op.matrix @ field.values)
    assert np.max(np.abs(residual)) <= 1e-14


def test_dense_solve_zero_kernel_returns_source():
    problem = FieProblem(kernel=lambda x, z: 0.0, source=lambda x: np.sin(x))
    op = discretize(problem, uniform_grid(0.0, 1.0, 12))
    field = dense_solve(op)
    assert np.allclose(field.values, op.source, rtol=0, atol=1e-15)


def test_dense_solve_singular_system():
    grid = uniform_grid(0.0, 1.0, 3, scheme="left")
    op = DiscreteOperator(grid=grid, matrix=np.eye(3), source=np.ones(3),
                          problem=_NO_PROBLEM)
    with pytest.raises(SingularSystemError):
        dense_solve(op)


# ---------------------------------------------------------------------------
# error accounting

_ANALYTIC_Q, _ANALYTIC_RESIDUAL = 1.0 / math.e, (math.e - 1.0) / math.e
_NO_BOUND = "contraction estimate q=.* is not below 1"
_BAD_ENTRIES = "budget entries must be finite and non-negative"


def test_error_bound_closed_form():
    q, r = _ANALYTIC_Q, _ANALYTIC_RESIDUAL
    expected = ((q ** 10) / (1.0 - q)) * r
    assert error_bound(q, r, 10) == expected
    assert error_bound(q, r, 10) == pytest.approx(4.54e-5, rel=1e-2)
    assert error_bound(q, r, 0) == pytest.approx(r / (1.0 - q))


def test_error_bound_measured_operator(const_kernel_factory):
    q, r = budget_from_operator(const_kernel_factory(n=2000, scheme="closed"))
    assert error_bound(q, r, 10) == pytest.approx(4.566554697606891e-05,
                                                  rel=1e-9)


def test_error_bound_validation():
    with pytest.raises(ValidationError, match="step count -1 must be >= 0"):
        error_bound(_ANALYTIC_Q, _ANALYTIC_RESIDUAL, -1)
    for q in (1.0, 1.2):
        with pytest.raises(ValidationError, match=_NO_BOUND):
            error_bound(q, 0.5, 3)


def test_budget_validation():
    for q, residual in ((-0.1, 0.0), (0.5, float("inf")),
                        (0.5, float("nan")), (float("nan"), 0.5)):
        with pytest.raises(ValidationError, match=_BAD_ENTRIES):
            error_bound(q, residual, 0)


def test_plan_layers_hits_target(const_kernel_factory):
    q, r = budget_from_operator(const_kernel_factory(n=2000, scheme="closed"))
    m_star = plan_layers(q, r, 1e-6)
    assert m_star == 14
    assert error_bound(q, r, 14) <= 1e-6
    assert error_bound(q, r, 14) == pytest.approx(8.380685484833296e-07,
                                                  rel=1e-9)
    assert error_bound(q, r, 13) > 1e-6


def test_plan_layers_round_trips_through_bound(const_kernel_factory):
    q, r = budget_from_operator(const_kernel_factory(n=500, scheme="closed"))
    for m in (0, 1, 5, 9):
        assert plan_layers(q, r, error_bound(q, r, m)) == m


def test_plan_layers_exact_power_of_two_boundary():
    # bound(M) is exactly 2^-M here, so eps = 2^-10 must plan 10 layers
    assert error_bound(0.5, 0.5, 10) == 2.0 ** -10
    assert plan_layers(0.5, 0.5, 2.0 ** -10) == 10
    assert plan_layers(0.5, 0.5, 2.0 ** -10 * 1.001) == 10
    assert plan_layers(0.5, 0.5, 0.6) == 1
    assert plan_layers(0.5, 0.5, 2.0) == 0


def test_plan_layers_degenerate_and_invalid():
    assert plan_layers(0.5, 0.0, 1e-12) == 0
    # q = 0: one step reaches h* exactly, and ln 0 has no value
    assert plan_layers(0.0, 0.5, 0.1) == 1
    for eps in (0.0, -1e-3, float("nan")):
        with pytest.raises(ValidationError,
                           match=f"target accuracy {eps!r} must be positive"):
            plan_layers(_ANALYTIC_Q, _ANALYTIC_RESIDUAL, eps)
    for q, residual, message in ((1.2, 0.5, _NO_BOUND), (1.0, 0.5, _NO_BOUND),
                                 (-0.1, 0.5, _BAD_ENTRIES),
                                 (0.5, float("inf"), _BAD_ENTRIES)):
        with pytest.raises(ValidationError, match=message):
            plan_layers(q, residual, 1e-3)


# ---------------------------------------------------------------------------
# layer sweep

def test_layer_sweep_error_mode(const_kernel_factory):
    op = const_kernel_factory(n=400, scheme="left")
    table = _sweep(op, KMSchedule(1.0), 12,
                   exact=lambda x: np.exp(x) + 1.0)
    assert [m for m, _ in table] == list(range(1, 13))
    errs = [e for _, e in table]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert errs[0] / errs[5] > 10.0
    # by depth 12 the iteration error sits under the quadrature floor
    assert abs(errs[-1] - errs[-2]) / errs[-1] < 0.05
    assert 1e-4 < errs[-1] < 5e-3


def test_layer_sweep_delta_mode_ratios(const_kernel_factory):
    op = const_kernel_factory(n=400, scheme="left")
    q = estimate_contraction(op)
    table = _sweep(op, KMSchedule(1.0), 12)
    deltas = [e for _, e in table]
    # the constant kernel has rank one, so updates decay by exactly q
    for a, b in zip(deltas[2:], deltas[3:]):
        assert b / a == pytest.approx(q, rel=1e-9)


def test_layer_sweep_zero_kernel():
    problem = FieProblem(kernel=lambda x, z: 0.0, source=lambda x: np.exp(x))
    op = discretize(problem, uniform_grid(0.0, 1.0, 30))
    table = _sweep(op, KMSchedule(1.0), 5,
                   exact=lambda x: np.exp(x))
    assert all(e == 0.0 for _, e in table)
    deltas = _sweep(op, KMSchedule(1.0), 5)
    assert deltas[0][1] > 0.0
    assert all(e == 0.0 for _, e in deltas[1:])


def test_layer_sweep_update_mode_holds_no_stack(const_kernel_factory):
    # update norms are the deltas forward recorded, with no S x N copy
    op = const_kernel_factory(n=2000, scheme="left")
    field = forward(build_network(op, 200, KMSchedule(0.5)), 200)
    stacked = np.stack(field.history, axis=1)
    expected = np.max(np.abs(np.diff(stacked, axis=1, prepend=0.0)), axis=0)
    tracemalloc.start()
    try:
        table = layer_sweep(op, field)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [e for _, e in table] == expected.tolist()
    assert peak < 4 * op.n * 8 + 65536


def test_layer_sweep_validation(const_kernel_factory):
    op = const_kernel_factory(n=16, scheme="left")
    net = build_network(op, 3, KMSchedule(1.0))
    with pytest.raises(ValidationError, match="layer history"):
        layer_sweep(op, forward(net))
    # one exact value per point
    with pytest.raises(ValidationError, match="2 target values for 16"):
        layer_sweep(op, forward(net, 3), [1.0, 2.0])
    # a history of fields shorter than the grid
    field = forward(net, 3)
    short = SolutionField(field.grid, field.values[:-1],
                          history=tuple(h[:-1] for h in field.history))
    with pytest.raises(ValidationError, match=r"field of size \(15, 3\) does "
                       "not match grid of size 16"):
        layer_sweep(op, short, np.ones(16))
