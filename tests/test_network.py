"""Layered network assembly, forward equivalence, budgets and planning."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fredholm import network
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


def _sweep(op, schedule, depth, exact):
    field = forward(build_network(op, depth, schedule), depth)
    return layer_sweep(op, field, exact(op.grid.nodes), op.grid.nodes)


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
    assert field.history.shape == (16, 6)  # column m - 1 holds layer m
    assert np.array_equal(field.history[:, 0], op.source)
    assert np.array_equal(field.history[:, -1], field.values)
    for held in (field.values, field.history):
        with pytest.raises(ValueError):
            held[0] = 0.0


def test_forward_keeps_the_first_k_iterates(const_kernel_factory):
    op = const_kernel_factory(n=16, scheme="left")
    net = build_network(op, 6, KMSchedule(0.7))
    full = forward(net, 6)
    for k in (1, 4, 6, 9):
        field = forward(net, keep_history=k)
        assert field.history.shape == (16, min(k, 6))
        assert np.array_equal(field.history, full.history[:, :k])
        assert np.array_equal(field.values, full.values)
    assert forward(net, keep_history=0).history is None
    # a count only: True is no depth
    for keep in (True, -1):
        with pytest.raises(ValidationError, match="^history length must be "
                                                  "an integer >= 0, got"):
            forward(net, keep)


@pytest.mark.parametrize("layers", [True, 2.0, 0])
def test_layer_count_must_be_an_integer(const_kernel_factory, layers):
    # True once built one layer; 2.0 was refused as "must be >= 1"
    op = const_kernel_factory(n=8, scheme="left")
    with pytest.raises(ValidationError) as exc:
        build_network(op, layers, KMSchedule(1.0))
    assert str(exc.value) == (
        f"layer count must be an integer >= 1, got {layers!r}")


@pytest.mark.parametrize("keep", [2.0, False])
def test_history_length_must_be_an_integer(const_kernel_factory, keep):
    net = build_network(const_kernel_factory(n=8, scheme="left"), 3,
                        KMSchedule(1.0))
    with pytest.raises(ValidationError) as exc:
        forward(net, keep)
    assert str(exc.value) == (
        f"history length must be an integer >= 0, got {keep!r}")


def test_numpy_integer_counts_run(const_kernel_factory):
    op = const_kernel_factory(n=8, scheme="left")
    net = build_network(op, np.int64(3), KMSchedule(1.0))
    assert type(net.layers) is int
    field = forward(net, np.int32(2))
    plain = forward(build_network(op, 3, KMSchedule(1.0)), 2)
    assert np.array_equal(field.history, plain.history)


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
    deltas = [float(np.max(np.abs(h[:, i + 1] - h[:, i])))
              for i in range(h.shape[1] - 1)]
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
    history = field.history
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
_BAD_ENTRIES = "budget entries must be non-negative"


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
    with pytest.raises(ValidationError,
                       match="step count must be an integer >= 0, got -1"):
        error_bound(_ANALYTIC_Q, _ANALYTIC_RESIDUAL, -1)
    for q in (1.0, 1.2):
        with pytest.raises(ValidationError, match=_NO_BOUND):
            error_bound(q, 0.5, 3)


def test_budget_validation():
    for q, residual, message in (
            (-0.1, 0.0, _BAD_ENTRIES),
            (0.5, float("inf"), "residual must be a finite number, got inf"),
            (0.5, float("nan"), "residual must be a finite number, got nan"),
            (float("nan"), 0.5, "q must be a finite number, got nan")):
        with pytest.raises(ValidationError, match=message):
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
    for eps in (0.0, -1e-3):
        with pytest.raises(ValidationError,
                           match=f"target accuracy {eps!r} must be positive"):
            plan_layers(_ANALYTIC_Q, _ANALYTIC_RESIDUAL, eps)
    with pytest.raises(ValidationError, match="target accuracy must be a "
                       "finite number, got nan"):
        plan_layers(_ANALYTIC_Q, _ANALYTIC_RESIDUAL, float("nan"))
    for q, residual, message in ((1.2, 0.5, _NO_BOUND), (1.0, 0.5, _NO_BOUND),
                                 (-0.1, 0.5, _BAD_ENTRIES),
                                 (0.5, float("inf"),
                                  "residual must be a finite number")):
        with pytest.raises(ValidationError, match=message):
            plan_layers(q, residual, 1e-3)


_Q = st.floats(0.0, 1.0, exclude_max=True)
_POSITIVE = st.floats(0.0, exclude_min=True, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(_Q, st.floats(0.0, 1e300), st.integers(0, 2000),
       st.sampled_from([1.0]) | st.floats(0.5, 2.0))
@example(0.9, 5e-324, 0, 0.5)  # eps (1 - q) underflows: a math domain error
def test_plan_layers_is_the_least_count_a_linear_scan_finds(q, residual,
                                                            steps, scale):
    eps = error_bound(q, residual, steps) * scale
    assume(0.0 < eps < math.inf)  # the bound may overflow
    scan = next((k for k in range(2001)
                 if error_bound(q, residual, k) <= eps), None)
    assume(scan is not None)
    assert plan_layers(q, residual, eps) == scan


@settings(max_examples=200, deadline=None)
@given(_Q, st.just(0.0) | _POSITIVE, _POSITIVE)
@example(1.0 - 2.0 ** -53, 1.0, 1e-300)  # about 7e7 steps
def test_plan_layers_returns_after_at_most_64_bounds(q, residual, eps):
    calls = []

    def counted(*args):
        calls.append(args)
        if len(calls) > 64:
            raise AssertionError("a 65th error bound")
        return error_bound(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(network, "error_bound", counted)
        steps = plan_layers(q, residual, eps)
    assert error_bound(q, residual, steps) <= eps
    assert steps == 0 or error_bound(q, residual, steps - 1) > eps


def test_error_bound_takes_any_count():
    # a count past a float's range once raised OverflowError
    assert error_bound(0.5, 1.0, 10 ** 400) == 0.0
    assert error_bound(1.0 - 2.0 ** -53, 1.0, 2 ** 63) == 0.0


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


def test_forward_deltas_are_the_history_updates(const_kernel_factory):
    # a run's update table is forward's deltas ||h_m - h_(m-1)||, h_0 = 0
    op = const_kernel_factory(n=400, scheme="left")
    q = estimate_contraction(op)
    field = forward(build_network(op, 12, KMSchedule(1.0)), 12)
    steps = np.diff(field.history, axis=1, prepend=0.0)
    assert list(field.deltas) == np.max(np.abs(steps), axis=0).tolist()
    # the constant kernel has rank one, so updates decay by exactly q
    for a, b in zip(field.deltas[2:], field.deltas[3:]):
        assert b / a == pytest.approx(q, rel=1e-9)


def test_layer_sweep_zero_kernel():
    problem = FieProblem(kernel=lambda x, z: 0.0, source=lambda x: np.exp(x))
    op = discretize(problem, uniform_grid(0.0, 1.0, 30))
    table = _sweep(op, KMSchedule(1.0), 5, exact=lambda x: np.exp(x))
    assert all(e == 0.0 for _, e in table)
    deltas = forward(build_network(op, 5, KMSchedule(1.0))).deltas
    assert deltas[0] > 0.0
    assert all(e == 0.0 for e in deltas[1:])


def test_layer_sweep_holds_only_its_error_table(const_kernel_factory):
    # the (N, S) history goes to the evaluation layer as it is, and the
    # (P, S) values become their errors in place: no copy of either
    op = const_kernel_factory(n=2000, scheme="left")
    field = forward(build_network(op, 200, KMSchedule(0.5)), 200)
    pts = np.linspace(0.0, 1.0, 101)
    target = np.full(pts.shape, 1.5)
    expected = np.max(np.abs(evaluation_layer(
        op.problem, op.grid, pts, field.history) - target[:, None]), axis=0)
    tracemalloc.start()
    try:
        table = layer_sweep(op, field, target, pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [e for _, e in table] == expected.tolist()
    # the error table with its finite mask, its 200 rows as a list (20
    # cells each, as the guard charges) and one block of kernel rows
    assert peak < 8 * (101 * 200 * 9 / 8 + 200 * 20 + _BLOCK * op.n) + 65536


def test_layer_sweep_validation(const_kernel_factory):
    op = const_kernel_factory(n=16, scheme="left")
    net = build_network(op, 3, KMSchedule(1.0))
    with pytest.raises(ValidationError, match="layer history"):
        layer_sweep(op, forward(net), np.ones(16), op.grid.nodes)
    # one exact value per point
    with pytest.raises(ValidationError, match="2 target values for 16"):
        layer_sweep(op, forward(net, 3), [1.0, 2.0], op.grid.nodes)
    # a history of fields shorter than the grid
    field = forward(net, 3)
    short = SolutionField(field.grid, field.values[:-1],
                          history=field.history[:-1])
    with pytest.raises(ValidationError, match=r"field of size \(15, 3\) does "
                       "not match grid of size 16"):
        layer_sweep(op, short, np.ones(16), op.grid.nodes)
