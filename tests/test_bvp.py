"""Two-point boundary problems through the equivalent integral equation."""

import math
import tracemalloc

import numpy as np
import pytest

from fredholm.bvp import (BvpSpec, bvp_to_fie, green_operator, ode_residual,
                          recover_solution)
from fredholm.cli import run_example
from fredholm.errors import ValidationError
from fredholm.grid import uniform_grid
from fredholm.network import (SolutionField, build_network, evaluation_layer,
                              forward)
from fredholm.operator import (FieProblem, KMSchedule, discretize,
                               estimate_contraction)
from fredholm.registry import airy_like_solution


def _as_arr(fn):
    return lambda x: fn(np.asarray(x, dtype=float))


def _solve(spec, n=2000, layers=10):
    fie = bvp_to_fie(spec)
    op = discretize(fie, uniform_grid(0.0, 1.0, n, scheme="left"))
    net = build_network(op, layers, KMSchedule(1.0))
    return net, forward(net)


def _poly_spec():
    """g = 9.6/(3.2 + x^2)^2, solution x / sqrt(3.2 + x^2)."""
    return BvpSpec(g=_as_arr(lambda x: 9.6 / (3.2 + x ** 2) ** 2),
                   h=_as_arr(np.zeros_like),
                   alpha=0.0, beta=1.0 / math.sqrt(4.2))


def test_kernel_is_triangular_product():
    g = _as_arr(lambda x: 2.0 + x)
    fie = bvp_to_fie(BvpSpec(g=g, h=_as_arr(np.zeros_like),
                             alpha=0.0, beta=1.0))
    k = fie.kernel
    assert float(k(0.3, 0.2)) == pytest.approx(0.2 * 0.7 * 2.3, rel=1e-15)
    assert float(k(0.3, 0.8)) == pytest.approx(0.3 * 0.2 * 2.3, rel=1e-15)
    # both branches agree on the diagonal
    assert float(k(0.4, 0.4)) == pytest.approx(0.4 * 0.6 * 2.4, rel=1e-15)


@pytest.mark.parametrize("p", [1, 31, 32, 33, 201])
def test_kernel_matches_branch_form_bitwise(p):
    g = _as_arr(lambda x: np.exp(x) - 1.7)
    fie = bvp_to_fie(BvpSpec(g=g, h=_as_arr(np.zeros_like),
                             alpha=0.0, beta=1.0))

    def branches(x, t):
        return np.where(t <= x, t * (1.0 - x), x * (1.0 - t)) * g(x)

    grid = uniform_grid(0.0, 1.0, 97, scheme="closed")
    op = discretize(fie, grid)
    ref = FieProblem(kernel=branches, source=fie.source)
    assert np.array_equal(op.matrix, discretize(ref, grid).matrix)
    pts = np.random.default_rng(p).uniform(0.0, 1.0, p)
    pts[0] = grid.nodes[p % grid.n]  # a query on a node meets the diagonal
    values = np.random.default_rng(0).standard_normal(grid.n)
    assert np.array_equal(evaluation_layer(fie, grid, pts, values),
                          evaluation_layer(ref, grid, pts, values))


@pytest.mark.parametrize("scheme,n", [
    (scheme, n) for scheme in ("left", "midpoint", "closed")
    for n in (1, 2, 31, 32, 33, 2001) if (scheme, n) != ("closed", 1)])
def test_green_weights_match_dense_reference(scheme, n):
    # g changes sign; the map's products are its two running sums
    spec = BvpSpec(g=_as_arr(lambda x: np.exp(x) - 1.7),
                   h=_as_arr(lambda x: np.cos(3.0 * x)), alpha=0.4, beta=-1.1)
    grid = uniform_grid(0.0, 1.0, n, scheme=scheme)
    op, ref = green_operator(spec, grid), discretize(bvp_to_fie(spec), grid)
    assert op.matrix.shape == (n, n)
    assert np.array_equal(np.asarray(op.matrix), ref.matrix)
    assert np.array_equal(op.source, ref.source)
    assert not op.source.flags.writeable
    eps = np.finfo(float).eps
    for seed in range(3):
        v = np.random.default_rng(seed).standard_normal(n)
        scale = np.max(np.abs(ref.matrix) @ np.abs(v))
        assert np.max(np.abs(op.matrix @ v - ref.matrix @ v)) <= 4 * eps * scale
    assert estimate_contraction(op) == pytest.approx(
        estimate_contraction(ref), rel=1e-14, abs=0.0)


def test_green_operator_refuses_a_grid_off_the_unit_interval():
    with pytest.raises(ValidationError, match=r"spans \[0, 1\], not "
                       r"\[0.0, 2.0\]"):
        green_operator(_poly_spec(), uniform_grid(0.0, 2.0, 8))


def test_bvp_run_holds_no_matrix():
    # the dense weights of 2000 nodes were one 30.5 MiB array
    run_example("bvp_p")  # lazy imports first
    tracemalloc.start()
    try:
        bundle = run_example("bvp_p")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert bundle.metadata["grid_n"] == 2000
    assert peak < 4 * 2 ** 20


def test_kernel_continuous_across_diagonal():
    spec = _poly_spec()
    fie = bvp_to_fie(spec)
    x = 0.37
    eps = 1e-9
    below = float(fie.kernel(x, x - eps))
    above = float(fie.kernel(x, x + eps))
    assert abs(below - above) < 1e-8


def test_source_assembles_boundary_terms():
    g = _as_arr(lambda x: 1.0 + x)
    h = _as_arr(lambda x: x ** 2)
    fie = bvp_to_fie(BvpSpec(g=g, h=h, alpha=2.0, beta=5.0))
    x = 0.4
    expected = x ** 2 - (2.0 + 3.0 * x) * (1.0 + x)
    assert float(fie.source(x)) == pytest.approx(expected, rel=1e-15)


def test_source_linear_coefficient_case():
    # y'' + x y = 0 with y(0) = 0, y(1) = 2 becomes u = -2 x^2 + I K u
    fie = bvp_to_fie(BvpSpec(g=_as_arr(lambda x: x), h=_as_arr(np.zeros_like),
                             alpha=0.0, beta=2.0))
    xs = np.linspace(0.0, 1.0, 11)
    assert np.allclose(fie.source(xs), -2.0 * xs ** 2, rtol=1e-15, atol=0)


def test_source_poly_case():
    spec = _poly_spec()
    fie = bvp_to_fie(spec)
    xs = np.linspace(0.0, 1.0, 7)
    gx = 9.6 / (3.2 + xs ** 2) ** 2
    assert np.allclose(fie.source(xs), -spec.beta * xs * gx,
                       rtol=1e-14, atol=1e-18)
    assert float(fie.source(0.0)) == 0.0


def test_poly_problem_end_to_end():
    # y = 0.2 + 0.7 x^2 solves y'' + y = 1.6 + 0.7 x^2: its boundary values
    # come out exact from alpha (1 - x) + beta x, where alpha + (beta -
    # alpha) x would give 0.8999999999999999 at x = 1
    quadratic = BvpSpec(g=_as_arr(np.ones_like),
                        h=_as_arr(lambda x: 1.6 + 0.7 * x ** 2),
                        alpha=0.2, beta=0.9)
    pts = np.linspace(0.0, 1.0, 101)
    for spec, exact in ((_poly_spec(), pts / np.sqrt(3.2 + pts ** 2)),
                        (quadratic, 0.2 + 0.7 * pts ** 2)):
        net, field = _solve(spec)
        y = recover_solution(net, field, spec, pts)
        assert float(np.max(np.abs(y - exact))) < 1e-7
        # boundary values are exact by construction
        assert y[0] == spec.alpha
        assert y[-1] == spec.beta
        assert ode_residual(spec, pts, y) < 1e-4


def test_airy_problem_end_to_end():
    spec = BvpSpec(g=_as_arr(lambda x: x), h=_as_arr(np.zeros_like),
                   alpha=0.0, beta=2.0)
    net, field = _solve(spec, layers=15)
    pts = np.linspace(0.0, 1.0, 101)
    y = recover_solution(net, field, spec, pts)
    exact = airy_like_solution(pts)
    assert float(np.max(np.abs(y - exact))) < 1e-6
    # the Green's kernel vanishes at both ends: y there is alpha and beta
    assert y[0] == 0.0
    assert y[-1] == 2.0
    assert ode_residual(spec, pts, y) < 1e-3


def test_series_reference_satisfies_its_ode():
    xs = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
    h = 1e-4
    ypp = (airy_like_solution(xs + h) - 2.0 * airy_like_solution(xs)
           + airy_like_solution(xs - h)) / h ** 2
    assert np.max(np.abs(ypp + xs * airy_like_solution(xs))) < 1e-5
    assert airy_like_solution(0.0) == 0.0
    assert airy_like_solution(1.0) == 2.0


def test_vanishing_g_interpolates_between_anchors():
    spec = BvpSpec(g=_as_arr(np.zeros_like), h=_as_arr(np.zeros_like),
                   alpha=1.0, beta=3.0)
    net, field = _solve(spec, n=50, layers=3)
    y = recover_solution(net, field, spec, [0.0, 0.5, 1.0])
    assert np.allclose(y, [1.0, 2.0, 3.0], rtol=0, atol=1e-12)


def test_g_vanishing_on_an_interval_solves():
    # g = 0 on [0, 0.5]: the readout never divides by g, so the whole
    # half-interval where y = (h - u) / g is undefined reads like the rest
    g = _as_arr(lambda x: 2.0 * (x - 0.5 + np.abs(x - 0.5)))
    spec = BvpSpec(g=g,
                   h=_as_arr(lambda x: -np.sin(x) + g(x) * (np.sin(x) + 1.0)),
                   alpha=1.0, beta=1.0 + math.sin(1.0))
    net, field = _solve(spec, n=400, layers=20)
    pts = np.linspace(0.0, 1.0, 41)
    y = recover_solution(net, field, spec, pts)
    assert float(np.max(np.abs(y - (np.sin(pts) + 1.0)))) < 1e-6
    assert y[0] == spec.alpha
    assert y[-1] == spec.beta


def test_recovery_points_validated():
    spec = _poly_spec()
    net, field = _solve(spec, n=50, layers=3)
    with pytest.raises(ValidationError):
        recover_solution(net, field, spec, [0.5, 1.5])
    assert recover_solution(net, field, spec, []).size == 0
    short = SolutionField(field.grid, field.values[:-1])
    with pytest.raises(ValidationError, match=r"field of size \(49,\) does "
                       "not match grid of size 50"):
        recover_solution(net, short, spec, [0.5])


def test_ode_residual_validation():
    spec = _poly_spec()
    with pytest.raises(ValidationError):
        ode_residual(spec, [0.0, 0.1], [0.0, 0.1])
    with pytest.raises(ValidationError):
        ode_residual(spec, [0.0, 0.1, 0.5], [0.0, 0.1, 0.2])
    with pytest.raises(ValidationError):
        ode_residual(spec, [0.0, 0.1, 0.2], [0.0, 0.1])


def test_ode_residual_floor_is_the_stencil_error():
    # a stencil check, not the error: on bvp_p's exact solution at the
    # run's 101 points it reads about dx^2 |y^(4)| / 12, what the run
    # reads, while the run's error is over three thousand times smaller
    spec = _poly_spec()
    net, field = _solve(spec)
    pts = np.linspace(0.0, 1.0, 101)
    exact = pts / np.sqrt(3.2 + pts ** 2)
    y = recover_solution(net, field, spec, pts)
    floor = ode_residual(spec, pts, exact)
    assert floor == pytest.approx(6.56e-6, rel=1e-3)
    assert ode_residual(spec, pts, y) == pytest.approx(floor, rel=1e-2)
    assert float(np.max(np.abs(y - exact))) < 2e-9


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the Green's-function readout's integrand kinks "
                          "at t = x, a node only when x is one: 8.292e-9")
def test_readout_between_the_nodes_holds_the_node_error():
    # bvp_p's 101 pinned queries are grid nodes and read 1.914e-9; of 801
    # points most fall between the nodes
    bundle = run_example("bvp_p", overrides={"queries": "0:1:801"})
    assert max(row[3] for row in bundle.rows) <= 1.05 * 1.914e-9


def test_ode_residual_zero_for_quadratic():
    # y = x^2 solves y'' = 2 exactly, and central differences are exact
    # for quadratics
    spec = BvpSpec(g=_as_arr(np.zeros_like),
                   h=_as_arr(lambda x: np.full_like(x, 2.0)),
                   alpha=0.0, beta=1.0)
    xs = np.linspace(0.0, 1.0, 21)
    assert ode_residual(spec, xs, xs ** 2) < 1e-10


def test_spec_validates_boundary_values():
    with pytest.raises(ValidationError):
        BvpSpec(g=_as_arr(np.zeros_like), h=_as_arr(np.zeros_like),
                alpha=float("nan"), beta=0.0)
