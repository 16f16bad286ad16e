"""Operator discretization, damped stepping, contraction statistics."""

import math

import numpy as np
import pytest

from fredholm.errors import DomainError, ValidationError
from fredholm.exprlang import compile_fn, parse
from fredholm.grid import uniform_grid
from fredholm.operator import (_BLOCK, DiscreteOperator, FieProblem,
                               KMSchedule, _sample, discretize,
                               estimate_contraction,
                               estimate_derivative_bound, residual_norm)
from fredholm.network import build_network, dense_solve, forward


def _two_node_op():
    """A hand-set matrix; its linear problem gives the net its activation."""
    grid = uniform_grid(0.0, 1.0, 2, scheme="left")
    return DiscreteOperator(grid=grid,
                            matrix=np.array([[0.1, 0.2], [0.3, 0.4]]),
                            source=np.array([1.0, 1.0]),
                            problem=FieProblem(kernel=None, source=None))


def _km_step(op, f, kappa):
    return kappa * (op.source + op.matrix @ f) + (1.0 - kappa) * f


def test_constant_kernel_entries_are_weighted_samples(const_kernel_factory):
    op = const_kernel_factory(n=50, scheme="left")
    expected = (1.0 / np.e) * op.grid.spacing
    assert np.all(op.matrix == expected)
    assert np.array_equal(op.source, np.exp(op.grid.nodes))


def test_separable_kernel_sample_value():
    problem = FieProblem(kernel=lambda x, z: np.sin(x) * np.cos(z),
                         source=lambda x: np.sin(x))
    op = discretize(problem, uniform_grid(0.0, math.pi / 2.0, 4, scheme="left"))
    z1 = math.pi / 8.0
    expected = math.sin(z1) * math.cos(z1) * (math.pi / 8.0)
    assert op.matrix[1, 1] == pytest.approx(expected, rel=5e-16)
    assert op.matrix[1, 1] == pytest.approx(0.13884009181744894, rel=1e-14)


def test_zero_kernel_step_returns_source():
    problem = FieProblem(kernel=lambda x, z: 0.0,
                         source=lambda x: np.cos(x))
    op = discretize(problem, uniform_grid(0.0, 2.0, 20))
    assert np.all(op.matrix == 0.0)
    f = np.linspace(-1.0, 1.0, 20)
    assert np.allclose(_km_step(op, f, 1.0), op.source, rtol=0, atol=0)


def test_discretize_reports_bad_source_node():
    problem = FieProblem(kernel=lambda x, z: 1.0,
                         source=lambda x: np.where(x == 0.0, -np.inf, 1.0))
    with pytest.raises(DomainError) as exc:
        discretize(problem, uniform_grid(0.0, 1.0, 8, scheme="left"))
    assert str(exc.value) == "source is not finite at node z[0]=0.0: -inf"


def test_discretize_reports_bad_kernel_pair():
    problem = FieProblem(
        kernel=lambda x, z: np.where((x == 0.0) & (z == 0.0), np.nan, 1.0),
        source=lambda x: 1.0)
    with pytest.raises(DomainError) as exc:
        discretize(problem, uniform_grid(0.0, 1.0, 8, scheme="left"))
    assert str(exc.value) == ("kernel is not finite at nodes (z[0]=0.0, "
                              "z[0]=0.0): nan")


# Dense reference formulas: the whole N x N matrix at once, as the blocked
# kernels computed it before; every result must match them bit for bit.

def _dense_discretize(problem, grid):
    z = grid.nodes
    kmat = np.asarray(problem.kernel(z[:, None], z[None, :]), dtype=float)
    kmat = np.broadcast_to(kmat, (grid.n, grid.n))
    a = kmat * grid.spacing
    g = np.broadcast_to(np.asarray(problem.source(z), dtype=float), (grid.n,))
    bad = ~np.isfinite(a)
    if bad.any():
        i, j = np.unravel_index(int(np.argmax(bad)), a.shape)
        raise DomainError(
            f"kernel is not finite at nodes (z[{i}]={float(z[i])!r}, "
            f"z[{j}]={float(z[j])!r}): {float(a[i, j])!r}")
    bad = ~np.isfinite(g)
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"source is not finite at node z[{i}]="
                          f"{float(z[i])!r}: {float(g[i])!r}")
    return DiscreteOperator(grid=grid, matrix=np.ascontiguousarray(a),
                            source=g.copy(), problem=problem)


def _dense_contraction(op):
    return float(np.max(np.sum(np.abs(op.matrix), axis=1)))


def _dense_derivative_bound(op):
    dz = op.grid.spacing
    prod = (op.matrix / dz) * op.source[None, :]
    diff = np.abs(prod[:, 2:] - prod[:, :-2]) / (2.0 * dz)
    return float(np.max(diff))


_KERNELS = {
    "constant": lambda x, z: 1.0 / np.e,
    "compiled_constant": compile_fn(parse("1/e"), ("x", "z")),
    "broadcast_constant": lambda x, z: np.broadcast_to(
        -1.0 / (2.0 * np.pi), np.broadcast_shapes(np.shape(x), np.shape(z))),
    "separable": lambda x, z: np.sin(x) * np.cos(z),
    "nonsymmetric": lambda x, z: np.exp(x - 2.0 * z) + x * z ** 2,
    # hands back the caller's own node array
    "aliasing": lambda x, z: z,
}


@pytest.mark.parametrize("n", [3, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                               2 * _BLOCK + 1, 2001])
@pytest.mark.parametrize("scheme", ["left", "midpoint", "closed"])
@pytest.mark.parametrize("kernel", sorted(_KERNELS))
def test_blocked_kernels_match_dense_reference(kernel, scheme, n):
    problem = FieProblem(kernel=_KERNELS[kernel],
                         source=lambda x: np.cos(3.0 * x) + x)
    grid = uniform_grid(0.0, 1.3, n, scheme=scheme)
    nodes = grid.nodes.copy()
    op, ref = discretize(problem, grid), _dense_discretize(problem, grid)
    assert np.array_equal(grid.nodes, nodes)
    assert np.array_equal(op.matrix, ref.matrix)
    assert np.array_equal(op.source, ref.source)
    assert estimate_contraction(op) == _dense_contraction(ref)
    assert estimate_derivative_bound(op) == _dense_derivative_bound(ref)


def test_bad_kernel_pair_in_a_later_block():
    grid = uniform_grid(0.0, 1.0, 2 * _BLOCK + 1)
    z = grid.nodes
    row, col = _BLOCK + 3, 5

    def kernel(x, zz):
        bad = ((x == z[row]) & (zz >= z[col])) | (x > z[row + 2])
        return np.where(bad, np.inf, 1.0)

    # the source is bad too, but kernel samples are checked first
    problem = FieProblem(kernel=kernel,
                         source=lambda x: np.where(x == 0.0, np.nan, 1.0))
    messages = []
    for build in (discretize, _dense_discretize):
        with pytest.raises(DomainError) as exc:
            build(problem, grid)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert messages[0] == (f"kernel is not finite at nodes (z[{row}]="
                           f"{float(z[row])!r}, z[{col}]={float(z[col])!r}): "
                           "inf")


def test_undefined_kernel_pair_in_a_later_block():
    # the kernel's own index would be relative to the failing block
    grid = uniform_grid(0.0, 1.0, 200, scheme="closed")
    z = grid.nodes
    for text, (i, j), reason in (
            ("sqrt(0.5 - x)", (100, 0), "sqrt"),
            ("sqrt(1.2 - x - z)", (40, 199), "sqrt"),
            # the first pair in row-major order, not the first failing term
            ("sqrt(0.8 - z) + log(x - 0.3)", (0, 0), "log")):
        problem = FieProblem(kernel=compile_fn(parse(text), ("x", "z")),
                             source=lambda x: np.nan)
        with pytest.raises(DomainError) as exc:
            discretize(problem, grid)
        assert str(exc.value).startswith(
            f"kernel undefined at nodes (z[{i}]={float(z[i])!r}, "
            f"z[{j}]={float(z[j])!r}): {reason} of")


def test_sample_names_the_first_element_of_a_broadcast_lattice():
    r, phi = np.linspace(0.1, 0.9, 9), np.linspace(0.0, 3.0, 7)
    log_r_phi = compile_fn(parse("log(phi - r)"), ("r", "phi"))
    with np.errstate(all="raise"), pytest.raises(DomainError) as exc:
        _sample(log_r_phi, (r[:, None], phi[None, :]), "exact",
                "node r[{i}]={v[0]!r}, phi[{j}]={v[1]!r}")
    assert str(exc.value) == (
        "exact undefined at node r[0]=0.1, phi[0]=0.0: log of non-positive "
        "value -0.1")
    # a constant is judged once and named at the lattice's first element
    with pytest.raises(DomainError) as exc:
        _sample(lambda r, phi: np.inf, (r[:, None], phi), "exact",
                "node r[{i}]={v[0]!r}, phi[{j}]={v[1]!r}", 1)
    assert str(exc.value) == (
        "exact is not finite at node r[1]=0.1, phi[0]=0.0: inf")


def test_sample_nan_only_passes_infinities():
    u = np.array([1.0, 0.0, -1.0])
    inv = _sample(lambda u: 1.0 / u, (u,), "G", "u[{i}]", nan_only=True)
    assert inv[1] == np.inf
    with pytest.raises(DomainError, match=r"^G is not finite at u\[2\]: nan$"):
        _sample(np.sqrt, (u,), "G", "u[{i}]", nan_only=True)


def test_sample_search_costs_blocks_then_points():
    calls = []

    def late_log(x):
        calls.append(np.size(x))
        if np.any(x >= 99_990):
            raise DomainError("log of non-positive value")
        return x

    with pytest.raises(DomainError) as exc:
        _sample(late_log, (np.arange(100_000.0),), "source", "x[{i}]")
    assert str(exc.value) == (
        "source undefined at x[99990]: log of non-positive value")
    # the whole, 3125 blocks, the points of the last one, and the named one
    assert len(calls) <= 1 + 100_000 // _BLOCK + _BLOCK + 1


def test_sample_reraises_an_error_no_element_reproduces():
    def needs_company(x):
        if np.size(x) > 1:
            raise DomainError("undefined over the whole")
        return x

    with pytest.raises(DomainError, match="^undefined over the whole$"):
        _sample(needs_company, (np.arange(5.0),), "source", "x[{i}]")


def test_km_step_two_node_damped():
    # layer 1 gives g = (1, 1); the damped layer 2 is one KM step from it
    op = _two_node_op()
    out = forward(build_network(op, 2, KMSchedule([1.0, 0.5]))).values
    assert np.allclose(out, [1.15, 1.35], rtol=0, atol=1e-14)


def test_km_step_undamped_is_plain_iteration():
    op = _two_node_op()
    net = build_network(op, 3, KMSchedule(1.0))
    h = forward(net, 3).history.T.copy()  # one row per layer
    for prev, cur in zip(h, h[1:]):
        assert np.array_equal(cur, op.source + op.matrix @ prev)


def test_contraction_estimate_const_kernel(const_kernel_factory):
    op = const_kernel_factory(n=2000, scheme="closed")
    q = estimate_contraction(op)
    assert q == pytest.approx(0.3680634729078961, rel=1e-9)
    assert abs(q - 1.0 / np.e) < 2e-4


def test_contraction_estimate_separable(separable_kernel_factory):
    # non-expansive in the continuum; quadrature pushes it just past 1
    q = estimate_contraction(separable_kernel_factory(n=2000))
    assert q == pytest.approx(1.0003923391312846, rel=1e-9)
    assert abs(q - 1.0) < 1e-3


def test_contraction_estimate_zero_kernel():
    problem = FieProblem(kernel=lambda x, z: 0.0, source=lambda x: 1.0)
    op = discretize(problem, uniform_grid(0.0, 1.0, 10))
    assert estimate_contraction(op) == 0.0


def test_residual_norm_const_kernel(const_kernel_factory):
    op = const_kernel_factory(n=2000, scheme="closed")
    r = residual_norm(op)
    assert r == pytest.approx(0.6324627129416731, rel=1e-9)
    assert abs(r - (np.e - 1.0) / np.e) < 1e-3


def test_residual_norm_separable(separable_kernel_factory):
    # sup_x |sin x| * I cos(z) sin(z) dz over [0, pi/2] is 1/2
    r = residual_norm(separable_kernel_factory(n=2000))
    assert abs(r - 0.5) < 1e-3


def test_derivative_bound_const_kernel(const_kernel_factory):
    op = const_kernel_factory(n=2000, scheme="closed")
    d = estimate_derivative_bound(op)
    assert d == pytest.approx(0.9994999166668258, rel=1e-9)
    assert abs(d - 1.0) < 1.1e-3


def test_derivative_bound_of_a_constant_integrand_is_positive_zero():
    # every difference is 0; the bound must not print as -0
    problem = FieProblem(kernel=lambda x, z: 0.5, source=lambda x: 1.0)
    d = estimate_derivative_bound(
        discretize(problem, uniform_grid(0.0, 1.0, 50)))
    assert d == 0.0 and math.copysign(1.0, d) == 1.0


def test_derivative_bound_separable(separable_kernel_factory):
    # max |d/dz sin(x) cos(z) sin(z)| = max |sin(x) cos(2z)| = 1
    d = estimate_derivative_bound(separable_kernel_factory(n=2000))
    assert abs(d - 1.0) < 1e-3


def test_derivative_bound_linear_integrand_is_unit_slope():
    problem = FieProblem(kernel=lambda x, z: 1.0, source=lambda x: x)
    op = discretize(problem, uniform_grid(0.0, 1.0, 11, scheme="left"))
    assert estimate_derivative_bound(op) == pytest.approx(1.0, rel=1e-9)


def test_derivative_bound_needs_three_nodes():
    problem = FieProblem(kernel=lambda x, z: 1.0, source=lambda x: 1.0)
    op = discretize(problem, uniform_grid(0.0, 1.0, 2))
    with pytest.raises(ValidationError):
        estimate_derivative_bound(op)


def test_unit_kernel_row_sums_equal_interval_length():
    problem = FieProblem(kernel=lambda x, z: 1.0, source=lambda x: 1.0)
    op = discretize(problem, uniform_grid(2.0, 5.0, 137, scheme="left"))
    sums = op.matrix.sum(axis=1)
    assert np.allclose(sums, 3.0, rtol=0, atol=1e-12)


def test_dense_fixed_point_is_km_idempotent(const_kernel_factory):
    op = const_kernel_factory(n=200, scheme="closed")
    field = dense_solve(op)
    scale = float(np.max(np.abs(field.values)))
    for kappa in (1.0, 0.3):
        stepped = _km_step(op, field.values, kappa)
        assert np.max(np.abs(stepped - field.values)) <= 1e-12 * scale


def test_km_step_is_lipschitz_with_estimated_constant(const_kernel_factory):
    op = const_kernel_factory(n=64, scheme="left")
    q = estimate_contraction(op)
    rng = np.random.default_rng(1234)
    for _ in range(20):
        f1 = rng.normal(size=op.n)
        f2 = rng.normal(size=op.n)
        for kappa in (1.0, 0.5):
            lip = kappa * q + (1.0 - kappa)
            lhs = np.max(np.abs(_km_step(op, f1, kappa)
                                - _km_step(op, f2, kappa)))
            rhs = lip * np.max(np.abs(f1 - f2))
            assert lhs <= rhs * (1.0 + 1e-12) + 1e-15


def test_operator_arrays_read_only():
    op = _two_node_op()
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 9.0
    with pytest.raises(ValueError):
        op.source[0] = 9.0


class TestKMSchedule:
    def test_constant_below_one_is_valid(self):
        s = KMSchedule(0.5)
        assert s.is_constant() and s.constant == 0.5
        assert s.at(1) == 0.5 and s.at(97) == 0.5

    def test_sequence_access_and_bounds(self):
        s = KMSchedule([1.0, 0.5, 0.25])
        assert not s.is_constant()
        assert s.at(1) == 1.0 and s.at(3) == 0.25
        with pytest.raises(ValidationError):
            s.at(4)

    def test_uniform_sequence_collapses_to_constant(self):
        s = KMSchedule([0.5, 0.5, 0.5])
        assert s.is_constant() and s.constant == 0.5

    @pytest.mark.parametrize("kappa", [0.0, 1.0001, -0.1, [], [0.5, 0.0],
                                       [1.2]])
    def test_invalid_kappa_rejected(self, kappa):
        with pytest.raises(ValidationError):
            KMSchedule(kappa)
