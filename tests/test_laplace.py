"""Boundary integral equation on the unit disc and potential evaluation."""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fredholm.cli import main, run_config, run_example
from fredholm.errors import ValidationError
from fredholm.grid import uniform_grid
from fredholm.laplace import (build_bie, evaluate_potential,
                              projected_potential)
from fredholm.network import SolutionField, build_network, forward
from fredholm.operator import KMSchedule, estimate_contraction
from fredholm.registry import get_example

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
    with pytest.raises(ValidationError,
                       match="^theta_n must be an integer >= 2, got 1$"):
        build_bie(lambda t: t, 1)


@pytest.mark.parametrize("theta_n", [2.5, True, 4.0])
def test_theta_n_must_be_an_integer(theta_n):
    with pytest.raises(ValidationError) as exc:
        build_bie(np.cos, theta_n)
    assert str(exc.value) == (
        f"theta_n must be an integer >= 2, got {theta_n!r}")


def _random_density(n, seed=0):
    return _given_density(np.random.default_rng(seed).uniform(-2.0, 2.0, n))


def _trig_density(n, seed=0):
    """A density of degree < N/2 with random coefficients: its samples on
    the N-node grid, the degrees k and the coefficients a_k, b_k."""
    k = np.arange((n + 1) // 2)
    a, b = np.random.default_rng(seed).uniform(-1.0, 1.0, (2, len(k)))
    b[0] = 0.0
    # k theta_j = 2 pi (k j mod N) / N, its multiple reduced in integers
    th = np.arange(n) * (np.longdouble(TWO_PI) / n)
    m = np.outer(k, np.arange(n)) % n
    mu = a @ np.cos(th)[m] + b @ np.sin(th)[m]
    return _given_density(mu.astype(float)), k, a, b


def _trig_potential(k, a, b, r, phi):
    """a_0 + 1/2 sum r^k (a_k cos k phi + b_k sin k phi), the exact
    potential of that density, summed in extended precision where the
    platform has it."""
    kr = k[1:].astype(np.longdouble)
    r = np.asarray(r, dtype=np.longdouble)[:, None]
    phi = np.asarray(phi, dtype=np.longdouble)[:, None]
    terms = r ** kr * (a[1:] * np.cos(kr * phi) + b[1:] * np.sin(kr * phi))
    return np.asarray(a[0] + 0.5 * terms.sum(axis=1), dtype=float)


def _relative_error(values, exact):
    return np.max(np.abs(values - exact)) / np.max(np.abs(exact))


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


@pytest.mark.parametrize("theta_n", [63, 64, 2000])
@pytest.mark.parametrize("name", sorted(_query_sets()))
def test_potential_of_a_trigonometric_density_is_exact(theta_n, name):
    den, k, a, b = _trig_density(theta_n)
    r, phi, values = evaluate_potential(den, _query_sets()[name])
    assert _relative_error(values, _trig_potential(k, a, b, r, phi)) <= 1e-13


@pytest.mark.parametrize("theta_n", [63, 64, 2000])
def test_potential_off_the_nodes_near_the_circle(theta_n):
    # 0.3 and 0.5 node spacings past five nodes, where a left-rule sum of
    # the kernel no longer resolves its peak
    den, k, a, b = _trig_density(theta_n, seed=1)
    nodes = den.grid.nodes[[0, 5, 17, theta_n // 3, theta_n - 1]]
    phi = np.concatenate([nodes + f * den.grid.spacing for f in (0.3, 0.5)])
    for gap in (1e-3, 1e-6, 0.0):
        r, wrapped, values = evaluate_potential(
            den, np.column_stack([np.full(len(phi), 1.0 - gap), phi]))
        exact = _trig_potential(k, a, b, r, wrapped)
        assert _relative_error(values, exact) <= 1e-13, gap


@pytest.mark.parametrize("theta_n", [64, 2000])
def test_angles_equal_after_wrapping_give_equal_values(theta_n):
    r, phi, values = evaluate_potential(_random_density(theta_n),
                                        _query_sets()["wrapped"])
    same = (r[:, None] == r) & (phi[:, None] == phi)
    # per radius 0, 2 pi and -2 pi wrap to one angle, 1.0 comes twice
    # and -pi, pi and 3 pi share one too
    assert same.sum() > 2 * len(r)
    assert np.array_equal(same, values[:, None] == values)


def test_nyquist_density_takes_half_its_cosine():
    # (-1)^j on 64 nodes interpolates as cos(32 theta), whose potential
    # is r^32 cos(32 phi) / 2
    den = _given_density(np.tile([1.0, -1.0], 32))
    queries = np.column_stack([np.linspace(0.0, 1.0, 9),
                               np.linspace(-1.0, 7.0, 9)])
    r, phi, values = evaluate_potential(den, queries)
    assert np.allclose(values, 0.5 * r ** 32 * np.cos(32.0 * phi),
                       rtol=0, atol=1e-14)


def test_scattered_config_reads_its_near_circle_points_to_the_solve_error():
    # 1 - r down to 1e-10 at angles off the 1000 nodes: the potential adds
    # nothing to the iteration's own error (about 1e-7 after 15 layers)
    config = json.loads((Path(__file__).parent.parent / "configs"
                         / "laplace_scattered.json").read_text())
    assert run_config(config).max_abs_err() <= 2e-7


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_potential_scan_holds_a_few_row_blocks():
    # a P x N formula would hold about four P x N blocks; the transform
    # and the Horner sum hold a few P- and N-vectors
    p, n = 861, 2000
    den = _random_density(n)
    queries = np.column_stack([np.random.default_rng(3).uniform(0, 1, p),
                               np.linspace(0.0, 20.0, p)])
    assert _peak_bytes(lambda: evaluate_potential(den, queries)) <= (
        16 * (p + n) * 8)
    # the whole example stays within the kernel matrix's own budget
    assert _peak_bytes(lambda: run_example("laplace_disc")) <= 1.25 * n * n * 8


def test_query_just_inside_a_node_reads_the_boundary_value():
    # at r = 1 - 2^-53 and a node angle, 1 - 2 r cos + r^2 cancels to 0,
    # which the kernel's own form would divide by; the polynomial in z
    # has no denominator
    den = _random_density(64)
    th5 = float(den.grid.nodes[5])
    queries = [(0.5, p) for p in np.linspace(0.0, th5, 40, endpoint=False)]
    queries.append((float(np.nextafter(1.0, 0.0)), th5))
    _, _, values = evaluate_potential(den, queries)
    boundary = 0.5 * den.values[5] + projected_potential(den)
    assert abs(float(values[-1]) - boundary) <= 1e-12


def test_disc_run_at_a_node_just_inside_the_circle_exits_zero(tmp_path):
    config = dict(get_example("laplace_disc").config,
                  queries=[[0.9999999999, 0.0]], exact="1 + r^2*cos(2*phi)")
    path = tmp_path / "disc.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out.json"
    assert main(["solve", str(path), "--deterministic", "--format", "json",
                 "--out", str(out)]) == 0
    solution = json.loads(out.read_text())["solution"]
    (row,) = solution["rows"]
    assert row[solution["columns"].index("abs_err")] <= 1e-12
