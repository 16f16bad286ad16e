"""Quadrature grids: node placement and validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fredholm.errors import ValidationError
from fredholm.grid import uniform_grid


def test_left_scheme_nodes():
    g = uniform_grid(0.0, 1.0, 4, scheme="left")
    assert np.array_equal(g.nodes, [0.0, 0.25, 0.5, 0.75])
    assert g.spacing == 0.25


def test_midpoint_scheme_nodes():
    g = uniform_grid(0.0, 1.0, 4, scheme="midpoint")
    assert np.array_equal(g.nodes, [0.125, 0.375, 0.625, 0.875])
    assert g.spacing == 0.25


def test_closed_scheme_nodes():
    g = uniform_grid(0.0, 1.0, 5, scheme="closed")
    assert np.array_equal(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert g.spacing == 0.25
    assert g.nodes[-1] == g.b


@pytest.mark.parametrize("kwargs", [
    dict(a=0.0, b=1.0, n=1, scheme="closed"),
    dict(a=0.0, b=1.0, n=0),
    dict(a=1.0, b=1.0, n=5),
    dict(a=2.0, b=1.0, n=5),
    dict(a=float("nan"), b=1.0, n=5),
    dict(a=0.0, b=float("inf"), n=5),
    dict(a=0.0, b=1.0, n=5, scheme="gauss"),
])
def test_invalid_grids_rejected(kwargs):
    with pytest.raises(ValidationError):
        uniform_grid(**kwargs)


@pytest.mark.parametrize("n", [2.5, True, 2.0])
@pytest.mark.parametrize("scheme,least", [("left", 1), ("closed", 2)])
def test_grid_size_must_be_an_integer(n, scheme, least):
    # 2.5 nodes once built 3 nodes whose weights summed to 1.2 on [0, 1]
    with pytest.raises(ValidationError) as exc:
        uniform_grid(0.0, 1.0, n, scheme=scheme)
    assert str(exc.value) == (
        f"{scheme} grid size must be an integer >= {least}, got {n!r}")


def test_numpy_integer_grid_size_builds_the_same_grid():
    g = uniform_grid(0.0, 1.0, np.int64(4))
    assert type(g.n) is int
    assert np.array_equal(g.nodes, uniform_grid(0.0, 1.0, 4).nodes)


def test_nodes_are_read_only():
    g = uniform_grid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        g.nodes[0] = 5.0


@settings(max_examples=150, deadline=None)
@given(st.floats(-10.0, 10.0), st.floats(0.1, 10.0), st.integers(1, 400),
       st.sampled_from(["left", "midpoint"]))
def test_uniform_spacing_property(a, width, n, scheme):
    g = uniform_grid(a, a + width, n, scheme=scheme)
    assert g.n == n == g.nodes.size
    assert np.all(g.nodes >= g.a - 1e-12)
    assert np.all(g.nodes <= g.b + 1e-12)
    if n > 1:
        assert np.allclose(np.diff(g.nodes), g.spacing, rtol=1e-9, atol=1e-15)
    assert math.isclose(g.spacing * n, width, rel_tol=1e-9)

