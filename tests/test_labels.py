"""Reported labels against their ground truth.

Small problems run through the CLI pipeline, and each label is checked
against what it claims, with the truth solved densely at the same size:
``iteration_error_bound``, and the planner's ``error_bound`` read at the
run's depth, must bound ``||h_M - h*||``, the distance of the last hidden
layer from ``h* = dense_solve(op)``, up to the rounding of the dense solve
itself.  Three verdicts that contradict the spectral radius of the layer
map are pinned as strict xfails.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fredholm import cli
from fredholm.cli import run_config, run_example
from fredholm.errors import DivergenceError, NumericalError
from fredholm.exprlang import compile_fn, parse
from fredholm.grid import uniform_grid
from fredholm.laplace import build_bie
from fredholm.network import (budget_from_operator, build_network,
                              dense_solve, error_bound, forward)
from fredholm.operator import FieProblem, KMSchedule, discretize

# the oracle's own rounding: at its pinned grid bvp_airy's iterate sits
# 5e-15 from dense_solve, where its figure reads 1.8e-17, and ex1's figure,
# exact for its rank-one kernel, reads 7e-15 below the measured distance
_SLACK = 64 * np.finfo(float).eps


def _solve(run):
    """The bundle of ``run()`` with the net and field of its one forward
    pass."""
    seen = []

    def spy(net, *args):
        seen.append((net, forward(net, *args)))
        return seen[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "forward", spy)
        bundle = run()
    (net, field), = seen
    return bundle, net, field


def _iteration_error(net, field):
    """||h_M - h*|| and the slack for the rounding of h* itself."""
    truth = dense_solve(net.op).values
    return (np.max(np.abs(field.values - truth)),
            _SLACK * np.max(np.abs(truth)))


def _check_iteration_error_bound(bundle, net, field):
    meta, a = bundle.metadata, net.op.matrix
    assert meta["q_est"] == pytest.approx(
        np.max(np.sum(np.abs(a), axis=1)), rel=1e-12, abs=0.0)
    kappa = net.schedule.at(net.layers)
    lip = kappa * meta["q_est"] + (1.0 - kappa)
    bound = meta["iteration_error_bound"]
    assert (bound is None) == (lip >= 1.0)
    if bound is not None:
        err, slack = _iteration_error(net, field)
        assert bound >= err - slack


_KAPPA = st.one_of(st.just(1.0), st.floats(0.05, 1.0))


@st.composite
def _configs(draw):
    """A linear FIE with the smooth kernel s cos(c0 x + c1 z)
    exp(c2 (x - z)^2 / 10): ||A|| lands on both sides of 1."""
    s, c0, c1, c2 = (draw(st.integers(-150, 150)) / 100 for _ in range(4))
    layers = draw(st.integers(3, 24))
    return {
        "kind": "linear_fie",
        "kernel": f"({s!r})*cos(({c0!r})*x + ({c1!r})*z)"
                  f"*exp(({c2!r})*(x - z)^2/10)",
        "source": draw(st.sampled_from(["1", "cos(3*x)", "exp(x) - x"])),
        "domain": [0.0, 1.0],
        "grid_n": draw(st.integers(16, 64)),
        "grid_scheme": draw(st.sampled_from(["left", "midpoint", "closed"])),
        "layers": layers,
        "kappa": draw(st.one_of(_KAPPA, st.lists(
            _KAPPA, min_size=layers, max_size=layers))),
        "queries": "0:1:5",
    }


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_configs())
# a kappa that rounds Q = kappa q + 1 - kappa to 1.0 gives no figure
@example({"kind": "linear_fie", "kernel": "1/e", "source": "e^x",
          "domain": [0.0, 1.0], "grid_n": 16, "layers": 3, "kappa": 1e-17})
def test_iteration_error_bound_bounds_the_iteration_error(config):
    try:
        solved = _solve(lambda: run_config(config))
    except DivergenceError:
        return  # refused runs report no label
    _check_iteration_error_bound(*solved)


@pytest.mark.parametrize("name,overrides", [
    ("ex1", {"grid_n": 64}),
    ("ex1", {"grid_n": 64, "kappa": 0.7}),
    ("ex1", {"grid_n": 64, "kappa": [1.0, 0.9, 0.5, 0.8, 0.6, 0.7, 1.0,
                                     0.95, 0.55, 0.75]}),
    ("ex2", {"grid_n": 64}),
    ("bvp_p", {"grid_n": 64}),
    ("bvp_airy", {"grid_n": 64}),
])
def test_iteration_error_bound_on_registry_examples(name, overrides):
    _check_iteration_error_bound(
        *_solve(lambda: run_example(name, overrides=overrides)))


def _check_planner_bound(net, field):
    # an M-layer undamped net is M - 1 steps past h_1 = g, whose update
    # ||h_2 - h_1|| = ||A g|| is the bound's residual
    q, residual = budget_from_operator(net.op)
    if q < 1.0:
        err, slack = _iteration_error(net, field)
        assert error_bound(q, residual, net.layers - 1) >= err - slack


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_configs().map(lambda config: {**config, "kappa": 1.0}))
def test_planner_bound_bounds_the_iteration_error(config):
    try:
        _, net, field = _solve(lambda: run_config(config))
    except DivergenceError:
        return  # only draws with q >= 1 can be refused
    _check_planner_bound(net, field)


@pytest.mark.parametrize("name", ["ex1", "bvp_p"])
def test_planner_bound_on_registry_examples(name):
    _, net, field = _solve(lambda: run_example(name,
                                               overrides={"grid_n": 64}))
    assert net.schedule.at(1) == 1.0 and budget_from_operator(net.op)[0] < 1.0
    _check_planner_bound(net, field)


def _rho(matrix):
    return np.max(np.abs(np.linalg.eigvals(matrix)))


# a damped run the residual rule refuses: its residuals run 1, 1.265,
# 1.322, 1.324, 1.312, ... and it exits 0 from 8 layers on
_DAMPED = {"kind": "linear_fie",
           "kernel": "1.32*cos(1.32*x + 0.05*z)*exp(1.32*(x - z)^2/10)",
           "source": "1", "domain": [0, 1], "grid_n": 58, "layers": 5,
           "kappa": 0.7}


def test_refused_damped_run_contracts():
    op = discretize(FieProblem(
        kernel=compile_fn(parse(_DAMPED["kernel"]), ("x", "z")),
        source=compile_fn(parse(_DAMPED["source"]), ("x",))),
        uniform_grid(0.0, 1.0, _DAMPED["grid_n"]))
    w = 0.7 * op.matrix + 0.3 * np.eye(op.n)
    assert _rho(op.matrix) == pytest.approx(0.9805, abs=1e-4)
    assert _rho(w) == pytest.approx(0.9864, abs=1e-4)


@pytest.mark.xfail(strict=True, raises=DivergenceError,
                   reason="forward refuses any residual that grows for a "
                          "while, though rho(W) = 0.986 < 1")
def test_damped_run_with_spectral_radius_below_one_completes():
    run_config(_DAMPED)


def test_stalled_disc_run_does_not_contract():
    # A = -11^T dtheta / 2 pi has eigenvalues 0 and -1, so at kappa = 1
    # the layer map W = A never contracts the mean of the density
    op = build_bie(lambda phi: 1.0 + np.cos(2.0 * phi), 64)
    assert _rho(op.matrix) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.xfail(strict=True, raises=pytest.fail.Exception,
                   reason="the run updates by exactly 2.0 at every layer, "
                          "yet exits 0 with error 1.006")
def test_stalled_disc_run_is_refused():
    with pytest.raises(NumericalError):
        run_example("laplace_disc", overrides={"theta_n": 64, "kappa": 1.0,
                                               "layers": 30})


# a constant kernel with rho(A) = 1.0496 > 1: past the bias, whose update
# 0.857 is the largest, every update grows
_GROWING = {"kind": "linear_fie", "kernel": "(sqrt(exp(1))/abs(pi))",
            "source": "abs(x)", "domain": [-1, 1], "grid_n": 7, "layers": 6,
            "grid_scheme": "midpoint"}


def test_growing_run_has_spectral_radius_above_one():
    op = discretize(FieProblem(
        kernel=compile_fn(parse(_GROWING["kernel"]), ("x", "z")),
        source=compile_fn(parse(_GROWING["source"]), ("x",))),
        uniform_grid(-1.0, 1.0, 7, scheme="midpoint"))
    assert _rho(op.matrix) == pytest.approx(1.0496, abs=1e-4)
    deltas = forward(build_network(op, 6, KMSchedule(1.0))).deltas
    assert np.round(deltas[1:], 3).tolist() == [0.514, 0.54, 0.566, 0.594,
                                                0.624]


@pytest.mark.xfail(strict=True, raises=pytest.fail.Exception,
                   reason="rho(A) = 1.0496 and every update past the bias "
                          "grows, yet the run exits 0")
def test_run_with_spectral_radius_above_one_is_refused():
    with pytest.raises(NumericalError):
        run_config(_GROWING)
