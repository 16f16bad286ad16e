"""Reported labels against their ground truth.

Small problems run through the CLI pipeline, and each label is checked
against what it claims, with the truth solved densely at the same size:
``iteration_error_bound`` must bound ``||h_M - h*||``, the distance of
the last hidden layer from ``h* = dense_solve(op)``, up to the rounding
of the dense solve itself.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fredholm import cli
from fredholm.cli import run_config, run_example
from fredholm.errors import DivergenceError
from fredholm.network import dense_solve, forward

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


def _check_iteration_error_bound(bundle, net, field):
    meta, a = bundle.metadata, net.op.matrix
    assert meta["q_est"] == pytest.approx(
        np.max(np.sum(np.abs(a), axis=1)), rel=1e-12, abs=0.0)
    kappa = net.schedule.at(net.layers)
    lip = kappa * meta["q_est"] + (1.0 - kappa)
    bound = meta["iteration_error_bound"]
    assert (bound is None) == (lip >= 1.0)
    if bound is not None:
        truth = dense_solve(net.op)[0].values
        err = np.max(np.abs(field.values - truth))
        assert bound >= err - _SLACK * np.max(np.abs(truth))


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
