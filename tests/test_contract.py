"""A generated contract for every run.

Configs of all four kinds are drawn from the expression language and the
config schema: random expressions to depth 3 over each key's variables
and extreme constants, random sizes, relaxations, schemes, domains, exact
solutions, query sets and sweeps, all under the resource guards.  Each
drawn config is run and rendered twice in-process with every warning an
error, and the run must either report or refuse cleanly:

* only ValidationError (exit 2) or NumericalError (exit 3) escapes;
* a ValidationError names the config key, or the kind, it refuses;
* the JSON report is strict JSON (no Infinity or NaN);
* the second run renders byte for byte as the first.
"""

import functools
import json
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from fredholm.cli import run_config
from fredholm.errors import NumericalError, ValidationError
from fredholm.exprlang import FUNCTIONS
from fredholm.report import render_csv, render_json

_CONSTANTS = ("0", "1", "2.5", "-1", "1e308", "1e-300", "pi", "e")
_NUMBERS = st.sampled_from((-1.0, 0.0, 0.5, 1.0, 2.5, 1e308))
_ENDS = st.sampled_from((-1.0, 0.0, 0.5, 1.0, 2.0))
# four intervals and one that is refused
_DOMAIN = st.sampled_from(([0.0, 1.0], [-1.0, 1.0], [0.0, 2.0], [0.5, 1.0],
                           [1.0, 0.0]))


@functools.cache  # built once: hypothesis validates each new strategy
def _expr(names, depth=3):
    """Expression text over ``names`` and the constants, nested at most
    ``depth`` operators or calls deep."""
    atom = st.sampled_from(tuple(names) + _CONSTANTS)
    if depth == 0:
        return atom
    kid = _expr(names, depth - 1)
    return st.one_of(
        atom,
        kid.map(lambda a: f"-({a})"),
        st.tuples(kid, st.sampled_from("+-*/^"), kid).map(
            lambda t: f"({t[0]}) {t[1]} ({t[2]})"),
        st.tuples(st.sampled_from(FUNCTIONS), kid).map(
            lambda t: f"{t[0]}({t[1]})"))


_KAPPA = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
             min_size=1, max_size=20))
_SIZE = st.integers(1, 40)
_LAYERS = st.integers(1, 12)
_SCHEME = st.sampled_from(("left", "midpoint", "closed", "gauss"))
_QUERIES_1D = st.one_of(
    st.tuples(_ENDS, _ENDS, st.integers(1, 40)).map(
        lambda t: f"{min(t[:2])}:{max(t[:2])}:{t[2]}"),
    st.lists(_ENDS, min_size=1, max_size=8))
_QUERIES_POLAR = st.one_of(
    st.tuples(st.sampled_from((0.5, 1.0, 1.5)), st.integers(1, 6),
              st.integers(1, 6)).map(lambda t: {
                  "r": f"0:{t[0]}:{t[1]}",
                  "phi": f"0:6.283185307179586:{t[2]}"}),
    st.lists(st.tuples(st.sampled_from((0.0, 0.5, 1.0, 1.5)),
                       st.sampled_from((-1.0, 0.0, 3.0, 7.0))).map(list),
             min_size=1, max_size=8))


def _with_optional(draw, config, optional):
    """``config`` with each of the ``optional`` keys drawn or left out."""
    for key, strategy in optional.items():
        if draw(st.booleans()):
            config[key] = draw(strategy)
    return config


@st.composite
def _configs(draw):
    kind = draw(st.sampled_from(
        ("linear_fie", "nonlinear_fie", "bvp", "laplace_disc")))
    if kind == "laplace_disc":
        config = {"kind": kind, "boundary": draw(_expr(("phi",))),
                  "theta_n": draw(_SIZE), "layers": draw(_LAYERS)}
        optional = {"kappa": _KAPPA, "queries": _QUERIES_POLAR,
                    "exact": _expr(("r", "phi"))}
    else:
        optional = {"kappa": _KAPPA, "grid_scheme": _SCHEME,
                    "queries": _QUERIES_1D, "exact": _expr(("x",))}
        if kind == "bvp":
            config = {"kind": kind, "g": draw(_expr(("x",))),
                      "h": draw(_expr(("x",))), "alpha": draw(_NUMBERS),
                      "beta": draw(_NUMBERS)}
        else:
            config = {"kind": kind, "kernel": draw(_expr(("x", "z"))),
                      "source": draw(_expr(("x",))),
                      "domain": draw(_DOMAIN)}
            if kind == "nonlinear_fie":
                config["nonlinearity"] = draw(_expr(("u",)))
        config.update(grid_n=draw(_SIZE), layers=draw(_LAYERS))
    return _with_optional(draw, config, optional)


def _refuse_constant(name):
    raise AssertionError(f"non-strict JSON constant {name}")


def _renders(config, sweep):
    bundle = run_config(config, sweep_layers=sweep)
    return render_csv(bundle), render_json(bundle)


@settings(derandomize=True, database=None, max_examples=250, deadline=None)
@given(_configs(), st.sampled_from((None, 3, 15)))
def test_every_run_reports_or_refuses_cleanly(config, sweep):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            first = _renders(config, sweep)
        except ValidationError as exc:
            assert str(exc).startswith(("config key", "config for kind")), exc
            return
        except NumericalError:
            return
        second = _renders(config, sweep)
    assert first == second
    json.loads(first[1], parse_constant=_refuse_constant)
