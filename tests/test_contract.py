"""A generated contract for every run.

Configs of all four kinds are drawn from the expression language and the
config schema: random expressions to depth 3 over each key's variables
and extreme constants, random sizes, relaxations, schemes, domains, exact
solutions, query sets and sweeps, all under the resource guards.  Each
drawn config is run and rendered twice in-process with every warning an
error, and the run must either report or refuse cleanly:

* only ValidationError (exit 2) or NumericalError (exit 3) escapes;
* a ValidationError names the config key, or the kind, it refuses, and
  comes before the kind's setup, which only builds;
* the JSON report is strict JSON (no Infinity or NaN);
* the second run renders byte for byte as the first.

Configs drawn just above one of the resource guards must be refused
before any kernel sample, under the key that guard charges; so must a
valid config with one number or count replaced by a value that is none.
"""

import functools
import json
import math
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fredholm import cli
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


def _refusing_nothing(setup):
    """``setup``, failing the test on a ValidationError: every key is
    judged before a setup samples anything."""
    def run(*args):
        try:
            return setup(*args)
        except ValidationError as exc:
            raise AssertionError(f"a setup refused: {exc}") from exc
    return run


@settings(derandomize=True, database=None, max_examples=250, deadline=None)
@given(_configs(), st.sampled_from((None, 3, 15)))
def test_every_run_reports_or_refuses_cleanly(config, sweep):
    if sweep is not None:  # 3 layers or, from 15, all the run has
        sweep = min(sweep, config["layers"])
    spec = cli._KINDS[config["kind"]]
    with warnings.catch_warnings(), mock.patch.dict(
            spec, setup=_refusing_nothing(spec["setup"])):
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


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(_configs(), st.integers(1, 20))
def test_a_sweep_deeper_than_the_run_is_refused_before_any_sample(config,
                                                                  more):
    layers = config["layers"]
    sweep = layers + more

    def sample(*args, **kwargs):
        raise AssertionError("a refused sweep reached its setup")

    with mock.patch.object(cli, "discretize", sample), \
            mock.patch.object(cli, "green_operator", sample), \
            mock.patch.object(cli, "build_bie", sample), \
            pytest.raises(ValidationError) as exc:
        run_config(config, sweep_layers=sweep)
    size = "theta_n" if config["kind"] == "laplace_disc" else "grid_n"
    if config[size] < 2 and (size == "theta_n"
                             or config.get("grid_scheme") == "closed"):
        # a size below its least of two nodes is judged first
        assert str(exc.value) == (f"config key {size!r}: {size} must be "
                                  f"an integer >= 2, got 1")
        return
    assert str(exc.value) == (f"sweep depth {sweep}: the run has {layers} "
                              f"layers; set --layers {sweep} to sweep them")


# one valid config of each kind, whose sizes the guard draws replace
_BASE = {
    "linear_fie": {"kind": "linear_fie", "kernel": "x*z", "source": "1",
                   "domain": [0.0, 1.0], "grid_n": 8, "layers": 4},
    "nonlinear_fie": {"kind": "nonlinear_fie", "kernel": "x*z",
                      "source": "1", "nonlinearity": "u^2",
                      "domain": [0.0, 1.0], "grid_n": 8, "layers": 4},
    "bvp": {"kind": "bvp", "g": "x", "h": "1", "alpha": 0.0, "beta": 1.0,
            "grid_n": 8, "layers": 4},
    "laplace_disc": {"kind": "laplace_disc", "boundary": "cos(phi)",
                     "theta_n": 8, "layers": 4},
}


def _queries(kind, count, rings):
    """A query set of ``count`` points or more of ``kind``."""
    if kind != "laplace_disc":
        return f"0:1:{count}"
    return {"r": f"0:1:{rings}", "phi": f"0:6:{-(-count // rings)}"}


def _over_a_guard(kind, guard, over, small, n, rings):
    """(config, sweep, key, text): a config of ``kind`` ``over`` units
    above ``guard``, and the key (None for the sweep depth) and text its
    refusal must carry."""
    config = dict(_BASE[kind])
    size = "theta_n" if kind == "laplace_disc" else "grid_n"
    sweep = None
    if guard == "size":  # the N^2 matrix alone is over the cap
        config[size] = math.isqrt(cli._MAX_CELLS) + over
        return config, sweep, size, "dense cells"
    config[size] = small
    if guard == "queries":
        config["queries"] = _queries(kind, cli._MAX_CELLS // 128 + over,
                                     rings)
        return config, sweep, "queries", "dense cells"
    if guard == "layers":  # each layer records its update
        config["layers"] = cli._MAX_CELLS // 20 + over
    elif guard == "sweep":  # S = layers records and rows, P > N
        config["queries"] = _queries(kind, 101, 1)
        held = 20 + 60
        if kind.endswith("_fie"):  # errors: S iterates, errors, G's copy
            config["exact"] = "1"
            held += small + 9 * (101 + small * (kind == "nonlinear_fie")) // 8
        fixed = small ** 2 + 128 * 101 + 2 * 32 * small
        sweep = config["layers"] = (cli._MAX_CELLS - fixed) // held + over
        return config, sweep, None, "dense cells"
    else:
        config[size] = n
        config["layers"] = cli._MAX_WORK // (n * n) + 1 + over
        return config, sweep, "layers", "multiply-adds"
    return config, sweep, "layers", "dense cells"


@pytest.mark.parametrize("guard", ("size", "queries", "layers", "sweep",
                                   "work"))
@pytest.mark.parametrize("kind", sorted(_BASE))
@settings(derandomize=True, database=None, max_examples=10, deadline=None)
@given(over=st.integers(1, 1000), small=st.integers(2, 40),
       n=st.integers(1000, 6000), rings=st.sampled_from((1, 7, 625)))
def test_runs_just_above_a_guard_are_refused_under_its_key(
        kind, guard, over, small, n, rings):
    config, sweep, key, text = _over_a_guard(kind, guard, over, small, n,
                                             rings)

    def sample(*args, **kwargs):
        raise AssertionError("a guarded run reached its setup")

    with mock.patch.object(cli, "discretize", sample), \
            mock.patch.object(cli, "green_operator", sample), \
            mock.patch.object(cli, "build_bie", sample):
        try:
            run_config(config, sweep_layers=sweep)
        except ValidationError as exc:
            message = str(exc)
        else:
            raise AssertionError("the run was not refused")
    prefix = (f"sweep depth {sweep}: " if key is None
              else f"config key {key!r}: ")
    assert message.startswith(prefix), message
    assert text in message, message


_NOT_NUMBERS = (True, "1", math.nan, math.inf, -math.inf, 10 ** 400)
_COUNTS = ("grid_n", "theta_n", "layers")
_CORRUPTIBLE = {*_COUNTS, "domain", "alpha", "beta", "kappa", "queries"}
_UNIT = st.floats(min_value=0.0, max_value=1.0)
_POSITIVE_UNIT = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)


@st.composite
def _corrupted(draw):
    """(valid config, corrupted copy, key): a drawn valid config of a drawn
    kind, and a copy with one number or count under config key ``key`` (an
    end of ``domain``, ``alpha``, ``beta``, ``kappa`` or one of its
    entries, a ``queries`` entry or pair coordinate, a size or ``layers``)
    replaced by a value no rule accepts."""
    kind = draw(st.sampled_from(sorted(_BASE)))
    config = dict(_BASE[kind], kappa=draw(st.one_of(
        _POSITIVE_UNIT, st.lists(_POSITIVE_UNIT, min_size=4, max_size=6))))
    if kind == "laplace_disc":
        config["queries"] = draw(st.lists(st.tuples(_UNIT, st.floats(
            -10.0, 10.0)).map(list), min_size=1, max_size=4))
    else:
        config["queries"] = draw(st.lists(_UNIT, min_size=1, max_size=4))
    if kind == "bvp":
        config.update(alpha=draw(st.floats(-5.0, 5.0)),
                      beta=draw(st.floats(-5.0, 5.0)))
    key = draw(st.sampled_from(sorted(set(config) & _CORRUPTIBLE)))
    path, value = (key,), config[key]
    # down to one number: an end, entry or coordinate, or kappa whole
    while isinstance(value, list) and (key != "kappa" or draw(st.booleans())):
        i = draw(st.integers(0, len(value) - 1))
        path, value = path + (i,), value[i]
    bad = draw(st.sampled_from(_NOT_NUMBERS + (2.5,) * (key in _COUNTS)))
    corrupt = json.loads(json.dumps(config))
    if path == ("layers",) and isinstance(config["kappa"], list):
        corrupt["kappa"] = 0.5  # else the short kappa list is refused first
    *parents, last = path
    target = corrupt
    for step in parents:
        target = target[step]
    target[last] = bad
    return config, corrupt, key


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_corrupted())
def test_a_corrupted_number_or_count_is_refused_under_its_key(drawn):
    config, corrupt, key = drawn
    try:  # the drawn config is valid: it reports or fails numerically
        run_config(config)
    except NumericalError:
        pass

    def sample(*args, **kwargs):
        raise AssertionError("a corrupted config reached a kernel sample")

    with mock.patch.object(cli, "discretize", sample), \
            mock.patch.object(cli, "green_operator", sample), \
            mock.patch.object(cli, "build_bie", sample), \
            mock.patch.object(cli, "_sample", sample):
        with pytest.raises(ValidationError) as exc:
            run_config(corrupt)
    message = str(exc.value)
    assert message.startswith(f"config key {key!r}: "), message
    # a count of 10**400 is an integer, refused by the cell guard; the
    # disc's angle grid needs two nodes
    least = 2 if key == "theta_n" else 1
    reasons = ((f"must be an integer >= {least}, got ",
                " dense cells, over the cap")
               if key in _COUNTS else ("must be a finite number, got ",))
    assert any(reason in message for reason in reasons), message
