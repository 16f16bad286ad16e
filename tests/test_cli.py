"""Command-line interface: schemas, exit codes, determinism, overrides."""

import json
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from fredholm import cli
from fredholm.cli import main, run_compare_fd, run_config, run_example
from fredholm.errors import DomainError, ValidationError
from fredholm.exprlang import compile_fn, parse
from fredholm.grid import uniform_grid
from fredholm.network import (build_network, evaluation_layer, forward,
                              layer_sweep)
from fredholm.operator import FieProblem, KMSchedule, discretize
from fredholm.registry import example_names, get_example
from fredholm.report import render_csv, render_json

LINEAR_CONFIG = {
    "kind": "linear_fie",
    "kernel": "1/e",
    "source": "e^x",
    "domain": [0.0, 1.0],
    "grid_n": 200,
    "grid_scheme": "closed",
    "layers": 8,
    "kappa": 1.0,
    "queries": "0:1:21",
    "exact": "e^x + 1",
}


def _write_config(tmp_path, config, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


def _run_cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "fredholm", *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def _as_example(name, **changes):
    """A config mutation that turns the config into registry entry
    ``name``'s, with ``changes``."""
    def mutate(config):
        config.clear()
        config.update(get_example(name).config, **changes)
    return mutate


# ---------------------------------------------------------------------------
# run_config library surface

def test_run_config_produces_error_columns():
    bundle = run_config(LINEAR_CONFIG)
    assert bundle.kind == "linear_fie"
    assert len(bundle.rows) == 21
    assert bundle.max_abs_err() < 0.01
    assert bundle.metadata["q_est"] < 1.0
    assert bundle.metadata["runtime_seconds"] is None


def test_run_config_runtime_reported_when_not_deterministic():
    bundle = run_config(LINEAR_CONFIG, deterministic=False)
    assert bundle.metadata["runtime_seconds"] > 0.0


@pytest.mark.parametrize("mutate,fragment", [
    (lambda c: c.pop("kind"), "kind"),
    (lambda c: c.update(kind="magic"), "kind"),
    (lambda c: c.pop("kernel"), "missing"),
    (lambda c: c.update(extra=1), "unknown keys"),
    (lambda c: c.update(kernel="sin(x*")," at offset 6"),
    (lambda c: c.update(kernel="sin(q)*z"), "unexpected variable"),
    # LINEAR_CONFIG's grid is closed: it needs two nodes at least
    pytest.param(lambda c: c.update(grid_n=-5),
                 "config key 'grid_n': grid_n must be an integer >= 2, "
                 "got -5", id="<lambda>-positive integer0"),
    pytest.param(lambda c: c.update(grid_n=2.5),
                 "config key 'grid_n': grid_n must be an integer >= 2, "
                 "got 2.5", id="<lambda>-positive integer1"),
    (lambda c: c.update(domain=[1.0, 0.0]), "domain"),
    (lambda c: c.update(domain=[0.0]), "domain"),
    (lambda c: c.update(queries="0:1"), "start:stop:count"),
    (lambda c: c.update(queries=[]), "queries"),
    (lambda c: c.update(queries=[True, 0.5]), "queries"),
    (lambda c: c.update(queries=["0.25", "1e-1"]), "queries"),
    (lambda c: c.update(kappa=2.0), "kappa"),
    (lambda c: c.update(kappa="big"), "kappa"),
    # the library's own refusals, under the config key that caused them
    pytest.param(lambda c: c.update(grid_scheme="gauss"),
                 "config key 'grid_scheme': unknown scheme 'gauss'; pick from",
                 id="<lambda>-scheme"),
    pytest.param(lambda c: c.update(grid_n=1),
                 "config key 'grid_n': grid_n must be an integer >= 2, got 1",
                 id="grid_n-closed"),
    pytest.param(_as_example("laplace_disc", theta_n=1),
                 "config key 'theta_n': theta_n must be an integer >= 2, "
                 "got 1",
                 id="theta_n"),
    pytest.param(lambda c: c.update(queries=[0.5, 1.5]),
                 "config key 'queries': query point 1.5 outside [0.0, 1.0]",
                 id="queries-linear_fie"),
    pytest.param(_as_example("bvp_p", queries="-1:1:5"),
                 "config key 'queries': query point -1.0 outside [0.0, 1.0]",
                 id="queries-bvp"),
    pytest.param(_as_example("laplace_disc",
                             queries=[[0.5, 0.0], [1.5, 0.0]]),
                 "config key 'queries': query radius outside [0, 1]",
                 id="queries-laplace_disc"),
])
def test_run_config_validation_messages(mutate, fragment):
    config = dict(LINEAR_CONFIG)
    mutate(config)
    with pytest.raises(ValidationError) as exc:
        run_config(config)
    message = str(exc.value)
    assert fragment in message
    if fragment.startswith("config key"):
        assert message.startswith(fragment)


def _no_setup(monkeypatch):
    def setup(*args):
        raise AssertionError("a kernel was sampled")

    monkeypatch.setitem(cli._KINDS["linear_fie"], "setup", setup)


@pytest.mark.parametrize("key,value", [
    ("grid_n", 2.5), ("grid_n", True), ("layers", 2.0), ("layers", True)])
def test_config_counts_must_be_integers(tmp_path, capsys, monkeypatch, key,
                                        value):
    _no_setup(monkeypatch)
    path = _write_config(tmp_path, dict(LINEAR_CONFIG, **{key: value}))
    assert main(["solve", path]) == 2
    least = 2 if key == "grid_n" else 1  # LINEAR_CONFIG's grid is closed
    assert capsys.readouterr().err == (
        f"error: config key {key!r}: {key} must be an integer >= {least}, "
        f"got {value!r}\n")


@pytest.mark.parametrize("sweep", [1.5, True, 0])
def test_sweep_depth_must_be_an_integer(monkeypatch, sweep):
    # 1.5 once died with a TypeError; True was refused as a history length
    _no_setup(monkeypatch)
    with pytest.raises(ValidationError) as exc:
        run_config(LINEAR_CONFIG, sweep_layers=sweep)
    assert str(exc.value) == (
        f"sweep depth must be an integer >= 1, got {sweep!r}")


def test_numpy_integer_counts_run_as_their_ints():
    config = dict(LINEAR_CONFIG, grid_n=np.int64(200), layers=np.int32(8))
    bundle = run_config(config, sweep_layers=np.int64(6))
    plain = run_config(LINEAR_CONFIG, sweep_layers=6)
    for render in (render_csv, render_json):
        assert render(bundle) == render(plain)


_BVP_CONFIG = get_example("bvp_p").config
_DISC_CONFIG = get_example("laplace_disc").config
_RANGE = "needs finite start <= stop and count >= 1"


@pytest.mark.parametrize("config,line", [
    (dict(LINEAR_CONFIG, kernel=1),
     "config key 'kernel': must be an expression string, got int"),
    (dict(_BVP_CONFIG, alpha="1"),
     "config key 'alpha': alpha must be a finite number, got '1'"),
    (dict(_BVP_CONFIG, beta=float("nan")),
     "config key 'beta': beta must be a finite number, got nan"),
    (dict(LINEAR_CONFIG, queries="0:x:3"),
     "config key 'queries': cannot parse range '0:x:3'"),
    (dict(LINEAR_CONFIG, queries="1:0:3"),
     f"config key 'queries': range '1:0:3' {_RANGE}"),
    (dict(LINEAR_CONFIG, queries="0:inf:3"),
     f"config key 'queries': range '0:inf:3' {_RANGE}"),
    (dict(LINEAR_CONFIG, queries="0:1:0"),
     f"config key 'queries': range '0:1:0' {_RANGE}"),
    (dict(LINEAR_CONFIG, queries=5),
     "config key 'queries': must be a start:stop:count string or a number "
     "list, got 5"),
    (dict(_DISC_CONFIG, queries={"r": 1, "phi": "0:1:3"}),
     "config key 'queries': lattice ranges must be start:stop:count "
     "strings"),
    (dict(_DISC_CONFIG, queries="0:1:3"),
     "config key 'queries': must be an r/phi lattice or a pair list, got "
     "'0:1:3'"),
    (dict(LINEAR_CONFIG, kappa=[0.5, "x"]),
     "config key 'kappa': kappa sequence entry must be a finite number, "
     "got 'x'"),
    ([LINEAR_CONFIG], "config {path!r} must be a JSON object"),
], ids=["expression", "alpha", "beta", "range_parse", "range_order",
        "range_finite", "range_count", "queries_type", "lattice_ranges",
        "polar_queries_type", "kappa_entry", "not_an_object"])
def test_config_refusals_exit_2_before_any_sample(tmp_path, capsys,
                                                  monkeypatch, config, line):
    _refuse_allocation(monkeypatch)  # discretize and build_bie must not run
    path = _write_config(tmp_path, config)
    assert main(["solve", path]) == 2
    assert capsys.readouterr().err == f"error: {line.format(path=path)}\n"


def test_run_config_refuses_a_config_that_is_not_a_mapping(monkeypatch):
    _refuse_allocation(monkeypatch)
    with pytest.raises(ValidationError) as exc:
        run_config([LINEAR_CONFIG])
    assert str(exc.value) == "config must be a JSON object"


_PAST_A_FLOAT = 10 ** 400


@pytest.mark.parametrize("argv,head,need", [
    (["solve", {"grid_n": _PAST_A_FLOAT}], "config key 'grid_n': grid 1000",
     "need 1.00e+800 dense cells"),
    (["solve", {"layers": _PAST_A_FLOAT}], "config key 'layers': grid 200,",
     "need 9.00e+400 dense cells"),
    (["solve", {"queries": f"0:1:{_PAST_A_FLOAT}"}],
     "config key 'queries': grid 200,", "need 1.28e+402 dense cells"),
    (["example", "laplace_disc", "--grid", str(_PAST_A_FLOAT)],
     "config key 'theta_n': grid 1000", "need 1.00e+800 dense cells"),
    (["example", "ex1", "--layers", str(_PAST_A_FLOAT), "--sweep",
      str(_PAST_A_FLOAT)], "sweep depth 1000", "need 2.26e+403 dense cells"),
], ids=["grid_n", "layers", "queries", "theta_n_flag", "sweep_flag"])
def test_counts_past_a_float_are_refused_under_their_key(
        tmp_path, capsys, monkeypatch, argv, head, need):
    # the guard's total once overflowed its float format (exit 1)
    _refuse_allocation(monkeypatch)
    if isinstance(argv[1], dict):
        argv = ["solve", _write_config(tmp_path, dict(LINEAR_CONFIG,
                                                      **argv[1]))]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {head}") and need in err, err


def test_an_integer_past_the_str_digit_limit_is_invalid_json(tmp_path,
                                                              capsys):
    path = tmp_path / "long.json"
    path.write_text('{"kind": "linear_fie", "grid_n": ' + "1" * 5000 + "}",
                    encoding="utf-8")
    assert main(["solve", str(path)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: config {str(path)!r} is not valid JSON: Exceeds the limit")


def _without(*keys):
    def mutate(config):
        for key in keys:
            del config[key]
    return mutate


@pytest.mark.parametrize("name,mutate,text", [
    ("ex1", _without("kernel"),
     "config for kind 'linear_fie' is missing ['kernel']"),
    ("nl1", _without("nonlinearity"),
     "config for kind 'nonlinear_fie' is missing ['nonlinearity']"),
    ("nl1", _without("kernel", "domain"),
     "config for kind 'nonlinear_fie' is missing ['domain', 'kernel']"),
    ("ex1", lambda c: c.update(nonlinearity="u"),
     "config for kind 'linear_fie' has unknown keys ['nonlinearity']"),
    ("nl1", lambda c: c.update(extra=1, theta_n=8),
     "config for kind 'nonlinear_fie' has unknown keys ['extra', 'theta_n']"),
], ids=["linear_missing", "nonlinear_missing_g", "nonlinear_missing_two",
        "linear_unknown", "nonlinear_unknown"])
def test_fredholm_kinds_schema_refusals(name, mutate, text):
    config = dict(get_example(name).config)
    mutate(config)
    with pytest.raises(ValidationError) as exc:
        run_config(config)
    assert str(exc.value) == text


def test_nonlinear_fie_compiles_kernel_source_then_nonlinearity():
    good = get_example("nl1").config
    config = dict(good, kernel="x +", source="y", nonlinearity="log(")
    for key in ("kernel", "source", "nonlinearity"):
        with pytest.raises(ValidationError) as exc:
            run_config(config)
        assert str(exc.value).startswith(f"config key {key!r}: ")
        config[key] = good[key]


_META_COMMON = {"config", "deterministic", "runtime_seconds", "example",
                "layers", "grid_iterations", "kappa", "layer_deltas",
                "final_delta"}
_META_1D = _META_COMMON | {"grid_n", "scheme"}
_COLUMNS_1D = ("x", "value", "exact", "abs_err")
# only the kinds whose operator is a linear map report its ||A|| as q_est,
# and with it the a-posteriori iteration_error_bound
_REPORT_CONTRACT = {
    "linear_fie": (_META_1D | {"q_est", "iteration_error_bound"},
                   _COLUMNS_1D, "max_err"),
    "nonlinear_fie": (_META_1D, _COLUMNS_1D, "max_err"),
    "bvp": (_META_1D | {"q_est", "iteration_error_bound", "ode_residual",
                        "alpha", "beta"}, _COLUMNS_1D, "max_update"),
    "laplace_disc": (_META_COMMON | {"theta_n", "density_mean",
                                     "projected_potential"},
                     ("r", "phi", "value", "exact", "abs_err"), "max_update"),
}


@pytest.mark.parametrize("name", example_names())
def test_report_contract_per_kind(name):
    meta_keys, columns, sweep_column = _REPORT_CONTRACT[
        get_example(name).config["kind"]]
    for sweep in (None, 2):
        bundle = run_example(name, sweep_layers=sweep)
        assert set(bundle.metadata) == meta_keys
        assert bundle.columns == columns
        assert all(len(row) == len(columns) for row in bundle.rows)
        assert bundle.sweep_column == sweep_column
        assert (bundle.sweep is None) == (sweep is None)
        # every kind reports the updates its verdict read
        deltas = bundle.metadata["layer_deltas"]
        assert len(deltas) == bundle.metadata["layers"]
        assert bundle.metadata["final_delta"] == deltas[-1]


def test_run_config_exact_optional():
    config = {k: v for k, v in LINEAR_CONFIG.items() if k != "exact"}
    bundle = run_config(config)
    assert bundle.max_abs_err() is None
    assert all(row[2] is None and row[3] is None for row in bundle.rows)


def test_run_config_query_list():
    config = dict(LINEAR_CONFIG, queries=[0.0, 0.5, 1.0])
    bundle = run_config(config)
    assert [row[0] for row in bundle.rows] == [0.0, 0.5, 1.0]


def test_run_config_sweep_table():
    bundle = run_config(LINEAR_CONFIG, sweep_layers=6)
    assert [m for m, _ in bundle.sweep] == [1, 2, 3, 4, 5, 6]
    errs = [e for _, e in bundle.sweep]
    # geometric decay until the quadrature floor takes over near 6e-3
    assert all(b < a for a, b in zip(errs[:4], errs[1:4]))
    assert min(errs) < errs[0] / 20
    assert errs[-1] < 1e-2


def test_run_example_matches_registry():
    bundle = run_example("ex1", overrides={"grid_n": 200, "layers": 8})
    assert bundle.metadata["example"] == "ex1"
    assert bundle.metadata["config"]["grid_n"] == 200
    assert bundle.max_abs_err() < 0.02


def test_run_example_rejects_unknown_names_and_overrides():
    with pytest.raises(ValidationError) as exc:
        run_example("nope")
    assert "ex1" in str(exc.value)
    with pytest.raises(ValidationError):
        run_example("ex1", overrides={"theta_n": 100})


class _Allocated(Exception):
    """Raised in place of the first dense allocation of a run."""


def _refuse_allocation(monkeypatch):
    def allocate(*args, **kwargs):
        raise _Allocated

    for name in ("discretize", "build_bie"):
        monkeypatch.setattr(cli, name, allocate)


@pytest.mark.parametrize("value", [0, 1, True])
@pytest.mark.parametrize("key", ["grid_n", "theta_n"])
def test_a_size_that_needs_two_nodes_has_one_least(monkeypatch, key, value):
    # a closed grid and the disc's angle grid need two nodes: 0, 1 and True
    # are refused alike, under the size key, before any allocation
    _refuse_allocation(monkeypatch)
    config = (dict(LINEAR_CONFIG, grid_n=value) if key == "grid_n"
              else dict(_DISC_CONFIG, theta_n=value))
    assert LINEAR_CONFIG["grid_scheme"] == "closed"
    with pytest.raises(ValidationError) as exc:
        run_config(config)
    assert str(exc.value) == (f"config key {key!r}: {key} must be an "
                              f"integer >= 2, got {value!r}")


@pytest.mark.parametrize("config,key,reason", [
    (dict(LINEAR_CONFIG, domain="oops"), "domain",
     "must be a [a, b] number pair, got 'oops'"),
    (dict(LINEAR_CONFIG, domain=[1, 0]), "domain",
     "needs a < b, got [1.0, 0.0]"),
    (dict(_BVP_CONFIG, alpha="a"), "alpha",
     "alpha must be a finite number, got 'a'"),
    (dict(LINEAR_CONFIG, grid_scheme="bogus"), "grid_scheme",
     "unknown scheme 'bogus'; pick from ('left', 'midpoint', 'closed')"),
], ids=["domain_pair", "domain_order", "alpha", "grid_scheme"])
def test_a_malformed_key_is_refused_before_the_guards(monkeypatch, config,
                                                      key, reason):
    # every key is judged before the guards charge the run: with a grid
    # the cell guard refuses, the malformed key is still the one named
    _refuse_allocation(monkeypatch)
    with pytest.raises(ValidationError) as exc:
        run_config(dict(config, grid_n=10 ** 6))
    assert str(exc.value) == f"config key {key!r}: {reason}"


@pytest.mark.parametrize("config,sweep", [
    (dict(LINEAR_CONFIG, grid_n=7072), None),
    (dict(LINEAR_CONFIG, queries="0:1:3200000"), None),
    (dict(LINEAR_CONFIG, queries=[0.5] * 3200000), None),
    (dict(LINEAR_CONFIG, layers=10 ** 12), 10 ** 12),
    (dict(get_example("nl3").config, grid_n=10 ** 6), None),
    (dict(get_example("bvp_p").config, grid_n=10 ** 5), 3),
    (dict(get_example("laplace_disc").config, theta_n=10 ** 5), None),
    (dict(get_example("laplace_disc").config,
          queries={"r": "0:1:10000", "phi": "0:6:10000"}), None),
    # each layer records its update, whatever the grid
    (dict(get_example("nl1").config, grid_n=3, layers=10 ** 7), None),
])
def test_footprint_guard_refuses_before_allocation(monkeypatch, config,
                                                   sweep):
    _refuse_allocation(monkeypatch)
    with pytest.raises(ValidationError) as exc:
        run_config(config, sweep_layers=sweep)
    assert "dense cells" in str(exc.value)


@pytest.mark.parametrize("queries", [[], [[0.5]], [[True, 0.0]],
                                     {"r": "0:1:3"}])
def test_polar_query_validation_before_allocation(monkeypatch, queries):
    _refuse_allocation(monkeypatch)
    config = dict(get_example("laplace_disc").config, queries=queries)
    with pytest.raises(ValidationError) as exc:
        run_config(config)
    assert "'queries'" in str(exc.value)


@pytest.mark.parametrize("name,queries,message", [
    ("ex1", [0.5, 1.5], "query point 1.5 outside [0.0, 1.0]"),
    ("ex1", [0.5, float("nan")],
     "query point must be a finite number, got nan"),
    ("nl1", "0:2:3", "query point 2.0 outside [0.0, 1.0]"),
    ("bvp_p", "-1:1:5", "query point -1.0 outside [0.0, 1.0]"),
    ("laplace_disc", [[0.5, 0.0], [1.5, 0.0]], "query radius outside [0, 1]"),
    ("laplace_disc", {"r": "0:1.5:4", "phi": "0:1:2"},
     "query radius outside [0, 1]"),
    ("laplace_disc", [[0.5, float("inf")]],
     "query angle must be a finite number, got inf"),
], ids=["linear_fie", "nan", "nonlinear_fie", "bvp", "disc_pairs",
        "disc_lattice", "disc_angle"])
def test_query_points_refused_before_any_sample(monkeypatch, name, queries,
                                                message):
    # the output layer's own check runs on the grid (before build_bie on
    # the disc), ahead of the kernel, source and bvp coefficient samples
    _refuse_allocation(monkeypatch)

    def sample(*args, **kwargs):
        raise _Allocated

    monkeypatch.setattr(cli, "_sample", sample)
    with pytest.raises(ValidationError) as exc:
        run_example(name, overrides={"queries": queries})
    assert str(exc.value) == f"config key 'queries': {message}"


def test_query_flag_refused_before_any_sample(monkeypatch, capsys):
    _refuse_allocation(monkeypatch)
    assert main(["example", "ex1", "--queries", "0.5:1.5:3"]) == 2
    assert capsys.readouterr().err == (
        "error: config key 'queries': query point 1.5 outside [0.0, 1.0]\n")


@pytest.mark.parametrize("name,overrides,sweep,text", [
    ("ex1", {"grid_n": 8000}, None,
     "config key 'grid_n': grid 8000, 201 query points, 10 layers and "
     "sweep 0 need 6.45e+07 dense cells, over the cap of 5e+07"),
    ("laplace_disc", {"theta_n": 8000}, None,
     "config key 'theta_n': grid 8000, 861 query points, 15 layers and "
     "sweep 0 need 6.46e+07 dense cells, over the cap of 5e+07"),
    ("ex1", {"queries": "0:1:400000"}, None,
     "config key 'queries': grid 2000, 400000 query points, 10 layers and "
     "sweep 0 need 5.53e+07 dense cells, over the cap of 5e+07"),
    ("ex1", {"grid_n": 3, "layers": 6 * 10 ** 6}, None,
     "config key 'layers': grid 3, 201 query points, 6000000 layers and "
     "sweep 0 need 5.4e+07 dense cells, over the cap of 5e+07"),
    ("ex2", {"layers": 10 ** 5}, 10 ** 5,
     "sweep depth 100000: grid 2000, 201 query points, 100000 layers and "
     "sweep 100000 need 2.3e+08 dense cells, over the cap of 5e+07"),
    ("ex1", {"layers": 10 ** 6}, None,
     "config key 'layers': 1000000 layers and sweep 0 on grid 2000 need "
     "4e+12 multiply-adds, over the cap of 9e+11"),
], ids=["grid_n", "theta_n", "queries", "layers", "sweep", "work"])
def test_guard_refusals_name_the_key_charged_most(monkeypatch, name,
                                                   overrides, sweep, text):
    # the cell guard names the key whose terms charge the most cells: the
    # N^2 matrix, the query points, the per-layer records, or the sweep
    # depth for its history, error table and rows; the work guard names
    # layers for the solve's matvecs
    _refuse_allocation(monkeypatch)
    with pytest.raises(ValidationError) as exc:
        run_example(name, overrides=overrides, sweep_layers=sweep)
    assert str(exc.value) == text


def test_footprint_guard_cap_edge(monkeypatch, capsys):
    _refuse_allocation(monkeypatch)
    # 7070^2 + 2 * 7070 + 200 cells fit under the 50e6 cap, 7071^2 +
    # 2 * 7071 + 200 do not
    with pytest.raises(_Allocated):
        run_config(dict(LINEAR_CONFIG, grid_n=7070, queries=[0.5]))
    with pytest.raises(ValidationError):
        run_config(dict(LINEAR_CONFIG, grid_n=7071, queries=[0.5]))
    assert main(["example", "ex1", "--grid", "7072"]) == 2
    assert "dense cells" in capsys.readouterr().err
    assert main(["example", "ex2", "--layers", "10000000000", "--sweep",
                 "10000000000"]) == 2
    assert "dense cells" in capsys.readouterr().err


def test_footprint_guard_charges_each_query_point(monkeypatch):
    def setup(*args):
        raise _Allocated

    monkeypatch.setitem(cli._KINDS["linear_fie"], "setup", setup)
    # on 3 nodes a query point costs 128 cells, not 3: 9 + 128 P, 2 * 32 *
    # 3 for the readout's row block and 9 for each of the 8 layers against
    # 50e6
    coarse = dict(LINEAR_CONFIG, grid_n=3)
    with pytest.raises(_Allocated):
        run_config(dict(coarse, queries="0:1:390622"))
    with pytest.raises(ValidationError, match="dense cells"):
        run_config(dict(coarse, queries="0:1:390623"))
    with pytest.raises(ValidationError, match="dense cells"):
        run_config(dict(coarse, queries="0:1:16600000"))


@pytest.mark.parametrize("kappa,message", [
    (2.0, "kappa=2.0 outside (0, 1]"),
    ("big", "kappa must be a finite number, got 'big'"),
    ([0.5, 1.5], "kappa sequence (0.5, 1.5) leaves (0, 1]"),
    ([], "empty kappa sequence"),
], ids=["above_one", "string", "sequence", "empty"])
def test_bad_kappa_refused_before_allocation(monkeypatch, kappa, message):
    _refuse_allocation(monkeypatch)
    for name in ("ex2", "laplace_disc"):
        with pytest.raises(ValidationError) as exc:
            run_example(name, overrides={"kappa": kappa})
        assert str(exc.value) == f"config key 'kappa': {message}"
    if isinstance(kappa, float):
        assert main(["example", "ex2", "--kappa", str(kappa)]) == 2


def test_short_kappa_sequence_refused_before_allocation(monkeypatch):
    _refuse_allocation(monkeypatch)
    # ex2 runs 15 layers; a sweep never runs more than the run's own
    for kappa, layers in (([0.5] * 3, 15), ([0.5] * 15, 20)):
        with pytest.raises(ValidationError) as exc:
            run_example("ex2", overrides={"kappa": kappa, "layers": layers},
                        sweep_layers=layers)
        assert str(exc.value) == (
            f"config key 'kappa': kappa sequence has {len(kappa)} values, "
            f"but the run has {layers} layers")
    with pytest.raises(_Allocated):
        run_example("ex2", overrides={"kappa": [0.5] * 15}, sweep_layers=15)


def test_work_guard_refuses_before_allocation(monkeypatch, capsys):
    _refuse_allocation(monkeypatch)
    # one node: 1 + 128 + 2 cells and 9 cells per layer, so the cell cap
    # stops the run at 5555541 layers, long before their fixed cost of
    # _LAYER_WORK multiply-adds each reaches the work cap
    one_node = dict(LINEAR_CONFIG, grid_n=1, grid_scheme="left",
                    queries=[0.5])
    layers = (cli._MAX_CELLS - 131) // 9
    with pytest.raises(_Allocated):
        run_config(dict(one_node, layers=layers))
    with pytest.raises(ValidationError, match="dense cells"):
        run_config(dict(one_node, layers=layers + 1))
    # 900000 layers on 1000 nodes leave 1e6 below the cap: a sweep no
    # deeper than the solve shares its matvecs and adds only S * N * P for
    # its evaluation at the P = 1 query point
    near_cap = dict(LINEAR_CONFIG, grid_n=1000, layers=900_000,
                    queries=[0.5])
    with pytest.raises(_Allocated):
        run_config(near_cap, sweep_layers=1000)
    with pytest.raises(ValidationError) as exc:
        run_config(near_cap, sweep_layers=1001)
    assert "multiply-adds" in str(exc.value)
    # a nonlinear run is one pass of layers - 1 matvecs like every kind
    # (N^2 = 9e6 on nl3's grid), and its sweep shares that pass: it adds
    # only S * N * P = S * 603000 for its evaluation at the 201 points
    nl3 = get_example("nl3").config
    for layers, outcome in ((100_001, _Allocated), (100_002, ValidationError)):
        with pytest.raises(outcome):
            run_config(dict(nl3, layers=layers))
    for sweep, outcome in ((14, _Allocated), (15, ValidationError)):
        with pytest.raises(outcome):
            run_config(dict(nl3, layers=100_000), sweep_layers=sweep)
    assert main(["example", "ex1", "--layers", "1000000"]) == 2
    assert "multiply-adds" in capsys.readouterr().err
    # without the cell cap, one node's layers - 1 matvecs of _LAYER_WORK
    # each reach the work cap
    monkeypatch.setattr(cli, "_MAX_CELLS", float("inf"))
    layers = cli._MAX_WORK // cli._LAYER_WORK + 1
    with pytest.raises(_Allocated):
        run_config(dict(one_node, layers=layers))
    with pytest.raises(ValidationError, match="multiply-adds"):
        run_config(dict(one_node, layers=layers + 1))
    # a sweep as deep as the run adds no matvecs of its own: they are
    # charged under the run's layers
    with pytest.raises(ValidationError) as exc:
        run_config(dict(one_node, layers=layers + 1), sweep_layers=layers + 1)
    assert str(exc.value).startswith(
        f"config key 'layers': {layers + 1} layers and sweep {layers + 1} on "
        f"grid 1 need 9e+11 multiply-adds")


def test_many_query_points_fit_the_cap_they_are_charged():
    # nl3 holds 9e6 matrix cells; its 20001 query points are charged
    # 128 cells each plus one 32-row block of kernel rows, 11752218 cells in
    # all, and the run's peak stays under even the 9512106 cells of 16
    # cells per point at the cap's 1.03 doubles
    tracemalloc.start()
    try:
        bundle = run_example("nl3", overrides={"queries": "0:1:20001"})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(bundle.rows) == 20001
    assert bundle.max_abs_err() < 2.1e-4
    assert peak < 1.03 * 8 * (3000 ** 2 + 16 * 20001 + 2 * 32 * 3000 + 90)


def test_query_points_hold_no_more_than_their_charge():
    # on 3 nodes, or 64 boundary nodes on the disc, nearly all a run holds
    # grows with its query points: their vectors, the report rows with
    # exact values and the rendered text, where JSON holds nearly twice
    # what CSV does.  The guard charges each point 128 cells, ~1050 B at
    # the cap's 1.03 doubles, whichever renderer follows
    linear = {"kind": "linear_fie", "kernel": "1/e", "source": "e^x",
              "domain": [0, 1], "grid_n": 3, "layers": 8,
              "queries": "0:1:10001", "exact": "e^x + 1"}
    disc = dict(get_example("laplace_disc").config, theta_n=64,
                queries={"r": "0:1:101", "phi": f"0:{2.0 * np.pi!r}:101"})
    for config, count in ((linear, 10001), (disc, 101 * 101)):
        for render in (render_csv, render_json):
            tracemalloc.start()
            try:
                text = render(run_config(config))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert text.count("\n") > count
            assert peak / count < 1.03 * 8 * 128, (config["kind"], render)
            # so a cap of the cells the run held refuses it: it is charged
            # more
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cli, "_MAX_CELLS", int(peak / (1.03 * 8)))
                with pytest.raises(ValidationError, match="dense cells"):
                    run_config(config)


def test_a_grid_refused_by_a_small_margin_would_have_held_its_cap(
        monkeypatch):
    # the cell guard refuses 600 nodes, whose 360000 matrix cells alone are
    # over a cap of 300000 and the whole charge under twice it; at twice
    # the cap the run holds more than the cap's 8 B per cell, so the guard
    # charges a grid no more than twice what it holds
    config = {"kind": "linear_fie", "kernel": "x*z/2", "source": "1",
              "domain": [0, 1], "grid_n": 600, "layers": 4,
              "queries": [0.5]}
    cap = 300_000
    monkeypatch.setattr(cli, "_MAX_CELLS", cap)
    with pytest.raises(ValidationError) as exc:
        run_config(config)
    need = float(re.search(r"need (\S+) dense cells", str(exc.value))[1])
    assert str(exc.value).startswith("config key 'grid_n': ")
    assert cap < 600 ** 2 and need < 2 * cap
    monkeypatch.setattr(cli, "_MAX_CELLS", 2 * cap)
    tracemalloc.start()
    try:
        run_config(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak > 8 * cap


# G of a 2000-deep history, taken 32 columns at a time
_G_STACK_CONFIG = {"kind": "nonlinear_fie", "kernel": "x*z/10", "source": "1",
                   "nonlinearity": "u/(1 + u^2) + sin(u)*cos(u)",
                   "domain": [0, 1], "grid_n": 100, "layers": 5,
                   "queries": [0.1, 0.5, 0.9], "exact": "1"}
_SWEEP_RUNS = {
    "linear_errors": lambda s: run_example(
        "ex2", sweep_layers=s, overrides={"grid_n": 100, "layers": s,
                                          "queries": "0:1.5:101"}),
    "nonlinear_errors": lambda s: run_example(
        "nl2", sweep_layers=s, overrides={"grid_n": 100, "layers": s,
                                          "queries": "0:3:101"}),
    "updates": lambda s: run_example(
        "bvp_p", sweep_layers=s, overrides={"grid_n": 100, "layers": s,
                                            "queries": "0:1:101"}),
    "nonlinear_stack": lambda s: run_config(dict(_G_STACK_CONFIG, layers=s),
                                            sweep_layers=s),
}


@pytest.mark.parametrize("name", list(_SWEEP_RUNS))
def test_sweep_holds_no_more_than_its_charge(name):
    # 2000 layers on 100 nodes: the sweep's table rows and, against an
    # exact, its S x N history, its P x S errors (and G of the history
    # under G) are most of the run's charge
    run = _SWEEP_RUNS[name]
    tracemalloc.start()
    try:
        bundle = run(2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(bundle.sweep) == 2000
    # so a cap of the cells the run held refuses it under the sweep depth
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_MAX_CELLS", int(peak / (1.03 * 8)))
        with pytest.raises(ValidationError,
                           match="^sweep depth 2000: .* dense cells"):
            run(2000)


def test_shallow_sweep_keeps_only_its_iterates(monkeypatch):
    # the pass runs all 400 layers of the solve but holds two iterates
    fields = []

    def spy(net, keep_history=0):
        fields.append(forward(net, keep_history))
        return fields[-1]

    monkeypatch.setattr(cli, "forward", spy)
    config = dict(LINEAR_CONFIG, layers=400)
    bundle = run_config(config, sweep_layers=2)
    assert [f.history.shape[1] for f in fields] == [2]
    assert bundle.rows == run_config(config).rows
    # the first two iterates do not depend on the depth of the solve
    assert bundle.sweep == run_config(LINEAR_CONFIG, sweep_layers=2).sweep


def test_update_sweep_keeps_only_the_runs_iterate(monkeypatch):
    # a sweep of updates reads the pass's deltas, so the pass keeps no
    # history; a sweep deeper than the run is refused before any pass
    asked = []

    def spy(net, keep_history=0):
        asked.append((net.layers, keep_history))
        return forward(net, keep_history)

    monkeypatch.setattr(cli, "forward", spy)
    layers = get_example("bvp_p").config["layers"]
    plain = run_example("bvp_p")
    full = run_example("bvp_p", sweep_layers=layers)
    shallow = run_example("bvp_p", sweep_layers=layers - 1)
    with pytest.raises(ValidationError, match="set --layers"):
        run_example("bvp_p", sweep_layers=layers + 7)
    assert asked == [(layers, 0)] * 3
    assert full.rows == shallow.rows == plain.rows
    assert full.sweep == list(enumerate(plain.metadata["layer_deltas"], 1))
    assert shallow.sweep == full.sweep[:layers - 1]


@pytest.mark.parametrize("argv,layers", [
    (["solve"], 8), (["example", "nl1"], 7), (["example", "bvp_p"], 10),
    (["example", "laplace_disc"], 15)],
    ids=["linear_fie", "nonlinear_fie", "bvp", "laplace_disc"])
def test_sweep_deeper_than_the_run_is_refused_before_any_sample(
        tmp_path, capsys, monkeypatch, argv, layers):
    _refuse_allocation(monkeypatch)
    if argv == ["solve"]:
        argv = ["solve", _write_config(tmp_path, LINEAR_CONFIG)]
    assert main([*argv, "--sweep", str(layers + 1)]) == 2
    assert capsys.readouterr().err == (
        f"error: sweep depth {layers + 1}: the run has {layers} layers; set "
        f"--layers {layers + 1} to sweep them\n")


def test_update_sweep_is_a_prefix_of_the_layer_deltas():
    for sweep in (20, 5):
        bundle = run_example("laplace_disc", sweep_layers=sweep,
                             overrides={"layers": 20})
        assert bundle.sweep == list(
            enumerate(bundle.metadata["layer_deltas"][:sweep], 1))


@pytest.mark.parametrize("name", ["ex1", "ex2"])
def test_error_sweep_ends_at_the_runs_own_error(name):
    # row S is the history's last column through the blocked gemm; the
    # table's error comes from the same iterate through one gemv
    bundle = run_example(name, sweep_layers=12, overrides={"layers": 12})
    assert bundle.sweep_column == "max_err" and len(bundle.sweep) == 12
    assert bundle.sweep[-1][1] == pytest.approx(bundle.max_abs_err())


@pytest.mark.parametrize("sweep", [3, 8, 12])
def test_sweep_shares_the_forward_pass(monkeypatch, sweep):
    calls = []

    def spy(net, keep_history=0):
        calls.append((net.layers, keep_history))
        return forward(net, keep_history)

    monkeypatch.setattr(cli, "forward", spy)
    config = dict(LINEAR_CONFIG, layers=max(LINEAR_CONFIG["layers"], sweep))
    bundle = run_config(config, sweep_layers=sweep)
    assert calls == [(config["layers"], sweep)]
    assert bundle.rows == run_config(config).rows

    def fn(key, params):
        return compile_fn(parse(LINEAR_CONFIG[key]), params)

    op = discretize(FieProblem(kernel=fn("kernel", ("x", "z")),
                               source=fn("source", ("x",))),
                    uniform_grid(0.0, 1.0, LINEAR_CONFIG["grid_n"],
                                 scheme="closed"))
    net = build_network(op, sweep, KMSchedule(1.0))
    pts = np.linspace(0.0, 1.0, 21)
    assert bundle.sweep == layer_sweep(op, forward(net, sweep),
                                       fn("exact", ("x",))(pts), pts)
    for name in ("bvp_p", "laplace_disc"):
        calls.clear()
        layers = max(get_example(name).config["layers"], sweep)
        run_example(name, sweep_layers=sweep, overrides={"layers": layers})
        assert calls == [(layers, 0)]


def test_evaluation_rows_stay_within_a_block():
    # 8400 x 400 kernel rows and their scaled copy held at once peaked at
    # 55.8 MiB; 32-row blocks hold ~100 KiB of them
    config = dict(LINEAR_CONFIG, kernel="exp(-(x-z)^2)", source="1",
                  grid_n=400, queries="0:1:8400")
    del config["exact"]
    tracemalloc.start()
    try:
        run_config(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20


# the left grid keeps z - x + 1 > 0 on its nodes; the query x = 1 meets z = 0
_LOG_KERNEL_CONFIG = dict(LINEAR_CONFIG, kernel="log(z - x + 1)", source="1",
                          grid_n=100, grid_scheme="left", queries="0:1:101")
del _LOG_KERNEL_CONFIG["exact"]


def test_undefined_kernel_names_the_query_point_and_node():
    # a block-relative flat index (10000 over the full rows) names nothing
    with pytest.raises(DomainError) as exc:
        run_config(_LOG_KERNEL_CONFIG)
    assert str(exc.value).startswith(
        "kernel undefined at query point and node (x[100]=1.0, z[0]=0.0): "
        "log of")


def test_error_texts_print_plain_floats():
    grid = uniform_grid(0.0, 1.0, 8, scheme="left")

    def one(*xs):
        return 1.0

    def nan_at_zero(*xs):
        return np.where(sum(xs) == 0.0, np.nan, 1.0)

    base = discretize(FieProblem(kernel=one, source=one), grid)
    nonlinear = FieProblem(kernel=one, source=one,
                           nonlinearity=lambda u: np.sqrt(u))
    cases = [
        (lambda: discretize(FieProblem(kernel=nan_at_zero, source=one), grid),
         "(z[0]=0.0, z[0]=0.0)"),
        (lambda: discretize(FieProblem(kernel=one, source=nan_at_zero), grid),
         "node z[0]=0.0"),
        (lambda: run_config(dict(_LOG_KERNEL_CONFIG, grid_scheme="closed")),
         "(z[99]=1.0, z[0]=0.0)"),
        (lambda: run_config(_LOG_KERNEL_CONFIG), "(x[100]=1.0, z[0]=0.0)"),
        (lambda: evaluation_layer(base.problem, grid, [1.5], np.ones(8)),
         "query point 1.5 outside"),
        (lambda: nonlinear.activation(-np.ones(8)),
         "(iterate value -1.0)"),
    ]
    for call, text in cases:
        with np.errstate(invalid="ignore"), \
                pytest.raises((DomainError, ValidationError)) as exc:
            call()
        assert text in str(exc.value)
        assert "np.float64(" not in str(exc.value)


_BVP_MIDPOINT = {k: v for k, v in get_example("bvp_p").config.items()
                 if k != "queries"}
# finite at every node of the midpoint grid, but exp(900) at the query
_QUERY_KERNEL_CONFIG = {
    k: v for k, v in dict(LINEAR_CONFIG, kernel="exp(1/x - 100)*z",
                          source="1", grid_n=50, grid_scheme="midpoint",
                          queries=[0.001]).items() if k != "exact"}
# every kernel sample is finite at x = 0.00124 (K dz <= 1.3e305), but
# their sum against a field of ~1000 overflows
_QUERY_SUM_CONFIG = dict(_QUERY_KERNEL_CONFIG, source="1000", layers=5,
                         queries=[0.00124])


@pytest.mark.parametrize("config,text", [
    (dict(LINEAR_CONFIG, source="log(x)"),
     "source undefined at node z[0]=0.0: log of non-positive value 0.0"),
    (dict(LINEAR_CONFIG, source="log(0.5 - x)"),
     "source undefined at node z[100]=0.5025125628140703: log of "
     "non-positive value -0.002512562814070307"),
    (dict(LINEAR_CONFIG, source="log(x)", grid_scheme="midpoint"),
     "source undefined at query point x[0]=0.0: log of non-positive value "
     "0.0"),
    (dict(LINEAR_CONFIG, exact="log(x)"),
     "exact undefined at query point x[0]=0.0: log of non-positive value "
     "0.0"),
    (dict(LINEAR_CONFIG, exact="exp(1000*x)"),
     "exact is not finite at query point x[15]=0.75: inf"),
    (dict(get_example("nl3").config, source="-1", grid_n=50),
     "nonlinearity undefined at node 0 (iterate value -1.0): sqrt of "
     "negative value -1.0"),
    (dict(_BVP_MIDPOINT, h="1/x", grid_n=50),
     "h undefined at node x[0]=0.0: division by zero"),
    (dict(get_example("laplace_disc").config, boundary="log(phi)",
          theta_n=50),
     "boundary undefined at node phi[0]=0.0: log of non-positive value 0.0"),
    (dict(get_example("laplace_disc").config, exact="log(phi)", theta_n=50),
     "exact undefined at query point r[0]=0.0, phi[0]=0.0: log of "
     "non-positive value 0.0"),
    (dict(get_example("laplace_disc").config, exact="exp(1000*r)",
          theta_n=50),
     "exact is not finite at query point r[615]=0.75, phi[615]=0.0: inf"),
    (dict(LINEAR_CONFIG, source="exp(1000*x)"),
     "source is not finite at node z[142]=0.7135678391959799: inf"),
    # finite, but its matrix entry K dz overflows (dz = 100)
    (dict(LINEAR_CONFIG, kernel="1e307", domain=[0.0, 1000.0], grid_n=10,
          grid_scheme="left", queries="0:1000:11"),
     "kernel is not finite at nodes (z[0]=0.0, z[0]=0.0): inf"),
    (dict(_BVP_MIDPOINT, g="exp(1000*x)", grid_n=50),
     "g is not finite at node x[36]=0.72: inf"),
    (dict(get_example("laplace_disc").config, boundary="exp(1000*phi)",
          theta_n=50),
     "boundary is not finite at node phi[6]=0.7539822368615504: inf"),
    (_QUERY_KERNEL_CONFIG,
     "kernel is not finite at query point and node (x[0]=0.001, z[0]=0.01): "
     "inf"),
    (dict(_QUERY_KERNEL_CONFIG, kind="nonlinear_fie", nonlinearity="u"),
     "kernel is not finite at query point and node (x[0]=0.001, z[0]=0.01): "
     "inf"),
    (_QUERY_SUM_CONFIG,
     "evaluation layer is not finite at query point x[0]=0.00124: inf"),
    (dict(_QUERY_SUM_CONFIG, kind="nonlinear_fie", nonlinearity="u"),
     "evaluation layer is not finite at query point x[0]=0.00124: inf"),
], ids=["source_node", "source_later_block", "source_query", "exact",
        "exact_not_finite", "nonlinearity", "bvp_h_node",
        "laplace_boundary", "laplace_exact", "laplace_exact_not_finite",
        "source_not_finite", "weighted_kernel_not_finite", "bvp_g_not_finite",
        "laplace_boundary_not_finite",
        "query_kernel_not_finite", "nonlinear_query_kernel_not_finite",
        "query_sum_not_finite", "nonlinear_query_sum_not_finite"])
def test_domain_errors_name_the_point(config, text):
    # exprlang's message names only the value; the caller names the point
    # under the config key the user wrote, and an overflow warns nothing
    with np.errstate(all="raise"), pytest.raises(DomainError) as exc:
        run_config(config, sweep_layers=2)
    assert str(exc.value) == text


@pytest.mark.parametrize("args,text", [
    (["--nr", "8", "--nt", "8", "--exact", "exp(1000*r)"],
     "exact is not finite at node r[6]=0.75, phi[0]=0.0: inf"),
    (["--boundary", "exp(1000*phi)"],
     "boundary is not finite at node phi[12]=0.7539822368615504: inf"),
    (["--nr", "16", "--nt", "16", "--exact", "log(r)"],
     "exact undefined at the center r=0.0, phi=0.0: log of non-positive "
     "value 0.0"),
    (["--boundary", "log(phi)"],
     "boundary undefined at node phi[0]=0.0: log of non-positive value 0.0"),
], ids=["exact_not_finite", "boundary_not_finite", "exact_undefined",
        "boundary_undefined"])
def test_compare_fd_bad_data_names_the_point(args, text, capsys):
    # as solve does: exit 3, the key and point named, and no numpy warning
    with np.errstate(all="raise"):
        assert main(["compare-fd", *args]) == 3
    assert capsys.readouterr().err == f"error: {text}\n"


@pytest.mark.parametrize("flag,text", [("--boundary", "r*phi"),
                                       ("--exact", "x")])
def test_compare_fd_names_its_options(flag, text, capsys):
    assert main(["compare-fd", flag, text]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: option {flag}: unexpected variable(s)")


def test_run_compare_fd_metadata():
    bundle = run_compare_fd(16, 16)
    assert bundle.kind == "fd_reference"
    assert bundle.metadata["final_residual"] <= 1e-10
    assert bundle.metadata["max_err"] is not None
    assert bundle.rows[0][0] == 0.0


# ---------------------------------------------------------------------------
# exit codes through main()

def test_main_solve_happy_path(tmp_path, capsys):
    path = _write_config(tmp_path, LINEAR_CONFIG)
    assert main(["solve", path]) == 0
    out = capsys.readouterr().out
    assert "x,value,exact,abs_err" in out


def test_main_missing_config_file(capsys):
    assert main(["solve", "/no/such/config.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_main_bad_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["solve", str(path)]) == 2
    assert "valid JSON" in capsys.readouterr().err


def test_main_bad_expression_offset(tmp_path, capsys):
    config = dict(LINEAR_CONFIG, kernel="sin(x*")
    path = _write_config(tmp_path, config)
    assert main(["solve", path]) == 2
    assert "at offset 6" in capsys.readouterr().err


def test_main_divergent_run_exits_numerical(tmp_path, capsys):
    config = {
        "kind": "linear_fie",
        "kernel": "100000000",
        "source": "1",
        "domain": [0.0, 1.0],
        "grid_n": 16,
        "layers": 60,
        "kappa": 1.0,
    }
    path = _write_config(tmp_path, config)
    assert main(["solve", path]) == 3
    err = capsys.readouterr().err
    assert "error:" in err and "layer" in err


_EXPANSIVE = {"kind": "linear_fie", "kernel": "2", "source": "1",
              "domain": [0, 1], "grid_n": 50, "layers": 30}


def test_main_expansive_linear_run_exits_numerical(tmp_path, capsys):
    # A = 2 never overflows in 30 layers, but its residual grows from 2
    # at layer 2; a linear run gets the same verdict as a nonlinear one
    path = _write_config(tmp_path, _EXPANSIVE)
    assert main(["solve", path]) == 3
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.startswith(
        "error: iteration diverging: its residual grew from ")
    assert "at layer 2 to " in cap.err and "at layer 30" in cap.err


def test_exit_code_does_not_depend_on_the_sweep(tmp_path, capsys):
    # two layers cannot show the growth and five can, with or without a
    # sweep; a sweep deeper than the run is refused, never run
    path = _write_config(tmp_path, dict(_EXPANSIVE, layers=2))
    assert main(["solve", path, "--out", str(tmp_path / "out.csv")]) == 0
    assert main(["solve", path, "--sweep", "5"]) == 2
    assert capsys.readouterr().err == (
        "error: sweep depth 5: the run has 2 layers; set --layers 5 to "
        "sweep them\n")
    assert main(["solve", path, "--layers", "5"]) == 3
    verdict = capsys.readouterr().err
    assert main(["solve", path, "--layers", "5", "--sweep", "5"]) == 3
    assert capsys.readouterr().err == verdict and "at layer 5" in verdict


# strictly lower triangular on the left grid, so rho(A) = 0 and the
# iteration is exact after N steps; its residuals rise before they fall
# (1, 19.6, 64.0, 83.4, 58.1, 25.1, 7.4, ...)
_VOLTERRA = {"kind": "linear_fie", "kernel": "20*(x-z+abs(x-z))",
             "source": "1", "domain": [0, 1], "grid_n": 50, "layers": 7}


def test_main_volterra_run_exits_zero_once_its_residual_falls(tmp_path):
    path = _write_config(tmp_path, _VOLTERRA)
    assert main(["solve", path, "--out", str(tmp_path / "out.csv")]) == 0


@pytest.mark.xfail(strict=True, reason="forward's residual rule refuses a "
                   "convergent run whose residual grows only for a while")
def test_main_volterra_run_exits_zero_while_its_residual_grows(tmp_path):
    path = _write_config(tmp_path, dict(_VOLTERRA, layers=5))
    assert main(["solve", path, "--out", str(tmp_path / "out.csv")]) == 0


def test_main_rising_kappa_contraction_converges(tmp_path, capsys):
    # G(u) = u makes this the q = 0.9 contraction; the update grows when
    # kappa rises from 0.5 to 1, but the map residual delta_m / kappa_m
    # falls at every layer
    config = {"kind": "nonlinear_fie", "kernel": "0.9", "source": "1",
              "nonlinearity": "u", "domain": [0, 1], "grid_n": 20,
              "layers": 6, "kappa": [0.5, 0.5, 1, 1, 1, 1]}
    path = _write_config(tmp_path, config)
    out = tmp_path / "out.json"
    assert main(["solve", path, "--format", "json", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    deltas = json.loads(out.read_text())["metadata"]["layer_deltas"]
    assert deltas[-1] > deltas[1]
    res = [d / k for d, k in zip(deltas, config["kappa"])]
    assert all(b < a for a, b in zip(res, res[1:]))


def test_main_zero_source_nonlinear_run_converges(tmp_path, capsys):
    # u = 0.1 (1 + u) contracts although its first update |g| is 0
    config = {"kind": "nonlinear_fie", "kernel": "0.1", "source": "0",
              "nonlinearity": "1+u", "domain": [0.0, 1.0], "grid_n": 16,
              "layers": 12, "kappa": 1.0, "queries": "0:1:5",
              "exact": "1/9"}
    path = _write_config(tmp_path, config)
    assert main(["solve", path, "--out", str(tmp_path / "out.csv")]) == 0
    assert "error:" not in capsys.readouterr().err


def test_main_domain_error_exits_numerical(tmp_path, capsys):
    # the left grid samples log at x = 0
    config = dict(LINEAR_CONFIG, source="log(x)", grid_scheme="left")
    del config["exact"]
    path = _write_config(tmp_path, config)
    assert main(["solve", path]) == 3
    assert "log" in capsys.readouterr().err


def test_main_example_list(capsys):
    assert main(["example", "--list"]) == 0
    out = capsys.readouterr().out
    for name in example_names():
        assert name in out


def test_main_example_requires_name(capsys):
    assert main(["example"]) == 2
    assert "--list" in capsys.readouterr().err


def test_main_example_unknown(capsys):
    assert main(["example", "zzz"]) == 2
    assert "available" in capsys.readouterr().err


def test_main_example_overrides_flow(capsys):
    assert main(["example", "ex1", "--grid", "100", "--layers", "6",
                 "--queries", "0:1:5", "--format", "json",
                 "--deterministic"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["metadata"]["config"]["grid_n"] == 100
    assert doc["metadata"]["config"]["layers"] == 6
    assert len(doc["solution"]["rows"]) == 5
    assert doc["metadata"]["runtime_seconds"] is None


def test_main_scheme_override_rejected_for_laplace(capsys):
    assert main(["example", "laplace_disc", "--scheme", "left"]) == 2
    assert "--scheme" in capsys.readouterr().err


def test_main_scheme_override_reaches_the_config(capsys):
    assert main(["example", "ex2", "--scheme", "midpoint",
                 "--deterministic"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "# scheme = midpoint" in lines
    echo = next(line for line in lines if line.startswith("# config = "))
    assert json.loads(echo[len("# config = "):])["grid_scheme"] == "midpoint"


def test_bvp_ode_residual_is_empty_off_a_uniform_grid():
    # ode_residual refuses points that are not uniformly spaced; the run
    # still reports, with that figure empty
    bundle = run_example("bvp_p", overrides={"queries": [0.0, 0.1, 0.5, 1.0]})
    assert len(bundle.rows) == 4
    assert bundle.metadata["ode_residual"] is None
    assert "# ode_residual = " in render_csv(bundle).splitlines()
    doc = json.loads(render_json(bundle))
    assert doc["metadata"]["ode_residual"] is None


def test_main_queries_override_rejected_for_laplace(capsys):
    assert main(["example", "laplace_disc", "--queries", "0:1:5"]) == 2
    assert "--queries" in capsys.readouterr().err


def test_main_grid_override_sets_the_kinds_size_key(capsys):
    assert main(["example", "laplace_disc", "--grid", "64", "--format",
                 "json", "--deterministic"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["metadata"]["config"]["theta_n"] == 64
    assert "grid_n" not in doc["metadata"]["config"]


@pytest.mark.parametrize("kind", ["nope", ["linear_fie"], None])
def test_main_overrides_on_unknown_kind_name_the_kind(tmp_path, capsys,
                                                      kind):
    path = _write_config(tmp_path, dict(LINEAR_CONFIG, kind=kind))
    assert main(["solve", str(path), "--grid", "10"]) == 2
    assert capsys.readouterr().err == (
        "error: config key 'kind': must be one of ['bvp', 'laplace_disc', "
        f"'linear_fie', 'nonlinear_fie'], got {kind!r}\n")


def test_main_selftest(capsys):
    assert main(["selftest"]) == 0
    assert "selftest ok" in capsys.readouterr().out


def test_main_sweep_flag(tmp_path, capsys):
    path = _write_config(tmp_path, LINEAR_CONFIG)
    assert main(["solve", path, "--sweep", "5"]) == 0
    out = capsys.readouterr().out
    assert "layers,max_err" in out


def test_sweep_column_names_what_it_holds(capsys):
    # ex1 has an oracle, so its sweep holds errors; bvp_p's holds update
    # norms
    assert main(["example", "ex1", "--sweep", "3", "--deterministic"]) == 0
    assert "\nlayers,max_err\n" in capsys.readouterr().out
    assert main(["example", "bvp_p", "--sweep", "3", "--deterministic"]) == 0
    out = capsys.readouterr().out
    assert "\nlayers,max_update\n" in out and "max_err" not in out
    assert main(["example", "bvp_p", "--sweep", "3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["sweep"]["columns"] == ["layers", "max_update"]


def test_nonlinear_sweep_reads_the_run_pass(monkeypatch):
    # the error sweep tabulates the first S iterates of the solve's own
    # pass and costs no pass of its own: its row at the run's depth is the
    # run's own error
    calls = []

    def spy(net, keep_history=0):
        calls.append((net.layers, keep_history))
        return forward(net, keep_history)

    monkeypatch.setattr(cli, "forward", spy)
    for name in ("nl1", "nl2", "nl3"):
        layers = get_example(name).config["layers"]
        plain = run_example(name)
        for sweep in (4, layers):
            calls.clear()
            bundle = run_example(name, sweep_layers=sweep)
            assert calls == [(layers, sweep)]
            assert bundle.rows == plain.rows
            assert bundle.metadata == plain.metadata
            assert bundle.sweep_column == "max_err"
            assert [m for m, _ in bundle.sweep] == list(range(1, sweep + 1))
        assert bundle.sweep[layers - 1][1] == pytest.approx(
            plain.max_abs_err(), rel=1e-9, abs=0.0)


def test_nonlinear_and_disc_runs_scan_no_contraction(monkeypatch):
    # ||A|| is no contraction constant of u -> g + A G(u) or of the
    # non-expansive BIE operator, so neither kind computes or reports it
    def scan(op):
        raise AssertionError("scanned for a contraction constant")

    runs = (("nl1", {}), ("laplace_disc", {"theta_n": 64}))
    plain = [run_example(name, overrides=o, sweep_layers=3) for name, o in runs]
    monkeypatch.setattr(cli, "estimate_contraction", scan)
    for (name, overrides), expected in zip(runs, plain):
        bundle = run_example(name, overrides=overrides, sweep_layers=3)
        assert "q_est" not in bundle.metadata
        assert bundle.rows == expected.rows
        assert bundle.sweep == expected.sweep


def test_overflowing_contraction_estimate_gives_no_error_figure():
    # |A| row sums of 10 x 2e307 overflow, yet the zero source runs: Q is
    # inf, which error_bound refuses, so the figure is empty, and the
    # overflow is no numpy warning
    config = {"kind": "linear_fie", "kernel": "1e308", "source": "0",
              "domain": [0, 2], "grid_n": 10, "layers": 3}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        meta = run_config(config).metadata
    assert meta["q_est"] == np.inf
    assert meta["iteration_error_bound"] is None


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def test_json_report_writes_a_non_finite_figure_as_null(tmp_path, capsys):
    # the overflowed q_est above: the CSV writes inf, the JSON null
    path = _write_config(tmp_path, {
        "kind": "linear_fie", "kernel": "1e308", "source": "0",
        "domain": [0, 2], "grid_n": 10, "layers": 3})
    assert main(["solve", path, "--deterministic", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    assert doc["metadata"]["q_est"] is None
    assert main(["solve", path, "--deterministic"]) == 0
    assert "# q_est = inf" in capsys.readouterr().out.splitlines()


def test_overflowing_sweep_error_reads_inf_without_a_numpy_warning():
    # a value of 1e308 against an exact -1e308 overflows |value - exact|:
    # the table and the sweep read inf (the JSON null), and numpy warns
    # nothing
    config = {"kind": "linear_fie", "kernel": "z", "source": "1e308",
              "domain": [0.0, 1.0], "grid_n": 1, "layers": 3,
              "exact": "-(1e308)"}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bundle = run_config(config, sweep_layers=3)
        doc = json.loads(render_json(bundle), parse_constant=_refuse_constant)
    assert bundle.sweep == [(1, np.inf), (2, np.inf), (3, np.inf)]
    assert all(row[3] == np.inf for row in bundle.rows)
    assert doc["sweep"]["rows"] == [[1, None], [2, None], [3, None]]


@pytest.mark.parametrize("config,code,err", [
    ({"kind": "bvp", "g": "1", "h": "1e308", "alpha": 1, "beta": 2,
      "grid_n": 20, "layers": 10}, 0, ""),
    ({"kind": "laplace_disc", "boundary": "5e307", "theta_n": 11,
      "layers": 20}, 3, "error: non-finite potential value at query point "
                        "r[0]=0.0, phi[0]=0.0: inf\n"),
], ids=["ode_residual", "projected_potential"])
def test_overflowing_readouts_raise_no_numpy_warning(tmp_path, capsys,
                                                     config, code, err):
    # the stencil of y'' and the sum P* overflow: inf is a figure or a
    # refusal at a query point, never a numpy warning
    path = _write_config(tmp_path, config)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", path, "--deterministic"]) == code
    out, stderr = capsys.readouterr()
    assert stderr == err
    if code == 0:
        assert "# ode_residual = inf" in out.splitlines()


_ROOT = Path(__file__).parent.parent


def _ci_listed(loop):
    """The argument strings of the workflow's ``for <loop> in ...`` list,
    each parsed as the command line parses it."""
    text = (_ROOT / ".github" / "workflows" / "tests.yml").read_text()
    block = re.search(rf"for {loop} in (.*?); do", text, re.S).group(1)
    command = {"fd": "compare-fd", "run": "example"}[loop]
    return [cli._build_parser().parse_args([command, *run.split()])
            for run in re.findall(r'"([^"]*)"', block)]


def _ci_runs():
    """The runs of CI's determinism loop: the shipped configs, the
    registry examples, and the compare-fd grids and example runs of its
    ``for fd`` and ``for run`` lists, read from the workflow."""
    configs = sorted((_ROOT / "configs").glob("*.json"))
    runs = [lambda p=p: run_config(json.loads(p.read_text()))
            for p in configs]
    runs += [lambda name=name: run_example(name) for name in example_names()]
    grids, examples = _ci_listed("fd"), _ci_listed("run")
    runs += [lambda args=args: run_compare_fd(args.nr, args.nt)
             for args in grids]
    for args in examples:
        overrides = cli._overrides(get_example(args.name).config["kind"], args)
        runs.append(lambda args=args, overrides=overrides: run_example(
            args.name, sweep_layers=args.sweep, overrides=overrides))
    return runs, len(grids), len(examples)


def test_ci_determinism_runs_repeat_byte_for_byte_without_warnings():
    runs, grids, examples = _ci_runs()
    assert (grids, examples) == (2, 9)  # a regex miss fails, not runs none
    assert len(runs) == 25
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run in runs:
            first, second = run(), run()
            for render in (render_csv, render_json):
                assert render(first) == render(second)


def test_linear_runs_compute_no_a_priori_budget(monkeypatch):
    # the linear kinds read their error figure off forward's last update,
    # so the ||A g|| product does not run
    def scan(op):
        raise AssertionError("computed an a priori budget entry")

    runs = ("ex1", "ex2", "bvp_p")
    plain = [run_example(name) for name in runs]
    monkeypatch.setattr("fredholm.network.residual_norm", scan)
    for name, expected in zip(runs, plain):
        bundle = run_example(name)
        assert bundle.rows == expected.rows
        assert bundle.metadata == expected.metadata


def test_constant_exact_broadcasts_over_the_table():
    # an exact expression without variables evaluates to one number
    bundle = run_example("laplace_disc", overrides={"theta_n": 64,
                                                    "exact": "1"})
    assert all(row[3] == 1.0 for row in bundle.rows)
    bundle = run_compare_fd(8, 8, exact_text="1")
    assert all(row[3] == 1.0 for row in bundle.rows)
    assert bundle.metadata["max_err"] == max(row[4] for row in bundle.rows)


def test_main_compare_fd_small(capsys):
    assert main(["compare-fd", "--nr", "16", "--nt", "16",
                 "--deterministic"]) == 0
    out = capsys.readouterr().out
    assert "# max_err =" in out
    assert "r,phi,value,exact,abs_err" in out


# ---------------------------------------------------------------------------
# subprocess level checks

def test_cli_entrypoint_reports_usage_without_args():
    code, _, err = _run_cli()
    assert code == 2
    assert "usage" in err.lower()


def test_cli_deterministic_runs_are_byte_identical(tmp_path):
    config = dict(LINEAR_CONFIG, grid_n=400)
    path = _write_config(tmp_path, config)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        code, _, err = _run_cli("solve", path, "--deterministic",
                                "--out", str(out))
        assert code == 0, err
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_divergence_exit_code_and_clean_stderr(tmp_path):
    config = {
        "kind": "linear_fie",
        "kernel": "100000000",
        "source": "1",
        "domain": [0.0, 1.0],
        "grid_n": 16,
        "layers": 60,
        "kappa": 1.0,
    }
    path = _write_config(tmp_path, config)
    code, _, err = _run_cli("solve", path)
    assert code == 3
    assert err.startswith("error:")
    assert "RuntimeWarning" not in err


def test_cli_json_output_parses(tmp_path):
    path = _write_config(tmp_path, LINEAR_CONFIG)
    code, out, _ = _run_cli("solve", path, "--format", "json",
                            "--deterministic")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"kind", "metadata", "solution", "sweep"}
