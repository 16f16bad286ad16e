"""Command-line front end: JSON problem configs in, result tables out.

Four subcommands: ``solve`` runs a config file, ``example`` runs a
registry entry with pinned settings, ``compare-fd`` runs the
finite-difference reference on the disc, and ``selftest`` validates the
registry.  Exit codes: 0 success, 2 for validation problems (bad config,
bad expression, bad flags), 3 for numerical failures (divergence, domain
violations, singular systems).
"""

import argparse
import json
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, Optional

import numpy as np

from . import exprlang
from .bvp import BvpSpec, bvp_to_fie, ode_residual, recover_solution
from .errors import NumericalError, ValidationError
from .grid import _SCHEMES, uniform_grid
from .laplace import build_bie, evaluate_potential, projected_potential
from .network import (SolutionField, build_network, error_bound, forward,
                      layer_sweep, query)
from .operator import (_BLOCK, FieProblem, KMSchedule, _sample, discretize,
                       estimate_contraction)
from .registry import EXAMPLES, example_names, get_example
from .report import ReportBundle, write_report
from .fd import solve_fd

__all__ = ["main", "run_config", "run_example", "run_compare_fd"]

_DEFAULT_POLAR_QUERIES = {"r": "0:1:11", "phi": f"0:{2.0 * np.pi!r}:17"}

# Cap on the dense cells of one run: N^2 for the kernel matrix, 9 (~73 B)
# per layer for its recorded update, 128 per query point (~1050 B: its
# P-vectors, report row and JSON text, the larger renderer's, which peaks
# at ~1010 B on a polar lattice with exact values), 2 * min(P, 32) * N for
# the kernel rows the blocked readouts hold (two buffers on the disc, one
# elsewhere) and S * max(N, P) for a sweep of depth S.  Under tracemalloc
# an N x N cell peaks at ~1.03 doubles (the matrix, filled and scanned for
# q_est in 32-row blocks) and an S x N sweep cell at ~1.0 (update sizes,
# the history itself) or 2.1 (errors).  At 1.03 doubles the cap is
# ~390 MiB: N <= 7070.
_MAX_CELLS = 50_000_000
# Cap on the multiply-adds of one run, max(N^2, _LAYER_WORK) per matvec of
# its forward pass (a layer costs ~17 us on 3 nodes) plus S N P for a
# sweep: ~10 minutes at the 1.5e9/s measured on a core.
_MAX_WORK = 900_000_000_000
_LAYER_WORK = 25_000


def _fail(key: str, reason: str):
    raise ValidationError(f"config key {key!r}: {reason}")


@contextmanager
def _under(key: str):
    """Refuse the library's ValidationError under config key ``key``."""
    try:
        yield
    except ValidationError as exc:
        _fail(key, str(exc))


def _kind_spec(kind) -> dict:
    if not isinstance(kind, str) or kind not in _KINDS:
        _fail("kind", f"must be one of {sorted(_KINDS)}, got {kind!r}")
    return _KINDS[kind]


def _check_schema(config: dict):
    kind = config.get("kind")
    spec = _kind_spec(kind)
    keys = set(config) - {"kind"}
    missing = spec["required"] - keys
    if missing:
        raise ValidationError(
            f"config for kind {kind!r} is missing {sorted(missing)}")
    unknown = keys - spec["required"] - spec["optional"]
    if unknown:
        raise ValidationError(
            f"config for kind {kind!r} has unknown keys {sorted(unknown)}")


def _compile(text: str, params, name: str) -> Callable:
    """``text`` compiled over ``params``; a bad expression is refused
    under ``name``, the config key or option that holds it."""
    if not isinstance(text, str):
        raise ValidationError(f"{name}: must be an expression string, "
                              f"got {type(text).__name__}")
    try:
        return exprlang.compile_fn(exprlang.parse(text), params)
    except ValidationError as exc:
        raise ValidationError(f"{name}: {exc}") from None


def _compile_all(config: dict,
                 exact_override: Optional[Callable]) -> Dict[str, Callable]:
    """Compile every expression key of the config's kind.  ``exact`` maps
    to the override when one is given, else to the compiled config entry,
    else to None."""
    spec = _KINDS[config["kind"]]
    fns = {key: _compile(config[key], params, f"config key {key!r}")
           for key, params in spec["exprs"]}
    if exact_override is None and "exact" in config:
        exact_override = _compile(config["exact"], spec["exact"],
                                  "config key 'exact'")
    fns["exact"] = exact_override
    return fns


def _is_number(v) -> bool:
    return not isinstance(v, bool) and isinstance(v, (int, float))


def _as_float(config: dict, key: str) -> float:
    v = config[key]
    if not _is_number(v):
        _fail(key, f"must be a number, got {v!r}")
    if not np.isfinite(v):
        _fail(key, f"must be finite, got {v!r}")
    return float(v)


def _as_pos_int(config: dict, key: str) -> int:
    v = config[key]
    if isinstance(v, bool) or not isinstance(v, int) or v < 1:
        _fail(key, f"must be a positive integer, got {v!r}")
    return v


def _domain(config: dict):
    dom = config["domain"]
    if (not isinstance(dom, (list, tuple)) or len(dom) != 2
            or not all(map(_is_number, dom))):
        _fail("domain", f"must be a [a, b] number pair, got {dom!r}")
    a, b = float(dom[0]), float(dom[1])
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        _fail("domain", f"needs finite a < b, got [{a}, {b}]")
    return a, b


def _parse_linspace(text: str, key: str):
    """(start, stop, count) of a start:stop:count range, validated."""
    parts = text.split(":")
    if len(parts) != 3:
        _fail(key, f"range {text!r} must look like start:stop:count")
    try:
        a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        _fail(key, f"cannot parse range {text!r}")
    if not (np.isfinite(a) and np.isfinite(b)) or a > b or n < 1:
        _fail(key, f"range {text!r} needs finite start <= stop and count >= 1")
    return a, b, n


def _queries_1d(config: dict):
    """Query count, then a maker of the points on the grid's [a, b]; the
    footprint guard sees the count before anything is allocated."""
    q = config.get("queries")
    if q is None:
        return 101, lambda grid: np.linspace(grid.a, grid.b, 101)
    if isinstance(q, str):
        a, b, count = _parse_linspace(q, "queries")
        return count, lambda grid: np.linspace(a, b, count)
    if isinstance(q, (list, tuple)):
        if not q or not all(map(_is_number, q)):
            _fail("queries", f"list must hold one or more numbers, got {q!r}")
        return len(q), lambda grid: np.asarray([float(v) for v in q])
    _fail("queries", f"must be a start:stop:count string or a number list, "
                     f"got {q!r}")


def _queries_polar(config: dict):
    """Query count, then a maker of the (r, phi) pairs."""
    q = config.get("queries", _DEFAULT_POLAR_QUERIES)
    if isinstance(q, dict):
        if set(q) != {"r", "phi"}:
            _fail("queries", "polar lattice needs exactly the keys r and phi")
        if not isinstance(q["r"], str) or not isinstance(q["phi"], str):
            _fail("queries", "lattice ranges must be start:stop:count strings")
        rs = _parse_linspace(q["r"], "queries.r")
        phis = _parse_linspace(q["phi"], "queries.phi")
        return rs[2] * phis[2], lambda grid: np.stack(np.meshgrid(
            np.linspace(*rs), np.linspace(*phis), indexing="ij"),
            -1).reshape(-1, 2)
    if isinstance(q, (list, tuple)):
        if not q:
            _fail("queries", "pair list must not be empty")
        pairs = []
        for item in q:
            if (not isinstance(item, (list, tuple)) or len(item) != 2
                    or not all(map(_is_number, item))):
                _fail("queries", f"entries must be [r, phi] pairs, got {item!r}")
            pairs.append((float(item[0]), float(item[1])))
        return len(pairs), lambda grid: np.asarray(pairs)
    _fail("queries", f"must be an r/phi lattice or a pair list, got {q!r}")


def _schedule(config: dict, default_kappa: float) -> KMSchedule:
    kappa = config.get("kappa", default_kappa)
    if isinstance(kappa, (list, tuple)):
        if not all(map(_is_number, kappa)):
            _fail("kappa", f"sequence entries must be numbers, got {kappa!r}")
        values = [float(v) for v in kappa]
    elif not _is_number(kappa):
        _fail("kappa", f"must be a number or number list, got {kappa!r}")
    else:
        values = float(kappa)
    with _under("kappa"):
        return KMSchedule(values)


def _exact(exact, names, columns) -> np.ndarray:
    """``exact`` at the query points, whose coordinate ``names`` label the
    ``columns``."""
    return _sample(exact, tuple(columns), "exact", "query point " + ", ".join(
        f"{c}[{{i}}]={{v[{k}]!r}}" for k, c in enumerate(names)))


def _rows(points, values, exact=None):
    """Solution rows (point..., value, exact, abs_err) from the point
    columns; without exact values the last two cells are None."""
    exact = [None] * len(values) if exact is None else map(float, exact)
    return [(*map(float, p), v, e, None if e is None else abs(v - e))
            for *p, v, e in zip(*points, map(float, values), exact)]


def _grid(config: dict, a: float, b: float, n: int):
    scheme = config.get("grid_scheme", "left")
    with _under("grid_n" if scheme in _SCHEMES else "grid_scheme"):
        return uniform_grid(a, b, n, scheme=scheme)


def _contraction(q, net, field) -> dict:
    """``q_est`` = ||A||_inf and the bound Q/(1 - Q) delta_M on the last
    layer's ||h_M - h*||, Q = kappa_M q + 1 - kappa_M (None if >= 1)."""
    kappa = net.schedule.at(len(field.deltas))
    lip = kappa * q + (1.0 - kappa)  # may be inf, which has no bound
    return {"q_est": q, "iteration_error_bound": (
        error_bound(lip, field.deltas[-1], 1) if lip < 1.0 else None)}


def _fie(config, fn, n):
    """linear_fie and nonlinear_fie; only a linear map reports ||A||."""
    a, b = _domain(config)
    problem = FieProblem(kernel=fn["kernel"], source=fn["source"],
                         nonlinearity=fn.get("nonlinearity"))
    op = discretize(problem, _grid(config, a, b, n))
    q = estimate_contraction(op) if problem.nonlinearity is None else None
    return op, lambda net, field, pts: (
        (pts,), query(net, field, pts),
        {} if q is None else _contraction(q, net, field))


def _bvp(config, fn, n):
    alpha = _as_float(config, "alpha")
    beta = _as_float(config, "beta")
    spec = BvpSpec(g=fn["g"], h=fn["h"], alpha=alpha, beta=beta)
    grid = _grid(config, 0.0, 1.0, n)
    for key in ("g", "h"):  # named here, not after the FIE they build
        _sample(fn[key], (grid.nodes,), key, "node x[{i}]={v[0]!r}")
    op = discretize(bvp_to_fie(spec), grid)
    q = estimate_contraction(op)

    def readout(net, field, pts):
        y = recover_solution(net, field, spec, pts)
        try:
            residual = ode_residual(spec, pts, y)
        except ValidationError:
            residual = None
        return (pts,), y, {
            **_contraction(q, net, field),
            "ode_residual": residual,
            "alpha": alpha, "beta": beta,
        }

    return op, readout


def _laplace_disc(config, fn, n):
    with _under("theta_n"):
        op = build_bie(fn["boundary"], n)

    def readout(net, field, pairs):  # the field is the boundary density
        r, phi, values = evaluate_potential(field, pairs)
        return (r, phi), values, {
            "density_mean": float(np.mean(field.values)),
            "projected_potential": projected_potential(field),
        }

    return op, readout


# Per kind: config keys, then each expression key with its parameters
# (compiled in this order) and those of the optional "exact", which name
# the point columns; then the grid-size key, the default kappa, the query
# parser, the setup, which returns the operator and its readout, and
# whether the sweep measures errors against "exact".
_KINDS = {
    "linear_fie": {
        "required": {"kernel", "source", "domain", "grid_n", "layers"},
        "optional": {"grid_scheme", "kappa", "queries", "exact"},
        "exprs": (("kernel", ("x", "z")), ("source", ("x",))),
        "exact": ("x",),
        "size": "grid_n", "kappa": 1.0,
        "queries": _queries_1d, "setup": _fie, "oracle": True,
    },
    "nonlinear_fie": {
        "required": {"kernel", "source", "nonlinearity", "domain", "grid_n",
                     "layers"},
        "optional": {"grid_scheme", "kappa", "queries", "exact"},
        "exprs": (("kernel", ("x", "z")), ("source", ("x",)),
                  ("nonlinearity", ("u",))),
        "exact": ("x",),
        "size": "grid_n", "kappa": 1.0,
        "queries": _queries_1d, "setup": _fie, "oracle": True,
    },
    "bvp": {
        "required": {"g", "h", "alpha", "beta", "grid_n", "layers"},
        "optional": {"grid_scheme", "kappa", "queries", "exact"},
        "exprs": (("g", ("x",)), ("h", ("x",))),
        "exact": ("x",),
        "size": "grid_n", "kappa": 1.0,
        "queries": _queries_1d, "setup": _bvp, "oracle": False,
    },
    "laplace_disc": {
        "required": {"boundary", "theta_n", "layers"},
        "optional": {"kappa", "queries", "exact"},
        "exprs": (("boundary", ("phi",)),),
        "exact": ("r", "phi"),
        "size": "theta_n", "kappa": 0.5,
        "queries": _queries_polar, "setup": _laplace_disc, "oracle": False,
    },
}


def run_config(config: dict, exact_override: Optional[Callable] = None,
               sweep_layers: Optional[int] = None,
               deterministic: bool = True) -> ReportBundle:
    """Validate a config mapping and run the one solve pipeline: resource
    guards, the kind's setup, query points, schedule, network (whose
    activation, G for nonlinear_fie, comes from the operator's problem),
    forward pass and its verdict, the kind's readout, depth sweep."""
    if not isinstance(config, dict):
        raise ValidationError("config must be a JSON object")
    _check_schema(config)
    if sweep_layers is not None and sweep_layers < 1:
        raise ValidationError(f"sweep depth {sweep_layers} must be >= 1")
    spec = _KINDS[config["kind"]]
    fn = _compile_all(config, exact_override)
    n = _as_pos_int(config, spec["size"])
    layers = _as_pos_int(config, "layers")
    count, make_points = spec["queries"](config)
    schedule = _schedule(config, spec["kappa"])  # checked before any setup
    sweep_n = sweep_layers or 0
    depth = max(layers, sweep_n)
    if schedule.sequence and len(schedule.sequence) < depth:
        needs = "the sweep needs" if sweep_n > layers else "the run has"
        _fail("kappa", f"sequence has {len(schedule.sequence)} values, but "
                       f"{needs} {depth} layers")
    # one pass of depth max(layers, S) serves every kind's solve and sweep
    cells = (n * n + 128 * count + 2 * min(count, _BLOCK) * n
             + sweep_n * max(n, count) + 9 * depth)
    if cells > _MAX_CELLS:
        raise ValidationError(
            f"grid {n}, {count} query points, {layers} layers and sweep "
            f"{sweep_n} need {cells:.3g} dense cells, over the cap of "
            f"{_MAX_CELLS:.3g}")
    work = (depth - 1) * max(n * n, _LAYER_WORK) + sweep_n * n * count
    if work > _MAX_WORK:
        raise ValidationError(
            f"{layers} layers and sweep {sweep_n} on grid {n} need "
            f"{work:.3g} multiply-adds, over the cap of {_MAX_WORK:.3g}")

    started = time.perf_counter()
    op, readout = spec["setup"](config, fn, n)
    pts = make_points(op.grid)
    net = build_network(op, depth, schedule)
    deep = forward(net, sweep_n)  # a deeper sweep's pass is the one judged
    h_m = deep.history[layers - 1] if layers <= sweep_n else deep.values
    field = SolutionField(op.grid, h_m, deltas=deep.deltas[:layers])
    with _under("queries"):  # the readout refuses only query points
        columns, values, kind_meta = readout(net, field, pts)
    exact = (None if fn["exact"] is None
             else _exact(fn["exact"], spec["exact"], columns))
    target = exact if spec["oracle"] else None
    sweep = layer_sweep(op, deep, target, pts) if sweep_n else None
    elapsed = time.perf_counter() - started
    meta = {
        "config": config,
        "deterministic": bool(deterministic),
        "runtime_seconds": None if deterministic else elapsed,
        spec["size"]: n, "layers": layers,
        "grid_iterations": layers - 1,
        "kappa": config.get("kappa", spec["kappa"]),
        "layer_deltas": list(field.deltas),
        "final_delta": field.deltas[-1],
        **kind_meta,
    }
    if "grid_scheme" in spec["optional"]:
        meta["scheme"] = config.get("grid_scheme", "left")
    return ReportBundle(kind=config["kind"],
                        columns=(*spec["exact"], "value", "exact", "abs_err"),
                        rows=_rows(columns, values, exact),
                        sweep=sweep, metadata=meta,
                        sweep_column="max_update" if target is None
                        else "max_err")


def _overrides(kind, args) -> dict:
    """Config keys set by the command-line flags for a config of ``kind``."""
    spec = _kind_spec(kind)
    out = {}
    if args.grid is not None:
        out[spec["size"]] = args.grid
    if args.layers is not None:
        out["layers"] = args.layers
    if args.kappa is not None:
        out["kappa"] = args.kappa
    if args.scheme is not None:
        if "grid_scheme" not in spec["optional"]:
            raise ValidationError(
                f"--scheme does not apply to {kind} (fixed grid)")
        out["grid_scheme"] = args.scheme
    if args.queries is not None:
        if spec["queries"] is not _queries_1d:
            raise ValidationError(
                "--queries override is start:stop:count and does not apply "
                f"to {kind}; set queries in the config")
        out["queries"] = args.queries
    return out


def run_example(name: str, sweep_layers: Optional[int] = None,
                deterministic: bool = True,
                overrides: Optional[Dict] = None) -> ReportBundle:
    """Run a registry entry, optionally with overriding config keys."""
    spec = get_example(name)
    config = dict(spec.config)
    config.update(overrides or {})
    bundle = run_config(config, exact_override=spec.exact_fn,
                        sweep_layers=sweep_layers,
                        deterministic=deterministic)
    bundle.metadata["example"] = name
    return bundle


def run_compare_fd(nr: int, nt: int,
                   boundary_text: str = "1 + cos(2*phi)",
                   exact_text: Optional[str] = "1 + r^2*cos(2*phi)",
                   deterministic: bool = True) -> ReportBundle:
    """Finite-difference reference run with error statistics.

    The solution table subsamples the lattice to at most ~21 rings and
    angles; the metadata carries the max/mean error over every node.
    """
    boundary = _compile(boundary_text, ("phi",), "option --boundary")
    exact = (_compile(exact_text, ("r", "phi"), "option --exact")
             if exact_text else None)
    started = time.perf_counter()
    sol = solve_fd(boundary, nr, nt)
    elapsed = time.perf_counter() - started

    max_err = mean_err = center_err = None
    if exact is not None:
        # rings are numbered as the radii r_i = i/nr they sit at
        ex = _sample(exact, (sol.radii[:, None], sol.theta), "exact",
                     "node r[{i}]={v[0]!r}, phi[{j}]={v[1]!r}", 1)
        diff = np.abs(sol.values - ex)
        center_exact = float(_sample(exact, (0.0, 0.0), "exact",
                                     "the center r=0.0, phi=0.0"))
        center_err = abs(sol.center - center_exact)
        max_err = max(float(diff.max()), center_err)
        mean_err = float((diff.sum() + center_err) / (diff.size + 1))

    stride_r = max(1, (nr - 1) // 20)
    stride_t = max(1, nt // 20)
    rr, tt = np.meshgrid(sol.radii[::stride_r], sol.theta[::stride_t],
                         indexing="ij")
    lattice = (slice(None, None, stride_r), slice(None, None, stride_t))
    rows = _rows((np.append(0.0, rr), np.append(0.0, tt)),
                 np.append(sol.center, sol.values[lattice]),
                 None if exact is None
                 else np.append(center_exact, ex[lattice]))

    meta = {
        "boundary": boundary_text,
        "exact": exact_text,
        "nr": nr, "nt": nt,
        "final_residual": sol.residual,
        "max_err": max_err,
        "mean_err": mean_err,
        "deterministic": bool(deterministic),
        "runtime_seconds": None if deterministic else elapsed,
    }
    return ReportBundle(kind="fd_reference",
                        columns=("r", "phi", "value", "exact", "abs_err"),
                        rows=rows, sweep=None, metadata=meta)


def _selftest(stream) -> int:
    for name in example_names():
        config = get_example(name).config
        _check_schema(config)
        _compile_all(config, None)
    smoke = run_example("ex1", overrides={
        "grid_n": 64, "grid_scheme": "left", "layers": 12,
        "queries": "0:1:11"})
    worst = smoke.max_abs_err()
    if worst is None or worst > 0.05:
        raise NumericalError(
            f"smoke solve error {worst!r} out of expected range")
    stream.write(f"selftest ok: {len(example_names())} examples validated, "
                 f"smoke solve max error {worst:.3e}\n")
    return 0


def _add_common_flags(sp):
    sp.add_argument("--grid", type=int, metavar="N",
                    help="override grid size (theta_n for laplace_disc)")
    sp.add_argument("--layers", type=int, metavar="M",
                    help="override hidden layer count")
    sp.add_argument("--kappa", type=float, metavar="K",
                    help="override the constant relaxation in (0, 1]")
    sp.add_argument("--scheme", choices=_SCHEMES,
                    help="override the grid node placement")
    sp.add_argument("--queries", metavar="A:B:N",
                    help="override query points (1-D kinds)")
    sp.add_argument("--sweep", type=int, metavar="MMAX",
                    help="also tabulate error/update size for 1..MMAX layers")
    _add_output_flags(sp)


def _add_output_flags(sp):
    sp.add_argument("--out", metavar="PATH", help="write the report here "
                    "instead of stdout")
    sp.add_argument("--format", choices=("csv", "json"), default="csv",
                    help="output format (default csv)")
    sp.add_argument("--deterministic", action="store_true",
                    help="suppress timings so repeated runs are "
                    "byte-identical")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fredholm",
        description="Training-free fixed-point network solvers for "
                    "integral equations")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="run a JSON problem config")
    sp.add_argument("config_path", metavar="CONFIG")
    _add_common_flags(sp)

    sp = sub.add_parser("example", help="run a built-in example")
    sp.add_argument("name", nargs="?", metavar="NAME")
    sp.add_argument("--list", action="store_true", dest="list_examples",
                    help="list available examples")
    _add_common_flags(sp)

    sp = sub.add_parser("compare-fd",
                        help="run the finite-difference disc reference")
    sp.add_argument("--nr", type=int, default=100, help="radial cells")
    sp.add_argument("--nt", type=int, default=100, help="angular cells")
    sp.add_argument("--boundary", default="1 + cos(2*phi)",
                    help="Dirichlet data, expression in phi")
    sp.add_argument("--exact", default="1 + r^2*cos(2*phi)",
                    help="exact solution in r, phi ('' disables the "
                    "error columns)")
    _add_output_flags(sp)

    sub.add_parser("selftest", help="validate the registry and run a "
                   "smoke solve")
    return parser


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read config {path!r}: {exc}") from exc
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ValidationError(f"config {path!r} must be a JSON object")
    return config


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    try:
        if args.command == "selftest":
            return _selftest(out)
        if args.command == "solve":
            config = _load_config(args.config_path)
            config.update(_overrides(config.get("kind"), args))
            bundle = run_config(config, sweep_layers=args.sweep,
                                deterministic=args.deterministic)
        elif args.command == "example":
            if args.list_examples:
                for name in example_names():
                    out.write(f"{name}: {EXAMPLES[name].description}\n")
                return 0
            if not args.name:
                raise ValidationError(
                    "example name required (or use --list)")
            kind = get_example(args.name).config["kind"]
            bundle = run_example(args.name, sweep_layers=args.sweep,
                                 deterministic=args.deterministic,
                                 overrides=_overrides(kind, args))
        else:
            bundle = run_compare_fd(args.nr, args.nt,
                                    boundary_text=args.boundary,
                                    exact_text=args.exact or None,
                                    deterministic=args.deterministic)
        write_report(bundle, args.format, args.out, out)
    except (ValidationError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValidationError) else 3
    return 0
