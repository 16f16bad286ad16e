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
from decimal import Decimal
from typing import Callable, Dict, Optional

import numpy as np

from . import exprlang
from .bvp import BvpSpec, green_operator, ode_residual, recover_solution
from .errors import NumericalError, ValidationError, as_count, as_number
from .grid import _SCHEMES, uniform_grid
from .laplace import (_polar_points, build_bie, evaluate_potential,
                      projected_potential)
from .network import (_query_points, build_network, error_bound, forward,
                      layer_sweep, query)
from .operator import (_BLOCK, FieProblem, KMSchedule, _sample, discretize,
                       estimate_contraction)
from .registry import EXAMPLES, example_names, get_example
from .report import ReportBundle, write_report
from .fd import solve_fd

__all__ = ["main", "run_config", "run_example", "run_compare_fd"]

_DEFAULT_POLAR_QUERIES = {"r": "0:1:11", "phi": f"0:{2.0 * np.pi!r}:17"}
# compare-fd's default --boundary data and --exact solution
_FD_BOUNDARY, _FD_EXACT = "1 + cos(2*phi)", "1 + r^2*cos(2*phi)"

# Cap on the dense cells of one run: N^2 for the kernel matrix, 20 per
# layer for its recorded update (~150 B once JSON renders it as a
# layer_deltas entry), 128 per query point (~1050 B: its P-vectors, report
# row and JSON text, the larger renderer's, which peaks at ~1010 B on a
# polar lattice with exact values), 2 * min(P, 32) * N for the kernel rows
# the 1-D kinds' blocked evaluation layer holds (one buffer; the disc's
# potential holds only P- and N-vectors, so there the charge is
# conservative) and, per layer of a sweep, a 60-cell table row (~460 B of
# indented JSON, ~225 B of CSV).  An error sweep adds per layer its
# iterate in the (N, S) history and 9/8 per error (the P x S table and its
# finite mask) and per G of the history under G.  Under tracemalloc an
# N x N cell peaks at ~1.03 doubles (the matrix, filled and scanned for
# q_est in 32-row blocks; a bvp holds none, yet keeps its N^2 charge here
# and below); on 100 nodes at S = layers = 2000 error sweeps peak at
# 0.70-0.75 of their charge, and bvp_p on 200 nodes at S = layers = 20000
# with its JSON at 0.82 (0.92 when every update prints at full length).
# At 1.03 doubles the cap is ~390 MiB: N <= 7070.
_MAX_CELLS = 50_000_000
# Cap on the multiply-adds of one run, max(N^2, _LAYER_WORK) per matvec of
# its forward pass (a layer costs ~17 us on 3 nodes) plus S N P for an
# error sweep: ~10 minutes at the 1.5e9/s measured on a core.
_MAX_WORK = 900_000_000_000
_LAYER_WORK = 25_000


def _fail(key: str, reason: str):
    raise ValidationError(f"config key {key!r}: {reason}")


def _guard(charge: dict, cap, unit: str, sweep_n: int, what: str):
    """Refuse ``what`` when its ``charge``, config key (or "sweep", the
    sweep depth) to amount, sums over ``cap``, under the key charged most."""
    if (total := sum(charge.values())) <= cap:
        return
    need = f"{total if total <= sys.float_info.max else Decimal(total):.3g}"
    reason = f"{what} need {need} {unit}, over the cap of {cap:.3g}"
    if (key := max(charge, key=charge.get)) == "sweep":
        raise ValidationError(f"sweep depth {sweep_n}: {reason}")
    _fail(key, reason)


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
    if missing := spec["required"] - keys:
        raise ValidationError(
            f"config for kind {kind!r} is missing {sorted(missing)}")
    if unknown := keys - spec["required"] - spec["optional"]:
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


def _judged(rule, config: dict, key: str, *least):
    """``rule(config[key], *least, key)``, refused under config key ``key``."""
    with _under(key):
        return rule(config[key], *least, key)


def _domain(config: dict):
    dom = config["domain"]
    if not isinstance(dom, (list, tuple)) or len(dom) != 2:
        _fail("domain", f"must be a [a, b] number pair, got {dom!r}")
    with _under("domain"):
        a, b = map(as_number, dom, ("domain start", "domain end"))
    if not a < b:
        _fail("domain", f"needs a < b, got [{a}, {b}]")
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
    """Query count, then a maker of the points given the judged interval
    [a, b], whose ends make the default points; the guards see the count
    before any point is built."""
    q = config.get("queries")
    if q is None:
        return 101, lambda a, b: np.linspace(a, b, 101)
    if isinstance(q, str):
        lo, hi, count = _parse_linspace(q, "queries")
        return count, lambda a, b: np.linspace(lo, hi, count)
    if isinstance(q, (list, tuple)):
        if not q:
            _fail("queries", "number list must not be empty")
        with _under("queries"):
            points = [as_number(v, "query point") for v in q]
        return len(points), lambda a, b: np.asarray(points)
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
        return rs[2] * phis[2], lambda *_: np.stack(np.meshgrid(
            np.linspace(*rs), np.linspace(*phis), indexing="ij"),
            -1).reshape(-1, 2)
    if isinstance(q, (list, tuple)):  # _polar_points refuses an empty one
        pairs = []
        for item in q:
            if not isinstance(item, (list, tuple)) or len(item) != 2:
                _fail("queries", f"entries must be [r, phi] pairs, got {item!r}")
            with _under("queries"):
                pairs.append(tuple(map(as_number, item,
                                       ("query radius", "query angle"))))
        return len(pairs), lambda *_: np.asarray(pairs)
    _fail("queries", f"must be an r/phi lattice or a pair list, got {q!r}")


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


def _contraction(q, net, field) -> dict:
    """``q_est`` = ||A||_inf and the bound Q/(1 - Q) delta_M on the last
    layer's ||h_M - h*||, Q = kappa_M q + 1 - kappa_M (None if >= 1)."""
    kappa = net.schedule.at(len(field.deltas))
    lip = kappa * q + (1.0 - kappa)  # may be inf, which has no bound
    return {"q_est": q, "iteration_error_bound": (
        error_bound(lip, field.deltas[-1], 1) if lip < 1.0 else None)}


def _fie(fn, grid, pts):
    """linear_fie and nonlinear_fie; only a linear map reports ||A||."""
    problem = FieProblem(kernel=fn["kernel"], source=fn["source"],
                         nonlinearity=fn.get("nonlinearity"))
    op = discretize(problem, grid)
    q = estimate_contraction(op) if problem.nonlinearity is None else None
    return op, lambda net, field: (
        (pts,), query(net, field, pts),
        {} if q is None else _contraction(q, net, field))


def _bvp(fn, grid, pts):
    spec = BvpSpec(fn["g"], fn["h"], fn["alpha"], fn["beta"])
    op = green_operator(spec, grid)  # names g and h, not the FIE's kernel
    q = estimate_contraction(op)

    def readout(net, field):
        y = recover_solution(net, field, spec, pts)
        try:
            residual = ode_residual(spec, pts, y)
        except ValidationError:
            residual = None
        return (pts,), y, {
            **_contraction(q, net, field),
            "ode_residual": residual,
            "alpha": spec.alpha, "beta": spec.beta,
        }

    return op, readout


def _laplace_disc(fn, theta_n, pairs):
    op = build_bie(fn["boundary"], theta_n)

    def readout(net, field):  # the field is the boundary density
        r, phi, values = evaluate_potential(field, pairs)
        return (r, phi), values, {
            "density_mean": float(np.mean(field.values)),
            "projected_potential": projected_potential(field),
        }

    return op, readout


# Per kind: config keys, then each expression key with its parameters
# (compiled in this order) and those of the optional "exact", which name
# the point columns; then the grid-size key and its least, the default
# scheme (None: build_bie lays the disc's grid), the default kappa, the
# query parser, the setup, which only builds the operator and its readout
# from the judged pieces, and whether the sweep measures errors against
# "exact".
_KINDS = {
    "linear_fie": {
        "required": {"kernel", "source", "domain", "grid_n", "layers"},
        "optional": {"grid_scheme", "kappa", "queries", "exact"},
        "exprs": (("kernel", ("x", "z")), ("source", ("x",))),
        "exact": ("x",),
        "size": "grid_n", "least": 1, "scheme": "left", "kappa": 1.0,
        "queries": _queries_1d, "setup": _fie, "oracle": True,
    },
    "bvp": {
        "required": {"g", "h", "alpha", "beta", "grid_n", "layers"},
        "optional": {"grid_scheme", "kappa", "queries", "exact"},
        "exprs": (("g", ("x",)), ("h", ("x",))),
        "exact": ("x",),
        "size": "grid_n", "least": 1, "scheme": "left", "kappa": 1.0,
        "queries": _queries_1d, "setup": _bvp, "oracle": False,
    },
    "laplace_disc": {
        "required": {"boundary", "theta_n", "layers"},
        "optional": {"kappa", "queries", "exact"},
        "exprs": (("boundary", ("phi",)),),
        "exact": ("r", "phi"),
        "size": "theta_n", "least": 2, "scheme": None, "kappa": 0.5,
        "queries": _queries_polar, "setup": _laplace_disc, "oracle": False,
    },
}
_KINDS["nonlinear_fie"] = dict(  # linear_fie with the activation G(u)
    _KINDS["linear_fie"],
    required=_KINDS["linear_fie"]["required"] | {"nonlinearity"},
    exprs=_KINDS["linear_fie"]["exprs"] + (("nonlinearity", ("u",)),))


def run_config(config: dict, exact_override: Optional[Callable] = None,
               sweep_layers: Optional[int] = None,
               deterministic: bool = True) -> ReportBundle:
    """Judge every key of a config mapping, then run the one solve
    pipeline: resource guards, the grid and the query points, whose range
    check is the last refusal, the kind's setup (operator and readout),
    network (whose activation, G for nonlinear_fie, comes from the
    operator's problem), forward pass and its verdict, the kind's readout,
    sweep.  Every run is exactly ``layers`` layers deep; a sweep tabulates
    the first ``sweep_layers`` of them, and a deeper one is refused."""
    if not isinstance(config, dict):
        raise ValidationError("config must be a JSON object")
    _check_schema(config)
    sweep_n = (0 if sweep_layers is None
               else as_count(sweep_layers, 1, "sweep depth"))
    spec = _KINDS[config["kind"]]
    fn = _compile_all(config, exact_override)
    scheme = config.get("grid_scheme", spec["scheme"])
    n = _judged(as_count, config, spec["size"],
                2 if scheme == "closed" else spec["least"])
    layers = _judged(as_count, config, "layers", 1)
    if sweep_n > layers:
        raise ValidationError(f"sweep depth {sweep_n}: the run has {layers} "
                              f"layers; set --layers {sweep_n} to sweep them")
    with _under("kappa"):
        schedule = KMSchedule(config.get("kappa", spec["kappa"]))
        schedule.at(layers)
    # the interval (bvp's is [0, 1]), bvp's boundary values and the scheme
    a, b = _domain(config) if "domain" in config else (0.0, 1.0)
    fn.update((key, _judged(as_number, config, key))
              for key in ("alpha", "beta") if key in config)
    if "grid_scheme" in config and scheme not in _SCHEMES:
        _fail("grid_scheme", f"unknown scheme {scheme!r}; pick from "
                             f"{_SCHEMES}")
    count, make_points = spec["queries"](config)
    errors = spec["oracle"] and fn["exact"] is not None
    held = 60  # per sweep layer: its table row
    if errors:  # its iterate, P errors and, under G, G of it, each masked
        held += n + 9 * (count + (n if "nonlinearity" in fn else 0)) // 8
    _guard({spec["size"]: n * n,
            "queries": 128 * count + 2 * min(count, _BLOCK) * n,
            "layers": 20 * layers, "sweep": sweep_n * held},
           _MAX_CELLS, "dense cells", sweep_n, f"grid {n}, {count} query "
           f"points, {layers} layers and sweep {sweep_n}")
    _guard({"layers": (layers - 1) * max(n * n, _LAYER_WORK),
            "sweep": errors * sweep_n * n * count},
           _MAX_WORK, "multiply-adds", sweep_n,
           f"{layers} layers and sweep {sweep_n} on grid {n}")

    started = time.perf_counter()
    grid = n if scheme is None else uniform_grid(a, b, n, scheme=scheme)
    pts = make_points(a, b)
    with _under("queries"):  # the last refusal, by the library's checks
        _polar_points(pts) if scheme is None else _query_points(a, b, pts)
    op, readout = spec["setup"](fn, grid, pts)
    net = build_network(op, layers, schedule)
    field = forward(net, errors * sweep_n)  # an error sweep's history too
    columns, values, kind_meta = readout(net, field)
    exact = (None if fn["exact"] is None
             else _exact(fn["exact"], spec["exact"], columns))
    sweep = None if not sweep_n else (  # errors, else the pass's updates
        layer_sweep(op, field, exact, pts) if errors
        else list(enumerate(field.deltas[:sweep_n], start=1)))
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
    if scheme is not None:
        meta["scheme"] = scheme
    return ReportBundle(kind=config["kind"],
                        columns=(*spec["exact"], "value", "exact", "abs_err"),
                        rows=_rows(columns, values, exact),
                        sweep=sweep, metadata=meta,
                        sweep_column="max_err" if errors
                        else "max_update")


def _overrides(kind, args) -> dict:
    """Config keys set by the command-line flags for a config of ``kind``."""
    spec = _kind_spec(kind)
    out = {key: v for key, v in ((spec["size"], args.grid),
                                 ("layers", args.layers),
                                 ("kappa", args.kappa)) if v is not None}
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
                   boundary_text: str = _FD_BOUNDARY,
                   exact_text: Optional[str] = _FD_EXACT,
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
    sp.add_argument("--sweep", type=int, metavar="S",
                    help="also tabulate error/update size for the run's "
                    "layers 1..S (S <= its layers)")
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
    sp.add_argument("--boundary", default=_FD_BOUNDARY,
                    help="Dirichlet data, expression in phi")
    sp.add_argument("--exact", default=_FD_EXACT,
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
    # also an int past the str digit limit, or arrays nested too deep
    except (ValueError, RecursionError) as exc:
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
