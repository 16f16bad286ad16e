"""Closed-loop benchmark of the fredholm solver, end to end and by layer.

    python3 bench/run.py --workload registry --seed 1 --seconds 25 --trace 0

One caller runs one op after another for ``--seconds`` (by default the
``run_seconds`` of BENCHMARK.json) on one BLAS thread, in whole cycles of
the workload's inputs, and checks every op's outputs against an exact
solution.  ``--trace 0`` measures the end-to-end metrics with no tracing
installed; ``--trace 1`` alternates untraced and traced ops and reports
the per-layer metrics.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it say what
the numbers are.  See bench/README.md for the workloads and metrics.
"""

import os
import time

_T0 = time.perf_counter()

# Pin BLAS threads before numpy loads: a second thread would make timings
# depend on what else runs on the machine and reorder BLAS sums.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5      # this process plus four fresh ones
IMPORT_SAMPLES = 3
TAIL_BEYOND = 10       # op_s_tail has at least this many samples above it
MIN_COVERAGE = 0.9     # share of a traced op's wall the layer spans cover
CHILD_TIMEOUT_S = 120

END_TO_END = {
    "op_s_p50": "s", "op_s_tail": "s", "ops_per_s": "1/s",
    "peak_mib": "MiB", "max_abs_err": "1", "setup_s": "s",
}

_COUNT = "count"
PER_LAYER = {
    "operator.discretize.s": "s",
    "operator.discretize.calls": _COUNT,
    "operator.discretize.bytes_computed": "B",
    "operator.estimate_derivative_bound.s": "s",
    "operator.estimate_derivative_bound.calls": _COUNT,
    "operator.estimate_contraction.s": "s",
    "operator.estimate_contraction.calls": _COUNT,
    "operator.residual_norm.s": "s",
    "network.budget_from_operator.s": "s",
    "network.forward.s": "s",
    "network.forward.calls": _COUNT,
    "network.forward.matvecs": _COUNT,
    "network.forward.bytes_computed": "B",
    "network.weights_mib": "MiB",
    "network.layer_sweep.s": "s",
    "network.build_network.s": "s",
    "network.query.s": "s",
    "nonlinear.solve_nonlinear.s": "s",
    "nonlinear.outer_passes": _COUNT,
    "nonlinear.linearized_source.s": "s",
    "nonlinear.evaluate_nonlinear.s": "s",
    "bvp.recover_solution.s": "s",
    "bvp.ode_residual.s": "s",
    "laplace.build_bie.s": "s",
    "laplace.evaluate_potential.s": "s",
    "laplace.evaluate_potential.pairs": _COUNT,
    "fd.solve_fd.s": "s",
    "fd.iterations": _COUNT,
    "fd.unknowns": _COUNT,
    "exprlang.compile.s": "s",
    "exprlang.eval.s": "s",
    "exprlang.eval.points": _COUNT,
    "report.render.s": "s",
    "cli.run_config.s": "s",
    "cli.run_compare_fd.s": "s",
    "package.import_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float,
                   help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="stop after set-up and print its seconds (used to "
                        "sample set-up time in fresh processes)")
    args = p.parse_args(argv)
    if args.seconds is None:
        spec = ROOT / "BENCHMARK.json"
        if not spec.is_file():
            raise SystemExit(f"error: no --seconds and no {spec}")
        args.seconds = float(json.loads(spec.read_text())["run_seconds"])
    return args


def _load_program():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "fredholm" / "__init__.py").is_file():
        raise SystemExit(f"error: no fredholm package under {SRC}; run from "
                         f"a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import fredholm
    if Path(fredholm.__file__).resolve().parent != SRC / "fredholm":
        raise SystemExit(f"error: imported fredholm from {fredholm.__file__},"
                         f" not from {SRC}")


class Outcome:
    """One op: wall seconds, whether it raised, its error and misses."""

    def __init__(self, seconds, completed, err, misses, detail):
        self.seconds = seconds
        self.completed = completed
        self.err = err
        self.misses = misses
        self.detail = detail

    @property
    def ok(self):
        return self.completed and not self.misses


def _attempt(work, i, tracer=None, op_id=None):
    t0 = time.perf_counter()
    try:
        if tracer is None:
            err, misses, detail = work.op(i)
        else:
            err, misses, detail = tracer.run_op(
                i if op_id is None else op_id, work.op, i)
        completed = True
    except Exception as exc:  # a failed op is counted, not fatal
        err, misses, detail = None, [f"{type(exc).__name__}: {exc}"], {}
        completed = False
    return Outcome(time.perf_counter() - t0, completed, err, misses, detail)


def _tail(samples):
    """Highest percentile with TAIL_BEYOND samples above it (the minimum
    when there are too few): (value, percentile, sample count)."""
    s = sorted(samples)
    i = max(0, len(s) - 1 - TAIL_BEYOND)
    pct = 100.0 * i / (len(s) - 1) if len(s) > 1 else 100.0
    return s[i], pct, len(s)


def _times(outcomes):
    good = [o.seconds for o in outcomes if o.ok]
    return good or [o.seconds for o in outcomes]


def _child(args, env=None):
    proc = subprocess.run(args, capture_output=True, text=True, env=env,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{args[1:3]} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _setup_sample(args):
    return _child([sys.executable, str(Path(__file__).resolve()),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--setup-only"])["setup_s"]


def _import_sample():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = ("import json, time; t = time.perf_counter(); import fredholm; "
            "print(json.dumps(time.perf_counter() - t))")
    return _child([sys.executable, "-c", code], env=env)


def _environment():
    import ctypes
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:  # glibc answers from cpuid; 194 is _SC_LEVEL3_CACHE_SIZE
        l3 = ctypes.CDLL(None).sysconf(194) if sys.platform == "linux" else None
    except (OSError, AttributeError):
        l3 = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")},
        "blas_threads": {v: os.environ[v] for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(
            os, "sched_getaffinity") else os.cpu_count(),
        "l3_bytes": l3 if l3 and l3 > 0 else None,
        "machine": platform.machine(),
    }


def _done(ops, work, start, seconds):
    """True once ``seconds`` have passed and ``ops`` is a whole number of
    the workload's input cycles."""
    return (ops % work.cycle == 0
            and time.perf_counter() - start >= seconds)


def _loop(work, seconds):
    """Timed ops 1, 2, ... until ``seconds`` have passed and the ops cover
    whole input cycles (op 0 is the untimed reference op of warm-up and
    the memory pass)."""
    outcomes, i = [], 1
    start = time.perf_counter()
    while True:
        outcomes.append(_attempt(work, i))
        i += 1
        if _done(i - 1, work, start, seconds):
            break
    return outcomes, time.perf_counter() - start


def _end_to_end(args, work, setup_main, attempted):
    timed, wall = _loop(work, args.seconds)
    gc.collect()
    tracemalloc.start()
    try:
        peak_op = _attempt(work, 0)
        peak = tracemalloc.get_traced_memory()[1] / 2.0 ** 20
    finally:
        tracemalloc.stop()
    setups = [setup_main] + [_setup_sample(args)
                             for _ in range(SETUP_SAMPLES - 1)]
    attempted += timed + [peak_op]

    times = _times(timed)
    tail, pct, n = _tail(times)
    errs = [o.err for o in timed if o.ok]
    metrics = {
        "op_s_p50": statistics.median(times),
        "op_s_tail": tail,
        "ops_per_s": sum(o.completed for o in timed) / wall,
        "peak_mib": peak,
        "max_abs_err": statistics.median(errs) if errs else float("inf"),
        "setup_s": statistics.median(setups),
    }
    print(f"timed loop: {len(timed)} ops in {wall:.3f} s; op_s_tail is "
          f"p{pct:.1f} of {n} samples")
    print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    for name, err in sorted(timed[0].detail.items()):
        print(f"error {name}: {err:.6e}")
    return metrics, True


def _per_layer(args, work, attempted):
    from spans import Tracer
    tracer = Tracer()
    untraced, traced = [], []
    start, i = time.perf_counter(), 1
    while True:  # alternate so drift hits both sides alike
        untraced.append(_attempt(work, i))
        tracer.install()
        try:
            traced.append(_attempt(work, i, tracer))
        finally:
            tracer.uninstall()
        i += 1
        if i >= 3 and _done(i - 1, work, start, args.seconds):
            break
    tracer.install()
    try:
        repeat = _attempt(work, 1, tracer, op_id="repeat")
    finally:
        tracer.uninstall()
    attempted += untraced + traced + [repeat]

    rows = tracer.per_op()
    counts_repeat = dict(tracer.counts[1]) == dict(tracer.counts["repeat"])
    per_op = [rows[k] for k in range(1, i)]
    metrics = {name: statistics.median(r.get(name, 0.0) for r in per_op)
               for name in PER_LAYER}
    coverage = [1.0 - r["bench.op.s"] / r["bench.op.wall_s"] for r in per_op]
    metrics["trace.coverage"] = statistics.median(coverage)
    metrics["trace.overhead_s"] = (statistics.median(_times(traced))
                                   - statistics.median(_times(untraced)))
    metrics["package.import_s"] = statistics.median(
        _import_sample() for _ in range(IMPORT_SAMPLES))
    covered = min(coverage) >= MIN_COVERAGE
    print(f"traced {len(per_op)} ops (each after an untraced twin); layer "
          f"self times cover {min(coverage):.4f}..{max(coverage):.4f} of "
          f"traced op wall (at least {MIN_COVERAGE} required)")
    print("computed counts (from public inputs and outputs), per op: "
          + json.dumps({k: v for k, v in sorted(rows[1].items())
                        if not k.endswith((".s", "_s"))}, sort_keys=True))
    print(f"counts repeat exactly on a second traced run of op 1: "
          f"{counts_repeat}")
    return metrics, counts_repeat and covered


def main(argv=None):
    args = _parse_args(argv)
    _load_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; pick "
                         f"from {sorted(WORKLOADS)}")
    work = WORKLOADS[args.workload](args.seed)
    warm = _attempt(work, 0)
    setup_main = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_main}))
        return 0

    attempted = [warm]
    if args.trace:
        metrics, extra_ok = _per_layer(args, work, attempted)
        units = PER_LAYER
    else:
        metrics, extra_ok = _end_to_end(args, work, setup_main, attempted)
        units = END_TO_END
    failed = [o for o in attempted if not o.ok]
    for o in failed[:5]:
        print(f"failed op: {'; '.join(o.misses)}")
    print(f"fail_ratio: {len(failed)}/{len(attempted)} ops (warm-up and "
          f"untimed passes included)")
    print("env " + json.dumps(_environment(), sort_keys=True))
    print(json.dumps({
        "correct": not failed and extra_ok,
        "attempted": len(attempted),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
