"""Span tracing of the package's public functions, from outside.

``Tracer.install`` replaces each traced function at every module attribute
that binds it (``cli``, ``nonlinear``, ``laplace``, ``bvp`` and ``network``
import theirs with ``from .x import y``, so patching the defining module
alone would miss those callers) and ``uninstall`` puts the originals back
and checks that no wrapper is left.  Each call records a span: name,
start, end, parent span and op id.  Counts are computed from the public
inputs and outputs of the traced calls, never read from inside the
package.
"""

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

MIB = 2.0 ** 20


def _count_discretize(args, result, counts):
    counts["operator.discretize.bytes_computed"] += args["grid"].n ** 2 * 8


def _count_forward(args, result, counts):
    net = args["net"]
    matvecs = net.layers - 1
    counts["network.forward.matvecs"] += matvecs
    counts["network.forward.bytes_computed"] += matvecs * net.op.n ** 2 * 8


def _count_build_network(args, result, counts):
    # the net keeps one N x N weight per distinct kappa != 1 of layers 2..M
    layers, schedule = args["layers"], args["schedule"]
    if schedule.is_constant():
        kappas = {schedule.constant}
    else:
        kappas = set(schedule.sequence[1:layers])
    copies = len(kappas - {1.0})
    counts["network.weights_mib"] += copies * args["op"].n ** 2 * 8 / MIB


def _count_solve_nonlinear(args, result, counts):
    _, trace = result
    counts["nonlinear.outer_passes"] += len(trace.deltas) + 1


def _count_evaluate_potential(args, result, counts):
    pairs = np.asarray(args["queries"], dtype=float).reshape(-1, 2).shape[0]
    counts["laplace.evaluate_potential.pairs"] += (
        pairs * args["density"].grid.n)


def _count_solve_fd(args, result, counts):
    counts["fd.iterations"] += result.iterations
    counts["fd.unknowns"] += (args["nr"] - 1) * args["nt"] + 1


# span name -> [(defining module, function, computed counts)]
TRACED = {
    "exprlang.compile": [("fredholm.exprlang", "parse", None),
                         ("fredholm.exprlang", "compile_fn", None)],
    "operator.discretize": [("fredholm.operator", "discretize",
                             _count_discretize)],
    "operator.estimate_contraction": [("fredholm.operator",
                                       "estimate_contraction", None)],
    "operator.estimate_derivative_bound": [("fredholm.operator",
                                            "estimate_derivative_bound",
                                            None)],
    "operator.residual_norm": [("fredholm.operator", "residual_norm", None)],
    "network.build_network": [("fredholm.network", "build_network",
                               _count_build_network)],
    "network.forward": [("fredholm.network", "forward", _count_forward)],
    "network.query": [("fredholm.network", "query", None)],
    "network.budget_from_operator": [("fredholm.network",
                                      "budget_from_operator", None)],
    "network.layer_sweep": [("fredholm.network", "layer_sweep", None)],
    "nonlinear.solve_nonlinear": [("fredholm.nonlinear", "solve_nonlinear",
                                   _count_solve_nonlinear)],
    "nonlinear.linearized_source": [("fredholm.nonlinear",
                                     "linearized_source", None)],
    "nonlinear.evaluate_nonlinear": [("fredholm.nonlinear",
                                      "evaluate_nonlinear", None)],
    "bvp.recover_solution": [("fredholm.bvp", "recover_solution", None)],
    "bvp.ode_residual": [("fredholm.bvp", "ode_residual", None)],
    "laplace.build_bie": [("fredholm.laplace", "build_bie", None)],
    "laplace.evaluate_potential": [("fredholm.laplace", "evaluate_potential",
                                    _count_evaluate_potential)],
    "fd.solve_fd": [("fredholm.fd", "solve_fd", _count_solve_fd)],
    "report.render": [("fredholm.report", "render_csv", None)],
    "cli.run_config": [("fredholm.cli", "run_config", None)],
    "cli.run_compare_fd": [("fredholm.cli", "run_compare_fd", None)],
}
EVAL = "exprlang.eval"
ROOT = "bench.op"


class Tracer:
    """Records spans while installed; ``run_op`` opens the root span of
    one benchmark op, and wrappers only record inside one."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent, op_id]
        self.counts = defaultdict(lambda: defaultdict(float))  # op -> name
        self._stack = []
        self._op_id = None
        self._patched = []     # (module, attribute, original)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter(), None, parent, self._op_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def run_op(self, op_id, fn, *args):
        """Run ``fn(*args)`` as op ``op_id`` under a root span."""
        self._op_id = op_id
        span = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(span)
            self._op_id = None

    def _wrap(self, name, fn, count):
        sig = inspect.signature(fn)
        returns_fn = name == "exprlang.compile" and fn.__name__ == "compile_fn"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op_id is None:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            counts = tracer.counts[tracer._op_id]
            counts[name + ".calls"] += 1
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                count(bound.arguments, result, counts)
            return tracer._wrap_eval(result) if returns_fn else result

        wrapper.__bench_wrapper__ = True
        return wrapper

    def _wrap_eval(self, compiled):
        tracer = self

        @functools.wraps(compiled)
        def evaluate(*args):
            if tracer._op_id is None:
                return compiled(*args)
            span = tracer._open(EVAL)
            try:
                return compiled(*args)
            finally:
                tracer._close(span)
                counts = tracer.counts[tracer._op_id]
                counts[EVAL + ".calls"] += 1
                counts[EVAL + ".points"] += int(np.prod(
                    np.broadcast_shapes(*(np.shape(a) for a in args))))

        return evaluate

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "fredholm"
                                         or name.startswith("fredholm."))]
        for span_name, targets in TRACED.items():
            for module_name, attr, count in targets:
                original = getattr(sys.modules[module_name], attr)
                wrapper = self._wrap(span_name, original, count)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            self._patched.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched = []
        left = [f"{name}.{key}"
                for name, m in sys.modules.items()
                if name == "fredholm" or name.startswith("fredholm.")
                for key, value in vars(m).items()
                if getattr(value, "__bench_wrapper__", False)]
        if left:
            raise RuntimeError(f"tracing wrappers left behind: {left}")

    def per_op(self):
        """{op_id: {metric: value}}: self seconds per span name (``<name>.s``)
        plus the counts, and ``bench.op.wall_s``, the root span's length."""
        durations = [s[2] - s[1] for s in self.spans]
        self_time = list(durations)
        for span, dur in zip(self.spans, durations):
            if span[3] is not None:
                self_time[span[3]] -= dur
        out = defaultdict(lambda: defaultdict(float))
        for span, dur, own in zip(self.spans, durations, self_time):
            row = out[span[4]]
            row[span[0] + ".s"] += own
            if span[0] == ROOT:
                row[ROOT + ".wall_s"] += dur
        for op_id, counts in self.counts.items():
            out[op_id].update(counts)
        return {k: dict(v) for k, v in out.items()}
