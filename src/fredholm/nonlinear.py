"""Outer re-linearization loop for nonlinear integral equations.

The problem is u(x) = g(x) + I K(x,z) G(u(z)) dz with a pointwise
nonlinearity G.  Each outer pass freezes the previous iterate inside G,
forming the linear equation

    f = g_n + I K f,    g_n = g + I K (G(f_prev) - f_prev),

solves it with the layered network, then rebuilds the source from the new
iterate.  Every pass shares the kernel matrix the caller discretized once.
With G(u) = u the correction vanishes and the loop reproduces the linear
solve exactly, pass after pass.
"""

from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import DomainError, ValidationError
from .network import (SolutionField, build_network, evaluation_layer,
                      forward)
from .operator import DiscreteOperator, FieProblem, KMSchedule, _sample

__all__ = [
    "NonlinearProblem", "IterationTrace",
    "linearized_source", "solve_nonlinear", "evaluate_nonlinear",
]


@dataclass(frozen=True)
class NonlinearProblem:
    """Kernel, source, pointwise nonlinearity and domain.

    ``nonlinearity(u)`` must broadcast over arrays.  Whether it stays
    Lipschitz along the iterates is the caller's lookout; the trace of
    update sizes makes a drifting loop visible.
    """

    kernel: Callable
    source: Callable
    nonlinearity: Callable
    a: float
    b: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b) and self.a < self.b):
            raise ValidationError(f"invalid domain [{self.a}, {self.b}]")

    def linear_problem(self) -> FieProblem:
        return FieProblem(kernel=self.kernel, source=self.source,
                          a=self.a, b=self.b)


@dataclass(frozen=True, eq=False)
class IterationTrace:
    """Record of the outer loop: consecutive-iterate sup-norm deltas and
    the source vector of the last pass."""

    outer_iterations: int
    deltas: Tuple[float, ...]
    source: np.ndarray

    def __post_init__(self):
        if any(not (np.isfinite(d) and d >= 0.0) for d in self.deltas):
            raise ValidationError(f"invalid deltas {self.deltas}")
        self.source.setflags(write=False)


def _apply_nonlinearity(problem: NonlinearProblem, values: np.ndarray,
                        where: str) -> np.ndarray:
    at = (f"nonlinearity left its domain {where} at node {{i}} "
          "(iterate value {v!r})")
    with np.errstate(all="ignore"):
        gu = _sample(problem.nonlinearity, values, at)
    bad = ~np.isfinite(gu)
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(at.format(i=i, v=float(values[i])))
    return gu


def linearized_source(problem: NonlinearProblem, base: DiscreteOperator,
                      prev_values: np.ndarray) -> np.ndarray:
    """Source of the next linear pass: g + A (G(f_prev) - f_prev).

    ``base`` must be the discretization of the problem's linear part, so
    its source vector is the original g.
    """
    prev = np.asarray(prev_values, dtype=float)
    if prev.shape != (base.n,):
        raise ValidationError(
            f"iterate shape {prev.shape} does not match grid ({base.n},)")
    gu = _apply_nonlinearity(problem, prev, "in the source update")
    return base.source + base.matrix @ (gu - prev)


def solve_nonlinear(problem: NonlinearProblem, base: DiscreteOperator,
                    layers: int, schedule: KMSchedule, outer_iterations: int,
                    delta_tol: Optional[float] = None
                    ) -> Tuple[SolutionField, IterationTrace]:
    """Run the outer loop: passes n = 0..outer_iterations, one linear
    network solve each.

    ``base`` is the discretization of the problem's linear part; pass 0
    solves it as is and later passes swap in the linearized source.
    ``delta_tol`` optionally stops early once the sup-norm change between
    passes drops below it; by default the full budget runs.  Divergence
    (non-finite layer values) and nonlinearity domain violations raise.
    """
    if outer_iterations < 1:
        raise ValidationError(
            f"outer_iterations {outer_iterations} must be >= 1")
    current = base
    deltas = []
    prev = None
    for n in range(outer_iterations + 1):
        net = build_network(current, layers, schedule)
        field = forward(net)
        vals = field.values
        if prev is not None:
            deltas.append(float(np.max(np.abs(vals - prev))))
            if delta_tol is not None and deltas[-1] < delta_tol:
                break
        prev = vals
        if n < outer_iterations:
            current = replace(
                base, source=linearized_source(problem, base, vals))
    trace = IterationTrace(outer_iterations=outer_iterations,
                           deltas=tuple(deltas), source=current.source)
    return field, trace


def evaluate_nonlinear(problem: NonlinearProblem, base: DiscreteOperator,
                       field: SolutionField, points) -> np.ndarray:
    """Evaluate the solved field off-grid through the full nonlinear map:
    u(x) = g(x) + sum_j K(x, z_j) G(f(z_j)) dz.

    Interval queries must stay inside [a, b]; periodic grids wrap them.
    """
    gu = _apply_nonlinearity(problem, np.asarray(field.values, dtype=float),
                             "in off-grid evaluation")
    out = evaluation_layer(problem, base.grid, points, gu)
    if not np.all(np.isfinite(out)):
        raise DomainError("non-finite value in off-grid evaluation")
    return out
