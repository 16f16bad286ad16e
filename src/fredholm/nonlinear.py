"""Nonlinear integral equations as one network with G as its activation.

The problem is u(x) = g(x) + I K(x,z) G(u(z)) dz with a pointwise
nonlinearity G.  Its discretization u = g + A G(u) has closed-form weights
(A), bias (g) and activation (G), so ``fredholm.network`` solves it with G
as the hidden layers' activation: h_1 = g, h_m = g + A G(h_{m-1}), which
is Picard iteration at one matvec per layer.  Each layer checks G's
domain at every node; with G(u) = u the network is the linear one, bit
for bit.  The layer updates give the verdict: a last update larger than
the first means the iteration diverges.
"""

from dataclasses import dataclass
from typing import Callable, Tuple, Union

import numpy as np

from .errors import (ConvergenceError, DivergenceError, DomainError,
                     ValidationError)
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
    Lipschitz along the iterates is the caller's lookout; the update size
    of each layer makes a drifting iteration visible.
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


@dataclass(frozen=True)
class IterationTrace:
    """The sup-norm update ||h_m - h_{m-1}|| of each layer (h_0 = 0)."""

    deltas: Tuple[float, ...]

    def __post_init__(self):
        if any(not (np.isfinite(d) and d >= 0.0) for d in self.deltas):
            raise ValidationError(f"invalid deltas {self.deltas}")


def _apply_nonlinearity(problem: NonlinearProblem, values: np.ndarray,
                        where: str, finite: bool = True) -> np.ndarray:
    # a hidden layer leaves an infinite G (overflow) to forward's check
    at = (f"nonlinearity left its domain {where} at node {{i}} "
          "(iterate value {v!r})")
    with np.errstate(all="ignore"):
        gu = _sample(problem.nonlinearity, values, at)
    bad = ~np.isfinite(gu) if finite else np.isnan(gu)
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(at.format(i=i, v=float(values[i])))
    return gu


def linearized_source(problem: NonlinearProblem, base: DiscreteOperator,
                      prev_values: np.ndarray) -> np.ndarray:
    """Source g + A (G(f_prev) - f_prev) of a pass re-linearized at
    ``f_prev``; ``base`` discretizes the problem's linear part.  Unused
    since G became the network's activation, and kept only while
    ``bench/spans.py`` still wraps the name."""
    prev = np.asarray(prev_values, dtype=float)
    if prev.shape != (base.n,):
        raise ValidationError(
            f"iterate shape {prev.shape} does not match grid ({base.n},)")
    gu = _apply_nonlinearity(problem, prev, "in the source update")
    return base.source + base.matrix @ (gu - prev)


def solve_nonlinear(problem: NonlinearProblem, base: DiscreteOperator,
                    layers: int, schedule: KMSchedule,
                    keep_history: Union[bool, int] = False
                    ) -> Tuple[SolutionField, IterationTrace]:
    """Run ``layers`` layers over ``base``, the discretization of the
    problem's linear part, with G as activation (``keep_history`` as in
    ``forward``).  A layer where G leaves its domain names the node; a run
    that overflows, or whose last update exceeds its first two (g and the
    first step of u -> g + A G(u)), diverges: ConvergenceError."""
    net = build_network(base, layers, schedule, activation=lambda u:
                        _apply_nonlinearity(problem, u, "in a hidden layer",
                                            finite=False))
    try:
        field = forward(net, keep_history)
    except DivergenceError as exc:
        raise ConvergenceError(
            f"nonlinear iteration diverging: {exc}") from None
    first, last = max(field.deltas[:2]), field.deltas[-1]
    if last > first:
        raise ConvergenceError(
            f"nonlinear iteration diverging: its update grew from {first!r} "
            f"at layer {field.deltas.index(first) + 1} to {last!r} at layer "
            f"{layers}")
    return field, IterationTrace(deltas=field.deltas)


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
