"""Nonlinear integral equations as one network with G as its activation.

The problem is u(x) = g(x) + I K(x,z) G(u(z)) dz with a pointwise
nonlinearity G.  Its discretization u = g + A G(u) has closed-form weights
(A), bias (g) and activation (G), so ``fredholm.network`` solves it with G
as the hidden layers' activation: h_1 = g, h_m = g + A G(h_{m-1}), which
is Picard iteration at one matvec per layer.  ``NonlinearProblem`` is a
``FieProblem`` that adds G, so ``discretize`` takes it as it is and the
operator it returns carries G: a net over that operator takes
``NonlinearProblem.activation``, which checks G's domain at every node,
as its activation, and the evaluation layer applies it too, so ``query``
reads a nonlinear net as it reads a linear one.  With G(u) = u the
network is the linear one, bit for bit.  The run's verdict is
``forward``'s, the same for every kind.
"""

from dataclasses import dataclass
from typing import Callable, Tuple, Union

import numpy as np

from .errors import ValidationError
from .network import (SolutionField, build_network, evaluation_layer,
                      forward)
from .operator import DiscreteOperator, FieProblem, KMSchedule, _sample

__all__ = [
    "NonlinearProblem", "IterationTrace",
    "linearized_source", "solve_nonlinear", "evaluate_nonlinear",
]


@dataclass(frozen=True)
class NonlinearProblem(FieProblem):
    """A ``FieProblem`` whose integrand applies the pointwise nonlinearity
    G to the solution.

    ``nonlinearity(u)`` must broadcast over arrays.  Whether it stays
    Lipschitz along the iterates is the caller's lookout; the update size
    of each layer makes a drifting iteration visible.
    """

    nonlinearity: Callable

    def activation(self, values: np.ndarray) -> np.ndarray:
        """G at the input of a hidden or the output layer: a NaN is named
        at its node, and an infinite G (overflow) is left to the verdict
        of ``forward`` or the evaluation layer's sum check."""
        return _sample(self.nonlinearity, (values,), "nonlinearity",
                       "node {i} (iterate value {v[0]!r})", nan_only=True)


@dataclass(frozen=True)
class IterationTrace:
    """The sup-norm update ||h_m - h_{m-1}|| of each layer (h_0 = 0)."""

    deltas: Tuple[float, ...]

    def __post_init__(self):
        if any(not (np.isfinite(d) and d >= 0.0) for d in self.deltas):
            raise ValidationError(f"invalid deltas {self.deltas}")


def _check_operator(problem: NonlinearProblem, base: DiscreteOperator):
    if base.problem is not problem:
        raise ValidationError(
            "operator does not discretize this nonlinear problem")


def linearized_source(problem: NonlinearProblem, base: DiscreteOperator,
                      prev_values: np.ndarray) -> np.ndarray:
    """Source g + A (G(f_prev) - f_prev) of a pass re-linearized at
    ``f_prev``; ``base`` discretizes the problem.  Unused since G became
    the network's activation, and kept only while ``bench/spans.py``
    still wraps the name."""
    prev = np.asarray(prev_values, dtype=float)
    if prev.shape != (base.n,):
        raise ValidationError(
            f"iterate shape {prev.shape} does not match grid ({base.n},)")
    gu = _sample(problem.nonlinearity, (prev,), "nonlinearity",
                 "node {i} of the source update (iterate value {v[0]!r})")
    return base.source + base.matrix @ (gu - prev)


def solve_nonlinear(problem: NonlinearProblem, base: DiscreteOperator,
                    layers: int, schedule: KMSchedule,
                    keep_history: Union[bool, int] = False
                    ) -> Tuple[SolutionField, IterationTrace]:
    """Run ``layers`` layers over ``base``, which must discretize
    ``problem`` itself, with its G as activation (``keep_history`` and the
    verdict as in ``forward``)."""
    _check_operator(problem, base)
    field = forward(build_network(base, layers, schedule), keep_history)
    return field, IterationTrace(deltas=field.deltas)


def evaluate_nonlinear(problem: NonlinearProblem, base: DiscreteOperator,
                       field: SolutionField, points) -> np.ndarray:
    """The evaluation layer u(x) = g(x) + sum_j K(x, z_j) G(f(z_j)) dz of
    the solved field, where ``base`` must discretize ``problem`` itself.
    ``query`` applies the same layer; this name is kept only while
    ``bench/spans.py`` still wraps it."""
    _check_operator(problem, base)
    return evaluation_layer(problem, base.grid, points, field.values)
