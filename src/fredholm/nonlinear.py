"""Nonlinear integral equations as one network with G as its activation.

The problem is u(x) = g(x) + I K(x,z) G(u(z)) dz with a pointwise
nonlinearity G.  Its discretization u = g + A G(u) has closed-form weights
(A), bias (g) and activation (G), so ``fredholm.network`` solves it with G
as the hidden layers' activation: h_1 = g, h_m = g + A G(h_{m-1}), which
is Picard iteration at one matvec per layer.  G is the ``nonlinearity``
of a ``FieProblem``, so ``discretize`` takes the problem as it is and the
operator it returns carries G: a net over that operator takes
``FieProblem.activation``, which checks G's domain at every node, as its
activation, and the evaluation layer applies it too, so ``query`` reads
a nonlinear net as it reads a linear one.  With G(u) = u the network is
the linear one, bit for bit.  The run's verdict is ``forward``'s, the
same for every kind.  The names below are kept only while
``bench/spans.py`` still wraps them.
"""

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import ValidationError
from .network import (SolutionField, build_network, evaluation_layer,
                      forward)
from .operator import DiscreteOperator, FieProblem, KMSchedule, _sample

__all__ = [
    "IterationTrace",
    "linearized_source", "solve_nonlinear", "evaluate_nonlinear",
]


@dataclass(frozen=True)
class IterationTrace:
    """The sup-norm update ||h_m - h_{m-1}|| of each layer (h_0 = 0)."""

    deltas: Tuple[float, ...]

    def __post_init__(self):
        if any(not (np.isfinite(d) and d >= 0.0) for d in self.deltas):
            raise ValidationError(f"invalid deltas {self.deltas}")


def _check_operator(problem: FieProblem, base: DiscreteOperator):
    if base.problem is not problem:
        raise ValidationError(
            "operator does not discretize this nonlinear problem")


def linearized_source(problem: FieProblem, base: DiscreteOperator,
                      prev_values: np.ndarray) -> np.ndarray:
    """Source g + A (G(f_prev) - f_prev) of a pass re-linearized at
    ``f_prev``; ``base`` discretizes the problem, which needs its G."""
    prev = np.asarray(prev_values, dtype=float)
    if prev.shape != (base.n,):
        raise ValidationError(
            f"iterate shape {prev.shape} does not match grid ({base.n},)")
    gu = _sample(problem.nonlinearity, (prev,), "nonlinearity",
                 "node {i} of the source update (iterate value {v[0]!r})")
    return base.source + base.matrix @ (gu - prev)


def solve_nonlinear(problem: FieProblem, base: DiscreteOperator,
                    layers: int, schedule: KMSchedule,
                    keep_history: int = 0
                    ) -> Tuple[SolutionField, IterationTrace]:
    """Run ``layers`` layers over ``base``, which must discretize
    ``problem`` itself, with its G as activation (``keep_history`` and the
    verdict as in ``forward``)."""
    _check_operator(problem, base)
    field = forward(build_network(base, layers, schedule), keep_history)
    return field, IterationTrace(deltas=field.deltas)


def evaluate_nonlinear(problem: FieProblem, base: DiscreteOperator,
                       field: SolutionField, points) -> np.ndarray:
    """The evaluation layer u(x) = g(x) + sum_j K(x, z_j) G(f(z_j)) dz of
    the solved field, where ``base`` must discretize ``problem`` itself;
    ``query`` applies the same layer."""
    _check_operator(problem, base)
    return evaluation_layer(problem, base.grid, points, field.values)
