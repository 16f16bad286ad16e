"""Discretization of Fredholm integral operators of the second kind.

The continuous problem is f(x) = g(x) + I K(x,z) f(z) dz on [a, b].  A
uniform grid turns the integral into a Riemann sum, giving the dense matrix

    A[i, j] = K(z_i, z_j) * dz

so that row i of A applied to a vector of samples is the quadrature of the
integral at z_i.  One damped fixed-point step (Krasnoselskii-Mann, KM)
with relaxation kappa in (0, 1] is

    step(f) = kappa * (g + A f) + (1 - kappa) * f

which for kappa = 1 reduces to plain successive approximation f <- g + A f.
Any fixed point of step solves the discrete equation f = g + A f regardless
of kappa; the relaxation only damps the update, which is what makes the
non-expansive (q = 1) case converge.
"""

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import DomainError, ValidationError
from .grid import Grid1D

__all__ = [
    "FieProblem", "DiscreteOperator", "KMSchedule",
    "discretize", "estimate_contraction",
    "residual_norm", "estimate_derivative_bound",
]


@dataclass(frozen=True)
class FieProblem:
    """A Fredholm problem of the second kind.

    ``kernel(x, z)`` and ``source(x)`` are callables that broadcast over
    numpy arrays (compiled expressions and plain numpy lambdas both
    qualify).
    """

    kernel: Callable
    source: Callable
    a: float
    b: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b) and self.a < self.b):
            raise ValidationError(f"invalid domain [{self.a}, {self.b}]")


@dataclass(frozen=True)
class DiscreteOperator:
    """Kernel matrix and source samples on a grid.

    ``matrix[i, j] = K(z_i, z_j) * dz`` and ``source[i] = g(z_i)``.  The
    arrays are marked read-only so a network built on top can share them
    safely.  ``problem`` keeps the continuous callables around for
    off-grid evaluation; hand-built operators may omit it.
    """

    grid: Grid1D
    matrix: np.ndarray
    source: np.ndarray
    problem: Optional[FieProblem] = None

    def __post_init__(self):
        self.matrix.setflags(write=False)
        self.source.setflags(write=False)

    @property
    def n(self):
        return self.grid.n


class KMSchedule:
    """Relaxation sequence kappa_1..kappa_M (or a constant).

    Every kappa must lie in (0, 1].  A constant kappa < 1 automatically
    satisfies the divergence condition sum kappa(1-kappa) = inf that the
    damped iteration needs on non-expansive operators, so it is flagged
    valid.  kappa = 1 anywhere is only flagged valid when the caller
    asserts the operator is a strict contraction.
    """

    def __init__(self, kappa: Union[float, Sequence[float]],
                 contractive: bool = False):
        if np.isscalar(kappa):
            k = float(kappa)
            if not (0.0 < k <= 1.0):
                raise ValidationError(f"kappa={k} outside (0, 1]")
            self.constant = k
            self.sequence = None
            self.valid_km = k < 1.0 or contractive
        else:
            seq = tuple(float(k) for k in kappa)
            if not seq:
                raise ValidationError("empty kappa sequence")
            if any(not (0.0 < k <= 1.0) for k in seq):
                raise ValidationError(f"kappa sequence {seq} leaves (0, 1]")
            self.constant = seq[0] if len(set(seq)) == 1 else None
            self.sequence = seq
            self.valid_km = all(k < 1.0 for k in seq) or contractive

    def at(self, m):
        """kappa for layer m (1-based)."""
        if self.sequence is None:
            return self.constant
        if not 1 <= m <= len(self.sequence):
            raise ValidationError(
                f"layer {m} outside schedule of length {len(self.sequence)}")
        return self.sequence[m - 1]

    def partial_sum(self, m):
        """v_m = kappa_1 + ... + kappa_m; partial_sum(0) = 0."""
        if self.sequence is None:
            return self.constant * m
        if m > len(self.sequence):
            raise ValidationError(
                f"partial sum over {m} terms exceeds schedule length "
                f"{len(self.sequence)}")
        return float(sum(self.sequence[:m]))

    def is_constant(self):
        return self.constant is not None

    def __repr__(self):
        if self.sequence is None:
            return f"KMSchedule(constant={self.constant})"
        return f"KMSchedule(sequence={self.sequence})"


def discretize(problem: FieProblem, grid: Grid1D) -> DiscreteOperator:
    """Sample kernel and source on the grid.

    matrix[i, j] = K(z_i, z_j) * dz and source[i] = g(z_i).  Every sample
    must be finite; the first offending node (pair) is reported otherwise.
    """
    z = grid.nodes
    kmat = np.asarray(problem.kernel(z[:, None], z[None, :]), dtype=float)
    kmat = np.broadcast_to(kmat, (grid.n, grid.n))
    a = kmat * grid.spacing
    g = np.broadcast_to(np.asarray(problem.source(z), dtype=float), (grid.n,))
    bad = ~np.isfinite(a)
    if bad.any():
        i, j = np.unravel_index(int(np.argmax(bad)), a.shape)
        raise DomainError(
            f"non-finite kernel sample at nodes (z[{i}]={z[i]!r}, "
            f"z[{j}]={z[j]!r})")
    bad = ~np.isfinite(g)
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"non-finite source sample at node z[{i}]={z[i]!r}")
    return DiscreteOperator(grid=grid, matrix=np.ascontiguousarray(a),
                            source=g.copy(), problem=problem)


def estimate_contraction(op: DiscreteOperator) -> float:
    """Induced sup-norm of A: max over rows of sum |A[i, j]|.

    This bounds the Lipschitz constant of f -> g + A f in the max norm.
    A value below 1 certifies a strict contraction of the discrete map;
    values can exceed 1 slightly for operators that are non-expansive in
    the continuum, purely through quadrature.
    """
    return float(np.max(np.sum(np.abs(op.matrix), axis=1)))


def residual_norm(op: DiscreteOperator) -> float:
    """Sup norm of the first correction, ||A g||_inf.

    Measures how far the source is from already solving the equation and
    seeds every a-priori layer-count bound.
    """
    return float(np.max(np.abs(op.matrix @ op.source)))


def estimate_derivative_bound(op: DiscreteOperator) -> float:
    """Central-difference estimate of max |d/dz [K(x, z) g(z)]| over grid
    pairs.  This is the slope constant in the Riemann-sum error term
    slope * (b-a)^2 / (2N).  Needs at least 3 nodes."""
    if op.n < 3:
        raise ValidationError("derivative estimate needs at least 3 nodes")
    dz = op.grid.spacing
    # matrix/dz restores K(z_i, z_j); columns scale with g(z_j)
    prod = (op.matrix / dz) * op.source[None, :]
    diff = np.abs(prod[:, 2:] - prod[:, :-2]) / (2.0 * dz)
    return float(np.max(diff))
