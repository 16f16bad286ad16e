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

# Rows per block when the kernel fills the matrix, when the matrix is scanned
# and when the evaluation layers build their kernel rows: no other N x N or
# P x N array is allocated, and row arithmetic is unchanged.
_BLOCK = 32


@dataclass(frozen=True)
class FieProblem:
    """A Fredholm problem of the second kind.

    ``kernel(x, z)`` and ``source(x)`` are callables that broadcast over
    numpy arrays (compiled expressions and plain numpy lambdas both
    qualify).  ``activation`` is the sigma of the hidden layers of a net
    over its discretization: None, the identity, for the linear equation.
    """

    kernel: Callable
    source: Callable
    a: float
    b: float
    activation = None

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b) and self.a < self.b):
            raise ValidationError(f"invalid domain [{self.a}, {self.b}]")


@dataclass(frozen=True)
class DiscreteOperator:
    """Kernel matrix and source samples on a grid.

    ``matrix[i, j] = K(z_i, z_j) * dz`` and ``source[i] = g(z_i)``.  The
    arrays are marked read-only so a network built on top can share them
    safely.  ``problem`` is the continuous problem discretized: its
    callables serve off-grid evaluation and its ``activation`` the hidden
    layers of a net over the operator.  Hand-built operators may omit it.
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

    Every kappa must lie in (0, 1].  ``valid_km`` says whether the kappas
    alone make a valid KM schedule: a constant kappa < 1 satisfies the
    divergence condition sum kappa(1-kappa) = inf that the damped
    iteration needs on non-expansive operators; kappa = 1 anywhere does
    not, and only a strict contraction of the operator can make it valid.
    """

    def __init__(self, kappa: Union[float, Sequence[float]]):
        if np.isscalar(kappa):
            k = float(kappa)
            if not (0.0 < k <= 1.0):
                raise ValidationError(f"kappa={k} outside (0, 1]")
            self.constant = k
            self.sequence = None
            self.valid_km = k < 1.0
        else:
            seq = tuple(float(k) for k in kappa)
            if not seq:
                raise ValidationError("empty kappa sequence")
            if any(not (0.0 < k <= 1.0) for k in seq):
                raise ValidationError(f"kappa sequence {seq} leaves (0, 1]")
            self.constant = seq[0] if len(set(seq)) == 1 else None
            self.sequence = seq
            self.valid_km = all(k < 1.0 for k in seq)

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
    must be finite and the kernel defined at every node pair; the first
    offending node (pair) is reported otherwise.
    """
    z, n = grid.nodes, grid.n
    a = np.empty((n, n))
    for lo in range(0, n, _BLOCK):
        try:
            k = np.asarray(problem.kernel(z[lo:lo + _BLOCK, None],
                                          z[None, :]), dtype=float)
        except DomainError as exc:
            raise _undefined_pair(problem.kernel, z, z, lo) or exc
        # out= rather than *= on k: a plain callable may return its input
        block = np.multiply(k, grid.spacing, out=a[lo:lo + _BLOCK])
        bad = ~np.isfinite(block)
        if bad.any():
            i, j = np.argwhere(bad)[0] + (lo, 0)
            raise DomainError(
                f"non-finite kernel sample at nodes (z[{i}]={float(z[i])!r}, "
                f"z[{j}]={float(z[j])!r})")
    g = _sample(problem.source, z, "source undefined at node z[{i}]={v!r}")
    bad = ~np.isfinite(g)
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(
            f"non-finite source sample at node z[{i}]={float(z[i])!r}")
    return DiscreteOperator(grid, a, g.copy(), problem)


def _sample(fn, x, at) -> np.ndarray:
    """``fn`` at the points ``x`` (one per row), as one float per point.  A
    DomainError is renamed after the first point where ``fn`` fails alone,
    by the format ``at`` of its index ``i`` and value ``v``."""
    try:
        return np.broadcast_to(np.asarray(fn(x), dtype=float), x.shape[:1])
    except DomainError as exc:
        raise _undefined_pair(fn, x, at=at) or exc


def _undefined_pair(fn, x, z=None, lo=0, at=None) -> Optional[DomainError]:
    """``fn``'s DomainError at the first point where it fails alone,
    renamed after that point: ``fn``'s own message names none.  A kernel
    (``z`` given) is tried on the pairs (x[i], z[j]), row-major in the
    block from row ``lo``; rows that are the nodes themselves are named as
    nodes, others as queries.  A one-argument ``fn`` is tried on the
    points x[i], a block at a time, and named by ``at``, a format of the
    index ``i`` and value ``v``."""
    def error(*args):
        try:
            fn(*args)
        except DomainError as exc:
            return exc
    if z is None:
        for b in range(lo, len(x), _BLOCK):
            for i in range(b, min(b + _BLOCK, len(x))) if error(
                    x[b:b + _BLOCK]) else ():
                exc = error(x[i:i + 1])
                if exc:
                    return DomainError(
                        f"{at.format(i=i, v=x[i].tolist())}: {exc}")
        return None
    pair, name = ("nodes", "z") if x is z else ("query point and node", "x")
    for i in range(lo, len(x))[:_BLOCK]:
        for j in range(len(z)) if error(x[i:i + 1, None], z[None, :]) else ():
            exc = error(x[i:i + 1, None], z[None, j:j + 1])
            if exc:
                return DomainError(
                    f"kernel undefined at {pair} ({name}[{i}]="
                    f"{float(x[i])!r}, z[{j}]={float(z[j])!r}): {exc}")


def estimate_contraction(op: DiscreteOperator) -> float:
    """Induced sup-norm of A: max over rows of sum |A[i, j]|.

    This bounds the Lipschitz constant of f -> g + A f in the max norm.
    A value below 1 certifies a strict contraction of the discrete map;
    values can exceed 1 slightly for operators that are non-expansive in
    the continuum, purely through quadrature.
    """
    buf = np.empty((min(_BLOCK, op.n), op.n))
    blocks = np.split(op.matrix, range(_BLOCK, op.n, _BLOCK))
    return float(np.max([np.abs(rows, out=buf[:len(rows)]).sum(axis=1).max()
                         for rows in blocks]))


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
    prod = np.empty((min(_BLOCK, op.n), op.n))
    diff = np.empty((len(prod), op.n - 2))
    peaks = []
    for rows in np.split(op.matrix, range(_BLOCK, op.n, _BLOCK)):
        p, d = prod[:len(rows)], diff[:len(rows)]
        # matrix/dz restores K(z_i, z_j); columns scale with g(z_j)
        np.multiply(np.divide(rows, dz, out=p), op.source, out=p)
        np.subtract(p[:, 2:], p[:, :-2], out=d)
        peaks += [d.max(), -d.min()]
    # rounding is monotone, so dividing the max equals the max of quotients;
    # the peak is never negative, and abs drops the sign of max(0, -0)
    return abs(float(np.max(peaks))) / (2.0 * dz)
