"""Discretization of Fredholm integral operators of the second kind.

The continuous problem is f(x) = g(x) + I K(x,z) f(z) dz on the grid's
[a, b], whose uniform nodes make the integral the Riemann sum of the matrix

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

from .errors import DomainError, ValidationError, as_number
from .grid import Grid1D

__all__ = [
    "FieProblem", "DiscreteOperator", "KMSchedule",
    "discretize", "estimate_contraction", "residual_norm",
]

# Rows per block when the kernel fills the matrix, when the matrix is scanned
# and when the evaluation layers build their kernel rows: no other N x N or
# P x N array is allocated, and row arithmetic is unchanged.
_BLOCK = 32


@dataclass(frozen=True)
class FieProblem:
    """A Fredholm problem of the second kind, f = g + I K G(f) dz; its
    interval is the grid's.

    ``kernel(x, z)``, ``source(x)`` and the optional pointwise
    ``nonlinearity`` G(u) are callables that broadcast over numpy arrays
    (compiled expressions and plain numpy lambdas both qualify).  Without
    G the equation is linear.  Whether G stays Lipschitz along the
    iterates is the caller's lookout; each layer's update makes a
    drifting iteration visible.  The discretization u = g + A G(u) has
    closed-form weights (A), bias (g) and activation (G), so a net over
    it runs Picard iteration at one matvec per layer, h_1 = g and
    h_m = g + A G(h_{m-1}), and ``query`` reads the result through the
    same map.  With G(u) = u the net is the linear one, bit for bit.
    """

    kernel: Callable
    source: Callable
    nonlinearity: Optional[Callable] = None

    def activation(self, values: np.ndarray) -> np.ndarray:
        """sigma of the hidden and the output layers of a net over the
        problem's discretization: G, or the identity without one.  A NaN
        of G is named at its node; an infinite G (overflow) is left to
        the verdict of ``forward`` or the evaluation layer's sum check.
        A field (N,) or a stack (N, k) goes ``_BLOCK`` columns at a time
        into one output of its shape."""
        if self.nonlinearity is None:
            return values
        columns = values.reshape(len(values), -1)
        out = np.empty(columns.shape)
        for lo in range(0, columns.shape[1], _BLOCK):
            _sample(self.nonlinearity, (columns[:, lo:lo + _BLOCK],),
                    "nonlinearity", "node {i} (iterate value {v[0]!r})",
                    nan_only=True, out=out[:, lo:lo + _BLOCK])
        return out.reshape(values.shape)


@dataclass(frozen=True)
class DiscreteOperator:
    """Kernel matrix and source samples on a grid.

    ``matrix[i, j] = K(z_i, z_j) * dz`` and ``source[i] = g(z_i)``.  The
    arrays are marked read-only so a network built on top can share them
    safely.  ``problem`` is the continuous problem discretized: its
    callables serve off-grid evaluation and its ``activation`` the hidden
    layers of a net over the operator.
    """

    grid: Grid1D
    matrix: np.ndarray
    source: np.ndarray
    problem: FieProblem

    def __post_init__(self):
        self.matrix.setflags(write=False)
        self.source.setflags(write=False)

    @property
    def n(self):
        return self.grid.n


class KMSchedule:
    """Relaxation sequence kappa_1..kappa_M (a list, tuple or array) or a
    constant, every kappa a finite number in (0, 1]."""

    def __init__(self, kappa: Union[float, Sequence[float]]):
        if not isinstance(kappa, (list, tuple, np.ndarray)):
            k = as_number(kappa, "kappa")
            if not (0.0 < k <= 1.0):
                raise ValidationError(f"kappa={k} outside (0, 1]")
            self.constant, self.sequence = k, None
        else:
            seq = tuple(as_number(k, "kappa sequence entry") for k in kappa)
            if not seq:
                raise ValidationError("empty kappa sequence")
            if any(not (0.0 < k <= 1.0) for k in seq):
                raise ValidationError(f"kappa sequence {seq} leaves (0, 1]")
            self.constant = seq[0] if len(set(seq)) == 1 else None
            self.sequence = seq

    def at(self, m):
        """kappa for layer m (1-based); a sequence refuses a layer past its
        end, which is how a run's depth is judged against it."""
        if self.sequence is None:
            return self.constant
        if not 1 <= m <= len(self.sequence):
            raise ValidationError(f"kappa sequence has {len(self.sequence)} "
                                  f"values, but the run has {m} layers")
        return self.sequence[m - 1]

    def is_constant(self):
        """Read by ``bench/spans.py``'s ``network.weights_mib`` counter."""
        return self.constant is not None


def discretize(problem: FieProblem, grid: Grid1D) -> DiscreteOperator:
    """Sample kernel and source on the grid.

    matrix[i, j] = K(z_i, z_j) * dz and source[i] = g(z_i).  Every sample
    must be defined and finite; the first offending node (pair) is named
    otherwise.
    """
    z, n = grid.nodes, grid.n
    a = np.empty((n, n))
    for lo in range(0, n, _BLOCK):
        _sample(problem.kernel, (z[lo:lo + _BLOCK, None], z[None, :]),
                "kernel", "nodes (z[{i}]={v[0]!r}, z[{j}]={v[1]!r})", lo,
                weight=grid.spacing, out=a[lo:lo + _BLOCK])
    g = _sample(problem.source, (z,), "source", "node z[{i}]={v[0]!r}")
    return DiscreteOperator(grid, a, g.copy(), problem)


def _sample(fn, args, key, at, lo=0, nan_only=False, weight=1.0,
            out=None) -> np.ndarray:
    """``fn(*args)`` over the broadcast shape of ``args``, judged: the one
    evaluation of a user function, of which numpy warns nothing.

    The first element, row-major, where ``fn`` is undefined alone or not
    finite (NaN only, with ``nan_only``) raises DomainError as ``<key>
    undefined at <point>: <reason>`` or ``<key> is not finite at <point>:
    <value>``; the point is ``at`` formatted with the element's indices
    ``i`` (plus ``lo``) and ``j`` and the argument values ``v``.  A
    DomainError no single element reproduces is raised unchanged.  With
    ``out``, the sample is ``fn(*args) * weight`` written there, as a
    kernel row enters the matrix."""
    shape = np.broadcast(*args).shape

    def point(idx):
        v = [float(x[idx]) for x in np.broadcast_arrays(*args)]
        ij = dict(zip("ij", (idx[0] + lo, *idx[1:]) if idx else ()))
        return at.format(v=v, **ij)

    with np.errstate(all="ignore"):
        try:
            val = np.asarray(fn(*args), dtype=float)
        except DomainError:
            found = _undefined_at(fn, args)
            if found is None:
                raise
            raise DomainError(f"{key} undefined at {point(found[0])}: "
                              f"{found[1]}")
        # out= rather than *=: a plain callable may return its input
        val = val if out is None else np.multiply(val, weight, out=out)
    ok = ~np.isnan(val) if nan_only else np.isfinite(val)
    if not ok.all():
        idx = np.unravel_index(np.argmin(np.broadcast_to(ok, shape)), shape)
        raise DomainError(f"{key} is not finite at {point(idx)}: "
                          f"{float(np.broadcast_to(val, shape)[idx])!r}")
    # no view of a full array: it kept N=2000 discretize ~5% slower
    return val if val.shape == shape else np.broadcast_to(val, shape)


def _undefined_at(fn, args):
    """(index, error) of the first element, row-major, where ``fn`` raises
    DomainError alone, or None.  Each axis of the broadcast views of
    ``args`` is narrowed a block of ``_BLOCK`` entries at a time, then one
    entry at a time, so a late failure among many points costs few
    calls."""
    def error(cut):
        try:
            fn(*cut)
        except DomainError as exc:
            return exc

    cut, idx = np.broadcast_arrays(*args), []
    for size in cut[0].shape:
        b = next((b for b in range(0, size, _BLOCK)
                  if error([x[b:b + _BLOCK] for x in cut])), size)
        i = next((i for i in range(b, min(b + _BLOCK, size))
                  if error([x[i:i + 1] for x in cut])), None)
        if i is None:
            return None
        idx.append(i)
        cut = [x[i] for x in cut]
    return tuple(idx), error(cut)


def estimate_contraction(op: DiscreteOperator) -> float:
    """Induced sup-norm of A: max over rows of sum |A[i, j]|.

    This bounds the Lipschitz constant of f -> g + A f in the max norm.
    A value below 1 certifies a strict contraction of the discrete map;
    values can exceed 1 slightly for operators that are non-expansive in
    the continuum, purely through quadrature.  A row sum that overflows
    gives inf, without a warning.
    """
    buf = np.empty((min(_BLOCK, op.n), op.n))
    blocks = np.split(op.matrix, range(_BLOCK, op.n, _BLOCK))
    with np.errstate(over="ignore"):
        return float(np.max([np.abs(rows, out=buf[:len(rows)]).sum(axis=1)
                             .max() for rows in blocks]))


def residual_norm(op: DiscreteOperator) -> float:
    """Sup norm of the first correction, ||A g||_inf.

    Measures how far the source is from already solving the equation and
    seeds every a-priori layer-count bound.
    """
    return float(np.max(np.abs(op.matrix @ op.source)))


def estimate_derivative_bound(op):
    raise NotImplementedError("estimate_derivative_bound has no body; it is "
                              "kept only while bench/spans.py wraps it")
