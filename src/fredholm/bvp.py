"""Two-point boundary value problems via an equivalent integral equation.

A problem y'' + g(x) y = h(x) on (0, 1) with y(0) = alpha, y(1) = beta is
rewritten for the unknown u = y''.  With G0(x,t) = min(x,t) (max(x,t) - 1),
the Green's function of d^2/dx^2 with zero boundary values,

    y(x) = alpha (1-x) + beta x + I G0(x,t) u(t) dt,

and substituting y back into the equation gives a Fredholm equation of the
second kind,

    u(x) = f(x) + I K(x,t) u(t) dt,
    K(x,t) = -G0(x,t) g(x) = t (1-x) g(x) for t <= x,  x (1-t) g(x) for t >= x,
    f(x)   = h(x) - alpha g(x) - (beta - alpha) x g(x),

continuous across t = x by construction.  After the network solves for u,
y is read through the evaluation layer of the first identity, its Nystrom
interpolation with kernel G0 and source alpha (1-x) + beta x, so nothing
divides by g and y(0) = alpha, y(1) = beta hold exactly whatever g does.

``green_operator`` applies the weights K(z_i, z_j) dz as two running
sums (``GreenWeights``), O(N) per layer, with no N x N matrix.
"""

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ValidationError, as_number
from .network import FixedPointNet, SolutionField, evaluation_layer
from .grid import Grid1D
from .operator import DiscreteOperator, FieProblem, _sample, discretize

__all__ = ["BvpSpec", "bvp_to_fie", "green_operator", "recover_solution",
           "ode_residual"]

@dataclass(frozen=True)
class BvpSpec:
    """y'' + g y = h on (0, 1) with y(0) = alpha, y(1) = beta; each
    boundary value must be a finite number and is kept as a float."""

    g: Callable
    h: Callable
    alpha: float
    beta: float

    def __post_init__(self):
        for key in ("alpha", "beta"):  # frozen: set through object
            object.__setattr__(self, key, as_number(getattr(self, key), key))


def bvp_to_fie(spec: BvpSpec) -> FieProblem:
    """Build the equivalent second-kind problem for u = y''."""
    g, h = spec.g, spec.h
    alpha, slope = spec.alpha, spec.beta - spec.alpha

    def kernel(x, t):
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        # min(x, t) (1 - max(x, t)) is both branches of the triangle
        tri = np.minimum(x, t)
        tri *= 1.0 - np.maximum(x, t)
        tri *= np.asarray(g(x), dtype=float)
        return tri

    def source(x):
        x = np.asarray(x, dtype=float)
        gx = np.asarray(g(x), dtype=float)
        return np.asarray(h(x), dtype=float) - (alpha + slope * x) * gx

    return FieProblem(kernel=kernel, source=source)


class GreenWeights:
    """The weights A[i, j] = K(z_i, z_j) dz of ``bvp_to_fie``'s kernel on
    a grid of [0, 1], applied without being stored:

        (A v)_i = g_i [(1 - z_i) sum_{j<=i} z_j dz v_j
                       + z_i sum_{j>i} (1 - z_j) dz v_j]

    for a field v of shape (N,), two ``np.cumsum`` calls.  With dz in the
    summands and every node in [0, 1], no partial sum exceeds max|v|, so a
    product overflows no sooner than the dense one (to inf, unwarned).
    ``np.asarray`` gives the explicit weights, bitwise ``discretize``'s.
    """

    def __init__(self, problem: FieProblem, grid: Grid1D, g: np.ndarray):
        z, dz = grid.nodes, grid.spacing
        self.problem, self.grid, self.shape = problem, grid, (grid.n, grid.n)
        self._z, self._g = z, np.array(g, dtype=float)
        self._zc = 1.0 - z
        self._below, self._above = z * dz, self._zc * dz

    def setflags(self, write: bool):
        for a in (self._g, self._zc, self._below, self._above):
            a.setflags(write=write)

    def __matmul__(self, v):
        return self._apply(v, self._g)

    def _apply(self, v, g):
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.cumsum(self._below * v)
            out *= self._zc
            above = np.cumsum((self._above * v)[:0:-1])[::-1]  # j > i
            out[:-1] += self._z[:-1] * above
            out *= g
        return out

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("the weights are computed, not stored")
        return np.asarray(discretize(self.problem, self.grid).matrix, dtype)


def green_operator(spec: BvpSpec, grid: Grid1D) -> DiscreteOperator:
    """The operator of ``bvp_to_fie(spec)`` on ``grid``, a grid of [0, 1],
    with its weights a ``GreenWeights``: ``discretize``'s operator, source
    bitwise, without its N x N matrix.  The first node where g or h is
    undefined or not finite is named (as x[i]), then one of the source."""
    if (grid.a, grid.b) != (0.0, 1.0):
        raise ValidationError(f"a bvp grid spans [0, 1], not "
                              f"[{grid.a}, {grid.b}]")
    z = grid.nodes
    g = _sample(spec.g, (z,), "g", "node x[{i}]={v[0]!r}")
    _sample(spec.h, (z,), "h", "node x[{i}]={v[0]!r}")
    problem = bvp_to_fie(spec)
    source = _sample(problem.source, (z,), "source", "node z[{i}]={v[0]!r}")
    weights = GreenWeights(problem, grid, g)
    # ||A||_inf in closed form, ones under |g|: z_j, 1 - z_j >= 0 on [0, 1]
    norm = float(np.max(weights._apply(np.ones(grid.n), np.abs(g))))
    return DiscreteOperator(grid, weights, source.copy(), problem, norm)


def recover_solution(net: FixedPointNet, field: SolutionField, spec: BvpSpec,
                     points: Sequence[float]) -> np.ndarray:
    """y at the requested points in [0, 1] from the solved u = y'': the
    evaluation layer alpha (1-x) + beta x + sum_j G0(x, z_j) u_j dz."""
    line = FieProblem(
        kernel=lambda x, t: np.minimum(x, t) * (np.maximum(x, t) - 1.0),
        source=lambda x: spec.alpha * (1.0 - x) + spec.beta * x)
    return evaluation_layer(line, net.op.grid, points, field.values)


def ode_residual(spec: BvpSpec, points: Sequence[float],
                 y_values: Sequence[float]) -> float:
    """Max of |y'' + g y - h| at interior points, with y'' from central
    second differences: a check of the stencil on the readout, not its
    error.  The stencil misses y'' by about dx^2 |y^(4)| / 12, so even the
    exact solution reads O(dx^2) in the point spacing dx, far above a
    converged readout's error.  Points must be uniformly spaced and
    sorted."""
    x = np.asarray(points, dtype=float).ravel()
    y = np.asarray(y_values, dtype=float).ravel()
    if x.size != y.size or x.size < 3:
        raise ValidationError("residual check needs 3+ matching samples")
    dx = np.diff(x)
    if dx.min() <= 0 or not np.allclose(dx, dx[0], rtol=1e-8, atol=0.0):
        raise ValidationError("residual check needs a uniform sorted grid")
    xi = x[1:-1]
    gx = _sample(spec.g, (xi,), "g", "point x[{i}]={v[0]!r}", 1)
    hx = _sample(spec.h, (xi,), "h", "point x[{i}]={v[0]!r}", 1)
    with np.errstate(all="ignore"):  # an overflow reads inf, unwarned
        ypp = (y[2:] - 2.0 * y[1:-1] + y[:-2]) / dx[0] ** 2
        return float(np.max(np.abs(ypp + gx * y[1:-1] - hx)))
