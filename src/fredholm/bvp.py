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
"""

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ValidationError
from .network import FixedPointNet, SolutionField, evaluation_layer
from .operator import FieProblem, _sample

__all__ = ["BvpSpec", "bvp_to_fie", "recover_solution", "ode_residual"]

@dataclass(frozen=True)
class BvpSpec:
    """y'' + g y = h on (0, 1) with y(0) = alpha, y(1) = beta."""

    g: Callable
    h: Callable
    alpha: float
    beta: float

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and np.isfinite(self.beta)):
            raise ValidationError(
                f"boundary values ({self.alpha}, {self.beta}) must be finite")


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
