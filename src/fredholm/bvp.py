"""Two-point boundary value problems via an equivalent integral equation.

A problem y'' + g(x) y = h(x) on (0, 1) with y(0) = alpha, y(1) = beta is
rewritten for the unknown u = y''.  Writing y through the Green's function
of y'' with zero boundary data and substituting back gives a Fredholm
equation of the second kind,

    u(x) = f(x) + I K(x,t) u(t) dt,
    K(x,t) = t (1-x) g(x)  for t <= x,   x (1-t) g(x)  for t >= x,
    f(x)   = h(x) - alpha g(x) - (beta - alpha) x g(x),

continuous across t = x by construction.  After the network solves for u,
the original unknown is recovered algebraically as y = (h - u) / g, with
the boundary conditions supplying the values wherever g vanishes.
"""

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, ValidationError
from .network import FixedPointNet, SolutionField, query
from .operator import FieProblem, _sample

__all__ = ["BvpSpec", "bvp_to_fie", "recover_solution", "ode_residual"]

# Relative floor deciding when g(x) is treated as zero in the recovery.
TOL_G = 1e-12


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

    return FieProblem(kernel=kernel, source=source, a=0.0, b=1.0)


def recover_solution(net: FixedPointNet, field: SolutionField, spec: BvpSpec,
                     points: Sequence[float]) -> np.ndarray:
    """Recover y at the requested points from the solved u = y''.

    Inside the interval y = (h - u) / g; the endpoints return alpha and
    beta exactly.  Points where |g| sits below TOL_G * max|g| (and that
    are not endpoints) are filled by linear interpolation between
    recoverable neighbors.  Three or more adjacent unrecoverable points,
    or one without recoverable neighbors on both sides, mean the
    algebraic transform has genuinely broken down and raise an error.
    """
    pts = np.asarray(points, dtype=float).ravel()
    if pts.size == 0:
        return np.zeros(0)
    if np.any(~np.isfinite(pts) | (pts < 0.0) | (pts > 1.0)):
        raise ValidationError("recovery points must lie in [0, 1]")
    gq = _sample(spec.g, (pts,), "g", "query point x[{i}]={v[0]!r}")
    hq = _sample(spec.h, (pts,), "h", "query point x[{i}]={v[0]!r}")
    u = query(net, field, pts)
    g_grid = _sample(spec.g, (net.op.grid.nodes,), "g",
                     "node x[{i}]={v[0]!r}")
    floor = TOL_G * float(np.max(np.abs(g_grid)))

    y = np.empty_like(pts)
    recoverable = np.abs(gq) > floor
    with np.errstate(all="ignore"):
        np.divide(hq - u, gq, out=y, where=recoverable)
    at_left = pts == 0.0
    at_right = pts == 1.0
    y[at_left] = spec.alpha
    y[at_right] = spec.beta
    known = recoverable | at_left | at_right

    if not np.all(known):
        order = np.argsort(pts, kind="stable")
        known_o = known[order]
        run = 0
        for flag in known_o:
            run = 0 if flag else run + 1
            if run >= 3:
                raise DomainError(
                    "g vanishes on 3+ adjacent recovery points; "
                    "y = (h - u)/g is unavailable there")
        idx = np.arange(pts.size)[order]
        good = idx[known_o]
        bad = idx[~known_o]
        x_good = pts[good]
        if bad.size and (pts[bad].min() < x_good.min()
                         or pts[bad].max() > x_good.max()):
            raise DomainError(
                "unrecoverable point at the edge of the query range has "
                "no neighbors to interpolate from")
        y[bad] = np.interp(pts[bad], x_good, y[good])
    if not np.all(np.isfinite(y)):
        raise DomainError("non-finite value in boundary-problem recovery")
    return y


def ode_residual(spec: BvpSpec, points: Sequence[float],
                 y_values: Sequence[float]) -> float:
    """Max of |y'' + g y - h| at interior points, with y'' from central
    second differences.  Points must be uniformly spaced and sorted."""
    x = np.asarray(points, dtype=float).ravel()
    y = np.asarray(y_values, dtype=float).ravel()
    if x.size != y.size or x.size < 3:
        raise ValidationError("residual check needs 3+ matching samples")
    dx = np.diff(x)
    if dx.min() <= 0 or not np.allclose(dx, dx[0], rtol=1e-8, atol=0.0):
        raise ValidationError("residual check needs a uniform sorted grid")
    step = dx[0]
    ypp = (y[2:] - 2.0 * y[1:-1] + y[:-2]) / step ** 2
    xi = x[1:-1]
    gx = _sample(spec.g, (xi,), "g", "point x[{i}]={v[0]!r}", 1)
    hx = _sample(spec.h, (xi,), "h", "point x[{i}]={v[0]!r}", 1)
    return float(np.max(np.abs(ypp + gx * y[1:-1] - hx)))
