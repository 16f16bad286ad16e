"""Dirichlet problem for the Laplace equation on the unit disc, solved
through the double-layer boundary integral equation.

On the circle the double-layer kernel collapses to the constant 1/(4 pi),
so the density mu satisfies the second-kind equation

    mu(phi) = 2 f(phi) - (1/2 pi) I mu(theta) dtheta

whose discretization has the constant matrix A_ij = -dtheta/(2 pi).
``build_bie`` assembles it on the left-rule grid of [0, 2 pi), and the
network's forward pass solves for mu: the ``SolutionField`` it returns is
the density, which ``evaluate_potential`` reads as one more evaluation
layer.  The disc's periodicity lives there alone: it wraps the query
angles and interpolates mu across 2 pi itself.  The harmonic potential is

    u(x) = I mu(theta) k(r, phi, theta) dtheta

with the polar kernel

    k(r, phi, theta) = (1 - r c) / (2 pi (1 - 2 r c + r^2)),
    c = cos(theta - phi).

Near the boundary that integrand peaks sharply, so evaluation uses the
smoothed rearrangement

    u = sum_j (mu_j - mu*) [k - 1/(4 pi)] dtheta + mu*/2 + P*,

where mu* interpolates mu at the radial projection of the query and
P* = (dtheta/(4 pi)) sum_j mu_j.  The bracket is half the Poisson kernel
(Kress, Linear Integral Equations, 2014, ch. 6),

    k - 1/(4 pi) = (1 - r)(1 + r) / (4 pi ((1 - r)^2 + 4 r s^2)),
    s = sin((theta - phi)/2),

whose denominator is positive for every r < 1, even at a node angle as r
rounds to just below 1, where 1 - 2 r c + r^2 cancels to 0.  It vanishes
at r = 1, which makes boundary queries exact up to interpolation error.
"""

from typing import Callable, Sequence, Tuple

import numpy as np

from .errors import DomainError, ValidationError, as_count
from .grid import uniform_grid
from .network import SolutionField
from .operator import (_BLOCK, DiscreteOperator, FieProblem, _sample,
                       discretize)

__all__ = ["build_bie", "evaluate_potential", "projected_potential"]

TWO_PI = 2.0 * np.pi


def build_bie(boundary: Callable, theta_n: int) -> DiscreteOperator:
    """Discretize the boundary integral equation for the Dirichlet data
    ``boundary`` = f(phi) on ``theta_n`` left-rule nodes of [0, 2 pi).

    The matrix is the constant -dtheta/(2 pi); the source is 2 f(theta).
    Refuses a ``theta_n`` that is not an integer >= 2.
    """
    grid = uniform_grid(0.0, TWO_PI, as_count(theta_n, 2, "theta_n"))

    def source(x):
        return 2.0 * np.asarray(boundary(np.asarray(x, dtype=float)),
                                dtype=float)

    # named here, not after the FIE's source it builds
    _sample(boundary, (grid.nodes,), "boundary", "node phi[{i}]={v[0]!r}")
    fie = FieProblem(kernel=lambda x, z: -1.0 / TWO_PI, source=source)
    return discretize(fie, grid)


def projected_potential(density: SolutionField) -> float:
    """P* = (dtheta / 4 pi) * sum mu, the projected-potential term; a sum
    that overflows gives inf, without a warning."""
    with np.errstate(over="ignore"):
        return float(density.grid.spacing / (2.0 * TWO_PI)
                     * np.sum(density.values))


def _polar_points(queries) -> Tuple[np.ndarray, np.ndarray]:
    """r and phi, wrapped to [0, 2 pi), of (P, 2) polar points; a radius
    outside [0, 1] or an angle that is not finite is refused."""
    q = np.asarray(queries, dtype=float)
    if q.ndim != 2 or q.shape[1] != 2:
        raise ValidationError("queries must be (r, phi) pairs")
    r = q[:, 0].copy()
    if np.any(~np.isfinite(r) | (r < 0.0) | (r > 1.0)):
        raise ValidationError("query radius outside [0, 1]")
    if np.any(~np.isfinite(q[:, 1])):
        raise ValidationError("query angle must be finite")
    return r, np.mod(q[:, 1], TWO_PI)


def evaluate_potential(density: SolutionField,
                       queries: Sequence[Tuple[float, float]]
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Smoothed double-layer potential of ``density``, the density's
    samples on the periodic theta grid (such as ``forward``'s result), at
    a (P, 2) list of polar points (r, phi); returns r, phi wrapped to
    [0, 2 pi) and the values.

    Radii must lie in [0, 1]; angles wrap.  Interior queries, on a
    lattice or scattered, take one blocked scan of the closed-form
    bracket; boundary queries (r = 1) take mu*/2 + P* directly, since the
    bracket is zero there.
    """
    mu = density.values
    if mu.shape != (density.grid.n,):
        raise ValidationError(
            f"density shape {mu.shape} != ({density.grid.n},)")
    if not np.all(np.isfinite(mu)):
        raise ValidationError("density values must be finite")
    r, phi = _polar_points(queries)
    th = density.grid.nodes
    dth = density.grid.spacing
    # mu* interpolates mu linearly on the periodic grid at the radial
    # projection of each query
    mu_star = np.interp(np.where(r == 0.0, 0.0, phi), np.append(th, TWO_PI),
                        np.append(mu, mu[0]))
    values = 0.5 * mu_star + projected_potential(density)
    # Interior rows in blocks: s = sin(theta/2) cos(phi/2) - cos(theta/2)
    # sin(phi/2), exactly 0 at theta = phi, then the bracket.  Each row's
    # arithmetic and pairwise sum are the full P x N formula's, so the
    # blocking does not change a result.
    half_sin, half_cos = np.sin(0.5 * th), np.cos(0.5 * th)
    interior = np.flatnonzero(r < 1.0)
    rows = np.empty((2, min(_BLOCK, len(interior)), len(th)))
    for lo in range(0, len(interior), _BLOCK):
        idx = interior[lo:lo + _BLOCK]
        s, scratch = rows[:, :len(idx)]
        ri, half = r[idx, None], 0.5 * phi[idx, None]
        np.multiply(half_sin, np.cos(half), out=s)
        np.subtract(s, np.multiply(half_cos, np.sin(half), out=scratch),
                    out=s)
        den = np.multiply(4.0 * ri, np.multiply(s, s, out=s), out=s)
        np.add(den, (1.0 - ri) ** 2, out=den)
        k = np.divide((1.0 - ri) * (1.0 + ri) / (2.0 * TWO_PI), den, out=den)
        diff = np.subtract(mu, mu_star[idx, None], out=scratch)
        values[idx] += np.multiply(diff, k, out=k).sum(axis=1) * dth
    ok = np.isfinite(values)
    if not ok.all():
        i = int(np.argmin(ok))
        raise DomainError(
            f"non-finite potential value at query point r[{i}]="
            f"{float(r[i])!r}, phi[{i}]={float(phi[i])!r}: "
            f"{float(values[i])!r}")
    return r, phi, values
