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
P* = (dtheta/(4 pi)) sum_j mu_j.  The bracket vanishes identically at
r = 1, which makes boundary queries exact up to interpolation error
instead of numerically explosive.
"""

from typing import Callable, Sequence, Tuple

import numpy as np

from .errors import DomainError, ValidationError
from .grid import uniform_grid
from .network import SolutionField
from .operator import (_BLOCK, DiscreteOperator, FieProblem, _sample,
                       discretize)

__all__ = ["build_bie", "evaluate_potential", "projected_potential"]

TWO_PI = 2.0 * np.pi


def _kernel_over_cos(r, c, den):
    """Overwrite c = cos(theta - phi) with the kernel k at radii r < 1
    (which broadcast against c); den is scratch of c's shape."""
    np.multiply(2.0 * r, c, out=den)
    np.subtract(1.0, den, out=den)
    np.add(den, r * r, out=den)
    if np.any(den == 0.0):
        raise DomainError(
            "kernel evaluated exactly at its boundary singularity "
            "(r=1, theta=phi); use the limit value 1/(4 pi)")
    np.multiply(r, c, out=c)
    np.subtract(1.0, c, out=c)
    np.multiply(TWO_PI, den, out=den)
    return np.divide(c, den, out=c)


def build_bie(boundary: Callable, theta_n: int) -> DiscreteOperator:
    """Discretize the boundary integral equation for the Dirichlet data
    ``boundary`` = f(phi) on ``theta_n`` left-rule nodes of [0, 2 pi).

    The matrix is the constant -dtheta/(2 pi); the source is 2 f(theta).
    """
    if theta_n < 2:
        raise ValidationError(f"theta_n {theta_n} must be >= 2")
    grid = uniform_grid(0.0, TWO_PI, theta_n)

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


def evaluate_potential(density: SolutionField,
                       queries: Sequence[Tuple[float, float]]
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Smoothed double-layer potential of ``density``, the density's
    samples on the periodic theta grid (such as ``forward``'s result), at
    a (P, 2) list of polar points (r, phi); returns r, phi wrapped to
    [0, 2 pi) and the values.

    Radii must lie in [0, 1]; angles wrap.  Boundary queries (r = 1) use
    the degenerate form mu*/2 + P* directly since the smoothed bracket is
    identically zero there.
    """
    mu = density.values
    if mu.shape != (density.grid.n,):
        raise ValidationError(
            f"density shape {mu.shape} != ({density.grid.n},)")
    if not np.all(np.isfinite(mu)):
        raise ValidationError("density values must be finite")
    q = np.asarray(queries, dtype=float)
    if q.ndim != 2 or q.shape[1] != 2:
        raise ValidationError("queries must be (r, phi) pairs")
    r = q[:, 0].copy()
    if np.any(~np.isfinite(r) | (r < 0.0) | (r > 1.0)):
        raise ValidationError("query radius outside [0, 1]")
    if np.any(~np.isfinite(q[:, 1])):
        raise ValidationError("query angle must be finite")
    phi = np.mod(q[:, 1], TWO_PI)
    th = density.grid.nodes
    dth = density.grid.spacing
    # mu* interpolates mu linearly on the periodic grid at the radial
    # projection of each query
    mu_star = np.interp(np.where(r == 0.0, 0.0, phi), np.append(th, TWO_PI),
                        np.append(mu, mu[0]))
    values = 0.5 * mu_star + projected_potential(density)
    # Interior rows in blocks, sorted by angle: the kernel sees the angle
    # only through cos(theta - phi), so each block takes one cosine row
    # per distinct angle.  Each row's arithmetic and pairwise sum are the
    # full P x N formula's, so the blocking does not change a result.
    interior = np.flatnonzero(r < 1.0)
    order = interior[np.argsort(phi[interior], kind="stable")]
    rows = np.empty((2, min(_BLOCK, len(order)), len(th)))
    for lo in range(0, len(order), _BLOCK):
        idx = order[lo:lo + _BLOCK]
        c, scratch = rows[:, :len(idx)]
        angles, which = np.unique(phi[idx], return_inverse=True)
        cos_rows = np.subtract(th, angles[:, None], out=scratch[:len(angles)])
        np.cos(cos_rows, out=cos_rows)
        # indices are in range; "clip" lets take write into c unbuffered
        np.take(cos_rows, which, axis=0, out=c, mode="clip")
        k = _kernel_over_cos(r[idx, None], c, scratch)
        np.subtract(k, 1.0 / (2.0 * TWO_PI), out=k)
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
