"""Dirichlet problem for the Laplace equation on the unit disc, solved
through the double-layer boundary integral equation.

On the circle the double-layer kernel collapses to the constant 1/(4 pi),
so the density mu satisfies the second-kind equation

    mu(phi) = 2 f(phi) - (1/2 pi) I mu(theta) dtheta

whose discretization has the constant matrix A_ij = -dtheta/(2 pi).  The
layered network solves for mu; the harmonic potential is then

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

from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from .errors import DomainError, ValidationError
from .grid import Grid1D, uniform_grid
from .operator import (_BLOCK, DiscreteOperator, FieProblem, _sample,
                       discretize)

__all__ = [
    "DiscBoundaryProblem", "BoundaryDensity", "PotentialField",
    "build_bie", "evaluate_potential",
]

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


@dataclass(frozen=True, eq=False)
class DiscBoundaryProblem:
    """Dirichlet data f(phi) on the unit circle, sampled on theta_n nodes."""

    boundary: Callable
    theta_n: int

    def __post_init__(self):
        if self.theta_n < 2:
            raise ValidationError(f"theta_n {self.theta_n} must be >= 2")
        object.__setattr__(
            self, "grid",
            uniform_grid(0.0, TWO_PI, self.theta_n, scheme="left",
                         topology="periodic"))


@dataclass(frozen=True, eq=False)
class BoundaryDensity:
    """Double-layer density samples on the periodic theta grid."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.grid.n,):
            raise ValidationError(
                f"density shape {self.values.shape} != ({self.grid.n},)")
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("density values must be finite")
        self.values.setflags(write=False)

    @property
    def mean_weighted(self) -> float:
        """P* = (dtheta / 4 pi) * sum mu, the projected-potential term."""
        return float(self.grid.spacing / (2.0 * TWO_PI)
                     * np.sum(self.values))


@dataclass(frozen=True, eq=False)
class PotentialField:
    """Potential values at polar query points (r, phi), phi wrapped to
    [0, 2 pi)."""

    r: np.ndarray
    phi: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        for arr in (self.r, self.phi, self.values):
            arr.setflags(write=False)


def build_bie(problem: DiscBoundaryProblem) -> DiscreteOperator:
    """Discretize the boundary integral equation on the theta grid.

    The matrix is the constant -dtheta/(2 pi); the source is 2 f(theta).
    """
    f = problem.boundary

    def kernel(x, z):
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        return np.broadcast_to(-1.0 / TWO_PI, np.broadcast_shapes(x.shape,
                                                                  z.shape))

    def source(x):
        return 2.0 * np.asarray(f(np.asarray(x, dtype=float)), dtype=float)

    # named here, not after the FIE's source it builds
    _sample(f, problem.grid.nodes, "boundary undefined at node phi[{i}]={v!r}")
    fie = FieProblem(kernel=kernel, source=source, a=0.0, b=TWO_PI)
    return discretize(fie, problem.grid)


def _interp_density(density: BoundaryDensity, phi: np.ndarray) -> np.ndarray:
    """Linear interpolation of mu on the periodic grid; phi already
    wrapped to [0, 2 pi)."""
    th = density.grid.nodes
    th_ext = np.append(th, TWO_PI)
    mu_ext = np.append(density.values, density.values[0])
    return np.interp(phi, th_ext, mu_ext)


def evaluate_potential(density: BoundaryDensity,
                       queries: Sequence[Tuple[float, float]]
                       ) -> PotentialField:
    """Smoothed double-layer potential at polar points (r, phi).

    Radii must lie in [0, 1]; angles wrap.  Boundary queries (r = 1) use
    the degenerate form mu*/2 + P* directly since the smoothed bracket is
    identically zero there.
    """
    q = np.asarray(queries, dtype=float)
    if q.ndim == 1:
        q = q.reshape(1, -1)
    if q.ndim != 2 or q.shape[1] != 2:
        raise ValidationError("queries must be (r, phi) pairs")
    r = q[:, 0].copy()
    phi_raw = q[:, 1].copy()
    if np.any(~np.isfinite(r) | (r < 0.0) | (r > 1.0)):
        raise ValidationError("query radius outside [0, 1]")
    if np.any(~np.isfinite(phi_raw)):
        raise ValidationError("query angle must be finite")
    phi = np.mod(phi_raw, TWO_PI)
    phi_star = np.where(r == 0.0, 0.0, phi)
    mu_star = _interp_density(density, phi_star)
    p_star = density.mean_weighted

    th = density.grid.nodes
    dth = density.grid.spacing
    mu = density.values
    values = 0.5 * mu_star + p_star
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
    if not np.all(np.isfinite(values)):
        raise DomainError("non-finite potential value")
    return PotentialField(r=r, phi=phi, values=values)
