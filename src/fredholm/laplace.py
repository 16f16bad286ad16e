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
angles and reads mu as a periodic sample.  The harmonic potential

    u(x) = I mu(theta) (1 - r c) / (2 pi (1 - 2 r c + r^2)) dtheta,
    c = cos(theta - phi),

is P* = (dtheta/(4 pi)) sum_j mu_j plus half the Poisson extension of mu
(Kress, Linear Integral Equations, 2014, ch. 6).  The N samples define
mu's trigonometric interpolant, whose Poisson extension is exact: with
c_k = rfft(mu)_k / N, the Nyquist term halved when N is even, and
z = r e^{i phi},

    u = c_0 + Re sum_{k=1}^{floor(N/2)} c_k z^k,

one transform and one Horner loop over the P queries, O(N log N + P N)
work and O(P + N) memory.  Horner's rule is stable for |z| <= 1, and the
polynomial has no denominator, so every query in the closed disc takes
the same sum and keeps its digits up to the circle, at node angles or
between them (on the laplace_disc data the error stays the iteration's
own, 1.05e-7, from 1 - r = 1e-4 to 0).  Kinked data is the limit: the
interpolant of abs(sin(phi)) rings, and near the kink at 1 - r <= 1e-4
the potential errs by up to 5.7e-4 on 2000 nodes.
"""

from typing import Callable, Sequence, Tuple

import numpy as np

from .errors import DomainError, ValidationError, as_count
from .grid import uniform_grid
from .network import SolutionField
from .operator import DiscreteOperator, FieProblem, _sample, discretize

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
    """Double-layer potential of ``density``, the density's samples on the
    periodic theta grid (such as ``forward``'s result), at a (P, 2) list
    of polar points (r, phi); returns r, phi wrapped to [0, 2 pi) and the
    values.

    Radii must lie in [0, 1]; angles wrap.  Every query, inside or on the
    circle, takes the same Horner sum of the density's polynomial in
    z = r e^{i phi}.
    """
    mu = density.values
    if mu.shape != (density.grid.n,):
        raise ValidationError(
            f"density shape {mu.shape} != ({density.grid.n},)")
    if not np.all(np.isfinite(mu)):
        raise ValidationError("density values must be finite")
    r, phi = _polar_points(queries)
    with np.errstate(over="ignore", invalid="ignore"):
        c = np.fft.rfft(mu) / len(mu)
        if len(mu) % 2 == 0:  # the Nyquist term, cos(N phi / 2), is halved
            c[-1] *= 0.5
        z = r * np.exp(1j * phi)
        acc = np.zeros(len(r), dtype=complex)
        for ck in c[:0:-1]:  # c_{N/2}, ..., c_1
            acc += ck
            acc *= z
        values = c[0].real + acc.real
    ok = np.isfinite(values)
    if not ok.all():
        i = int(np.argmin(ok))
        raise DomainError(
            f"non-finite potential value at query point r[{i}]="
            f"{float(r[i])!r}, phi[{i}]={float(phi[i])!r}: "
            f"{float(values[i])!r}")
    return r, phi, values
