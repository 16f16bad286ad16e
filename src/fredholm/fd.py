"""Finite-difference reference solver for the Laplace equation on the
unit disc, in polar coordinates.

Second-order central differences discretize u_rr + u_r/r + u_tt/r^2 = 0
on rings r_i = i/Nr (i = 1..Nr-1) with Ntheta periodic angular nodes; the
outer ring is Dirichlet data and the center is closed by one extra
unknown equal to the average of the first ring (the discrete mean-value
property).

The stencil is invariant under rotation, so a real FFT over theta splits
the system into one tridiagonal radial system per Fourier mode (the fast
Poisson solver of Hockney 1965 and Buzbee, Golub & Nielson 1970).  Each
system is diagonally dominant with data on its rim row alone, so one
vectorized Thomas sweep solves all modes at once without pivoting: real
pivots outward, then the rim over its pivot and each inner ring as -c_i
times the ring outside it.  The solve is direct and deterministic.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SingularSystemError, ValidationError, as_count
from .operator import _sample

__all__ = ["PolarGrid", "solve_fd"]

# Largest (nr - 1) * nt accepted.  The solve peaks near 80 bytes per node,
# so the cap keeps one run under about 1.3 GiB.
MAX_NODES = 16_000_000


@dataclass(frozen=True, eq=False)
class PolarGrid:
    """FD solution on the polar grid: interior rings and center value,
    plus solver diagnostics.  ``iterations`` is always 0 (a direct
    solve), read only by ``bench/spans.py``'s ``fd.iterations`` counter.
    ``residual`` is the relative residual max|A x - b| / max|b| of the
    5-point system."""

    nr: int
    nt: int
    values: np.ndarray          # (nr-1, nt) at r_i = i/nr, theta_j
    center: float
    iterations: int
    residual: float

    def __post_init__(self):
        self.values.setflags(write=False)

    @property
    def radii(self) -> np.ndarray:
        return np.arange(1, self.nr) / self.nr

    @property
    def theta(self) -> np.ndarray:
        return np.arange(self.nt) * (2.0 * np.pi / self.nt)


def _coefficients(nr: int, nt: int):
    """Per-ring stencil weights: outward, inward, angular and diagonal."""
    dr = 1.0 / nr
    r = np.arange(1, nr) * dr
    crp = 1.0 / dr ** 2 + 1.0 / (2.0 * r * dr)
    crm = 1.0 / dr ** 2 - 1.0 / (2.0 * r * dr)
    ct = 1.0 / (r * (2.0 * np.pi / nt)) ** 2
    dg = -(2.0 / dr ** 2 + 2.0 * ct)
    return crp, crm, ct, dg


def _rim_sweep(sub, diag, sup, rim):
    """Solve diagonally dominant tridiagonal systems along axis 0, one
    per column of ``diag``, whose right-hand side is zero on every row but
    the last, ``rim``; ``sub`` and ``sup`` hold one value per row."""
    cp = np.empty_like(diag)
    pivot = diag[0]
    for i in range(1, diag.shape[0]):
        cp[i - 1] = sup[i - 1] / pivot
        pivot = diag[i] - sub[i] * cp[i - 1]
    x = np.empty(diag.shape, dtype=rim.dtype)
    x[-1] = rim / pivot
    for i in range(diag.shape[0] - 2, -1, -1):
        x[i] = -cp[i] * x[i + 1]
    return x


def _residual(values, center, f, coeffs) -> float:
    """max|A x - b| / max|b|, applying the 5-point stencil to the solution
    directly: rings padded with the center inside and the Dirichlet data
    outside, plus the center-closure row."""
    crp, crm, ct, dg = (c[:, None] for c in coeffs)
    padded = np.vstack((np.full(values.shape[1], center), values, f))
    res = (dg * values + crp * padded[2:] + crm * padded[:-2]
           + ct * (np.roll(values, 1, axis=1) + np.roll(values, -1, axis=1)))
    worst = max(float(np.max(np.abs(res))),
                abs(center - float(np.mean(values[0]))))
    scale = float(crp[-1, 0] * np.max(np.abs(f)))
    return worst / scale if scale > 0 else 0.0


def solve_fd(boundary_f, nr: int, nt: int) -> PolarGrid:
    """Solve the Dirichlet problem with data ``boundary_f(theta)``.

    Direct and deterministic.  Refuses an ``nr`` or ``nt`` that is not an
    integer >= 8, or more than ``MAX_NODES`` ring nodes, before evaluating
    the data, and data undefined or not finite at a node with a
    DomainError naming it.
    """
    nr, nt = as_count(nr, 8, "nr"), as_count(nt, 8, "nt")
    if (nr - 1) * nt > MAX_NODES:
        raise ValidationError(f"grid {nr}x{nt} has {(nr - 1) * nt} ring "
                              f"nodes; the limit is {MAX_NODES}")
    th = np.arange(nt) * (2.0 * np.pi / nt)
    f = _sample(boundary_f, (th,), "boundary", "node phi[{i}]={v[0]!r}")

    # The system is linear and the discrete maximum principle bounds the
    # solution by max|f|, so solving for f / max|f| and scaling back
    # cannot overflow even when f is near the float range.
    scale = float(np.max(np.abs(f))) or 1.0
    unit_f = f / scale
    coeffs = crp, crm, ct, dg = _coefficients(nr, nt)
    cos_k = np.cos(2.0 * np.pi / nt * np.arange(nt // 2 + 1))
    diag = dg[:, None] + 2.0 * ct[:, None] * cos_k
    # the center unknown equals ring 1's mean, which only mode 0 carries
    diag[0, 0] += crm[0]
    rim = -crp[-1] * np.fft.rfft(unit_f)
    values = np.fft.irfft(_rim_sweep(crm, diag, crp, rim), n=nt, axis=1)
    center = float(np.mean(values[0]))
    residual = _residual(values, center, unit_f, coeffs)
    values *= scale
    center *= scale
    if not (np.all(np.isfinite(values)) and np.isfinite(residual)):
        raise SingularSystemError(
            f"FD solve on {nr}x{nt} produced non-finite values")
    return PolarGrid(nr=nr, nt=nt, values=values, center=center,
                     iterations=0, residual=residual)

