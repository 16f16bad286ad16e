"""Uniform 1-D quadrature grids.

Three node-placement schemes share one weight convention (every node
carries the same weight ``spacing``):

* ``left``      z_j = a + (j-1)*dz,      dz = (b-a)/N   (right endpoint open)
* ``midpoint``  z_j = a + (j-1/2)*dz,    dz = (b-a)/N
* ``closed``    z_j = a + (j-1)*dz,      dz = (b-a)/(N-1)  (both endpoints in)

``left`` is the default.  ``closed`` keeps the plain Riemann weight dz on
every node, so its row sums slightly overshoot (b-a); it exists because
endpoint-inclusive grids are a common convention for this family of
solvers and change the quadrature floor noticeably.  Periodic topology
(full-circle angle grids) only makes sense without a duplicated endpoint,
so closed+periodic is rejected.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

__all__ = ["Grid1D", "uniform_grid"]

_SCHEMES = ("left", "midpoint", "closed")
_TOPOLOGIES = ("interval", "periodic")


@dataclass(frozen=True)
class Grid1D:
    a: float
    b: float
    n: int
    scheme: str
    topology: str
    nodes: np.ndarray = field(repr=False)
    spacing: float

    @property
    def length(self):
        return self.b - self.a


def uniform_grid(a, b, n, scheme="left", topology="interval"):
    """Build a uniform grid with n nodes on [a, b].

    Nodes are strictly increasing and the spacing is exactly uniform by
    construction.  Raises ValidationError for n < 1 (n < 2 for closed),
    a >= b, or an unknown scheme/topology combination.
    """
    a = float(a)
    b = float(b)
    if not np.isfinite(a) or not np.isfinite(b) or a >= b:
        raise ValidationError(f"invalid interval [{a}, {b}]")
    if scheme not in _SCHEMES:
        raise ValidationError(f"unknown scheme {scheme!r}; pick from {_SCHEMES}")
    if topology not in _TOPOLOGIES:
        raise ValidationError(
            f"unknown topology {topology!r}; pick from {_TOPOLOGIES}")
    if scheme == "closed":
        if topology == "periodic":
            raise ValidationError("closed scheme duplicates the endpoint on a "
                                  "periodic grid; use left or midpoint")
        if n < 2:
            raise ValidationError("closed scheme needs at least 2 nodes")
        dz = (b - a) / (n - 1)
        nodes = np.linspace(a, b, n)
    else:
        if n < 1:
            raise ValidationError("grid needs at least 1 node")
        dz = (b - a) / n
        offset = 0.0 if scheme == "left" else 0.5
        nodes = a + (np.arange(n) + offset) * dz
    nodes.setflags(write=False)
    return Grid1D(a=a, b=b, n=n, scheme=scheme, topology=topology,
                  nodes=nodes, spacing=dz)

