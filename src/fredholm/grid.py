"""Uniform 1-D quadrature grids on an interval [a, b].

Three node-placement schemes share one weight convention (every node
carries the same weight ``spacing``):

* ``left``      z_j = a + (j-1)*dz,      dz = (b-a)/N   (right endpoint open)
* ``midpoint``  z_j = a + (j-1/2)*dz,    dz = (b-a)/N
* ``closed``    z_j = a + (j-1)*dz,      dz = (b-a)/(N-1)  (both endpoints in)

``left`` is the default.  ``closed`` keeps the plain Riemann weight dz on
every node, so its row sums slightly overshoot (b-a); it exists because
endpoint-inclusive grids are a common convention for this family of
solvers and change the quadrature floor noticeably.  The grid is the one
home of a problem's interval: the operator integrates over it and the
evaluation layer refuses points outside it.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, as_count, as_number

__all__ = ["Grid1D", "uniform_grid"]

_SCHEMES = ("left", "midpoint", "closed")


@dataclass(frozen=True)
class Grid1D:
    a: float
    b: float
    n: int
    nodes: np.ndarray = field(repr=False)
    spacing: float


def uniform_grid(a, b, n, scheme="left"):
    """Build a uniform grid with n nodes on [a, b].

    Nodes are strictly increasing and the spacing is exactly uniform by
    construction.  Raises ValidationError for an end that is not a finite
    number, a >= b, an unknown scheme, or an n that is not an integer >= 1
    (>= 2 for closed).
    """
    a, b = as_number(a, "interval start"), as_number(b, "interval end")
    if a >= b:
        raise ValidationError(f"invalid interval [{a}, {b}]")
    if scheme not in _SCHEMES:
        raise ValidationError(f"unknown scheme {scheme!r}; pick from {_SCHEMES}")
    n = as_count(n, 2 if scheme == "closed" else 1, f"{scheme} grid size")
    if scheme == "closed":
        dz = (b - a) / (n - 1)
        nodes = np.linspace(a, b, n)
    else:
        dz = (b - a) / n
        offset = 0.0 if scheme == "left" else 0.5
        nodes = a + (np.arange(n) + offset) * dz
    nodes.setflags(write=False)
    return Grid1D(a=a, b=b, n=n, nodes=nodes, spacing=dz)
