"""Built-in example problems with pinned settings and exact solutions.

Every entry is a ready-to-run configuration in the same schema the CLI
accepts from JSON files, plus an oracle for error columns.  Settings are
pinned so results are reproducible run to run; see the individual
descriptions for what each problem exercises.
"""

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from .errors import ValidationError

__all__ = ["ExampleSpec", "EXAMPLES", "example_names", "get_example",
           "airy_like_solution"]

_HALF_PI = math.pi / 2.0
_TWO_PI = 2.0 * math.pi

# y'' + x y = 0 with y(0) = 0, y'(0) = 1: series sum a_n x^n with
# a_(m+2) = -a_(m-1) / ((m+2)(m+1)).  Terms beyond n = 40 are below
# double precision on [0, 1].
_SERIES_TERMS = 41


def _odd_series_coeffs():
    a = np.zeros(_SERIES_TERMS)
    a[1] = 1.0
    for m in range(1, _SERIES_TERMS - 2):
        a[m + 2] = -a[m - 1] / ((m + 2.0) * (m + 1.0))
    return a


_ODD_COEFFS = _odd_series_coeffs()
_ODD_AT_ONE = float(np.polynomial.polynomial.polyval(1.0, _ODD_COEFFS))


def airy_like_solution(x):
    """Exact solution of y'' + x y = 0, y(0) = 0, y(1) = 2, evaluated by
    power series; the independent reference for the `bvp_airy` entry."""
    x = np.asarray(x, dtype=float)
    return 2.0 * np.polynomial.polynomial.polyval(x, _ODD_COEFFS) / _ODD_AT_ONE


@dataclass(frozen=True)
class ExampleSpec:
    """One registry entry: pinned config plus the exact solution.

    ``exact_fn`` overrides the config's `exact` expression when the true
    solution has no closed form in the expression language.
    """

    description: str
    config: dict
    exact_fn: Optional[Callable] = None


EXAMPLES: Dict[str, ExampleSpec] = {
    "ex1": ExampleSpec(
        description=("Linear problem with constant kernel 1/e on [0, 1]; "
                     "strictly contractive, solution e^x + 1."),
        config={
            "kind": "linear_fie",
            "kernel": "1/e",
            "source": "e^x",
            "domain": [0.0, 1.0],
            "grid_n": 2000,
            "grid_scheme": "closed",
            "layers": 10,
            "kappa": 1.0,
            "queries": "0:1:201",
            "exact": "e^x + 1",
        }),
    "ex2": ExampleSpec(
        description=("Linear problem with separable kernel sin(x)cos(z) on "
                     "[0, pi/2]; non-expansive, solution 2 sin(x)."),
        config={
            "kind": "linear_fie",
            "kernel": "sin(x)*cos(z)",
            "source": "sin(x)",
            "domain": [0.0, _HALF_PI],
            "grid_n": 2000,
            "grid_scheme": "left",
            "layers": 15,
            "kappa": 1.0,
            "queries": f"0:{_HALF_PI!r}:201",
            "exact": "2*sin(x)",
        }),
    "bvp_p": ExampleSpec(
        description=("Two-point problem y'' + g y = 0 with "
                     "g = 9.6/(3.2 + x^2)^2, boundary values 0 and "
                     "1/sqrt(4.2); solution x/sqrt(3.2 + x^2)."),
        config={
            "kind": "bvp",
            "g": "9.6/(3.2 + x^2)^2",
            "h": "0",
            "alpha": 0.0,
            "beta": 1.0 / math.sqrt(4.2),
            "grid_n": 2000,
            "grid_scheme": "left",
            "layers": 10,
            "kappa": 1.0,
            "queries": "0:1:101",
            "exact": "x/sqrt(3.2 + x^2)",
        }),
    "bvp_airy": ExampleSpec(
        description=("Two-point problem y'' + x y = 0 with y(0) = 0, "
                     "y(1) = 2; reference by power series."),
        config={
            "kind": "bvp",
            "g": "x",
            "h": "0",
            "alpha": 0.0,
            "beta": 2.0,
            "grid_n": 2000,
            "grid_scheme": "left",
            "layers": 15,
            "kappa": 1.0,
            "queries": "0:1:101",
        },
        exact_fn=airy_like_solution),
    "nl1": ExampleSpec(
        description=("Nonlinear problem u = g + (1/36) I z u(z)^2 dz with "
                     "logarithmic source; solution log(x) + 1.  Midpoint "
                     "nodes keep the source off the x = 0 singularity."),
        config={
            "kind": "nonlinear_fie",
            "kernel": "z/36",
            "source": "log(x) + 143/144",
            "nonlinearity": "u^2",
            "domain": [0.0, 1.0],
            "grid_n": 1000,
            "grid_scheme": "midpoint",
            "layers": 7,
            "kappa": 1.0,
            "queries": "0.01:1:100",
            "exact": "log(x) + 1",
        }),
    "nl2": ExampleSpec(
        description=("Nonlinear problem with G(u) = u + u^2 on [0, pi]; "
                     "solution sin(x) + 1."),
        config={
            "kind": "nonlinear_fie",
            "kernel": "z/36",
            "source": "sin(x) + 1 - pi/12 - 5*pi^2/144",
            "nonlinearity": "u + u^2",
            "domain": [0.0, math.pi],
            "grid_n": 2000,
            "grid_scheme": "left",
            "layers": 20,
            "kappa": 1.0,
            "queries": f"0:{math.pi!r}:201",
            "exact": "sin(x) + 1",
        }),
    "nl3": ExampleSpec(
        description=("Nonlinear problem with G(u) = sqrt(u) and kernel "
                     "x*z on [0, 1]; solution 2 - x^2, iterates must stay "
                     "positive."),
        config={
            "kind": "nonlinear_fie",
            "kernel": "x*z",
            "source": "2 - ((2*sqrt(2) - 1)/3)*x - x^2",
            "nonlinearity": "sqrt(u)",
            "domain": [0.0, 1.0],
            "grid_n": 3000,
            "grid_scheme": "left",
            "layers": 10,
            "kappa": 1.0,
            "queries": "0:1:201",
            "exact": "2 - x^2",
        }),
    "laplace_disc": ExampleSpec(
        description=("Dirichlet data 1 + cos(2 phi) on the unit circle via "
                     "the boundary integral equation; harmonic solution "
                     "1 + r^2 cos(2 phi)."),
        config={
            "kind": "laplace_disc",
            "boundary": "1 + cos(2*phi)",
            "theta_n": 2000,
            "layers": 15,
            "kappa": 2.0 / 3.0,
            "queries": {"r": "0:1:21", "phi": f"0:{_TWO_PI!r}:41"},
            "exact": "1 + r^2*cos(2*phi)",
        }),
}


def example_names():
    return sorted(EXAMPLES)


def get_example(name: str) -> ExampleSpec:
    try:
        return EXAMPLES[name]
    except KeyError:
        raise ValidationError(
            f"unknown example {name!r}; available: "
            f"{', '.join(example_names())}") from None
