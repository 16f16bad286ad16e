"""Shared test configuration.

Thread pinning must happen before numpy first loads in this process:
multi-threaded BLAS reductions can reorder sums, and the determinism
tests compare rendered output byte for byte across runs.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

import fredholm as fr


@pytest.fixture(scope="session")
def const_kernel_factory():
    """Operators for f = e^x + (1/e) I f(z) dz on [0, 1] (solution e^x + 1)."""

    def make(n=2000, scheme="closed"):
        problem = fr.FieProblem(kernel=lambda x, z: 1.0 / np.e,
                                source=lambda x: np.exp(x))
        grid = fr.uniform_grid(0.0, 1.0, n, scheme=scheme)
        return fr.discretize(problem, grid)

    return make


@pytest.fixture(scope="session")
def separable_kernel_factory():
    """Operators for f = sin(x) + I sin(x)cos(z) f(z) dz on [0, pi/2]
    (solution 2 sin x); non-expansive, quadrature pushes q just above 1."""

    def make(n=2000, scheme="left"):
        problem = fr.FieProblem(kernel=lambda x, z: np.sin(x) * np.cos(z),
                                source=lambda x: np.sin(x))
        grid = fr.uniform_grid(0.0, np.pi / 2.0, n, scheme=scheme)
        return fr.discretize(problem, grid)

    return make


@pytest.fixture(scope="session")
def bie_factory():
    """Boundary-integral operators on the circle for f = 1 + 2 cos(2 phi),
    each with the damped schedule that suits its non-expansive matrix."""

    def make(n=2000, kappa=2.0 / 3.0):
        return fr.KMSchedule(kappa), fr.build_bie(
            lambda t: 1.0 + 2.0 * np.cos(2.0 * t), n)

    return make
