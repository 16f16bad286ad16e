"""The three benchmark workloads: inputs drawn from the seed, one op each,
and the correctness gate every op passes through.

An op returns its worst absolute error against an exact solution the
harness computes itself with numpy (it never trusts the solver's own
``exact`` column), plus the list of checks it missed.  A workload's
``cycle`` is the number of ops that cover its distinct inputs once; the
harness times whole cycles only.  Calls into the package go through
module attributes looked up at call time, so the tracer's wrappers are
seen when tracing is on.
"""

import math

import numpy as np

from fredholm import cli, report
from fredholm.registry import airy_like_solution, example_names

# Upper error bounds of tests/test_acceptance.py, unchanged.
REGISTRY_BOUNDS = {
    "ex1": 1.6e-3, "ex2": 2e-3, "nl1": 5e-5, "nl2": 5e-3, "nl3": 1e-2,
    "laplace_disc": 1e-6, "bvp_p": 1e-2, "bvp_airy": 1e-2,
}

# Each output's error at the seed commit (32a3a37), rounded up to four
# digits.  The gate also holds every output to DIGITS times its seed error,
# so a change that loses digits in any single output fails its op, even
# where the acceptance bound above leaves room or another output's larger
# error sets max_abs_err.
DIGITS = 1.05
SEED_ERRORS = {
    "ex1": 7.870e-4, "ex2": 3.093e-5, "nl1": 5.509e-8, "nl2": 2.354e-3,
    "nl3": 1.986e-4, "laplace_disc": 1.394e-7, "bvp_p": 1.914e-9,
    "bvp_airy": 1.016e-8,
    "damped_sweep.ex2": 1.080e-3,
    "disc_crosscheck.bie": 2.231e-7, "disc_crosscheck.fd": 1.305e-4,
}

# Exact solutions, written out independently of the registry's expressions.
REGISTRY_EXACT = {
    "ex1": lambda x: np.exp(x) + 1.0,
    "ex2": lambda x: 2.0 * np.sin(x),
    "nl1": lambda x: np.log(x) + 1.0,
    "nl2": lambda x: np.sin(x) + 1.0,
    "nl3": lambda x: 2.0 - x ** 2,
    "bvp_p": lambda x: x / np.sqrt(3.2 + x ** 2),
    "bvp_airy": airy_like_solution,
    "laplace_disc": lambda r, phi: 1.0 + r ** 2 * np.cos(2.0 * phi),
}

# Enough pre-drawn inputs for any op count a run of at most 60 s reaches.
_INPUTS = 512


def _check(name, err, bound, misses):
    """Append to ``misses`` unless ``err`` is within both the acceptance
    ``bound`` and DIGITS times the output's seed-commit error."""
    digits = DIGITS * SEED_ERRORS[name]
    if not err <= bound:
        misses.append(f"{name} error {err:.3e} > bound {bound:.0e}")
    elif not err <= digits:
        misses.append(f"{name} error {err:.3e} > {DIGITS} x seed-commit "
                      f"error {SEED_ERRORS[name]:.3e}")


def _err_1d(bundle, exact):
    rows = np.asarray([row[:2] for row in bundle.rows], dtype=float)
    return float(np.max(np.abs(rows[:, 1] - exact(rows[:, 0]))))


def _err_polar(bundle, exact):
    rows = np.asarray([row[:3] for row in bundle.rows], dtype=float)
    return float(np.max(np.abs(rows[:, 2] - exact(rows[:, 0], rows[:, 1]))))


class Registry:
    """All 8 pinned registry examples through ``run_example``, in a
    seed-shuffled order, each rendered with ``render_csv``."""

    name = "registry"
    cycle = 1

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        names = example_names()
        self.orders = [[names[k] for k in rng.permutation(len(names))]
                       for _ in range(_INPUTS)]

    def op(self, i):
        errors, misses = {}, []
        for name in self.orders[i % _INPUTS]:
            bundle = cli.run_example(name)
            report.render_csv(bundle)
            exact = REGISTRY_EXACT[name]
            err = (_err_polar(bundle, exact) if name == "laplace_disc"
                   else _err_1d(bundle, exact))
            errors[name] = err
            _check(name, err, REGISTRY_BOUNDS[name], misses)
        return max(errors.values()), misses, errors


class DampedSweep:
    """``ex2`` at N=2000 with a seeded 15-value relaxation sequence and a
    15-deep layer sweep.

    The kernel sin(x)cos(z) maps sin to sin/2, so the m-layer iterate is
    c_m sin(z) and the evaluated solution misses 2 sin(x) by exactly
    prod_{i<=m}(1 - kappa_i/2) at x = pi/2, up to the O(dz^2) quadrature
    error of the sum of sin(z)cos(z)dz.  Every sweep row is checked
    against that product.  The kappas are the midpoints of the fifteen
    fifteenths of [0.5, 0.95] in a seed-shuffled order: all distinct, so
    every layer gets its own weight copy, and the final product, hence
    max_abs_err, does not depend on the seed (random kappas would move
    it by +-40%).
    """

    name = "damped_sweep"
    cycle = 1
    layers = 15
    bound = 2e-3           # ex2's acceptance bound
    law_tol = 1e-5         # 100x the quadrature error of the depth law

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        mids = 0.5 + 0.45 * (np.arange(self.layers) + 0.5) / self.layers
        self.kappas = [float(k) for k in rng.permutation(mids)]
        self.law = np.cumprod(1.0 - np.asarray(self.kappas) / 2.0)

    def op(self, i):
        bundle = cli.run_example("ex2", sweep_layers=self.layers,
                                 overrides={"kappa": self.kappas})
        err = _err_1d(bundle, REGISTRY_EXACT["ex2"])
        misses = []
        _check("damped_sweep.ex2", err, self.bound, misses)
        sweep = np.asarray([e for _, e in bundle.sweep or []], dtype=float)
        if sweep.shape != self.law.shape:
            misses.append(f"sweep has {sweep.size} rows, expected "
                          f"{self.layers}")
        else:
            dev = float(np.max(np.abs(sweep - self.law)))
            if not dev <= self.law_tol:
                misses.append(f"sweep leaves the depth law by {dev:.3e}")
        return err, misses, {"ex2": err}


class DiscCrosscheck:
    """The ``laplace_disc`` BIE solve (theta_n=2000), then the FD reference
    at 200x200, on the same boundary data
    ``c0 + sum_{k<=3} (a_k cos k phi + b_k sin k phi)``; its harmonic
    extension ``c0 + sum r^k (...)`` is the oracle for both.

    The data are a fixed profile turned by j/5 of a full turn, j = 0..4;
    the seed orders the five turns anew for every five ops.  Both solvers'
    errors are invariant under the turn, but BiCGSTAB's iteration count is
    not: it jumps by up to 50% between nearby turns, so a seed-drawn turn
    would make op time a matter of the seed's luck.  Timing whole cycles
    of the five turns (``cycle``) puts the same five data sets into every
    run, so op time is comparable across seeds.  Op 0 (the untimed
    warm-up) is always the unturned profile.
    """

    name = "disc_crosscheck"
    c0 = 1.0
    profile = {1: (0.6, 0.8), 2: (1.0, 0.0), 3: (0.3, -0.4)}
    turns = cycle = 5
    fd_cells = 200
    bie_bound = 1e-6       # laplace_disc's acceptance bound
    fd_bound = 3e-4        # 2.3x the 1.30e-4 the 200x200 grid reaches

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.data = [self._coefficients(2.0 * math.pi * j / self.turns)
                     for j in range(self.turns)]
        self.order = [int(j) for _ in range(_INPUTS // self.turns)
                      for j in rng.permutation(self.turns)]

    def _coefficients(self, psi):
        coeffs = {}
        for k, (a, b) in self.profile.items():
            c, s = math.cos(k * psi), math.sin(k * psi)
            coeffs[k] = (a * c - b * s, a * s + b * c)
        return coeffs

    def _texts(self, coeffs):
        boundary, exact = [repr(self.c0)], [repr(self.c0)]
        for k, (a, b) in coeffs.items():
            boundary += [f"{a!r}*cos({k}*phi)", f"{b!r}*sin({k}*phi)"]
            exact += [f"{a!r}*r^{k}*cos({k}*phi)", f"{b!r}*r^{k}*sin({k}*phi)"]
        return " + ".join(boundary), " + ".join(exact)

    def _harmonic(self, coeffs):
        def u(r, phi):
            out = np.full(np.shape(r), self.c0)
            for k, (a, b) in coeffs.items():
                out += r ** k * (a * np.cos(k * phi) + b * np.sin(k * phi))
            return out
        return u

    def op(self, i):
        turn = 0 if i == 0 else self.order[(i - 1) % len(self.order)]
        coeffs = self.data[turn]
        boundary, exact = self._texts(coeffs)
        u = self._harmonic(coeffs)
        bie = cli.run_example("laplace_disc",
                              overrides={"boundary": boundary,
                                         "exact": exact})
        fd = cli.run_compare_fd(self.fd_cells, self.fd_cells,
                                boundary_text=boundary, exact_text=exact)
        bie_err = _err_polar(bie, u)
        # rows subsample the lattice; metadata covers every node
        fd_err = max(_err_polar(fd, u), fd.metadata["max_err"])
        misses = []
        _check("disc_crosscheck.bie", bie_err, self.bie_bound, misses)
        _check("disc_crosscheck.fd", fd_err, self.fd_bound, misses)
        return max(bie_err, fd_err), misses, {"bie": bie_err, "fd": fd_err}


WORKLOADS = {w.name: w for w in (Registry, DampedSweep, DiscCrosscheck)}
