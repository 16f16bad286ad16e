"""End-to-end acceptance checks.

Each test prints exactly one PASS/FAIL line (bypassing capture) so the
verdict for every criterion is visible in the plain pytest output.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from fredholm.bvp import BvpSpec, bvp_to_fie
from fredholm.cli import run_example
from fredholm.errors import DomainError, ExprSyntaxError
from fredholm.exprlang import compile_fn, parse
from fredholm.fd import solve_fd
from fredholm.grid import uniform_grid
from fredholm.network import (budget_from_operator, build_network, dense_solve,
                              error_bound, forward, plan_layers)
from fredholm.operator import KMSchedule, discretize, estimate_contraction
from fredholm.registry import example_names
from fredholm.report import render_csv


def _report(capsys, num, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"{verdict} criterion {num:2d}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def timed_bundles():
    out = {}
    for name in example_names():
        t0 = time.perf_counter()
        bundle = run_example(name)
        out[name] = (bundle, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def bvp_p_operator():
    spec = BvpSpec(
        g=lambda x: 9.6 / (3.2 + np.asarray(x, dtype=float) ** 2) ** 2,
        h=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        alpha=0.0, beta=1.0 / math.sqrt(4.2))
    return discretize(bvp_to_fie(spec), uniform_grid(0.0, 1.0, 2000,
                                                     scheme="left"))


def test_criterion_01_linear_const_kernel(timed_bundles, capsys):
    bundle, seconds = timed_bundles["ex1"]
    err = bundle.max_abs_err()
    ok = 4e-4 <= err <= 1.6e-3 and seconds < 5.0
    _report(capsys, 1, ok,
            f"ex1 max error {err:.3e} in [4e-4, 1.6e-3], "
            f"runtime {seconds:.2f}s < 5s")


def test_criterion_02_linear_separable_kernel(timed_bundles,
                                              separable_kernel_factory,
                                              capsys):
    bundle, _ = timed_bundles["ex2"]
    err = bundle.max_abs_err()
    op = separable_kernel_factory(n=2000)
    field = forward(build_network(op, 10, KMSchedule(1.0)), 10)
    sin_z = np.sin(op.grid.nodes)
    worst_law = 0.0
    for m in range(2, 11):
        target = (2.0 - 2.0 ** (1 - m)) * sin_z
        dev = float(np.max(np.abs(field.history[m - 1] - target)))
        worst_law = max(worst_law, dev)
    ok = err <= 2e-3 and worst_law <= 2e-3
    _report(capsys, 2, ok,
            f"ex2 max error {err:.3e} <= 2e-3; depth-m iterate follows "
            f"(2 - 2^(1-m)) sin z for m=2..10 within {worst_law:.3e}")


def test_criterion_03_nonlinear_suite(timed_bundles, capsys):
    errs = {name: timed_bundles[name][0].max_abs_err()
            for name in ("nl1", "nl2", "nl3")}
    ok = errs["nl1"] <= 5e-5 and errs["nl2"] <= 5e-3 and errs["nl3"] <= 1e-2
    _report(capsys, 3, ok,
            f"nonlinear max errors nl1 {errs['nl1']:.3e} <= 5e-5, "
            f"nl2 {errs['nl2']:.3e} <= 5e-3, nl3 {errs['nl3']:.3e} <= 1e-2")


def test_criterion_04_laplace_disc(timed_bundles, capsys):
    bundle, seconds = timed_bundles["laplace_disc"]
    err = bundle.max_abs_err()
    has_boundary = any(row[0] == 1.0 for row in bundle.rows)
    ok = err <= 1e-6 and seconds < 60.0 and has_boundary
    _report(capsys, 4, ok,
            f"laplace_disc max error {err:.3e} <= 1e-6 on the polar lattice "
            f"(boundary included), runtime {seconds:.2f}s < 60s")


def test_criterion_05_network_equals_iteration(const_kernel_factory,
                                               separable_kernel_factory,
                                               bie_factory, capsys):
    cases = [
        ("ex1", const_kernel_factory(n=64, scheme="closed"), 1.0, 12),
        ("ex2", separable_kernel_factory(n=64), 1.0, 12),
        ("bie", bie_factory(n=64)[1], 2.0 / 3.0, 12),
    ]
    worst = 0.0
    for _, op, kappa, layers in cases:
        schedule = KMSchedule(kappa)
        field = forward(build_network(op, layers, schedule))
        h = kappa * op.source
        for m in range(2, layers + 1):
            h = kappa * (op.source + op.matrix @ h) + (1.0 - kappa) * h
        rel = float(np.max(np.abs(field.values - h)) / np.max(np.abs(h)))
        worst = max(worst, rel)
    ok = worst <= 1e-12
    _report(capsys, 5, ok,
            f"explicit-weight forward pass matches the damped iteration at "
            f"N=64 within relative {worst:.2e} <= 1e-12")


def test_criterion_06_contraction_bound(const_kernel_factory, bvp_p_operator,
                                        capsys):
    # float floor: the dense reference itself carries ~1e-16 of rounding,
    # so the geometric bound gets a tiny relative and absolute slack
    worst = {}
    for name, op in (("ex1", const_kernel_factory(n=2000, scheme="closed")),
                     ("bvp_p", bvp_p_operator)):
        q = estimate_contraction(op)
        star = dense_solve(op)
        g_norm = float(np.max(np.abs(op.source)))
        field = forward(build_network(op, 20, KMSchedule(1.0)), 20)
        margin = 0.0
        for m in range(2, 21):
            lhs = float(np.max(np.abs(field.history[m - 1] - star.values)))
            rhs = (q ** m / (1.0 - q)) * g_norm
            margin = max(margin, lhs - (rhs * (1.0 + 1e-5) + 1e-12))
        worst[name] = margin
    ok = all(v <= 0.0 for v in worst.values())
    _report(capsys, 6, ok,
            f"||f_M - f*|| <= q^M/(1-q) ||f_1 - f_0|| for M=2..20 "
            f"(worst slack margins ex1 {worst['ex1']:.2e}, "
            f"bvp_p {worst['bvp_p']:.2e})")


def test_criterion_07_layer_planning(const_kernel_factory, capsys):
    q, residual = budget_from_operator(const_kernel_factory(n=2000,
                                                            scheme="closed"))
    m_star = plan_layers(q, residual, 1e-6)
    bound = error_bound(q, residual, m_star)
    ok = m_star == 14 and bound <= 1e-6
    _report(capsys, 7, ok,
            f"plan_layers(eps=1e-6) = {m_star} (expected 14) with bound "
            f"{bound:.3e} <= 1e-6")


def test_criterion_08_boundary_problems(timed_bundles, capsys):
    poly, _ = timed_bundles["bvp_p"]
    airy, _ = timed_bundles["bvp_airy"]
    poly_err = poly.max_abs_err()
    airy_err = airy.max_abs_err()
    rows = poly.rows
    exact_ends = rows[0][1] == 0.0 and rows[-1][1] == 1.0 / math.sqrt(4.2)
    residual = poly.metadata["ode_residual"]
    ok = (exact_ends and poly_err <= 1e-2 and residual is not None
          and residual <= 1e-3 and airy_err <= 1e-2)
    _report(capsys, 8, ok,
            f"bvp_p boundary values exact, max error {poly_err:.3e} <= 1e-2, "
            f"ODE residual {residual:.3e}; bvp_airy max error "
            f"{airy_err:.3e} <= 1e-2 against the series reference")


def test_criterion_09_fd_reference(capsys):
    flat = solve_fd(lambda t: np.ones(np.shape(t)), 32, 32)
    flat_dev = max(float(np.max(np.abs(flat.values - 1.0))),
                   abs(flat.center - 1.0))
    errs = {}
    for n in (100, 200):
        sol = solve_fd(lambda t: 1.0 + np.cos(2.0 * t), n, n)
        ex = 1.0 + sol.radii[:, None] ** 2 * np.cos(2.0 * sol.theta[None, :])
        errs[n] = max(float(np.max(np.abs(sol.values - ex))),
                      abs(sol.center - 1.0))
    ratio = errs[100] / errs[200]
    ok = flat_dev <= 1e-9 and 3.0 <= ratio <= 5.0
    _report(capsys, 9, ok,
            f"FD reference: constant data exact ({flat_dev:.1e}), error "
            f"ratio 100->200 {ratio:.2f} in [3, 5] "
            f"(2000x2000 asserted in test_fdref.test_fine_grids_second_order)")


def test_criterion_10_expression_language(capsys):
    def evaluate(tree):
        return float(compile_fn(tree, ())())

    ok = True
    ok &= evaluate(parse("2+3*4")) == 14.0
    ok &= evaluate(parse("2^3^2")) == 512.0
    ok &= evaluate(parse("-2^2")) == -4.0
    try:
        parse("sin(x*")
        ok = False
    except ExprSyntaxError as exc:
        ok &= exc.offset == 6
    try:
        parse("1 + * 2")
        ok = False
    except ExprSyntaxError as exc:
        ok &= exc.offset == 4
    for text in ("log(0)", "1/0", "sqrt(-1)", "0^-1"):
        try:
            evaluate(parse(text))
            ok = False
        except DomainError:
            pass
    _report(capsys, 10, bool(ok),
            "expression language: precedence, power associativity, unary "
            "minus, error offsets and domain signalling all exact")


def test_criterion_11_deterministic_output(timed_bundles, tmp_path, capsys):
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "fredholm", "example", "ex1",
             "--deterministic", "--out", str(path)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(path.read_bytes())
    cli_same = outs[0] == outs[1]
    stable = all(
        render_csv(timed_bundles[name][0]) == render_csv(run_example(name))
        for name in example_names())
    ok = cli_same and stable
    _report(capsys, 11, ok,
            "repeated --deterministic runs are byte-identical (CLI ex1) and "
            "every registry example re-renders identically in-process")
