"""Training-free layered realization of the damped fixed-point iteration.

An M-layer network over a discrete operator (A, g) with activation sigma
emits

    h_1 = kappa_1 * g
    h_m = kappa_m (A sigma(h_{m-1})) + (1 - kappa_m) h_{m-1} + kappa_m g

for m = 2..M, which is exactly M damped steps started from zero.
Weights, bias and activation all come from the problem the operator
discretizes: A from K dz, the bias from g, and sigma from the problem's
``activation``, which is G for u = g + A G(u) and the identity for a
linear equation (layer m is then W_m h_{m-1} + kappa_m g, W_m = kappa_m A
+ (1 - kappa_m) I).  Nothing is trained.  W_m is never stored, so the
network costs A itself whatever its depth and relaxations: one N x N
block, or for a bvp an O(N) map (``bvp.GreenWeights``), which the one
layer loop applies with the same ``@``.  Every run, whatever its kind,
gets its verdict in ``forward``: an overflow, or a map residual
||T h - h|| at the last layer above that of the first two by more than
rounding, raises DivergenceError.  One evaluation layer, the output
layer of every 1-D kind, applies one undamped step at arbitrary points,

    f(x) = g(x) + sum_j K(x, z_j) sigma(h_M[j]) dz,

so off-grid values come from the same quadrature and activation that
built the hidden layers; a sum that is not finite raises DomainError at
its query point.  The module also carries the error accounting:
one contraction bound of two numbers, ``error_bound(q, residual, k)`` =
q^k/(1-q) times one update, which gives a run its a-posteriori figure
and, through ``plan_layers(q, residual, eps)``, plans the depth for a
target accuracy.
"""

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import (DivergenceError, DomainError, SingularSystemError,
                     ValidationError, as_count, as_number)
from .grid import Grid1D
from .operator import (_BLOCK, DiscreteOperator, KMSchedule, _sample,
                       estimate_contraction, residual_norm)

__all__ = [
    "SolutionField", "FixedPointNet",
    "build_network", "forward", "query", "dense_solve",
    "budget_from_operator", "error_bound", "plan_layers",
    "layer_sweep", "evaluation_layer",
]


@dataclass(frozen=True, eq=False)
class SolutionField:
    """Samples of the iterate on the grid, the sup-norm update of each layer
    and optionally the (N, k) history, column m - 1 holding layer m."""

    grid: Grid1D
    values: np.ndarray
    history: Optional[np.ndarray] = None
    deltas: Tuple[float, ...] = ()

    def __post_init__(self):
        for a in (self.values, self.history):
            if a is not None:
                a.setflags(write=False)


class FixedPointNet:
    """Explicit-weight network equivalent to M damped fixed-point steps.

    A validated record of the operator, the depth (an integer >= 1) and
    the relaxation schedule; the activation is that of the operator's
    problem.  Layer m's weight W_m = kappa_m A + (1 - kappa_m) I and bias
    kappa_m g are applied implicitly by ``forward`` and never stored, so
    memory stays the operator's weights (one N x N block, or a bvp's O(N)
    map) plus a few N-vectors at any depth.
    """

    def __init__(self, op: DiscreteOperator, layers: int, schedule: KMSchedule):
        layers = as_count(layers, 1, "layer count")
        schedule.at(layers)  # a kappa sequence must reach the last layer
        self.op = op
        self.layers = layers
        self.schedule = schedule


def build_network(op: DiscreteOperator, layers: int,
                  schedule: KMSchedule) -> FixedPointNet:
    """Assemble the network for ``layers`` damped steps of ``op``."""
    return FixedPointNet(op, layers, schedule)


def forward(net: FixedPointNet, keep_history: int = 0) -> SolutionField:
    """Run all hidden layers and return the last grid iterate, with the
    first ``keep_history`` iterates (all at the net's depth or more) as
    its (N, k) history, column m - 1 holding layer m, and the sup-norm
    update ||h_m - h_{m-1}|| of every layer (h_0 = 0) as its deltas.
    ``keep_history`` must be an integer >= 0.

    Layer m computes kappa (A sigma(h)) + (1 - kappa) h + kappa g.  This
    is the one verdict on every run.  DivergenceError is raised the moment
    any layer produces a non-finite value, naming the layer and the first
    and last finite updates.  It is also raised after the last layer when
    the map residual r_m = delta_m / kappa_m = ||T h_{m-1} - h_{m-1}||,
    T h = g + A sigma(h), ends above the larger of r_1 (g itself) and r_2
    (the first step of T) by more than 4 ulp of rounding; on a
    non-expansive map the residual of a damped iteration never grows.
    """
    keep_history = as_count(keep_history, 0, "history length")
    a, g, act = net.op.matrix, net.op.source, net.op.problem.activation
    h, prev = net.schedule.at(1) * g, 0.0
    history = np.empty((net.op.n, min(keep_history, net.layers)))
    deltas: List[float] = []
    with np.errstate(all="ignore"):
        for m in range(1, net.layers + 1):
            if m > 1:
                prev, kappa = h, net.schedule.at(m)
                h = kappa * (a @ act(h)) + (1.0 - kappa) * h + kappa * g
            if not np.all(np.isfinite(h)):
                grew = (f"; its update was {deltas[0]!r} at layer 1 and "
                        f"{deltas[-1]!r} at layer {m - 1}" if m > 2 else "")
                raise DivergenceError(f"non-finite values at layer {m}{grew}")
            deltas.append(float(np.max(np.abs(h - prev))))
            if m <= keep_history:
                history[:, m - 1] = h
    res = [d / net.schedule.at(m) for m, d in enumerate(deltas, start=1)]
    first = max(res[:2])
    if res[-1] > first * (1.0 + 4.0 * np.finfo(float).eps):  # past rounding
        raise DivergenceError(
            f"iteration diverging: its residual grew from {first!r} at layer "
            f"{res.index(first) + 1} to {res[-1]!r} at layer {net.layers}")
    return SolutionField(grid=net.op.grid, values=h,
                         history=history if keep_history else None,
                         deltas=tuple(deltas))


def _query_points(a: float, b: float, points: Sequence[float]) -> np.ndarray:
    """``points`` as a flat float array; one that is not finite or lies
    outside [a, b] is refused."""
    pts = np.asarray(points, dtype=float).ravel()
    bad = (pts < a) | (pts > b) | ~np.isfinite(pts)
    if bad.any():
        raise ValidationError(
            f"query point {float(pts[np.argmax(bad)])!r} outside [{a}, {b}]")
    return pts


def evaluation_layer(problem, grid: Grid1D, points: Sequence[float],
                     values: np.ndarray) -> np.ndarray:
    """The output layer g(x) + sum_j K(x, z_j) dz sigma(values[j]) at
    points x, with sigma the problem's ``activation``.

    ``problem`` supplies the ``kernel``, ``source`` and ``activation``.
    ``values`` may be one grid field (N,) or a stack of fields (N, k),
    giving (P,) or (P, k); fields of another length than the grid's, and
    points outside its [a, b], are refused.
    The points are scanned in blocks of ``_BLOCK`` rows, so no P x N
    kernel rows are held.  A kernel or source sample
    that is undefined or not finite is named at its query point (and
    node), as is a sum that is not finite.
    """
    if np.shape(values)[:1] != (grid.n,):
        raise ValidationError(f"field of size {np.shape(values)} does not "
                              f"match grid of size {grid.n}")
    pts = _query_points(grid.a, grid.b, points)
    values = problem.activation(values)
    z = grid.nodes
    out = np.empty(pts.shape + np.shape(values)[1:])
    rows = np.empty((min(_BLOCK, pts.size), grid.n))
    with np.errstate(all="ignore"):
        for lo in range(0, pts.size, _BLOCK):
            x = pts[lo:lo + _BLOCK, None]
            k = _sample(problem.kernel, (x, z[None, :]), "kernel",
                        "query point and node (x[{i}]={v[0]!r}, "
                        "z[{j}]={v[1]!r})", lo, weight=grid.spacing,
                        out=rows[:len(x)])
            np.matmul(k, values, out=out[lo:lo + _BLOCK])
        g_pts = _sample(problem.source, (pts,), "source",
                        "query point x[{i}]={v[0]!r}")
        out += g_pts[:, None] if out.ndim == 2 else g_pts
    ok = np.isfinite(out)
    if not ok.all():
        i = np.unravel_index(np.argmin(ok), ok.shape)
        raise DomainError(
            f"evaluation layer is not finite at query point "
            f"x[{i[0]}]={float(pts[i[0]])!r}: {float(out[i])!r}")
    return out


def query(net: FixedPointNet, field: SolutionField,
          points: Sequence[float]) -> np.ndarray:
    """Evaluate the solution at arbitrary points through the evaluation
    layer.

    Applies one undamped step of the net's map through fresh kernel rows
    K(x, z_j) dz, so a converged field queried at a grid node reproduces
    the node value up to one extra contraction factor.  Points outside
    the grid's [a, b] are refused, as is a field of another size.
    """
    return evaluation_layer(net.op.problem, net.op.grid, points,
                            field.values)


def dense_solve(op: DiscreteOperator) -> SolutionField:
    """Solve (I - A) f = g directly, on the explicit weights
    ``np.asarray(op.matrix)``.

    This is the exact limit of the undamped iteration and serves as the
    oracle separating iteration error from quadrature error.  A singular
    system, or one whose solution is not finite, raises
    SingularSystemError.
    """
    try:
        f = np.linalg.solve(np.eye(op.n) - np.asarray(op.matrix),
                            op.source)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"I - A is singular: {exc}") from exc
    if not np.all(np.isfinite(f)):
        raise SingularSystemError(
            "I - A numerically singular: its solution is not finite")
    return SolutionField(grid=op.grid, values=f)


def budget_from_operator(op: DiscreteOperator) -> Tuple[float, float]:
    """Measure q = ||A|| and the first undamped step's update ||A g||, the
    two numbers ``error_bound`` and ``plan_layers`` take."""
    return estimate_contraction(op), residual_norm(op)


def error_bound(q: float, residual: float, steps: int) -> float:
    """q^k / (1 - q) * residual: with q a sup-norm contraction constant of
    the fixed-point map and residual = ||h_(n+1) - h_n|| one of its
    updates, a bound on ||h_(n+k) - h*|| for the iterate k = ``steps``
    steps after h_n (Atkinson 1997, 4.1).  An M-layer net's first layer
    is h_1 = g, so ``error_bound(*budget_from_operator(op), M - 1)``
    bounds its last.  Both numbers must be finite and non-negative, q
    below 1, and ``steps`` any integer >= 0, read as k = min(steps, 2^63):
    there q^k is 0.0 for every q < 1, as (1 - 2^-53)^(2^63) ~ e^-1024."""
    steps = as_count(steps, 0, "step count")
    q, residual = as_number(q, "q"), as_number(residual, "residual")
    if min(q, residual) < 0.0:
        raise ValidationError(f"budget entries must be non-negative, "
                              f"got {(q, residual)}")
    if q >= 1.0:
        raise ValidationError(
            f"contraction estimate q={q:.6g} is not below 1; the "
            f"geometric bound does not apply")
    return q ** min(steps, 2 ** 63) / (1.0 - q) * residual


def plan_layers(q: float, residual: float, eps: float) -> int:
    """Smallest step count k whose error bound is at most eps; a net
    needs k + 1 layers to take them.

    k is found by bisection over [0, 2^63] on ``error_bound`` itself,
    which never rises with k and is 0.0 at 2^63, so every call returns
    after at most 64 evaluations of it.  eps must be a positive finite
    number; one at or above the zero-step bound plans zero steps.
    """
    zero = error_bound(q, residual, 0)  # refuses q >= 1 and bad entries
    if (eps := as_number(eps, "target accuracy")) <= 0.0:
        raise ValidationError(f"target accuracy {eps!r} must be positive")
    if zero <= eps:
        return 0
    lo, hi = 0, 2 ** 63  # bound(lo) > eps >= bound(hi) = 0.0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        met = error_bound(q, residual, mid) <= eps
        lo, hi = (lo, mid) if met else (mid, hi)
    return hi


def layer_sweep(op: DiscreteOperator, field: SolutionField,
                target: Sequence[float],
                points: Sequence[float]) -> List[Tuple[int, float]]:
    """Error as a function of depth.

    Composes the history ``forward(net, k)`` left in ``field`` with the
    evaluation layer at ``points`` and compares each m-layer value with
    ``target``, the exact solution's values there; the (P, k) values
    become their errors in place.
    """
    if field.history is None:
        raise ValidationError("sweep needs a field with its layer history")
    pts = np.asarray(points, dtype=float).ravel()
    target = np.asarray(target, dtype=float)
    if target.shape != pts.shape:
        raise ValidationError(f"{target.size} target values for "
                              f"{pts.size} points")
    err = evaluation_layer(op.problem, op.grid, pts, field.history)
    with np.errstate(over="ignore"):  # an overflowed error reads inf
        err -= target[:, None]
    np.abs(err, out=err)
    return [(m, float(e)) for m, e in enumerate(err.max(axis=0), start=1)]
