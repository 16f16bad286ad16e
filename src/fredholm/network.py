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
network costs one N x N block (A itself) whatever its depth and
relaxations.  Every run, whatever its kind, gets its verdict in
``forward``: an overflow, or a map residual ||T h - h|| at the last layer
above that of the first two, raises DivergenceError.  One evaluation
layer, the output layer of every 1-D kind, applies one undamped step at
arbitrary points,

    f(x) = g(x) + sum_j K(x, z_j) sigma(h_M[j]) dz,

so off-grid values come from the same quadrature and activation that
built the hidden layers; a sum that is not finite raises DomainError at
its query point.  The module also carries the error accounting:
one contraction bound of two numbers, ``error_bound(q, residual, k)`` =
q^k/(1-q) times one update, which gives a run its a-posteriori figure
and, through ``plan_layers(q, residual, eps)``, plans the depth for a
target accuracy.
"""

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import (DivergenceError, DomainError, SingularSystemError,
                     ValidationError)
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
    """Samples of the iterate on the grid, optionally with the per-layer
    history that produced them, and the sup-norm update of each layer."""

    grid: Grid1D
    values: np.ndarray
    history: Optional[Tuple[np.ndarray, ...]] = None
    deltas: Tuple[float, ...] = ()

    def __post_init__(self):
        self.values.setflags(write=False)
        if self.history is not None:
            for h in self.history:
                h.setflags(write=False)


class FixedPointNet:
    """Explicit-weight network equivalent to M damped fixed-point steps.

    A validated record of the operator, the depth and the relaxation
    schedule; the activation is that of the operator's problem.  Layer
    m's weight W_m = kappa_m A + (1 - kappa_m) I and bias kappa_m g are
    applied implicitly by ``forward`` and never stored, so memory stays
    the operator's one N x N block plus a few N-vectors at any depth.
    """

    def __init__(self, op: DiscreteOperator, layers: int, schedule: KMSchedule):
        if not isinstance(layers, (int, np.integer)) or layers < 1:
            raise ValidationError(f"layer count {layers!r} must be >= 1")
        if schedule.sequence is not None and len(schedule.sequence) < layers:
            raise ValidationError(
                f"schedule length {len(schedule.sequence)} shorter than "
                f"{layers} layers")
        self.op = op
        self.layers = int(layers)
        self.schedule = schedule


def build_network(op: DiscreteOperator, layers: int,
                  schedule: KMSchedule) -> FixedPointNet:
    """Assemble the network for ``layers`` damped steps of ``op``."""
    return FixedPointNet(op, layers, schedule)


def forward(net: FixedPointNet, keep_history: int = 0) -> SolutionField:
    """Run all hidden layers and return the final grid iterate, with the
    iterates of the first ``keep_history`` layers (all of them at the
    net's depth or more) as its history, and the sup-norm update
    ||h_m - h_{m-1}|| of every layer (h_0 = 0) as its deltas.

    Layer m computes kappa (A sigma(h)) + (1 - kappa) h + kappa g.  This
    is the one verdict on every run.  DivergenceError is raised the moment
    any layer produces a non-finite value, naming the layer and the first
    and last finite updates.  It is also raised after the last layer when
    the map residual r_m = delta_m / kappa_m = ||T h_{m-1} - h_{m-1}||,
    T h = g + A sigma(h), ends above the larger of r_1 (g itself) and r_2
    (the first step of T); on a non-expansive map the residual of a damped
    iteration never grows.
    """
    if isinstance(keep_history, bool) or keep_history < 0:
        raise ValidationError(
            f"history length {keep_history!r} must be a count >= 0")
    a, g, act = net.op.matrix, net.op.source, net.op.problem.activation
    h, prev = net.schedule.at(1) * g, 0.0
    history: List[np.ndarray] = []
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
                history.append(h)
    res = [d / net.schedule.at(m) for m, d in enumerate(deltas, start=1)]
    first = max(res[:2])
    if res[-1] > first:
        raise DivergenceError(
            f"iteration diverging: its residual grew from {first!r} at layer "
            f"{res.index(first) + 1} to {res[-1]!r} at layer {net.layers}")
    return SolutionField(grid=net.op.grid, values=h,
                         history=tuple(history) if keep_history else None,
                         deltas=tuple(deltas))


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
    pts = np.asarray(points, dtype=float).ravel()
    bad = (pts < grid.a) | (pts > grid.b) | ~np.isfinite(pts)
    if bad.any():
        raise ValidationError(
            f"query point {float(pts[np.argmax(bad)])!r} outside "
            f"[{grid.a}, {grid.b}]")
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
    """Solve (I - A) f = g directly.

    This is the exact limit of the undamped iteration and serves as the
    oracle separating iteration error from quadrature error.  A singular
    system, or one whose solution is not finite, raises
    SingularSystemError.
    """
    try:
        f = np.linalg.solve(np.eye(op.n) - op.matrix, op.source)
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
    bounds its last.  Both numbers must be finite and non-negative, and
    q below 1."""
    if steps < 0:
        raise ValidationError(f"step count {steps} must be >= 0")
    if not all(np.isfinite(v) and v >= 0.0 for v in (q, residual)):
        raise ValidationError(f"budget entries must be finite and "
                              f"non-negative, got {(q, residual)}")
    if q >= 1.0:
        raise ValidationError(
            f"contraction estimate q={q:.6g} is not below 1; the "
            f"geometric bound does not apply")
    return q ** steps / (1.0 - q) * residual


def plan_layers(q: float, residual: float, eps: float) -> int:
    """Smallest step count k whose error bound is at most eps; a net
    needs k + 1 layers to take them.

    Closed form k >= [ln(eps (1-q)) - ln residual] / ln q, rounded up with
    a small tolerance so that eps = error_bound(k) maps back to exactly k,
    then verified against the bound directly.  Targets looser than the
    zero-step bound plan zero steps.
    """
    zero = error_bound(q, residual, 0)  # refuses q >= 1 and bad entries
    if not (np.isfinite(eps) and eps > 0.0):
        raise ValidationError(f"target accuracy {eps!r} must be positive")
    if residual == 0.0 or zero <= eps:
        return 0
    if q == 0.0:
        steps = 1
    else:
        x = (math.log(eps * (1.0 - q)) - math.log(residual)) / math.log(q)
        steps = max(0, math.ceil(x - 1e-9))
    while error_bound(q, residual, steps) > eps:
        steps += 1
    while steps > 0 and error_bound(q, residual, steps - 1) <= eps:
        steps -= 1
    return steps


def layer_sweep(op: DiscreteOperator, field: SolutionField,
                target: Optional[Sequence[float]] = None,
                points: Optional[Sequence[float]] = None
                ) -> List[Tuple[int, float]]:
    """Error (or update size) as a function of depth.

    Tabulates the history ``forward(net, k)`` left in ``field``: each
    m-layer iterate is composed with the evaluation layer at ``points``
    (grid nodes by default) and compared with ``target``, the exact
    solution's values there; without it the sweep is the field's own
    updates ||h_m - h_(m-1)|| for the layers its history holds.
    """
    if not field.history:
        raise ValidationError("sweep needs a field with its layer history")
    h = field.history
    if target is None:
        sizes = field.deltas[:len(h)]
    else:
        pts = np.asarray(op.grid.nodes if points is None else points,
                         dtype=float).ravel()
        target = np.asarray(target, dtype=float)
        if target.shape != pts.shape:
            raise ValidationError(f"{target.size} target values for "
                                  f"{pts.size} points")
        vals = evaluation_layer(op.problem, op.grid, pts, np.stack(h, axis=1))
        with np.errstate(over="ignore"):  # an overflowed error reads inf
            sizes = np.max(np.abs(vals - target[:, None]), axis=0)
    return [(m, float(size)) for m, size in enumerate(sizes, start=1)]
