"""Parallel transport along curves and the commuting-projection check.

A vector ``w`` is transported along a curve ``t -> x(t)`` by integrating

    dw^l/dt + Gamma^l_{jk}(x(t)) dx^j/dt w^k = 0

with a fixed-step classical 4th-order scheme.  Because the curve is known in
closed form, the coefficient matrices ``A(t) = -Gamma(x(t)) . xdot(t)`` are
evaluated in vectorized passes over the step and half-step grid, by the
connection's ``gamma_along``, which contracts the velocity into the
component fields without forming Gamma.  The
equation is linear in ``w``, so each step is a matrix ``w -> P_k w``.  The
step propagators are built one block of steps at a time
(``tensor._point_blocks`` with one n x n matrix per step, so a block holds
about ``tensor.JET_BLOCK`` entries of each operand), written into one
``(steps, n, n)`` array, and the vectors at every grid time come from a
log-depth prefix product of them, with no loop over steps; each doubling
round multiplies one block of rows at a time.  A transport so holds its
propagators and one block's operands.  A deliberately separate first-order
(Euler) integrator, the product of the matrices ``I + h A_k`` reduced
pairwise within each block of the same size, serves as an independent
reference.

The prefix products depend only on the connection and the curve.  A
Levi-Civita connection holds those of the last curve transported on its
points in its jet, so the norm check and both commuting-projection checks of
one curve share one solve: one coefficient evaluation per block and one
prefix product; no transport forms Gamma.  Symbolic and restricted
connections build them on every call.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from .distributions import DistributionSpec
from .expr import ScalarField, as_field, evaluate_fields
from .tensor import ConnectionField, MetricField, _point_blocks, christoffel

__all__ = [
    "CurveSpec",
    "TransportResult",
    "parallel_transport",
    "euler_transport",
    "projection_commutes_residual",
]

def _check_step(step) -> None:
    if not (step > 0 and math.isfinite(step)):
        raise ValueError(f"step must be positive and finite, got {step!r}")


@dataclass(frozen=True)
class CurveSpec:
    """A chart curve with component functions of a single parameter.

    Components are expressions in the variable ``x1``, which plays the role
    of the curve parameter ``t``.
    """

    components: Tuple[ScalarField, ...]
    t_span: Tuple[float, float] = (0.0, 1.0)
    step: float = 1e-3
    # d/dt of each component, derived once per curve
    _rates: Tuple[ScalarField, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        components = tuple(as_field(c, 1) for c in self.components)
        object.__setattr__(self, "components", components)
        _check_step(self.step)
        object.__setattr__(self, "_rates", tuple(c.partial(1) for c in components))

    @property
    def n(self) -> int:
        return len(self.components)

    def truncated(self, keep: int) -> "CurveSpec":
        """The image curve under the leading-coordinate truncation; it keeps
        this curve's first ``keep`` rates rather than deriving them again."""
        sub = copy.copy(self)
        object.__setattr__(sub, "components", self.components[:keep])
        object.__setattr__(sub, "_rates", self._rates[:keep])
        return sub

    def grid(self, step: float = None) -> np.ndarray:
        """Evenly spaced parameter values covering t_span (step adjusted to fit)."""
        t0, t1 = self.t_span
        h = self.step if step is None else step
        _check_step(h)
        count = max(1, round(abs(t1 - t0) / h))
        return np.linspace(t0, t1, count + 1)

    def positions(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)[..., None]
        return evaluate_fields(list(self.components), ts)

    def velocities(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)[..., None]
        return evaluate_fields(list(self._rates), ts)


@dataclass
class TransportResult:
    """Transported vectors at the grid times of the integration."""

    times: np.ndarray   # (N+1,)
    vectors: np.ndarray  # (N+1, n)

    @property
    def final(self) -> np.ndarray:
        return self.vectors[-1]


def _coefficients(conn: ConnectionField, curve: CurveSpec, ts: np.ndarray) -> np.ndarray:
    """A(t)[l,k] = -Gamma^l_{jk}(x(t)) xdot^j(t), batched over ts."""
    return -conn.gamma_along(curve.positions(ts), curve.velocities(ts))


def _initial_vector(conn: ConnectionField, curve: CurveSpec, w0) -> np.ndarray:
    """``w0`` as a float vector, after checking it and the curve fit ``conn``."""
    if curve.n != conn.n:
        raise ValueError(f"curve has dimension {curve.n}, connection has dimension {conn.n}")
    w0 = np.asarray(w0, dtype=float)
    if w0.shape != (conn.n,):
        raise ValueError(f"initial vector must have shape ({conn.n},), got {w0.shape}")
    return w0


def _step_propagators(conn: ConnectionField, curve: CurveSpec, grid: np.ndarray,
                      h: float, out: np.ndarray) -> None:
    """Write into ``out``, ``(len(grid) - 1, n, n)``, the RK4 step
    propagators between consecutive points of ``grid``, from one evaluation
    of the coefficients on the grid points and midpoints."""
    A_all = _coefficients(conn, curve, np.concatenate([grid, (grid[:-1] + grid[1:]) / 2.0]))
    a0, a1, am = A_all[: len(grid) - 1], A_all[1: len(grid)], A_all[len(grid):]

    eye = np.eye(conn.n)
    k1 = a0
    k2 = np.matmul(am, eye + 0.5 * h * k1, out=out)
    k3 = am @ (eye + 0.5 * h * k2)
    k4 = a1 @ (eye + h * k3)
    # I + h/6 (k1 + 2 k2 + 2 k3 + k4), summed in that order in place in k2:
    # the bits of the whole expression, without its temporaries
    k2 *= 2.0
    k2 += k1
    k3 *= 2.0
    k2 += k3
    k2 += k4
    k2 *= h / 6.0
    k2 += eye


def _rk4_propagators(conn: ConnectionField, curve: CurveSpec, ts: np.ndarray) -> np.ndarray:
    """The inclusive prefix products of the RK4 step propagators along the
    curve's grid ``ts``, ``(steps, n, n)``: entry ``k`` maps ``w0`` to the
    vector at ``ts[k + 1]``.  The step propagators are written into that
    array one block of steps at a time (``_point_blocks``, one n x n matrix
    per step)."""
    h = ts[1] - ts[0]
    steps, n = len(ts) - 1, conn.n
    blocks = _point_blocks(steps, n * n)
    P = np.empty((steps, n, n))
    for at in blocks:
        _step_propagators(conn, curve, ts[at.start: at.stop + 1], h, P[at])
    # after the round with shift s, P[k] is the product of steps max(0, k-2s+1)..k,
    # later steps on the left; a round walks its blocks of rows from the end,
    # so each block reads rows that the round has not yet written
    s = 1
    while s < steps:
        for at in reversed(blocks):
            lo, hi = max(at.start, s), min(at.stop, steps)
            if lo < hi:
                P[lo:hi] = P[lo:hi] @ P[lo - s: hi - s]
        s *= 2
    return P


def parallel_transport(conn: ConnectionField, curve: CurveSpec, w0) -> TransportResult:
    """Transport ``w0`` along the curve with the classical 4th-order scheme.

    Returns the transported vector at every grid time.  The transport
    equation is linear in ``w``, so one step is ``w -> P_k w`` with ``P_k`` a
    polynomial in the coefficient matrices at ``t``, ``t + h/2`` and
    ``t + h``.  The ``P_k`` are built one block of steps at a time
    (``tensor._point_blocks``, one n x n matrix per step) into one array;
    their inclusive prefix products, taken in place by doubling in
    log2(steps) rounds of blockwise batched products, map ``w0`` to every
    grid value.  So a transport holds about ``8 * steps * n**2`` bytes of
    propagators plus one block.  The connection is handed the builder of
    those products (``ConnectionField._propagators``): a Levi-Civita
    connection keeps the last curve's in its jet, so a second transport
    along an equal curve only applies them to its own ``w0``.
    """
    w0 = _initial_vector(conn, curve, w0)
    ts = curve.grid()
    P = conn._propagators(curve, lambda: _rk4_propagators(conn, curve, ts))
    out = np.empty((len(ts), conn.n))
    out[0] = w0
    out[1:] = P @ w0
    return TransportResult(times=ts, vectors=out)


def euler_transport(conn: ConnectionField, curve: CurveSpec, w0, step: float = 1e-6) -> np.ndarray:
    """Brute-force first-order transport; returns only the final vector.

    Kept intentionally naive (forward Euler, fixed step) and fully separate
    from :func:`parallel_transport` so it can act as an independent
    reference for accuracy checks.  It walks the steps in the blocks of
    ``tensor._point_blocks`` (one n x n matrix per step): each block forms
    its factors ``I + h A_k`` at once and multiplies neighbours pairwise
    (later on the left) down to one matrix, which is applied to ``w``.  So
    it holds one block at a time, whatever the number of steps.
    """
    w = _initial_vector(conn, curve, w0)
    ts = curve.grid(step)
    h = ts[1] - ts[0]
    starts = ts[:-1]
    for at in _point_blocks(len(starts), conn.n * conn.n):
        M = np.eye(conn.n) + h * _coefficients(conn, curve, starts[at])
        while len(M) > 1:
            pairs = M[1::2] @ M[:-1:2]
            M = np.concatenate([pairs, M[-1:]]) if len(M) % 2 else pairs
        w = M[0] @ w
    return w


def projection_commutes_residual(
    g: MetricField,
    D: ConnectionField,
    dist: DistributionSpec,
    curve: CurveSpec,
    w0,
    conn: ConnectionField = None,
) -> float:
    """Transport downstairs vs. project the transport upstairs.

    Transports ``w0`` along the curve under the Levi-Civita connection of
    ``g``, independently transports the leading block of ``w0`` along the
    truncated curve under ``D``, and returns the max over grid times of the
    componentwise difference of the leading blocks.  Small exactly when the
    connection projects onto ``D`` along the distribution.
    """
    n = dist.n
    keep = n - dist.s
    if D.n != keep:
        raise ValueError(f"base connection must live on dimension {keep}")
    if curve.n != n:
        raise ValueError(f"curve must live on dimension {n}")
    conn = conn if conn is not None else christoffel(g)
    upstairs = parallel_transport(conn, curve, w0)
    downstairs = parallel_transport(D, curve.truncated(keep), np.asarray(w0, float)[:keep])
    diff = upstairs.vectors[:, :keep] - downstairs.vectors
    return float(np.max(np.abs(diff)))
