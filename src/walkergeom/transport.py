"""Parallel transport along curves and the commuting-projection check.

A vector ``w`` is transported along a curve ``t -> x(t)`` by integrating

    dw^l/dt + Gamma^l_{jk}(x(t)) dx^j/dt w^k = 0

with a fixed-step classical 4th-order scheme.  Because the curve is known in
closed form, the coefficient matrices ``A(t) = -Gamma(x(t)) . xdot(t)`` are
evaluated in one vectorized pass over the step and half-step grid.  The
equation is linear in ``w``, so each step is a matrix ``w -> P_k w``: all
step propagators are built at once and the vectors at every grid time come
from a log-depth prefix product of them, with no loop over steps.  A
deliberately separate first-order (Euler) integrator, the product of the
matrices ``I + h A_k`` reduced pairwise, serves as an independent reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from .distributions import DistributionSpec
from .expr import ScalarField, as_field, evaluate_fields
from .tensor import ConnectionField, MetricField, christoffel

__all__ = [
    "CurveSpec",
    "TransportResult",
    "parallel_transport",
    "euler_transport",
    "projection_commutes_residual",
]

# grid steps whose Euler factors euler_transport builds and multiplies at once
EULER_CHUNK = 100_000


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
        """The image curve under the leading-coordinate truncation."""
        return CurveSpec(self.components[:keep], self.t_span, self.step)

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
    xs = curve.positions(ts)
    vs = curve.velocities(ts)
    G = conn.gamma(xs)
    return -(vs[..., None, None, :] @ G)[..., 0, :]


def _initial_vector(conn: ConnectionField, curve: CurveSpec, w0) -> np.ndarray:
    """``w0`` as a float vector, after checking it and the curve fit ``conn``."""
    if curve.n != conn.n:
        raise ValueError(f"curve has dimension {curve.n}, connection has dimension {conn.n}")
    w0 = np.asarray(w0, dtype=float)
    if w0.shape != (conn.n,):
        raise ValueError(f"initial vector must have shape ({conn.n},), got {w0.shape}")
    return w0


def parallel_transport(conn: ConnectionField, curve: CurveSpec, w0) -> TransportResult:
    """Transport ``w0`` along the curve with the classical 4th-order scheme.

    Returns the transported vector at every grid time.  The transport
    equation is linear in ``w``, so one step is ``w -> P_k w`` with ``P_k`` a
    polynomial in the coefficient matrices at ``t``, ``t + h/2`` and
    ``t + h``.  All ``P_k`` are built at once; their inclusive prefix
    products, taken by doubling in log2(steps) batched rounds, map ``w0`` to
    every grid value.
    """
    w0 = _initial_vector(conn, curve, w0)
    ts = curve.grid()
    h = ts[1] - ts[0]
    A_all = _coefficients(conn, curve, np.concatenate([ts, (ts[:-1] + ts[1:]) / 2.0]))
    a0, a1, am = A_all[: len(ts) - 1], A_all[1: len(ts)], A_all[len(ts):]

    eye = np.eye(conn.n)
    k1 = a0
    k2 = am @ (eye + 0.5 * h * k1)
    k3 = am @ (eye + 0.5 * h * k2)
    k4 = a1 @ (eye + h * k3)
    P = eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    # after the round with shift s, P[k] is the product of steps max(0, k-2s+1)..k,
    # later steps on the left
    s = 1
    while s < len(P):
        P[s:] = P[s:] @ P[:-s]
        s *= 2

    out = np.empty((len(ts), conn.n))
    out[0] = w0
    out[1:] = P @ w0
    return TransportResult(times=ts, vectors=out)


def euler_transport(conn: ConnectionField, curve: CurveSpec, w0, step: float = 1e-6) -> np.ndarray:
    """Brute-force first-order transport; returns only the final vector.

    Kept intentionally naive (forward Euler, fixed step) and fully separate
    from :func:`parallel_transport` so it can act as an independent
    reference for accuracy checks.  Each chunk of ``EULER_CHUNK`` steps forms
    its factors ``I + h A_k`` at once and multiplies neighbours pairwise
    (later on the left) down to one matrix, which is applied to ``w``.
    """
    w = _initial_vector(conn, curve, w0)
    ts = curve.grid(step)
    h = ts[1] - ts[0]
    for start in range(0, len(ts) - 1, EULER_CHUNK):
        stop = min(start + EULER_CHUNK, len(ts) - 1)
        M = np.eye(conn.n) + h * _coefficients(conn, curve, ts[start:stop])
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
