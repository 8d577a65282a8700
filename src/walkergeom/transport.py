"""Parallel transport along curves and the commuting-projection check.

A vector ``w`` is transported along a curve ``t -> x(t)`` by integrating

    dw^l/dt + Gamma^l_{jk}(x(t)) dx^j/dt w^k = 0

with a fixed-step classical 4th-order scheme.  Because the curve is known in
closed form, the coefficient matrices ``A(t) = -Gamma(x(t)) . xdot(t)`` are
evaluated in one vectorized pass over the step and half-step grid before the
time loop runs.  A deliberately separate first-order (Euler) integrator
serves as a slow but independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass
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

# grid steps whose coefficient matrices euler_transport precomputes at once
EULER_CHUNK = 100_000


@dataclass(frozen=True)
class CurveSpec:
    """A chart curve with component functions of a single parameter.

    Components are expressions in the variable ``x1``, which plays the role
    of the curve parameter ``t``.
    """

    components: Tuple[ScalarField, ...]
    t_span: Tuple[float, float] = (0.0, 1.0)
    step: float = 1e-3

    def __post_init__(self):
        object.__setattr__(
            self, "components", tuple(as_field(c, 1) for c in self.components)
        )
        if self.step <= 0:
            raise ValueError("step must be positive")

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
        count = max(1, round(abs(t1 - t0) / h))
        return np.linspace(t0, t1, count + 1)

    def positions(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)[..., None]
        return evaluate_fields(list(self.components), ts)

    def velocities(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)[..., None]
        return evaluate_fields([c.partial(1) for c in self.components], ts)


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
    return -np.einsum("...ljk,...j->...lk", G, vs)


def parallel_transport(conn: ConnectionField, curve: CurveSpec, w0) -> TransportResult:
    """Transport ``w0`` along the curve with the classical 4th-order scheme.

    Returns the transported vector at every grid time.  The transport
    equation is linear in ``w``, so the four stage evaluations per step only
    need the coefficient matrix at ``t``, ``t + h/2`` and ``t + h``, all of
    which are precomputed vectorized.
    """
    w0 = np.asarray(w0, dtype=float)
    if w0.shape != (conn.n,):
        raise ValueError(f"initial vector must have shape ({conn.n},)")
    ts = curve.grid()
    h = ts[1] - ts[0] if len(ts) > 1 else 0.0
    half = np.concatenate([ts, (ts[:-1] + ts[1:]) / 2.0]) if len(ts) > 1 else ts
    A_all = _coefficients(conn, curve, half)
    A_grid = A_all[: len(ts)]
    A_mid = A_all[len(ts):]

    out = np.empty((len(ts), conn.n))
    out[0] = w0
    w = w0
    for k in range(len(ts) - 1):
        a0, am, a1 = A_grid[k], A_mid[k], A_grid[k + 1]
        k1 = a0 @ w
        k2 = am @ (w + 0.5 * h * k1)
        k3 = am @ (w + 0.5 * h * k2)
        k4 = a1 @ (w + h * k3)
        w = w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k + 1] = w
    return TransportResult(times=ts, vectors=out)


def euler_transport(conn: ConnectionField, curve: CurveSpec, w0, step: float = 1e-6) -> np.ndarray:
    """Brute-force first-order transport; returns only the final vector.

    Kept intentionally naive (forward Euler, fixed step) and fully separate
    from :func:`parallel_transport` so it can act as an independent
    reference for accuracy checks.  Coefficients are still precomputed in
    chunks to keep the Python loop bearable at small steps.
    """
    w = np.asarray(w0, dtype=float).copy()
    ts = curve.grid(step)
    h = ts[1] - ts[0] if len(ts) > 1 else 0.0
    for start in range(0, len(ts) - 1, EULER_CHUNK):
        stop = min(start + EULER_CHUNK, len(ts) - 1)
        A = _coefficients(conn, curve, ts[start:stop])
        for k in range(stop - start):
            w = w + h * (A[k] @ w)
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
