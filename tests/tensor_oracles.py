"""Tensor identities used only as test oracles: the (0,4) curvature, the
covariant derivative of a vector field and the metric-compatibility residual."""

import numpy as np

from walkergeom import ConnectionField, MetricField
from walkergeom.expr import evaluate_fields


def lower_curvature(R: np.ndarray, g_values: np.ndarray) -> np.ndarray:
    """(0,4) form ``R_{ijkl} = R_{ijk}{}^m g_{ml}``, batched: ``R`` from
    ``curvature_components`` and ``g_values`` from ``MetricField.value``
    at the same points."""
    return np.einsum("...ijkm,...ml->...ijkl", R, g_values)


def covariant_derivative_vector(conn: ConnectionField, w, v, x) -> np.ndarray:
    """Components of ``nabla_v w`` at batched points.

    ``w`` and ``v`` are length-n sequences of ScalarFields (vector-field
    components in chart coordinates); the result has shape
    ``x.shape[:-1] + (n,)`` with entries ``v^mu (d_mu w^lam + Gamma^lam_{mu nu} w^nu)``.
    """
    x = np.asarray(x, dtype=float)
    n = conn.n
    wv = evaluate_fields(list(w), x)
    vv = evaluate_fields(list(v), x)
    dw = evaluate_fields([[comp.partial(mu) for comp in w] for mu in range(1, n + 1)], x)
    G = conn.gamma(x)
    return np.einsum("...m,...ml->...l", vv, dw) + np.einsum(
        "...m,...lmn,...n->...l", vv, G, wv
    )


def covariant_derivative_metric_residual(g: MetricField, conn: ConnectionField, x):
    """max |d_mu g_{nu rho} - Gamma^s_{mu nu} g_{s rho} - Gamma^s_{mu rho} g_{nu s}|.

    Vanishes identically for the Levi-Civita connection of ``g``; accepts a
    single point (returns float) or a batch (returns per-point array).
    """
    x = np.asarray(x, dtype=float)
    dg = g.partial_value(x)
    gv = g.value(x)
    G = conn.gamma(x)
    grad = (
        dg
        - np.einsum("...smn,...sr->...mnr", G, gv)
        - np.einsum("...smr,...ns->...mnr", G, gv)
    )
    res = np.max(np.abs(grad), axis=(-1, -2, -3))
    return float(res) if res.ndim == 0 else res
