"""Builders and verifiers for extension metrics on three-block charts.

Given a torsion-free base connection ``D`` on an r-dimensional chart,
section data ``lambda`` and a vertical metric ``h`` on the middle block, the
pullback-extension metric on the ``n = 2r + m`` chart has the components

    g_jk = lambda_jk - 2 g_ia x^a Gamma^i_jk,   g_ip = lambda_ip,
    g_pq = h_pq,                                g_pa = g_ab = 0,

with ``[g_ia]`` a fixed nonsingular r x r matrix of constants (identity by
default).  ``m = 0`` recovers the classical cotangent construction.  The
companion operations implement the Killing operator of ``D`` (extended by
the middle-block partials), fiber translations by a one-form section and
the transformation rule they satisfy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

import numpy as np

from .chart import ChartSplit
from .distributions import CheckResult, _reduced
from .expr import ScalarField, as_field, coordinate, evaluate_fields
from .tensor import (
    DET_FLOOR,
    MetricField,
    SingularMetricError,
    SymbolicConnection,
    _canonical,
    _symmetric_store,
)

__all__ = [
    "OneFormSection",
    "ExtensionSpec",
    "build_pullback_extension",
    "killing_operator",
    "fiber_translate_pullback",
    "transformation_rule_residual",
]


@dataclass(frozen=True)
class OneFormSection:
    """Base covector components ``omega_1..omega_r`` as functions on the
    leading+middle chart (independence of the trailing block is structural).
    Each component may be given as a number, expression source or field."""

    r: int
    m: int
    components: Tuple[ScalarField, ...]
    # d_mu omega_i as [mu][i], derived once per section
    _partials: Tuple[Tuple[ScalarField, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.components) != self.r:
            raise ValueError(f"need {self.r} components, got {len(self.components)}")
        q = self.r + self.m
        lifted = tuple(as_field(c, q) for c in self.components)
        object.__setattr__(self, "components", lifted)
        object.__setattr__(self, "_partials", tuple(
            tuple(w.partial(mu) for w in lifted) for mu in range(1, q + 1)))

    def jet(self, x) -> Tuple[np.ndarray, np.ndarray]:
        """``omega_i`` and ``d_mu omega_i`` (axes ``[..., i]`` and ``[..., mu, i]``)
        at a point or batch ``x``; its first r + m coordinates are used, so
        full-chart points are accepted too."""
        q = self.r + self.m
        x = np.asarray(x, dtype=float)
        if x.shape[-1] < q:
            raise ValueError(f"points must carry at least the first {q} coordinates")
        x = x[..., :q]
        return evaluate_fields(list(self.components), x), evaluate_fields(self._partials, x)


@dataclass
class ExtensionSpec:
    """Input data of a pullback extension.

    ``lam`` holds the full symmetric section tensor on the leading+middle
    chart, keyed by 1-based pairs with ``mu <= nu``; its middle-middle block
    *is* the vertical metric, so consistency is structural.  The base
    connection's components are functions of the leading coordinates only.
    """

    r: int
    m: int
    base_connection: SymbolicConnection
    lam: Mapping[Tuple[int, int], ScalarField] = field(default_factory=dict)
    g_ia: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.r < 1 or self.m < 0:
            raise ValueError("need r >= 1 and m >= 0")
        if self.base_connection.n != self.r:
            raise ValueError(
                f"base connection lives on dimension {self.base_connection.n}, expected {self.r}"
            )
        self.lam = _symmetric_store(self.lam, self.r + self.m, 2, "lambda")
        if self.g_ia is None:
            self.g_ia = np.eye(self.r)
        self.g_ia = np.asarray(self.g_ia, dtype=float)
        if self.g_ia.shape != (self.r, self.r):
            raise ValueError(f"[g_ia] must be {self.r}x{self.r}")
        if abs(np.linalg.det(self.g_ia)) < DET_FLOOR:
            raise SingularMetricError("the constant block [g_ia] is singular")

    @property
    def n(self) -> int:
        return 2 * self.r + self.m

    def lam_component(self, mu: int, nu: int) -> ScalarField:
        return self.lam[_canonical((mu, nu))]

    def h_component(self, p: int, q: int) -> ScalarField:
        """Vertical-metric component; p, q are 1-based middle indices r+1..r+m."""
        if not (self.r < p <= self.r + self.m and self.r < q <= self.r + self.m):
            raise IndexError(f"vertical index ({p},{q}) outside middle block")
        return self.lam_component(p, q)


def build_pullback_extension(spec: ExtensionSpec) -> MetricField:
    """The unique extension metric determined by the given input data.

    The section data is placed on the zero section (trailing coordinates
    vanish); restricting the result there returns ``lam`` exactly, and the
    middle-middle block reuses the vertical-metric expressions unchanged.
    """
    r, m, n = spec.r, spec.m, spec.n
    chart = ChartSplit.three_block(n, r)
    comps = {}
    D = spec.base_connection
    for j in range(1, r + 1):
        for k in range(j, r + 1):
            f = spec.lam_component(j, k).with_dimension(n)
            for i in range(1, r + 1):
                gamma = D.component(i, j, k)
                if gamma.is_zero:
                    continue
                for a in range(1, r + 1):
                    coeff = spec.g_ia[i - 1, a - 1]
                    if coeff == 0.0:
                        continue
                    term = (-2.0 * coeff) * coordinate(r + m + a, n) * gamma.with_dimension(n)
                    f = f + term
            comps[(j, k)] = f
    for i in range(1, r + 1):
        for p in range(r + 1, r + m + 1):
            comps[(i, p)] = spec.lam_component(i, p).with_dimension(n)
    for p in range(r + 1, r + m + 1):
        for q in range(p, r + m + 1):
            comps[(p, q)] = spec.lam_component(p, q).with_dimension(n)
    for i in range(1, r + 1):
        for a in range(1, r + 1):
            comps[(i, r + m + a)] = ScalarField.constant(spec.g_ia[i - 1, a - 1], n)
    return MetricField(chart, comps)


# ---------------------------------------------------------------------------
# Killing operator and fiber translations
# ---------------------------------------------------------------------------


def killing_operator(D: SymbolicConnection, omega: OneFormSection, x) -> np.ndarray:
    """Symmetrized covariant derivative of a one-form section.

    Returns the (r+m) x (r+m) matrix with blocks

        L_ij = d_j omega_i + d_i omega_j - 2 Gamma^k_ij omega_k,
        L_ip = L_pi = d_p omega_i,
        L_pq = 0,

    evaluated at ``x`` (a single point or batch; leading+middle coordinates
    are used, so full-chart points are accepted too).
    """
    r, m = omega.r, omega.m
    q = r + m
    om, dom = omega.jet(x)
    G = D.gamma(np.asarray(x, dtype=float)[..., :r])
    out = np.zeros(om.shape[:-1] + (q, q))
    lead = slice(0, r)
    out[..., lead, lead] = (
        dom[..., :r, :]
        + np.einsum("...ij->...ji", dom[..., :r, :])
        - 2.0 * np.einsum("...kij,...k->...ij", G, om)
    )
    if m > 0:
        out[..., lead, r:q] = np.einsum("...pi->...ip", dom[..., r:q, :])
        out[..., r:q, lead] = dom[..., r:q, :]
    return out


def fiber_translate_pullback(
    g: MetricField, omega: OneFormSection, g_ia: np.ndarray, x
) -> np.ndarray:
    """Pullback of ``g`` under the fiber translation by ``omega``.

    The translation acts on the trailing coordinates as
    ``x^a -> x^a + g^{ai} omega_i`` and fixes the rest; the pullback is
    computed by the chain rule with exact partials of ``omega``.
    """
    chart = g.chart
    if chart.mode != "three_block":
        raise ValueError("fiber translation requires a three-block chart")
    r, m, n = chart.r, chart.middle_size, chart.n
    if (omega.r, omega.m) != (r, m):
        raise ValueError("one-form section does not match the chart blocks")
    q = r + m
    ginv = np.linalg.inv(np.asarray(g_ia, dtype=float))  # [a, i]
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != n:
        raise ValueError(f"points must have dimension {n}")
    om, dom = omega.jet(x)

    shifted = x.copy()
    shifted[..., q:] += np.einsum("ai,...i->...a", ginv, om)

    jac = np.zeros(x.shape[:-1] + (n, n))
    jac[..., np.arange(n), np.arange(n)] = 1.0
    jac[..., q:, :q] = np.einsum("ai,...mi->...am", ginv, dom)

    g_at = g.value(shifted)
    return np.einsum("...ab,...am,...bn->...mn", g_at, jac, jac)


def transformation_rule_residual(
    g: MetricField, spec: ExtensionSpec, omega: OneFormSection, points
) -> CheckResult:
    """Residual of ``omega*g = g + pi*(L omega)`` at the sampled points.

    ``pi*(L omega)`` places the Killing matrix in the leading+middle block
    and is zero in any slot with a trailing index.
    """
    return _transformation_rule_rows(g, spec, [omega], points)[0]


def _transformation_rule_rows(g: MetricField, spec: ExtensionSpec, omegas, points) -> list:
    """The :func:`transformation_rule_residual` row of each one-form section
    of ``omegas`` at ``points``, with the same bits, all subtracting one
    evaluation of g there."""
    q = spec.r + spec.m
    g_x = g.value(points)
    rows = []
    for omega in omegas:
        diff = fiber_translate_pullback(g, omega, spec.g_ia, points) - g_x
        diff[..., :q, :q] -= killing_operator(spec.base_connection, omega, points)
        rows.append(_reduced("transformation_rule", points, diff))
    return rows
