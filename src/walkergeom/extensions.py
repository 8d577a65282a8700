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
the transformation rule they satisfy.  Such a metric is affine in the
trailing coordinates x^a, so the rule reads ``omega*g - g`` as a difference
from g's trailing rows and their partials d_a g at the points, with terms of
the size of the section whatever the scale of ``[g_ia]``; g is not evaluated
at translated points.  A metric not affine in x^a takes the shifted
pullback (:func:`fiber_translate_pullback`) minus g.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

import numpy as np

from .chart import ChartSplit
from .distributions import CheckResult, _reduced
from .expr import ScalarField, _as_points, _const, add, as_field, coordinate, evaluate_fields, mul
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
    trailing = [coordinate(r + m + a, n).node for a in range(1, r + 1)]
    for j in range(1, r + 1):
        for k in range(j, r + 1):
            # lambda_jk, then one product per nonzero (Gamma^i_jk, g_ia), one sum
            terms = [spec.lam_component(j, k).node]
            for i in range(1, r + 1):
                gamma = D.component(i, j, k)
                if gamma.is_zero:
                    continue
                for a in range(1, r + 1):
                    coeff = spec.g_ia[i - 1, a - 1]
                    if coeff == 0.0:
                        continue
                    terms.append(mul(_const(-2.0 * coeff), trailing[a - 1], gamma.node))
            comps[(j, k)] = ScalarField(add(*terms), n)
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
    om, dom = omega.jet(x)
    return _killing(D.gamma(np.asarray(x, dtype=float)[..., :omega.r]), om, dom)


def _killing(G, om, dom) -> np.ndarray:
    """The :func:`killing_operator` matrix from D's components ``G`` and the
    section's jet ``om``, ``dom`` (``OneFormSection.jet``), all at the same
    points."""
    r, q = om.shape[-1], dom.shape[-2]
    out = np.zeros(om.shape[:-1] + (q, q))
    lead = slice(0, r)
    out[..., lead, lead] = (
        dom[..., :r, :]
        + np.einsum("...ij->...ji", dom[..., :r, :])
        - 2.0 * np.einsum("...kij,...k->...ij", G, om)
    )
    if q > r:
        out[..., lead, r:q] = np.einsum("...pi->...ip", dom[..., r:q, :])
        out[..., r:q, lead] = dom[..., r:q, :]
    return out


def _check_blocks(g: MetricField, omega: OneFormSection) -> None:
    """Refuse a chart of g that is not three-block, or whose blocks
    ``omega`` does not match."""
    chart = g.chart
    if chart.mode != "three_block":
        raise ValueError("fiber translation requires a three-block chart")
    if (omega.r, omega.m) != (chart.r, chart.middle_size):
        raise ValueError("one-form section does not match the chart blocks")


def fiber_translate_pullback(
    g: MetricField, omega: OneFormSection, g_ia: np.ndarray, x
) -> np.ndarray:
    """Pullback of ``g`` under the fiber translation by ``omega``.

    The translation acts on the trailing coordinates as
    ``x^a -> x^a + g^{ai} omega_i`` and fixes the rest; the pullback is
    computed by the chain rule with exact partials of ``omega``.
    """
    _check_blocks(g, omega)
    n = g.chart.n
    q = n - g.chart.r
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


def _translation_difference(g_trail, dg, ginv, om, dom) -> np.ndarray:
    """``omega*g - g`` for g affine in the trailing coordinates, from its
    trailing rows ``g_trail`` (``[..., a, mu]``) and their partials ``dg``
    (``[..., a, mu, nu] = d_a g_{mu nu}``) at the points, ``ginv`` the inverse
    of ``[g_ia]`` and ``om``, ``dom`` the section's jet there.

    With delta = ginv omega and J = I + E, E[q+a, mu] = (ginv d_mu omega)_a
    nonzero only in the trailing rows and leading+middle columns, g(x +
    delta) = g' = g + delta^a d_a g exactly, so

        J^T g' J - g = delta^a d_a g + E^T g' + g' E + E^T g' E,

    whose last three terms read only the trailing rows of g'.  Each term is
    of the size of omega's jet, whatever the scale of [g_ia], where the
    shifted form subtracts entries of that scale.
    """
    q = dom.shape[-2]
    e = np.matmul(ginv, np.swapaxes(dom, -1, -2))  # [..., a, mu]
    diff = np.einsum("...a,...amn->...mn", np.matmul(om, ginv.T), dg)
    f = np.matmul(np.swapaxes(e, -1, -2), g_trail + diff[..., q:, :])  # E^T g', [..., mu, nu]
    diff[..., :q, :] += f
    diff[..., :, :q] += np.swapaxes(f, -1, -2)
    diff[..., :q, :q] += np.matmul(f[..., q:], e)
    return diff


def transformation_rule_residual(
    g: MetricField, spec: ExtensionSpec, omega: OneFormSection, points
) -> CheckResult:
    """Residual of ``omega*g = g + pi*(L omega)`` at the sampled points.

    ``pi*(L omega)`` places the Killing matrix in the leading+middle block
    and is zero in any slot with a trailing index.  Where g is affine in the
    trailing coordinates, as every built extension is, ``omega*g - g`` is
    formed as a difference from g's trailing rows and their partials
    (``_translation_difference``); every other metric takes
    ``fiber_translate_pullback(...) - g.value(points)``.
    """
    return _transformation_rule_rows(g, spec, [omega], points)[0]


def _transformation_rule_rows(g: MetricField, spec: ExtensionSpec, omegas, points) -> list:
    """The :func:`transformation_rule_residual` row of each one-form section
    of ``omegas`` at ``points``, with the same bits.

    The sections share one read of D and, when the order-2 slots
    ``[trail, trail]`` of g are structurally zero (g affine in the trailing
    coordinates), one read of g's trailing rows and of their trailing
    partials d_a g; g is then never evaluated, at the points or at their
    translates.  Otherwise they share one evaluation of g at the points, and
    each section evaluates g at its translates (``fiber_translate_pullback``).
    """
    for omega in omegas:
        _check_blocks(g, omega)
    r, trail = g.chart.r, g.chart.trailing
    q = g.n - r
    x = _as_points(points, g.n)
    G = spec.base_connection.gamma(x[..., :r])
    affine = not np.any(g._nonzero(2)[trail, trail])
    if affine:
        ginv = np.linalg.inv(spec.g_ia)
        g_trail = g._slot_blocks(0, x, (trail,))[0]
        dg = g._slot_blocks(1, x, (trail,))[0]
    else:
        g_x = g.value(x)
    rows = []
    for omega in omegas:
        om, dom = omega.jet(x)
        if affine:
            diff = _translation_difference(g_trail, dg, ginv, om, dom)
        else:
            diff = fiber_translate_pullback(g, omega, spec.g_ia, x) - g_x
        diff[..., :q, :q] -= _killing(G, om, dom)
        rows.append(_reduced("transformation_rule", x, diff))
    return rows
