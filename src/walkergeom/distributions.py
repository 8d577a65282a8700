"""Residual checks for trailing-coordinate distributions.

Every distribution here is the span of the last ``s`` coordinate vector
fields of a chart, which is the only case the adapted-coordinate theory
needs.  Each predicate is expressed as a residual: the largest |entry| of
the component families that must vanish, over the sampled points.  Every
family has the point axes first (a single point ``(n,)`` is a batch of
one), and the worst point is the first point whose own largest |entry|
attains the residual; a NaN entry gives a NaN residual at the first point
holding one.  A check "passes" when its residual is at or below the
caller's tolerance; genuine violations show up at O(1) while true zeros sit
at rounding level, so thresholding is unambiguous in practice.

Component families checked (indices: i,j,k leading; p,q middle; a,b trailing):

* nullity                          g_ab = 0
* parallelism                      Gamma^i_{a mu} = 0
* connection projectability        Gamma^i_{a mu} = d_a Gamma^i_{jk} = 0
* curvature condition              R_{a mu nu}{}^i = 0
* adapted (Walker) canonical form  g_ab = g_ap = 0, g_ia constant,
                                   d_a g_pq = d_a g_pi = 0, blocks nonsingular
* adapted-form projectability      d_a d_b g_jk = d_a d_p g_jk = 0
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from .chart import ChartSplit
from .tensor import ConnectionField, MetricField, RestrictedConnection

__all__ = [
    "DistributionSpec",
    "CheckResult",
    "check_null",
    "check_parallel",
    "check_projectable",
    "projectability_parts",
    "curvature_condition",
    "check_walker_form",
    "walker_projectability",
    "restrict_connection",
]

# a leading-trailing or middle block with |det| below this counts as singular
# in check_walker_form
WALKER_DET_FLOOR = 1e-6


@dataclass(frozen=True)
class DistributionSpec:
    """Span of the trailing ``s`` coordinate vector fields of a chart."""

    chart: ChartSplit
    s: int

    def __post_init__(self):
        if not 0 < self.s < self.chart.n:
            raise ValueError(f"distribution dimension must satisfy 0 < s < n, got s={self.s}")

    @property
    def n(self) -> int:
        return self.chart.n

    @property
    def leading(self) -> slice:
        return slice(0, self.n - self.s)

    @property
    def trailing(self) -> slice:
        return slice(self.n - self.s, self.n)

    @classmethod
    def null_block(cls, chart: ChartSplit) -> "DistributionSpec":
        """The trailing block itself: s = r for three-block, s otherwise."""
        return cls(chart, chart.trailing_size)

    @classmethod
    def orthocomplement(cls, chart: ChartSplit) -> "DistributionSpec":
        """Middle+trailing span of a three-block chart (s = n - r)."""
        if chart.mode != "three_block":
            raise ValueError("orthocomplement span requires a three-block chart")
        return cls(chart, chart.n - chart.r)


@dataclass
class CheckResult:
    """One named residual with the point where it was attained."""

    name: str
    residual: float
    worst_point: Optional[np.ndarray] = None

    def passes(self, tolerance: float) -> bool:
        return self.residual <= tolerance


def _reduced(name: str, points, *families) -> CheckResult:
    """The row of the component ``families`` at ``points``, reduced by the rule
    in the module docstring; each family has the point axes of ``points`` first."""
    pts = np.asarray(points, dtype=float)
    axes = pts.ndim - 1
    per_point = np.max([
        np.max(np.abs(f), axis=tuple(range(axes, np.ndim(f))), initial=0.0) for f in families
    ], axis=0).reshape(-1)
    if per_point.size == 0:
        raise ValueError(f"'{name}' needs at least one point")
    worst = int(np.argmax(per_point))
    return CheckResult(name, float(per_point[worst]), pts.reshape(-1, pts.shape[-1])[worst].copy())


# ---------------------------------------------------------------------------
# the residual checks
# ---------------------------------------------------------------------------


def check_null(g: MetricField, dist: DistributionSpec, points) -> CheckResult:
    """Residual of nullity: max |g(d_a, d_b)| over trailing pairs."""
    return _reduced("null", points, g.value(points)[..., dist.trailing, dist.trailing])


def check_parallel(conn: ConnectionField, dist: DistributionSpec, points) -> CheckResult:
    """Residual of parallelism of the trailing span: max |Gamma^i_{a mu}|."""
    return _reduced("parallel", points, conn.gamma(points)[..., dist.leading, dist.trailing, :])


def projectability_parts(
    conn: ConnectionField, dist: DistributionSpec, points
) -> tuple[CheckResult, CheckResult]:
    """The two component families behind connection projectability.

    Returns (parallel part ``Gamma^i_{a mu}``, derivative part
    ``d_a Gamma^i_{jk}``) as separate residuals.
    """
    lead, trail = dist.leading, dist.trailing
    return (
        _reduced("projectable_parallel_part", points, conn.gamma(points)[..., lead, trail, :]),
        _reduced("projectable_derivative_part", points,
                 conn.gamma_partial(points)[..., trail, lead, lead, lead]),
    )


def check_projectable(conn: ConnectionField, dist: DistributionSpec, points) -> CheckResult:
    """Residual of connection projectability along the trailing span.

    Combines the parallelism family with the requirement that the leading
    components be constant in the trailing directions; on a tie the worst
    point is the parallel part's.
    """
    part1, part2 = projectability_parts(conn, dist, points)
    return replace(part1 if part1.residual >= part2.residual else part2, name="projectable")


def _curvature_block(conn: ConnectionField, dist: DistributionSpec, points) -> np.ndarray:
    """R_{a mu nu}{}^i (a trailing, i leading), ``[..., a, mu, nu, i]``: only
    the block of :func:`~walkergeom.tensor.curvature_components` the
    curvature condition reads, by the four-term formula

        d_mu Gamma^i_{a nu} - d_a Gamma^i_{mu nu}
        + Gamma^i_{mu p} Gamma^p_{a nu} - Gamma^i_{a p} Gamma^p_{mu nu},

    built in a fresh ``[..., a, i, mu, nu]`` array (the jet's arrays are
    read-only)."""
    G, dG = conn.gamma(points), conn.gamma_partial(points)
    lead, trail, n, s = dist.leading, dist.trailing, dist.n, dist.s
    base, r = G.shape[:-3], n - s
    # Gamma^i_{mu p} Gamma^p_{a nu}: [i mu, p] @ [a][p, nu]
    right = np.ascontiguousarray(np.einsum("...pav->...apv", G[..., trail, :]))
    block = np.matmul(G[..., lead, :, :].reshape(base + (1, r * n, n)), right)
    # Gamma^i_{a p} Gamma^p_{mu nu}: [a i, p] @ [p, mu nu]
    left = np.einsum("...iap->...aip", G[..., lead, trail, :]).reshape(base + (s * r, n))
    block -= np.matmul(left, G.reshape(base + (n, n * n))).reshape(block.shape)
    block = block.reshape(base + (s, r, n, n))
    block += np.einsum("...miav->...aimv", dG[..., lead, trail, :])
    block -= dG[..., trail, lead, :, :]
    return np.einsum("...aimv->...amvi", block)


def curvature_condition(conn: ConnectionField, dist: DistributionSpec, points) -> CheckResult:
    """Residual of the curvature condition: max |R_{a mu nu}{}^i|."""
    return _reduced("curvature_condition", points, _curvature_block(conn, dist, points))


def check_walker_form(g: MetricField, points) -> List[CheckResult]:
    """Clause-by-clause residuals of the adapted three-block canonical form.

    Checks, at the sampled points: vanishing of the trailing-trailing and
    trailing-middle blocks, constancy of the leading-trailing block,
    independence of the middle blocks from the trailing coordinates, and
    nonsingularity of the leading-trailing and middle-middle blocks.
    """
    chart = g.chart
    if chart.mode != "three_block":
        raise ValueError("check_walker_form requires a metric on a three-block chart")
    lead, mid, trail = chart.leading, chart.middle, chart.trailing

    gv = g.value(points)
    dg = g.partial_value(points)
    det_ia = np.abs(np.linalg.det(gv[..., lead, trail]))
    results = [
        _reduced("null_trailing_block", points, gv[..., trail, trail]),
        _reduced("null_middle_trailing_block", points, gv[..., mid, trail]),
        _reduced("constant_leading_trailing_block", points, dg[..., :, lead, trail]),
        _reduced("trailing_independence_middle_block", points, dg[..., trail, mid, mid]),
        _reduced("trailing_independence_middle_leading_block", points, dg[..., trail, mid, lead]),
        _reduced("nonsingular_leading_trailing_block", points,
                 np.maximum(0.0, 1.0 - det_ia / WALKER_DET_FLOOR)),
    ]
    if chart.middle_size > 0:
        det_pq = np.abs(np.linalg.det(gv[..., mid, mid]))
        results.append(_reduced("nonsingular_middle_block", points,
                                np.maximum(0.0, 1.0 - det_pq / WALKER_DET_FLOOR)))
    return results


def walker_projectability(g: MetricField, points) -> CheckResult:
    """Residual of the second-partial criterion |d_a d_b g_jk|, |d_a d_p g_jk|."""
    chart = g.chart
    if chart.mode != "three_block":
        raise ValueError("walker_projectability requires a metric on a three-block chart")
    d2 = g.second_partial_value(points)
    lead, mid, trail = chart.leading, chart.middle, chart.trailing
    return _reduced("walker_projectability", points,
                    d2[..., trail, trail, lead, lead], d2[..., trail, mid, lead, lead])


# ---------------------------------------------------------------------------
# projection onto the leaf space
# ---------------------------------------------------------------------------


def restrict_connection(conn: ConnectionField, dist: DistributionSpec) -> ConnectionField:
    """The induced connection on the local leaf space (dimension n - s): the
    leading components of ``conn`` with the trailing coordinates pinned to zero.

    No projectability check is performed.  Once
    ``check_projectable(conn, dist, points).passes(tol)`` holds, any fixed
    trailing values give the same functions up to the tolerance; for a
    non-projectable connection the result depends on the pinned values and
    carries no invariant meaning.
    """
    return RestrictedConnection(conn, dist.n - dist.s)
