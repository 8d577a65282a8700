"""Residual checks for trailing-coordinate distributions.

Every distribution here is the span of the last ``s`` coordinate vector
fields of a chart, which is the only case the adapted-coordinate theory
needs.  Each predicate is expressed as a residual: the max over sampled
points of the component families that must vanish.  A check "passes" when
its residual is at or below the caller's tolerance; genuine violations show
up at O(1) while true zeros sit at rounding level, so thresholding is
unambiguous in practice.

Component families checked (indices: i,j,k leading; p,q middle; a,b trailing):

* vector-field projectability      d_a w^i = 0
* nullity                          g_ab = 0
* parallelism                      Gamma^i_{a mu} = 0
* connection projectability        Gamma^i_{a mu} = d_a Gamma^i_{jk} = 0
* curvature condition              R_{a mu nu}{}^i = 0
* adapted (Walker) canonical form  g_ab = g_ap = 0, g_ia constant,
                                   d_a g_pq = d_a g_pi = 0, blocks nonsingular
* adapted-form projectability      d_a d_b g_jk = d_a d_p g_jk = 0
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .chart import ChartSplit
from .expr import ScalarField, evaluate_fields
from .tensor import ConnectionField, MetricField, RestrictedConnection, curvature_components

__all__ = [
    "DistributionSpec",
    "CheckResult",
    "NotProjectableError",
    "check_field_projectable",
    "check_null",
    "check_parallel",
    "check_projectable",
    "projectability_parts",
    "curvature_condition",
    "check_walker_form",
    "walker_projectability",
    "projected_connection",
    "restrict_connection",
]

# a leading-trailing or middle block with |det| below this counts as singular
# in check_walker_form
WALKER_DET_FLOOR = 1e-6


class NotProjectableError(ValueError):
    """Projection was requested for a connection that fails the residual check."""

    def __init__(self, residual: float, tolerance: float):
        super().__init__(
            f"connection is not projectable: residual {residual:.3e} exceeds "
            f"tolerance {tolerance:.3e}"
        )
        self.residual = residual
        self.tolerance = tolerance


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

    def __float__(self) -> float:
        return self.residual

    def passes(self, tolerance: float) -> bool:
        return self.residual <= tolerance


def _reduced(name: str, per_point: np.ndarray, points: np.ndarray) -> CheckResult:
    per_point = np.asarray(per_point, dtype=float)
    if per_point.size == 0:
        return CheckResult(name, 0.0, None)
    worst = int(np.argmax(per_point))
    return CheckResult(name, float(per_point[worst]), np.asarray(points)[worst].copy())


def _family_max(values: np.ndarray) -> np.ndarray:
    """Collapse all component axes, keeping the leading point axis."""
    flat = values.reshape(values.shape[0], -1)
    if flat.shape[1] == 0:
        return np.zeros(flat.shape[0])
    return np.max(np.abs(flat), axis=1)


def _points2d(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    return pts


# ---------------------------------------------------------------------------
# the residual checks
# ---------------------------------------------------------------------------


def check_field_projectable(
    w: Sequence[ScalarField], dist: DistributionSpec, points
) -> CheckResult:
    """Residual of vector-field projectability: max |d_a w^i|."""
    pts = _points2d(points)
    n = dist.n
    if len(w) != n:
        raise ValueError(f"vector field must have {n} components")
    lead = range(dist.leading.start, dist.leading.stop)
    trail = range(dist.trailing.start, dist.trailing.stop)
    partials = [[w[i].partial(a + 1) for i in lead] for a in trail]
    vals = evaluate_fields(partials, pts)
    return _reduced("field_projectable", _family_max(vals), pts)


def check_null(g: MetricField, dist: DistributionSpec, points) -> CheckResult:
    """Residual of nullity: max |g(d_a, d_b)| over trailing pairs."""
    pts = _points2d(points)
    gv = g.value(pts)
    block = gv[:, dist.trailing, dist.trailing]
    return _reduced("null", _family_max(block), pts)


def check_parallel(conn: ConnectionField, dist: DistributionSpec, points) -> CheckResult:
    """Residual of parallelism of the trailing span: max |Gamma^i_{a mu}|."""
    pts = _points2d(points)
    G = conn.gamma(pts)
    fam = G[:, dist.leading, dist.trailing, :]
    return _reduced("parallel", _family_max(fam), pts)


def projectability_parts(
    conn: ConnectionField, dist: DistributionSpec, points
) -> tuple[CheckResult, CheckResult]:
    """The two component families behind connection projectability.

    Returns (parallel part ``Gamma^i_{a mu}``, derivative part
    ``d_a Gamma^i_{jk}``) as separate residuals.
    """
    pts = _points2d(points)
    G = conn.gamma(pts)
    dG = conn.gamma_partial(pts)
    lead, trail = dist.leading, dist.trailing
    fam1 = G[:, lead, trail, :]
    fam2 = dG[:, trail, lead, lead, lead]
    return (
        _reduced("projectable_parallel_part", _family_max(fam1), pts),
        _reduced("projectable_derivative_part", _family_max(fam2), pts),
    )


def check_projectable(conn: ConnectionField, dist: DistributionSpec, points) -> CheckResult:
    """Residual of connection projectability along the trailing span.

    Combines the parallelism family with the requirement that the leading
    components be constant in the trailing directions.
    """
    part1, part2 = projectability_parts(conn, dist, points)
    winner = part1 if part1.residual >= part2.residual else part2
    return CheckResult("projectable", winner.residual, winner.worst_point)


def curvature_condition(conn: ConnectionField, dist: DistributionSpec, points) -> CheckResult:
    """Residual of the curvature condition: max |R_{a mu nu}{}^i|."""
    pts = _points2d(points)
    R = curvature_components(conn, pts)
    fam = R[:, dist.trailing, :, :, dist.leading]
    return _reduced("curvature_condition", _family_max(fam), pts)


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
    pts = _points2d(points)
    lead, mid, trail = chart.leading, chart.middle, chart.trailing

    gv = g.value(pts)
    dg = g.partial_value(pts)
    det_ia = np.abs(np.linalg.det(gv[:, lead, trail]))
    results = [
        _reduced("null_trailing_block", _family_max(gv[:, trail, trail]), pts),
        _reduced("null_middle_trailing_block", _family_max(gv[:, mid, trail]), pts),
        _reduced("constant_leading_trailing_block", _family_max(dg[:, :, lead, trail]), pts),
        _reduced("trailing_independence_middle_block", _family_max(dg[:, trail, mid, mid]), pts),
        _reduced(
            "trailing_independence_middle_leading_block",
            _family_max(dg[:, trail, mid, lead]),
            pts,
        ),
        _reduced(
            "nonsingular_leading_trailing_block",
            np.maximum(0.0, 1.0 - det_ia / WALKER_DET_FLOOR),
            pts,
        ),
    ]
    if chart.middle_size > 0:
        det_pq = np.abs(np.linalg.det(gv[:, mid, mid]))
        results.append(_reduced(
            "nonsingular_middle_block", np.maximum(0.0, 1.0 - det_pq / WALKER_DET_FLOOR), pts
        ))
    return results


def walker_projectability(g: MetricField, points) -> CheckResult:
    """Residual of the second-partial criterion |d_a d_b g_jk|, |d_a d_p g_jk|."""
    chart = g.chart
    if chart.mode != "three_block":
        raise ValueError("walker_projectability requires a metric on a three-block chart")
    pts = _points2d(points)
    d2 = g.second_partial_value(pts)
    lead, mid, trail = chart.leading, chart.middle, chart.trailing
    fam1 = _family_max(d2[:, trail, trail, lead, lead])
    fam2 = _family_max(d2[:, trail, mid, lead, lead])
    return _reduced("walker_projectability", np.maximum(fam1, fam2), pts)


# ---------------------------------------------------------------------------
# projection onto the leaf space
# ---------------------------------------------------------------------------


def restrict_connection(conn: ConnectionField, dist: DistributionSpec) -> ConnectionField:
    """Leading components of ``conn`` with trailing coordinates pinned to zero.

    No projectability check is performed; use :func:`projected_connection`
    for the verified operation.  For a non-projectable connection the result
    depends on the pinned values and carries no invariant meaning.
    """
    return RestrictedConnection(conn, dist.n - dist.s)


def projected_connection(
    conn: ConnectionField,
    dist: DistributionSpec,
    points,
    tolerance: float = 1e-8,
) -> ConnectionField:
    """The induced connection on the local leaf space (dimension n - s).

    Verifies projectability at the sampled points first and raises
    :class:`NotProjectableError` when the residual exceeds the tolerance;
    the returned connection has the leading component functions with the
    trailing coordinates substituted by zero (any fixed values would give
    the same functions, up to the tolerance, once the check passed).
    """
    res = check_projectable(conn, dist, points)
    if not res.passes(tolerance):
        raise NotProjectableError(res.residual, tolerance)
    return restrict_connection(conn, dist)
