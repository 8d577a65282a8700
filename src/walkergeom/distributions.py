"""Residual checks for trailing-coordinate distributions.

Every distribution here is the span of the last ``s`` coordinate vector
fields of a chart, which is the only case the adapted-coordinate theory
needs.  Each predicate is expressed as a residual: the largest |entry| of
the component families that must vanish, over the sampled points.  Every
family has the point axes first (a single point ``(n,)`` is a batch of
one), and the worst point is the first point whose own largest |entry|
attains the residual; a NaN entry gives a NaN residual at the first point
holding one.  The d Gamma families are read one block of points at a time
(``ConnectionField.gamma_partial(x, block, rows)``) and reduced to each
point's largest |entry| there, so no check holds more than a point block of
them on top of the connection's jet.  A check "passes" when its residual is
at or below the caller's tolerance; genuine violations show up at O(1) while
true zeros sit at rounding level, so thresholding is unambiguous in practice.

Parallelism, both parts of projectability and the curvature condition first
look up their family's slot block in the connection's slot pattern
(``ConnectionField.nonzero``; for the curvature condition, the OR of the
patterns of its four terms).  A family whose block is all False is
structurally zero: it reads 0.0 at every point, the first point is its worst,
and the connection is not asked for it, so no Gamma, d Gamma or g^{-1} is
evaluated for it.  This holds whatever the sampled values are: where an
evaluated dg or g^{-1} is not finite, such a family reads 0.0 where its
numeric product would read inf * 0 = NaN, and a point where g is singular
is not refused for it (``sample_points`` never draws one).  Nullity, the
clauses of the Walker form and adapted-form projectability do the same with
the metric's slot patterns (``MetricField._nonzero``) of g, dg and d^2 g:
a block that is all False reads 0.0 without being evaluated, and every
other block (the Walker form's determinant blocks always) is read as a
slot block (``MetricField._slot_blocks``), never all of g.  Every other
family is evaluated as below, with the same bits.  On a built extension or
its metric form, all of these families but the two determinant blocks are
structurally zero.

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

import math
from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from .chart import ChartSplit
from .expr import _as_points
from .tensor import ConnectionField, MetricField, RestrictedConnection, _point_blocks

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


def _base(field, points) -> tuple:
    """The point axes of ``points``, refused like a read of ``field`` (a
    connection or a metric) there."""
    return _as_points(points, field.n).shape[:-1]


def _metric_families(g: MetricField, order: int, points, *blocks) -> list:
    """The slot blocks ``blocks`` of g (order 0) or of its order-``order``
    partials at ``points``, from one ``g._slot_blocks`` read, except that a
    block whose slot pattern (``g._nonzero(order)``) is all False is one 0.0
    per point, unevaluated."""
    pattern = g._nonzero(order)
    live = [pattern[b].any() for b in blocks]
    read = iter(g._slot_blocks(order, points, *(b for b, on in zip(blocks, live) if on))
                if any(live) else ())
    base = _base(g, points)
    return [next(read) if on else np.zeros(base) for on in live]


def check_null(g: MetricField, dist: DistributionSpec, points) -> CheckResult:
    """Residual of nullity: max |g(d_a, d_b)| over trailing pairs."""
    return _reduced("null", points, *_metric_families(g, 0, points, (dist.trailing,) * 2))


def _parallel_family(conn: ConnectionField, dist: DistributionSpec, points) -> np.ndarray:
    """Gamma^i_{a mu} at ``points``, or one 0.0 per point when its slot
    pattern is all False."""
    lead, trail = dist.leading, dist.trailing
    if not conn.nonzero(0)[lead, trail].any():
        return np.zeros(_base(conn, points))
    return conn.gamma(points)[..., lead, trail, :]


def check_parallel(conn: ConnectionField, dist: DistributionSpec, points) -> CheckResult:
    """Residual of parallelism of the trailing span: max |Gamma^i_{a mu}|."""
    return _reduced("parallel", points, _parallel_family(conn, dist, points))


def projectability_parts(
    conn: ConnectionField, dist: DistributionSpec, points
) -> tuple[CheckResult, CheckResult]:
    """The two component families behind connection projectability.

    Returns (parallel part ``Gamma^i_{a mu}``, derivative part
    ``d_a Gamma^i_{jk}``) as separate residuals.  The derivative part is read
    one block of points at a time (``tensor.JET_BLOCK`` entries), and only
    each point's largest |entry| is kept.
    """
    lead, trail, s = dist.leading, dist.trailing, dist.s
    parallel = _parallel_family(conn, dist, points)
    block = (trail, lead, lead, lead)
    base, r = _base(conn, points), dist.n - s
    per_point = np.zeros(math.prod(base))
    if conn.nonzero(1)[block].any():
        for at in _point_blocks(len(per_point), s * r ** 3):
            dG_a = conn.gamma_partial(points, block, at)
            per_point[at] = np.max(np.abs(dG_a), axis=(1, 2, 3, 4), initial=0.0)
    return (
        _reduced("projectable_parallel_part", points, parallel),
        _reduced("projectable_derivative_part", points, per_point.reshape(base)),
    )


def check_projectable(conn: ConnectionField, dist: DistributionSpec, points) -> CheckResult:
    """Residual of connection projectability along the trailing span.

    Combines the parallelism family with the requirement that the leading
    components be constant in the trailing directions; on a tie the worst
    point is the parallel part's.
    """
    part1, part2 = projectability_parts(conn, dist, points)
    return replace(part1 if part1.residual >= part2.residual else part2, name="projectable")


def curvature_condition(conn: ConnectionField, dist: DistributionSpec, points) -> CheckResult:
    """Residual of the curvature condition: max |R_{a mu nu}{}^i| (a trailing,
    i leading), the block of :func:`~walkergeom.tensor.curvature_components`
    given by the four-term formula

        d_mu Gamma^i_{a nu} - d_a Gamma^i_{mu nu}
        + Gamma^i_{mu p} Gamma^p_{a nu} - Gamma^i_{a p} Gamma^p_{mu nu}.

    R is formed one block of points at a time (``tensor.JET_BLOCK``), each in
    a fresh ``[..., a, i, mu, nu]`` array (the jet's arrays are read-only),
    from that block's rows of the only two slot blocks of d Gamma the formula
    reads, and only each point's largest |entry| is kept.  A block whose
    slot pattern (:func:`_curvature_nonzero`) is all False reads 0.0 at
    every point without Gamma or d Gamma being read."""
    lead, trail, n, s = dist.leading, dist.trailing, dist.n, dist.s
    base, r = _base(conn, points), n - s
    per_point = np.zeros(math.prod(base))
    if not _curvature_nonzero(conn, dist).any():
        return _reduced("curvature_condition", points, per_point.reshape(base))
    G = conn.gamma(points).reshape(-1, n, n, n)
    for at in _point_blocks(len(G), n ** 4):
        g = G[at]
        # Gamma^i_{mu p} Gamma^p_{a nu}: [i mu, p] @ [a][p, nu]
        right = np.ascontiguousarray(np.einsum("...pav->...apv", g[..., trail, :]))
        block = np.matmul(g[..., lead, :, :].reshape(-1, 1, r * n, n), right)
        # Gamma^i_{a p} Gamma^p_{mu nu}: [a i, p] @ [p, mu nu]
        left = np.einsum("...iap->...aip", g[..., lead, trail, :]).reshape(-1, s * r, n)
        block -= np.matmul(left, g.reshape(-1, n, n * n)).reshape(block.shape)
        block = block.reshape(-1, s, r, n, n)
        # d_mu Gamma^i_{a nu} as [mu, i, a, nu] and d_a Gamma^i_{mu nu} as [a, i, mu, nu]
        dG_mu = conn.gamma_partial(points, (slice(None), lead, trail), at)
        block += np.einsum("...miav->...aimv", dG_mu)
        block -= conn.gamma_partial(points, (trail, lead), at)
        per_point[at] = np.max(np.abs(block), axis=(1, 2, 3, 4), initial=0.0)
    return _reduced("curvature_condition", points, per_point.reshape(base))


def _curvature_nonzero(conn: ConnectionField, dist: DistributionSpec) -> np.ndarray:
    """The slot pattern of the curvature-condition block ``[a, i, mu, nu]``:
    the OR of the patterns of its four terms, a product term's slot being
    nonzero when some p pairs two nonzero factors."""
    lead, trail = dist.leading, dist.trailing
    G, dG = conn.nonzero(0).astype(int), conn.nonzero(1)
    products = (np.einsum("imp,pav->aimv", G[lead], G[:, trail])
                + np.einsum("iap,pmv->aimv", G[lead, trail], G))
    return (products > 0) | np.einsum("miav->aimv", dG[:, lead, trail]) | dG[trail, lead]


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

    # the clauses' slot blocks of g and dg; the determinant blocks are
    # always read
    g_ab, g_pa = _metric_families(g, 0, points, (trail, trail), (mid, trail))
    dg_ia, dg_pq, dg_pi = _metric_families(
        g, 1, points, (slice(None), lead, trail), (trail, mid, mid), (trail, mid, lead))
    g_ia, g_pq = g._slot_blocks(0, points, (lead, trail), (mid, mid))
    if g._nonzero(1)[:, lead, trail].any():
        det_ia = np.abs(np.linalg.det(g_ia))
    else:
        # a constant block: one det (the same LU as each of a batch), for
        # every point
        flat = g_ia.reshape((-1,) + g_ia.shape[-2:])
        det_ia = np.abs(np.linalg.det(flat[:1])).repeat(len(flat)).reshape(g_ia.shape[:-2])
    results = [
        _reduced("null_trailing_block", points, g_ab),
        _reduced("null_middle_trailing_block", points, g_pa),
        _reduced("constant_leading_trailing_block", points, dg_ia),
        _reduced("trailing_independence_middle_block", points, dg_pq),
        _reduced("trailing_independence_middle_leading_block", points, dg_pi),
        _reduced("nonsingular_leading_trailing_block", points,
                 np.maximum(0.0, 1.0 - det_ia / WALKER_DET_FLOOR)),
    ]
    if chart.middle_size > 0:
        det_pq = np.abs(np.linalg.det(g_pq))
        results.append(_reduced("nonsingular_middle_block", points,
                                np.maximum(0.0, 1.0 - det_pq / WALKER_DET_FLOOR)))
    return results


def walker_projectability(g: MetricField, points) -> CheckResult:
    """Residual of the second-partial criterion |d_a d_b g_jk|, |d_a d_p g_jk|."""
    chart = g.chart
    if chart.mode != "three_block":
        raise ValueError("walker_projectability requires a metric on a three-block chart")
    lead, mid, trail = chart.leading, chart.middle, chart.trailing
    # only the two slot blocks of d^2 g the criterion reads
    return _reduced("walker_projectability", points, *_metric_families(
        g, 2, points, (trail, trail, lead, lead), (trail, mid, lead, lead)))


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
