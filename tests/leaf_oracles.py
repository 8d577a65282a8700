"""Leaf-space identities used only as test oracles: projectability of a
vector field, and the constant trailing field that represents a base
covector together with its parallelism along the leaves."""

from typing import Sequence

import numpy as np

from walkergeom import (
    CheckResult,
    DistributionSpec,
    MetricField,
    ScalarField,
    SingularMetricError,
    christoffel,
)
from walkergeom.distributions import _reduced
from walkergeom.expr import evaluate_fields
from walkergeom.tensor import DET_FLOOR


def check_field_projectable(
    w: Sequence[ScalarField], dist: DistributionSpec, points
) -> CheckResult:
    """Residual of vector-field projectability: max |d_a w^i|."""
    n = dist.n
    if len(w) != n:
        raise ValueError(f"vector field must have {n} components")
    lead = range(dist.leading.start, dist.leading.stop)
    trail = range(dist.trailing.start, dist.trailing.stop)
    partials = [[w[i].partial(a + 1) for i in lead] for a in trail]
    return _reduced("field_projectable", points, evaluate_fields(partials, points))


def canonical_vertical_field(xi, g_ia) -> np.ndarray:
    """Trailing components ``v^a`` with ``v^a g_{a i} = xi_i``.

    The constant-component field ``(0,..,0,v^a)`` then represents the base
    covector ``xi`` via ``g(v, .) = pi* xi`` on any adapted-form metric with
    leading-trailing block ``g_ia``.
    """
    C = np.asarray(g_ia, dtype=float)
    if abs(np.linalg.det(C)) < DET_FLOOR:
        raise SingularMetricError("the constant block [g_ia] is singular")
    return np.linalg.solve(C, np.asarray(xi, dtype=float))


def canonical_field_parallelism(g: MetricField, v_trailing, points) -> CheckResult:
    """Residual of parallelism of a constant trailing field along the
    middle+trailing leaves: max over leading mu of |Gamma^mu_{nu a} v^a| with
    nu ranging over the middle and trailing directions."""
    chart = g.chart
    if chart.mode != "three_block":
        raise ValueError("canonical fields require a three-block chart")
    G = christoffel(g).gamma(points)
    v = np.asarray(v_trailing, dtype=float)
    leaf_dirs = slice(chart.r, chart.n)  # middle + trailing
    contracted = np.einsum("...lva,a->...lv", G[..., chart.leading, leaf_dirs, chart.trailing], v)
    return _reduced("canonical_field_parallelism", points, contracted)
