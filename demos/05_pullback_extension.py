"""Pullback extensions: a middle block with its own vertical metric.

The input data is a base connection D (r coordinates), a symmetric section
tensor lambda on the leading+middle chart whose middle-middle block is the
vertical metric h, and a constant nonsingular block [g_ia].  The built
metric satisfies every structural conclusion at once: null parallel trailing
block, projectability along the trailing span and its orthocomplement,
projection onto D, and recovery of h from the middle block.
"""

from walkergeom import (
    DistributionSpec,
    ExtensionSpec,
    SymbolicConnection,
    build_pullback_extension,
    canonical_field_parallelism,
    canonical_vertical_field,
    check_projectable,
    christoffel,
    curvature_condition,
    recover_vertical_metric,
    vertical_metric_fields,
)
from walkergeom.sampling import sample_points

spec = ExtensionSpec(
    r=1,
    m=2,
    base_connection=SymbolicConnection(1, {(1, 1, 1): "x1"}),
    lam={
        (1, 1): "x2*x3",
        (1, 2): "0.5*x1",
        (2, 2): "1 + x1^2",
        (2, 3): "0.2*x2",
        (3, 3): 1.0,
    },
)
g = build_pullback_extension(spec)
print("chart blocks: leading {1} | middle {2,3} | trailing {4};  n =", g.n)

pts = sample_points(g.n, 50, seed=2, metric=g)
conn = christoffel(g)
P = DistributionSpec.null_block(g.chart)
V = DistributionSpec.orthocomplement(g.chart)
print("projectable along trailing span:   ", check_projectable(conn, P, pts).residual)
print("projectable along orthocomplement: ", check_projectable(conn, V, pts).residual)
print("curvature condition:               ", curvature_condition(conn, V, pts).residual)

# the vertical metric comes back as the same expressions that went in
fields = vertical_metric_fields(g)
print("vertical metric identical to input:",
      all(fields[p][q].same_expression(spec.h_component(2 + p, 2 + q))
          for p in range(2) for q in range(2)))
print("vertical metric at a point:\n", recover_vertical_metric(g, pts[0]))

# trailing constant fields represent base covectors and are leaf-parallel
v = canonical_vertical_field([1.0], spec.g_ia)
print("canonical field parallelism:", canonical_field_parallelism(g, v, pts).residual)
