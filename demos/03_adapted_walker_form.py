"""Adapted (Walker) three-block form and projectability of its connection.

Charts split as leading | middle | trailing with the trailing block spanning
a null parallel distribution.  Projectability of the Levi-Civita connection
is equivalent to the leading block depending at most linearly on the
trailing coordinates with leading-only coefficients; both the second-partial
shortcut and the full connection check see the same verdict.
"""

from walkergeom import (
    ChartSplit,
    DistributionSpec,
    MetricField,
    check_parallel,
    check_null,
    check_projectable,
    check_walker_form,
    christoffel,
    walker_projectability,
)
from walkergeom.sampling import sample_points

chart = ChartSplit.three_block(4, 1)  # blocks: {1} | {2,3} | {4}

good = MetricField(chart, {
    (1, 1): "2*x1*x4 + x2*x3",  # linear in x4, coefficient depends on x1 only
    (1, 4): 1.0,
    (2, 2): 1.0,
    (3, 3): 1.0,
})
bad = MetricField(chart, {
    (1, 1): "x2*x4",            # coefficient of x4 depends on the middle block
    (1, 4): 1.0,
    (2, 2): 1.0,
    (3, 3): 1.0,
})

for name, g in [("good", good), ("bad", bad)]:
    pts = sample_points(4, 50, seed=5, metric=g)
    conn = christoffel(g)
    P = DistributionSpec.null_block(chart)
    V = DistributionSpec.orthocomplement(chart)
    print(f"--- {name} metric")
    print("  canonical form verdict:", all(r.passes(1e-8) for r in check_walker_form(g, pts)))
    print("  null residual:         ", check_null(g, P, pts).residual)
    print("  parallel residual:     ", check_parallel(conn, P, pts).residual)
    print("  second-partial check:  ", walker_projectability(g, pts).residual)
    print("  connection check (P):  ", check_projectable(conn, P, pts).residual)
    print("  connection check (V):  ", check_projectable(conn, V, pts).residual)
