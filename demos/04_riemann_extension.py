"""Classical extension metrics on the doubled chart (m = 0).

A torsion-free base connection D on r coordinates and section data lambda
determine a neutral-signature metric on 2r coordinates:

    g_jk = lambda_jk - 2 g_ia x^a Gamma^i_jk,  g_ja = g_ia constant,  g_ab = 0.

Its trailing block is null and parallel, the Levi-Civita connection projects,
and projecting returns exactly D.
"""

import numpy as np

from walkergeom import (
    DistributionSpec,
    ExtensionSpec,
    SymbolicConnection,
    build_pullback_extension,
    check_null,
    check_parallel,
    check_projectable,
    christoffel,
    restrict_connection,
)
from walkergeom.sampling import sample_points

D = SymbolicConnection(2, {
    (1, 1, 1): "x1",
    (1, 2, 2): "0.5*x2",
    (2, 1, 2): "x1*x2",
})
lam = {(1, 1): "x1*x2", (1, 2): "x2^2"}
g = build_pullback_extension(ExtensionSpec(r=2, m=0, base_connection=D, lam=lam))

print("built metric components:")
for mu in range(1, 5):
    for nu in range(mu, 5):
        comp = g.component(mu, nu)
        if not comp.is_zero:
            print(f"  g_{mu}{nu} = {comp}")

pts = sample_points(g, 60, seed=1)
conn = christoffel(g)
V = DistributionSpec.orthocomplement(g.chart)
P = DistributionSpec.null_block(g.chart)
print("null residual:    ", check_null(g, P, pts).residual)
print("parallel residual:", check_parallel(conn, P, pts).residual)

# project only once the check passes: the restriction itself checks nothing
assert check_projectable(conn, V, pts).passes(1e-8)
projected = restrict_connection(conn, V)
base_pts = pts[:, :2]
diff = np.max(np.abs(projected.gamma(base_pts) - D.gamma(base_pts)))
print("projected connection equals the base data:", diff)
