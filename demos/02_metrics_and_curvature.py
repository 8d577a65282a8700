"""Metrics, Christoffel symbols and curvature under the sign convention

    R_ijk^l = d_j Gamma^l_ik - d_i Gamma^l_jk
              + Gamma^l_jp Gamma^p_ik - Gamma^l_ip Gamma^p_jk.
"""

import numpy as np

from walkergeom import (
    ChartSplit,
    MetricField,
    christoffel,
    curvature_components,
)

chart = ChartSplit.two_block(2, 1)

# polar-type metric diag(1, x1^2)
polar = MetricField(chart, {(1, 1): 1.0, (2, 2): "x1^2"})
conn = christoffel(polar)
x = np.array([2.0, 0.7])
G = conn.gamma(x)
print("polar Gamma^1_22 =", G[0, 1, 1], " Gamma^2_12 =", G[1, 0, 1])
# metric compatibility: d_mu g_{nu rho} = Gamma^s_{mu nu} g_{s rho} + Gamma^s_{mu rho} g_{nu s}
g, dg = polar.value(x), polar.partial_value(x)
compat = dg - np.einsum("smn,sr->mnr", G, g) - np.einsum("smr,ns->mnr", G, g)
print("metric compatibility residual:", np.max(np.abs(compat)))

# round-sphere-type metric diag(1, sin^2 x1)
sphere = MetricField(chart, {(1, 1): 1.0, (2, 2): "sin(x1)^2"})
equator = np.array([np.pi / 2, 0.0])
R = curvature_components(christoffel(sphere), equator)
print("sphere R_121^2 at the equator:", R[0, 1, 0, 1])

low = np.einsum("ijkm,ml->ijkl", R, sphere.value(equator))  # R_ijkl = R_ijk^m g_ml
print("pair-interchange residual:", np.max(np.abs(low - np.einsum("klij->ijkl", low))))

# the inverse metric is solved per point, never symbolically
print("det g on a batch:", np.linalg.det(sphere.value(np.array([[0.4, 0.0], [1.2, 0.3]]))))
