"""Fiber translations and the transformation rule.

Translating the trailing coordinates by a one-form section omega pulls the
metric back to itself plus the (lifted) Killing image of omega:

    (omega* g) = g + pi*(L omega),
    (L omega)_ij = d_j omega_i + d_i omega_j - 2 Gamma^k_ij omega_k,
    (L omega)_ip = d_p omega_i,   (L omega)_pq = 0.

Sections with L omega = 0 are therefore isometries of every built metric.
"""

import numpy as np

from walkergeom import (
    ExtensionSpec,
    OneFormSection,
    SymbolicConnection,
    build_pullback_extension,
    fiber_translate_pullback,
    killing_operator,
    transformation_rule_residual,
)
from walkergeom.corpus import random_extension_spec, random_one_form
from walkergeom.sampling import sample_points

rng = np.random.default_rng(4)
spec = random_extension_spec(rng, 2, 1)
g = build_pullback_extension(spec)
pts = sample_points(g, 25, seed=3)

omega = random_one_form(rng, 2, 1)
print("Killing image at one point:\n", killing_operator(spec.base_connection, omega, pts[0]))
print("transformation-rule residual:",
      transformation_rule_residual(g, spec, omega, pts).residual)

# a rotational section over a flat base has vanishing Killing image
flat = ExtensionSpec(r=2, m=0, base_connection=SymbolicConnection(2),
                     lam={(1, 1): "x2", (2, 2): "x1^2"})
g_flat = build_pullback_extension(flat)
rotation = OneFormSection(2, 0, ["x2", "-x1"])
pts_flat = sample_points(g_flat, 25, seed=4)
L = killing_operator(flat.base_connection, rotation, pts_flat)
moved = fiber_translate_pullback(g_flat, rotation, flat.g_ia, pts_flat)
print("rotation: max |L| =", np.max(np.abs(L)),
      " isometry defect =", np.max(np.abs(moved - g_flat.value(pts_flat))))
