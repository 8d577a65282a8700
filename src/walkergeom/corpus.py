"""Deterministic random families of fields, metrics and extension data.

Shared by the test suite and the demo scripts.  Every generator takes a
``numpy.random.Generator`` so corpora are reproducible from a seed.  Metrics
are built as a well-conditioned constant part plus a small polynomial
perturbation, which keeps them nondegenerate on the whole sampling cube.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .chart import ChartSplit
from .expr import ScalarField, coordinate
from .extensions import ExtensionSpec, OneFormSection
from .tensor import MetricField, SymbolicConnection
from .transport import CurveSpec

__all__ = [
    "random_polynomial",
    "random_symmetric_constant",
    "random_metric",
    "random_walker_metric",
    "walker_from_linear_data",
    "random_extension_spec",
    "random_one_form",
    "random_curve",
]


def random_polynomial(
    rng: np.random.Generator,
    n: int,
    *,
    degree: int = 3,
    max_terms: int = 3,
    scale: float = 1.0,
    variables: Optional[Sequence[int]] = None,
) -> ScalarField:
    """Random polynomial in the given coordinates (1-based indices)."""
    variables = list(variables) if variables is not None else list(range(1, n + 1))
    n_terms = int(rng.integers(1, max_terms + 1))
    f = ScalarField.constant(0.0, n)
    for _ in range(n_terms):
        coeff = float(rng.uniform(-scale, scale))
        total = int(rng.integers(0, degree + 1))
        powers = {}
        for _ in range(total):
            v = int(rng.choice(variables))
            powers[v] = powers.get(v, 0) + 1
        term = ScalarField.constant(coeff, n)
        for v in sorted(powers):
            term = term * coordinate(v, n) ** powers[v]
        f = f + term
    return f


def random_symmetric_constant(rng: np.random.Generator, k: int) -> np.ndarray:
    """Well-conditioned symmetric constant matrix with eigenvalues in ±[0.6, 1.5]."""
    if k == 0:
        return np.zeros((0, 0))
    q, _ = np.linalg.qr(rng.normal(size=(k, k)))
    eigs = rng.uniform(0.6, 1.5, size=k) * rng.choice([-1.0, 1.0], size=k)
    return q @ np.diag(eigs) @ q.T


def random_nonsingular_constant(rng: np.random.Generator, k: int) -> np.ndarray:
    """Uniform [-1, 1] matrix with |det| >= 0.3."""
    while True:
        mat = rng.uniform(-1.0, 1.0, size=(k, k))
        if abs(np.linalg.det(mat)) >= 0.3:
            return mat


def random_metric(rng: np.random.Generator, chart: ChartSplit) -> MetricField:
    """Nondegenerate random polynomial metric on the chart's cube: a constant
    plus a cubic perturbation of scale 0.02."""
    n = chart.n
    base = random_symmetric_constant(rng, n)
    comps = {}
    for mu in range(1, n + 1):
        for nu in range(mu, n + 1):
            comps[(mu, nu)] = ScalarField.constant(base[mu - 1, nu - 1], n) + random_polynomial(
                rng, n, scale=0.02
            )
    return MetricField(chart, comps)


def random_walker_metric(rng: np.random.Generator, r: int, m: int) -> MetricField:
    """Random metric in the adapted three-block canonical form.

    The leading-leading block is an arbitrary polynomial in all coordinates,
    so the result is generically not projectable; the structural clauses
    (null blocks, constant g_ia, trailing-independent middle blocks) hold by
    construction.
    """
    n = 2 * r + m
    chart = ChartSplit.three_block(n, r)
    q = r + m
    comps = {}
    g_ia = random_nonsingular_constant(rng, r)
    for i in range(1, r + 1):
        for a in range(1, r + 1):
            comps[(i, q + a)] = ScalarField.constant(g_ia[i - 1, a - 1], n)
    h = random_symmetric_constant(rng, m)
    mid_vars = list(range(1, q + 1))
    for p in range(1, m + 1):
        for s in range(p, m + 1):
            comps[(r + p, r + s)] = ScalarField.constant(h[p - 1, s - 1], n) + random_polynomial(
                rng, n, scale=0.02, variables=mid_vars
            )
        for i in range(1, r + 1):
            comps[(i, r + p)] = random_polynomial(rng, n, scale=0.3, variables=mid_vars)
    for j in range(1, r + 1):
        for k in range(j, r + 1):
            comps[(j, k)] = random_polynomial(rng, n)
    return MetricField(chart, comps)


def walker_from_linear_data(r: int, m: int, B: dict, lam: dict) -> MetricField:
    """Adapted-form metric with g_jk = sum_a x^a B_ajk + lambda_jk, identity
    leading-trailing and middle-middle blocks and a zero middle-leading block.

    ``B`` maps (a, j, k) with ``a`` a 1-based trailing offset to fields;
    ``lam`` maps 1-based index pairs to fields on leading(+middle)
    coordinates.  Projectability of the result is equivalent to ``B``
    depending on the leading block only.
    """
    n = 2 * r + m
    q = r + m
    chart = ChartSplit.three_block(n, r)
    comps = {}
    for i in range(1, r + 1):
        for a in range(1, r + 1):
            comps[(i, q + a)] = ScalarField.constant(float(i == a), n)
    for p in range(r + 1, q + 1):
        comps[(p, p)] = ScalarField.constant(1.0, n)
    for j in range(1, r + 1):
        for k in range(j, r + 1):
            f = lam.get((j, k), ScalarField.constant(0.0, n)).with_dimension(n)
            for a in range(1, r + 1):
                piece = B.get((a, j, k))
                if piece is None or piece.is_zero:
                    continue
                f = f + coordinate(q + a, n) * piece.with_dimension(n)
            comps[(j, k)] = f
    return MetricField(chart, comps)


def random_extension_spec(rng: np.random.Generator, r: int, m: int) -> ExtensionSpec:
    """Random pullback-extension data (base connection, section tensor, h)."""
    conn = {}
    for i in range(1, r + 1):
        for j in range(1, r + 1):
            for k in range(j, r + 1):
                conn[(i, j, k)] = random_polynomial(rng, r, scale=0.8)
    D = SymbolicConnection(r, conn)
    q = r + m
    lam = {}
    for mu in range(1, r + 1):
        for nu in range(mu, q + 1):
            lam[(mu, nu)] = random_polynomial(rng, q, scale=0.5)
    h = random_symmetric_constant(rng, m)
    for p in range(1, m + 1):
        for s in range(p, m + 1):
            lam[(r + p, r + s)] = ScalarField.constant(h[p - 1, s - 1], q) + random_polynomial(
                rng, q, scale=0.02
            )
    g_ia = np.eye(r) if rng.random() < 0.5 else random_nonsingular_constant(rng, r)
    return ExtensionSpec(r=r, m=m, base_connection=D, lam=lam, g_ia=g_ia)


def random_one_form(rng: np.random.Generator, r: int, m: int) -> OneFormSection:
    """Random polynomial one-form section on the leading+middle chart."""
    comps = [random_polynomial(rng, r + m, scale=0.7) for _ in range(r)]
    return OneFormSection(r, m, tuple(comps))


def random_curve(rng: np.random.Generator, n: int) -> CurveSpec:
    """Polynomial curve staying inside the unit sampling cube on t in [0, 1],
    with the default grid step of :class:`CurveSpec`."""
    comps = []
    for _ in range(n):
        c = rng.uniform(-1.0, 1.0, size=4) * np.array([0.45, 0.3, 0.15, 0.05])
        t = coordinate(1, 1)
        comps.append(
            ScalarField.constant(float(c[0]), 1)
            + float(c[1]) * t
            + float(c[2]) * t ** 2
            + float(c[3]) * t ** 3
        )
    return CurveSpec(tuple(comps))
