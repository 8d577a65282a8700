"""Parallel transport: accuracy, norm preservation, commuting projections."""

import dataclasses

import numpy as np
import pytest

from walkergeom import (
    ChartSplit,
    CurveSpec,
    DistributionSpec,
    MetricField,
    SymbolicConnection,
    build_pullback_extension,
    christoffel,
    euler_transport,
    parallel_transport,
    parse_expression,
    projection_commutes_residual,
    restrict_connection,
)
from walkergeom.corpus import random_curve, random_extension_spec


def line_curve(n, step=1e-3):
    comps = ["x1"] + ["0.2*x1"] * (n - 1)
    return CurveSpec(tuple(parse_expression(c, 1) for c in comps), (0.0, 1.0), step)


def test_flat_transport_is_constant():
    conn = SymbolicConnection.zero(3)
    curve = random_curve(np.random.default_rng(0), 3)
    res = parallel_transport(conn, curve, np.array([1.0, -2.0, 0.5]))
    assert np.array_equal(res.vectors[0], res.vectors[-1])
    assert np.max(np.abs(res.vectors - res.vectors[0])) == 0.0


def test_transport_exponential_decay():
    # dw/dt + w = 0 along x(t) = t under Gamma^1_11 = 1: w(1) = e^{-1}
    conn = SymbolicConnection(1, {(1, 1, 1): 1.0})
    curve = CurveSpec((parse_expression("x1", 1),), (0.0, 1.0), 1e-3)
    res = parallel_transport(conn, curve, np.array([1.0]))
    assert abs(res.final[0] - np.exp(-1.0)) < 1e-8
    # independent first-order reference lands on the same value
    ref = euler_transport(conn, curve, np.array([1.0]), step=1e-6)
    assert abs(ref[0] - np.exp(-1.0)) < 1e-5
    assert abs(res.final[0] - ref[0]) < 1e-5


def test_transport_preserves_metric_norm():
    spec = random_extension_spec(np.random.default_rng(1), 1, 1)
    g = build_pullback_extension(spec)
    conn = christoffel(g)
    curve = random_curve(np.random.default_rng(2), g.n)
    w0 = np.array([0.8, -0.3, 0.6])
    res = parallel_transport(conn, curve, w0)
    gs = g.value(curve.positions(res.times))
    norms = np.einsum("...ij,...i,...j->...", gs, res.vectors, res.vectors)
    assert np.max(np.abs(norms - norms[0])) < 1e-6


def test_integrator_is_fourth_order(order_problems):
    # halving the step shrinks the error against the independent reference
    # by roughly 2^4
    for conn, curve, w0, ref in order_problems:
        h = curve.step
        e1 = np.max(np.abs(parallel_transport(conn, curve, w0).final - ref))
        e2 = np.max(np.abs(parallel_transport(conn, dataclasses.replace(curve, step=h / 2), w0).final - ref))
        assert 12.0 <= e1 / e2 <= 20.0, (e1, e2, e1 / e2)


def test_projection_commutes_for_flat_extension():
    spec = random_extension_spec(np.random.default_rng(4), 1, 0)
    spec = dataclasses.replace(spec, base_connection=SymbolicConnection.zero(1), lam={})
    g = build_pullback_extension(spec)
    V = DistributionSpec.orthocomplement(g.chart)
    curve = random_curve(np.random.default_rng(5), 2)
    res = projection_commutes_residual(
        g, spec.base_connection, V, curve, np.array([1.0, 0.3])
    )
    assert res == 0.0


def test_projection_commutes_for_built_extensions():
    rng = np.random.default_rng(6)
    for (r, m) in [(1, 1), (2, 0), (1, 2)]:
        spec = random_extension_spec(rng, r, m)
        g = build_pullback_extension(spec)
        V = DistributionSpec.orthocomplement(g.chart)
        curve = random_curve(rng, g.n)
        w0 = rng.uniform(-1, 1, g.n)
        res = projection_commutes_residual(g, spec.base_connection, V, curve, w0)
        assert res < 1e-6


def test_projection_fails_for_nonprojectable_metric():
    g = MetricField(
        ChartSplit.three_block(4, 1),
        {(1, 1): "x4*x2", (1, 4): 1.0, (2, 2): 1.0, (3, 3): 1.0},
    )
    conn = christoffel(g)
    V = DistributionSpec.orthocomplement(g.chart)
    D = restrict_connection(conn, V)
    curve = random_curve(np.random.default_rng(7), 4)
    w0 = np.array([1.0, 0.4, -0.2, 0.8])
    res = projection_commutes_residual(g, D, V, curve, w0, conn=conn)
    assert res > 1e-3


def test_curve_grid_and_truncation():
    curve = CurveSpec((parse_expression("x1", 1), parse_expression("x1^2", 1)), (0.0, 1.0), 0.25)
    ts = curve.grid()
    assert np.allclose(ts, [0.0, 0.25, 0.5, 0.75, 1.0])
    sub = curve.truncated(1)
    assert sub.n == 1
    assert np.allclose(sub.positions(ts)[:, 0], ts)
    assert np.allclose(curve.velocities(ts)[:, 1], 2 * ts)


def test_curve_rejects_nonpositive_step():
    with pytest.raises(ValueError):
        CurveSpec((parse_expression("x1", 1),), (0.0, 1.0), 0.0)


def test_transport_validates_vector_shape():
    conn = SymbolicConnection.zero(2)
    curve = line_curve(2)
    with pytest.raises(ValueError):
        parallel_transport(conn, curve, np.array([1.0]))
