"""Parallel transport: accuracy, norm preservation, commuting projections."""

import dataclasses

import numpy as np
import pytest

from walkergeom import transport
from walkergeom import (
    ChartSplit,
    CurveSpec,
    DistributionSpec,
    MetricField,
    ScalarField,
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


def loop_coefficients(conn, curve, ts):
    return -np.einsum("...ljk,...j->...lk", conn.gamma(curve.positions(ts)), curve.velocities(ts))


def loop_rk4(conn, curve, w0):
    """Classical RK4, one step at a time: the reference for the batched scheme."""
    ts = curve.grid()
    h = ts[1] - ts[0]
    A = loop_coefficients(conn, curve, ts)
    A_mid = loop_coefficients(conn, curve, (ts[:-1] + ts[1:]) / 2.0)
    out = [w0]
    for k in range(len(ts) - 1):
        w = out[-1]
        k1 = A[k] @ w
        k2 = A_mid[k] @ (w + 0.5 * h * k1)
        k3 = A_mid[k] @ (w + 0.5 * h * k2)
        k4 = A[k + 1] @ (w + h * k3)
        out.append(w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    return np.array(out)


def loop_euler(conn, curve, w0, step):
    """Forward Euler, one step at a time: the reference for the batched product."""
    ts = curve.grid(step)
    h = ts[1] - ts[0]
    A = loop_coefficients(conn, curve, ts[:-1])
    w = w0
    for k in range(len(ts) - 1):
        w = w + h * (A[k] @ w)
    return w


def extension_problem(seed, r, m):
    rng = np.random.default_rng(seed)
    g = build_pullback_extension(random_extension_spec(rng, r, m))
    return christoffel(g), random_curve(rng, g.n), rng.uniform(-1, 1, g.n)


# grids of 1 (step longer than t_span), 2, 3 and 37 steps
GRID_STEPS = [1.5, 0.5, 1 / 3, 1 / 37]


@pytest.mark.parametrize("step", GRID_STEPS)
@pytest.mark.parametrize("r, m", [(1, 1), (2, 2), (3, 2)])
def test_batched_rk4_matches_step_loop(r, m, step):
    conn, curve, w0 = extension_problem(31 + 10 * r + m, r, m)
    curve = dataclasses.replace(curve, step=step)
    got = parallel_transport(conn, curve, w0).vectors
    ref = loop_rk4(conn, curve, w0)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("step", GRID_STEPS)
@pytest.mark.parametrize("r, m", [(1, 1), (2, 2), (3, 2)])
def test_pairwise_euler_matches_step_loop(monkeypatch, r, m, step):
    # chunks of 7 split the 37-step grid into five odd chunks and a tail of 2
    monkeypatch.setattr(transport, "EULER_CHUNK", 7)
    conn, curve, w0 = extension_problem(53 + 10 * r + m, r, m)
    got = euler_transport(conn, curve, w0, step=step)
    ref = loop_euler(conn, curve, w0, step)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_flat_transport_is_constant():
    conn = SymbolicConnection(3)
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
    spec = dataclasses.replace(spec, base_connection=SymbolicConnection(1), lam={})
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


def test_curve_derives_its_velocities_once(monkeypatch):
    parts = ("x1", "x1^2")
    curve = CurveSpec(tuple(parse_expression(c, 1) for c in parts), (0.0, 1.0), 0.25)
    # the derived partials take no part in equality or repr
    twin = CurveSpec(tuple(parse_expression(c, 1) for c in parts), (0.0, 1.0), 0.25)
    assert curve == twin and hash(curve) == hash(twin)
    assert repr(curve) == repr(twin) and "_rates" not in repr(curve)

    def refused(self, i):
        raise AssertionError("velocities re-derived the curve")

    monkeypatch.setattr(ScalarField, "partial", refused)
    ts = curve.grid()
    assert np.array_equal(curve.velocities(ts), np.stack([np.ones(5), 2 * ts], axis=-1))


def test_curve_rejects_nonpositive_step():
    with pytest.raises(ValueError):
        CurveSpec((parse_expression("x1", 1),), (0.0, 1.0), 0.0)


def test_transport_validates_vector_shape():
    conn = SymbolicConnection(2)
    curve = line_curve(2)
    with pytest.raises(ValueError):
        parallel_transport(conn, curve, np.array([1.0]))


@pytest.mark.parametrize("step", [-1e-3, 0.0, float("nan"), float("inf")])
def test_step_must_be_positive_and_finite(step):
    conn = SymbolicConnection(2)
    with pytest.raises(ValueError, match="step must be positive and finite"):
        CurveSpec(line_curve(2).components, (0.0, 1.0), step)
    with pytest.raises(ValueError, match="step must be positive and finite"):
        euler_transport(conn, line_curve(2), np.ones(2), step=step)


@pytest.mark.parametrize("integrate", [parallel_transport, euler_transport])
@pytest.mark.parametrize("curve_n", [2, 4])
def test_transport_refuses_curve_of_other_dimension(integrate, curve_n):
    conn = SymbolicConnection(3, {(1, 1, 1): 1.0})
    with pytest.raises(ValueError, match=f"curve has dimension {curve_n}, connection has dimension 3"):
        integrate(conn, line_curve(curve_n), np.ones(3))


def test_euler_validates_vector_shape():
    with pytest.raises(ValueError, match=r"initial vector must have shape \(2,\)"):
        euler_transport(SymbolicConnection(2), line_curve(2), np.array([1.0]))
