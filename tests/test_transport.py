"""Parallel transport: accuracy, norm preservation, commuting projections."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from walkergeom import tensor, transport
from walkergeom import (
    ChartSplit,
    CurveSpec,
    DistributionSpec,
    LeviCivitaConnection,
    MetricField,
    ScalarField,
    SingularMetricError,
    SymbolicConnection,
    build_pullback_extension,
    christoffel,
    euler_transport,
    parallel_transport,
    parse_expression,
    projection_commutes_residual,
    restrict_connection,
)
from walkergeom.corpus import random_curve, random_extension_spec, random_metric
from walkergeom.tensor import RestrictedConnection


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


def split_into_blocks(monkeypatch, steps_per_block, n):
    """Make ``tensor._point_blocks`` cut a grid of n x n step matrices into
    blocks of ``steps_per_block`` steps."""
    monkeypatch.setattr(tensor, "JET_BLOCK", steps_per_block * n * n)


@pytest.mark.parametrize("step", GRID_STEPS)
@pytest.mark.parametrize("r, m", [(1, 1), (2, 2), (3, 2)])
def test_batched_rk4_matches_step_loop(monkeypatch, r, m, step):
    # one block, then blocks of 7: these split the 37-step grid into five odd
    # blocks and a tail of 2, and the doubling rounds with shift 8, 16 and 32
    # start inside a block or skip it; each case builds its own solve
    conn, curve, w0 = extension_problem(31 + 10 * r + m, r, m)
    curve = dataclasses.replace(curve, step=step)
    ref = loop_rk4(conn, curve, w0)
    for block in (None, 7):
        with monkeypatch.context() as patch:
            if block is not None:
                split_into_blocks(patch, block, conn.n)
            got = parallel_transport(christoffel(conn.metric), curve, w0).vectors
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("step", GRID_STEPS)
@pytest.mark.parametrize("r, m", [(1, 1), (2, 2), (3, 2)])
def test_pairwise_euler_matches_step_loop(monkeypatch, r, m, step):
    # blocks of 7 steps, as above
    conn, curve, w0 = extension_problem(53 + 10 * r + m, r, m)
    split_into_blocks(monkeypatch, 7, conn.n)
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
    # truncation keeps the leading rates
    sub = curve.truncated(1)
    monkeypatch.undo()
    fresh = CurveSpec(curve.components[:1], curve.t_span, curve.step)
    assert sub == fresh and repr(sub) == repr(fresh)
    assert np.array_equal(sub.positions(ts), fresh.positions(ts))
    assert np.array_equal(sub.velocities(ts), fresh.velocities(ts))


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


# ---------------------------------------------------------------------------
# the held solve: one Levi-Civita connection transports one curve once
# ---------------------------------------------------------------------------


def count_calls(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper that appends its first argument
    (the connection, or the metric of a method) to the returned list."""
    calls = []
    original = getattr(owner, name)

    def counted(first, *args, **kwargs):
        calls.append(first)
        return original(first, *args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def upstairs_runs(monkeypatch):
    """The vectors of every transport under a Levi-Civita connection."""
    runs = []
    original = transport.parallel_transport

    def recorded(conn, curve, w0):
        res = original(conn, curve, w0)
        if isinstance(conn, LeviCivitaConnection):
            runs.append(res.vectors)
        return res

    monkeypatch.setattr(transport, "parallel_transport", recorded)
    return runs


def transport_op(seed):
    """A built extension, its connection, the true and a perturbed base
    connection, a curve and a vector: one op of the transport workload."""
    rng = np.random.default_rng(seed)
    spec = random_extension_spec(rng, 2, 1)
    g = build_pullback_extension(spec)
    D = spec.base_connection
    perturbed = SymbolicConnection(2, {(l, j, k): D.component(l, j, k) + 1.0
                                       for l in (1, 2) for j in (1, 2) for k in (j, 2)})
    return g, christoffel(g), D, perturbed, random_curve(rng, g.n), rng.uniform(-1, 1, g.n)


def test_transport_and_commute_checks_share_one_solve(monkeypatch):
    g, conn, D, perturbed, curve, w0 = transport_op(71)
    V = DistributionSpec.orthocomplement(g.chart)
    built = count_calls(monkeypatch, transport, "_coefficients")
    inverses = count_calls(monkeypatch, MetricField, "inverse_value")
    runs = upstairs_runs(monkeypatch)
    transport.parallel_transport(conn, curve, w0)
    projection_commutes_residual(g, D, V, curve, w0, conn=conn)
    projection_commutes_residual(g, perturbed, V, curve, w0, conn=conn)
    assert sum(isinstance(c, LeviCivitaConnection) for c in built) == 1
    assert len(inverses) == 1
    monkeypatch.undo()
    fresh = parallel_transport(christoffel(g), curve, w0).vectors
    assert len(runs) == 3
    assert all(run.tobytes() == fresh.tobytes() for run in runs)


@pytest.mark.parametrize("change", [
    lambda c: dataclasses.replace(c, step=5e-4),
    lambda c: dataclasses.replace(c, t_span=(0.0, 0.5)),
    lambda c: dataclasses.replace(c, components=c.components[:-1] + (c.components[-1] + 0.01,)),
], ids=["step", "t_span", "component"])
def test_another_curve_builds_its_own_solve(monkeypatch, change):
    g, conn, _, _, curve, w0 = transport_op(73)
    other = change(curve)
    built = count_calls(monkeypatch, transport, "_coefficients")
    parallel_transport(conn, curve, w0)
    got = parallel_transport(conn, other, w0).vectors
    assert len(built) == 2
    assert got.tobytes() == parallel_transport(christoffel(g), other, w0).vectors.tobytes()


def test_gamma_read_elsewhere_drops_the_held_solve(monkeypatch):
    g, conn, _, _, curve, w0 = transport_op(79)
    built = count_calls(monkeypatch, transport, "_coefficients")
    first = parallel_transport(conn, curve, w0).vectors
    conn.gamma(np.full((3, g.n), 0.1))
    again = parallel_transport(conn, curve, w0).vectors
    assert len(built) == 2
    assert again.tobytes() == first.tobytes()


def test_symbolic_connection_holds_no_solve(monkeypatch):
    conn = SymbolicConnection(2, {(1, 1, 2): "x1*x2", (2, 2, 2): "1 + x1"})
    built = count_calls(monkeypatch, transport, "_coefficients")
    curve = line_curve(2)
    first = parallel_transport(conn, curve, np.ones(2)).vectors
    again = parallel_transport(conn, curve, np.ones(2)).vectors
    assert len(built) == 2
    assert again.tobytes() == first.tobytes()


def test_held_solve_is_read_only_and_still_validates():
    g, conn, _, _, curve, w0 = transport_op(83)
    parallel_transport(conn, curve, w0)

    def refused():
        raise AssertionError("the held solve was built again")

    held = conn._propagators(curve, refused)
    assert not held.flags.writeable
    with pytest.raises(ValueError):
        held[0, 0, 0] = 1.0
    with pytest.raises(ValueError, match=rf"initial vector must have shape \({g.n},\)"):
        parallel_transport(conn, curve, w0[:-1])
    wrong = CurveSpec(curve.components[:-1], curve.t_span, curve.step)
    with pytest.raises(ValueError, match=f"curve has dimension {g.n - 1}"):
        parallel_transport(conn, wrong, w0)


def test_held_solve_drops_gamma_on_its_grid(monkeypatch):
    # the coefficients contract the velocity into the first-kind sums, so a
    # transport and both commute checks of one curve read no Gamma at all,
    # upstairs or downstairs, and the jet on the grid never holds it; the
    # commute checks reuse the held solve, bit for bit
    g, conn, D, perturbed, curve, w0 = transport_op(89)
    V = DistributionSpec.orthocomplement(g.chart)

    def refused(*args, **kwargs):
        raise AssertionError("transport read Gamma")

    for owner in (LeviCivitaConnection, SymbolicConnection, RestrictedConnection):
        monkeypatch.setattr(owner, "gamma", refused)
    monkeypatch.setattr(LeviCivitaConnection, "_form", refused)
    first = parallel_transport(conn, curve, w0).vectors
    built = count_calls(monkeypatch, transport, "_coefficients")
    runs = upstairs_runs(monkeypatch)
    projection_commutes_residual(g, D, V, curve, w0, conn=conn)
    projection_commutes_residual(g, perturbed, V, curve, w0, conn=conn)
    assert conn._gamma is None
    # only the two downstairs solves build their coefficients
    assert built == [D, perturbed]
    assert len(runs) == 2 and all(run.tobytes() == first.tobytes() for run in runs)


# ---------------------------------------------------------------------------
# the coefficients: Gamma contracted with the velocity, never formed
# ---------------------------------------------------------------------------


def _coefficient_cases():
    """Connections of every family, by id: Levi-Civita on Walker extensions
    at n = 3..8 and on a dense two-block metric, symbolic ones, and the
    restrictions of a Levi-Civita and of a symbolic connection."""
    rng = np.random.default_rng(97)
    cases = {}
    for r, m in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)]:
        spec = random_extension_spec(rng, r, m)
        g = build_pullback_extension(spec)
        cases[f"levi_civita_n{g.n}"] = christoffel(g)
        if m == 1:
            cases[f"symbolic_base_n{r}"] = spec.base_connection
    dense = random_metric(rng, ChartSplit.two_block(5, 2))
    cases["levi_civita_dense_n5"] = christoffel(dense)
    cases["symbolic_dense_n5"] = SymbolicConnection(5, {
        (l, j, k): dense.component(j, k) * (l - 2.5)
        for l in range(1, 6) for j in range(1, 6) for k in range(j, 6)})
    ext = build_pullback_extension(random_extension_spec(rng, 2, 2))
    V = DistributionSpec.orthocomplement(ext.chart)
    cases["restricted_levi_civita"] = restrict_connection(christoffel(ext), V)
    cases["restricted_symbolic"] = restrict_connection(cases["symbolic_dense_n5"],
                                                       DistributionSpec.null_block(dense.chart))
    return cases


COEFFICIENT_CASES = _coefficient_cases()


@pytest.mark.parametrize("name", COEFFICIENT_CASES)
def test_coefficients_match_the_contraction_of_gamma(name):
    conn = COEFFICIENT_CASES[name]
    curve = random_curve(np.random.default_rng(conn.n), conn.n)
    ts = np.linspace(0.0, 1.0, 41)
    got = transport._coefficients(conn, curve, ts)
    want = loop_coefficients(conn, curve, ts)
    assert got.shape == want.shape == (41, conn.n, conn.n)
    assert np.max(np.abs(want)) > 0.0
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("chart, comps", [
    # structurally Walker, H = [x2], so |det g| = det(C)^2 |x2|; and dense,
    # det g = x2 (1 + x1 - 0.01 x2)
    (ChartSplit.three_block(3, 1), {(1, 1): "1 + x2", (1, 3): 1.0, (2, 2): "x2"}),
    (ChartSplit.two_block(2, 1), {(1, 1): "1 + x1", (1, 2): "0.1*x2", (2, 2): "x2"}),
], ids=["walker", "dense"])
@pytest.mark.parametrize("integrate", [
    parallel_transport, lambda conn, curve, w0: euler_transport(conn, curve, w0, step=1e-3),
], ids=["rk4", "euler"])
def test_transport_refuses_a_metric_singular_on_the_curve(chart, comps, integrate):
    # the curve passes x2 = 0 at the grid point t = 1/2, where |det g| is
    # below the floor
    g = MetricField(chart, comps)
    assert (g._walker_block is not None) == (chart.mode == "three_block")
    parts = ["x1", "x1 - 0.5"] + ["0.3"] * (g.n - 2)
    curve = CurveSpec(tuple(parse_expression(c, 1) for c in parts), (0.0, 1.0), 1e-3)
    with pytest.raises(SingularMetricError, match="metric singular"):
        integrate(christoffel(g), curve, np.ones(g.n))


# ---------------------------------------------------------------------------
# memory: a transport holds its propagators and one block of steps
# ---------------------------------------------------------------------------


def _traced_peak(run) -> int:
    """The traced peak of ``run()``, in bytes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_long_rk4_transport_peaks_near_its_propagators():
    # n = 5 at 20 000 steps is eight blocks of steps: the transport holds its
    # propagators (8 * steps * n^2 bytes) and one block's operands, not the
    # coefficients, stages and a doubling round's product on the whole grid
    # (about 11 times the propagators)
    conn, curve, w0 = extension_problem(101, 2, 1)
    parallel_transport(conn, curve, w0)  # plans the coefficients' contraction
    steps = 20_000
    long = dataclasses.replace(curve, step=1.0 / steps)
    assert len(tensor._point_blocks(steps, conn.n ** 2)) > 1
    peak = _traced_peak(lambda: parallel_transport(conn, long, w0))
    assert peak <= 4 * 8 * steps * conn.n ** 2


def test_long_euler_transport_peaks_at_one_block():
    # 100 000 Euler steps at n = 3 walk 14 blocks of steps; past the grid of
    # times (8 bytes a step) the reference holds one block's factors and
    # coefficients, about six blocks of JET_BLOCK doubles, not all steps' factors
    conn, curve, w0 = extension_problem(103, 1, 1)
    euler_transport(conn, curve, w0, step=0.1)  # plans the coefficients' contraction
    step = 1e-5
    steps = len(curve.grid(step)) - 1
    assert len(tensor._point_blocks(steps, conn.n ** 2)) > 10
    peak = _traced_peak(lambda: euler_transport(conn, curve, w0, step=step))
    assert peak <= 8 * (steps + 1) + 10 * 8 * tensor.JET_BLOCK
