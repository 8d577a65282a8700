"""Christoffel symbols, the Levi-Civita jet, curvature and the metric-compatibility residual."""

import json
import pathlib
import re
import tracemalloc

import numpy as np
import pytest

from walkergeom import (
    ChartSplit,
    DistributionSpec,
    ExtensionSpec,
    cli,
    MetricField,
    build_pullback_extension,
    check_parallel,
    check_projectable,
    CheckResult,
    SingularMetricError,
    ScalarField,
    SymbolicConnection,
    check_null,
    check_walker_form,
    christoffel,
    coordinate,
    curvature_components,
    curvature_condition,
    parse_expression,
    restrict_connection,
    walker_projectability,
)
from walkergeom import tensor
from walkergeom.corpus import (
    random_extension_spec,
    random_metric,
    random_polynomial,
    random_walker_metric,
    walker_from_linear_data,
)
from walkergeom.distributions import WALKER_DET_FLOOR, _reduced, projectability_parts
from walkergeom.expr import evaluate_fields
from walkergeom.sampling import sample_points
from walkergeom.tensor import JET_BLOCK, LeviCivitaConnection
from walkergeom.transport import CurveSpec, parallel_transport

from tensor_oracles import (
    covariant_derivative_metric_residual,
    covariant_derivative_vector,
    lower_curvature,
)


def two_block(n):
    return ChartSplit.two_block(n, 1)


# ---------------------------------------------------------------------------
# christoffel
# ---------------------------------------------------------------------------


def test_christoffel_identity_metric_vanishes():
    g = MetricField(two_block(2), {(1, 1): 1.0, (2, 2): 1.0})
    G = christoffel(g).gamma(np.array([0.3, -0.8]))
    assert np.max(np.abs(G)) == 0.0


def test_christoffel_adapted_two_dim_block():
    # g_11 = -2 c x2, g_12 = 1, g_22 = 0 has Gamma^1_11 = c; hand value via
    # the shortcut 2 Gamma^i_jk = -g^{ai} d_a g_jk with [g^{ai}] = [1]
    c = 0.7
    g = MetricField(
        ChartSplit.three_block(2, 1), {(1, 1): f"-2*{c}*x2", (1, 2): 1.0}
    )
    pts = np.array([[0.1, 0.5], [-0.9, 0.2]])
    G = christoffel(g).gamma(pts)
    assert np.allclose(G[:, 0, 0, 0], c, atol=1e-14)


def test_christoffel_polar_type_metric():
    g = MetricField(two_block(2), {(1, 1): 1.0, (2, 2): "x1^2"})
    G = christoffel(g).gamma(np.array([2.0, 1.3]))
    assert abs(G[0, 1, 1] + 2.0) < 1e-14  # Gamma^1_22 = -x1
    assert abs(G[1, 0, 1] - 0.5) < 1e-14  # Gamma^2_12 = 1/x1


def test_christoffel_raises_on_singular_metric():
    g = MetricField(two_block(2), {(1, 1): "x1", (2, 2): 1.0})
    with pytest.raises(SingularMetricError):
        christoffel(g).gamma(np.array([0.0, 0.0]))


def test_metric_compatibility_for_random_metrics():
    rng = np.random.default_rng(5)
    for _ in range(6):
        n = int(rng.integers(2, 6))
        g = random_metric(rng, two_block(n))
        pts = sample_points(g, 100, seed=int(rng.integers(1 << 30)))
        res = covariant_derivative_metric_residual(g, christoffel(g), pts)
        assert np.max(res) < 1e-10


def test_metric_compatibility_trivial_and_failing_cases():
    g = MetricField(two_block(2), {(1, 1): 1.0, (2, 2): 1.0})
    zero = SymbolicConnection(2)
    assert covariant_derivative_metric_residual(g, zero, np.array([0.4, 0.1])) == 0.0

    g2 = MetricField(two_block(2), {(1, 1): "1 + x2^2", (2, 2): 1.0})
    assert covariant_derivative_metric_residual(g2, zero, np.array([0.0, 1.0])) > 0.0


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


def test_curvature_flat_connection_vanishes():
    flat = SymbolicConnection(3)
    R = curvature_components(flat, np.array([0.1, 0.2, 0.3]))
    assert np.max(np.abs(R)) == 0.0


def test_curvature_antisymmetry_is_exact():
    rng = np.random.default_rng(6)
    g = random_metric(rng, two_block(3))
    pts = sample_points(g, 25, seed=9)
    R = curvature_components(christoffel(g), pts)
    assert np.array_equal(R, -np.swapaxes(R, 1, 2))
    # in particular the i = j components vanish
    idx = np.arange(3)
    assert np.max(np.abs(R[:, idx, idx])) == 0.0


def test_curvature_round_sphere_against_finite_difference_oracle():
    # hand-derived connection of g = diag(1, sin^2 x1):
    #   Gamma^1_22 = -sin x1 cos x1,  Gamma^2_12 = cos x1 / sin x1
    conn = SymbolicConnection(
        2,
        {
            (1, 2, 2): parse_expression("-sin(x1)*cos(x1)", 2),
            (2, 1, 2): parse_expression("cos(x1)/sin(x1)", 2),
        },
    )
    x = np.array([np.pi / 2, 0.4])
    h = 1e-6
    # oracle: centred differences of the hand-derived Gamma in the formula
    G = conn.gamma(x)
    dG = np.empty((2, 2, 2, 2))
    for mu in range(2):
        step = np.zeros(2)
        step[mu] = h
        dG[mu] = (conn.gamma(x + step) - conn.gamma(x - step)) / (2 * h)
    quad = np.einsum("ljp,pik->ijkl", G, G) - np.einsum("lip,pjk->ijkl", G, G)
    oracle = np.einsum("jlik->ijkl", dG) - np.einsum("iljk->ijkl", dG) + quad
    assert abs(oracle[0, 1, 0, 1] - 1.0) < 1e-8  # frozen: R_121^2 = +1 at the pole

    # engine value from the metric itself
    g = MetricField(two_block(2), {(1, 1): 1.0, (2, 2): "sin(x1)^2"})
    R = curvature_components(christoffel(g), x)
    assert abs(R[0, 1, 0, 1] - 1.0) < 1e-12
    assert np.max(np.abs(R - oracle)) < 1e-8


def test_first_bianchi_identity():
    rng = np.random.default_rng(13)
    g = random_metric(rng, two_block(4))
    pts = sample_points(g, 40, seed=3)
    R = curvature_components(christoffel(g), pts)
    cyc = (
        R
        + np.einsum("...jkil->...ijkl", R)
        + np.einsum("...kijl->...ijkl", R)
    )
    assert np.max(np.abs(cyc)) < 1e-10


def test_lower_curvature_levi_civita_symmetries():
    rng = np.random.default_rng(21)
    g = random_walker_metric(rng, 1, 2)
    pts = sample_points(g, 20, seed=4)
    x = pts[:5]
    low = lower_curvature(curvature_components(christoffel(g), x), g.value(x))
    assert low.shape == (5,) + (g.n,) * 4
    assert np.max(np.abs(low + np.einsum("...jikl->...ijkl", low))) < 1e-12
    assert np.max(np.abs(low + np.einsum("...ijlk->...ijkl", low))) < 1e-10
    assert np.max(np.abs(low - np.einsum("...klij->...ijkl", low))) < 1e-10


def test_lower_curvature_flat_metric_vanishes():
    g = MetricField(two_block(2), {(1, 1): 1.0, (2, 2): 1.0})
    x = np.array([0.1, 0.2])
    low = lower_curvature(curvature_components(christoffel(g), x), g.value(x))
    assert np.max(np.abs(low)) == 0.0


# ---------------------------------------------------------------------------
# adapted-form shortcut (leading-block Christoffel symbols)
# ---------------------------------------------------------------------------


def _shortcut_residual(g, pts):
    """|2 Gamma^i_jk + g^{ai} d_a g_jk| via the inverse of the [g_ia] block."""
    chart = g.chart
    r = chart.r
    lead, trail = chart.leading, chart.trailing
    conn = christoffel(g)
    G = conn.gamma(pts)[:, lead, lead, lead]
    dg = g.partial_value(pts)
    gv = g.value(pts)
    block = gv[:, lead, trail]  # [i, a]
    inv = np.linalg.inv(block)  # [a, i]
    shortcut = np.einsum("...ai,...ajk->...ijk", inv, dg[:, trail, lead, lead])
    return np.max(np.abs(2.0 * G + shortcut))


def test_leading_block_shortcut_on_adapted_metrics():
    rng = np.random.default_rng(31)
    for (r, m) in [(1, 0), (1, 1), (2, 0), (2, 2)]:
        g = random_walker_metric(rng, r, m)
        pts = sample_points(g, 50, seed=r * 10 + m)
        assert _shortcut_residual(g, pts) < 1e-10


def test_leading_block_shortcut_under_weaker_hypotheses():
    # only g_ab = g_ap = 0 and d_j g_ia = 0 are needed; g_ia may vary with
    # the middle/trailing coordinates
    chart = ChartSplit.three_block(4, 1)
    g = MetricField(
        chart,
        {
            (1, 1): "x2*x3 + x4^2",
            (1, 2): "0.3*x1",
            (1, 4): "1 + 0.2*x2 + 0.1*x4",
            (2, 2): "1 + 0.1*x1^2",
            (3, 3): 1.0,
        },
    )
    pts = sample_points(g, 50, seed=8)
    assert _shortcut_residual(g, pts) < 1e-10


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def test_covariant_derivative_vector_flat_reduces_to_directional():
    flat = SymbolicConnection(2)
    w = [parse_expression("x1*x2", 2), parse_expression("x2^2", 2)]
    v = [parse_expression("1", 2), parse_expression("0", 2)]
    pts = np.array([[0.5, 2.0]])
    out = covariant_derivative_vector(flat, w, v, pts)
    assert np.allclose(out, [[2.0, 0.0]])


def _slot_oracle(field_at, n, rank, pts):
    """Dense table at ``pts`` evaluated slot by slot, each slot its own field."""
    slots = np.empty((n,) * rank, dtype=object)
    for idx in np.ndindex(*slots.shape):
        slots[idx] = field_at(*(i + 1 for i in idx))
    return evaluate_fields(slots.tolist(), pts)


def test_component_tables_match_per_slot_oracle():
    spec = random_extension_spec(np.random.default_rng(41), 2, 1)
    metrics = [
        build_pullback_extension(spec),
        random_metric(np.random.default_rng(42), two_block(4)),
    ]
    for g in metrics:
        n, comp = g.n, g.component
        pts = sample_points(g, 4, seed=n)
        assert np.array_equal(g.value(pts), _slot_oracle(comp, n, 2, pts))
        assert np.array_equal(g.partial_value(pts), _slot_oracle(
            lambda i, mu, nu: comp(mu, nu).partial(i), n, 3, pts))
        # the table differentiates in ascending direction order
        d2 = _slot_oracle(lambda i, j, mu, nu: comp(mu, nu).partial(min(i, j)).partial(max(i, j)),
                          n, 4, pts)
        assert np.array_equal(g.second_partial_value(pts), d2)
    D, r = spec.base_connection, spec.r
    base_pts = sample_points(metrics[0], 4, seed=1)[:, :r]
    assert np.array_equal(D.gamma(base_pts), _slot_oracle(D.component, r, 3, base_pts))
    assert np.array_equal(D.gamma_partial(base_pts), _slot_oracle(
        lambda mu, l, j, k: D.component(l, j, k).partial(mu), r, 4, base_pts))


def test_metric_rejects_conflicting_symmetric_entries():
    with pytest.raises(ValueError):
        MetricField(two_block(2), {(1, 2): "x1", (2, 1): "x2"})


def test_points_of_the_wrong_width_are_refused():
    # three-block, n = 4, r = 1; the leaf space of the orthocomplement is 1-dimensional,
    # and its Gamma depends on the trailing coordinate x4 unless that is pinned
    g = MetricField(ChartSplit.three_block(4, 1),
                    {(1, 1): "3*x2*x4", (1, 4): 1.0, (2, 2): 1.0, (3, 3): 1.0})
    D = SymbolicConnection(2, {(1, 1, 1): "x1*x2"})
    conn = christoffel(g)
    leaf = restrict_connection(christoffel(g), DistributionSpec.orthocomplement(g.chart))
    pts = np.random.default_rng(44).uniform(-1, 1, (5, 5))
    jet = conn.gamma(pts[:, :4])
    for f, n in [(g.value, 4), (D.gamma, 2), (conn.gamma, 4), (leaf.gamma, 1)]:
        assert f(pts[:, :n]).shape[0] == 5
        for x in (pts[:, :n - 1], pts[:, :n + 1], pts[0, :n + 1]):
            with pytest.raises(ValueError, match=rf"\(\.\.\., {n}\)"):
                f(x)
    assert conn.gamma(pts[:, :4]) is jet  # a refused call keeps the jet


def test_empty_point_batch_is_refused():
    g = MetricField(two_block(5), {(1, 1): "2 + x1*x5", (2, 2): 1.0, (3, 3): 1.0,
                                   (4, 4): 1.0, (5, 5): 1.0})
    conn = christoffel(g)
    for f in (g.value, conn.gamma, conn.gamma_partial):
        for x in (np.empty((0, 5)), np.empty((3, 0, 5))):
            message = f"at least one point, got shape {x.shape}"
            with pytest.raises(ValueError, match=re.escape(message)):
                f(x)


# ---------------------------------------------------------------------------
# the block inverse of structurally Walker metrics
# ---------------------------------------------------------------------------


def _walker_metrics():
    """Corpus extensions (m = 0 among them), their built metric forms read
    back from the problem file text, and random Walker metrics."""
    rng = np.random.default_rng(47)
    out = []
    for r, m in [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 2)]:
        ext = random_extension_spec(rng, r, m)
        spec = cli.ProblemSpec(kind="extension", path="", checks=[], extension=ext)
        problem = cli.build_components(spec)
        out += [pytest.param(build_pullback_extension(ext), id=f"ext_r{r}m{m}"),
                pytest.param(cli._load_metric({k: v for k, v in problem.items() if k != "checks"}),
                             id=f"metric_form_r{r}m{m}"),
                pytest.param(random_walker_metric(rng, r, m), id=f"walker_r{r}m{m}")]
    return out


@pytest.mark.parametrize("g", _walker_metrics())
def test_block_inverse_matches_the_dense_inverse(g):
    assert g._walker_block is not None
    x = sample_points(g, 50, seed=g.n)
    for pts in (x, x[7], x[:12].reshape(3, 4, g.n)):
        got, dense = g.inverse_value(pts), np.linalg.inv(g.value(pts))
        assert got.shape == dense.shape
        assert np.max(np.abs(got - dense)) <= 1e-13 * np.max(np.abs(dense))
        # the leading rows are [0, 0, C^{-T}] exactly
        r = g.chart.r
        c_inv_t = np.linalg.inv(g.value(x[0])[:r, -r:]).T
        assert np.all(got[..., :r, :-r] == 0.0)
        assert np.array_equal(got[..., :r, -r:], np.broadcast_to(c_inv_t, got[..., :r, -r:].shape))


def _scaled_extension(scale):
    """ROADMAP false FAIL #1: the D and lambda of
    random_extension_spec(default_rng(5), 2, 1) times ``scale``."""
    ext = random_extension_spec(np.random.default_rng(5), 2, 1)
    D = ext.base_connection
    conn = {key: scale * f for key, f in D._comps.items() if not f.is_zero}
    lam = {key: scale * f for key, f in ext.lam.items() if not f.is_zero}
    return ExtensionSpec(r=2, m=1, base_connection=SymbolicConnection(2, conn), lam=lam,
                         g_ia=ext.g_ia)


@pytest.mark.parametrize("scale", [1.0, 3e4, 1e6, 1e9])
def test_extension_zero_families_are_exactly_zero_at_every_scale(scale):
    # the dense inverse left rounding-level entries where g^{-1} has zeros,
    # 1.76e-8 (a FAIL at 1e-8) on projectable at 1e6 and 7.7e-6 at 1e9
    g = build_pullback_extension(_scaled_extension(scale))
    pts = sample_points(g, 100, seed=42)
    conn = christoffel(g)
    null, ortho = DistributionSpec.null_block(g.chart), DistributionSpec.orthocomplement(g.chart)
    rows = [check_parallel(conn, null, pts), curvature_condition(conn, ortho, pts)]
    rows += [check_projectable(conn, dist, pts) for dist in (null, ortho)]
    assert [row.residual for row in rows] == [0.0] * 4


_DENSE_METRICS = [
    # a two-block chart
    pytest.param({(1, 1): "2 + x1*x3", (1, 3): 1.0, (2, 2): 1.0}, ChartSplit.two_block(3, 1),
                 id="two_block"),
    # a g_ia that varies
    pytest.param({(1, 1): "x2", (1, 3): "1 + 0.1*x1", (2, 2): 1.0},
                 ChartSplit.three_block(3, 1), id="varying_g_ia"),
    # a nonzero g_ab
    pytest.param({(1, 1): "x2", (1, 3): 1.0, (2, 2): 1.0, (3, 3): "0.1*x1"},
                 ChartSplit.three_block(3, 1), id="g_ab"),
    # a nonzero g_ap
    pytest.param({(1, 1): "x2", (1, 3): 1.0, (2, 2): 1.0, (2, 3): 0.5},
                 ChartSplit.three_block(3, 1), id="g_ap"),
]


@pytest.mark.parametrize("components, chart", _DENSE_METRICS)
def test_other_metrics_keep_the_dense_inverse(components, chart):
    g = MetricField(chart, components)
    assert g._walker_block is None
    x = np.random.default_rng(3).uniform(-0.5, 0.5, (20, g.n))
    assert np.array_equal(g.inverse_value(x), np.linalg.inv(g.value(x)))


def _solve_metrics():
    dense = [pytest.param(MetricField(chart, components), id=f"dense_{param.id}")
             for param in _DENSE_METRICS for components, chart in [param.values]]
    return _walker_metrics() + dense


@pytest.mark.parametrize("g", _solve_metrics())
def test_solve_matches_a_dense_solve(g, monkeypatch):
    rng = np.random.default_rng(g.n)
    x = sample_points(g, 30, seed=g.n)
    cases = []
    for pts in (x, x[7], x[:6].reshape(2, 3, g.n)):
        for width in (1, g.n):
            rhs = rng.uniform(-1.0, 1.0, pts.shape[:-1] + (g.n, width))
            cases.append((pts, rhs, np.linalg.solve(g.value(pts), rhs)))
    if g._walker_block is not None:
        # a Walker solve reads the slot blocks A, B and H, never all of g
        monkeypatch.setattr(MetricField, "value", lambda self, x: pytest.fail("g evaluated"))
    for pts, rhs, want in cases:
        got = g._solve(pts, rhs)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_a_singular_constant_block_is_refused_by_the_dense_path():
    g = MetricField(ChartSplit.three_block(4, 2), {
        (1, 1): 1.0, (2, 2): "2 + x1", (1, 3): 1.0, (1, 4): 1.0, (2, 3): 1.0, (2, 4): 1.0})
    assert g._walker_block is None
    with pytest.raises(SingularMetricError):
        g.inverse_value(np.zeros((2, 4)))


def test_block_inverse_reads_the_determinant_floor_from_c_and_h():
    # |det g| = det(C)^2 |det H|: det H = x2 vanishes at the second point,
    # and at C = 1e-4, H = 1e-5 the product 1e-13 is below the floor
    g = MetricField(ChartSplit.three_block(3, 1), {(1, 1): "x1", (1, 3): 1.0, (2, 2): "x2"})
    assert g._walker_block is not None
    x = np.array([[0.3, 0.5, 0.2], [0.3, 0.0, 0.5]])
    message = "metric singular (|det| < 1e-12) at point [0.3, 0.0, 0.5]"
    with pytest.raises(SingularMetricError, match=re.escape(message)):
        g.inverse_value(x)
    with pytest.raises(SingularMetricError, match=re.escape(message)):
        christoffel(g).gamma(x)
    # structurally zero families are decided without g^{-1}, so their rows
    # read 0.0 at the singular point
    null = DistributionSpec.null_block(g.chart)
    for check in (check_parallel, check_projectable, curvature_condition):
        assert check(christoffel(g), null, x).residual == 0.0
    tiny = MetricField(ChartSplit.three_block(3, 1), {(1, 1): "x1", (1, 3): 1e-4, (2, 2): 1e-5})
    assert tiny._walker_block is not None
    with pytest.raises(SingularMetricError):
        tiny.inverse_value(x[:1])


def test_block_solve_reads_the_determinant_floor_from_c_and_h():
    # the metric above: det H = x2, which vanishes at the second point and,
    # on the curve x(t) = (0.3, t - 0.5, 0.5), at the grid time t = 0.5
    g = MetricField(ChartSplit.three_block(3, 1), {(1, 1): "x1", (1, 3): 1.0, (2, 2): "x2"})
    x = np.array([[0.3, 0.5, 0.2], [0.3, 0.0, 0.5]])
    message = "metric singular (|det| < 1e-12) at point [0.3, 0.0, 0.5]"
    with pytest.raises(SingularMetricError, match=re.escape(message)):
        christoffel(g).gamma_along(x, np.ones_like(x))
    curve = CurveSpec(("0.3", "x1 - 0.5", "0.5"), step=0.25)
    with pytest.raises(SingularMetricError, match=re.escape(message)):
        parallel_transport(christoffel(g), curve, [1.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# the Levi-Civita jet
# ---------------------------------------------------------------------------


def _jet_metrics():
    rng = np.random.default_rng(43)
    metrics = [build_pullback_extension(random_extension_spec(rng, r, m))
               for r, m in [(1, 1), (2, 2), (3, 2)]]
    return metrics + [random_metric(rng, ChartSplit.two_block(5, 2))]


def _not_structurally_walker(g):
    """``g`` with its first g_ia written as itself + x1 - x1: equal at every
    point, but not structurally Walker, so g^{-1} is dense and no family
    that a check suite reduces is structurally zero: the suite's checks
    build and read the numeric jet."""
    n, key = g.n, (1, g.n - g.chart.trailing_size + 1)
    comps = dict(g._comps)
    comps[key] = comps[key] + coordinate(1, n) - coordinate(1, n)
    out = MetricField(g.chart, comps)
    assert g._walker_block is not None and out._walker_block is None
    return out


def _einsum_gamma_partial(g, x):
    """d Gamma by the three-operand einsum formula, term for term."""
    ginv, dg, d2g = g.inverse_value(x), g.partial_value(x), g.second_partial_value(x)
    low = 0.5 * (np.einsum("...jmk->...mjk", dg) + np.einsum("...kjm->...mjk", dg) - dg)
    dlow = 0.5 * (np.einsum("...ujmk->...umjk", d2g) + np.einsum("...ukjm->...umjk", d2g) - d2g)
    dginv = -np.einsum("...ls,...ust,...tm->...ulm", ginv, dg, ginv)
    return (np.einsum("...ulm,...mjk->...uljk", dginv, low)
            + np.einsum("...lm,...umjk->...uljk", ginv, dlow))


def _finite_difference_gamma_partial(conn, x, h=1e-5):
    """Central differences of Gamma in each coordinate direction."""
    steps = h * np.eye(conn.n)
    return np.stack([(conn.gamma(x + e) - conn.gamma(x - e)) / (2 * h) for e in steps], axis=-4)


def _relative_error(value, reference):
    return np.max(np.abs(value - reference)) / np.max(np.abs(reference))


@pytest.mark.parametrize("g", _jet_metrics(), ids=["ext11", "ext22", "ext32", "two_block"])
def test_gamma_partial_matches_einsum_and_finite_difference_oracles(g):
    pts = sample_points(g, 12, seed=g.n)
    for x in (pts, pts[5]):
        dG = christoffel(g).gamma_partial(x)
        assert dG.shape == x.shape[:-1] + (g.n,) * 4
        assert _relative_error(dG, _einsum_gamma_partial(g, x)) <= 1e-12
        assert _relative_error(dG, _finite_difference_gamma_partial(christoffel(g), x)) <= 1e-6


def test_jet_is_matched_by_value_not_identity():
    g = _jet_metrics()[1]
    a = sample_points(g, 10, seed=1)
    b = sample_points(g, 10, seed=2)
    conn = christoffel(g)

    def fresh(x):
        other = christoffel(g)
        return other.gamma(x), other.gamma_partial(x)

    x = a.copy()
    conn.gamma_partial(x)
    x[3, 1] += 0.25  # in place: same object, new values
    for got, want in zip((conn.gamma(x), conn.gamma_partial(x)), fresh(x)):
        assert np.array_equal(got, want)
    for pts in (a, b, a):
        for got, want in zip((conn.gamma(pts), conn.gamma_partial(pts)), fresh(pts)):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("g", _jet_metrics(), ids=["ext11", "ext22", "ext32", "two_block"])
def test_first_kind_lowering_matches_dense_terms(g):
    pts = sample_points(g, 7, seed=g.n)
    for x in (pts, pts[2], pts.reshape(7, 1, g.n)):
        for order, dense in ((1, g.partial_value(x)), (2, g.second_partial_value(x))):
            # Gamma_{m,jk} = (1/2)((d_j g_mk + d_k g_jm) - d_m g_jk), term order kept
            want = 0.5 * ((np.einsum("...jmk->...mjk", dense) + np.einsum("...kjm->...mjk", dense))
                          - dense)
            v = g._field_values(order, x)
            w = g._first_kind_sums(order, v, g._triple_table(order)[0])
            assert np.array_equal(np.take(v, g._table(order)[1], axis=-1), dense)
            low = np.take(w, g._triple_table(order)[1], axis=-1)
            assert np.array_equal(low, want)


def _curvature_cases():
    """The jet metrics and one Walker metric, each with its null block and,
    on a three-block chart, its orthocomplement."""
    metrics = _jet_metrics() + [random_walker_metric(np.random.default_rng(44), 2, 1)]
    cases = []
    for g in metrics:
        cases.append((g, DistributionSpec.null_block(g.chart)))
        if g.chart.mode == "three_block":
            cases.append((g, DistributionSpec.orthocomplement(g.chart)))
    return cases


CURVATURE_CASES = _curvature_cases()


@pytest.mark.parametrize("g, dist", CURVATURE_CASES,
                         ids=[f"{g.chart.mode}_n{g.n}_s{d.s}" for g, d in CURVATURE_CASES])
def test_curvature_block_matches_full_curvature(g, dist):
    pts = sample_points(g, 12, seed=g.n)
    conn = christoffel(g)
    R = curvature_components(conn, pts)
    scale = 1e-14 * np.max(np.abs(R))
    want = R[..., dist.trailing, :, :, dist.leading]
    gamma, gamma_partial = conn.gamma(pts).copy(), conn.gamma_partial(pts).copy()
    block = _curvature_block(gamma, gamma_partial, dist)
    assert block.shape == want.shape
    assert np.max(np.abs(block - want)) <= scale
    expected = _reduced("curvature_condition", pts, want)
    for _ in range(2):
        row = curvature_condition(conn, dist, pts)
        assert abs(row.residual - expected.residual) <= scale
        assert np.array_equal(row.worst_point, expected.worst_point)
    for got, before in ((conn.gamma(pts), gamma), (conn.gamma_partial(pts), gamma_partial)):
        assert np.array_equal(got, before)


def _unblocked_jet(g, x):
    """Gamma and d Gamma over all points at once, from the dense first and
    second partials, with the jet's operands and term order."""
    n = g.n
    ginv, dg, d2g = g.inverse_value(x), g.partial_value(x), g.second_partial_value(x)
    low = 0.5 * ((np.einsum("...jmk->...mjk", dg) + np.einsum("...kjm->...mjk", dg)) - dg)
    dlow = 0.5 * ((np.einsum("...ujmk->...umjk", d2g) + np.einsum("...ukjm->...umjk", d2g)) - d2g)
    gamma = np.matmul(ginv, low.reshape(low.shape[:-2] + (n * n,))).reshape(low.shape)
    ginv = ginv[..., None, :, :]
    out = np.matmul(ginv, dlow.reshape(dlow.shape[:-2] + (n * n,)))
    dginv = -np.matmul(np.matmul(ginv, dg), ginv)
    out += np.matmul(dginv, low.reshape(low.shape[:-3] + (1, n, n * n)))
    return gamma, out.reshape(out.shape[:-1] + (n, n))


def _curvature_block(G, dG, dist):
    """R_{a mu nu}{}^i (a trailing, i leading), ``[..., a, mu, nu, i]``, over
    all points at once from the dense Gamma and d Gamma, by the four-term
    formula of ``curvature_condition`` with its operands and term order."""
    lead, trail, n, s = dist.leading, dist.trailing, dist.n, dist.s
    base, r = G.shape[:-3], n - s
    right = np.ascontiguousarray(np.einsum("...pav->...apv", G[..., trail, :]))
    block = np.matmul(G[..., lead, :, :].reshape(base + (1, r * n, n)), right)
    left = np.einsum("...iap->...aip", G[..., lead, trail, :]).reshape(base + (s * r, n))
    block -= np.matmul(left, G.reshape(base + (n, n * n))).reshape(block.shape)
    block = block.reshape(base + (s, r, n, n))
    block += np.einsum("...miav->...aimv", dG[..., lead, trail, :])
    block -= dG[..., trail, lead, :, :]
    return np.einsum("...aimv->...amvi", block)


# g^{-1} overflows to an infinite entry, so d Gamma holds NaN where the
# dense products meet it; sample_points (|det g| >= 1e-6) would refuse its points
INFINITE_INVERSE = MetricField(ChartSplit.two_block(3, 1), {
    (1, 1): "1e300*(2 + x2)", (2, 2): "1e-311*(2 + x1)", (3, 3): 1.0})
# two_block (random_metric) stores every lower pair, with no all-zero column
BLOCK_METRICS = (_jet_metrics()[1:] + [random_walker_metric(np.random.default_rng(45), 2, 1)]
                 + [INFINITE_INVERSE])


def _numeric_row(name, x, family, nan_edge):
    """The row of a numeric ``family``.  With ``nan_edge`` the family is
    structurally zero but reads inf*0 = NaN numerically, and its row reads
    0.0 at the first point instead: a structurally zero family is never
    evaluated."""
    if nan_edge:
        assert np.all(np.isnan(family))
        family = np.zeros(x.shape[:-1])
    return _reduced(name, x, family)


def _same_row(got, want) -> bool:
    """Equal rows, the residual to its bits (repr keeps the sign of zero)."""
    return (got.name == want.name and repr(got.residual) == repr(want.residual)
            and np.array_equal(got.worst_point, want.worst_point))


def _symbolic_connection(g):
    """A SymbolicConnection with Gamma^1_{jk} = x_1 g_{jk}, other components zero."""
    n = g.n
    return SymbolicConnection(n, {(1, j, k): coordinate(1, n) * g.component(j, k)
                                  for j in range(1, n + 1) for k in range(j, n + 1)})


def _row_reads_match(conn, x, blocks, step, equal_nan) -> bool:
    """Each slot block read ``step`` points at a time is the whole read's rows."""
    count = x.size // x.shape[-1]
    for block in blocks:
        whole = conn.gamma_partial(x, block)
        whole = whole.reshape((count,) + whole.shape[x.ndim - 1:])
        for start in range(0, count, step):
            rows = slice(start, start + step)
            got = conn.gamma_partial(x, block, rows)
            if got.shape != whole[rows].shape or not np.array_equal(
                    got, whole[rows], equal_nan=equal_nan):
                return False
    return True


@pytest.mark.parametrize("g", BLOCK_METRICS,
                         ids=["ext22", "ext32", "two_block", "walker", "infinite_inverse"])
def test_blocked_jet_matches_unblocked_formulas(g):
    # N = 1, B - 1, B, B + 1 and 3B + 5 points for the block sizes B of d Gamma
    # and of Gamma, a single point and (2, B + 1, n) batches: every block
    # boundary gives the bits of the formulas over all points at once, and a
    # read of B rows at a time gives the rows of the whole read.  The rows'
    # families are structurally zero on INFINITE_INVERSE, which its checks
    # read as 0.0 where its jet reads NaN
    n = g.n
    dists = [DistributionSpec.null_block(g.chart)]
    if g.chart.mode == "three_block":
        dists.append(DistributionSpec.orthocomplement(g.chart))
    sizes = [max(1, JET_BLOCK // n ** 4), max(1, JET_BLOCK // n ** 3)]
    # the blocks of d_a Gamma^i_{jk} that projectability_parts reduces
    part_sizes = [max(1, JET_BLOCK // (d.s * (n - d.s) ** 3)) for d in dists]
    count = 3 * max(sizes + part_sizes) + 5
    if g is INFINITE_INVERSE:
        pts = np.random.default_rng(n).uniform(-1.0, 1.0, (count, n))
    else:
        pts = sample_points(g, count, seed=n)
    equal_nan = g is INFINITE_INVERSE

    def batches(B):
        return [(pts[:N], B) for N in (1, B - 1, B, B + 1, 3 * B + 5) if N > 0] + [
            (pts[:2 * B + 2].reshape(2, B + 1, n), B)]

    symbolic = _symbolic_connection(g)
    # at the part sizes, against the whole-block reads of the jet (checked
    # against the formulas below) and with every connection read by rows
    for dist, B in zip(dists, part_sizes):
        lead, trail = dist.leading, dist.trailing
        block = (trail, lead, lead, lead)
        for x, step in batches(B):
            conn = christoffel(g)
            with np.errstate(all="ignore"):
                parts = projectability_parts(conn, dist, x)
            wants = [_numeric_row("projectable_parallel_part", x,
                                  conn.gamma(x)[..., lead, trail, :], equal_nan),
                     _numeric_row("projectable_derivative_part", x,
                                  conn.gamma_partial(x, block), equal_nan)]
            assert all(_same_row(got, want) for got, want in zip(parts, wants))
            assert _row_reads_match(conn, x, [block], step, equal_nan)
            assert _row_reads_match(symbolic, x, [block], step, False)
            leaf = restrict_connection(christoffel(g), dist)
            with np.errstate(all="ignore"):
                assert _row_reads_match(leaf, x[..., :leaf.n], [()], step, equal_nan)
    for x, step in [(pts[0], 1)] + batches(sizes[0]) + batches(sizes[1]):
        conn = christoffel(g)
        with np.errstate(all="ignore"):
            G, dG = conn.gamma(x), conn.gamma_partial(x)
            want_G, want_dG = _unblocked_jet(g, x)
        assert np.array_equal(G, want_G, equal_nan=equal_nan)
        assert np.array_equal(dG, want_dG, equal_nan=equal_nan)
        points = (slice(None),) * (x.ndim - 1)
        # reads by rows: from the jet, a symbolic connection and the
        # restriction to each leaf space
        some = (slice(1, None), slice(None, 1))
        assert _row_reads_match(conn, x, [(), some], step, equal_nan)
        assert _row_reads_match(symbolic, x, [(), some], step, False)
        for dist in dists:
            leaf = restrict_connection(christoffel(g), dist)
            with np.errstate(all="ignore"):
                assert _row_reads_match(leaf, x[..., :leaf.n], [(), some], step, equal_nan)
        for dist in dists:
            lead, trail = dist.leading, dist.trailing
            # the slot blocks projectability_parts and curvature_condition read
            blocks = [(trail, lead, lead, lead), (slice(None), lead, trail), (trail, lead)]
            for block in blocks:
                assert np.array_equal(conn.gamma_partial(x, block), want_dG[points + block],
                                      equal_nan=equal_nan)
            assert _row_reads_match(conn, x, blocks, step, equal_nan)
            with np.errstate(all="ignore"):
                want = _numeric_row("curvature_condition", x,
                                    _curvature_block(want_G, want_dG, dist), equal_nan)
                assert _same_row(curvature_condition(conn, dist, x), want)
                parts = projectability_parts(conn, dist, x)
            wants = [_numeric_row("projectable_parallel_part", x, want_G[..., lead, trail, :],
                                  equal_nan),
                     _numeric_row("projectable_derivative_part", x,
                                  want_dG[..., trail, lead, lead, lead], equal_nan)]
            assert all(_same_row(got, want) for got, want in zip(parts, wants))
        if g.chart.mode == "three_block":
            lead, mid, trail = g.chart.leading, g.chart.middle, g.chart.trailing
            d2 = g.second_partial_value(x)
            blocks = [(trail, trail, lead, lead), (trail, mid, lead, lead)]
            for got, block in zip(g._slot_blocks(2, x, *blocks), blocks):
                assert np.array_equal(got, d2[(...,) + block])
            want = _reduced("walker_projectability", x, *(d2[(...,) + b] for b in blocks))
            got = walker_projectability(g, x)
            assert got.residual == want.residual
            assert np.array_equal(got.worst_point, want.worst_point)


def _same_bits(got, want) -> bool:
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _contract_families(g):
    """Each component family on ``g`` as ``(rank, size, read)``:
    ``read(x, block, *rows)`` reads its whole table (``block=()``) or a
    slot block, over ``rank`` slot axes of ``size`` each, at ``x`` (leaf
    points for a restriction); only d Gamma takes ``rows``, and
    ``gamma_along`` (``[l, k]``, along ``cos(x)``) takes no block.  A
    Levi-Civita read is off the jet (a new connection) or on a jet at ``x``
    that holds Gamma; a restriction's parent is shared by its reads."""
    dist = DistributionSpec.null_block(g.chart)
    symbolic = _symbolic_connection(g)
    on_jet = christoffel(g)
    leaves = {"levi_civita": restrict_connection(christoffel(g), dist),
              "symbolic": restrict_connection(symbolic, dist)}
    ranks = {"gamma": 3, "gamma_partial": 4, "gamma_along": 2}

    def call(conn, name, x, block, rows):
        if name == "gamma_along":
            return conn.gamma_along(x, np.cos(x))
        return getattr(conn, name)(x, block, *rows)

    def on_jet_read(name):
        def read(x, block, *rows):
            on_jet.gamma(x)
            return call(on_jet, name, x, block, rows)
        return read

    def connection(conn_of, name, size=g.n):
        return ranks[name], size, lambda x, block, *rows: call(conn_of(), name, x, block, rows)

    families = {
        "metric": (2, g.n, lambda x, block: (
            g._slot_blocks(0, x, block)[0] if len(block) else g.value(x))),
        "metric_partial": (3, g.n, lambda x, block: g._slot_blocks(1, x, block)[0]),
        "metric_second_partial": (4, g.n, lambda x, block: g._slot_blocks(2, x, block)[0]),
    }
    for name in ranks:
        families[f"symbolic_{name}"] = connection(lambda: symbolic, name)
        families[f"levi_civita_{name}_off_jet"] = connection(lambda: christoffel(g), name)
        families[f"levi_civita_{name}_on_jet"] = (ranks[name], g.n, on_jet_read(name))
        for parent, leaf in leaves.items():
            families[f"restricted_{parent}_{name}"] = connection(
                lambda leaf=leaf: leaf, name, leaf.n)
    return families


# a Walker extension (its leaf blocks read off the constant rows of g^{-1})
# and a two-block metric (dense g^{-1})
CONTRACT_METRICS = dict(zip(["ext22", "two_block"], _jet_metrics()[1::2]))
CONTRACT_CASES = [(m, f) for m in CONTRACT_METRICS
                  for f in _contract_families(CONTRACT_METRICS[m])]


@pytest.mark.parametrize("metric, family", CONTRACT_CASES,
                         ids=[f"{m}-{f}" for m, f in CONTRACT_CASES])
def test_every_family_read_keeps_the_read_contract(metric, family):
    # every read is read-only and C-contiguous with the point axes first; a
    # slot block (ints, negative ones too, and slices, negative steps and
    # empty ones too, as a tuple or a list, missing axes all of it) is a new
    # array bitwise equal to the same slice of the whole read, also read by
    # rows; a block with more axes than the family has raises IndexError.
    # The contraction along a vector takes no block
    g = CONTRACT_METRICS[metric]
    rank, size, read = _contract_families(g)[family]
    pts = sample_points(g, 12, seed=5)[:, :size]
    blocks = [(), (0,), (-1,), [0], [slice(None), 1], (slice(None, None, -1), slice(1, None)),
              (slice(1, None), slice(None, 2)), (slice(None), -2),
              (slice(None), slice(-size - 1, None, -1)), tuple(i % size for i in range(rank))]

    def held_to_contract(got, want, shape):
        assert isinstance(got, np.ndarray) and got.shape == shape
        assert got.flags.c_contiguous and not got.flags.writeable
        assert _same_bits(got, np.asarray(want))

    for x in (pts, pts[3], pts[:6].reshape(2, 3, size)):
        points = (slice(None),) * (x.ndim - 1)
        whole = read(x, ())
        if "gamma_along" in family:
            held_to_contract(whole, whole, x.shape[:-1] + (size,) * rank)
            continue
        for block in blocks:
            slots = np.empty((size,) * rank, dtype=bool)[tuple(block)].shape
            got = read(x, block)
            held_to_contract(got, whole[points + tuple(block)], x.shape[:-1] + slots)
            assert len(block) == 0 or not np.shares_memory(got, whole)
            if family.endswith("gamma_partial") and x.ndim > 1:
                rows = slice(1, 4)
                want = whole.reshape((-1,) + whole.shape[x.ndim - 1:])[rows]
                held_to_contract(read(x, block, rows), want[(slice(None),) + tuple(block)],
                                 (3,) + slots)
        for block in [(0,) * (rank + 1), (slice(None),) * (rank + 1)]:
            with pytest.raises(IndexError):
                read(x, block)


@pytest.mark.parametrize("g", BLOCK_METRICS,
                         ids=["ext22", "ext32", "two_block", "walker", "infinite_inverse"])
def test_gamma_block_reads_are_slices_of_the_whole_read(g):
    n = g.n
    if g is INFINITE_INVERSE:
        x = np.random.default_rng(n).uniform(-1.0, 1.0, (40, n))
    else:
        x = sample_points(g, 40, seed=n)
    r = g.chart.trailing_size
    # the leaf blocks (one slot wide among them), a row, a one-column block
    blocks = [(slice(None, n - r),) * 3, (slice(None, 1),) * 3, (slice(None, r),) * 3, (0,),
              (slice(1, None), slice(None, 2)), (n - 1, slice(None), 1)]
    symbolic = _symbolic_connection(g)
    with np.errstate(all="ignore"):
        whole = christoffel(g).gamma(x)
        for block in blocks:
            want = whole[(slice(None),) + block]
            # off the jet, then from a jet that holds Gamma at these points
            conn = christoffel(g)
            assert _same_bits(conn.gamma(x, block), want)
            assert conn._x is None
            conn.gamma(x)
            assert _same_bits(conn.gamma(x, block), want)
            assert _same_bits(symbolic.gamma(x, block), symbolic.gamma(x)[(slice(None),) + block])
            assert _same_bits(conn.gamma(x[3], block), whole[3][block])
        dists = [DistributionSpec.null_block(g.chart)]
        if g.chart.mode == "three_block":
            dists.append(DistributionSpec.orthocomplement(g.chart))
        for dist in dists:
            leaf = restrict_connection(christoffel(g), dist)
            y = x[:, :leaf.n]
            padded = np.concatenate([y, np.zeros((len(y), dist.s))], axis=1)
            want = christoffel(g).gamma(padded)[:, :leaf.n, :leaf.n, :leaf.n]
            assert _same_bits(leaf.gamma(y), want)
            for block in [(0,), (slice(1, None), slice(None, 1))]:
                assert _same_bits(leaf.gamma(y, block), want[(slice(None),) + block])


def _one_nan(a: np.ndarray) -> np.ndarray:
    return np.where(np.isnan(a), np.nan, a)


@pytest.mark.parametrize("g", BLOCK_METRICS,
                         ids=["ext22", "ext32", "two_block", "walker", "infinite_inverse"])
def test_one_column_d_gamma_reads_are_slices_of_the_whole_read(g):
    # numpy hands a one-column product to GEMV, which sums in another order
    # than the GEMM of the whole read; integer slots drop their axes.  IEEE
    # 754 leaves the sign of a NaN unspecified, and two reads that form one
    # entry may differ in it, so every NaN is read as one NaN
    n = g.n
    if g is INFINITE_INVERSE:
        x = np.random.default_rng(n).uniform(-1.0, 1.0, (40, n))
    else:
        x = sample_points(g, 40, seed=n)
    blocks = [(0, 1, 2, n - 1), (slice(None), 1, 2, 0), (n - 1, slice(None), 1, 1),
              (slice(None), slice(None), 0, 0)]
    conn = christoffel(g)
    with np.errstate(all="ignore"):
        whole = conn.gamma_partial(x)
        for block in blocks:
            want = _one_nan(whole[(slice(None),) + block])
            assert _same_bits(_one_nan(conn.gamma_partial(x, block)), want)
            for rows in (slice(0, 7), slice(7, None)):
                assert _same_bits(_one_nan(conn.gamma_partial(x, block, rows)), want[rows])


def _jet_arrays(conn) -> tuple:
    """The arrays a Levi-Civita jet holds."""
    return conn._x, conn._ginv, conn._fields.get(1), conn._fields.get(2), conn._gamma


def test_gamma_block_read_off_the_jet_leaves_the_jet():
    # the extension reads its leading rows off the constant rows of g^{-1};
    # written not structurally Walker, g^{-1} has no constant rows and a
    # block elsewhere is read from a jet of its own (g^{-1} and the order-1
    # field values at those points).  Either way this jet stays as it is and
    # the block has a fresh connection's bits
    for g in (_jet_metrics()[2], _not_structurally_walker(_jet_metrics()[2])):
        x, y = sample_points(g, 30, seed=1), sample_points(g, 30, seed=2)
        block = (slice(None, 3),) * 3
        conn = christoffel(g)
        conn.gamma_partial(x)
        # on the jet's points, before Gamma: the jet's g^{-1} and order-1 values
        jet = _jet_arrays(conn)
        assert _same_bits(conn.gamma(x, block), christoffel(g).gamma(x)[:, :3, :3, :3])
        assert all(a is b for a, b in zip(_jet_arrays(conn), jet))
        G = conn.gamma(x)
        jet = _jet_arrays(conn)
        assert jet[-1] is G and all(a is not None for a in jet)
        for other in [block, (slice(3, None), 1), (g.n - 1,)]:
            got = conn.gamma(y, other)
            assert all(a is b for a, b in zip(_jet_arrays(conn), jet))
            assert _same_bits(got, christoffel(g).gamma(y, other))
            assert _same_bits(got, christoffel(g).gamma(y)[(slice(None),) + other])
        assert conn.gamma(x) is G
        conn.gamma_partial(x)
        assert all(a is b for a, b in zip(_jet_arrays(conn), jet))


def test_point_block_reads_compare_each_point_once(monkeypatch):
    # curvature_condition reads two slot blocks of d Gamma per point block
    # (250 reads at n = 8, N = 2000); a read compares only its own rows with
    # the jet's points; on an r = 3, m = 2 extension that is not structurally
    # Walker, so that its curvature condition reads d Gamma
    g = _not_structurally_walker(_jet_metrics()[2])
    n = g.n
    x = sample_points(g, 3 * max(1, JET_BLOCK // n ** 4) + 5, seed=3)
    dist = DistributionSpec.orthocomplement(g.chart)
    conn = christoffel(g)
    compared = []
    array_equal = np.array_equal
    monkeypatch.setattr(np, "array_equal", lambda a, b, **kw: compared.append(np.size(a))
                        or array_equal(a, b, **kw))
    first = curvature_condition(conn, dist, x)
    assert sum(compared) <= 2 * x.size
    compared.clear()
    again = curvature_condition(conn, dist, x)
    # Gamma's full comparison, then each point once per slot block
    assert sum(compared) == 3 * x.size
    assert _same_row(again, first)
    # points changed in place within a read's rows start a new jet
    monkeypatch.undo()
    x[1, 0] += 0.25
    jet = _jet_arrays(conn)
    got = conn.gamma_partial(x, (dist.trailing, dist.leading), slice(0, 2))
    assert not any(a is b for a, b in zip(_jet_arrays(conn), jet))
    assert np.array_equal(got, christoffel(g).gamma_partial(x, (dist.trailing, dist.leading))[:2])


@pytest.mark.parametrize("checks", [
    None,
    # projected_connection evaluates Gamma at the padded base points in between
    ["parallel", "projected_connection", "projectable", "curvature_condition"],
], ids=["default", "custom"])
def test_default_extension_suite_shares_one_jet(tmp_path, monkeypatch, checks):
    # d Gamma is lowered from the order-2 fields without laying out d^2 g, so
    # its builds are counted at the evaluations of those fields and at the
    # first-kind lowerings, which form the order-2 sums one point block at a time.
    # The suite runs on the built metric written not structurally Walker, so
    # that its checks read the jet rather than deciding by slot patterns
    metric = cli._metric
    monkeypatch.setattr(cli, "_metric", lambda spec: _not_structurally_walker(metric(spec)))
    calls = {"inverse_value": 0, "second_partial_value": 0}
    evaluated = []  # (order, points, values) of every evaluation of a table's fields
    lowered = []  # (order, values) of every first-kind lowering
    for name in (*calls, "_field_values", "_first_kind_sums"):
        original = getattr(MetricField, name)

        def counted(self, *args, _original=original, _name=name, **kwargs):
            out = _original(self, *args, **kwargs)
            if _name == "_field_values":
                evaluated.append((args[0], np.asarray(args[1]).tobytes(), out))
            elif _name == "_first_kind_sums":
                lowered.append(args)
            else:
                calls[_name] += 1
            return out

        monkeypatch.setattr(MetricField, name, counted)
    problem = {"kind": "extension", "r": 2, "m": 1, "D_1_1_2": "x1*x2",
               "lambda_1_3": "x2*x3", "h_3_3": "2 + x1^2", "samples": 30}
    if checks is not None:
        problem["checks"] = checks
    path = tmp_path / "extension.json"
    path.write_text(json.dumps(problem))
    report = cli.run_checks(cli.load_spec(str(path)))
    assert report.verdict
    # the sample points, then the base points of projected_connection
    assert calls["inverse_value"] <= 2
    assert calls["second_partial_value"] <= 2
    # one evaluation of the order-2 fields, on the sample points, and one of
    # the order-1 fields on each point set, shared by Gamma and d Gamma
    ((sample, v2),) = [(x, v) for order, x, v in evaluated if order == 2]
    order1 = {x: v for order, x, v in evaluated if order == 1}
    assert len(order1) == 2 == len([order for order, _, _ in evaluated if order == 1])
    assert sample in order1
    # every order-1 lowering reads rows of its point set's one order-1
    # evaluation, and every order-2 lowering rows of the one order-2 evaluation
    order1_lowered = [values for order, values in lowered if order == 1]
    assert order1_lowered and all(any(np.shares_memory(values, v) for v in order1.values())
                                  for values in order1_lowered)
    order2 = [values for order, values in lowered if order == 2]
    assert order2 and all(np.shares_memory(values, v2) for values in order2)


# the jet of a design that stored d Gamma, at n = 8 and N = 2000: Gamma, 25
# lower-pair columns of d Gamma and g^{-1}, 34.8 MB
STORED_JET_BYTES = 8 * 2000 * (8 ** 3 + 8 ** 2 * 25 + 8 ** 2)


def _suite_peak(spec) -> tuple:
    """The traced peak of a check suite and its jet's bytes (Gamma, g^{-1}
    and the order-1 and order-2 field values); the suite must pass."""
    g = cli._metric(spec)
    tracemalloc.start()
    try:
        report = cli.run_checks(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.verdict
    # the ceiling that the stored design was held to
    assert peak <= 1.25 * STORED_JET_BYTES
    n, fields = g.n, len(g._table(1)[0]) + len(g._table(2)[0])
    return peak, 8 * spec.samples * (n ** 3 + n * n + fields)


def test_extension_suite_peaks_at_its_jet(monkeypatch):
    # the metric-form suite below plus the extension rows: projected_connection
    # reads its leaf block of Gamma off the jet instead of a second full Gamma.
    # The built metric is written not structurally Walker, so that the suite
    # builds its jet
    metric = cli._metric
    monkeypatch.setattr(cli, "_metric", lambda spec: _not_structurally_walker(metric(spec)))
    ext = random_extension_spec(np.random.default_rng(7), 3, 2)
    checks = ["null", "parallel", "projectable", "curvature_condition", "projected_connection",
              "vertical_metric", "transformation_rule", "walker_form", "walker_projectability"]
    spec = cli.ProblemSpec(kind="extension", path="", checks=checks, samples=2000, seed=5,
                           extension=ext)
    peak, jet = _suite_peak(spec)
    assert jet <= peak < STORED_JET_BYTES


def test_metric_form_suite_peaks_at_its_jet(tmp_path):
    # an r = 3, m = 2 metric-form suite at 2000 samples (n = 8): every
    # all-point transient of its rows is read one point block at a time, so
    # the suite's peak is the jet it holds (Gamma, g^{-1} and the order-1 and
    # order-2 field values) and not a row's gathers, and is below the jet of
    # a design that stored d Gamma; g_16 is written not structurally Walker, so
    # that the suite builds its jet
    ext = random_extension_spec(np.random.default_rng(7), 3, 2)
    problem = cli.build_components(cli.ProblemSpec(kind="extension", path="", checks=[],
                                                   extension=ext))
    problem["g_1_6"] = f"{problem['g_1_6']} + x1 - x1"
    problem.update(checks=["null", "parallel", "projectable", "curvature_condition",
                           "walker_form", "walker_projectability"], samples=2000, seed=5)
    path = tmp_path / "metric.json"
    path.write_text(json.dumps(problem))
    peak, jet = _suite_peak(cli.load_spec(str(path)))
    assert jet <= peak < STORED_JET_BYTES


# ---------------------------------------------------------------------------
# structural-zero slot patterns
# ---------------------------------------------------------------------------


def _linear_walker(rng, r, m, extra):
    """walker_from_linear_data with B on the leading block, plus x_extra in
    B_111 when ``extra`` (a 1-based coordinate) is given."""
    n, lead = 2 * r + m, range(1, r + 1)
    B = {(a, j, k): random_polynomial(rng, n, variables=lead, scale=0.5)
         for a in lead for j in lead for k in lead if j <= k}
    if extra is not None:
        B[(1, 1, 1)] = B[(1, 1, 1)] + coordinate(extra, n)
    lam = {(j, k): random_polynomial(rng, r + m, scale=0.5) for j in lead for k in lead if j <= k}
    return walker_from_linear_data(r, m, B, lam)


def _pattern_metrics():
    """Extensions and their built metric forms, Walker metrics with B also on
    a trailing and on a middle coordinate, a random Walker metric and a
    two-block random metric."""
    rng = np.random.default_rng(48)
    out = []
    for r, m in [(1, 1), (2, 2), (3, 2)]:
        ext = random_extension_spec(rng, r, m)
        problem = cli.build_components(cli.ProblemSpec(kind="extension", path="", checks=[],
                                                        extension=ext))
        out += [pytest.param(build_pullback_extension(ext), id=f"ext_r{r}m{m}"),
                pytest.param(cli._load_metric({k: v for k, v in problem.items() if k != "checks"}),
                             id=f"metric_form_r{r}m{m}")]
    out += [pytest.param(_linear_walker(rng, 2, 1, None), id="linear_walker"),
            pytest.param(_linear_walker(rng, 2, 1, 5), id="linear_walker_b_trailing"),
            pytest.param(_linear_walker(rng, 2, 1, 3), id="linear_walker_b_middle"),
            pytest.param(random_walker_metric(rng, 2, 1), id="random_walker"),
            pytest.param(random_metric(rng, ChartSplit.two_block(5, 2)), id="two_block")]
    return out


@pytest.mark.parametrize("g", _pattern_metrics())
def test_slot_patterns_are_sound_and_rows_are_unchanged(g):
    x = sample_points(g, 200, seed=g.n)
    conn = christoffel(g)
    G, dG = conn.gamma(x).copy(), conn.gamma_partial(x).copy()
    for pattern, values in ((conn.nonzero(0), G), (conn.nonzero(1), dG)):
        assert pattern.shape == values.shape[1:] and not pattern.flags.writeable
        assert np.all(values[:, ~pattern] == 0.0)
    dists = [DistributionSpec.null_block(g.chart)]
    if g.chart.mode == "three_block":
        dists.append(DistributionSpec.orthocomplement(g.chart))
        # the leaf space's pattern is its parent's leading block
        leaf = restrict_connection(christoffel(g), dists[1])
        assert np.all(leaf.gamma(x[:, :leaf.n])[:, ~leaf.nonzero(0)] == 0.0)
    # each row, decided by its pattern or reduced from the jet, against the
    # same row reduced from the numeric families on a fresh connection
    for dist in dists:
        lead, trail = dist.leading, dist.trailing
        rows = [check_parallel(christoffel(g), dist, x),
                check_projectable(christoffel(g), dist, x),
                curvature_condition(christoffel(g), dist, x)]
        parallel = _reduced("parallel", x, G[:, lead, trail])
        derivative = _reduced("projectable", x, dG[:, trail, lead, lead, lead])
        projectable = parallel if parallel.residual >= derivative.residual else derivative
        wants = [parallel, CheckResult("projectable", projectable.residual, projectable.worst_point),
                 _reduced("curvature_condition", x, _curvature_block(G, dG, dist))]
        assert all(_same_row(got, want) for got, want in zip(rows, wants))


@pytest.mark.parametrize("kind", ["extension", "metric_form"])
def test_extension_suites_decide_their_connection_rows_by_pattern(tmp_path, monkeypatch, kind):
    # the default suite of an extension and of its built metric form reads
    # no d Gamma and no g^{-1} on its sample points: every family of
    # parallel, projectable and curvature_condition is structurally zero
    problem = {"kind": "extension", "r": 2, "m": 1, "D_1_1_2": "x1*x2",
               "lambda_1_3": "x2*x3", "h_3_3": "2 + x1^2", "samples": 30}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    if kind == "metric_form":
        path.write_text(json.dumps(cli.build_components(cli.load_spec(str(path)))))
    spec = cli.load_spec(str(path))
    sample = sample_points(cli._metric(spec), spec.samples, spec.seed)
    calls = []
    for cls, name in ((LeviCivitaConnection, "gamma_partial"), (MetricField, "inverse_value")):
        original = getattr(cls, name)

        def counted(self, x, *args, _original=original, _name=name, **kwargs):
            calls.append((_name, np.shape(x) == sample.shape and np.array_equal(x, sample)))
            return _original(self, x, *args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    report = cli.run_checks(spec)
    assert report.verdict
    assert {"parallel", "curvature_condition"} <= {c.name for c in report.checks}
    assert [name for name, on_sample in calls if on_sample] == []


def test_slot_blocks_evaluate_only_the_fields_they_index(monkeypatch):
    g = _jet_metrics()[2]
    x = sample_points(g, 20, seed=4)
    lead, mid, trail = g.chart.leading, g.chart.middle, g.chart.trailing
    counts = []
    evaluate = tensor.evaluate_fields
    monkeypatch.setattr(tensor, "evaluate_fields",
                        lambda fields, *a, **kw: counts.append(len(fields)) or evaluate(fields, *a, **kw))
    for order, blocks in [(1, [(slice(None), lead, trail), (trail, mid, mid), (trail, mid, lead)]),
                          (2, [(trail, trail, lead, lead), (trail, mid, lead, lead)]),
                          (0, [()])]:
        fields, index = g._table(order)
        want = np.take(g._field_values(order, x), index, axis=-1)
        counts.clear()
        got = g._slot_blocks(order, x, *blocks)
        assert counts == [len(np.unique(np.concatenate([index[b].ravel() for b in blocks])))]
        assert all(_same_bits(a, np.ascontiguousarray(want[(...,) + b]))
                   for a, b in zip(got, blocks))
    # the whole table still evaluates every field
    counts.clear()
    g._values(2, x)
    assert counts == [len(g._table(2)[0])]


def test_compact_keeps_the_positions_held_and_renumbers_each_array():
    rng = np.random.default_rng(5)
    at = [rng.integers(0, 40, (3, 7)), np.array([5, 5, 5, 2]), np.array([], dtype=np.intp),
          np.intp(39)]
    kept, *renumbered = tensor._compact(50, *at)
    # ascending positions, each held by some array, repeats kept once
    assert np.all(np.diff(kept) > 0)
    assert set(kept.tolist()) == set(np.concatenate([np.ravel(a) for a in at]).tolist())
    # each renumbered array maps back to the original positions, shape kept
    for a, b in zip(at, renumbered):
        assert np.shape(b) == np.shape(a) and np.array_equal(kept[b], a)
    assert tensor._compact(4, np.array([], dtype=np.intp))[0].size == 0
    assert np.array_equal(tensor._compact(6, np.array([3, 1, 3]))[1], [1, 0, 1])


# ---------------------------------------------------------------------------
# variable-set slot patterns and the metric rows they decide
# ---------------------------------------------------------------------------


def _is_zero_pattern(g, order):
    """The order's slot pattern read off its table's fields (``is_zero``),
    which builds that table."""
    fields, index = g._table(order)
    return np.array([not f.is_zero for f in fields], dtype=bool)[index]


def _demo_metrics():
    specs = pathlib.Path(__file__).parent.parent / "demos" / "specs"
    return [pytest.param(cli._metric(cli.load_spec(str(path))), id=path.stem)
            for path in sorted(specs.glob("*.json"))]


@pytest.mark.parametrize("g", _pattern_metrics() + _walker_metrics() + _demo_metrics())
def test_variable_set_patterns_equal_the_is_zero_patterns(g):
    got = {order: g._nonzero(order) for order in (0, 1, 2)}
    # no pattern differentiates to order 2
    assert 2 not in g._tables
    for order, pattern in got.items():
        want = _is_zero_pattern(g, order)
        assert pattern.shape == want.shape == (g.n,) * (2 + order)
        # sound: every slot whose field is not the constant 0 is live ...
        assert np.all(pattern[want])
        # ... and on these metrics no other slot is
        assert np.array_equal(pattern, want)


def test_a_variable_that_cancels_stays_live():
    # x1 - x1 holds x1, so d_1 of it is live although it folds to the
    # constant 0: a live slot only has to read its value, which is 0.0
    x1 = coordinate(1, 2)
    g = MetricField(ChartSplit.two_block(2, 1), {(1, 1): x1 * x1 + x1 - x1 + 2, (2, 2): 1.0})
    assert g._nonzero(1)[0, 0, 0] and g._nonzero(2)[0, 0, 0, 0]
    zero = MetricField(ChartSplit.two_block(2, 1), {(1, 1): 1 + x1 - x1, (2, 2): 1.0})
    assert zero._nonzero(1)[0, 0, 0] and not _is_zero_pattern(zero, 1)[0, 0, 0]
    assert zero._values(1, np.full((3, 2), 0.5))[:, 0, 0, 0].tolist() == [0.0] * 3
    # x1 no longer occurs in d_1 of it
    assert not zero._nonzero(2).any()
    # d_1 of x2 (x1 - x1) folds to 0 while d_2 of it holds x1: the order-2
    # table holds d_2 d_1 once for both orders, and its pattern follows that
    x2 = coordinate(2, 2)
    skew = MetricField(ChartSplit.two_block(2, 1), {(1, 1): 2 + x2 * (x1 - x1), (2, 2): 1.0})
    assert skew._nonzero(1)[0, 0, 0] and skew._nonzero(1)[1, 0, 0]
    assert not skew._nonzero(2)[0, 1, 0, 0] and not skew._nonzero(2)[1, 0, 0, 0]
    assert np.array_equal(skew._nonzero(2), _is_zero_pattern(skew, 2))


def test_slot_patterns_are_built_once_read_only_and_contiguous():
    # a slot pattern keeps the read contract: one read-only, C-contiguous
    # array per order, the same object on every call
    g = build_pullback_extension(random_extension_spec(np.random.default_rng(101), 2, 1))
    dist = DistributionSpec.orthocomplement(g.chart)
    symbolic = _symbolic_connection(g)
    patterns = [(g._nonzero, (0, 1, 2)), (symbolic._nonzero, (0, 1, 2))] + [
        (conn.nonzero, (0, 1)) for conn in (
            christoffel(g), symbolic, restrict_connection(christoffel(g), dist),
            restrict_connection(symbolic, dist))]
    for pattern, orders in patterns:
        for order in orders:
            first = pattern(order)
            assert pattern(order) is first
            assert first.flags.c_contiguous and not first.flags.writeable
            with pytest.raises(ValueError):
                first[(0,) * first.ndim] = False


def test_variable_bits_past_sixty_four_coordinates():
    n = 70
    fields = [coordinate(1, n) * coordinate(64, n), coordinate(65, n) + coordinate(70, n),
              ScalarField.constant(2.0, n)]
    bits = tensor._var_bits(fields, n)
    assert bits.shape == (3, n) and bits.dtype == bool
    assert [np.flatnonzero(b).tolist() for b in bits] == [[0, 63], [64, 69], []]


def _walker_rows(g, x):
    """null, walker_form and walker_projectability reduced from whole reads
    of g, dg and d^2 g."""
    lead, mid, trail = g.chart.leading, g.chart.middle, g.chart.trailing
    gv, dg, d2g = g.value(x), g._values(1, x), g._values(2, x)

    def nonsingular(name, block):
        det = np.abs(np.linalg.det(block))
        return _reduced(name, x, np.maximum(0.0, 1.0 - det / WALKER_DET_FLOOR))

    form = [_reduced("null_trailing_block", x, gv[:, trail, trail]),
            _reduced("null_middle_trailing_block", x, gv[:, mid, trail]),
            _reduced("constant_leading_trailing_block", x, dg[:, :, lead, trail]),
            _reduced("trailing_independence_middle_block", x, dg[:, trail, mid, mid]),
            _reduced("trailing_independence_middle_leading_block", x, dg[:, trail, mid, lead]),
            nonsingular("nonsingular_leading_trailing_block", gv[:, lead, trail])]
    if g.chart.middle_size:
        form.append(nonsingular("nonsingular_middle_block", gv[:, mid, mid]))
    return ([_reduced("null", x, gv[:, trail, trail])] + form
            + [_reduced("walker_projectability", x, d2g[:, trail, trail, lead, lead],
                        d2g[:, trail, mid, lead, lead])])


def _three_block_pattern_metrics():
    out = []
    for param in _pattern_metrics():
        (g,) = param.values
        if g.chart.mode != "three_block":
            continue
        out.append(param)
        if g._walker_block is not None:
            out.append(pytest.param(_not_structurally_walker(g), id=param.id + "_not_walker"))
    return out


@pytest.mark.parametrize("g", _three_block_pattern_metrics())
def test_pattern_decided_metric_rows_are_unchanged(g):
    x = sample_points(g, 200, seed=g.n + 1)
    dist = DistributionSpec.null_block(g.chart)
    rows = ([check_null(g, dist, x)] + check_walker_form(g, x) + [walker_projectability(g, x)])
    wants = _walker_rows(g, x)
    assert [r.name for r in rows] == [w.name for w in wants]
    assert all(_same_row(got, want) for got, want in zip(rows, wants))


# ---------------------------------------------------------------------------
# the leaf block from the constant rows of g^{-1}, and one determinant rule
# ---------------------------------------------------------------------------


def _leaf_metrics():
    """Extensions, each also written not structurally Walker (the dense
    route), and linear Walker metrics."""
    rng = np.random.default_rng(49)
    out = []
    for r, m in [(1, 0), (1, 1), (2, 2), (3, 2)]:
        g = build_pullback_extension(random_extension_spec(rng, r, m))
        out += [pytest.param(g, id=f"ext_r{r}m{m}"),
                pytest.param(_not_structurally_walker(g), id=f"ext_r{r}m{m}_not_walker")]
    for r, m in [(1, 1), (2, 1), (3, 2)]:
        out.append(pytest.param(_linear_walker(rng, r, m, None), id=f"linear_r{r}m{m}"))
    return out


@pytest.mark.parametrize("g", _leaf_metrics())
def test_leaf_block_is_the_leading_slice_of_the_whole_read(g, monkeypatch):
    r = g.chart.r
    y = sample_points(g, 300, seed=g.n)[:, :r]
    padded = np.concatenate([y, np.zeros((len(y), g.n - r))], axis=1)
    want = christoffel(g).gamma(padded)[:, :r, :r, :r]
    inverses = []
    inverse_value = MetricField.inverse_value
    monkeypatch.setattr(MetricField, "inverse_value",
                        lambda self, x: inverses.append(x) or inverse_value(self, x))
    leaf = restrict_connection(christoffel(g), DistributionSpec.orthocomplement(g.chart))
    assert _same_bits(leaf.gamma(y), want)
    # one row and one column of it (GEMM, not GEMV), and a single point
    for block in [(0,), (r - 1, slice(None), 0), (slice(None), 0, 0)]:
        assert _same_bits(leaf.gamma(y, block), want[(slice(None),) + block])
    assert _same_bits(leaf.gamma(y[5]), want[5])
    # only a metric that is not structurally Walker forms it from g^{-1}
    assert bool(inverses) is (g._walker_block is None)


@pytest.mark.parametrize("r, m", [(1, 0), (1, 1), (2, 2), (3, 2)])
def test_leaf_read_evaluates_only_the_trailing_partials_it_contracts(r, m, monkeypatch):
    g = build_pullback_extension(random_extension_spec(np.random.default_rng(50), r, m))
    y = sample_points(g, 50, seed=r)[:, :r]
    lead, mid, trail = g.chart.leading, g.chart.middle, g.chart.trailing
    fields, index = g._table(1)
    # d_a g_jk (a trailing, j, k leading), and d_j g_ak, which is the
    # constant 0 on the constant block C
    wanted = {fields[i].node for i in index[trail, lead, lead].ravel()}
    zero = {fields[i].node for i in index[lead, trail, lead].ravel()}
    assert all(fields[i].is_zero for i in index[lead, trail, lead].ravel())
    h = {g._table(0)[0][i].node for i in g._table(0)[1][mid, mid].ravel()}
    evaluated = []
    evaluate = tensor.evaluate_fields
    monkeypatch.setattr(tensor, "evaluate_fields",
                        lambda f, x, *a: evaluated.append(list(f)) or evaluate(f, x, *a))
    for name in ("value", "inverse_value", "partial_value"):
        monkeypatch.setattr(MetricField, name, lambda self, x, _name=name: pytest.fail(_name))
    restrict_connection(christoffel(g), DistributionSpec.orthocomplement(g.chart)).gamma(y)
    nodes = [f.node for call in evaluated for f in call]
    # the middle block H, for the determinant, and the partials the sums read
    assert set(nodes) <= wanted | zero | h
    assert wanted <= set(nodes)


def _dense_abs_det(self, x, g=None):
    return np.abs(np.linalg.det(self.value(x) if g is None else g))


@pytest.mark.parametrize("g", _walker_metrics() + _demo_metrics() + _pattern_metrics())
def test_sample_points_with_the_block_determinant_equal_the_dense_rule(g, monkeypatch):
    got = sample_points(g, 400, seed=g.n + 7)
    sizes = []
    det = np.linalg.det
    monkeypatch.setattr(np.linalg, "det", lambda a: sizes.append(np.shape(a)[-1]) or det(a))
    sample_points(g, 400, seed=g.n + 7)
    # a structurally Walker metric takes no n x n determinant
    assert (g.n in sizes) is (g._walker_block is None)
    monkeypatch.setattr(MetricField, "_abs_det", _dense_abs_det)
    assert np.array_equal(got, sample_points(g, 400, seed=g.n + 7))


@pytest.mark.parametrize("g", _walker_metrics())
def test_block_determinant_is_the_dense_one_to_rounding(g):
    x = sample_points(g, 100, seed=g.n)
    for pts in (x, x[3], x[:12].reshape(3, 4, g.n)):
        got, dense = g._abs_det(pts), _dense_abs_det(g, pts)
        assert got.shape == dense.shape
        assert np.all(np.abs(got - dense) <= 1e-12 * dense)
        # from values at hand, the same bits as read at the points
        assert _same_bits(g._abs_det(pts, g.value(pts)), got)


def test_walker_form_takes_one_determinant_of_a_constant_leading_trailing_block(monkeypatch):
    g = build_pullback_extension(random_extension_spec(np.random.default_rng(51), 3, 2))
    x = sample_points(g, 200, seed=3)
    shapes = []
    det = np.linalg.det
    monkeypatch.setattr(np.linalg, "det", lambda a: shapes.append(np.shape(a)) or det(a))
    rows = check_walker_form(g, x)
    # g_ia at one point, g_pq at every point
    assert shapes == [(1, 3, 3), (200, 2, 2)]
    monkeypatch.undo()
    assert all(_same_row(got, want) for got, want in zip(rows, _walker_rows(g, x)[1:-1]))
    single = check_walker_form(g, x[0])
    assert [row.residual for row in single] == [0.0] * len(single)
