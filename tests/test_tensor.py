"""Christoffel symbols, curvature and the metric-compatibility residual."""

import json

import numpy as np
import pytest

from walkergeom import (
    ChartSplit,
    cli,
    MetricField,
    build_pullback_extension,
    SingularMetricError,
    SymbolicConnection,
    christoffel,
    covariant_derivative_metric_residual,
    covariant_derivative_vector,
    curvature_components,
    lower_curvature,
    parse_expression,
)
from walkergeom.corpus import random_extension_spec, random_metric, random_walker_metric
from walkergeom.expr import evaluate_fields
from walkergeom.sampling import sample_points


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


# ---------------------------------------------------------------------------
# the Levi-Civita jet
# ---------------------------------------------------------------------------


def _jet_metrics():
    rng = np.random.default_rng(43)
    metrics = [build_pullback_extension(random_extension_spec(rng, r, m))
               for r, m in [(1, 1), (2, 2), (3, 2)]]
    return metrics + [random_metric(rng, ChartSplit.two_block(5, 2))]


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
    assert not conn.gamma(a).flags.writeable


@pytest.mark.parametrize("checks", [
    None,
    # projected_connection evaluates Gamma at the padded base points in between
    ["parallel", "projected_connection", "projectable", "curvature_condition"],
], ids=["default", "custom"])
def test_default_extension_suite_shares_one_jet(tmp_path, monkeypatch, checks):
    calls = {"inverse_value": 0, "second_partial_value": 0}
    for name in calls:
        original = getattr(MetricField, name)

        def counted(self, *args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

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
