"""Residual checks for trailing-coordinate distributions."""

import numpy as np
import pytest

from walkergeom import (
    ChartSplit,
    DistributionSpec,
    MetricField,
    NotProjectableError,
    RestrictedConnection,
    ScalarField,
    SymbolicConnection,
    build_pullback_extension,
    check_field_projectable,
    check_null,
    check_parallel,
    check_projectable,
    check_walker_form,
    christoffel,
    covariant_derivative_vector,
    curvature_components,
    curvature_condition,
    parse_expression,
    projectability_parts,
    projected_connection,
    restrict_connection,
    walker_projectability,
)
from walkergeom.corpus import (
    random_extension_spec,
    random_polynomial,
    random_walker_metric,
    walker_from_linear_data,
)
from walkergeom.sampling import sample_points

RNG = np.random.default_rng(99)
PTS2 = RNG.uniform(-1, 1, (30, 2))


def dist2():
    return DistributionSpec(ChartSplit.two_block(2, 1), 1)


# ---------------------------------------------------------------------------
# vector-field projectability
# ---------------------------------------------------------------------------


def test_constant_field_is_projectable():
    w = [parse_expression("1", 2), parse_expression("0", 2)]
    assert check_field_projectable(w, dist2(), PTS2).residual == 0.0


def test_field_with_leading_dependence_only_is_projectable():
    w = [parse_expression("x1^2", 2), parse_expression("x1*x2", 2)]
    assert check_field_projectable(w, dist2(), PTS2).residual == 0.0


def test_field_with_trailing_dependence_fails():
    w = [parse_expression("x2", 2), parse_expression("0", 2)]
    res = check_field_projectable(w, dist2(), PTS2)
    assert res.residual == 1.0


# ---------------------------------------------------------------------------
# nullity and parallelism
# ---------------------------------------------------------------------------


def test_extension_metric_is_null_exactly():
    spec = random_extension_spec(np.random.default_rng(1), 2, 1)
    g = build_pullback_extension(spec)
    pts = sample_points(g, 30, seed=2)
    assert check_null(g, DistributionSpec.null_block(g.chart), pts).residual == 0.0


def test_identity_metric_is_not_null():
    g = MetricField(ChartSplit.two_block(2, 1), {(1, 1): 1.0, (2, 2): 1.0})
    assert check_null(g, dist2(), PTS2).residual == 1.0


def test_product_metric_trailing_block_is_parallel():
    g = MetricField(ChartSplit.two_block(2, 1), {(1, 1): "1 + 0.5*x1^2", (2, 2): 1.0})
    assert check_parallel(christoffel(g), dist2(), PTS2).residual < 1e-14


def test_extension_metric_trailing_block_is_parallel():
    spec = random_extension_spec(np.random.default_rng(2), 1, 2)
    g = build_pullback_extension(spec)
    pts = sample_points(g, 30, seed=3)
    P = DistributionSpec.null_block(g.chart)
    assert check_parallel(christoffel(g), P, pts).residual < 1e-10


def test_coupled_metric_fails_parallelism():
    # hand computation: Gamma^1_22 = 1/(1 - x2^2), so at x2 = 0 the family
    # |Gamma^1_{2 mu}| attains exactly 1
    g = MetricField(ChartSplit.two_block(2, 1), {(1, 1): 1.0, (1, 2): "x2", (2, 2): 1.0})
    res = check_parallel(christoffel(g), dist2(), np.array([[0.7, 0.0]]))
    assert abs(res.residual - 1.0) < 1e-14


# ---------------------------------------------------------------------------
# connection projectability
# ---------------------------------------------------------------------------


def test_flat_connection_is_projectable():
    assert check_projectable(SymbolicConnection(2), dist2(), PTS2).residual == 0.0


def test_extension_connection_projects_along_both_spans():
    spec = random_extension_spec(np.random.default_rng(3), 2, 2)
    g = build_pullback_extension(spec)
    pts = sample_points(g, 25, seed=4)
    conn = christoffel(g)
    for dist in (
        DistributionSpec.null_block(g.chart),
        DistributionSpec.orthocomplement(g.chart),
    ):
        assert check_projectable(conn, dist, pts).residual < 1e-10


def test_trailing_dependent_component_fails_projectability():
    conn = SymbolicConnection(2, {(1, 1, 1): "x2"})
    res = check_projectable(conn, dist2(), PTS2)
    assert res.residual == 1.0
    parallel_part, derivative_part = projectability_parts(conn, dist2(), PTS2)
    assert parallel_part.residual == 0.0
    assert derivative_part.residual == 1.0


# ---------------------------------------------------------------------------
# curvature condition
# ---------------------------------------------------------------------------


def test_flat_metric_satisfies_curvature_condition():
    g = MetricField(ChartSplit.two_block(3, 1), {(1, 1): 1.0, (2, 2): 1.0, (3, 3): 1.0})
    pts = RNG.uniform(-1, 1, (10, 3))
    assert curvature_condition(christoffel(g), DistributionSpec(g.chart, 1), pts).residual == 0.0


def test_extension_metric_satisfies_curvature_condition():
    spec = random_extension_spec(np.random.default_rng(4), 1, 1)
    g = build_pullback_extension(spec)
    pts = sample_points(g, 25, seed=5)
    V = DistributionSpec.orthocomplement(g.chart)
    assert curvature_condition(christoffel(g), V, pts).residual < 1e-10


def test_nonprojectable_adapted_metric_fails_curvature_condition():
    # g_11 = x2 * x4 on n=4, r=1 violates the linear-fiber criterion
    g = MetricField(
        ChartSplit.three_block(4, 1),
        {(1, 1): "x2*x4", (1, 4): 1.0, (2, 2): 1.0, (3, 3): 1.0},
    )
    pts = sample_points(g, 40, seed=6)
    conn = christoffel(g)
    V = DistributionSpec.orthocomplement(g.chart)
    res = curvature_condition(conn, V, pts)
    assert res.residual > 1e-3

    # independent oracle at the worst point: centred differences of Gamma in
    # the curvature formula reproduce the engine components, and the
    # violating family R_{a mu nu}^1 (a = 2..4) is O(1) there
    x = res.worst_point
    h = 1e-6
    n = 4
    dG = np.empty((n, n, n, n))
    for mu in range(n):
        step = np.zeros(n)
        step[mu] = h
        dG[mu] = (conn.gamma(x + step) - conn.gamma(x - step)) / (2 * h)
    G = conn.gamma(x)
    oracle = (
        np.einsum("jlik->ijkl", dG)
        - np.einsum("iljk->ijkl", dG)
        + np.einsum("ljp,pik->ijkl", G, G)
        - np.einsum("lip,pjk->ijkl", G, G)
    )
    engine = curvature_components(conn, x)
    assert np.max(np.abs(engine - oracle)) < 1e-6
    assert np.max(np.abs(oracle[1:4, :, :, 0])) > 1e-3
    assert abs(np.max(np.abs(oracle[1:4, :, :, 0])) - res.residual) < 1e-6


# ---------------------------------------------------------------------------
# adapted canonical form
# ---------------------------------------------------------------------------


def test_built_extension_passes_walker_form():
    spec = random_extension_spec(np.random.default_rng(5), 2, 1)
    g = build_pullback_extension(spec)
    pts = sample_points(g, 25, seed=7)
    results = check_walker_form(g, pts)
    assert all(r.passes(1e-8) for r in results), [r.name for r in results if not r.passes(1e-8)]


def test_identity_metric_fails_null_clause():
    g = MetricField(ChartSplit.three_block(2, 1), {(1, 1): 1.0, (2, 2): 1.0})
    results = check_walker_form(g, PTS2)
    failed = [r.name for r in results if not r.passes(1e-8)]
    assert not all(r.passes(1e-8) for r in results)
    assert "null_trailing_block" in failed


def test_trailing_dependent_middle_block_fails():
    g = MetricField(
        ChartSplit.three_block(4, 1),
        {(1, 4): 1.0, (2, 2): "1 + x4", (3, 3): 1.0},
    )
    pts = sample_points(g, 30, seed=8)
    results = check_walker_form(g, pts)
    assert "trailing_independence_middle_block" in [
        r.name for r in results if not r.passes(1e-8)
    ]


def test_walker_projectability_examples():
    pts = np.random.default_rng(9).uniform(-1.0, 1.0, (20, 4))
    lin = walker_from_linear_data(
        1,
        2,
        B={(1, 1, 1): parse_expression("x1^2", 4)},
        lam={(1, 1): parse_expression("x2*x3", 4)},
    )
    assert walker_projectability(lin, pts).residual == 0.0

    quad = MetricField(
        ChartSplit.three_block(4, 1),
        {(1, 1): "x4^2", (1, 4): 1.0, (2, 2): 1.0, (3, 3): 1.0},
    )
    assert walker_projectability(quad, pts).residual == 2.0

    mixed = MetricField(
        ChartSplit.three_block(4, 1),
        {(1, 1): "x4*x2", (1, 4): 1.0, (2, 2): 1.0, (3, 3): 1.0},
    )
    assert walker_projectability(mixed, pts).residual == 1.0


# ---------------------------------------------------------------------------
# projection onto the leaf space
# ---------------------------------------------------------------------------


def test_projected_flat_connection_is_flat():
    conn = SymbolicConnection(3)
    dist = DistributionSpec(ChartSplit.two_block(3, 1), 1)
    proj = projected_connection(conn, dist, RNG.uniform(-1, 1, (10, 3)))
    assert proj.n == 2
    assert np.max(np.abs(proj.gamma(np.array([0.2, 0.4])))) == 0.0


def test_projected_connection_requires_projectability():
    conn = SymbolicConnection(2, {(1, 1, 1): "x2"})
    with pytest.raises(NotProjectableError):
        projected_connection(conn, dist2(), PTS2)


def test_projected_extension_connection_equals_base_data():
    spec = random_extension_spec(np.random.default_rng(6), 2, 1)
    g = build_pullback_extension(spec)
    pts = sample_points(g, 25, seed=10)
    V = DistributionSpec.orthocomplement(g.chart)
    proj = projected_connection(christoffel(g), V, pts, tolerance=1e-8)
    base_pts = pts[:, : spec.r]
    diff = proj.gamma(base_pts) - spec.base_connection.gamma(base_pts)
    assert np.max(np.abs(diff)) < 1e-12


def test_projected_linear_fiber_metric_matches_shortcut():
    # g_jk = x^a B_ajk with [g_ia] = id projects onto Gamma^i_jk = -B_ijk/2
    B = parse_expression("2*x1", 4)
    g = walker_from_linear_data(1, 2, B={(1, 1, 1): B}, lam={})
    pts = sample_points(g, 20, seed=11)
    V = DistributionSpec.orthocomplement(g.chart)
    proj = projected_connection(christoffel(g), V, pts)
    base = np.linspace(-0.9, 0.9, 7)[:, None]
    expected = -0.5 * 2.0 * base[:, 0]
    assert np.allclose(proj.gamma(base)[:, 0, 0, 0], expected, atol=1e-12)


def test_orthocomplement_requires_three_block_chart():
    with pytest.raises(ValueError):
        DistributionSpec.orthocomplement(ChartSplit.two_block(3, 1))


def test_connection_rejects_conflicting_lower_pair_entries():
    with pytest.raises(ValueError):
        SymbolicConnection(2, {(1, 1, 2): "x1", (1, 2, 1): "x2"})


def test_restricted_levi_civita_connection_evaluates():
    spec = random_extension_spec(np.random.default_rng(7), 1, 1)
    g = build_pullback_extension(spec)
    V = DistributionSpec.orthocomplement(g.chart)
    proj = restrict_connection(christoffel(g), V)
    out = proj.gamma(np.array([[0.3]]))
    assert out.shape == (1, 1, 1, 1)


def test_projection_is_independent_of_pinned_trailing_values():
    # once the check passes, any fixed trailing values give the same functions
    spec = random_extension_spec(np.random.default_rng(8), 2, 1)
    g = build_pullback_extension(spec)
    conn = christoffel(g)
    V = DistributionSpec.orthocomplement(g.chart)
    pts = sample_points(g, 15, seed=12)
    assert check_projectable(conn, V, pts).residual < 1e-10
    keep = g.n - V.s
    base_pts = pts[:, :keep]
    at_zero = RestrictedConnection(conn, keep).gamma(base_pts)
    pinned = np.broadcast_to([0.4, -0.9, 0.7], base_pts.shape[:-1] + (V.s,))
    at_other = christoffel(g).gamma(np.concatenate([base_pts, pinned], axis=-1))
    at_other = at_other[..., :keep, :keep, :keep]
    assert np.max(np.abs(at_zero - at_other)) < 1e-10


# ---------------------------------------------------------------------------
# module invariants
# ---------------------------------------------------------------------------


def _walker_corpus():
    rng = np.random.default_rng(17)
    metrics = []
    for (r, m) in [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1)]:
        # projectable: linear fiber dependence with leading-only B
        B = {
            (a, j, k): random_polynomial(rng, 2 * r + m, variables=range(1, r + 1))
            for a in range(1, r + 1)
            for j in range(1, r + 1)
            for k in range(j, r + 1)
        }
        lam = {
            (j, k): random_polynomial(rng, 2 * r + m, variables=range(1, r + m + 1))
            for j in range(1, r + 1)
            for k in range(j, r + 1)
        }
        metrics.append(walker_from_linear_data(r, m, B=B, lam=lam))
        # generic: arbitrary leading-block dependence
        metrics.append(random_walker_metric(rng, r, m))
    return metrics


def test_orthocomplement_projectability_equivalence():
    # P-projectability iff orthocomplement-projectability, on the corpus
    tol = 1e-8
    for k, g in enumerate(_walker_corpus()):
        pts = sample_points(g, 30, seed=100 + k)
        conn = christoffel(g)
        res_p = check_projectable(conn, DistributionSpec.null_block(g.chart), pts)
        res_v = check_projectable(conn, DistributionSpec.orthocomplement(g.chart), pts)
        assert (res_p.residual <= tol) == (res_v.residual <= tol), (
            res_p.residual,
            res_v.residual,
        )


def test_curvature_condition_matches_derivative_family_when_parallel():
    tol = 1e-8
    for k, g in enumerate(_walker_corpus()):
        pts = sample_points(g, 30, seed=200 + k)
        conn = christoffel(g)
        V = DistributionSpec.orthocomplement(g.chart)
        assert check_parallel(conn, V, pts).residual <= tol
        curv = curvature_condition(conn, V, pts)
        _, deriv = projectability_parts(conn, V, pts)
        assert (curv.residual <= tol) == (deriv.residual <= tol), (
            curv.residual,
            deriv.residual,
        )


def test_walker_projectability_agrees_with_connection_check():
    tol = 1e-8
    for k, g in enumerate(_walker_corpus()):
        pts = sample_points(g, 30, seed=300 + k)
        conn = christoffel(g)
        quick = walker_projectability(g, pts)
        full = check_projectable(conn, DistributionSpec.null_block(g.chart), pts)
        assert (quick.residual <= tol) == (full.residual <= tol), (
            quick.residual,
            full.residual,
        )


def test_covariant_derivatives_along_sections_stay_vertical():
    # projectable case: for projectable w and vertical v, nabla_v w has no
    # leading components
    rng = np.random.default_rng(23)
    spec = random_extension_spec(rng, 2, 1)
    g = build_pullback_extension(spec)
    n = g.n
    V = DistributionSpec.orthocomplement(g.chart)
    keep = n - V.s
    pts = sample_points(g, 20, seed=400)
    conn = christoffel(g)
    assert check_projectable(conn, V, pts).residual < 1e-10
    for trial in range(3):
        w = [
            random_polynomial(rng, n, variables=range(1, keep + 1))
            for _ in range(keep)
        ] + [random_polynomial(rng, n) for _ in range(n - keep)]
        v = [ScalarField.constant(0.0, n)] * keep + [
            random_polynomial(rng, n) for _ in range(n - keep)
        ]
        out = covariant_derivative_vector(conn, w, v, pts)
        assert np.max(np.abs(out[:, :keep])) < 1e-10
