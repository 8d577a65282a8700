"""Christoffel symbols, the Levi-Civita jet, curvature and the metric-compatibility residual."""

import json
import re

import numpy as np
import pytest

from walkergeom import (
    ChartSplit,
    DistributionSpec,
    cli,
    MetricField,
    build_pullback_extension,
    SingularMetricError,
    SymbolicConnection,
    christoffel,
    curvature_components,
    curvature_condition,
    parse_expression,
    restrict_connection,
    walker_projectability,
)
from walkergeom.corpus import random_extension_spec, random_metric, random_walker_metric
from walkergeom.distributions import _reduced, projectability_parts
from walkergeom.expr import evaluate_fields
from walkergeom.sampling import sample_points
from walkergeom.tensor import JET_BLOCK

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


def test_jet_drops_the_first_kind_sums_once_gamma_and_d_gamma_exist():
    g = _jet_metrics()[1]
    x = sample_points(g, 10, seed=1)
    for first, second in (("gamma", "gamma_partial"), ("gamma_partial", "gamma")):
        conn = christoffel(g)
        getattr(conn, first)(x)
        assert conn._sums is not None  # the other one still reads them
        getattr(conn, second)(x)
        assert conn._sums is None


@pytest.mark.parametrize("g", _jet_metrics(), ids=["ext11", "ext22", "ext32", "two_block"])
def test_first_kind_lowering_matches_dense_terms(g):
    pts = sample_points(g, 7, seed=g.n)
    for x in (pts, pts[2], pts.reshape(7, 1, g.n)):
        for order, dense in ((1, g.partial_value(x)), (2, g.second_partial_value(x))):
            # Gamma_{m,jk} = (1/2)((d_j g_mk + d_k g_jm) - d_m g_jk), term order kept
            want = 0.5 * ((np.einsum("...jmk->...mjk", dense) + np.einsum("...kjm->...mjk", dense))
                          - dense)
            v, w = g._first_kind_sums(order, x)
            assert np.array_equal(np.take(v, g._table(order)[1], axis=-1), dense)
            low = np.take(w, g._triple_table(order)[1], axis=-1)
            assert np.array_equal(low, want)
        # point axes first and C-contiguous: no transposed view reaches a caller
        conn = christoffel(g)
        for got, rank in ((conn.gamma(x), 3), (conn.gamma_partial(x), 4)):
            assert got.shape == x.shape[:-1] + (g.n,) * rank
            assert got.flags.c_contiguous


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
        assert not got.flags.writeable
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


def _same_row(got, want) -> bool:
    """Equal rows, the residual to its bits (repr keeps the sign of zero)."""
    return (got.name == want.name and repr(got.residual) == repr(want.residual)
            and np.array_equal(got.worst_point, want.worst_point))


@pytest.mark.parametrize("g", BLOCK_METRICS,
                         ids=["ext22", "ext32", "two_block", "walker", "infinite_inverse"])
def test_blocked_jet_matches_unblocked_formulas(g):
    # N = 1, B - 1, B, B + 1 and 3B + 5 points for the block sizes B of d Gamma
    # and of Gamma, a single point and (2, B + 1, n) batches: every block
    # boundary gives the bits of the formulas over all points at once
    n = g.n
    sizes = [max(1, JET_BLOCK // n ** 4), max(1, JET_BLOCK // n ** 3)]
    count = 3 * max(sizes) + 5
    if g is INFINITE_INVERSE:
        pts = np.random.default_rng(n).uniform(-1.0, 1.0, (count, n))
    else:
        pts = sample_points(g, count, seed=n)
    equal_nan = g is INFINITE_INVERSE
    batches = [pts[0]]
    for B in sizes:
        batches += [pts[:N] for N in (1, B - 1, B, B + 1, 3 * B + 5) if N > 0]
        batches.append(pts[:2 * B + 2].reshape(2, B + 1, n))
    dists = [DistributionSpec.null_block(g.chart)]
    if g.chart.mode == "three_block":
        dists.append(DistributionSpec.orthocomplement(g.chart))
    slots, _ = g._pair_columns()
    for x in batches:
        conn = christoffel(g)
        with np.errstate(all="ignore"):
            G, dG = conn.gamma(x), conn.gamma_partial(x)
            want_G, want_dG = _unblocked_jet(g, x)
        assert np.array_equal(G, want_G, equal_nan=equal_nan)
        assert np.array_equal(dG, want_dG, equal_nan=equal_nan)
        # the store: one column per stored lower pair, from its flat slot
        assert np.array_equal(conn._dgamma, want_dG.reshape(-1, n, n, n * n)[..., slots],
                              equal_nan=equal_nan)
        points = (slice(None),) * (x.ndim - 1)
        for dist in dists:
            lead, trail = dist.leading, dist.trailing
            # the slot blocks projectability_parts and curvature_condition read
            for block in [(trail, lead, lead, lead), (slice(None), lead, trail), (trail, lead)]:
                assert np.array_equal(conn.gamma_partial(x, block), want_dG[points + block],
                                      equal_nan=equal_nan)
            with np.errstate(all="ignore"):
                want = _reduced("curvature_condition", x,
                                _curvature_block(want_G, want_dG, dist))
                assert _same_row(curvature_condition(conn, dist, x), want)
                parts = projectability_parts(conn, dist, x)
            wants = [_reduced("projectable_parallel_part", x, want_G[..., lead, trail, :]),
                     _reduced("projectable_derivative_part", x,
                              want_dG[..., trail, lead, lead, lead])]
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


@pytest.mark.parametrize("checks", [
    None,
    # projected_connection evaluates Gamma at the padded base points in between
    ["parallel", "projected_connection", "projectable", "curvature_condition"],
], ids=["default", "custom"])
def test_default_extension_suite_shares_one_jet(tmp_path, monkeypatch, checks):
    # d Gamma is lowered from the order-2 table without laying out d^2 g, so
    # its builds are counted at the order-2 lowering
    calls = {"inverse_value": 0, "second_partial_value": 0}
    lowered = []  # (order, points) of every first-kind lowering
    for name in (*calls, "_first_kind_sums"):
        original = getattr(MetricField, name)

        def counted(self, *args, _original=original, _name=name, **kwargs):
            if _name == "_first_kind_sums":
                lowered.append((args[0], np.asarray(args[1]).tobytes()))
            else:
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
    # one order-1 and one order-2 lowering on the sample points, shared by
    # Gamma and d Gamma; the padded base points of projected_connection get
    # one order-1 lowering of their own
    (sample,) = [x for order, x in lowered if order == 2]
    assert sorted(order for order, x in lowered if x == sample) == [1, 2]
    assert sorted(order for order, x in lowered if x != sample) == [1]
