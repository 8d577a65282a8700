"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines as they complete).
"""

import dataclasses
import time

import numpy as np

from walkergeom import (
    ChartSplit,
    DistributionSpec,
    MetricField,
    SymbolicConnection,
    build_pullback_extension,
    build_riemann_extension,
    check_null,
    check_parallel,
    check_projectable,
    christoffel,
    curvature_components,
    fiber_translate_pullback,
    killing_operator,
    parallel_transport,
    parse_expression,
    projection_commutes_residual,
    restrict_connection,
    transformation_rule_residual,
    walker_projectability,
    curvature_condition,
)
from walkergeom.corpus import (
    random_curve,
    random_extension_spec,
    random_metric,
    random_one_form,
    random_polynomial,
    random_walker_metric,
    walker_from_linear_data,
)
from walkergeom.extensions import ExtensionSpec, OneFormSection
from walkergeom.sampling import sample_points

from tensor_oracles import covariant_derivative_metric_residual, lower_curvature

SIZE_CYCLE = [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]


def report(tag: str, ok: bool, detail: str):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# 1. Levi-Civita correctness
# ---------------------------------------------------------------------------


def test_ac1_levi_civita_correctness():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_compat = 0.0
    worst_bianchi = 0.0
    for k in range(30):
        n = 2 + k % 4  # dimensions 2..5
        g = random_metric(rng, ChartSplit.two_block(n, 1))
        pts = sample_points(g, 100, seed=1000 + k)
        conn = christoffel(g)
        worst_compat = max(
            worst_compat, float(np.max(covariant_derivative_metric_residual(g, conn, pts)))
        )
        R = curvature_components(conn, pts)
        cyc = R + np.einsum("...jkil->...ijkl", R) + np.einsum("...kijl->...ijkl", R)
        worst_bianchi = max(worst_bianchi, float(np.max(np.abs(cyc))))
    elapsed = time.perf_counter() - t0
    ok = worst_compat < 1e-10 and worst_bianchi < 1e-10 and elapsed < 60.0
    report(
        "AC1",
        ok,
        f"30 random metrics: compat {worst_compat:.2e}, bianchi {worst_bianchi:.2e}, "
        f"{elapsed:.1f}s",
    )
    assert worst_compat < 1e-10
    assert worst_bianchi < 1e-10
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 2. leading-block shortcut equivalence
# ---------------------------------------------------------------------------


def _shortcut_residual(g, pts):
    """|2 Gamma^i_jk + g^{ai} d_a g_jk| with [g^{ai}] inverted from the
    constant block directly (independent of the full-metric inverse)."""
    chart = g.chart
    lead, trail = chart.leading, chart.trailing
    G = christoffel(g).gamma(pts)[:, lead, lead, lead]
    dg = g.partial_value(pts)
    block_inv = np.linalg.inv(g.value(pts)[:, lead, trail])
    shortcut = np.einsum("...ai,...ajk->...ijk", block_inv, dg[:, trail, lead, lead])
    return float(np.max(np.abs(2.0 * G + shortcut)))


def test_ac2_adapted_block_shortcut():
    rng = np.random.default_rng(202)
    worst = 0.0
    for k in range(20):
        r, m = SIZE_CYCLE[k % len(SIZE_CYCLE)]
        g = random_walker_metric(rng, r, m)
        pts = sample_points(g, 50, seed=2000 + k)
        worst = max(worst, _shortcut_residual(g, pts))
    ok = worst < 1e-10
    report("AC2", ok, f"20 adapted metrics, 50 points each: max residual {worst:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# 3. linear-fiber criterion round trip
# ---------------------------------------------------------------------------


def _linear_fiber_pair(rng, r, m):
    """A projectable metric from linear-fiber data and a perturbed twin with
    one middle- or trailing-dependent term added to the fiber coefficient."""
    n = 2 * r + m
    B = {
        (a, j, k): random_polynomial(rng, n, variables=range(1, r + 1))
        for a in range(1, r + 1)
        for j in range(1, r + 1)
        for k in range(j, r + 1)
    }
    lam = {
        (j, k): random_polynomial(rng, n, variables=range(1, r + m + 1))
        for j in range(1, r + 1)
        for k in range(j, r + 1)
    }
    good = walker_from_linear_data(r, m, B=B, lam=lam)
    bad_B = dict(B)
    bad_var = r + 1 if m > 0 else n  # a middle coordinate when one exists
    bad_B[(1, 1, 1)] = B[(1, 1, 1)] + parse_expression(f"x{bad_var}", n)
    bad = walker_from_linear_data(r, m, B=bad_B, lam=lam)
    return good, bad


def test_ac3_linear_fiber_round_trip():
    rng = np.random.default_rng(303)
    tol = 1e-8
    agree = True
    worst_good = 0.0
    worst_bad = np.inf
    for k in range(20):
        r, m = SIZE_CYCLE[k % len(SIZE_CYCLE)]
        good, bad = _linear_fiber_pair(rng, r, m)
        for metric, expect_pass in ((good, True), (bad, False)):
            pts = sample_points(metric, 40, seed=3000 + k)
            wp = walker_projectability(metric, pts).residual
            cp = check_projectable(
                christoffel(metric), DistributionSpec.null_block(metric.chart), pts
            ).residual
            agree = agree and ((wp <= tol) == (cp <= tol))
            if expect_pass:
                worst_good = max(worst_good, wp, cp)
            else:
                worst_bad = min(worst_bad, wp, cp)
    ok = worst_good < 1e-8 and worst_bad > 1e-3 and agree
    report(
        "AC3",
        ok,
        f"20 linear-fiber metrics pass (max {worst_good:.2e}); perturbed twins fail "
        f"(min {worst_bad:.2e}); verdicts agree on all 40: {agree}",
    )
    assert worst_good < 1e-8
    assert worst_bad > 1e-3
    assert agree


# ---------------------------------------------------------------------------
# 4. extension forward round trip
# ---------------------------------------------------------------------------


def test_ac4_extension_forward_round_trip():
    rng = np.random.default_rng(404)
    worst = 0.0
    worst_proj = 0.0
    for k in range(20):
        r, m = SIZE_CYCLE[k % len(SIZE_CYCLE)]
        spec = random_extension_spec(rng, r, m)
        g = build_pullback_extension(spec)
        pts = sample_points(g, 30, seed=4000 + k)
        conn = christoffel(g)
        P = DistributionSpec.null_block(g.chart)
        V = DistributionSpec.orthocomplement(g.chart)

        assert check_null(g, P, pts).residual == 0.0
        worst = max(worst, check_parallel(conn, P, pts).residual)
        worst = max(worst, curvature_condition(conn, V, pts).residual)
        worst = max(worst, curvature_condition(conn, P, pts).residual)
        worst = max(worst, check_projectable(conn, P, pts).residual)
        worst = max(worst, check_projectable(conn, V, pts).residual)

        assert check_projectable(conn, V, pts).passes(1e-8)
        proj = restrict_connection(conn, V)
        base_pts = pts[:, : spec.r]
        worst_proj = max(
            worst_proj,
            float(np.max(np.abs(proj.gamma(base_pts) - spec.base_connection.gamma(base_pts)))),
        )

        mid = range(spec.r + 1, spec.r + m + 1)
        assert all(
            g.component(p, q).same_expression(spec.h_component(p, q))
            for p in mid
            for q in mid
        )
        if m == 0:
            twin = build_riemann_extension(spec.base_connection, spec.lam, spec.g_ia)
            assert all(
                g.component(mu, nu) == twin.component(mu, nu)
                for mu in range(1, g.n + 1)
                for nu in range(mu, g.n + 1)
            )
    ok = worst < 1e-10 and worst_proj < 1e-12
    report(
        "AC4",
        ok,
        f"20 extensions: parallel/curvature/projectable max {worst:.2e}, "
        f"projected-vs-base max {worst_proj:.2e}, vertical metric identical",
    )
    assert worst < 1e-10
    assert worst_proj < 1e-12


# ---------------------------------------------------------------------------
# 5. transformation rule
# ---------------------------------------------------------------------------


def test_ac5_transformation_rule():
    rng = np.random.default_rng(505)
    worst = 0.0
    for k in range(50):
        r, m = SIZE_CYCLE[k % len(SIZE_CYCLE)]
        spec = random_extension_spec(rng, r, m)
        g = build_pullback_extension(spec)
        pts = sample_points(g, 20, seed=5000 + k)
        omega = random_one_form(rng, r, m)
        worst = max(worst, transformation_rule_residual(g, spec, omega, pts).residual)

    # vanishing Killing image: the translation is an isometry
    iso_worst = 0.0
    flat2 = SymbolicConnection(2)
    spec_rot = ExtensionSpec(
        r=2, m=0, base_connection=flat2,
        lam={(1, 1): "x1*x2", (1, 2): "x2^2", (2, 2): 1.0},
    )
    g_rot = build_pullback_extension(spec_rot)
    rotation = OneFormSection(2, 0, ["x2", "-x1"])
    pts_rot = sample_points(g_rot, 20, seed=5101)
    assert np.max(np.abs(killing_operator(flat2, rotation, pts_rot))) == 0.0
    iso_worst = max(
        iso_worst,
        float(
            np.max(
                np.abs(
                    fiber_translate_pullback(g_rot, rotation, spec_rot.g_ia, pts_rot)
                    - g_rot.value(pts_rot)
                )
            )
        ),
    )

    spec_const = ExtensionSpec(
        r=1, m=1, base_connection=SymbolicConnection(1),
        lam={(1, 1): "x2", (2, 2): "1 + x2^2"},
    )
    g_const = build_pullback_extension(spec_const)
    const_form = OneFormSection(1, 1, [0.75])
    pts_const = sample_points(g_const, 20, seed=5102)
    assert np.max(np.abs(killing_operator(spec_const.base_connection, const_form, pts_const))) == 0.0
    iso_worst = max(
        iso_worst,
        float(
            np.max(
                np.abs(
                    fiber_translate_pullback(g_const, const_form, spec_const.g_ia, pts_const)
                    - g_const.value(pts_const)
                )
            )
        ),
    )
    ok = worst < 1e-9 and iso_worst < 1e-9
    report(
        "AC5",
        ok,
        f"50 (spec, form) pairs: max residual {worst:.2e}; "
        f"isometry cases max {iso_worst:.2e}",
    )
    assert worst < 1e-9
    assert iso_worst < 1e-9


# ---------------------------------------------------------------------------
# 6. transport projects onto the base transport
# ---------------------------------------------------------------------------


def test_ac6_transport_condition():
    rng = np.random.default_rng(606)
    worst_built = 0.0
    for k in range(10):
        r, m = SIZE_CYCLE[k % len(SIZE_CYCLE)]
        spec = random_extension_spec(rng, r, m)
        g = build_pullback_extension(spec)
        V = DistributionSpec.orthocomplement(g.chart)
        curve = random_curve(rng, g.n)
        w0 = rng.uniform(-1.0, 1.0, g.n)
        worst_built = max(
            worst_built,
            projection_commutes_residual(g, spec.base_connection, V, curve, w0),
        )

    engineered = [
        ({(1, 1): "3*x2*x4", (1, 4): 1.0, (2, 2): 1.0, (3, 3): 1.0}, 4, 1),
        ({(1, 1): "2*x4^2", (1, 4): 1.0, (2, 2): 1.0, (3, 3): 1.0}, 4, 1),
        ({(1, 1): "x2^2", (1, 2): 1.0}, 2, 1),
        ({(1, 1): "2*x3*x4 + x2", (1, 4): 1.0, (2, 2): 1.0, (3, 3): 1.0}, 4, 1),
        ({(1, 1): "2*x3^2", (1, 3): 1.0, (2, 4): 1.0, (2, 2): "x1"}, 4, 2),
    ]
    worst_engineered = np.inf
    for comps, n, r in engineered:
        g = MetricField(ChartSplit.three_block(n, r), comps)
        conn = christoffel(g)
        V = DistributionSpec.orthocomplement(g.chart)
        D = restrict_connection(conn, V)
        curve = random_curve(rng, n)
        w0 = rng.uniform(0.5, 1.5, n)
        worst_engineered = min(
            worst_engineered,
            projection_commutes_residual(g, D, V, curve, w0, conn=conn),
        )
    ok = worst_built < 1e-6 and worst_engineered > 1e-3
    report(
        "AC6",
        ok,
        f"10 built extensions: max residual {worst_built:.2e}; "
        f"5 engineered failures: min residual {worst_engineered:.2e}",
    )
    assert worst_built < 1e-6
    assert worst_engineered > 1e-3


# ---------------------------------------------------------------------------
# 7. plane-fronted-wave check
# ---------------------------------------------------------------------------


def test_ac7_plane_fronted_wave():
    # g = 2 dx1 . dx4 + H(x1,x2,x3) dx1 . dx1 + (dx2)^2 + (dx3)^2
    H = "x1^3 + 2*x2^2*x3 + x2*x3 - x1*x2"
    g = MetricField(
        ChartSplit.three_block(4, 1),
        {(1, 1): H, (1, 4): 1.0, (2, 2): 1.0, (3, 3): 1.0},
    )
    pts = sample_points(g, 60, seed=707)
    conn = christoffel(g)

    # the trailing null field w = d_4 is parallel: Gamma^lam_{mu 4} = 0
    G = conn.gamma(pts)
    parallel_residual = float(np.max(np.abs(G[:, :, :, 3])))

    # lowered curvature kills w in the first slot: R(w, ., ., .) = 0
    low = lower_curvature(curvature_components(conn, pts[:20]), g.value(pts[:20]))
    lowered_residual = float(np.max(np.abs(low[:, 3])))

    # which gives the curvature condition for the span of w
    cc = curvature_condition(conn, DistributionSpec.null_block(g.chart), pts).residual

    ok = parallel_residual < 1e-10 and lowered_residual < 1e-10 and cc < 1e-10
    report(
        "AC7",
        ok,
        f"wave metric: field-parallel {parallel_residual:.2e}, "
        f"lowered curvature {lowered_residual:.2e}, curvature condition {cc:.2e}",
    )
    assert parallel_residual < 1e-10
    assert lowered_residual < 1e-10
    assert cc < 1e-10


# ---------------------------------------------------------------------------
# 8. integrator order against the first-order reference
# ---------------------------------------------------------------------------


def test_ac8_integrator_order(order_problems):
    ratios = []
    for conn, curve, w0, ref in order_problems:
        h = curve.step
        e1 = np.max(np.abs(parallel_transport(conn, curve, w0).final - ref))
        e2 = np.max(
            np.abs(
                parallel_transport(conn, dataclasses.replace(curve, step=h / 2), w0).final - ref
            )
        )
        ratios.append(float(e1 / e2))
    ok = all(12.0 <= rho <= 20.0 for rho in ratios)
    report("AC8", ok, "step-halving ratios: " + ", ".join(f"{rho:.1f}" for rho in ratios))
    assert ok, ratios
