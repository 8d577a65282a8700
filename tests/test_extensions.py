"""Extension builders, the Killing operator, fiber translations and the
canonical identifications."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkergeom import (
    DistributionSpec,
    ExtensionSpec,
    MetricField,
    OneFormSection,
    ScalarField,
    SingularMetricError,
    SymbolicConnection,
    build_pullback_extension,
    check_null,
    check_parallel,
    check_projectable,
    christoffel,
    cli,
    coordinate,
    curvature_components,
    curvature_condition,
    fiber_translate_pullback,
    killing_operator,
    transformation_rule_residual,
)
from walkergeom.corpus import (
    random_extension_spec,
    random_nonsingular_constant,
    random_one_form,
    random_polynomial,
)
from walkergeom.distributions import _reduced
from walkergeom.extensions import _transformation_rule_rows, _translation_difference
from walkergeom.sampling import sample_points

from leaf_oracles import canonical_field_parallelism, canonical_vertical_field


def text_of(g, mu, nu):
    return g.component(mu, nu).to_text()


# ---------------------------------------------------------------------------
# builders: direct substitution cases
# ---------------------------------------------------------------------------


def test_flat_riemann_extension_components():
    g = build_pullback_extension(ExtensionSpec(r=1, m=0, base_connection=SymbolicConnection(1)))
    assert g.n == 2
    assert g.component(1, 1).is_zero
    assert text_of(g, 1, 2) == "1.0"
    assert g.component(2, 2).is_zero


def test_riemann_extension_linear_connection_term():
    D = SymbolicConnection(1, {(1, 1, 1): "x1"})
    g = build_pullback_extension(ExtensionSpec(r=1, m=0, base_connection=D))
    # g_11 = -2 x2 x1, g_12 = 1, g_22 = 0
    assert text_of(g, 1, 1) == "-2.0*x2*x1"
    assert text_of(g, 1, 2) == "1.0"
    assert g.component(2, 2).is_zero


def test_constant_section_extension_is_flat():
    g = build_pullback_extension(
        ExtensionSpec(r=1, m=0, base_connection=SymbolicConnection(1), lam={(1, 1): 1.0}))
    assert np.allclose(g.value(np.array([0.2, -0.4])), [[1.0, 1.0], [1.0, 0.0]])
    R = curvature_components(christoffel(g), np.array([0.3, 0.9]))
    assert np.max(np.abs(R)) == 0.0


def test_pullback_extension_m0_equals_riemann_extension():
    rng = np.random.default_rng(0)
    spec = random_extension_spec(rng, 2, 0)
    a = build_pullback_extension(spec)
    b = build_pullback_extension(ExtensionSpec(r=spec.r, m=0, base_connection=spec.base_connection,
                                               lam=spec.lam, g_ia=spec.g_ia))
    for mu in range(1, 5):
        for nu in range(mu, 5):
            assert a.component(mu, nu) == b.component(mu, nu)


def test_pullback_extension_diagonal_case():
    spec = ExtensionSpec(
        r=1,
        m=1,
        base_connection=SymbolicConnection(1),
        lam={(2, 2): 1.0},
    )
    g = build_pullback_extension(spec)
    x = np.array([0.5, -0.7, 0.9])
    assert np.allclose(g.value(x), [[0, 0, 1], [0, 1, 0], [1, 0, 0]])


def test_pullback_extension_full_substitution_case():
    spec = ExtensionSpec(
        r=1,
        m=1,
        base_connection=SymbolicConnection(1, {(1, 1, 1): "x1"}),
        lam={(1, 2): "x2", (2, 2): "1 + x1^2"},
    )
    g = build_pullback_extension(spec)
    assert text_of(g, 1, 1) == "-2.0*x3*x1"
    assert text_of(g, 1, 2) == "x2"
    assert text_of(g, 1, 3) == "1.0"
    assert g.component(2, 2).same_expression(spec.h_component(2, 2))
    assert abs(g.component(2, 2).evaluate([2.0, 0.0, 0.0]) - 5.0) < 1e-15
    assert g.component(2, 3).is_zero and g.component(3, 3).is_zero


def test_builder_rejects_singular_constant_block():
    with pytest.raises(SingularMetricError):
        ExtensionSpec(
            r=2,
            m=0,
            base_connection=SymbolicConnection(2),
            g_ia=np.array([[1.0, 1.0], [1.0, 1.0]]),
        )


def test_builder_is_deterministic():
    rng1, rng2 = np.random.default_rng(5), np.random.default_rng(5)
    a = build_pullback_extension(random_extension_spec(rng1, 2, 1))
    b = build_pullback_extension(random_extension_spec(rng2, 2, 1))
    for mu in range(1, 6):
        for nu in range(mu, 6):
            assert a.component(mu, nu) == b.component(mu, nu)


def _operator_built_extension(spec):
    """The leading block of the extension as the builder once formed it,
    term by term through the field operators (the oracle of the one-sum
    builder)."""
    r, m, n = spec.r, spec.m, spec.n
    comps = {}
    for j in range(1, r + 1):
        for k in range(j, r + 1):
            f = spec.lam_component(j, k).with_dimension(n)
            for i in range(1, r + 1):
                gamma = spec.base_connection.component(i, j, k)
                if gamma.is_zero:
                    continue
                for a in range(1, r + 1):
                    coeff = spec.g_ia[i - 1, a - 1]
                    if coeff == 0.0:
                        continue
                    f = f + (-2.0 * coeff) * coordinate(r + m + a, n) * gamma.with_dimension(n)
            comps[(j, k)] = f
    return comps


def test_builder_sums_each_leading_entry_once():
    # each leading entry is one add of lambda_jk and one product per
    # (Gamma^i_jk, g_ia) pair: the same tree, node for node, as the sum
    # formed term by term
    rng = np.random.default_rng(21)
    for r in (1, 2, 3):
        for m in (0, 2):
            ext = random_extension_spec(rng, r, m)
            for g_ia in (np.eye(r), random_nonsingular_constant(rng, r)):
                spec = ExtensionSpec(r=r, m=m, base_connection=ext.base_connection,
                                     lam=ext.lam, g_ia=g_ia)
                g = build_pullback_extension(spec)
                for (j, k), f in _operator_built_extension(spec).items():
                    assert g.component(j, k) == f
                    assert g.component(j, k).to_text() == f.to_text()


def test_restriction_to_zero_section_is_exact():
    rng = np.random.default_rng(9)
    spec = random_extension_spec(rng, 2, 2)
    g = build_pullback_extension(spec)
    q, n = spec.r + spec.m, spec.n
    zeros = {a: 0.0 for a in range(q + 1, n + 1)}
    for mu in range(1, q + 1):
        for nu in range(mu, q + 1):
            restricted = g.component(mu, nu).substitute(zeros)
            assert restricted.same_expression(spec.lam_component(mu, nu))


# ---------------------------------------------------------------------------
# Killing operator
# ---------------------------------------------------------------------------


def test_killing_operator_of_zero_form_vanishes():
    D = SymbolicConnection(2)
    omega = OneFormSection(2, 0, [0.0, 0.0])
    assert np.max(np.abs(killing_operator(D, omega, np.array([0.3, 0.4])))) == 0.0


def test_killing_operator_flat_shear():
    D = SymbolicConnection(2)
    omega = OneFormSection(2, 0, ["x2", 0.0])
    L = killing_operator(D, omega, np.array([0.7, -0.2]))
    assert np.allclose(L, [[0.0, 1.0], [1.0, 0.0]])


def test_killing_operator_constant_form_with_constant_connection():
    c = 0.9
    D = SymbolicConnection(1, {(1, 1, 1): c})
    omega = OneFormSection(1, 0, [1.0])
    L = killing_operator(D, omega, np.array([0.25]))
    assert abs(L[0, 0] + 2 * c) < 1e-15


def test_killing_operator_middle_block():
    D = SymbolicConnection(1)
    omega = OneFormSection(1, 2, ["x2*x3"])
    L = killing_operator(D, omega, np.array([0.5, 0.3, -0.4]))
    assert L.shape == (3, 3)
    assert abs(L[0, 1] + 0.4) < 1e-15  # d_2 omega_1 = x3
    assert abs(L[0, 2] - 0.3) < 1e-15  # d_3 omega_1 = x2
    assert L[1, 1] == L[1, 2] == L[2, 2] == 0.0
    assert np.allclose(L, L.T)


# ---------------------------------------------------------------------------
# fiber translation and the transformation rule
# ---------------------------------------------------------------------------


def test_translation_by_zero_form_is_identity():
    spec = random_extension_spec(np.random.default_rng(1), 1, 1)
    g = build_pullback_extension(spec)
    pts = sample_points(g, 10, seed=1)
    omega = OneFormSection(1, 1, [0.0])
    assert np.array_equal(
        fiber_translate_pullback(g, omega, spec.g_ia, pts), g.value(pts)
    )


def test_constant_translation_of_flat_extension_is_isometry():
    spec = ExtensionSpec(
        r=1, m=0, base_connection=SymbolicConnection(1), lam={(1, 1): 0.25}
    )
    g = build_pullback_extension(spec)
    pts = np.random.default_rng(2).uniform(-1, 1, (12, 2))
    omega = OneFormSection(1, 0, [0.8])
    assert np.allclose(
        fiber_translate_pullback(g, omega, spec.g_ia, pts), g.value(pts), atol=1e-15
    )


def test_fiber_translation_matches_finite_difference_jacobian():
    # independent route: build the translation map numerically and take its
    # Jacobian by central differences, then contract by hand
    rng = np.random.default_rng(14)
    spec = random_extension_spec(rng, 2, 1)
    g = build_pullback_extension(spec)
    omega = random_one_form(rng, 2, 1)
    n, q = spec.n, spec.r + spec.m
    ginv = np.linalg.inv(spec.g_ia)

    def translate(x):
        x = np.asarray(x, dtype=float)
        om = np.array([c.evaluate(x[:q]) for c in omega.components])
        out = x.copy()
        out[q:] += ginv @ om
        return out

    pts = sample_points(g, 5, seed=15)
    h = 1e-6
    for x in pts:
        jac = np.empty((n, n))
        for mu in range(n):
            step = np.zeros(n)
            step[mu] = h
            jac[:, mu] = (translate(x + step) - translate(x - step)) / (2 * h)
        oracle = np.einsum("ab,am,bn->mn", g.value(translate(x)), jac, jac)
        engine = fiber_translate_pullback(g, omega, spec.g_ia, x)
        assert np.max(np.abs(engine - oracle)) < 1e-7


def test_fiber_translation_rejects_mismatched_section():
    spec = ExtensionSpec(r=1, m=1, base_connection=SymbolicConnection(1))
    g = build_pullback_extension(spec)
    wrong = OneFormSection(1, 0, ["x1"])
    with pytest.raises(ValueError):
        fiber_translate_pullback(g, wrong, spec.g_ia, np.zeros(3))


def test_transformation_rule_on_random_data():
    rng = np.random.default_rng(3)
    for (r, m) in [(1, 0), (1, 1), (2, 0), (2, 1)]:
        spec = random_extension_spec(rng, r, m)
        g = build_pullback_extension(spec)
        pts = sample_points(g, 20, seed=10 + r + m)
        omega = random_one_form(rng, r, m)
        assert transformation_rule_residual(g, spec, omega, pts).residual < 1e-9


def test_transformation_rule_rows_share_one_read_of_g(monkeypatch):
    # the check row's three sections share one read of g's trailing rows, one
    # of their trailing partials, both at the points, and one of D: g is
    # never evaluated at translated points, and each section's partials are
    # derived once, when it is built
    rng = np.random.default_rng(5)
    for (r, m) in [(1, 0), (2, 1), (3, 2)]:
        spec = random_extension_spec(rng, r, m)
        g = build_pullback_extension(spec)
        g._nonzero(2)  # the tables a fresh metric builds on first use
        pts = sample_points(g, 20, seed=r + m)
        omegas = [random_one_form(rng, r, m) for _ in range(3)]
        reads, partials, connection_reads = [], [], []
        read = MetricField._slot_blocks
        monkeypatch.setattr(MetricField, "_slot_blocks", lambda self, order, x, *blocks: (
            reads.append((order, x)) or read(self, order, x, *blocks)))
        gamma = SymbolicConnection.gamma
        monkeypatch.setattr(SymbolicConnection, "gamma", lambda self, x, block=(): (
            connection_reads.append(x) or gamma(self, x, block)))
        partial = ScalarField.partial
        monkeypatch.setattr(ScalarField, "partial",
                            lambda self, i: partials.append(i) or partial(self, i))
        rows = _transformation_rule_rows(g, spec, omegas, pts)
        monkeypatch.undo()
        assert [order for order, _ in reads] == [0, 1]
        assert all(np.array_equal(x, pts) for _, x in reads)
        assert len(connection_reads) == 1  # D, for the three Killing matrices
        assert partials == []
        for row, omega in zip(rows, omegas):
            one = transformation_rule_residual(g, spec, omega, pts)
            assert (row.residual, row.worst_point.tolist()) == (one.residual,
                                                                one.worst_point.tolist())


def _off_walker(g, rng):
    """g plus, in every slot with a trailing index, a random polynomial of
    the leading+middle coordinates times (1 + x^a) for one trailing a: still
    affine in the trailing coordinates, but no longer of Walker form, so
    g's trailing rows and their partials d_a g are not constants and zeros."""
    n, q = g.n, g.n - g.chart.r
    comps = {(mu, nu): g.component(mu, nu) for mu in range(1, n + 1) for nu in range(mu, n + 1)}
    for mu, nu in comps:
        if nu > q:
            a = int(rng.integers(q + 1, n + 1))
            bump = random_polynomial(rng, n, scale=0.3, variables=range(1, q + 1))
            comps[(mu, nu)] = comps[(mu, nu)] + bump * (1.0 + coordinate(a, n))
    return MetricField(g.chart, comps)


def test_transformation_rule_difference_agrees_with_the_shifted_form():
    # on metrics affine in the trailing coordinates (built extensions, and
    # the same off Walker form) the difference from g's trailing rows and
    # d_a g is the translated evaluation of g minus g, to a few ulps of the
    # entries that the latter subtracts
    rng = np.random.default_rng(17)
    for case in range(24):
        r, m = [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2), (3, 1), (3, 2)][case % 8]
        spec = random_extension_spec(rng, r, m)
        built = build_pullback_extension(spec)
        pts = sample_points(built, 20, seed=case)
        omega = random_one_form(rng, r, m)
        trail = built.chart.trailing
        for g in (built, _off_walker(built, rng)):
            assert not np.any(g._nonzero(2)[trail, trail])
            diff = _translation_difference(g._slot_blocks(0, pts, (trail,))[0],
                                           g._slot_blocks(1, pts, (trail,))[0],
                                           np.linalg.inv(spec.g_ia), *omega.jet(pts))
            pulled, at = fiber_translate_pullback(g, omega, spec.g_ia, pts), g.value(pts)
            # an ulp of the entries that the shifted form subtracts
            ulp = np.finfo(float).eps * max(np.max(np.abs(pulled)), np.max(np.abs(at)))
            assert np.max(np.abs(diff - (pulled - at))) <= 4 * ulp


FALSE_FAIL_2 = {"kind": "extension", "r": 1, "m": 1, "D_1_1_1": "x1", "lambda_1_1": "x2",
                "h_2_2": "1", "checks": ["transformation_rule"]}


@pytest.mark.parametrize("g_ia", [1.0, 1e6, 1e8, 1e10, 1e12])
def test_transformation_rule_passes_at_any_scale_of_g_ia(tmp_path, g_ia):
    # the shifted form cancels entries of size |g_ia| and read 2.7e-8 (a
    # FAIL) at 1e8; the difference form's terms are of the section's size
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(dict(FALSE_FAIL_2, g_ia=[[g_ia]])), encoding="utf-8")
    [record] = cli.run_checks(cli.load_spec(str(path))).checks
    assert record.passed and record.residual <= 1e-15


@settings(max_examples=30, derandomize=True, deadline=None)
@given(shape=st.sampled_from([(1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 1), (3, 2)]),
       seed=st.integers(0, 2 ** 16), s=st.sampled_from([1.0, 1e3, 1e6, 1e9, 1e12]))
def test_transformation_rule_is_invariant_under_scaling_g_ia(shape, seed, s):
    # x^a = s y^a on the trailing block maps the extension of [g_ia] to that
    # of s [g_ia], a change of coordinates, so the row's verdict and its
    # rounding-level residual must not move with s (s >= 1: below that the
    # sampling floor on |det g| refuses the file)
    r, m = shape
    ext = random_extension_spec(np.random.default_rng(seed), r, m)
    ext = ExtensionSpec(r=r, m=m, base_connection=ext.base_connection, lam=ext.lam,
                        g_ia=s * ext.g_ia)
    spec = cli.ProblemSpec(kind="extension", path="", checks=["transformation_rule"],
                           samples=20, seed=seed, extension=ext)
    [record] = cli.run_checks(spec).checks
    assert record.passed and record.residual <= 1e-14


def test_transformation_rule_keeps_the_shifted_form_off_affine_metrics():
    # g_11 + 0.1 (x3)^2 is not affine in the fiber coordinate, so the
    # difference form does not hold: the row is the translated evaluation
    # of g, bit for bit, and fails
    spec = ExtensionSpec(r=1, m=1, base_connection=SymbolicConnection(1, {(1, 1, 1): "x1"}),
                         lam={(1, 1): "x2", (2, 2): 1.0})
    built = build_pullback_extension(spec)
    comps = {(mu, nu): built.component(mu, nu) for mu in range(1, 4) for nu in range(mu, 4)}
    comps[(1, 1)] = comps[(1, 1)] + 0.1 * coordinate(3, 3) ** 2
    g = MetricField(built.chart, comps)
    pts = sample_points(g, 20, seed=42)
    omega = random_one_form(np.random.default_rng(42), 1, 1)
    shifted = fiber_translate_pullback(g, omega, spec.g_ia, pts) - g.value(pts)
    killing = killing_operator(spec.base_connection, omega, pts)
    shifted[..., :2, :2] -= killing
    want = _reduced("transformation_rule", pts, shifted)
    row = transformation_rule_residual(g, spec, omega, pts)
    assert (row.residual, row.worst_point.tolist()) == (want.residual, want.worst_point.tolist())
    assert row.residual > 1e-3
    affine = _translation_difference(g._slot_blocks(0, pts, (slice(2, 3),))[0],
                                     g._slot_blocks(1, pts, (slice(2, 3),))[0],
                                     np.linalg.inv(spec.g_ia), *omega.jet(pts))
    affine[..., :2, :2] -= killing
    assert _reduced("transformation_rule", pts, affine).residual != row.residual


def test_rotational_form_is_isometry_when_killing_vanishes():
    # flat base connection, omega = (x2, -x1): L omega = 0, so the
    # translation is an isometry of the built metric
    spec = random_extension_spec(np.random.default_rng(4), 2, 0)
    spec = ExtensionSpec(r=2, m=0, base_connection=SymbolicConnection(2),
                         lam=spec.lam, g_ia=spec.g_ia)
    g = build_pullback_extension(spec)
    omega = OneFormSection(2, 0, ["x2", "-x1"])
    pts = sample_points(g, 20, seed=11)
    L = killing_operator(spec.base_connection, omega, pts)
    assert np.max(np.abs(L)) == 0.0
    diff = fiber_translate_pullback(g, omega, spec.g_ia, pts) - g.value(pts)
    assert np.max(np.abs(diff)) < 1e-9


# ---------------------------------------------------------------------------
# the vertical metric (the middle block of g) and canonical fields
# ---------------------------------------------------------------------------


def middle_block(g, x):
    mid = g.chart.middle
    return g.value(x)[..., mid, mid]


def test_recover_vertical_metric_identity_fiber():
    spec = ExtensionSpec(
        r=1, m=2, base_connection=SymbolicConnection(1),
        lam={(2, 2): 1.0, (3, 3): 1.0},
    )
    g = build_pullback_extension(spec)
    assert np.array_equal(middle_block(g, np.zeros(4)), np.eye(2))
    assert g.component(2, 2).same_expression(spec.h_component(2, 2))


def test_recover_vertical_metric_empty_for_midless_charts():
    g = build_pullback_extension(ExtensionSpec(r=1, m=0, base_connection=SymbolicConnection(1)))
    assert middle_block(g, np.zeros(2)).shape == (0, 0)


def test_recover_vertical_metric_evaluates_section_data():
    spec = ExtensionSpec(
        r=1, m=1, base_connection=SymbolicConnection(1),
        lam={(2, 2): "1 + x1^2"},
    )
    g = build_pullback_extension(spec)
    out = middle_block(g, np.array([2.0, 0.3, -0.5]))
    assert abs(out[0, 0] - 5.0) < 1e-15


def test_canonical_vertical_field_examples():
    assert np.allclose(canonical_vertical_field([1.0, 0.0], np.eye(2)), [1.0, 0.0])
    assert np.array_equal(canonical_vertical_field([0.0], [[3.0]]), [0.0])
    assert np.allclose(canonical_vertical_field([6.0], [[2.0]]), [3.0])
    with pytest.raises(SingularMetricError):
        canonical_vertical_field([1.0], [[0.0]])


def test_canonical_field_represents_base_covector():
    rng = np.random.default_rng(6)
    spec = random_extension_spec(rng, 2, 1)
    g = build_pullback_extension(spec)
    pts = sample_points(g, 15, seed=12)
    xi = np.array([0.7, -1.2])
    v = canonical_vertical_field(xi, spec.g_ia)
    w = np.concatenate([np.zeros(spec.r + spec.m), v])
    gv = np.einsum("...ij,j->...i", g.value(pts), w)
    # g(v, d_j) = xi_j on the leading block, zero elsewhere
    assert np.max(np.abs(gv[:, : spec.r] - xi)) < 1e-12
    assert np.max(np.abs(gv[:, spec.r:])) < 1e-12


def test_canonical_field_is_parallel_along_leaves():
    rng = np.random.default_rng(7)
    for (r, m) in [(1, 1), (2, 0), (2, 2)]:
        spec = random_extension_spec(rng, r, m)
        g = build_pullback_extension(spec)
        pts = sample_points(g, 20, seed=13 + m)
        v = canonical_vertical_field(rng.uniform(-1, 1, r), spec.g_ia)
        assert canonical_field_parallelism(g, v, pts).residual < 1e-10


# ---------------------------------------------------------------------------
# forward round trip on random data
# ---------------------------------------------------------------------------


def test_forward_round_trip_conclusions():
    rng = np.random.default_rng(8)
    spec = random_extension_spec(rng, 2, 1)
    g = build_pullback_extension(spec)
    pts = sample_points(g, 30, seed=14)
    conn = christoffel(g)
    P = DistributionSpec.null_block(g.chart)
    V = DistributionSpec.orthocomplement(g.chart)
    assert check_null(g, P, pts).residual == 0.0
    assert check_parallel(conn, P, pts).residual < 1e-10
    assert check_projectable(conn, P, pts).residual < 1e-10
    assert check_projectable(conn, V, pts).residual < 1e-10
    assert curvature_condition(conn, V, pts).residual < 1e-10
