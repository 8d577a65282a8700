"""Parser, exact differentiation and evaluation of scalar fields."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkergeom.corpus import random_polynomial
from walkergeom.expr import (
    EvaluationError,
    ExpressionError,
    ExpressionSyntaxError,
    ScalarField,
    VariableRangeError,
    coordinate,
    parse_expression,
)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_product():
    f = parse_expression("x1*x1", 2)
    assert f.evaluate([3.0, 0.0]) == 9.0


def test_parse_sin_at_zero():
    f = parse_expression("sin(x1)", 1)
    assert f.evaluate([0.0]) == 0.0


def test_parse_trailing_operator_is_syntax_error():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("x1 +", 1)
    assert err.value.position == 4


def test_parse_reports_position():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("x1 * (x1 + ", 1)
    assert err.value.position == len("x1 * (x1 + ")


def test_parse_variable_out_of_range():
    with pytest.raises(VariableRangeError):
        parse_expression("x1 + x3", 2)


def test_parse_unknown_name():
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("tan(x1)", 1)
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("sinn(x1)", 1)


def test_parse_rejects_zero_coordinate_index():
    with pytest.raises(VariableRangeError):
        parse_expression("x0", 2)


def test_parse_survives_overflowing_constant_folds():
    # folding falls back to the unfolded node instead of overflowing
    assert parse_expression("2^999999999", 1) is not None
    assert parse_expression("exp(999999)", 1) is not None


@pytest.mark.parametrize("text", [
    "1e400", "sin(1e400)", "1e308*10*x1", "x1*1e308*10", "x1 + 1e308 + 1e308",
    "(1e200*1e200)/(1e200*1e200)", "1e200/1e-200",
])
def test_parse_refuses_non_finite_constants(text):
    # rendered, such a constant would read "inf" or "nan", which no file may hold
    with pytest.raises(ExpressionSyntaxError, match="constant is not finite"):
        parse_expression(text, 1)


def test_parse_whitespace_and_nesting():
    f = parse_expression("  ( x1 + 2 ) * exp( cos(x2) )  ", 2)
    x = np.array([0.5, 0.25])
    expected = (0.5 + 2) * np.exp(np.cos(0.25))
    assert abs(f.evaluate(x) - expected) < 1e-15


def test_parse_number_formats():
    f = parse_expression("1.5e-3 + 2. + .25 + 3e2", 1)
    assert abs(f.evaluate([0.0]) - (1.5e-3 + 2.0 + 0.25 + 300.0)) < 1e-15


def test_parse_negative_exponent():
    f = parse_expression("x1^-2", 1)
    assert abs(f.evaluate([2.0]) - 0.25) < 1e-15


def test_parse_unary_minus():
    f = parse_expression("-x1 + (-2)*x2", 2)
    assert f.evaluate([1.0, 3.0]) == -7.0


def test_parse_precedence():
    f = parse_expression("1 + 2*x1^2/4 - 3", 1)
    assert abs(f.evaluate([2.0]) - (1 + 2 * 4 / 4 - 3)) < 1e-15


@pytest.mark.parametrize("deep", [
    "(" * 3000 + "x1" + ")" * 3000,
    "sin(" * 3000 + "x1" + ")" * 3000,
    "x1" + "/2" * 3000,
], ids=["parentheses", "calls", "quotients"])
def test_parse_rejects_nesting_deeper_than_limit(deep):
    with pytest.raises(ExpressionSyntaxError, match="nested deeper") as err:
        parse_expression(deep, 1)
    assert 0 < err.value.position < len(deep)


def test_parse_accepts_nesting_at_limit():
    f = parse_expression("(" * 100 + "x1" + ")" * 100, 1)
    assert f.evaluate([0.5]) == 0.5
    g = parse_expression("sin(" * 100 + "x1" + ")" * 100, 1)
    assert abs(g.partial(1).evaluate([0.0]) - 1.0) < 1e-15


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_evaluate_product_point():
    assert parse_expression("x1*x2", 2).evaluate((2.0, 3.0)) == 6.0


def test_evaluate_exp_zero():
    assert parse_expression("exp(x1)", 2).evaluate((0.0, 5.0)) == 1.0


def test_evaluate_division_by_zero_reports_subexpression():
    f = parse_expression("1/x1", 1)
    with pytest.raises(EvaluationError) as err:
        f.evaluate([0.0])
    assert "x1" in err.value.subexpression


def test_evaluate_checks_point_length():
    with pytest.raises(ValueError):
        parse_expression("x1", 2).evaluate([1.0])


def test_evaluate_batch_matches_scalar():
    f = parse_expression("sin(x1)*x2 + x1^3", 2)
    pts = np.random.default_rng(1).uniform(-1, 1, (40, 2))
    batch = f.evaluate(pts)
    singles = np.array([f.evaluate(p) for p in pts])
    assert np.array_equal(batch, singles)


@pytest.mark.parametrize("text", ["exp(700*x1)", "x1*exp(1000)", "2^9999", "0^-1", "1/(2-2)"])
def test_single_point_and_batch_agree_beyond_float_range(text):
    f = parse_expression(text, 1)
    with np.errstate(all="ignore"):
        single = f.evaluate([2.0], checked=False)
        batch = f.evaluate([[2.0]], checked=False)
    assert single == batch[0] == np.inf


def test_substituting_infinity_into_a_call_keeps_it_unfolded():
    f = parse_expression("sin(x1)", 1).substitute({1: float("inf")})
    with np.errstate(invalid="ignore"):
        assert np.isnan(f.evaluate([0.0]))


def test_unchecked_evaluation_propagates_inf():
    f = parse_expression("1/x1", 1)
    with np.errstate(divide="ignore"):
        val = f.evaluate(np.array([[0.0]]), checked=False)
    assert np.isinf(val).all()


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------


def test_partial_power_rule():
    d = parse_expression("x1^2", 1).partial(1)
    assert d.evaluate([3.0]) == 6.0


def test_partial_of_constant_is_zero_field():
    d = ScalarField.constant(5.0, 3).partial(2)
    assert d.is_zero
    assert d.evaluate([9.0, 9.0, 9.0]) == 0.0


def test_second_partial_sin():
    dd = parse_expression("sin(x1)", 1).partial(1).partial(1)
    assert dd.evaluate([0.0]) == 0.0
    assert abs(dd.evaluate([np.pi / 2]) + 1.0) < 1e-15


def test_partial_index_out_of_range():
    with pytest.raises(VariableRangeError):
        parse_expression("x1", 1).partial(2)


def test_quotient_rule_against_finite_difference():
    f = parse_expression("(x1 + x2^2)/(2 + sin(x1*x2))", 2)
    d = f.partial(1)
    x = np.array([0.4, -0.7])
    h = 1e-6
    fd = (f.evaluate(x + [h, 0]) - f.evaluate(x - [h, 0])) / (2 * h)
    assert abs(d.evaluate(x) - fd) < 1e-8


def test_derivative_matches_centered_difference_on_random_polynomials():
    # 200 random polynomial fields, random points, step 1e-5
    rng = np.random.default_rng(2024)
    h = 1e-5
    for _ in range(200):
        n = int(rng.integers(1, 6))
        f = random_polynomial(rng, n, degree=3, max_terms=4)
        i = int(rng.integers(1, n + 1))
        d = f.partial(i)
        x = rng.uniform(-1, 1, n)
        step = np.zeros(n)
        step[i - 1] = h
        fd = (f.evaluate(x + step) - f.evaluate(x - step)) / (2 * h)
        fx = f.evaluate(x)
        assert abs(d.evaluate(x) - fd) <= 1e-6 * (1 + abs(fx))


def test_mixed_partials_commute_exactly_on_polynomials():
    rng = np.random.default_rng(7)
    for _ in range(120):
        n = int(rng.integers(2, 6))
        f = random_polynomial(rng, n, degree=4, max_terms=4)
        i, j = (int(v) for v in rng.integers(1, n + 1, 2))
        a = f.partial(i).partial(j)
        b = f.partial(j).partial(i)
        pts = rng.uniform(-1.5, 1.5, (15, n))
        assert np.array_equal(
            np.asarray(a.evaluate(pts)), np.asarray(b.evaluate(pts))
        )


def test_mixed_partials_commute_on_transcendental_fields():
    # without like-term collection the two evaluation orders may differ by ulps
    sources = [
        "sin(x1*x2)*exp(x2)",
        "x1^2/(1 + x2^2) + cos(x1*x2)",
        "exp(x1^2*x2)/(2 + sin(x2))",
        "sin(cos(x1) + x2^3)*x1",
    ]
    rng = np.random.default_rng(8)
    pts = rng.uniform(-1.5, 1.5, (50, 2))
    for src in sources:
        f = parse_expression(src, 2)
        va = f.partial(1).partial(2).evaluate(pts)
        vb = f.partial(2).partial(1).evaluate(pts)
        scale = 1.0 + np.max(np.abs(va))
        assert np.max(np.abs(va - vb)) < 1e-12 * scale


# ---------------------------------------------------------------------------
# substitution, rendering, misc
# ---------------------------------------------------------------------------


def test_substitute_constants_restores_summand_exactly():
    lam = parse_expression("x1 + x2^2", 4)
    built = lam + (-2.0) * coordinate(4, 4) * coordinate(3, 4)
    assert built.substitute({3: 0.0, 4: 0.0}) == lam.with_dimension(4)


def test_substitute_field_values():
    f = parse_expression("x1^2 + x2", 2)
    g = f.substitute({1: parse_expression("x2 + 1", 2)})
    assert abs(g.evaluate([99.0, 2.0]) - (9.0 + 2.0)) < 1e-15


def test_render_polynomials_structurally_round_trips():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        f = random_polynomial(rng, n, degree=3, max_terms=4)
        assert parse_expression(f.to_text(), n) == f


def test_render_round_trips_by_value():
    rng = np.random.default_rng(12)
    sources = [
        "(x1 + x2)^3/(3 + x1^2) - sin(x1)*cos(x2)",
        "-x1/(x2 - 2) + exp(x1*x2)^2",
        "1/(1 + x1^2)/(1 + x2^2)",
    ]
    pts = rng.uniform(-0.9, 0.9, (25, 2))
    for src in sources:
        f = parse_expression(src, 2)
        for d in (f, f.partial(1), f.partial(2).partial(1)):
            g = parse_expression(d.to_text(), 2)
            assert np.allclose(
                d.evaluate(pts, checked=False), g.evaluate(pts, checked=False),
                rtol=1e-14, atol=1e-14,
            )


def test_operator_dimension_promotion():
    f = coordinate(1, 1) * coordinate(3, 3)
    assert f.n == 3
    assert f.evaluate([2.0, 0.0, 4.0]) == 8.0


def test_with_dimension_rejects_truncation_below_used_vars():
    f = parse_expression("x3", 3)
    with pytest.raises(VariableRangeError):
        f.with_dimension(2)


def test_structural_equality_and_hash():
    a = parse_expression("x1*x2 + 1", 2)
    b = parse_expression("x1*x2 + 1", 2)
    c = parse_expression("x2*x1 + 1", 2)
    assert a == b and hash(a) == hash(b)
    assert a != c  # no commutativity rewriting
    for x, y in [("sin(x1)", "cos(x1)"), ("x1^2", "x1^3"), ("x1/x2", "x2/x1"), ("x1", "1.0")]:
        assert parse_expression(x, 2) != parse_expression(y, 2)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="x123+-*/^(). sincoexp", max_size=30))
def test_parser_never_crashes(text):
    try:
        parse_expression(text, 3)
    except ExpressionError:
        pass
