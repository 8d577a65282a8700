"""Problem-file loading, check orchestration, report emission, exit codes."""

import json
import math
import pathlib
import re
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from walkergeom import ScalarField, check_walker_form, christoffel, cli, transport
from walkergeom.corpus import random_extension_spec
from walkergeom.cli import (
    SpecFormatError,
    build_components,
    load_spec,
    main,
    run_checks,
    run_transport,
)


def write(tmp_path, payload, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


MINIMAL_METRIC = {"kind": "metric", "n": 2, "g_1_1": "1", "g_2_2": "1"}

EXTENSION = {
    "kind": "extension",
    "r": 1,
    "m": 1,
    "D_1_1_1": "x1",
    "lambda_1_1": "x2",
    "lambda_1_2": "0.5*x1*x2",
    "h_2_2": "1 + x1^2",
    "samples": 40,
}


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def test_load_minimal_metric_applies_defaults(tmp_path):
    spec = load_spec(write(tmp_path, MINIMAL_METRIC))
    assert spec.kind == "metric"
    assert (spec.samples, spec.seed, spec.tolerance) == (100, 42, 1e-8)
    assert spec.checks == ["null", "parallel", "projectable", "curvature_condition"]
    assert spec.metric.n == 2


def test_load_extension_applies_default_suite(tmp_path):
    spec = load_spec(write(tmp_path, {"kind": "extension", "r": 1, "m": 1}))
    assert spec.checks == ["null", "parallel", "projectable", "curvature_condition",
                           "projected_connection", "vertical_metric", "transformation_rule"]


def test_load_extension_with_all_zero_data_defaults_identity_block(tmp_path):
    spec = load_spec(write(tmp_path, {"kind": "extension", "r": 1, "m": 1}))
    assert spec.extension is not None
    assert np.array_equal(spec.extension.g_ia, np.eye(1))
    assert "transformation_rule" in spec.checks


def test_load_rejects_out_of_range_component(tmp_path):
    payload = {"kind": "metric", "n": 4, "g_1_5": "1"}
    with pytest.raises(SpecFormatError, match="out of range"):
        load_spec(write(tmp_path, payload))


def test_load_rejects_unknown_key(tmp_path):
    payload = dict(MINIMAL_METRIC, metric_name="flat")
    with pytest.raises(SpecFormatError, match="unknown key"):
        load_spec(write(tmp_path, payload))


@pytest.mark.parametrize("payload, component", [
    (dict(MINIMAL_METRIC, g_1_2="x1", g_2_1="x2"), "g_2_1"),
    ({"kind": "extension", "r": 2, "m": 0, "D_1_1_2": "x1", "D_1_2_1": "x2"},
     "Gamma_1_2_1"),
    (dict(EXTENSION, lambda_2_1="x2"), "lambda_2_1"),
    ({"kind": "extension", "r": 1, "m": 2, "h_2_3": "x1", "h_3_2": "x2"}, "lambda_3_2"),
], ids=["g_", "D_", "lambda_", "h_"])
def test_load_rejects_asymmetric_duplicates(tmp_path, payload, component):
    with pytest.raises(SpecFormatError, match=f"asymmetric duplicate entries for '{component}'"):
        load_spec(write(tmp_path, payload))


def test_load_rejects_zero_padded_index(tmp_path):
    # "g_01_2" would be a second spelling of g_1_2
    payload = dict(MINIMAL_METRIC, g_1_2="x1", g_01_2="x2")
    with pytest.raises(SpecFormatError, match="unknown key 'g_01_2'"):
        load_spec(write(tmp_path, payload))


def test_load_accepts_symmetric_duplicates(tmp_path):
    payload = dict(MINIMAL_METRIC)
    payload["g_1_2"] = "x1"
    payload["g_2_1"] = "x1"
    spec = load_spec(write(tmp_path, payload))
    assert spec.metric.component(2, 1).to_text() == "x1"


def test_load_reports_expression_errors(tmp_path):
    payload = dict(MINIMAL_METRIC, g_1_2="x1 +")
    with pytest.raises(SpecFormatError, match="bad expression"):
        load_spec(write(tmp_path, payload))


def test_load_reports_json_errors(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"kind": "metric",')
    with pytest.raises(SpecFormatError, match="parse error"):
        load_spec(str(path))


def test_load_rejects_lambda_in_middle_block(tmp_path):
    payload = {"kind": "extension", "r": 1, "m": 1, "lambda_2_2": "1"}
    with pytest.raises(SpecFormatError, match="middle-middle"):
        load_spec(write(tmp_path, payload))


def test_load_rejects_extension_checks_on_metric(tmp_path):
    payload = dict(MINIMAL_METRIC, checks=["vertical_metric"])
    with pytest.raises(SpecFormatError, match="extension problems only"):
        load_spec(write(tmp_path, payload))


TRANSPORT = {"curve": ["x1", "0.1*x1", "0.2*x1"], "w0": [1.0, 0.0, 0.0]}


@pytest.mark.parametrize("payload", [
    dict(MINIMAL_METRIC, samples="abc"),
    dict(MINIMAL_METRIC, n=None),
    dict(MINIMAL_METRIC, n="x"),
    dict(MINIMAL_METRIC, tolerance=[1]),
    dict(EXTENSION, transport=dict(TRANSPORT, step=0)),
    dict(EXTENSION, transport=dict(TRANSPORT, w0=["a", 0, 0])),
    dict(EXTENSION, transport=dict(TRANSPORT, w0=[float("nan"), 0, 0])),
    dict(EXTENSION, transport=dict(TRANSPORT, t_span="ab")),
    dict(EXTENSION, transport=dict(TRANSPORT, tolerance=-1)),
    dict(EXTENSION, g_ia=[["a"]]),
    dict(EXTENSION, g_ia=[[float("nan")]]),
    dict(MINIMAL_METRIC, n=2.9),
    dict(MINIMAL_METRIC, samples=True),
    dict(MINIMAL_METRIC, seed=1.5),
    dict(EXTENSION, transport=dict(TRANSPORT, step=1e-300)),
    dict(EXTENSION, transport=dict(TRANSPORT, t_span=[0.0, 1e12])),
    dict(MINIMAL_METRIC, g_1_1="1e400"),
    dict(EXTENSION, D_1_1_1="1e308*10*x1"),
    dict(MINIMAL_METRIC, n=100000),
    {"kind": "extension", "r": 3000, "m": 0},
    dict(MINIMAL_METRIC, n=3, r=2, middle=-1),
    dict(MINIMAL_METRIC, **{f"g_{'1' * 5000}_1": "1"}),
    dict(MINIMAL_METRIC, g_1_1="x1^" + "9" * 5000),
    dict(MINIMAL_METRIC, g_1_1="1 + x" + "1" * 5000),
    dict(MINIMAL_METRIC, g_1_1="1 + x1^" + "9" * 400),
], ids=["samples_text", "n_null", "n_text", "tolerance_list", "step_zero", "w0_text",
        "w0_nan", "t_span_text", "transport_tolerance_negative", "g_ia_text", "g_ia_nan",
        "n_fraction", "samples_bool", "seed_fraction", "step_tiny", "t_span_huge",
        "constant_literal_inf", "constant_fold_inf", "n_huge", "extension_huge",
        "middle_negative", "key_index_5000_digits", "exponent_5000_digits",
        "coordinate_index_5000_digits", "exponent_past_float_range"])
def test_main_refuses_malformed_values(tmp_path, capsys, payload):
    for verb in ("check", "transport"):
        assert main([verb, write(tmp_path, payload)]) == 2
        assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("payload, message", [
    (dict(MINIMAL_METRIC, **{f"g_{'1' * 5000}_1": "1"}),
     f"index out of range in 'g_{'1' * 5000}_1' (n=2)"),
    (dict(EXTENSION, **{f"D_1_{'2' * 5000}_1": "1"}),
     f"index out of range in 'D_1_{'2' * 5000}_1' (r=1)"),
], ids=["metric_key", "connection_key"])
def test_key_index_past_the_int_digit_limit_is_out_of_range(tmp_path, capsys, payload, message):
    assert main(["check", write(tmp_path, payload)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# numbers a problem file may hold in any numeric field: negative, fractional,
# boolean, huge, non-finite, missing or not numbers at all
HOSTILE_NUMBERS = st.one_of(
    st.integers(-2, 5),
    st.sampled_from([0.5, 2.0, -1.5, 1e300, 10**30, True, False, None, "3", "x", [1],
                     float("nan"), float("inf")]),
)
# an index or exponent: small, or with more digits than a float or an int holds
DIGITS = st.one_of(st.integers(0, 4).map(str), st.sampled_from(["1" * 400, "1" * 5000]))
EXPRESSIONS = st.one_of(
    st.sampled_from(["1", "x1", "x2*x3 - 0.5", "0.5*x1^2", "x²", "1e400"]),
    DIGITS.map(lambda d: "x" + d),
    DIGITS.map(lambda d: "x1^" + d),
    DIGITS.map(lambda d: "1 + x1^-" + d),
)


@st.composite
def hostile_problems(draw):
    """A valid n = 3 problem with a few fields replaced or added."""
    kind = draw(st.sampled_from(["metric", "extension"]))
    if kind == "metric":
        payload = {"kind": kind, "n": 3, "g_1_3": "1", "g_2_2": "1"}
        sizes, prefixes = ("n", "r", "middle"), [["g"] * 2]
    else:
        payload = {"kind": kind, "r": 1, "m": 1}
        sizes, prefixes = ("r", "m"), [["D"] * 3, ["lambda"] * 2, ["h"] * 2]
    payload["samples"] = 4
    names = st.sampled_from(sizes + ("samples", "seed", "tolerance"))
    payload.update(draw(st.dictionaries(names, HOSTILE_NUMBERS, max_size=2)))
    for _ in range(draw(st.integers(0, 2))):
        prefix = draw(st.sampled_from(prefixes))
        key = "_".join([prefix[0]] + [draw(DIGITS) for _ in prefix])
        payload[key] = draw(EXPRESSIONS)
    if draw(st.booleans()):
        lengths = st.just(3) | st.integers(2, 4)
        payload["transport"] = {"curve": ["0.1*x1"] * draw(lengths),
                                "w0": [1.0] * draw(lengths), "step": 0.1}
    return payload


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=hostile_problems())
@example(payload=dict(MINIMAL_METRIC, n=3, r=2, middle=-1))
@example(payload=dict(MINIMAL_METRIC, **{f"g_{'1' * 5000}_1": "1"}))
@example(payload=dict(MINIMAL_METRIC, g_1_1="x1^" + "9" * 5000))
@example(payload=dict(MINIMAL_METRIC, g_1_1="1 + x" + "1" * 5000))
@example(payload=dict(MINIMAL_METRIC, g_1_1="1 + x1^" + "9" * 400))
def test_main_never_raises_on_hostile_files(tmp_path, capsys, payload):
    path = write(tmp_path, payload)
    for verb in ("check", "transport"):
        code = main([verb, path])
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        assert code != 2 or err.startswith("error:")


def _raw(tmp_path, data: bytes) -> str:
    path = tmp_path / "raw.json"
    path.write_bytes(data)
    return str(path)


@pytest.mark.parametrize("argv, message", [
    (lambda t: [write(t, dict(MINIMAL_METRIC, samples=10**12))],
     r"^error: 'samples' must be at most 2097152 at n=2 \(samples \* n\^4 <= 33554432\)$"),
    (lambda t: [write(t, MINIMAL_METRIC), "--samples", str(10**12)],
     r"^error: 'samples' must be at most 2097152 at n=2"),
    (lambda t: [write(t, {"kind": "extension", "r": 3, "m": 2, "samples": 8193})],
     r"^error: 'samples' must be at most 8192 at n=8"),
    (lambda t: [_raw(t, b'{"kind": "metric", "n": 2, "g_1_1": "\xff"}')],
     r"^error: parse error in .*'utf-8' codec can't decode byte 0xff"),
    (lambda t: [_raw(t, b"[" * 10**5 + b"]" * 10**5)],
     r"^error: parse error in .*maximum recursion depth exceeded"),
    (lambda t: [_raw(t, b'{"kind": "metric", "n": 2, "samples": ' + b"9" * 5000 + b"}")],
     r"^error: parse error in .*integer string conversion"),
    (lambda t: [write(t, dict(MINIMAL_METRIC, n=17))], r"^error: 'n' must be at most 16$"),
    (lambda t: [write(t, {"kind": "extension", "r": 7, "m": 3})],
     r"^error: the extension's dimension 2r \+ m must be at most 16$"),
    (lambda t: [write(t, MINIMAL_METRIC), "--output", str(t / "missing" / "report.txt")],
     r"^error: cannot write '.*report\.txt': \[Errno 2\]"),
], ids=["samples_huge", "samples_override_huge", "samples_over_limit_n8", "not_utf8",
        "nested_1e5_deep", "integer_5000_digits", "n_over_limit", "extension_over_limit",
        "output_dir_missing"])
def test_main_refuses_unreadable_oversized_and_unwritable(tmp_path, capsys, argv, message):
    assert main(["check", *argv(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert re.match(message, err) and "Traceback" not in err


def test_sample_limit_admits_its_bound(tmp_path):
    n = 4
    samples = cli.MAX_SAMPLE_ENTRIES // n**4
    payload = {"kind": "metric", "n": n, "r": 2, "g_1_3": "1", "g_2_4": "1", "checks": ["null"]}
    report = run_checks(load_spec(write(tmp_path, dict(payload, samples=samples))))
    assert report.verdict and report.checks[0].residual == 0.0
    with pytest.raises(SpecFormatError, match=f"^'samples' must be at most {samples} at n=4"):
        run_checks(load_spec(write(tmp_path, dict(payload, samples=samples + 1))))


@pytest.mark.parametrize("key, value", [
    ("n", 2.9), ("r", 0.5), ("middle", 0.5), ("samples", True), ("samples", 12.5),
    ("seed", False), ("seed", 1.5),
])
def test_load_refuses_non_integral_counts(tmp_path, key, value):
    payload = dict(MINIMAL_METRIC, **{key: value})
    with pytest.raises(SpecFormatError, match=f"^'{key}' must be an integer$"):
        load_spec(write(tmp_path, payload))


def test_load_accepts_integral_float_counts(tmp_path):
    spec = load_spec(write(tmp_path, dict(MINIMAL_METRIC, n=2.0, samples=2000.0, seed=7.0)))
    assert (spec.metric.n, spec.samples, spec.seed) == (2, 2000, 7)
    assert all(type(v) is int for v in (spec.metric.n, spec.samples, spec.seed))


def test_load_caps_transport_steps(tmp_path):
    spec = load_spec(write(tmp_path, dict(EXTENSION, transport=dict(TRANSPORT, step=1e-5))))
    assert spec.transport.curve.step == 1e-5  # 10^5 steps on [0, 1]
    for transport in (dict(TRANSPORT, step=0.99e-5), dict(TRANSPORT, t_span=[-1e308, 1e308])):
        with pytest.raises(SpecFormatError,
                           match=f"ask for more than {cli.MAX_TRANSPORT_STEPS} steps$"):
            load_spec(write(tmp_path, dict(EXTENSION, transport=transport)))


def test_transport_step_cap_shrinks_above_n_8(tmp_path):
    # steps * n^3 <= MAX_TRANSPORT_STEPS * 8^3: 12500 steps at n = 16
    bound = cli.MAX_TRANSPORT_STEPS * 8 ** 3 // 16 ** 3
    assert bound == 12500
    transport = {"curve": ["0.01*x1"] * 16, "w0": [1.0] * 16, "step": 1.0}
    extension = {"kind": "extension", "r": 8, "m": 0}
    path = write(tmp_path, dict(extension, transport=dict(transport, t_span=[0, bound])))
    spec = load_spec(path)
    assert spec.extension.n == 16 and spec.transport.curve.t_span == (0.0, 12500.0)
    path = write(tmp_path, dict(extension, transport=dict(transport, t_span=[0, bound + 1])))
    with pytest.raises(SpecFormatError,
                       match="^transport 't_span' and 'step' ask for more than 12500 steps$"):
        load_spec(path)


def test_load_validates_transport_section(tmp_path):
    payload = dict(MINIMAL_METRIC, transport={"curve": ["x1"], "w0": [1, 0]})
    with pytest.raises(SpecFormatError, match="curve"):
        load_spec(write(tmp_path, payload))


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def test_run_checks_extension_suite_passes(tmp_path):
    spec = load_spec(write(tmp_path, EXTENSION))
    report = run_checks(spec)
    assert report.verdict
    names = [c.name for c in report.checks]
    assert "projectable:s=r" in names and "projectable:s=n-r" in names
    assert all(c.residual <= 1e-8 for c in report.checks)


def test_run_checks_identity_metric_null_fails_with_residual_one(tmp_path):
    payload = dict(MINIMAL_METRIC, checks=["null"])
    report = run_checks(load_spec(write(tmp_path, payload)))
    assert not report.verdict
    record = report.checks[0]
    assert record.name == "null" and not record.passed
    assert record.residual == 1.0


def test_run_checks_is_deterministic(tmp_path):
    path = write(tmp_path, EXTENSION)
    a = run_checks(load_spec(path)).to_json()
    b = run_checks(load_spec(path)).to_json()
    assert a.encode() == b.encode()


def test_run_checks_records_errors_without_aborting(tmp_path):
    # degenerate metric: sampling cannot find admissible points
    payload = {"kind": "metric", "n": 2, "g_1_1": "0", "checks": ["null"]}
    report = run_checks(load_spec(write(tmp_path, payload)))
    assert not report.verdict
    assert report.checks[0].error is not None


def test_walker_checks_on_metric_problem(tmp_path):
    payload = {
        "kind": "metric",
        "n": 4,
        "r": 1,
        "middle": 2,
        "g_1_1": "x2*x4",
        "g_1_4": "1",
        "g_2_2": "1",
        "g_3_3": "1",
        "checks": ["walker_form", "walker_projectability", "projectable"],
    }
    report = run_checks(load_spec(write(tmp_path, payload)))
    byname = {c.name: c for c in report.checks}
    assert byname["walker_form:null_trailing_block"].passed
    assert not byname["walker_projectability"].passed
    assert not byname["projectable:s=r"].passed
    assert not report.verdict


def test_walker_checks_on_two_block_metric_are_error_rows(tmp_path):
    payload = dict(MINIMAL_METRIC, checks=["walker_form", "walker_projectability"])
    report = run_checks(load_spec(write(tmp_path, payload)))
    assert [(c.name, c.passed, c.residual, c.error) for c in report.checks] == [
        ("walker_form", False, None,
         "ValueError: check_walker_form requires a metric on a three-block chart"),
        ("walker_projectability", False, None,
         "ValueError: walker_projectability requires a metric on a three-block chart"),
    ]


def test_walker_form_rows_share_the_measured_time(tmp_path, monkeypatch):
    def slow_walker_form(*args, **kwargs):
        time.sleep(0.07)
        return check_walker_form(*args, **kwargs)

    monkeypatch.setattr(cli, "check_walker_form", slow_walker_form)
    payload = {"kind": "metric", "n": 4, "r": 1, "middle": 2, "g_1_4": "1", "g_2_2": "1",
               "g_3_3": "1", "checks": ["walker_form"]}
    report = run_checks(load_spec(write(tmp_path, payload)))
    assert len(report.checks) == 7
    assert all(c.name.startswith("walker_form:") for c in report.checks)
    assert all(c.wall_time >= 0.01 for c in report.checks)


VERTICAL_METRIC_ROW = {"name": "vertical_metric", "residual": 0.0, "pass": True,
                       "worst_point": None}


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("m", [0, 1, 2])
def test_vertical_metric_row_of_built_extensions(r, m):
    ext = random_extension_spec(np.random.default_rng(10 * r + m), r, m)
    spec = cli.ProblemSpec(kind="extension", path="", checks=["vertical_metric"],
                           samples=10, extension=ext)
    assert [c.to_dict() for c in run_checks(spec).checks] == [VERTICAL_METRIC_ROW]


def test_vertical_metric_row_of_demo_spec():
    path = pathlib.Path(__file__).parent.parent / "demos" / "specs" / "extension_r1m1.json"
    spec = load_spec(str(path))
    assert "vertical_metric" in spec.checks
    spec.checks = ["vertical_metric"]
    assert [c.to_dict() for c in run_checks(spec).checks] == [VERTICAL_METRIC_ROW]


def test_vertical_metric_row_fails_on_a_different_middle_block(tmp_path, monkeypatch):
    monkeypatch.setattr(ScalarField, "same_expression", lambda self, other: False)
    spec = load_spec(write(tmp_path, dict(EXTENSION, checks=["vertical_metric"])))
    assert [c.to_dict() for c in run_checks(spec).checks] == [
        {"name": "vertical_metric", "residual": None, "pass": False, "worst_point": None,
         "error": "non-finite residual: inf"}]


def test_run_transport_extension(tmp_path):
    payload = dict(
        EXTENSION,
        transport={
            "curve": ["x1", "0.5*x1^2", "0.3*x1"],
            "w0": [1.0, -0.5, 0.25],
            "step": 0.001,
        },
    )
    report = run_transport(load_spec(write(tmp_path, payload)))
    assert report.verdict
    names = [c.name for c in report.checks]
    assert names == ["transport_norm_preservation", "transport_projection_commutes"]


def test_run_transport_shares_one_solve_between_its_rows(monkeypatch):
    # both rows transport the same curve under the same Levi-Civita
    # connection, so its coefficients are built once; the report is the one
    # that a fresh connection per row gives
    spec = load_spec(str(pathlib.Path(__file__).parent.parent / "demos" / "specs"
                         / "extension_r1m1.json"))
    built = []
    coefficients = transport._coefficients

    def counted(conn, curve, ts):
        built.append(type(conn).__name__)
        return coefficients(conn, curve, ts)

    monkeypatch.setattr(transport, "_coefficients", counted)
    report = run_transport(spec)
    assert built.count("LeviCivitaConnection") == 1

    def fresh_connection(g, D, dist, curve, w0, conn=None):
        return transport.projection_commutes_residual(g, D, dist, curve, w0, conn=christoffel(g))

    monkeypatch.setattr(cli, "projection_commutes_residual", fresh_connection)
    built.clear()
    fresh = run_transport(spec)
    assert built.count("LeviCivitaConnection") == 2
    assert report.to_json() == fresh.to_json()
    assert report.to_text() == fresh.to_text()


def test_build_components_round_trips_through_metric_problem(tmp_path):
    spec = load_spec(write(tmp_path, EXTENSION))
    payload = build_components(spec)
    assert payload["kind"] == "metric"
    payload["checks"] = ["null", "parallel", "projectable", "curvature_condition"]
    path = write(tmp_path, payload, "rebuilt.json")
    report = run_checks(load_spec(path))
    assert report.verdict


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def test_main_check_exit_codes(tmp_path, capsys):
    path = write(tmp_path, EXTENSION)
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert "verdict: PASS" in out

    bad = write(tmp_path, dict(MINIMAL_METRIC, checks=["null"]), "bad.json")
    assert main(["check", bad]) == 1
    assert "verdict: FAIL" in capsys.readouterr().out


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


OVERFLOWING_METRIC = {"kind": "metric", "n": 2, "r": 1, "g_1_2": "1", "samples": 200}


@pytest.mark.parametrize("problem, nonfinite", [
    (EXTENSION, None),
    # exp(700 x2) overflows to NaN in the curvature terms, exp(709 x2) to
    # infinity in the projectability terms
    (dict(OVERFLOWING_METRIC, g_1_1="exp(700*x2)"), ("curvature_condition", "nan")),
    (dict(OVERFLOWING_METRIC, g_1_1="exp(709*x2)"), ("projectable", "inf")),
], ids=["extension", "nan_residual", "inf_residual"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_main_structured_output_is_json(tmp_path, capsys, problem, nonfinite):
    path = write(tmp_path, problem)
    assert main(["check", path, "--format", "report-structured"]) == (1 if nonfinite else 0)
    captured = capsys.readouterr()
    payload = json.loads(captured.out, parse_constant=_reject_constant)
    assert payload["verdict"] is (nonfinite is None)
    assert payload["seed"] == 42
    assert {"name", "residual", "pass", "worst_point"} <= set(payload["checks"][0])
    if nonfinite is not None:
        name, value = nonfinite
        record = next(c for c in payload["checks"] if c["name"] == name)
        assert record["residual"] is None and record["pass"] is False
        assert record["error"] == f"non-finite residual: {value}"
        assert captured.err == ""


# an exact Walker metric whose d_1 g_11 folds to inf*x1^99: the families of
# parallel, projectable and curvature_condition are structurally zero, so
# they read 0.0 at every point rather than inf*0 = NaN
OVERFLOWING_PARTIAL_WALKER = {"kind": "metric", "n": 3, "r": 1, "middle": 1,
                              "g_1_1": "1 + 1e307*x1^100", "g_1_3": "1", "g_2_2": "1"}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_main_structurally_zero_rows_read_zero_where_partials_overflow(tmp_path, capsys):
    path = write(tmp_path, OVERFLOWING_PARTIAL_WALKER)
    assert main(["check", path, "--format", "report-structured"]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out, parse_constant=_reject_constant)
    names = ["null", "parallel", "projectable:s=r", "projectable:s=n-r", "curvature_condition"]
    assert [(c["name"], c["residual"], c["pass"]) for c in payload["checks"]] == [
        (name, 0.0, True) for name in names]
    assert captured.err == ""


@pytest.mark.parametrize("expression", [
    "1/0", "1/(2-2)", "0^-1", "2^9999", "exp(1000)", "x2*exp(1000)",
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_main_constant_beyond_float_range_fails_sampling(tmp_path, capsys, expression):
    path = write(tmp_path, dict(OVERFLOWING_METRIC, g_1_1=expression))
    assert main(["check", path, "--format", "report-structured"]) == 1
    captured = capsys.readouterr()
    payload = json.loads(captured.out, parse_constant=_reject_constant)
    assert [(c["name"], c["pass"]) for c in payload["checks"]] == [("sampling", False)]
    assert captured.err == ""


def test_main_build_refuses_non_finite_constant(tmp_path, capsys):
    # built, 1e308*10 would be written as "inf", which the loader refuses
    assert main(["build", write(tmp_path, dict(EXTENSION, D_1_1_1="1e308*10*x1"))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad expression for 'D_1_1_1': constant is not finite")


def test_main_writes_output_file_and_respects_overrides(tmp_path, capsys):
    path = write(tmp_path, EXTENSION)
    out = tmp_path / "report.json"
    code = main([
        "check", path, "--format", "report-structured",
        "--output", str(out), "--samples", "25", "--seed", "7", "--tol", "1e-6",
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["seed"] == 7 and payload["tolerance"] == 1e-6


def test_main_build_verb(tmp_path, capsys):
    path = write(tmp_path, EXTENSION)
    assert main(["build", path]) == 0
    out = capsys.readouterr().out
    assert "g_1_1 = x2 - 2.0*x3*x1" in out


def test_main_deeply_nested_expression_is_usage_error(tmp_path, capsys):
    path = write(tmp_path, dict(MINIMAL_METRIC, g_1_1="(" * 3000 + "1" + ")" * 3000))
    assert main(["check", path]) == 2
    assert "error:" in capsys.readouterr().err


def test_main_usage_errors_repeat_in_one_process(capsys):
    # the parser is built once and reused; a second parse says the same
    errors = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exit_info:
            main(["frob"])
        assert exit_info.value.code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] and "invalid choice: 'frob'" in errors[0]


def _corpus_metric_problem(tmp_path) -> str:
    """The built metric of a corpus extension, as a problem file with every
    metric check."""
    ext = random_extension_spec(np.random.default_rng(17), 2, 1)
    payload = build_components(cli.ProblemSpec(kind="extension", path="", checks=[],
                                               extension=ext))
    payload.update(samples=60, checks=["null", "parallel", "projectable", "curvature_condition",
                                       "walker_form", "walker_projectability"])
    return write(tmp_path, payload, "corpus.json")


def test_structured_reports_carry_no_negative_zero_residual(tmp_path, capsys):
    specs = pathlib.Path(__file__).parent.parent / "demos" / "specs"
    runs = [("check", str(path)) for path in sorted(specs.glob("*.json"))]
    runs += [("transport", str(specs / "extension_r1m1.json")),
             ("check", _corpus_metric_problem(tmp_path))]
    zeros = 0
    for verb, path in runs:
        main([verb, path, "--format", "report-structured"])
        for record in json.loads(capsys.readouterr().out)["checks"]:
            if record["residual"] == 0.0:
                zeros += 1
                assert math.copysign(1.0, record["residual"]) > 0, (path, record)
    assert zeros > 0


def test_main_missing_file_is_usage_error(capsys):
    assert main(["check", "/nonexistent/problem.json"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["check", "transport"])
def test_main_rejects_bad_overrides(tmp_path, capsys, verb):
    path = write(tmp_path, dict(MINIMAL_METRIC, transport={"curve": ["x1", "0.1*x1"],
                                                           "w0": [1.0, 0.0]}))
    assert main([verb, path, "--samples", "0"]) == 2
    assert main([verb, path, "--seed", "-3"]) == 2
    assert main([verb, path, "--tol", "0"]) == 2
    capsys.readouterr()
    for flag, value, message in [
        ("--tol", "inf", "'--tol' must be numeric and finite"),
        ("--tol", "1e400", "'--tol' must be numeric and finite"),
        ("--seed", "1.5", "'--seed' must be an integer"),
        ("--samples", "abc", "'--samples' must be numeric and finite"),
        ("--samples", "0", "'--samples' must be positive"),
        ("--seed", "-3", "'--seed' must be non-negative"),
        ("--tol", "0", "'--tol' must be positive"),
    ]:
        assert main([verb, path, flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_main_samples_flag_accepts_what_the_file_accepts(tmp_path, capsys):
    # the report names its file, so every run reads the same path.  The
    # projectable residual here is max |x2| over the sample (d_2 Gamma^1_11 =
    # -x2), so the first 100 of 2000 seeded points do not attain it
    problem = {"kind": "metric", "n": 4, "r": 1, "middle": 2, "g_1_1": "x2^2*x4",
               "g_1_4": "1", "g_2_2": "1", "g_3_3": "1", "checks": ["projectable"],
               "tolerance": 10}
    reports = []
    for samples, flags in [(2000.0, []), (None, ["--samples", "2000.0"]), (None, [])]:
        path = write(tmp_path, problem if samples is None else dict(problem, samples=samples))
        assert main(["check", path, "--format", "report-structured", *flags]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1] != reports[2]


def test_main_transport_verb(tmp_path):
    payload = dict(
        EXTENSION,
        transport={"curve": ["x1", "0.1*x1", "0.2*x1"], "w0": [1.0, 0.0, 0.0]},
    )
    assert main(["transport", write(tmp_path, payload)]) == 0


def test_main_transport_without_section_errors(tmp_path, capsys):
    assert main(["transport", write(tmp_path, EXTENSION)]) == 2
    assert "transport" in capsys.readouterr().err
