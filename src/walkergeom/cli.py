"""Problem-file ingestion, check-suite orchestration, and report emission.

Problem files are flat JSON objects (see README for the schema).  A metric
problem carries a dimension, a trailing-span size ``r`` (optionally a
``middle`` size for the three-block form) and component expressions keyed
``g_<mu>_<nu>``; an extension problem carries ``r``, ``m``, base-connection
entries ``D_<i>_<j>_<k>``, section entries ``lambda_<mu>_<nu>``, vertical
metric entries ``h_<p>_<q>`` and an optional constant block ``g_ia``.

Verbs:

* ``check <file>``      run the requested residual checks, emit a report
* ``build <file>``      emit the built extension metric's components
* ``transport <file>``  run the transport section of the file

Reports are deterministic for a fixed (file, seed): identical runs produce
identical bytes.  Exit status is 0 exactly when the suite verdict is pass.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from .chart import ChartSplit
from .distributions import (
    CheckResult,
    DistributionSpec,
    _reduced,
    check_null,
    check_parallel,
    check_projectable,
    check_walker_form,
    curvature_condition,
    restrict_connection,
    walker_projectability,
)
from .expr import ExpressionError, parse_expression
from .extensions import ExtensionSpec, build_pullback_extension, transformation_rule_residual
from .corpus import random_one_form
from .sampling import sample_points
from .tensor import ConnectionField, MetricField, SymbolicConnection, christoffel
from .transport import CurveSpec, parallel_transport, projection_commutes_residual

__all__ = ["ProblemSpec", "Report", "CheckRecord", "SpecFormatError", "load_spec",
           "run_checks", "run_transport", "build_components", "main"]

# one ASCII spelling per index (no leading zeros), so two keys can name the
# same entry only as mirror images, which the component constructors compare
_INDEX = r"([0-9]|[1-9][0-9]+)"
_METRIC_KEY = re.compile(rf"^g_{_INDEX}_{_INDEX}$")
_CONN_KEY = re.compile(rf"^D_{_INDEX}_{_INDEX}_{_INDEX}$")
_LAMBDA_KEY = re.compile(rf"^lambda_{_INDEX}_{_INDEX}$")
_H_KEY = re.compile(rf"^h_{_INDEX}_{_INDEX}$")

_COMMON_KEYS = {"kind", "checks", "samples", "seed", "tolerance", "transport"}
_METRIC_KEYS = _COMMON_KEYS | {"n", "r", "middle"}
_EXTENSION_KEYS = _COMMON_KEYS | {"r", "m", "g_ia"}

# most grid steps |t1 - t0| / step a transport section may ask for at n <= 8
# (RK4 at n = 8 over 10^5 steps peaks near 1.7 GB); Gamma on the step grid
# grows as steps * n^3, so above n = 8 it is scaled by (8 / n)^3
MAX_TRANSPORT_STEPS = 100_000
# largest chart a problem may have, n for a metric and 2r + m for an
# extension; the symbolic second-partial table grows as n^4
MAX_DIMENSION = 16
# most entries of d^2 g, d Gamma or R over the sample a check suite may ask
# for, samples * n^4; 2000 samples at n = 8 are 2^23
MAX_SAMPLE_ENTRIES = 2 ** 25


class SpecFormatError(ValueError):
    """A problem file or argument failed to load or validate, or a report
    could not be written."""


@dataclass
class TransportSection:
    curve: CurveSpec
    w0: np.ndarray
    tolerance: float = 1e-6


@dataclass
class ProblemSpec:
    """Validated problem file with defaults applied."""

    kind: str
    path: str
    checks: List[str]
    samples: int = 100
    seed: int = 42
    tolerance: float = 1e-8
    metric: Optional[MetricField] = None
    extension: Optional[ExtensionSpec] = None
    transport: Optional[TransportSection] = None


@dataclass
class CheckRecord:
    """One executed check; ``wall_time`` is informational and never serialized."""

    name: str
    residual: Optional[float]
    passed: bool
    worst_point: Optional[List[float]] = None
    error: Optional[str] = None
    wall_time: float = 0.0

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "residual": self.residual,
            "pass": self.passed,
            "worst_point": self.worst_point,
        }
        if self.error is not None:
            out["error"] = self.error
        return out


@dataclass
class Report:
    spec: str
    seed: int
    tolerance: float
    checks: List[CheckRecord] = field(default_factory=list)

    @property
    def verdict(self) -> bool:
        return bool(self.checks) and all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "spec": self.spec,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "checks": [c.to_dict() for c in self.checks],
            "verdict": self.verdict,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_text(self) -> str:
        lines = [
            f"spec: {self.spec}",
            f"seed: {self.seed}  tolerance: {self.tolerance!r}",
            "",
        ]
        width = max((len(c.name) for c in self.checks), default=10)
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            if c.error is not None:
                lines.append(f"{c.name:<{width}}  {status}  error: {c.error}")
                continue
            worst = ""
            if c.worst_point is not None:
                worst = "  worst: (" + ", ".join(repr(v) for v in c.worst_point) + ")"
            lines.append(f"{c.name:<{width}}  {status}  residual: {c.residual!r}{worst}")
        lines.append("")
        lines.append(f"verdict: {'PASS' if self.verdict else 'FAIL'}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def _require(cond: bool, message: str):
    if not cond:
        raise SpecFormatError(message)


def _indices(match) -> Tuple[int, ...]:
    """The indices of a component key; one with more digits than MAX_DIMENSION
    reads as 0, which every range test refuses."""
    return tuple(int(v) if len(v) <= len(str(MAX_DIMENSION)) else 0 for v in match.groups())


def _parse_field(key: str, text, n: int):
    try:
        return parse_expression(str(text), n)
    except ExpressionError as exc:
        raise SpecFormatError(f"bad expression for '{key}': {exc}") from None


def _numeric(value, what: str, kind=float):
    """``value`` from the file as ``kind``: ``int``, ``float``, or
    ``np.ndarray`` for a float array.  Anything that does not convert, or
    holds a value that is not finite, is a SpecFormatError; so is an ``int``
    given as a boolean or with a fractional part (``2000.0`` is accepted)."""
    try:
        out = np.asarray(value, dtype=float) if kind is np.ndarray else float(value)
        finite = bool(np.all(np.isfinite(out)))
    except (TypeError, ValueError, OverflowError):
        finite = False
    _require(finite, f"'{what}' must be numeric and finite")
    if kind is int:
        _require(not isinstance(value, bool) and out.is_integer(), f"'{what}' must be an integer")
        try:
            return int(value)  # exact for an int and for an integer string
        except ValueError:  # "2000.0"
            return int(out)
    return out


# the flag that overrides each run setting
_FLAGS = {"samples": "--samples", "seed": "--seed", "tolerance": "--tol"}


def _settings(given: dict, flags: bool = False) -> dict:
    """The run settings in ``given`` (name -> value), validated: ``samples``
    an integer >= 1, ``seed`` an integer >= 0 and ``tolerance`` finite and
    > 0.  Messages quote the file key, or with ``flags`` the flag."""
    out = {}
    for name, value in given.items():
        what = _FLAGS[name] if flags else name
        value = out[name] = _numeric(value, what, float if name == "tolerance" else int)
        if name == "seed":
            _require(value >= 0, f"'{what}' must be non-negative")
        else:
            _require(value > 0, f"'{what}' must be positive")
    return out


def load_spec(path: str) -> ProblemSpec:
    """Load and validate a problem file, applying defaults.  Every
    ``ValueError`` raised while validating the file or building its chart,
    metric, connection, extension or transport section is a SpecFormatError
    with the same message."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise SpecFormatError(f"cannot read '{path}': {exc}") from None
    except (ValueError, RecursionError) as exc:  # not UTF-8 or JSON, or too long or deep
        raise SpecFormatError(f"parse error in '{path}': {exc}") from None
    try:
        return _load(raw, path)
    except ValueError as exc:
        raise SpecFormatError(str(exc)) from None


def _load(raw, path: str) -> ProblemSpec:
    _require(isinstance(raw, dict), "problem file must be a JSON object")

    kind = raw.get("kind")
    _require(kind in ("metric", "extension"), "'kind' must be 'metric' or 'extension'")
    settings = _settings({name: raw.get(name, getattr(ProblemSpec, name)) for name in _FLAGS})

    # a MetricField or an ExtensionSpec, held by the ProblemSpec field named by kind
    problem = _load_metric(raw) if kind == "metric" else _load_extension(raw)

    checks = raw.get("checks")
    if checks is None:
        checks = [c for c, check in _CHECKS.items() if check.default and kind in check.kinds]
    _require(isinstance(checks, list) and all(isinstance(c, str) for c in checks),
             "'checks' must be a list of names")
    for c in checks:
        _require(c in _CHECKS, f"unknown check '{c}'")
        _require(kind in _CHECKS[c].kinds,
                 f"check '{c}' applies to {' and '.join(_CHECKS[c].kinds)} problems only")

    transport = _load_transport(raw["transport"], problem.n) if "transport" in raw else None
    return ProblemSpec(kind, path, checks, **settings, transport=transport, **{kind: problem})


def _load_metric(raw: dict) -> MetricField:
    comp_keys = [k for k in raw if _METRIC_KEY.match(k)]
    for key in raw:
        _require(key in _METRIC_KEYS or key in comp_keys, f"unknown key '{key}'")
    _require("n" in raw, "metric problem needs 'n'")
    n = _numeric(raw["n"], "n", int)
    _require(n >= 2, "'n' must be at least 2")
    _require(n <= MAX_DIMENSION, f"'n' must be at most {MAX_DIMENSION}")
    r = _numeric(raw.get("r", 1), "r", int)
    _require(0 < r < n, f"'r' must satisfy 0 < r < n={n}")
    if "middle" in raw:
        middle = _numeric(raw["middle"], "middle", int)
        _require(middle == n - 2 * r, f"'middle' must equal n - 2r = {n - 2 * r}")
        chart = ChartSplit.three_block(n, r)
    else:
        chart = ChartSplit.two_block(n, r)
    comps: Dict[Tuple[int, int], object] = {}
    for key in comp_keys:
        mu, nu = _indices(_METRIC_KEY.match(key))
        _require(1 <= mu <= n and 1 <= nu <= n, f"index out of range in '{key}' (n={n})")
        comps[(mu, nu)] = _parse_field(key, raw[key], n)
    return MetricField(chart, comps)


def _load_extension(raw: dict) -> ExtensionSpec:
    entry_keys = [k for k in raw if _CONN_KEY.match(k) or _LAMBDA_KEY.match(k) or _H_KEY.match(k)]
    for key in raw:
        _require(key in _EXTENSION_KEYS or key in entry_keys, f"unknown key '{key}'")
    _require("r" in raw and "m" in raw, "extension problem needs 'r' and 'm'")
    r, m = _numeric(raw["r"], "r", int), _numeric(raw["m"], "m", int)
    _require(r >= 1 and m >= 0, "'r' must be >= 1 and 'm' >= 0")
    _require(2 * r + m <= MAX_DIMENSION,
             f"the extension's dimension 2r + m must be at most {MAX_DIMENSION}")
    q = r + m

    conn: Dict[Tuple[int, int, int], object] = {}
    lam: Dict[Tuple[int, int], object] = {}
    for key in entry_keys:
        if (match := _CONN_KEY.match(key)) is not None:
            i, j, k = _indices(match)
            _require(all(1 <= v <= r for v in (i, j, k)),
                     f"index out of range in '{key}' (r={r})")
            conn[(i, j, k)] = _parse_field(key, raw[key], r)
        elif (match := _LAMBDA_KEY.match(key)) is not None:
            mu, nu = _indices(match)
            _require(1 <= mu <= q and 1 <= nu <= q, f"index out of range in '{key}' (r+m={q})")
            _require(min(mu, nu) <= r,
                     f"'{key}' lies in the middle-middle block; use h_{mu}_{nu}")
            lam[(mu, nu)] = _parse_field(key, raw[key], q)
        else:
            p, s = _indices(_H_KEY.match(key))
            _require(r < p <= q and r < s <= q,
                     f"index out of range in '{key}' (middle block is {r + 1}..{q})")
            lam[(p, s)] = _parse_field(key, raw[key], q)

    g_ia = raw.get("g_ia")
    if g_ia is not None:
        g_ia = _numeric(g_ia, "g_ia", np.ndarray)
        _require(g_ia.shape == (r, r), f"'g_ia' must be an {r}x{r} array")
    return ExtensionSpec(r=r, m=m, base_connection=SymbolicConnection(r, conn), lam=lam,
                         g_ia=g_ia)


def _load_transport(raw: dict, n: int) -> TransportSection:
    _require(isinstance(raw, dict), "'transport' must be an object")
    for key in raw:
        _require(key in {"curve", "w0", "t_span", "step", "tolerance"},
                 f"unknown transport key '{key}'")
    _require("curve" in raw and "w0" in raw, "transport section needs 'curve' and 'w0'")
    curve_exprs = raw["curve"]
    _require(isinstance(curve_exprs, list) and len(curve_exprs) == n,
             f"'curve' must list {n} component expressions")
    comps = tuple(_parse_field(f"curve[{k}]", text, 1) for k, text in enumerate(curve_exprs))
    t_span = _numeric(raw.get("t_span", CurveSpec.t_span), "t_span", np.ndarray)
    _require(t_span.shape == (2,), "'t_span' must be [t0, t1]")
    t0, t1 = t_span.tolist()
    step = _numeric(raw.get("step", CurveSpec.step), "step")
    _require(step > 0, "transport 'step' must be positive")
    max_steps = MAX_TRANSPORT_STEPS * 8 ** 3 // max(n, 8) ** 3
    _require(abs(t1 - t0) / step <= max_steps,
             f"transport 't_span' and 'step' ask for more than {max_steps} steps")
    w0 = _numeric(raw["w0"], "w0", np.ndarray)
    _require(w0.shape == (n,), f"'w0' must list {n} components")
    tolerance = _numeric(raw.get("tolerance", TransportSection.tolerance), "tolerance")
    _require(tolerance > 0, "transport 'tolerance' must be positive")
    return TransportSection(CurveSpec(comps, (t0, t1), step), w0, tolerance)


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def _record(name: str, tolerance: float, fn) -> List[CheckRecord]:
    """Run and time one check's function.  A CheckResult gives the row
    ``name``; a list of them (one call judging several clauses) gives a
    ``<name>:<clause>`` row each, splitting the time."""
    start = time.perf_counter()
    try:
        with np.errstate(all="ignore"):  # a non-finite residual is reported below
            result = fn()
    except Exception as exc:  # a failing clause is data, not a crash
        return [CheckRecord(name=name, residual=None, passed=False,
                            error=f"{type(exc).__name__}: {exc}",
                            wall_time=time.perf_counter() - start)]
    rows = ([(f"{name}:{res.name}", res) for res in result] if isinstance(result, list)
            else [(name, result)])
    wall_time = (time.perf_counter() - start) / len(rows)
    records = []
    for row, res in rows:
        residual, worst = res.residual, res.worst_point
        # JSON has no NaN or Infinity, and neither is a verdict
        finite = bool(np.isfinite(residual))
        records.append(CheckRecord(
            name=row,
            residual=residual if finite else None,
            passed=finite and residual <= tolerance,
            worst_point=None if worst is None else [float(v) for v in worst],
            error=None if finite else f"non-finite residual: {residual}",
            wall_time=wall_time,
        ))
    return records


@dataclass
class _Context:
    """What the checks of one run share."""

    spec: ProblemSpec
    g: MetricField
    pts: np.ndarray
    conn: ConnectionField
    dist: DistributionSpec  # the trailing null block
    ortho: Optional[DistributionSpec]  # middle + trailing span, three-block charts only


@dataclass(frozen=True)
class _Check:
    """A named check: the problem kinds it applies to, whether it runs by
    default, and ``run(context)``, run and timed as one call.  It returns a
    CheckResult, one row named after the check, or a list of them, a
    ``<check>:<result name>`` row each."""

    kinds: Tuple[str, ...]
    default: bool
    run: Callable[[_Context], Union[CheckResult, List[CheckResult]]]


def _projectable(c: _Context):
    """Along the null block; on a three-block chart also along its
    orthocomplement, as the rows ``s=r`` and ``s=n-r``."""
    if c.ortho is None:
        return check_projectable(c.conn, c.dist, c.pts)
    return [replace(check_projectable(c.conn, dist, c.pts), name=name)
            for name, dist in (("s=r", c.dist), ("s=n-r", c.ortho))]


def _projected_connection(c: _Context) -> CheckResult:
    base_pts = c.pts[:, : c.g.chart.r]
    # a slot-block read off the sample points leaves the jet of c.conn there
    diff = (restrict_connection(c.conn, c.ortho).gamma(base_pts)
            - c.spec.extension.base_connection.gamma(base_pts))
    return _reduced("projected_connection", c.pts, diff)


def _vertical_metric(c: _Context) -> CheckResult:
    """The middle block of g against h.  The builder copies h there, so the
    comparison is of expressions; a mismatch fails with an infinite residual."""
    ext = c.spec.extension
    mid = range(ext.r + 1, ext.r + ext.m + 1)
    same = all(c.g.component(p, q).same_expression(ext.h_component(p, q))
               for p in mid for q in mid if p <= q)
    return CheckResult("vertical_metric", 0.0 if same else float("inf"), None)


def _transformation_rule(c: _Context) -> CheckResult:
    """The worst of three seeded random one-form sections on the first 20 points."""
    ext = c.spec.extension
    rng = np.random.default_rng(c.spec.seed)
    best = CheckResult("transformation_rule", 0.0, None)
    for _ in range(3):
        omega = random_one_form(rng, ext.r, ext.m)
        res = transformation_rule_residual(c.g, ext, omega, c.pts[:20])
        if res.residual >= best.residual:
            best = res
    return best


_ANY = ("metric", "extension")

# every check, in default-suite order
_CHECKS: Dict[str, _Check] = {
    "null": _Check(_ANY, True, lambda c: check_null(c.g, c.dist, c.pts)),
    "parallel": _Check(_ANY, True, lambda c: check_parallel(c.conn, c.dist, c.pts)),
    "projectable": _Check(_ANY, True, _projectable),
    "curvature_condition": _Check(_ANY, True, lambda c: curvature_condition(
        c.conn, c.ortho or c.dist, c.pts)),
    "walker_form": _Check(_ANY, False, lambda c: check_walker_form(c.g, c.pts)),
    "walker_projectability": _Check(_ANY, False, lambda c: walker_projectability(c.g, c.pts)),
    "projected_connection": _Check(("extension",), True, _projected_connection),
    "vertical_metric": _Check(("extension",), True, _vertical_metric),
    "transformation_rule": _Check(("extension",), True, _transformation_rule),
}


def _metric(spec: ProblemSpec) -> MetricField:
    """The metric a problem is about: the file's own, or the built extension."""
    return build_pullback_extension(spec.extension) if spec.kind == "extension" else spec.metric


def run_checks(spec: ProblemSpec) -> Report:
    """Execute the requested checks; never aborts on a failing clause.  A
    sample larger than :data:`MAX_SAMPLE_ENTRIES` allows is a SpecFormatError."""
    report = Report(spec=spec.path, seed=spec.seed, tolerance=spec.tolerance)
    g = _metric(spec)
    _require(spec.samples * g.n ** 4 <= MAX_SAMPLE_ENTRIES,
             f"'samples' must be at most {MAX_SAMPLE_ENTRIES // g.n ** 4} at n={g.n} "
             f"(samples * n^4 <= {MAX_SAMPLE_ENTRIES})")
    try:
        pts = sample_points(g, spec.samples, spec.seed)
    except RuntimeError as exc:
        report.checks.append(CheckRecord("sampling", None, False, error=str(exc)))
        return report

    three_block = g.chart.mode == "three_block"
    context = _Context(spec, g, pts, christoffel(g), DistributionSpec.null_block(g.chart),
                       DistributionSpec.orthocomplement(g.chart) if three_block else None)
    for name in spec.checks:
        report.checks += _record(name, spec.tolerance, lambda: _CHECKS[name].run(context))
    return report


def run_transport(spec: ProblemSpec) -> Report:
    """Run the transport section: norm preservation, plus the projection
    comparison against the base connection for extension problems."""
    if spec.transport is None:
        raise SpecFormatError("problem file has no transport section")
    report = Report(spec=spec.path, seed=spec.seed, tolerance=spec.transport.tolerance)
    g = _metric(spec)
    conn = christoffel(g)
    section = spec.transport
    tol = section.tolerance

    def _norm_residual():
        res = parallel_transport(conn, section.curve, section.w0)
        gs = g.value(section.curve.positions(res.times))
        norms = np.einsum("...ij,...i,...j->...", gs, res.vectors, res.vectors)
        return CheckResult("transport_norm_preservation",
                           float(np.max(np.abs(norms - norms[0]))))

    report.checks += _record("transport_norm_preservation", tol, _norm_residual)

    if spec.kind == "extension":
        def _commute_residual():
            ortho = DistributionSpec.orthocomplement(g.chart)
            return CheckResult("transport_projection_commutes", projection_commutes_residual(
                g, spec.extension.base_connection, ortho, section.curve, section.w0, conn=conn
            ))
        report.checks += _record("transport_projection_commutes", tol, _commute_residual)
    return report


def build_components(spec: ProblemSpec) -> dict:
    """Component expressions of the built extension, as a metric problem dict."""
    if spec.kind != "extension":
        raise SpecFormatError("'build' applies to extension problems only")
    g = build_pullback_extension(spec.extension)
    out = {
        "kind": "metric",
        "n": g.n,
        "r": spec.extension.r,
        "middle": spec.extension.m,
    }
    for mu in range(1, g.n + 1):
        for nu in range(mu, g.n + 1):
            comp = g.component(mu, nu)
            if not comp.is_zero:
                out[f"g_{mu}_{nu}"] = comp.to_text()
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _emit(text: str, output: Optional[str]):
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise SpecFormatError(f"cannot write '{output}': {exc}") from None
    else:
        sys.stdout.write(text)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="walkergeom",
        description="Residual checks for adapted-form metrics and extension builders.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, helptext in [
        ("check", "run the check suite of a problem file"),
        ("build", "emit the built extension metric's component expressions"),
        ("transport", "run the transport section of a problem file"),
    ]:
        p = sub.add_parser(verb, help=helptext)
        p.add_argument("spec", help="path to the problem file (JSON)")
        p.add_argument("--samples", help="sample-point count override")
        p.add_argument("--seed", help="sampling seed override")
        p.add_argument("--tol", dest="tolerance", help="tolerance override")
        p.add_argument("--output", default=None, help="write the report to this path")
        p.add_argument(
            "--format",
            choices=["report-text", "report-structured"],
            default="report-text",
            dest="fmt",
        )
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        spec = load_spec(args.spec)
        given = {name: getattr(args, name) for name in _FLAGS if getattr(args, name) is not None}
        for name, value in _settings(given, flags=True).items():
            setattr(spec, name, value)
        if "tolerance" in given and spec.transport is not None:
            spec.transport.tolerance = spec.tolerance

        if args.verb == "build":
            payload = build_components(spec)
            if args.fmt == "report-structured":
                _emit(json.dumps(payload, indent=2) + "\n", args.output)
            else:
                lines = [f"{k} = {v}" if k.startswith("g_") else f"{k}: {v}"
                         for k, v in payload.items()]
                _emit("\n".join(lines) + "\n", args.output)
            return 0

        report = run_checks(spec) if args.verb == "check" else run_transport(spec)
        text = report.to_json() if args.fmt == "report-structured" else report.to_text()
        _emit(text, args.output)
        return 0 if report.verdict else 1
    except SpecFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
