"""Seeded inputs, timed operations and known answers of the three workloads.

A workload is a fixed list of operations ("ops") built from a seed.  The
seed changes coefficients, curves, sample seeds and vectors, never the mix
of operations, so runs on different seeds do comparable work.  One op is one
verdict: a check suite, a transport run or a reference transport.

Every op has three steps.  ``prepare`` builds fresh program objects (the
program caches symbolic tables on them, so reusing one across rounds would
time a warm cache that no CLI user gets); ``run`` is the timed call into the
program; ``check`` compares the verdict with the answer fixed by
construction and returns the bytes that feed the report digest.

Imported only after the worker has timed ``import walkergeom``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from walkergeom import cli, corpus, distributions, extensions, tensor, transport
from walkergeom.chart import ChartSplit
from walkergeom.expr import coordinate

#: directory, relative to the checkout root, that holds generated problem files
WORK_DIR = ".bench_work"

TRANSPORT_TOLERANCE = 1e-6  # the CLI's default transport tolerance
EULER_STEP = 1e-5
#: |Euler(step 1e-5) - RK4(step 1e-3)| at the curve end; measured <= 3.1e-5
EULER_AGREEMENT = 2e-4
#: added to every base-connection component to build a connection the
#: extension does not project onto
PERTURBATION = 1.0

# Op latency grows steeply with the spec's size and varies from spec to spec.
# A run's figures are medians over many ops, so the workloads hold several
# specs per (r, m) shape: then the median op lies inside one shape's cluster,
# not on the step between two shapes, and a seed moves it less.  A round of
# each large workload takes 20-30 s on a 2-vCPU virtual machine, so a run
# there is about one round.
#: extension specs per (r, m) shape in check_large_batch
SPECS_PER_SHAPE = 3
#: RK4 ops per (r, m) shape in transport_curves; the median of a round's 105
#: ops is then the middle (2, 2) op
RK4_COPIES = 15
#: Euler reference ops per integrator-order connection in transport_curves
EULER_CURVES = 3

SHAPES = [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]
EXTENSION_CHECKS = ["null", "parallel", "projectable", "curvature_condition",
                    "projected_connection", "vertical_metric", "transformation_rule",
                    "walker_form", "walker_projectability"]
METRIC_FORM_CHECKS = ["null", "parallel", "projectable", "curvature_condition",
                      "walker_form", "walker_projectability"]
WALKER_CHECKS = ["null", "parallel", "projectable", "walker_form", "walker_projectability"]
TWO_BLOCK_CHECKS = ["null", "parallel", "projectable", "curvature_condition"]

# The connections of the integrator-order tests, as (dimension, components).
ORDER_TEST_PROBLEMS = [
    (1, {(1, 1, 1): "2 + 3*x1^2"}),
    (2, {(1, 1, 1): "3*x2 + 2", (1, 2, 2): "2*x1", (2, 1, 2): "4*x1*x2"}),
    (2, {(1, 1, 2): "4*cos(2*x1)", (2, 2, 2): "3 + x2", (2, 1, 1): "2*x1"}),
    (2, {(1, 1, 1): "2 + 2*x2^2", (2, 1, 2): "3*x1"}),
    (1, {(1, 1, 1): "4*cos(3*x1)"}),
]


class KnownAnswerError(Exception):
    """An op returned a verdict other than the one fixed by construction."""


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------


def _extension_problem(ext, *, checks, samples, seed, curve=None, w0=None) -> dict:
    r, m = ext.r, ext.m
    out = {"kind": "extension", "r": r, "m": m}
    D = ext.base_connection
    for l in range(1, r + 1):
        for j in range(1, r + 1):
            for k in range(j, r + 1):
                f = D.component(l, j, k)
                if not f.is_zero:
                    out[f"D_{l}_{j}_{k}"] = f.to_text()
    for (mu, nu), f in sorted(ext.lam.items()):
        if not f.is_zero:
            out[f"{'h' if mu > r else 'lambda'}_{mu}_{nu}"] = f.to_text()
    out["g_ia"] = ext.g_ia.tolist()
    return _finish(out, checks, samples, seed, curve, w0)


def _metric_problem(g, *, checks, samples, seed, curve=None, w0=None) -> dict:
    chart = g.chart
    out = {"kind": "metric", "n": g.n, "r": chart.trailing_size}
    if chart.mode == "three_block":
        out["middle"] = chart.middle_size
    for mu in range(1, g.n + 1):
        for nu in range(mu, g.n + 1):
            f = g.component(mu, nu)
            if not f.is_zero:
                out[f"g_{mu}_{nu}"] = f.to_text()
    return _finish(out, checks, samples, seed, curve, w0)


def _finish(out, checks, samples, seed, curve, w0) -> dict:
    out.update(checks=list(checks), samples=int(samples), seed=int(seed))
    if curve is not None:
        out["transport"] = {"curve": [c.to_text() for c in curve.components],
                            "w0": [float(v) for v in w0], "step": curve.step}
    return out


def _metric_form(ext, *, checks, samples, seed, curve=None, w0=None) -> dict:
    """The built extension as a metric problem, from ``cli.build_components``."""
    spec = cli.ProblemSpec(kind="extension", path="", checks=[], extension=ext)
    return _finish(cli.build_components(spec), checks, samples, seed, curve, w0)


def _walker_linear(rng, r, m, depends_on: Optional[str]):
    """walker_from_linear_data with B on the leading block, or with B_111
    also depending on one trailing or middle coordinate."""
    n, q = 2 * r + m, r + m
    lead = range(1, r + 1)
    B = {(a, j, k): corpus.random_polynomial(rng, n, variables=lead, scale=0.5)
         for a in lead for j in lead for k in lead if j <= k}
    if depends_on is not None:
        v = q + 1 + int(rng.integers(r)) if depends_on == "trailing" else r + 1 + int(rng.integers(m))
        coeff = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.0))
        B[(1, 1, 1)] = B[(1, 1, 1)] + coeff * coordinate(v, n)
    lam = {(j, k): corpus.random_polynomial(rng, q, scale=0.5) for j in lead for k in lead if j <= k}
    return corpus.walker_from_linear_data(r, m, B, lam)


def _write(path: str, problem: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(problem, fh, indent=1)


def _vector(rng, n) -> np.ndarray:
    # components bounded away from zero, so a perturbed connection visibly
    # changes the transported leading block
    return rng.uniform(0.5, 1.0, n) * rng.choice([-1.0, 1.0], n)


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


@dataclass
class CliOp:
    """``walkergeom check|transport <file> --format report-structured``, in process."""

    label: str
    verb: str
    path: str
    expected: Dict[str, Optional[bool]]  # check name -> pass; None = not fixed

    def prepare(self):
        return None

    def run(self, _):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main([self.verb, self.path, "--format", "report-structured"])
        return code, buf.getvalue()

    def check(self, result) -> bytes:
        code, text = result
        report = json.loads(text)
        _check_rows(report["checks"], self.expected)
        want = 0 if all(v is True for v in self.expected.values()) else 1
        if code != want:
            raise KnownAnswerError(f"exit code {code}, expected {want}")
        return text.encode()


@dataclass
class SuiteOp:
    """``cli.run_checks`` on a freshly loaded problem; every check must pass."""

    label: str
    path: str
    checks: list

    def prepare(self):
        return cli.load_spec(self.path)

    def run(self, spec):
        return cli.run_checks(spec)

    def check(self, report) -> bytes:
        _check_rows([c.to_dict() for c in report.checks], dict.fromkeys(self.checks, True))
        if not report.verdict:
            raise KnownAnswerError("suite verdict FAIL, expected PASS")
        return report.to_json().encode()


@dataclass
class TransportOp:
    """RK4 transport over a built extension, with norm preservation and the
    commuting-projection check against the true and a perturbed base
    connection."""

    label: str
    ext: object
    perturbed: object
    curve: object
    w0: np.ndarray

    def prepare(self):
        return None

    def run(self, _):
        g = extensions.build_pullback_extension(self.ext)
        conn = tensor.christoffel(g)
        res = transport.parallel_transport(conn, self.curve, self.w0)
        gs = g.value(self.curve.positions(res.times))
        norms = np.einsum("...ij,...i,...j->...", gs, res.vectors, res.vectors)
        ortho = distributions.DistributionSpec.orthocomplement(g.chart)
        true_res = transport.projection_commutes_residual(
            g, self.ext.base_connection, ortho, self.curve, self.w0, conn=conn)
        bad_res = transport.projection_commutes_residual(
            g, self.perturbed, ortho, self.curve, self.w0, conn=conn)
        return float(np.max(np.abs(norms - norms[0]))), true_res, bad_res

    def check(self, result) -> bytes:
        norm_res, true_res, bad_res = result
        if not norm_res <= TRANSPORT_TOLERANCE:
            raise KnownAnswerError(f"norm preservation residual {norm_res!r}")
        if not true_res <= TRANSPORT_TOLERANCE:
            raise KnownAnswerError(f"commute residual with the true D {true_res!r}")
        if not bad_res > TRANSPORT_TOLERANCE:
            raise KnownAnswerError(f"commute residual with a perturbed D {bad_res!r}")
        return repr(result).encode()


@dataclass
class EulerOp:
    """First-order reference transport at step 1e-5 against RK4 at the curve's step."""

    label: str
    conn: object
    curve: object
    w0: np.ndarray

    def prepare(self):
        return None

    def run(self, _):
        ref = transport.euler_transport(self.conn, self.curve, self.w0, step=EULER_STEP)
        rk4 = transport.parallel_transport(self.conn, self.curve, self.w0).final
        return float(np.max(np.abs(ref - rk4)))

    def check(self, diff) -> bytes:
        if not diff <= EULER_AGREEMENT:
            raise KnownAnswerError(f"Euler and RK4 differ by {diff!r}")
        return repr(diff).encode()


def _check_rows(rows, expected: Dict[str, Optional[bool]]) -> None:
    seen = set()
    for row in rows:
        base = row["name"].split(":")[0]
        if base not in expected:
            raise KnownAnswerError(f"unexpected row {row['name']}")
        if row.get("error") is not None:
            raise KnownAnswerError(f"{row['name']} raised: {row['error']}")
        want = expected[base]
        if want is not None and row["pass"] != want:
            raise KnownAnswerError(
                f"{row['name']} {'PASS' if row['pass'] else 'FAIL'} "
                f"(residual {row['residual']!r}), expected {'PASS' if want else 'FAIL'}")
        seen.add(base)
    missing = set(expected) - seen
    if missing:
        raise KnownAnswerError(f"missing rows {sorted(missing)}")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def work_dir(workload: str, seed: int) -> str:
    return os.path.join(WORK_DIR, f"{workload}-s{seed}")


def build(workload: str, seed: int) -> list:
    """The op list of one round, with its input files written under ``work_dir``."""
    rng = np.random.default_rng(seed)
    if workload == "transport_curves":
        return _transport_curves(rng)
    folder = work_dir(workload, seed)
    os.makedirs(folder, exist_ok=True)
    if workload == "cli_small_files":
        return _cli_small_files(rng, folder)
    if workload == "check_large_batch":
        return _check_large_batch(rng, folder)
    raise ValueError(f"unknown workload {workload!r}")


def _cli_small_files(rng, folder) -> list:
    """144 small problem files in 18 blocks of 8 kinds; blocks cycle through
    (r, m) in SHAPES.  Extension files and built metric forms must pass;
    walker_from_linear_data files pass or fail by where B depends; two-block
    random metrics fail nullity."""
    ops = []
    for block in range(18):
        r, m = SHAPES[block % len(SHAPES)]
        n = 2 * r + m
        for kind in range(8):
            label = f"{block * 8 + kind:03d}"
            path = os.path.join(folder, label + ".json")
            common = {"samples": int(rng.integers(60, 101)), "seed": int(rng.integers(2**31))}
            with_curve = kind in (0, 2)
            if with_curve:
                common.update(curve=corpus.random_curve(rng, n), w0=_vector(rng, n))
            if kind in (0, 1):
                ext = corpus.random_extension_spec(rng, r, m)
                problem = _extension_problem(ext, checks=EXTENSION_CHECKS, **common)
                expected = dict.fromkeys(EXTENSION_CHECKS, True)
            elif kind in (2, 3):
                ext = corpus.random_extension_spec(rng, r, m)
                problem = _metric_form(ext, checks=METRIC_FORM_CHECKS, **common)
                expected = dict.fromkeys(METRIC_FORM_CHECKS, True)
            elif kind in (4, 5, 6):
                depends_on = {4: None, 5: "trailing", 6: "middle" if m else "trailing"}[kind]
                g = _walker_linear(rng, r, m, depends_on)
                problem = _metric_problem(g, checks=WALKER_CHECKS, **common)
                expected = dict.fromkeys(WALKER_CHECKS, True)
                if depends_on is not None:
                    expected.update(projectable=False, walker_projectability=False)
            else:
                g = corpus.random_metric(rng, ChartSplit.two_block(n, r))
                problem = _metric_problem(g, checks=TWO_BLOCK_CHECKS, **common)
                expected = dict.fromkeys(TWO_BLOCK_CHECKS, None)
                expected["null"] = False
            _write(path, problem)
            ops.append(CliOp(label, "check", path, expected))
            if with_curve:
                rows = {"transport_norm_preservation": True}
                if problem["kind"] == "extension":
                    rows["transport_projection_commutes"] = True
                ops.append(CliOp(label + "t", "transport", path, rows))
    return ops


def _interleave(groups) -> list:
    """The ops of every group in one list, each group spread evenly over it.

    Machine speed drifts over seconds.  Ops of one kind run back to back would
    all see one stretch of it, and the median or the tail of a run would move
    with that stretch; spread out, each kind sees the whole run."""
    keyed = [((i + 0.5) / len(group), k, op)
             for k, group in enumerate(groups) for i, op in enumerate(group)]
    return [op for *_, op in sorted(keyed, key=lambda item: item[:2])]


def _check_large_batch(rng, folder) -> list:
    """SPECS_PER_SHAPE extension specs at each (r, m) = (1,1), (2,2), (3,2) and
    their built metric forms, 2000 samples each, interleaved."""
    groups = []
    for r, m in [(1, 1), (2, 2), (3, 2)]:
        ops = []
        for copy in range(SPECS_PER_SHAPE):
            ext = corpus.random_extension_spec(rng, r, m)
            common = {"samples": 2000, "seed": int(rng.integers(2**31))}
            for kind, make, checks in [("ext", _extension_problem, EXTENSION_CHECKS),
                                       ("metric", _metric_form, METRIC_FORM_CHECKS)]:
                label = f"{kind}_r{r}m{m}_{copy}"
                path = os.path.join(folder, label + ".json")
                _write(path, make(ext, checks=checks, **common))
                ops.append(SuiteOp(label, path, checks))
        groups.append(ops)
    return _interleave(groups)


def _transport_curves(rng) -> list:
    """RK4_COPIES RK4 ops per extension dimension n = 3..8 and EULER_CURVES
    Euler references on each of the five integrator-order connections,
    interleaved."""
    groups = []
    for r, m in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)]:
        ops = []
        for copy in range(RK4_COPIES):
            ext = corpus.random_extension_spec(rng, r, m)
            D = ext.base_connection
            perturbed = tensor.SymbolicConnection(r, {
                (l, j, k): D.component(l, j, k) + PERTURBATION
                for l in range(1, r + 1) for j in range(1, r + 1) for k in range(j, r + 1)})
            n = ext.n
            ops.append(TransportOp(f"rk4_r{r}m{m}_{copy}", ext, perturbed,
                                   corpus.random_curve(rng, n), _vector(rng, n)))
        groups.append(ops)
    ops = []
    for idx, (n, comps) in enumerate(ORDER_TEST_PROBLEMS):
        conn = tensor.SymbolicConnection(n, comps)
        for copy in range(EULER_CURVES):
            ops.append(EulerOp(f"euler_{idx}_{copy}", conn,
                               corpus.random_curve(rng, n), _vector(rng, n)))
    groups.append(ops)
    return _interleave(groups)
