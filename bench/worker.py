"""One benchmark process: time set-up, then measure one workload.

Started by ``run.py`` in a fresh interpreter at the checkout root, with
BLAS/OpenMP threads pinned to 1.  Prints one JSON object as its last line.

Set-up is ``import walkergeom`` plus one warm-up op (the first op of the
workload), scaled to a reference machine speed (see ``_setup_scale``).
Input generation happens between the two and is reported on its own.
With ``--setup-only`` the process stops after set-up.

The untraced measurement runs whole rounds of the op list for about
``--seconds`` (see ``_another_round``).  The traced measurement alternates
an untraced and a traced round by the same rule; the ratio of the two
op-time totals is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

#: probe time at the reference speed that setup_s is scaled to; about the
#: probe's median on a 2-vCPU virtual machine with Python 3.11 / numpy 2.4
PROBE_REF_S = 0.004
#: speed samples taken right after set-up, each the fastest of three probes
SETUP_SAMPLES = 8


def _probe() -> float:
    """Time a fixed mix of interpreter work and small numpy calls, which is
    what set-up spends its time on.  Touches no program code."""
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    a = np.eye(8)
    for _ in range(300):
        a = np.linalg.inv(a + 8.0 * np.eye(8))
    return time.perf_counter() - start


def _setup_scale() -> float:
    """PROBE_REF_S over the machine's probe time right after set-up.

    The host's speed drifts by up to 1.5x over seconds to minutes.  Set-up
    lasts well under a second, so probes run right after it see the same
    stretch.  setup_s is reported multiplied by this factor: what it would
    read where the probe takes PROBE_REF_S.  A change to the program moves it
    by the same share as the unscaled time.  See README.md for why run times
    are not scaled."""
    samples = [min(_probe() for _ in range(3)) for _ in range(SETUP_SAMPLES)]
    return PROBE_REF_S / statistics.median(samples)


class Meter:
    """Runs ops, checks each verdict, and keeps latencies and report bytes."""

    def __init__(self, ops):
        self.ops = ops
        self.latency = [[] for _ in ops]
        self.first_bytes = [None] * len(ops)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run_op(self, index: int, tracer=None, record: bool = True) -> float:
        """Run one op; returns its latency in seconds (0.0 if it raised)."""
        op = self.ops[index]
        self.attempted += 1
        dt = 0.0
        try:
            arg = op.prepare()
            if tracer is not None:
                tracer.op = self.attempted
            start = time.perf_counter()
            try:
                result = op.run(arg)
            finally:
                dt = time.perf_counter() - start
                if tracer is not None:
                    tracer.op = None
            out = op.check(result)
            if self.first_bytes[index] is None:
                self.first_bytes[index] = out
            elif out != self.first_bytes[index]:
                raise ValueError("report bytes differ from the first run of this op")
        except Exception as exc:  # a failing op is counted, not fatal
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{op.label}: {type(exc).__name__}: {exc}")
        if record and dt:
            self.latency[index].append(dt)
        return dt

    def run_round(self, tracer=None) -> float:
        """Run every op once; returns the summed op time."""
        return sum(self.run_op(i, tracer) for i in range(len(self.ops)))

    def digest(self) -> str:
        h = hashlib.sha256()
        for op, out in zip(self.ops, self.first_bytes):
            h.update(f"{op.label}\n{len(out or b'')}\n".encode())
            h.update(out or b"")
        return h.hexdigest()

    def end_to_end(self) -> dict:
        import numpy as np

        every = [t for lat in self.latency for t in lat]
        return {
            "ops_per_s": (len(every) / sum(every), "op/s"),
            "op_p50_ms": (1e3 * float(np.percentile(every, 50)), "ms"),
            "op_p90_ms": (1e3 * float(np.percentile(every, 90)), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }


def _machine() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": openblas,
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    start = time.perf_counter()
    import walkergeom
    import_s = time.perf_counter() - start

    source = os.path.abspath(os.path.join("src", "walkergeom"))
    if os.path.dirname(os.path.abspath(walkergeom.__file__)) != source:
        print(f"error: imported walkergeom from {walkergeom.__file__}, not {source}",
              file=sys.stderr)
        return 2

    import workloads

    start = time.perf_counter()
    ops = workloads.build(args.workload, args.seed)
    gen_s = time.perf_counter() - start
    try:
        meter = Meter(ops)
        start = time.perf_counter()
        meter.run_op(0, record=False)
        warmup_s = time.perf_counter() - start
        scale = _setup_scale()
        out = {"import_s": import_s, "gen_s": gen_s, "warmup_s": warmup_s,
               "setup_raw_s": import_s + warmup_s, "setup_scale": scale,
               "setup_s": (import_s + warmup_s) * scale}
        if not args.setup_only:
            out.update(_measure(meter, args), machine=_machine())
        out.update(attempted=meter.attempted, failed=meter.failed, problems=meter.problems)
    finally:
        shutil.rmtree(workloads.work_dir(args.workload, args.seed), ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(workloads.WORK_DIR)
    print(json.dumps(out))
    return 0


def _another_round(start: float, rounds: int, seconds: float) -> bool:
    """Whether another round ends closer to ``seconds`` than stopping now does.

    A round of a large workload takes most of a run, so running on until
    ``seconds`` have passed would often measure nearly twice as long."""
    elapsed = time.perf_counter() - start
    return elapsed + 0.5 * elapsed / rounds < seconds


def _measure(meter: Meter, args) -> dict:
    start = time.perf_counter()
    rounds = 0
    absent = []
    if not args.trace:
        while not rounds or _another_round(start, rounds, args.seconds):
            meter.run_round()
            rounds += 1
        metrics = meter.end_to_end()
    else:
        import tracing

        tracer = tracing.Tracer()
        plain = traced = 0.0
        while not rounds or _another_round(start, rounds, args.seconds):
            plain += meter.run_round()
            tracer.install()
            traced += meter.run_round(tracer)
            tracer.uninstall()
            rounds += 1
        metrics = tracer.summary(rounds * len(meter.ops), traced / plain - 1.0)
        absent = tracer.absent
        if args.spans:
            tracer.dump(args.spans)
    return {"rounds": rounds, "ops_per_round": len(meter.ops), "digest": meter.digest(),
            "metrics": metrics, "absent": absent,
            "latency_s": {op.label: lat for op, lat in zip(meter.ops, meter.latency)}}


if __name__ == "__main__":
    sys.exit(main())
