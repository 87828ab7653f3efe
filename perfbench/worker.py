"""One workload process of the benchmark; started by run.py, not by hand.

Imports the package and builds the seeded inputs (the set-up that run.py
times from process start), then runs ops in a closed loop with one op in
flight inside the measuring window, and prints one JSON object
with per-op wall and CPU times, times at the reference speed (SpeedProbe),
failures, peak memory and, for a traced run, the per-layer metrics.  With
--setup-only it stops after set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

PROBE_PERIOD_S = 0.1     # wall time between speed samples
# each loop's time at the reference speed, the faster of the two states that
# a 2-vCPU shared VM switches between, so reference seconds read as its seconds
PYTHON_LOOP_REF_S = 1.25e-3
NUMPY_LOOP_REF_S = 1.7e-3
_ROWS = np.linspace(1.0, 3.0, 300)[:, None] - np.linspace(0.0, 4.0, 8)[None, :]


def python_loop() -> None:
    """Pure-Python arithmetic, like the interpreter work of imports."""
    s = 0
    for i in range(20_000):
        s += i * i


def numpy_loop() -> None:
    """A Sturm-count recurrence over eight shifts, row by row: numpy calls
    on small arrays, like the work that dominates the ops."""
    q = _ROWS[0]
    cnt = (q < 0).astype(np.int64)
    for row in _ROWS[1:]:
        q = row - 0.25 / np.where(np.abs(q) < 1e-290, 1e-290, q)
        cnt += q < 0


class SpeedProbe:
    """How fast the host runs a kind of code while a stretch of work runs.

    On a shared host the same op takes 4 s in one stretch of minutes and 7 s
    in the next, and set-up 0.6 s or 0.9 s.  A loop of the same kind of code
    slows by the same factor at the same time: `numpy_loop` tracks the ops,
    `python_loop` tracks set-up, and neither tracks the other.  The probe
    times its loop at `start`, every PROBE_PERIOD_S from a SIGALRM handler
    while the work runs, and once more after `stop`.  The work's time at the
    reference speed is its wall time without the samples taken before
    `stop`, times `ref_s` (the loop's time at that speed) over the mean
    sample.  The loops are the benchmark's own code, so a change to the
    package does not change them."""

    def __init__(self, loop, ref_s: float):
        self.loop, self.ref_s = loop, ref_s
        self.samples: list[float] = []
        self._handler = None

    def _sample(self, *_):
        t0 = time.perf_counter()
        self.loop()
        self.samples.append(time.perf_counter() - t0)

    def start(self) -> None:
        self.samples = []
        self._sample()
        self._handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> tuple[float, float]:
        """Stop sampling; return (time spent sampling since `start`, speed as
        `ref_s` over the mean sample)."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        inside = sum(self.samples)
        self._sample()
        return inside, self.ref_s / statistics.fmean(self.samples)


def run_op(op, inp, tmp: Path, probe: SpeedProbe) -> dict:
    """Run one op in a fresh directory; a raise counts as a failed op.
    `ref_s` is the op's wall time at the reference speed."""
    tmp.mkdir(parents=True)
    t0, c0 = time.perf_counter(), time.process_time()
    probe.start()
    try:
        fails = op(inp, tmp)
    except Exception as exc:  # the op's failure is measured, not fatal
        fails = [f"{type(exc).__name__}: {exc}"]
        traceback.print_exc(file=sys.stderr)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    inside, speed = probe.stop()
    shutil.rmtree(tmp, ignore_errors=True)
    wall, cpu = wall - inside, cpu - inside
    return {"wall_s": wall, "cpu_s": cpu, "ref_s": wall * speed, "fails": fails}


def closed_loop(step, seconds: float) -> list:
    """Call step(i) for i = 0, 1, ... while the next call, at the mean
    duration so far, would end inside the window; the first always runs.
    Every result is kept."""
    results = []
    t0 = time.perf_counter()
    while True:
        results.append(step(len(results)))
        elapsed = time.perf_counter() - t0
        if elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def main(argv=None) -> int:
    probe = SpeedProbe(python_loop, PYTHON_LOOP_REF_S)
    probe.start()  # set-up is timed at the reference speed too
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--spans-out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import henonball.cli  # noqa: F401  (the import every CLI call pays)
    from workloads import WORKLOADS

    make_inputs, op = WORKLOADS[args.workload]
    # more inputs than a run can use: the fastest op takes about 0.05 s
    inputs = make_inputs(args.seed, 64 + int(100 * args.seconds))
    ready = time.monotonic()
    inside, speed = probe.stop()
    out = {"ready_monotonic": ready, "setup_probe_s": inside, "setup_speed": speed}
    probe = SpeedProbe(numpy_loop, NUMPY_LOOP_REF_S)
    if args.setup_only:
        print(json.dumps(out))
        return 0

    tmp = Path(args.tmp)
    if args.trace:
        from tracer import LAYER_UNITS, Tracer, layer_metrics

        tracer = Tracer()

        def traced(i):
            with tracer:
                return run_op(op, inputs[i], tmp / f"op{i}t", probe)

        def pair(i):
            # the same input untraced and traced, alternating which goes first
            if i % 2:
                t = traced(i)
                return run_op(op, inputs[i], tmp / f"op{i}", probe), t
            return run_op(op, inputs[i], tmp / f"op{i}", probe), traced(i)

        pairs = closed_loop(pair, args.seconds)
        ops = [r for p in pairs for r in p]
        untraced = sum(p[0]["ref_s"] for p in pairs)
        traced_wall = sum(p[1]["ref_s"] for p in pairs)
        layers = layer_metrics(tracer.spans, len(pairs))
        layers["trace.overhead_s"] = (traced_wall - untraced) / len(pairs)
        layers["trace.overhead_ratio"] = traced_wall / untraced - 1.0
        out["layers"] = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in layers.items()}
        if args.spans_out:
            tracer.write(Path(args.spans_out))
    else:
        ops = closed_loop(lambda i: run_op(op, inputs[i], tmp / f"op{i}", probe), args.seconds)
    out["ops"] = ops
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["env"] = environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
