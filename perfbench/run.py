"""Benchmark of the henonball package: four workloads, one process each.

    python3 perfbench/run.py --workload bifurcate --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --seconds 55        # every workload, one table

Run from the repository root.  With --trace 0 the last line of output is a
JSON object with the end-to-end metrics; with --trace 1 it carries the
per-layer metrics of a separate traced run instead.  Timed metrics are given
at a reference host speed (see worker.SpeedProbe).  See perfbench/README.md
for the workloads and what each metric should respond to.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("bifurcate", "sweep", "profile", "oracles")
SETUP_PROBES = 4        # extra set-up-only processes; the worker is one more
WORKER_TIMEOUT_S = 170.0

UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def spawn(args: list[str], env: dict, timeout: float) -> tuple[dict, float, float]:
    """Run the worker; return its result and its set-up time, measured from
    the moment before the process is started to its `ready` stamp, both as
    measured and at the reference speed (see worker.SpeedProbe)."""
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"worker {args} exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise SystemExit(f"worker {args} exited with {proc.returncode}")
    res = json.loads(out.strip().splitlines()[-1])
    setup = res["ready_monotonic"] - t0 - res["setup_probe_s"]
    return res, setup, setup * res["setup_speed"]


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    if not (ROOT / "src" / "henonball" / "__init__.py").is_file():
        raise SystemExit(f"no henonball sources under {ROOT / 'src'}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    tmp = ROOT / ".bench_tmp" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
              "--tmp", str(tmp)]
    try:
        setups = [
            spawn([*common, "--setup-only"], env, WORKER_TIMEOUT_S)[1:]
            for _ in range(0 if trace else SETUP_PROBES)
        ]
        worker_args = [*common, "--trace", str(trace)]
        if trace:
            spans = ROOT / ".bench_out" / f"spans-{workload}-{seed}.jsonl"
            worker_args += ["--spans-out", str(spans)]
        res, wall, ref = spawn(worker_args, env, WORKER_TIMEOUT_S)
        setups.append((wall, ref))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    ops = res["ops"]
    failed = sum(1 for op in ops if op["fails"])
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "attempted": len(ops),
        "failed": failed,
        "failures": [op["fails"] for op in ops if op["fails"]],
        "setup_wall_s": [s[0] for s in setups],
        "setup_ref_s": [s[1] for s in setups],
        "op_wall_s": [op["wall_s"] for op in ops],
        "op_cpu_s": [op["cpu_s"] for op in ops],
        "op_ref_s": [op["ref_s"] for op in ops],
        "peak_rss_mb": res["peak_rss_mb"],
        "layers": res.get("layers"),
        "env": res["env"],
    }


def p50(xs: list[float]) -> float:
    """Harrell-Davis estimate of the median: the order statistics weighted by
    a Beta((n+1)/2, (n+1)/2) distribution.  A run holds only a few ops when
    they are slow, and on a shared machine their times fall into a fast and a
    slow mode; the sample median then jumps between the modes from run to
    run, while this estimate moves smoothly."""
    from scipy.special import betainc

    xs = sorted(xs)
    a = (len(xs) + 1) / 2
    cdf = [betainc(a, a, i / len(xs)) for i in range(len(xs) + 1)]
    return float(sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], xs)))


def end_to_end(r: dict) -> dict[str, float]:
    return {
        "setup_s": statistics.median(r["setup_ref_s"]),
        "ops_per_s": r["attempted"] / sum(r["op_ref_s"]),
        "op_p50_s": p50(r["op_ref_s"]),
        "peak_rss_mb": r["peak_rss_mb"],
        "ok_ratio": 1.0 - r["failed"] / r["attempted"],
    }


def result_line(r: dict) -> dict:
    if r["trace"]:
        metrics = r["layers"]
    else:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in end_to_end(r).items()}
    return {
        "correct": r["failed"] == 0,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": metrics,
    }


def describe(r: dict) -> str:
    walls, cpus, refs = r["op_wall_s"], r["op_cpu_s"], r["op_ref_s"]
    lines = [
        f"# {r['workload']} seed={r['seed']} trace={r['trace']} env={json.dumps(r['env'])}",
        f"#   ops={r['attempted']} failed={r['failed']} "
        f"fail_ratio={r['failed'] / r['attempted']:.4g} ratio",
        "#   per-op wall_s=" + " ".join(f"{w:.4f}" for w in walls),
        "#   per-op cpu_s =" + " ".join(f"{c:.4f}" for c in cpus),
        "#   per-op ref_s =" + " ".join(f"{x:.4f}" for x in refs),
        f"#   cpu/wall={sum(cpus) / sum(walls):.4f} "
        f"setup wall_s=" + " ".join(f"{s:.4f}" for s in r["setup_wall_s"])
        + " ref_s=" + " ".join(f"{s:.4f}" for s in r["setup_ref_s"]),
    ]
    for fails in r["failures"]:
        lines.append(f"#   FAILED: {'; '.join(fails)}")
    if r["trace"]:
        lines += [f"#   {k} = {m['value']:.6g} {m['unit']}" for k, m in r["layers"].items()]
    else:
        lines.append(f"#   op_p50_s over {r['attempted']} samples")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, help="default: every workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.workload:
        r = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print(describe(r))
        print(json.dumps(result_line(r)))
        return 0

    rows = [run_workload(w, args.seed, args.seconds, args.trace) for w in WORKLOADS]
    for r in rows:
        print(describe(r))
    if args.trace:
        return 0 if all(r["failed"] == 0 for r in rows) else 1
    names = list(UNITS)
    print(f"{'workload':<10}" + "".join(f"{n + ' [' + UNITS[n] + ']':>20}" for n in names)
          + f"{'fail_ratio [ratio]':>20}")
    for r in rows:
        m = end_to_end(r)
        print(f"{r['workload']:<10}" + "".join(f"{m[n]:>20.6g}" for n in names)
              + f"{r['failed'] / r['attempted']:>20.6g}")
    return 0 if all(r["failed"] == 0 for r in rows) else 1


if __name__ == "__main__":
    raise SystemExit(main())
