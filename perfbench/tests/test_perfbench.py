"""Tests of the benchmark itself: seeded inputs, failure accounting, and the
tracer's wrappers.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import math
import signal
import statistics
import sys
import time

import numpy as np
import pytest

import run
import tracer
import worker
import workloads


@pytest.mark.parametrize("name", ["bifurcate", "sweep", "profile"])
def test_same_seed_same_inputs(name):
    make = workloads.WORKLOADS[name][0]
    assert make(7, 100) == make(7, 100)
    assert make(7, 100) != make(8, 100)
    assert make(7, 300)[:100] == make(7, 100)


def test_oracles_inputs_ignore_the_seed():
    make = workloads.WORKLOADS["oracles"][0]
    assert make(1, 10) == make(2, 10)


def test_input_ranges_and_balance():
    lo, hi = workloads.EPS_RANGE
    bif = workloads.bifurcate_inputs(3, n=64)
    # every block of four ops covers each (N, k) corner once
    for i in range(0, 64, 4):
        assert sorted((x["N"], x["k"]) for x in bif[i:i + 4]) == [(3, 2), (3, 3), (4, 2), (4, 3)]
    sweep = workloads.sweep_inputs(3, n=64)
    prof = workloads.profile_inputs(3, n=64)
    for x in bif + sweep + prof:
        assert lo <= x["eps"] <= hi
    for x in sweep:
        assert 1000 <= x["grid_points"] <= 3000
        assert 0.5 <= x["alpha_lo"] < x["alpha_hi"] <= 4.5
    assert len({(x["N"], x["alpha"], x["eps"]) for x in prof}) == len(prof)
    assert all(0.0 <= x["alpha"] < 4.0 for x in prof)


def test_failing_op_is_counted_not_dropped(tmp_path):
    def op(inp, tmp):
        if inp == "raise":
            raise ValueError("boom")
        return ["check missed"] if inp == "wrong" else []

    inputs = ["ok", "raise", "wrong", "ok"]
    probe = worker.SpeedProbe(worker.numpy_loop, worker.NUMPY_LOOP_REF_S)
    ops = [worker.run_op(op, x, tmp_path / f"op{i}", probe) for i, x in enumerate(inputs)]
    assert [bool(o["fails"]) for o in ops] == [False, True, True, False]
    assert ops[1]["fails"] == ["ValueError: boom"]

    r = {
        "trace": 0,
        "attempted": len(ops),
        "failed": sum(1 for o in ops if o["fails"]),
        "setup_ref_s": [1.0, 2.0, 3.0],
        "op_ref_s": [o["ref_s"] for o in ops],
        "peak_rss_mb": 80.0,
    }
    line = run.result_line(r)
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 4, 2)
    assert line["metrics"]["ok_ratio"]["value"] == 0.5
    assert line["metrics"]["setup_s"]["value"] == 2.0
    assert set(line["metrics"]) == set(run.UNITS)


def test_closed_loop_starts_only_ops_that_fit(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(worker.time, "perf_counter", lambda: clock[0])

    def step(i):
        clock[0] += 1.0  # every op takes one second
        return i

    assert worker.closed_loop(step, 3.5) == [0, 1, 2]
    assert worker.closed_loop(step, 0.0) == [0]


def test_speed_probe_samples_inside_the_op_and_restores_the_timer(tmp_path):
    def op(inp, tmp):
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            pass
        return []

    before = signal.getsignal(signal.SIGALRM)
    probe = worker.SpeedProbe(worker.python_loop, worker.PYTHON_LOOP_REF_S)
    r = worker.run_op(op, None, tmp_path / "op", probe)
    # a sample at start, about four from the timer, one after stop
    assert 5 <= len(probe.samples) <= 8
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # the op's own time excludes the samples taken inside it
    assert 0.5 - 0.02 < r["wall_s"] < 0.5 + 0.05
    speed = worker.PYTHON_LOOP_REF_S / statistics.fmean(probe.samples)
    assert math.isclose(r["ref_s"], r["wall_s"] * speed)


def test_p50_is_a_median_estimate():
    assert run.p50([5.0]) == 5.0
    assert math.isclose(run.p50([3.0, 1.0, 2.0]), 2.0)
    assert math.isclose(run.p50([1.0, 2.0, 3.0, 4.0]), 2.5)
    xs = [0.1 * i for i in range(201)]
    assert abs(run.p50(xs) - statistics.median(xs)) < 0.01


def _snapshot():
    """Identity of every attribute of the package's modules and classes."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] != "henonball":
            continue
        for name, value in vars(mod).items():
            out[(mod_name, name)] = value
            if isinstance(value, type) and value.__module__ == mod_name:
                for attr, member in vars(value).items():
                    out[(mod_name, name, attr)] = member
    return out


def _unchanged(before):
    after = _snapshot()
    return after.keys() == before.keys() and all(after[k] is v for k, v in before.items())


def test_tracer_restores_every_wrapped_attribute(tmp_path):
    before = _snapshot()
    t = tracer.Tracer()
    with t:
        assert not _unchanged(before)
        fails = workloads.profile_op({"N": 3, "alpha": 1.0, "eps": 0.02}, tmp_path)
    assert fails == []
    assert _unchanged(before)

    m = tracer.layer_metrics(t.spans, 1)
    assert set(m) == set(tracer.LAYER_UNITS) - {"trace.overhead_s", "trace.overhead_ratio"}
    assert (m["io.cache.hits"], m["io.cache.misses"]) == (1.0, 1.0)
    assert m["spectral.count.calls"] == 0.0
    assert m["radial.ivp.calls"] == 2.0  # miss and rescale shoot, the hit reads
    assert m["cli.self_s"] > 0.0


def test_tracer_restores_after_a_raise():
    before = _snapshot()
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            raise RuntimeError("op failed")
    assert _unchanged(before)


def test_self_time_and_ratios_from_spans():
    # name, start, end, parent, work
    spans = [
        ["bifurcation.search", 0.0, 10.0, None, None],
        ["bifurcation.lambda", 1.0, 4.0, 0, None],
        ["spectral.solve_eigen", 1.5, 3.5, 1, None],
        ["bifurcation.lambda", 5.0, 6.0, 0, None],
        ["spectral.count", 6.5, 7.0, 0, 3000],
    ]
    m = tracer.layer_metrics(spans, 2)
    assert math.isclose(m["bifurcation.search.self_s"], (10.0 - 3.0 - 1.0 - 0.5) / 2)
    assert m["bifurcation.alpha_evals"] == 2.0
    assert m["bifurcation.lambda.hit_ratio"] == 0.5
    assert m["spectral.count.row_shifts"] == 1500.0
    assert m["spectral.certify.fallback_ratio"] == 0.0


def test_count_work_is_rows_times_shifts():
    from henonball.spectral import Pencil

    pen = Pencil(np.arange(1.0, 6.0), np.full(5, 2.0), np.full(4, -1.0), np.ones(5))
    t = tracer.Tracer()
    with t:
        pen.count([0.0, 1.0, 2.0])
        pen.count(0.5)
    assert [s[4] for s in t.spans] == [15, 5]
