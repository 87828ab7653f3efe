from types import SimpleNamespace

import pytest

from henonball import spectral, verify
from henonball.errors import DomainError
from henonball.verify import CriterionResult, run_criteria


def test_oracle_criteria_pass():
    report = run_criteria(["C8"])
    assert [r.id for r in report.results] == [
        "C8.a_integrators", "C8.b_prufer", "C8.c_scale", "C8.d_fowler", "C8.e_amplitude",
    ]
    assert report.overall_pass and all(r.passed for r in report.results)
    assert report.results[1].measured < 1e-6


def test_oracles_shoot_only_the_amplitude_4_profile(monkeypatch):
    # C8.e compares the cached amplitude-1 profile with one new shot
    calls = []
    solve = verify.solve_dirichlet_ball
    monkeypatch.setattr(verify, "solve_dirichlet_ball",
                        lambda params, **kw: calls.append((params, kw)) or solve(params, **kw))
    assert run_criteria(["C8"]).overall_pass
    assert [((p.n_dim, p.alpha, p.eps), kw) for p, kw in calls] == [
        ((3, 2.0, 0.05), {"amplitude": 4.0})]


def test_selection_is_by_prefix():
    report = run_criteria(["C1.a"])
    assert [r.id for r in report.results] == ["C1.a", "C1.b", "C1.c"]


def test_unknown_criterion_is_a_domain_error():
    with pytest.raises(DomainError, match="C99"):
        run_criteria(["C99"])


def test_every_criterion_passes():
    report = run_criteria()
    ids = [r.id for r in report.results]
    assert len(ids) == 28 and len(set(ids)) == 28
    assert report.overall_pass and all(r.passed for r in report.results)


def test_runner_stamps_each_record_with_the_time_since_the_last(monkeypatch):
    events = []

    def planted(cache):
        events.append("first computed")
        yield CriterionResult("C0.a", "planted", "0", 0.0, 1.0, True)
        events.append("second computed")
        yield CriterionResult("C0.b", "planted", "0", 0.0, 1.0, True)

    ticks = iter(range(100))
    monkeypatch.setitem(verify.CRITERIA, "C0", planted)
    monkeypatch.setattr(verify.time, "perf_counter", lambda: float(next(ticks)))
    report = run_criteria(["C0"], progress=events.append)
    assert [r.runtime_s for r in report.results] == [1.0, 1.0]
    assert report.total_runtime_s == 2.0
    assert events == ["first computed", report.results[0].line(),
                      "second computed", report.results[1].line()]


def test_report_records_carry_the_criterion_schema():
    doc = run_criteria(["C2"]).to_dict()
    assert doc["kind"] == "verify_report" and len(doc["criteria"]) == 6
    for record in doc["criteria"]:
        assert set(record) == {"id", "description", "target", "measured",
                               "tolerance", "passed", "runtime_s"}


def test_limit_spectra_are_solved_once_per_run(monkeypatch):
    calls, solve = [], spectral.limit_eigen

    def counted(n_dim, alpha):
        calls.append((n_dim, alpha))
        return solve(n_dim, alpha)

    monkeypatch.setattr(spectral, "limit_eigen", counted)
    joint = run_criteria(["C1", "C2"])
    # C2 at alpha 0 and 2 reads the spectra of C1.b and C1.a
    assert sorted(calls) == [(3, 0.0), (3, 1.0), (3, 2.0), (4, 2.0)]
    apart = run_criteria(["C1"]).results + run_criteria(["C2"]).results
    assert len(joint.results) == 9
    assert ([(r.id, repr(r.measured)) for r in joint.results]
            == [(r.id, repr(r.measured)) for r in apart])


def test_limit_criteria_run_no_bisection(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("eigh_tridiagonal called")

    monkeypatch.setattr(spectral, "eigh_tridiagonal", forbidden)
    assert run_criteria(["C1", "C2"]).overall_pass


# |α_2^ε - 2| along EPS_SWEEP: a tie is nonincreasing, a rise is not
@pytest.mark.parametrize("errs, measured, passed", [
    ((4e-5, 2e-5, 2e-5, 1e-5), 0.0, True),
    ((4e-5, 2e-5, 3e-5, 1e-5), 3e-5 - 2e-5, False),
])
def test_c4_trend_reads_planted_deltas(monkeypatch, errs, measured, passed):
    by_eps = dict(zip(verify.EPS_SWEEP, errs))

    def planted(n_dim, eps, k, cache):
        return SimpleNamespace(residual=0.0, delta=-by_eps[eps])

    monkeypatch.setattr(verify.bif, "find_bifurcation_alpha", planted)
    trend = {r.id: r for r in run_criteria(["C4"]).results}["C4.trend"]
    assert trend.passed is passed and trend.measured == measured


# sup-distances to the bubble along EPS_SWEEP: C10 asks for a strict decrease
@pytest.mark.parametrize("dists, passed", [
    ((0.4, 0.3, 0.2, 0.1), True),
    ((0.4, 0.3, 0.3, 0.1), False),
])
def test_c10_reads_planted_distances(monkeypatch, dists, passed):
    by_eps = dict(zip(verify.EPS_SWEEP, dists))
    monkeypatch.setattr(verify.resc, "limit_distance",
                        lambda rescaled: by_eps[rescaled.params.eps])
    results = run_criteria(["C10"]).results
    assert [r.id for r in results] == ["C10.a1", "C10.a2"]
    for r in results:
        assert r.passed is passed
        assert r.measured == max(b - a for a, b in zip(dists, dists[1:]))
