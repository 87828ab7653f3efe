import pytest

from henonball.errors import DomainError
from henonball.verify import run_criteria


def test_oracle_criteria_pass():
    report = run_criteria(["C8"])
    assert [r.id for r in report.results] == [
        "C8.a_integrators", "C8.b_prufer", "C8.c_scale", "C8.d_fowler", "C8.e_amplitude",
    ]
    assert report.overall_pass and all(r.passed for r in report.results)
    assert report.results[1].measured < 1e-6


def test_selection_is_by_prefix():
    report = run_criteria(["C1.a"])
    assert [r.id for r in report.results] == ["C1.a", "C1.b", "C1.c"]


def test_unknown_criterion_is_a_domain_error():
    with pytest.raises(DomainError, match="C99"):
        run_criteria(["C99"])


def test_every_criterion_but_c4_passes():
    # C4 alone takes most of a full run; its functions have their own tests
    report = run_criteria(["C1", "C2", "C3", "C5", "C6", "C7", "C8", "C9", "C10"])
    ids = [r.id for r in report.results]
    assert len(ids) == 25 and len(set(ids)) == 25
    assert report.overall_pass and all(r.passed for r in report.results)
