import gc
import logging
import weakref

import numpy as np
import pytest

from henonball import bifurcation
from henonball.bifurcation import (
    SolverCache,
    alpha_resolution,
    find_bifurcation_alpha,
    lambda_values,
    morse_index,
)
from henonball.closedform import (
    bifurcation_alpha,
    lambda1_closed,
    sphere_eigen,
    sphere_multiplicity,
)
from henonball.errors import BracketError, DegeneratePointError, DomainError


@pytest.fixture(scope="module")
def cache():
    return SolverCache()


def lambda1_samples(eps, alphas, cache):
    return np.array([lambda_values(3, eps, a, 1, cache)[0] for a in alphas])


class TestLambdaCurve:
    def test_negativity_and_continuity(self, cache):
        alphas = np.linspace(1.5, 2.5, 9)
        values = lambda1_samples(0.05, alphas, cache)
        assert np.all(values < 0.0)
        # neighbor jumps bounded by the limit curve's local slope (α+N)/2
        # times the grid spacing, with a safety factor of 3
        slope = (np.maximum(alphas[:-1], alphas[1:]) + 3) / 2.0
        allowed = 3.0 * slope * np.diff(alphas) + 1e-6
        assert np.all(np.abs(np.diff(values)) <= allowed)

    def test_uniform_closeness_to_limit(self, cache):
        # the deviation from the closed-form limit curve is a boundary tail
        # effect, far below any ε power; assert the uniform smallness and the
        # floored trend along decreasing ε
        alphas = np.linspace(1.5, 2.5, 5)
        limit = np.array([lambda1_closed(3, a) for a in alphas])
        sups = []
        for eps in (0.1, 0.05, 0.02):
            sups.append(np.max(np.abs(lambda1_samples(eps, alphas, cache) - limit)))
        assert all(s < 1e-5 for s in sups)
        floor = 5e-9  # spectral discretization reproducibility
        assert all(b <= a + floor for a, b in zip(sups, sups[1:]))


class TestFindBifurcation:
    def test_k2_small_eps(self, cache):
        bp = find_bifurcation_alpha(3, 0.01, 2, cache=cache)
        lo, hi = bp.bracket
        assert lo < bp.alpha_k_eps < hi
        assert 1.1 < bp.alpha_k_eps < 2.9
        assert bp.residual < 1e-6
        assert bp.unique and bp.exclusion_ok
        assert abs(bp.alpha_k_eps - bifurcation_alpha(2)) < 1e-4

    def test_bracketing_inequality(self, cache):
        # the curve straddles -sigma_2 across the default bracket
        sigma2, _ = sphere_eigen(3, 2)
        for alpha, side in ((1.1, 1.0), (2.9, -1.0)):
            lam1 = lambda_values(3, 0.01, alpha, 1, cache=cache)[0]
            assert side * (lam1 + sigma2) > 0

    def test_sign_change_bracket_certificate(self, cache):
        bp = find_bifurcation_alpha(3, 0.05, 2, cache=cache)
        lo, hi = bp.bracket
        f_lo = lambda_values(3, 0.05, lo, 1, cache=cache)[0] + bp.sigma_k
        f_hi = lambda_values(3, 0.05, hi, 1, cache=cache)[0] + bp.sigma_k
        assert f_lo > 0 > f_hi

    def test_k1_rejected(self, cache):
        with pytest.raises(DomainError):
            find_bifurcation_alpha(3, 0.05, 1, cache=cache)

    def test_hopeless_bracket_raises(self, cache):
        with pytest.raises(BracketError):
            find_bifurcation_alpha(3, 0.05, 2, bracket=(0.2, 0.6), cache=cache)

    def test_failed_exclusion_is_logged(self, cache, caplog):
        # lambda1 also crosses -sigma_3 = -12 near alpha = 4
        with caplog.at_level(logging.WARNING, logger="henonball"):
            bp = find_bifurcation_alpha(3, 0.05, 2, bracket=(0.5, 4.5), cache=cache)
        assert bp.unique and not bp.exclusion_ok
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        assert "-sigma_3=12" in record.getMessage()

    def test_default_bracket_logs_nothing(self, cache, caplog):
        with caplog.at_level(logging.WARNING, logger="henonball"):
            bp = find_bifurcation_alpha(3, 0.05, 2, cache=cache)
        assert bp.unique and bp.exclusion_ok
        assert caplog.records == []


class TestMorseIndex:
    def test_jump_across_k2_crossing(self, cache):
        lo = morse_index(3, 0.01, 1.95, cache=cache)
        hi = morse_index(3, 0.01, 2.05, cache=cache)
        assert hi.index_invariant - lo.index_invariant == 1
        assert hi.index_full - lo.index_full == 5  # multiplicity of sigma_2, N=3

    def test_constant_on_each_side(self, cache):
        a = morse_index(3, 0.01, 1.90, cache=cache)
        b = morse_index(3, 0.01, 1.95, cache=cache)
        assert a.index_full == b.index_full
        assert a.index_invariant == b.index_invariant

    def test_radial_contribution_is_one(self, cache):
        rep = morse_index(3, 0.01, 1.95, cache=cache)
        assert rep.radial_count == 1

    def test_small_alpha_first_channel(self, cache):
        # lambda_1 < -sigma_1 for every alpha > 0: pair (1,1) contributes
        rep = morse_index(3, 0.01, 0.3, cache=cache)
        assert dict(rep.channel_counts)[1] >= 1 and sphere_multiplicity(3, 1) == 3
        assert rep.index_invariant == 2  # radial + the (1,1) channel
        assert rep.index_full == 4       # radial + multiplicity 3

    def test_degenerate_point_rejected(self, cache):
        with pytest.raises(DegeneratePointError):
            morse_index(3, 0.01, 2.0, cache=cache)


class TestLambda2Floor:
    def test_floor_above_minus_sigma1(self, cache):
        vals = min(lambda_values(3, 0.01, a, 2, cache)[1] for a in np.linspace(1.0, 5.0, 9))
        assert vals > -2.0

    def test_ordering_against_lambda1(self, cache):
        for alpha in (1.0, 3.0, 5.0):
            l1, l2 = lambda_values(3, 0.01, alpha, 2, cache=cache)
            assert l2 > l1


class TestConvergenceStudy:
    def test_k2_dim3(self, cache):
        errs = [abs(find_bifurcation_alpha(3, eps, 2, cache=cache).alpha_k_eps
                    - bifurcation_alpha(2)) for eps in (0.1, 0.05, 0.02)]
        assert max(errs) < 1e-4
        floor = alpha_resolution(3, 2)
        assert all(b <= a + floor for a, b in zip(errs, errs[1:]))

    def test_alpha_resolution_floor(self):
        # residual tolerance 1e-6 against slope (alpha_k + N)/2
        assert alpha_resolution(3, 2) == pytest.approx(2e-6 / 2.5)

    def test_limit_roots_exact(self):
        # closed-form sanity: the limit curve crosses -sigma_k exactly at
        # alpha = 2(k-1)
        for n_dim in (3, 4, 5):
            for k in (2, 3, 4):
                sigma, _ = sphere_eigen(n_dim, k)
                a = bifurcation_alpha(k)
                assert abs(lambda1_closed(n_dim, a) + sigma) < 1e-12


def test_uncached_call_keeps_no_profile(monkeypatch):
    # without cache= the solved profiles live only as long as the call
    solve, refs = bifurcation.solve_dirichlet_ball, []

    def tracked(*args, **kwargs):
        profile = solve(*args, **kwargs)
        refs.append(weakref.ref(profile))
        return profile

    monkeypatch.setattr(bifurcation, "solve_dirichlet_ball", tracked)
    lambda_values(3, 0.05, 2.0)
    gc.collect()
    assert len(refs) == 1 and refs[0]() is None
