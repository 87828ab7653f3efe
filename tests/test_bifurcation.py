import dataclasses
import gc
import json
import logging
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from henonball import bifurcation, spectral
from henonball.bifurcation import (
    SolverCache,
    find_bifurcation_alpha,
    flux_gap,
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
from henonball.radial import RadialProfile
from henonball.spectral import Pencil, default_spectral_grid


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

    def test_integral_float_count_is_the_count(self, cache):
        # count = 2.0 and 1.5 raised a TypeError
        assert lambda_values(3, 0.05, 2.0, 2.0, cache) == lambda_values(3, 0.05, 2.0, 2, cache)
        with pytest.raises(DomainError, match="need an integer count, got 1.5"):
            lambda_values(3, 0.05, 2.0, 1.5, cache)


# (N, α) pairs that share the Lane–Emden dimension m = 2(N+α)/(2+α)
SHARED_M = {3.0: [(3, 0.0), (4, 2.0), (6, 6.0)], 2.5: [(3, 2.0), (4, 6.0)],
            4.0: [(4, 0.0), (5, 1.0), (6, 2.0)]}
# the N ≥ 4 members of each m whose Λ₂ agree
SHARED_M_LAMBDA2 = {3.0: [(4, 2.0), (5, 4.0), (6, 6.0)], 2.5: [(4, 6.0), (5, 10.0)],
                    4.0: [(4, 0.0), (5, 1.0), (6, 2.0)]}


class TestSharedDimension:
    @pytest.mark.parametrize("m", SHARED_M)
    @pytest.mark.parametrize("eps", [0.05, 0.01])
    def test_lambda1_and_gap_depend_on_m_alone(self, m, eps, cache):
        # s = r^γ, γ = (2+α)/2, maps (N, α) to Lane–Emden in dimension m and
        # scales the r^-2-weighted spectrum by γ²; the worst spreads were
        # 8.1e-9 (Λ₁/γ²) and 3.3e-6 relative (g/γ²)
        lam, gap = [], []
        for n_dim, alpha in SHARED_M[m]:
            assert 2.0 * (n_dim + alpha) / (2.0 + alpha) == m
            gamma2 = ((2.0 + alpha) / 2.0) ** 2
            g, lam1 = flux_gap(n_dim, eps, alpha, cache)
            lam.append(lam1 / gamma2)
            gap.append(g / gamma2)
        assert np.ptp(lam) <= 2e-8
        assert np.ptp(gap) <= 1e-5 * min(gap)

    @pytest.mark.parametrize("m", SHARED_M_LAMBDA2)
    @pytest.mark.parametrize("eps", [0.2, 0.05])
    def test_lambda2_depends_on_m_alone_for_n_at_least_4(self, m, eps, cache):
        # N = 3 members are left out: a grid from R_MIN reaches s = R_MIN^γ,
        # so their small γ cuts the s-range closest to the bubble and moves
        # Λ₂/γ² by 7e-4 relative at ε = 0.2; the worst spread below was
        # 1.83e-5 relative (m = 2.5, ε = 0.05)
        lam2 = []
        for n_dim, alpha in SHARED_M_LAMBDA2[m]:
            assert 2.0 * (n_dim + alpha) / (2.0 + alpha) == m
            lam2.append(lambda_values(n_dim, eps, alpha, 2, cache)[1] / ((2.0 + alpha) / 2.0) ** 2)
        assert np.ptp(lam2) <= 5e-5 * min(np.abs(lam2))


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
        # the default bracket is [2(k-1), W]; the pencil's sign at 2(k-1) is
        # the identity's, not a value the search read
        for n_dim, k, eps in [*CORNERS, (4, 2, 2.0)]:
            bp = find_bifurcation_alpha(n_dim, eps, k, cache=cache)
            lo, hi = bp.bracket
            assert lo == bifurcation_alpha(k)
            sigma_k, _ = sphere_eigen(n_dim, k)
            f_lo = lambda_values(n_dim, eps, lo, 1, cache=cache)[0] + sigma_k
            f_hi = lambda_values(n_dim, eps, hi, 1, cache=cache)[0] + sigma_k
            assert f_lo > 0 > f_hi, (n_dim, k, eps)

    def test_k1_rejected(self, cache):
        with pytest.raises(DomainError):
            find_bifurcation_alpha(3, 0.05, 1, cache=cache)

    def test_k1_message_says_unsupported(self, cache):
        # alpha_1^eps > 0 for eps > 0, so the message must not claim alpha = 0
        with pytest.raises(DomainError, match=r"k >= 2: k = 1 is not supported yet$"):
            find_bifurcation_alpha(3, 0.05, 1, cache=cache)

    def test_non_integral_k_rejected(self, cache):
        # refused before any profile is solved
        with pytest.raises(DomainError, match="need integer N >= 3 and k >= 0"):
            find_bifurcation_alpha(3, 0.05, 2.5, cache=cache)

    def test_integral_float_k_is_k(self, cache):
        # k = 2.0 raised a TypeError in the exclusion loop
        assert (find_bifurcation_alpha(3, 0.05, 2.0, cache=cache)
                == find_bifurcation_alpha(3, 0.05, 2, cache=cache))

    def test_non_finite_bracket_rejected(self, cache):
        for bracket in ((1.0, math.inf), (math.nan, 2.0)):
            with pytest.raises(DomainError, match="bracket"):
                find_bifurcation_alpha(3, 0.05, 2, bracket=bracket, cache=cache)

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

    def test_delta_is_the_shift_as_computed(self, cache):
        # at N = 3 the shift is a few ulps of 2, which alpha_k_eps rounds
        bp = find_bifurcation_alpha(3, 0.01, 2, cache=cache)
        assert 0.0 < bp.delta < 1e-13
        assert bp.alpha_k_eps == bifurcation_alpha(2) + bp.delta


# the perfbench bifurcate workload's (N, k) corners at two eps each
CORNERS = [(n_dim, k, eps) for n_dim in (3, 4) for k in (2, 3) for eps in (0.01, 0.05)]


class TestFluxIdentity:
    @settings(max_examples=20, deadline=None)
    @given(n_dim=st.integers(3, 6), alpha=st.floats(0.0, 4.5),
           log_eps=st.floats(math.log(0.005), math.log(0.2)))
    def test_gap_matches_the_pencil(self, n_dim, alpha, log_eps):
        # g = Lambda1^eps - Lambda1 exactly; the pencil's difference carries
        # its own discretization error, up to ~1e-9 absolute and 1e-5 of g
        eps = math.exp(log_eps)
        cache = SolverCache()
        gap, _ = flux_gap(n_dim, eps, alpha, cache)
        pencil = lambda_values(n_dim, eps, alpha, 1, cache)[0] - lambda1_closed(n_dim, alpha)
        assert gap >= 0.0
        assert abs(gap - pencil) <= 2e-7 + 1e-5 * gap

    def test_returns_the_pencil_eigenvalue(self, cache):
        # the scan fallback reads f from flux_gap, so its roots rest on this
        _, lam1 = flux_gap(3, 0.05, 2.0, cache)
        assert lam1 == lambda_values(3, 0.05, 2.0, 1, cache)[0]

    def test_a_repeated_search_reuses_the_cached_gaps(self, monkeypatch):
        calls = []
        pencil = spectral.RadialGrid.pencil
        monkeypatch.setattr(spectral.RadialGrid, "pencil",
                            lambda *args: calls.append(args) or pencil(*args))
        cache = SolverCache()
        first = find_bifurcation_alpha(3, 0.01, 2, cache=cache)
        assembled = len(calls)
        assert assembled > 0
        assert find_bifurcation_alpha(3, 0.01, 2, cache=cache) == first
        assert len(calls) == assembled

    def test_one_geometry_build_per_grid_per_process(self, monkeypatch):
        # a search and two Morse indices per N, on two caches, build each
        # grid of the pair once in the process, and assemble what fresh
        # arrays would give
        bifurcation._unit_ball_grids.cache_clear()
        builds, pencils = [], []
        post_init, pencil = spectral.RadialGrid.__post_init__, spectral.RadialGrid.pencil

        def spied_init(grid):
            post_init(grid)
            builds.append((grid.n_dim, grid.r_end, grid.n))

        monkeypatch.setattr(spectral.RadialGrid, "__post_init__", spied_init)
        monkeypatch.setattr(spectral.RadialGrid, "pencil",
                            lambda *args: pencils.append(pencil(*args)) or pencils[-1])
        for cache in (SolverCache(), SolverCache()):
            for n_dim, eps in ((3, 0.05), (4, 0.2)):
                alpha = find_bifurcation_alpha(n_dim, eps, 2, cache=cache).alpha_k_eps
                morse_index(n_dim, eps, alpha - 0.05, cache=cache)
                morse_index(n_dim, eps, alpha + 0.05, cache=cache)
        assert builds == [(3, 1.0, 3000), (3, 1.0, 1500), (4, 1.0, 3000), (4, 1.0, 1500)]
        last_morse = pencils[-1]
        problem = spectral.SLProblem.from_profile(cache.profile(4, alpha + 0.05, 0.2))
        ref = spectral.assemble_pencil(problem, default_spectral_grid(1.0, 3000))
        assert ref is not last_morse
        for name in ("grid", "a_diag", "a_off", "b_diag"):
            assert np.array_equal(getattr(last_morse, name), getattr(ref, name)), name

    @pytest.mark.parametrize("n_dim, k, eps", CORNERS)
    def test_agrees_with_the_scan_in_few_evaluations(self, n_dim, k, eps, cache, caplog):
        with caplog.at_level(logging.WARNING, logger="henonball"):
            bp = find_bifurcation_alpha(n_dim, eps, k, cache=cache)
        assert bp.evaluations <= 4 and caplog.records == []
        search = bifurcation._Search(n_dim, eps, k, None, cache)
        root, others, _, crossed = bifurcation._scan_search(search)
        assert abs(bp.alpha_k_eps - root) <= 1e-8
        assert (bp.unique, bp.exclusion_ok) == (not others, not crossed) == (True, True)

    @pytest.mark.parametrize("n_dim, k, eps", CORNERS)
    def test_default_search_evaluates_one_point_past_its_iterates(self, n_dim, k, eps,
                                                                   cache, monkeypatch):
        # nothing below 2(k-1), where f > 0 follows from the closed form; the
        # iterates, the last of them the root; then the window end W alone,
        # above every iterate
        alphas = []
        gap = bifurcation.flux_gap
        monkeypatch.setattr(bifurcation, "flux_gap",
                            lambda n, e, a, c: alphas.append(a) or gap(n, e, a, c))
        bp = find_bifurcation_alpha(n_dim, eps, k, cache=cache)
        *iterates, end = alphas
        assert min(alphas) == bifurcation_alpha(k) == bp.bracket[0]
        assert iterates[-1] == bp.alpha_k_eps
        assert end == bp.bracket[1] > max(iterates)
        assert bp.evaluations == len(set(iterates)) + 1 == len(alphas)

    # a planted g = 0.51 up to the root 2.2 (shift(5, 0.51) = 0.2), then
    # rising at `slope` up to 2.4, then flat: the window end is W = 2.4; each
    # row is a check on [2, W] that fails, so the scan decides on [2, 2.9] and
    # finds the root where g = `g_root`
    @pytest.mark.parametrize("slope, reason, g_root", [
        # f(W) = -0.015 < 0 and the window [2, 2.394] fits, but the chord on
        # [2.2, 2.4] is 2.575 > A/2 = 2.5
        (2.575, r"g changes faster than A/2 = 2\.5 on \[2\.2.*, 2\.4.*\]", 0.51),
        # f(W) = 0.07: f rises past 2.2 and crosses near 2.426
        (3.0, r"lambda1 \+ sigma_2 >= 0 at the window end alpha=2\.4", 1.11),
    ], ids=["chord-slope", "window-end-sign"])
    def test_default_window_failure_falls_back_to_the_default_bracket(
            self, slope, reason, g_root, caplog, monkeypatch):
        alphas = []

        def planted(n_dim, eps, alpha, cache):
            alphas.append(alpha)
            g = 0.51 + slope * min(max(alpha - 2.2, 0.0), 0.2)
            return g, lambda1_closed(n_dim, alpha) + g

        monkeypatch.setattr(bifurcation, "flux_gap", planted)
        with caplog.at_level(logging.WARNING, logger="henonball"):
            bp = find_bifurcation_alpha(3, 0.01, 2)
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        message = record.getMessage()
        assert "bracket=(2.0, 2.9): flux-identity search falls back to the scan: " in message
        assert re.search(reason + "$", message)
        assert (min(alphas), max(alphas)) == (2.0, 2.9)
        assert bp.evaluations >= bifurcation.SCAN_POINTS
        # Lambda1(alpha) + g_root = -6, i.e. (alpha + 3)^2 = 1 + 4 (6 + g_root)
        root = math.sqrt(1.0 + 4.0 * (6.0 + g_root)) - 3.0
        assert abs(bp.alpha_k_eps - root) <= 1e-9 and bp.unique and bp.exclusion_ok
        assert 2.0 < bp.bracket[0] < root < bp.bracket[1] < 2.9

    # the iterates leave 2(k-1) + 0.9, and the scan on [2(k-1), 2(k-1) + 0.9]
    # decides as on that explicit bracket; from 2(k-1) - 0.9 it raised a
    # DomainError at (3, 7.9, 2), where 1.1 is inadmissible, and at
    # (4, 4.8, 3) it spanned the crossings with -sigma_1 and -sigma_2 below 4
    @pytest.mark.parametrize("n_dim, eps, k, root, exclusion_ok", [
        (3, 7.9, 2, 2.8700665824, False), (4, 4.8, 3, 4.8267952751, True)])
    def test_default_fallback_scans_from_2_k_minus_1(self, n_dim, eps, k, root, exclusion_ok,
                                                     cache, caplog):
        lo, hi = bifurcation_alpha(k), bifurcation_alpha(k) + 0.9
        with caplog.at_level(logging.WARNING, logger="henonball"):
            bp = find_bifurcation_alpha(n_dim, eps, k, cache=cache)
        [fallback] = [m for m in map(logging.LogRecord.getMessage, caplog.records)
                      if "falls back to the scan" in m]
        assert f"bracket={(lo, hi)!r}: " in fallback
        assert abs(bp.alpha_k_eps - root) <= 1e-9 and bp.residual < 1e-6
        assert bp.unique and bp.exclusion_ok == exclusion_ok
        assert lo < bp.bracket[0] < bp.alpha_k_eps < bp.bracket[1] < hi
        assert find_bifurcation_alpha(n_dim, eps, k, bracket=(lo, hi), cache=cache) == bp

    def test_fallback_returns_the_scan_root(self, cache, caplog, monkeypatch):
        # a bracket that starts above 2(k-1) excludes the search's start point
        bracket = (2.0001, 2.9)
        alphas = []
        gap = bifurcation.flux_gap
        monkeypatch.setattr(bifurcation, "flux_gap",
                            lambda n, e, a, c: alphas.append(a) or gap(n, e, a, c))
        with caplog.at_level(logging.WARNING, logger="henonball"):
            bp = find_bifurcation_alpha(4, 0.2, 2, bracket=bracket, cache=cache)
        evaluated = set(alphas)
        [record] = caplog.records
        assert "falls back to the scan: the search left the bracket" in record.getMessage()
        search = bifurcation._Search(4, 0.2, 2, bracket, cache)
        root, _, interval, _ = bifurcation._scan_search(search)
        assert (bp.alpha_k_eps, bp.delta, bp.residual, bp.bracket) == (
            root, root - 2.0, abs(search.f(root)), interval)
        assert bp.evaluations == len(evaluated)  # each distinct alpha once
        assert bp.unique and bp.exclusion_ok and bp.residual < 1e-6

    def test_fallback_past_an_exclusion_failure(self, caplog):
        # at eps = 6.4 the crossing sits near 2.42 and lambda1 also crosses
        # -sigma_1 near 1.61, inside the bracket but below 2(k-1); the search
        # cannot settle that and the scan decides
        with caplog.at_level(logging.WARNING, logger="henonball"):
            bp = find_bifurcation_alpha(3, 6.4, 2, bracket=(1.3, 2.9))
        assert "falls back to the scan" in caplog.records[0].getMessage()
        assert abs(bp.alpha_k_eps - 2.4178395668871326) <= 1e-8
        assert bp.unique and not bp.exclusion_ok

    # a planted g: 1e-6 up to a knee, then linear to `top` at the bracket's
    # upper end; each row is a certificate the search cannot settle, so it
    # falls back to the scan with this reason
    @pytest.mark.parametrize("k, bracket, knee, top, reason", [
        # chord slope 2.67, between A/2 = 2.5 and 2A
        (2, (1.9, 2.9), 2.05, 2.4, "g changes faster than A/2"),
        # -sigma_4 is provably crossed at 8.5 and -sigma_5 = -30 is not
        # settled: Lambda1(8.5) = -32.8 and Lambda1 + g = -29.3
        (3, (3.5, 8.5), 5.0, 3.5, r"-sigma_5 near alpha=8\.5 is not settled"),
        # Lambda1(2.5) = -7.31 < -sigma_2 = -6 <= Lambda1(2.5) + G = -5.31
        (3, (2.5, 8.5), 5.0, 2.0, r"-sigma_2 near alpha=2\.5 is not settled"),
    ], ids=["chord-slope", "exclusion-above", "exclusion-below"])
    def test_unsettled_certificate_falls_back(self, k, bracket, knee, top, reason,
                                              caplog, monkeypatch):
        lo, hi = bracket

        def planted(n_dim, eps, alpha, cache):
            g = 1e-6 if alpha <= knee else 1e-6 + (top - 1e-6) * (alpha - knee) / (hi - knee)
            return g, lambda1_closed(n_dim, alpha) + g

        monkeypatch.setattr(bifurcation, "flux_gap", planted)
        with caplog.at_level(logging.WARNING, logger="henonball"):
            bp = find_bifurcation_alpha(3, 0.01, k, bracket=bracket)
        message = caplog.records[0].getMessage()
        assert "falls back to the scan" in message
        assert re.search(reason, message)
        assert bp.evaluations >= bifurcation.SCAN_POINTS

    def test_scan_reports_every_root(self, caplog, monkeypatch):
        # a planted f = -(α - 1.5)(α - 2.2)(α - 2.6) with sign changes at all
        # three roots in the bracket (1.1, 2.9); g = 10 sends the search out
        # of it, so the scan decides and reports 2.2, the root nearest
        # 2(k-1) = 2
        def planted(n_dim, eps, alpha, cache):
            return 10.0, -6.0 - (alpha - 1.5) * (alpha - 2.2) * (alpha - 2.6)

        monkeypatch.setattr(bifurcation, "flux_gap", planted)
        with caplog.at_level(logging.WARNING, logger="henonball"):
            bp = find_bifurcation_alpha(3, 0.01, 2, bracket=(1.1, 2.9))
        assert not bp.unique and bp.exclusion_ok
        assert abs(bp.alpha_k_eps - 2.2) <= 1e-9
        alphas = np.linspace(1.1, 2.9, bifurcation.SCAN_POINTS).tolist()
        assert bp.bracket == (alphas[18], alphas[19])
        fallback, not_unique = (r.getMessage() for r in caplog.records)
        assert "falls back to the scan: the search left the bracket" in fallback
        # the other roots, nearest 2 first
        others = re.search(r"not unique, .* also at alpha=\[(.*)\] \(reporting ", not_unique)
        assert np.allclose([float(a) for a in others[1].split(",")], [1.5, 2.6], atol=1e-9)

    @pytest.mark.parametrize("n_dim, eps, k", [(4, 0.05, 3), (5, 0.2, 2)])
    def test_delta_meets_its_fixed_point(self, n_dim, eps, k, cache):
        # the search stops on a secant step of at most 1e-12 |delta|
        bp = find_bifurcation_alpha(n_dim, eps, k, cache=cache)
        g = cache._gaps[(n_dim, bp.alpha_k_eps, eps)][0]
        shift = bifurcation._shift(n_dim + 2 * k - 2, g)
        assert abs(bp.delta - shift) <= 1e-10 * abs(bp.delta)

    def test_inadmissible_bracket_end_is_named(self, cache):
        # eps = 6.4 needs alpha > (6.4 - 4)/2 = 1.2 at N = 3
        with pytest.raises(DomainError, match=r"bracket end lo=1\.1.* = 1\.2$"):
            find_bifurcation_alpha(3, 6.4, 2, bracket=(1.1, 2.9), cache=cache)

    def test_default_search_starts_at_an_admissible_alpha_k(self, cache):
        # the edge test reads the default search's lower end 2(k-1), not
        # 2(k-1) - 0.9 = 1.1: eps = 6.4 is admissible above 1.2, and the
        # identity certifies the root on [2, W] without the scan
        bp = find_bifurcation_alpha(3, 6.4, 2, cache=cache)
        assert abs(bp.alpha_k_eps - 2.4178395191) <= 1e-9 and bp.residual < 1e-6
        assert bp.unique and bp.exclusion_ok
        assert bp.bracket[0] == 2.0 and 2.42 < bp.bracket[1] < 3.43
        assert bp.evaluations <= bifurcation.SEARCH_EVALUATIONS
        # at eps = 8 the edge is 2(k-1) itself
        with pytest.raises(DomainError, match=r"bracket end lo=2\.0 is inadmissible.* = 2$"):
            find_bifurcation_alpha(3, 8.0, 2, cache=cache)

    def test_bracket_end_at_the_edge_is_inadmissible(self, cache):
        # lo exactly at the edge, where eps = p_lo - 1: the search refuses it
        # before any profile is solved
        edge = ((3 - 2) * 6.4 - 4.0) / 2.0
        with pytest.raises(DomainError, match="is inadmissible"):
            find_bifurcation_alpha(3, 6.4, 2, bracket=(edge, 2.9), cache=cache)

    @pytest.mark.parametrize("n_dim, eps, k", [(3, 0.01, 2), (4, 0.05, 3), (4, 0.2, 2)])
    def test_residual_is_the_recomputed_crossing_gap(self, n_dim, eps, k, cache):
        bp = find_bifurcation_alpha(n_dim, eps, k, cache=cache)
        sigma_k, _ = sphere_eigen(n_dim, k)
        lam1 = lambda_values(n_dim, eps, bp.alpha_k_eps, 1, cache)[0]
        assert bp.residual == abs(lam1 + sigma_k)


class TestSharedEvaluation:
    @pytest.mark.parametrize("n", [750, 1500, 3000])
    def test_coarse_grid_is_every_other_fine_node(self, n):
        fine = default_spectral_grid(1.0, 2 * n)
        assert default_spectral_grid(1.0, n).tobytes() == fine[::2].tobytes()

    def test_profile_read_once_per_evaluation(self, monkeypatch):
        cache = SolverCache()
        cache.profile(3, 1.9, 0.05)
        points = []
        evaluate = RadialProfile.evaluate

        def counted(self, r):
            points.append(np.size(r))
            return evaluate(self, r)

        monkeypatch.setattr(RadialProfile, "evaluate", counted)
        n_fine = 2 * bifurcation.N_POINTS
        flux_gap(3, 0.05, 1.9, cache)
        assert points == [n_fine + 1]  # one call: the fine grid and r = 1
        points.clear()
        morse_index(3, 0.05, 1.9, cache)
        assert sum(points) <= n_fine
        points.clear()
        lambda_values(3, 0.05, 1.9, 3, cache)
        assert sum(points) <= n_fine

    @pytest.mark.parametrize("n_dim, eps, alpha", [(3, 0.05, 2.0), (4, 0.2, 2.5)])
    def test_gap_converges_at_fourth_order(self, n_dim, eps, alpha, monkeypatch):
        def gap(n_points):
            monkeypatch.setattr(bifurcation, "N_POINTS", n_points)
            return flux_gap(n_dim, eps, alpha, SolverCache())[0]

        ref = gap(6000)
        ratio = abs(gap(750) - ref) / abs(gap(1500) - ref)
        # the five-point stencil gives about 17.5; the three-point one 8.4
        assert ratio >= 12.0


    def test_slope_at_one_is_exact_on_quartics(self):
        # the polynomial through four nodes and (1, 0) is the quartic itself,
        # at the spacing of the last nodes of a 1500-point grid
        x = 1.0 - np.array([4.0, 3.0, 2.0, 1.0]) / 1501.0
        c = (0.7, -1.3, 2.1, 0.4)
        y = (x - 1.0) * (c[0] + x * (c[1] + x * (c[2] + x * c[3])))
        assert bifurcation._slope_at_one(x, y) == pytest.approx(sum(c), rel=1e-8)


class TestMorseIndex:
    def test_jump_across_k2_crossing(self, cache):
        lo = morse_index(3, 0.01, 1.95, cache=cache)
        hi = morse_index(3, 0.01, 2.05, cache=cache)
        assert hi.index_invariant - lo.index_invariant == 1
        assert hi.index_full - lo.index_full == 5  # multiplicity of sigma_2, N=3
        for rep in (lo, hi):
            counts = [rep.radial_count, rep.index_full, rep.index_invariant,
                      *(c for pair in rep.channel_counts for c in pair)]
            assert all(type(c) is int for c in counts)
            json.dumps(dataclasses.asdict(rep))  # np.int64 would raise TypeError

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

    def test_inertia_counts_only(self, monkeypatch):
        # no eigenvalue is solved, and only the fine pencil is assembled
        def forbidden(*args, **kwargs):
            raise AssertionError("morse_index solved an eigenvalue")

        monkeypatch.setattr(spectral, "eigh_tridiagonal", forbidden)
        for name in ("pair", "eigenvalue_batch", "eigenvectors"):
            monkeypatch.setattr(Pencil, name, forbidden)
        assembled, assemble = [], spectral.assemble_pencil

        def recorded(*args, **kwargs):
            pencil = assemble(*args, **kwargs)
            assembled.append((pencil.n, tuple(shift for shift, _ in pencil.shifts)))
            return pencil

        monkeypatch.setattr(spectral, "assemble_pencil", recorded)
        monkeypatch.setattr(bifurcation, "assemble_pencil", recorded)
        rep = morse_index(3, 0.01, 1.95)
        assert rep.radial_count == 1 and rep.channel_counts
        # the fine unit-ball pencil, which keeps its shift
        assert assembled == [(2 * bifurcation.N_POINTS, (lambda1_closed(3, 1.95),))]

    @pytest.mark.parametrize("n_dim, eps", [(3, 0.01), (4, 0.05)])
    def test_counts_match_lowest_eigenvalues(self, n_dim, eps):
        # n_k against #{j <= 3 : Lambda_j < -sigma_k} from the eigen solve,
        # away from the crossings near alpha = 0, 2, 4
        mismatches = []
        for alpha in np.arange(0.25, 5.0, 0.25).tolist():
            if min(abs(alpha - a) for a in (0.0, 2.0, 4.0)) < 0.02:
                continue
            cache = SolverCache()
            counts = dict(morse_index(n_dim, eps, alpha, cache).channel_counts)
            lams = lambda_values(n_dim, eps, alpha, 3, cache)
            assert list(counts) == list(range(1, len(counts) + 1))
            for k in range(1, len(counts) + 2):
                sigma, _ = sphere_eigen(n_dim, k)
                want = sum(lam < -sigma for lam in lams)
                if min(counts.get(k, 0), 3) != want:
                    mismatches.append((alpha, k, counts.get(k, 0), want))
        assert mismatches == []

    def test_degeneracy_window_at_k2_crossing(self, cache):
        alpha2 = find_bifurcation_alpha(3, 0.01, 2, cache=cache).alpha_k_eps
        for d in (-1e-5, 1e-5):
            with pytest.raises(DegeneratePointError, match="sigma_2"):
                morse_index(3, 0.01, alpha2 + d, cache=cache)
        assert morse_index(3, 0.01, alpha2 + 1e-3, cache=cache).index_full == 9
        assert morse_index(3, 0.01, alpha2 - 1e-3, cache=cache).index_full == 4

    def test_radial_zero_eigenvalue_rejected(self, cache, monkeypatch):
        # a pencil with eigenvalues -1, 0, 1: channel k = 0 is degenerate
        monkeypatch.setattr(bifurcation, "assemble_pencil", lambda *a, **k: Pencil(
            np.arange(1.0, 4.0), np.array([-1.0, 0.0, 1.0]), np.zeros(2), np.ones(3)))
        with pytest.raises(DegeneratePointError, match="radial linearization"):
            morse_index(3, 0.01, 1.95, cache=cache)

    def test_invariant_index_counts_every_radial_direction(self, cache, monkeypatch):
        # a pencil with eigenvalues -7, -0.5, 3, 4, 5 at N = 3 (sigma_1 = 2,
        # sigma_2 = 6): n_0 = 2, n_1 = n_2 = 1
        monkeypatch.setattr(bifurcation, "assemble_pencil", lambda *a, **k: Pencil(
            np.arange(1.0, 6.0), np.array([-7.0, -0.5, 3.0, 4.0, 5.0]), np.zeros(4),
            np.ones(5)))
        rep = morse_index(3, 0.01, 1.95, cache=cache)
        assert (rep.radial_count, rep.channel_counts) == (2, ((1, 1), (2, 1)))
        assert (rep.index_invariant, rep.index_full) == (4, 2 + 3 + 5)

    @pytest.mark.parametrize("n_dim, eps, alpha, want", [
        (3, 0.002, 5.0, (1, 16, 4)),
        (4, 0.001, 5.5, (1, 30, 4)),
    ])
    def test_one_radial_direction_at_small_eps(self, n_dim, eps, alpha, want):
        # a radial pencil of its own (r^(N-1) weight, 1,500 nodes) counted
        # two radial negative directions here
        rep = morse_index(n_dim, eps, alpha)
        assert (rep.radial_count, rep.index_full, rep.index_invariant) == want

    @pytest.mark.parametrize("eps", [0.05, 0.01])
    @pytest.mark.parametrize("alpha", np.arange(0.5, 4.51, 0.5).tolist())
    def test_one_radial_direction_over_c7_sweep(self, alpha, eps, cache):
        # at N = 3, alpha_k^eps is within 1e-4 of 2(k-1), so alpha = 2 and 4
        # raise for sigma_k, after channel k = 0 has been counted
        if alpha in (2.0, 4.0):
            k = int(alpha / 2.0 + 1.0)
            with pytest.raises(DegeneratePointError, match=f"sigma_{k}"):
                morse_index(3, eps, alpha, cache=cache)
        else:
            assert morse_index(3, eps, alpha, cache=cache).radial_count == 1


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
        errs = [abs(find_bifurcation_alpha(3, eps, 2, cache=cache).delta)
                for eps in (0.1, 0.05, 0.02)]
        assert max(errs) < 1e-4
        assert all(b < a for a, b in zip(errs, errs[1:]))

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
