import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from henonball import radial
from henonball.bifurcation import flux_gap
from henonball.closedform import (
    ProblemParams,
    henon_constant,
    lambda1_closed,
    sup_norm_constant,
    threshold_exponent,
)
from henonball.errors import DomainError, NumericsError, SupercriticalError
from henonball.numerics import extrapolate_to_zero, log_grid, radial_defect
from henonball.radial import (
    decay_bound_check,
    default_profile_grid,
    fowler_check,
    integrate_radial_ivp,
    solve_dirichlet_ball,
)


@pytest.fixture(scope="module")
def profile_3_2_005():
    return solve_dirichlet_ball(ProblemParams(3, 2.0, 0.05))


class TestIntegrateRadialIVP:
    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.5])
    @pytest.mark.parametrize("n_dim", [3, 4, 5, 6])
    def test_critical_shot_matches_closed_form(self, n_dim, alpha):
        # at the threshold exponent the unit shot is the entire-space bubble
        # (1 + r^(2+α)/C)^(-(N-2)/(2+α)), C = C_{N,α}, e.g. (1 + r^2/3)^(-1/2)
        # at (3, 0); an exact reference that owes nothing to scipy
        p = threshold_exponent(n_dim, alpha)
        shot = integrate_radial_ivp(n_dim, alpha, p, a=1.0, r_max=50.0)
        assert shot.first_zero is None
        r = np.linspace(0.0, 50.0, 4000)
        c = henon_constant(n_dim, alpha)
        base = 1.0 + r ** (2.0 + alpha) / c
        exact = base ** (-(n_dim - 2.0) / (2.0 + alpha))
        exact_du = -(n_dim - 2.0) * r ** (1.0 + alpha) / c * base ** (
            -(n_dim + alpha) / (2.0 + alpha)
        )
        u, du = shot.evaluate(r, derivative=True)
        assert np.max(np.abs(u - exact)) < 1e-8
        assert np.max(np.abs(du - exact_du)) < 1e-8

    def test_critical_shot_positive_to_1e3(self):
        shot = integrate_radial_ivp(3, 0.0, 5.0, a=1.0, r_max=1e3)
        assert shot.first_zero is None
        assert np.all(shot.evaluate(shot.r) > 0)

    def test_initial_conditions(self):
        shot = integrate_radial_ivp(3, 1.0, 4.0, a=2.5)
        u, du = shot.evaluate(0.0, derivative=True)
        assert u == pytest.approx(2.5, rel=1e-12)
        assert du == pytest.approx(0.0, abs=1e-12)

    def test_decreasing_until_zero(self):
        shot = integrate_radial_ivp(3, 2.0, 5.0)
        r = np.linspace(1e-4, shot.first_zero * 0.999, 500)
        _, du = shot.evaluate(r, derivative=True)
        assert np.all(du < 0)

    @pytest.mark.parametrize("a", [0.5, 2.0, 10.0])
    def test_scaling_law_of_first_zero(self, a):
        n_dim, alpha, p = 3, 2.0, 5.0
        base = integrate_radial_ivp(n_dim, alpha, p, a=1.0).first_zero
        scaled = integrate_radial_ivp(n_dim, alpha, p, a=a).first_zero
        predicted = a ** (-(p - 1.0) / (2.0 + alpha)) * base
        assert scaled == pytest.approx(predicted, rel=1e-8)

    def test_dual_integrator_agreement(self):
        za = integrate_radial_ivp(3, 2.0, 5.0, method="dop853").first_zero
        zb = integrate_radial_ivp(3, 2.0, 5.0, method="rk45").first_zero
        assert za == pytest.approx(zb, rel=1e-8)

    @pytest.mark.parametrize("n_dim, alpha, eps", [(4, 3.4, 0.05), (3, 2.0, 0.05)])
    def test_derivative_continuous_at_series_radius(self, n_dim, alpha, eps):
        p = ProblemParams(n_dim, alpha, eps).p
        shot = integrate_radial_ivp(n_dim, alpha, p)
        # where the origin series reaches its 1e-10 truncation cap
        r_series = (1e-5 * (2.0 + alpha) * (n_dim + alpha)) ** (1.0 / (2.0 + alpha))
        _, du = shot.evaluate(r_series * np.array([1.0 - 1e-12, 1.0 + 1e-12]),
                              derivative=True)
        assert abs(du[1] - du[0]) < 1e-9 * abs(du[0])

    def test_bad_exponent_rejected(self):
        with pytest.raises(DomainError):
            integrate_radial_ivp(3, 0.0, 5.2)  # above p_alpha = 5
        with pytest.raises(DomainError):
            integrate_radial_ivp(3, 0.0, 1.0)
        with pytest.raises(DomainError):
            integrate_radial_ivp(3, 0.0, 3.0, a=-1.0)
        with pytest.raises(DomainError):
            integrate_radial_ivp(3, 0.0, 3.0, method="euler")
        with pytest.raises(DomainError):
            integrate_radial_ivp(3, 4.5, 2.0, r_max=0.1)  # series radius 0.31
        # the shot amplitude is checked before it sizes the integration window
        for amplitude in (-1.0, 0.0):
            with pytest.raises(DomainError):
                solve_dirichlet_ball(ProblemParams(3, 0.0, 0.05), amplitude=amplitude)


class TestSolveDirichletBall:
    def test_boundary_and_center(self, profile_3_2_005):
        p = profile_3_2_005
        grid = default_profile_grid()
        u, du = p.evaluate(grid, derivative=True)
        assert grid[0] == 0.0 and grid[-1] == 1.0
        assert u[0] == p.u0 > 0
        # the artifact writes du[0] as 0.0, not -0.0
        assert du[0] == 0.0 and not np.signbit(du[0])
        assert abs(u[-1]) < 1e-9 * p.u0
        _, du1 = p.evaluate(1.0, derivative=True)
        assert du1 < 0  # Hopf sign at the boundary

    def test_strict_decrease(self, profile_3_2_005):
        _, du = profile_3_2_005.evaluate(default_profile_grid(), derivative=True)
        assert np.all(du[1:] < 0)

    def test_amplitude_invariance(self):
        params = ProblemParams(3, 2.0, 0.05)
        p1 = solve_dirichlet_ball(params, amplitude=1.0)
        p4 = solve_dirichlet_ball(params, amplitude=4.0)
        grid = default_profile_grid()
        assert np.max(np.abs(p1.evaluate(grid) - p4.evaluate(grid))) < 1e-8 * p1.u0

    def test_mu_eps_tends_to_one(self):
        gaps = []
        for eps in (0.1, 0.05, 0.02, 0.01):
            prof = solve_dirichlet_ball(ProblemParams(3, 1.0, eps))
            gaps.append(abs((prof.u0**-2.0) ** eps - 1.0))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_no_zero_in_any_window_raises(self, monkeypatch):
        # every shot stays positive: the window is extended eightfold three
        # times, then the solve gives up
        windows = []

        def positive_shot(n_dim, alpha, p, a=1.0, tol=1e-10, r_max=1e3):
            windows.append(r_max)
            return radial.ShotTrajectory(n_dim, alpha, p, a, np.array([0.0, r_max]),
                                         None, r_max)

        monkeypatch.setattr(radial, "integrate_radial_ivp", positive_shot)
        with pytest.raises(SupercriticalError, match="no zero"):
            solve_dirichlet_ball(ProblemParams(3, 0.0, 0.01))
        assert [w / windows[0] for w in windows] == [1.0, 8.0, 64.0, 512.0]

    def test_auto_r_max_handles_small_eps(self):
        # the unit shot's zero sits near 1.8e3 here; the auto window must
        # cover it without user input
        prof = solve_dirichlet_ball(ProblemParams(3, 0.0, 0.01))
        assert prof.first_zero_raw > 1e3
        assert prof.u0 == pytest.approx(prof.first_zero_raw ** (2.0 / (prof.params.p - 1.0)), rel=1e-12)

    def test_deterministic_reruns(self):
        params = ProblemParams(3, 1.5, 0.05)
        a = solve_dirichlet_ball(params)
        b = solve_dirichlet_ball(params)
        grid = default_profile_grid()
        assert np.array_equal(a.evaluate(grid), b.evaluate(grid)) and a.u0 == b.u0

    def test_tolerance_refinement_stable(self):
        params = ProblemParams(3, 1.0, 0.05)
        coarse = solve_dirichlet_ball(params, tol=1e-10)
        fine = solve_dirichlet_ball(params, tol=3e-12)
        assert fine.u0 == pytest.approx(coarse.u0, rel=1e-6)

    @pytest.mark.parametrize("r", [-0.1, 1.0 + 1e-12, 3.0, math.nan, math.inf,
                                   [0.5, -1e-300]])
    def test_radius_outside_unit_interval_rejected(self, profile_3_2_005, r):
        # the shot would extrapolate (or return nan below the origin)
        with pytest.raises(DomainError, match=r"\[0, 1\]"):
            profile_3_2_005.evaluate(r, derivative=True)

    def test_scalar_matches_array_bitwise(self, profile_3_2_005):
        scalar = profile_3_2_005.evaluate(1.0, derivative=True)
        u, du = profile_3_2_005.evaluate(np.array([1.0]), derivative=True)
        assert np.array(scalar).tobytes() == np.array([u[0], du[0]]).tobytes()


class TestDenseTable:
    # (3, 2.0, 0.05), (4, 0.5, 0.01) and (3, 0.0, 0.05) reject their first
    # step; (6, 3.5, 0.3) takes it
    @pytest.mark.parametrize("n_dim, alpha, eps",
                             [(3, 2.0, 0.05), (4, 0.5, 0.01), (6, 3.5, 0.3),
                              (3, 0.0, 0.05)])
    def test_agrees_with_scipy_dop853(self, n_dim, alpha, eps):
        # the same algorithm as scipy's DOP853, up to the order of its sums
        p, a = ProblemParams(n_dim, alpha, eps).p, 1.0
        shot = integrate_radial_ivp(n_dim, alpha, p, a=a)
        r0 = shot._r_start
        y0 = [radial._series_u(r0, a, n_dim, alpha, p),
              radial._series_du(r0, a, n_dim, alpha, p)]

        def rhs(r, y):
            u, v = y
            return [v, -(n_dim - 1.0) / r * v - r**alpha * math.copysign(abs(u) ** p, u)]

        def hit_zero(r, y):
            return y[0]

        hit_zero.terminal = True
        hit_zero.direction = -1
        ref = solve_ivp(rhs, (r0, shot.r_max), y0, method="DOP853", rtol=1e-10,
                        atol=1e-12 * a, dense_output=True, events=hit_zero)
        zero = ref.t_events[0][0]
        assert shot.r.size == ref.t.size
        assert shot.first_zero == pytest.approx(zero, rel=1e-10)
        t = np.random.default_rng(1).uniform(r0, min(zero, shot.first_zero), 400)
        t = np.concatenate([t, t[::7]])  # unsorted, with repeats
        got = np.stack(shot.evaluate(t, derivative=True))
        assert np.max(np.abs(got - ref.sol(t))) < 1e-12 * a
        got = np.array(shot.evaluate(t[0], derivative=True))
        assert np.max(np.abs(got - ref.sol(t[0]))) < 1e-12 * a

    def test_dop853_shot_runs_no_solve_ivp(self, monkeypatch):
        # only the rk45 cross-check goes through scipy's solve_ivp
        calls = []

        def refuse(*args, **kwargs):
            raise AssertionError("solve_ivp called")

        def count(*args, **kwargs):
            calls.append(kwargs["method"])
            return solve_ivp(*args, **kwargs)

        monkeypatch.setattr(radial, "solve_ivp", refuse)
        assert flux_gap(3, 0.01, 2.0)[0] > 0
        monkeypatch.setattr(radial, "solve_ivp", count)
        assert integrate_radial_ivp(3, 2.0, 5.0, method="rk45").first_zero is not None
        assert calls == ["RK45"]

    @pytest.mark.parametrize("bad_from_start", [True, False])
    def test_non_finite_rhs_raises(self, bad_from_start):
        # a NaN error norm rejects every step (max(0.2, nan) = 0.2 shrinks
        # it) until the step falls below 10 ulp(r); a NaN first step ends
        # the loop at once
        def rhs(r, u, v):
            return (math.nan, math.nan) if bad_from_start or r > 1.0 else (v, -u)

        with pytest.raises(NumericsError, match="radial integration failed"):
            radial._dop853_shot(rhs, 1.0, (1.0, 0.0), 2.0, 1e-10, 1e-12)

    def test_rk45_shot_is_not_evaluated(self):
        shot = integrate_radial_ivp(3, 2.0, 5.0, method="rk45")
        assert shot.first_zero is not None
        with pytest.raises(DomainError, match="dop853"):
            shot.evaluate(0.5)


class TestFowlerCheck:
    def test_residual_small(self, profile_3_2_005):
        assert fowler_check(profile_3_2_005) < 1e-6

    def test_residual_small_across_instances(self):
        # the dense output takes long first steps at the last two
        for n_dim, alpha, eps in [
            (3, 1.0, 0.05), (4, 1.0, 0.05), (3, 0.5, 0.1),
            (4, 3.4, 0.05), (3, 2.8472671918680135, 0.006053524691060978),
        ]:
            prof = solve_dirichlet_ball(ProblemParams(n_dim, alpha, eps))
            assert fowler_check(prof) < 1e-6

    def test_transform_endpoints(self, profile_3_2_005):
        p = profile_3_2_005
        pr = p.params
        cfac = (2.0 / (2.0 + pr.alpha)) ** (2.0 / (pr.p_alpha - 1.0 - pr.eps))
        # v(0) = cfac*u0 and v(1) = 0 by boundary transport
        assert cfac * p.u0 == pytest.approx(cfac * p.evaluate(0.0), rel=1e-12)
        assert abs(cfac * p.evaluate(1.0)) < 1e-9 * p.u0


class TestLinearizationIdentity:
    @settings(max_examples=30, deadline=None)
    @given(n_dim=st.integers(3, 6), alpha=st.floats(0.0, 4.5),
           log_eps=st.floats(math.log(0.005), math.log(0.2)))
    def test_z_solves_limit_eigen_equation(self, n_dim, alpha, log_eps):
        # z = r^(-α/2) u' solves z'' + (N-1)/r z' + (q + Λ₁(α)/r²) z = 0 with
        # q = p r^α u^(p-1), for every ε; a wrong Λ₁ leaves a defect of order 1
        prof = solve_dirichlet_ball(ProblemParams(n_dim, alpha, math.exp(log_eps)))
        p = prof.params.p
        # the 2000-point log grid of fowler_check, mapped back to r
        s_scale = prof.u0 ** (-(p - 1.0) / (2.0 + alpha))
        t_lo = max(1e-14, 1e-3 * min(1.0, s_scale) ** ((2.0 + alpha) / 2.0))
        r = log_grid(t_lo, 1.0, 2000) ** (2.0 / (2.0 + alpha))
        u, du = prof.evaluate(r, derivative=True)
        u = np.clip(u, 0.0, None)
        d2u = -(n_dim - 1.0) / r * du - r**alpha * u**p
        z = r ** (-alpha / 2.0) * du
        dz = r ** (-alpha / 2.0) * (d2u - alpha / (2.0 * r) * du)
        q = p * r**alpha * u ** (p - 1.0)
        lam1 = lambda1_closed(n_dim, alpha)
        defect = radial_defect(r, z, dz, n_dim,
                               lambda rin, zin: (q[2:-2] + lam1 / rin**2) * zin)
        # for p < 2, u^(p-1) is not C¹ at r = 1, which caps the 5-point
        # stencil there: 2.8e-5 at (6, 0, 0.2), elsewhere at most 4.2e-6
        assert defect < 1e-4

    @settings(max_examples=30, deadline=None)
    @given(n_dim=st.integers(3, 6), alpha=st.floats(0.0, 4.5),
           log_eps=st.floats(math.log(0.005), math.log(0.2)))
    def test_scaling_generator_solves_linearized_equation(self, n_dim, alpha, log_eps):
        # w = βu + r u' solves w'' + (N-1)/r w' + p r^α u^(p-1) w = 0, the
        # identity radial_kernel_test rests on; β off by 0.01 leaves >= 3.4e-3
        prof = solve_dirichlet_ball(ProblemParams(n_dim, alpha, math.exp(log_eps)))
        p = prof.params.p
        beta = (2.0 + alpha) / (p - 1.0)
        # fowler_check's log grid mapped back to r, stopped at r = 0.9: for
        # p < 2, u^(p-1) is not C¹ at r = 1 (1.1e-4 at (6, 0, 0.2) up to r = 1)
        s_scale = prof.u0 ** (-(p - 1.0) / (2.0 + alpha))
        t_lo = max(1e-14, 1e-3 * min(1.0, s_scale) ** ((2.0 + alpha) / 2.0))
        r = log_grid(t_lo, 0.9 ** ((2.0 + alpha) / 2.0), 2000) ** (2.0 / (2.0 + alpha))
        u, du = prof.evaluate(r, derivative=True)
        d2u = -(n_dim - 1.0) / r * du - r**alpha * u**p
        w = beta * u + r * du
        dw = (beta + 1.0) * du + r * d2u
        q = p * r**alpha * u ** (p - 1.0)
        defect = radial_defect(r, w, dw, n_dim, lambda rin, win: q[2:-2] * win)
        assert defect < 1e-5


SUP_NORM_EPS = [0.1, 0.05, 0.02, 0.01]


def eps_u0_sq(n_dim, alpha):
    return [eps * solve_dirichlet_ball(ProblemParams(n_dim, alpha, eps)).u0**2
            for eps in SUP_NORM_EPS]


def gaps_shrink(vals, big_m):
    gaps = [abs(1.0 - val / big_m) for val in vals]
    return all(b <= a for a, b in zip(gaps, gaps[1:]))


class TestSupNormTable:
    def test_rows_and_extrapolation_dim4(self):
        vals = eps_u0_sq(4, 0.0)
        big_m = sup_norm_constant(4, 0.0)
        assert big_m == pytest.approx(96.0, rel=1e-12)
        assert gaps_shrink(vals, big_m)
        assert abs(extrapolate_to_zero(SUP_NORM_EPS, vals) - 96.0) / 96.0 < 0.02

    def test_rows_and_extrapolation_dim3(self):
        big_m = 32.0 * math.sqrt(3.0) / math.pi
        vals = eps_u0_sq(3, 0.0)
        computed_m = sup_norm_constant(3, 0.0)
        assert computed_m == pytest.approx(big_m, rel=1e-10)
        assert gaps_shrink(vals, computed_m)
        assert abs(extrapolate_to_zero(SUP_NORM_EPS, vals) - big_m) / big_m < 0.02


class TestDecayBound:
    @pytest.mark.parametrize("n_dim, alpha, eps", [(3, 1.0, 0.05), (3, 2.0, 0.02), (4, 0.0, 0.05)])
    def test_margin_nonnegative(self, n_dim, alpha, eps):
        prof = solve_dirichlet_ball(ProblemParams(n_dim, alpha, eps))
        assert decay_bound_check(prof) >= -1e-9 * prof.u0

    def test_bound_touches_center(self, profile_3_2_005):
        p = profile_3_2_005
        pr = p.params
        mu = p.u0**-2.0
        num = mu ** ((pr.p_alpha - 1.0 - 2.0 * pr.eps) / 4.0)
        den = mu ** ((pr.p_alpha - 1.0 - pr.eps) / 2.0)
        bound0 = (num / den) ** ((pr.n_dim - 2.0) / (2.0 + pr.alpha))
        assert bound0 == pytest.approx(p.u0, rel=1e-12)
