import math

import numpy as np
import pytest

from henonball.closedform import ProblemParams, sup_norm_constant
from henonball.errors import DomainError, SupercriticalError
from henonball.radial import (
    decay_bound_check,
    fowler_check,
    integrate_radial_ivp,
    solve_dirichlet_ball,
    sup_norm_table,
)


@pytest.fixture(scope="module")
def profile_3_2_005():
    return solve_dirichlet_ball(ProblemParams(3, 2.0, 0.05))


class TestIntegrateRadialIVP:
    def test_critical_shot_matches_closed_form(self):
        # at the threshold exponent the unit shot is (1 + r^2/3)^(-1/2)
        shot = integrate_radial_ivp(3, 0.0, 5.0, a=1.0, r_max=50.0)
        assert shot.first_zero is None
        r = np.linspace(0.0, 50.0, 4000)
        exact = (1.0 + r**2 / 3.0) ** -0.5
        assert np.max(np.abs(shot.evaluate(r) - exact)) < 1e-8

    def test_critical_shot_positive_to_1e3(self):
        shot = integrate_radial_ivp(3, 0.0, 5.0, a=1.0, r_max=1e3)
        assert shot.first_zero is None
        assert np.all(shot.u > 0)

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


class TestSolveDirichletBall:
    def test_boundary_and_center(self, profile_3_2_005):
        p = profile_3_2_005
        assert p.grid[0] == 0.0 and p.grid[-1] == 1.0
        assert p.u[0] == p.u0 > 0
        assert abs(p.u[-1]) < 1e-9 * p.u0
        _, du1 = p.evaluate(1.0, derivative=True)
        assert du1 < 0  # Hopf sign at the boundary

    def test_strict_decrease(self, profile_3_2_005):
        assert np.all(profile_3_2_005.du[1:] < 0)

    def test_mu_identity(self, profile_3_2_005):
        p = profile_3_2_005
        assert p.mu * p.u0**2 == pytest.approx(1.0, abs=1e-12)

    def test_amplitude_invariance(self):
        params = ProblemParams(3, 2.0, 0.05)
        p1 = solve_dirichlet_ball(params, amplitude=1.0)
        p4 = solve_dirichlet_ball(params, amplitude=4.0)
        assert np.max(np.abs(p1.u - p4.u)) < 1e-8 * p1.u0

    def test_mu_eps_tends_to_one(self):
        gaps = []
        for eps in (0.1, 0.05, 0.02, 0.01):
            prof = solve_dirichlet_ball(ProblemParams(3, 1.0, eps))
            gaps.append(abs(prof.mu**eps - 1.0))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_explicit_small_r_max_raises(self):
        with pytest.raises(SupercriticalError):
            solve_dirichlet_ball(ProblemParams(3, 0.0, 0.01), r_max=50.0)

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
        assert np.array_equal(a.u, b.u) and a.u0 == b.u0

    def test_tolerance_refinement_stable(self):
        params = ProblemParams(3, 1.0, 0.05)
        coarse = solve_dirichlet_ball(params, tol=1e-10)
        fine = solve_dirichlet_ball(params, tol=3e-12)
        assert fine.u0 == pytest.approx(coarse.u0, rel=1e-6)


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


class TestSupNormTable:
    def test_rows_and_extrapolation_dim4(self):
        tbl = sup_norm_table(4, 0.0, [0.1, 0.05, 0.02, 0.01])
        assert tbl.rows[0].big_m == pytest.approx(96.0, rel=1e-12)
        assert tbl.ratios_monotone_toward_one
        assert abs(tbl.extrapolated - 96.0) / 96.0 < 0.02

    def test_rows_and_extrapolation_dim3(self):
        big_m = 32.0 * math.sqrt(3.0) / math.pi
        tbl = sup_norm_table(3, 0.0, [0.1, 0.05, 0.02, 0.01])
        assert tbl.rows[-1].big_m == pytest.approx(big_m, rel=1e-10)
        assert tbl.ratios_monotone_toward_one
        assert abs(tbl.extrapolated - big_m) / big_m < 0.02

    def test_requires_decreasing_eps(self):
        with pytest.raises(DomainError):
            sup_norm_table(3, 0.0, [0.01, 0.05])
        with pytest.raises(DomainError):
            sup_norm_table(3, 0.0, [0.05, -0.01])


class TestDecayBound:
    @pytest.mark.parametrize("n_dim, alpha, eps", [(3, 1.0, 0.05), (3, 2.0, 0.02), (4, 0.0, 0.05)])
    def test_margin_nonnegative(self, n_dim, alpha, eps):
        prof = solve_dirichlet_ball(ProblemParams(n_dim, alpha, eps))
        assert decay_bound_check(prof) >= -1e-9 * prof.u0

    def test_bound_touches_center(self, profile_3_2_005):
        p = profile_3_2_005
        pr = p.params
        mu = p.mu
        num = mu ** ((pr.p_alpha - 1.0 - 2.0 * pr.eps) / 4.0)
        den = mu ** ((pr.p_alpha - 1.0 - pr.eps) / 2.0)
        bound0 = (num / den) ** ((pr.n_dim - 2.0) / (2.0 + pr.alpha))
        assert bound0 == pytest.approx(p.u0, rel=1e-12)
