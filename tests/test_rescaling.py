import math

import numpy as np
import pytest

from henonball.closedform import (
    ProblemParams,
    henon_constant,
    limit_lambda,
    limit_profile,
)
from henonball.errors import DomainError
from henonball.radial import solve_dirichlet_ball
from henonball.rescaling import (
    kappa_relation_residual,
    limit_distance,
    pde_residual,
    rescale,
    uniform_bound_check,
)


@pytest.fixture(scope="module")
def rescaled_3_0_001():
    return rescale(solve_dirichlet_ball(ProblemParams(3, 0.0, 0.01)))


class TestRescale:
    @pytest.mark.parametrize(
        "n_dim, eps, rho", [(3, 0.01, 100.0), (4, 0.01, 10.0), (3, 0.04, 25.0)]
    )
    def test_rho_values(self, n_dim, eps, rho):
        prof = solve_dirichlet_ball(ProblemParams(n_dim, 1.0, eps))
        assert rescale(prof).rho_eps == pytest.approx(rho, rel=1e-14)

    def test_kappa_relation(self, rescaled_3_0_001):
        assert kappa_relation_residual(rescaled_3_0_001) < 1e-12

    def test_center_and_boundary(self, rescaled_3_0_001):
        rs = rescaled_3_0_001
        w0 = rs.evaluate(np.array([0.0]))[0][0]
        assert w0 == pytest.approx(rs.kappa * rs.profile.u0, rel=1e-14)
        assert abs(rs.samples()[1][-1]) < 1e-9 * w0
        assert rs.evaluate(np.array([2.0 * rs.rho_eps]))[0][0] == 0.0  # zero extension

    @pytest.mark.parametrize("r", [math.nan, -1.0, [1.0, math.nan]])
    def test_nan_or_negative_radius_rejected(self, rescaled_3_0_001, r):
        # NaN fell through to the zero extension and gave 0.0
        with pytest.raises(DomainError, match=">= 0"):
            rescaled_3_0_001.evaluate(np.atleast_1d(r))

    @pytest.mark.parametrize("r", [0.5, np.array(0.5), np.full((2, 2), 0.5)],
                             ids=["float", "0-d", "2-D"])
    def test_radius_not_a_1d_array_rejected(self, rescaled_3_0_001, r):
        with pytest.raises(DomainError, match=r"1-D array, got shape \("):
            rescaled_3_0_001.evaluate(r)

    def test_rescale_samples_nothing(self, monkeypatch):
        prof = solve_dirichlet_ball(ProblemParams(3, 1.0, 0.05))

        def fail(*args, **kwargs):
            pytest.fail("rescale evaluated the profile")

        monkeypatch.setattr(prof, "evaluate", fail)
        assert rescale(prof).profile is prof

    def test_rescaled_equation_residual(self, rescaled_3_0_001):
        assert pde_residual(rescaled_3_0_001) < 1e-6

    @pytest.mark.parametrize(
        "n_dim, alpha, eps",
        [(4, 3.4, 0.05), (3, 2.8472671918680135, 0.006053524691060978)],
    )
    def test_residual_small_with_long_first_steps(self, n_dim, alpha, eps):
        # the dense output takes long first steps at these points
        rs = rescale(solve_dirichlet_ball(ProblemParams(n_dim, alpha, eps)))
        assert pde_residual(rs) < 1e-6

    def test_center_value_approaches_bubble_height(self):
        target = math.sqrt(32.0 / math.pi)  # lam^((N-2)/2) at N=3, alpha=0
        gaps = []
        for eps in (0.05, 0.02, 0.01):
            rs = rescale(solve_dirichlet_ball(ProblemParams(3, 0.0, eps)))
            gaps.append(abs(rs.evaluate(np.array([0.0]))[0][0] - target))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 5e-3

    def test_kappa_scaling_trend(self):
        # eps^(-1/2) kappa increases toward C^(-(N-2)/(2(2+alpha)))
        target = henon_constant(3, 0.0) ** (-1.0 / 4.0)
        vals = []
        for eps in (0.1, 0.05, 0.02, 0.01):
            rs = rescale(solve_dirichlet_ball(ProblemParams(3, 0.0, eps)))
            vals.append(eps**-0.5 * rs.kappa)
        gaps = [abs(v - target) for v in vals]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))


class TestLimitDistance:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 4.0])
    def test_decreasing_along_eps(self, alpha):
        dists = []
        for eps in (0.1, 0.05, 0.02, 0.01):
            rs = rescale(solve_dirichlet_ball(ProblemParams(3, alpha, eps)))
            dists.append(limit_distance(rs))
        assert all(b < a for a, b in zip(dists, dists[1:]))

    def test_small_at_small_eps(self):
        rs = rescale(solve_dirichlet_ball(ProblemParams(3, 2.0, 0.01)))
        assert limit_distance(rs) < 0.02


class TestUniformBound:
    def test_fitted_constant_at_least_center(self, rescaled_3_0_001):
        w0 = rescaled_3_0_001.evaluate(np.array([0.0]))[0][0]
        assert uniform_bound_check(rescaled_3_0_001) >= w0

    def test_stability_across_eps(self):
        cs = []
        for eps in (0.05, 0.02, 0.01):
            rs = rescale(solve_dirichlet_ball(ProblemParams(3, 2.0, eps)))
            cs.append(uniform_bound_check(rs))
        assert min(cs) > 0 and max(cs) / min(cs) < 10.0
        assert max(cs) / min(cs) < 1.1  # observed well below the 10x gate

    def test_bubble_itself_fits_closed_form_constant(self):
        # for U_alpha the fitted constant is lam^((N-2)/2) max(1, lam^-(N-2))
        n_dim, alpha = 3, 2.0
        lam = limit_lambda(n_dim, alpha)
        r = np.geomspace(1e-6, 1e4, 4000)
        u = limit_profile(r, lam, n_dim, alpha)
        expo = (n_dim - 2.0) / (2.0 + alpha)
        fitted = np.max(u * (1.0 + r ** (2.0 + alpha)) ** expo)
        closed = lam ** ((n_dim - 2.0) / 2.0) * max(1.0, lam ** -(n_dim - 2.0))
        assert fitted <= closed * (1.0 + 1e-9)
        assert fitted == pytest.approx(closed, rel=1e-3)
