import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from henonball import closedform as cf
from henonball.errors import DomainError

mp.mp.dps = 40


def mp_gamma(x):
    return float(mp.gamma(x))


# frozen with mpmath at 40 digits (see mp_sup_norm below for the recipe)
SUP_NORM_CASES = {
    (3, 0.0): 17.642524653497345584,  # 32*sqrt(3)/pi
    (4, 0.0): 96.0,
    (3, 2.0): 19.35648611605291433,
    (3, 1.0): 17.970861917431737376,
    (4, 1.0): 47.469479816502946016,
}

LIMIT_LAMBDA_CASES = {
    (3, 0.0): 10.185916357881301489,  # 32/pi
    (4, 0.0): 3.4641016151377545871,  # sqrt(12)
    (3, 2.0): 12.94446242852110456,
}


def mp_sup_norm(n_dim, alpha):
    half = mp.mpf(n_dim + alpha) / (2 + alpha)
    return (
        2 * mp.mpf(2 + alpha) / (n_dim - 2)
        * mp.mpf((n_dim - 2) * (n_dim + alpha)) ** (mp.mpf(n_dim - 2) / (2 + alpha))
        * mp.gamma(2 * half) / mp.gamma(half) ** 2
    )


class TestGamma:
    def test_factorials(self):
        assert cf.gamma(3) == 2.0
        assert cf.gamma(6) == 120.0
        assert cf.gamma(1) == 1.0

    def test_half(self):
        assert cf.gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_against_high_precision(self):
        for x in [*np.geomspace(0.5, 50.0, 200), 150.5]:
            assert cf.gamma(x) == pytest.approx(mp_gamma(x), rel=1e-13)

    def test_small_arguments(self):
        for x in (0.05, 0.2, 0.45):
            assert cf.gamma(x) == pytest.approx(mp_gamma(x), rel=1e-13)

    def test_recurrence_random_sample(self):
        rng = np.random.default_rng(20240817)
        xs = rng.uniform(0.5, 40.0, size=100)
        for x in xs:
            assert cf.gamma(x + 1.0) == pytest.approx(x * cf.gamma(x), rel=1e-12)

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            cf.gamma(0.0)
        with pytest.raises(DomainError):
            cf.gamma(-1.3)


class TestThresholdAndConstants:
    @pytest.mark.parametrize(
        "n_dim, alpha, expected",
        [(3, 0.0, 5.0), (3, 2.0, 9.0), (4, 1.0, 4.0)],
    )
    def test_threshold_exponent(self, n_dim, alpha, expected):
        assert cf.threshold_exponent(n_dim, alpha) == expected

    @pytest.mark.parametrize(
        "n_dim, alpha, expected",
        [(3, 0.0, 3.0), (3, 2.0, 5.0), (4, 1.0, 10.0)],
    )
    def test_henon_constant(self, n_dim, alpha, expected):
        assert cf.henon_constant(n_dim, alpha) == expected

    def test_sup_norm_frozen_values(self):
        for (n_dim, alpha), expected in SUP_NORM_CASES.items():
            assert cf.sup_norm_constant(n_dim, alpha) == pytest.approx(expected, rel=1e-10)

    def test_sup_norm_against_high_precision(self):
        for n_dim in (3, 4, 5):
            for alpha in (0.0, 0.5, 1.0, 2.0, 3.7):
                val = cf.sup_norm_constant(n_dim, alpha)
                assert val == pytest.approx(float(mp_sup_norm(n_dim, alpha)), rel=1e-12)

    def test_limit_lambda_frozen_values(self):
        for (n_dim, alpha), expected in LIMIT_LAMBDA_CASES.items():
            assert cf.limit_lambda(n_dim, alpha) == pytest.approx(expected, rel=1e-10)


class TestLimitProfile:
    def test_center_value(self):
        for n_dim, alpha in [(3, 0.0), (4, 1.5), (5, 2.0)]:
            lam = cf.limit_lambda(n_dim, alpha)
            assert cf.limit_profile(0.0, lam, n_dim, alpha) == pytest.approx(
                lam ** ((n_dim - 2) / 2.0), rel=1e-13
            )

    def test_strictly_decreasing(self):
        r = np.linspace(0.0, 20.0, 400)
        u = cf.limit_profile(r, 1.7, 3, 1.0)
        assert np.all(np.diff(u) < 0)

    @pytest.mark.parametrize("r", [-1.0, math.nan, [0.5, -1e-300]])
    @pytest.mark.parametrize("func", [cf.limit_profile, cf.first_eigenfunction_closed])
    def test_negative_or_nan_radius_rejected(self, func, r):
        # limit_profile(-1.0, 1.0, 3, 0.5) returned nan with a RuntimeWarning
        with pytest.raises(DomainError, match="radii must be >= 0"):
            func(r, 1.0, 3, 0.5)

    def test_far_field_tail(self):
        # r^(N-2) U -> lam^(-(N-2)/2)
        for n_dim, alpha, lam in [(3, 0.0, 2.0), (4, 2.0, 0.7)]:
            r = 1e8
            u = cf.limit_profile(r, lam, n_dim, alpha)
            assert r ** (n_dim - 2) * u == pytest.approx(
                lam ** (-(n_dim - 2) / 2.0), rel=1e-6
            )

    @pytest.mark.parametrize("n_dim, alpha", [(3, 0.0), (3, 2.0), (4, 1.0)])
    def test_pde_residual_high_precision(self, n_dim, alpha):
        # -U'' - (N-1)/r U' = C_{N,a} r^a U^{p_a}, checked by high-precision
        # numerical differentiation at several radii
        lam = mp.mpf(cf.limit_lambda(n_dim, alpha))
        c = mp.mpf((n_dim - 2) * (n_dim + alpha))
        p_a = mp.mpf(n_dim + 2 + 2 * alpha) / (n_dim - 2)

        def u_mp(r):
            return lam ** (mp.mpf(n_dim - 2) / 2) / (
                1 + (lam * r) ** mp.mpf(2 + alpha)
            ) ** (mp.mpf(n_dim - 2) / (2 + alpha))

        for r in (mp.mpf("0.1"), mp.mpf(1), mp.mpf(10)):
            lap = mp.diff(u_mp, r, 2) + (n_dim - 1) / r * mp.diff(u_mp, r)
            resid = lap + c * r**alpha * u_mp(r) ** p_a
            assert abs(float(resid)) < 1e-10


class TestSpectralClosedForms:
    @pytest.mark.parametrize(
        "n_dim, alpha, expected",
        [(3, 0.0, -2.0), (3, 2.0, -6.0), (3, 4.0, -12.0), (4, 2.0, -8.0)],
    )
    def test_lambda1_values(self, n_dim, alpha, expected):
        assert cf.lambda1_closed(n_dim, alpha) == expected

    @given(
        st.integers(min_value=3, max_value=10),
        st.floats(min_value=0.0, max_value=12.0, allow_nan=False),
    )
    def test_lambda1_two_printed_forms_agree(self, n_dim, alpha):
        a = cf.lambda1_closed(n_dim, alpha)
        b = -(alpha**2) / 4.0 - alpha * n_dim / 2.0 + 1.0 - n_dim
        assert a == pytest.approx(b, abs=1e-12, rel=1e-12)

    @pytest.mark.parametrize(
        "n_dim, alpha", [(3, math.inf), (3, math.nan), (2, 1.0), (3, -1.0)]
    )
    def test_lambda1_invalid_rejected(self, n_dim, alpha):
        with pytest.raises(DomainError):
            cf.lambda1_closed(n_dim, alpha)

    def test_lambda1_strictly_decreasing(self):
        grid = np.linspace(0.0, 12.0, 241)
        vals = [cf.lambda1_closed(3, a) for a in grid]
        assert all(x > y for x, y in zip(vals, vals[1:]))

    @pytest.mark.parametrize(
        "n_dim, k, sigma, mult",
        [(3, 1, 2.0, 3), (3, 2, 6.0, 5), (3, 0, 0.0, 1), (5, 0, 0.0, 1), (4, 2, 8.0, 9)],
    )
    def test_sphere_eigen(self, n_dim, k, sigma, mult):
        s, m = cf.sphere_eigen(n_dim, k)
        assert s == sigma
        assert m == mult and isinstance(m, int)

    def test_sphere_multiplicity_dim3_is_2kp1(self):
        for k in range(0, 31):
            assert cf.sphere_multiplicity(3, k) == 2 * k + 1

    def test_sphere_multiplicity_positive_no_overflow(self):
        for n_dim in range(3, 13):
            for k in range(0, 31):
                assert cf.sphere_multiplicity(n_dim, k) >= 1

    @pytest.mark.parametrize("call", [
        lambda: cf.sphere_multiplicity(3.5, 2),
        lambda: cf.sphere_eigen(3, 1.5),
        lambda: cf.sphere_multiplicity(3, math.nan),
    ])
    def test_non_integral_n_or_k_rejected(self, call):
        # math.factorial raised an untyped TypeError here
        with pytest.raises(DomainError, match="need integer N >= 3 and k >= 0"):
            call()

    def test_integral_floats_accepted(self):
        assert cf.sphere_multiplicity(3.0, 2.0) == 5
        assert cf.sphere_eigen(4.0, 2.0) == (8.0, 9) == cf.sphere_eigen(4, 2)

    def test_bifurcation_alpha_values(self):
        assert cf.bifurcation_alpha(1) == 0.0
        assert cf.bifurcation_alpha(2) == 2.0
        assert cf.bifurcation_alpha(3) == 4.0
        assert cf.lambda1_closed(3, 4.0) == -cf.sphere_eigen(3, 3)[0] == -12.0

    @pytest.mark.parametrize("k", [2.5, 0, 0.5, math.nan, math.inf])
    def test_bifurcation_alpha_non_integral_or_low_k_rejected(self, k):
        # k = 2.5 returned 3.0
        with pytest.raises(DomainError, match="integer k >= 1"):
            cf.bifurcation_alpha(k)

    def test_bifurcation_alpha_integral_float_accepted(self):
        assert cf.bifurcation_alpha(3.0) == cf.bifurcation_alpha(3) == 4.0

    def test_crossing_identity_exact(self):
        for n_dim in range(3, 9):
            for k in range(1, 7):
                sigma, _ = cf.sphere_eigen(n_dim, k)
                resid = cf.lambda1_closed(n_dim, cf.bifurcation_alpha(k)) + sigma
                assert abs(resid) < 1e-12


class TestFirstEigenfunction:
    def test_endpoints(self):
        lam = cf.limit_lambda(3, 2.0)
        assert cf.first_eigenfunction_closed(0.0, lam, 3, 2.0) == 0.0
        assert cf.first_eigenfunction_closed(1e9, lam, 3, 2.0) < 1e-12
        r = np.geomspace(1e-4, 1e4, 100)
        assert np.all(cf.first_eigenfunction_closed(r, lam, 3, 2.0) > 0)

    @pytest.mark.parametrize("n_dim, alpha", [(3, 0.0), (3, 2.0), (4, 1.0)])
    def test_maximizer_identity(self, n_dim, alpha):
        # stationarity at (lam*r)^(2+a) = (2+a)/(2N+a-2)
        lam = cf.limit_lambda(n_dim, alpha)
        x_star = (2.0 + alpha) / (2.0 * n_dim + alpha - 2.0)
        r_star = x_star ** (1.0 / (2.0 + alpha)) / lam
        h = 1e-6 * r_star
        z = cf.first_eigenfunction_closed
        dz = (z(r_star + h, lam, n_dim, alpha) - z(r_star - h, lam, n_dim, alpha)) / (2 * h)
        zmax = z(r_star, lam, n_dim, alpha)
        assert abs(dz) * r_star < 1e-8 * zmax

    @pytest.mark.parametrize("n_dim, alpha", [(3, 0.0), (3, 2.0), (4, 1.0)])
    def test_limit_eigen_equation_residual(self, n_dim, alpha):
        # -z'' - (N-1)/r z' - p_a C lam^(2+a) r^a (1+lam^(2+a) r^(2+a))^-2 z
        #   = Lambda_1 z / r^2, via high-precision differentiation
        lam = mp.mpf(cf.limit_lambda(n_dim, alpha))
        c = mp.mpf((n_dim - 2) * (n_dim + alpha))
        p_a = mp.mpf(n_dim + 2 + 2 * alpha) / (n_dim - 2)
        lam1 = mp.mpf(cf.lambda1_closed(n_dim, alpha))

        def z_mp(r):
            x = (lam * r) ** (mp.mpf(2 + alpha) / 2)
            return x / (1 + x * x) ** (mp.mpf(n_dim + alpha) / (2 + alpha))

        for r in (mp.mpf("0.3"), mp.mpf(1), mp.mpf(3), mp.mpf(20)):
            pot = p_a * c * lam ** mp.mpf(2 + alpha) * r**alpha / (
                1 + (lam * r) ** mp.mpf(2 + alpha)
            ) ** 2
            lhs = -mp.diff(z_mp, r, 2) - (n_dim - 1) / r * mp.diff(z_mp, r) - pot * z_mp(r)
            resid = lhs - lam1 * z_mp(r) / r**2
            assert abs(float(resid)) < 1e-8


class TestProblemParams:
    def test_derived_exponents(self):
        p = cf.ProblemParams(3, 2.0, 0.05)
        assert p.p_alpha == 9.0
        assert p.p == pytest.approx(8.95)
        assert 1.0 < p.p < p.p_alpha
        assert p.henon_c == 5.0
        assert cf.ProblemParams(3, 0.0, 5e-16).p < 5.0

    @pytest.mark.parametrize(
        "n_dim, alpha, eps",
        [(2, 0.0, 0.1), (3, -1.0, 0.1), (3, 0.0, 0.0), (3, 0.0, 4.0), (3, 0.0, -0.1),
         (3, math.inf, 0.1), (3, math.nan, 0.1),
         # p_alpha overflows; p_alpha - eps rounds to p_alpha
         (3, 1e308, 0.1), (3, 0.0, 4e-16), (3, 0.0, 1e-30), (3, 0.0, 1e-300)],
    )
    def test_invalid_rejected(self, n_dim, alpha, eps):
        with pytest.raises(DomainError):
            cf.ProblemParams(n_dim, alpha, eps)

    def test_frozen(self):
        p = cf.ProblemParams(3, 1.0, 0.05)
        with pytest.raises(Exception):
            p.alpha = 2.0
