import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import scipy.integrate
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients as _dop
from scipy.optimize import brentq

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
    rk45_first_zero,
    solve_dirichlet_ball,
)
from henonball.rescaling import pde_residual, rescale


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
        u, du = shot.evaluate(r)
        assert np.max(np.abs(u - exact)) < 1e-8
        assert np.max(np.abs(du - exact_du)) < 1e-8

    def test_overflowing_right_hand_side_is_a_numerics_error(self):
        # at N = 3, alpha = 100 the unit shot's zero lies past r = 1202, and
        # r**102 = e^(102 t) leaves the float range past r = 1.05e3; the
        # first stage beyond it sits at r = 1067.55
        p = ProblemParams(3, 100.0, 0.05).p
        with pytest.raises(NumericsError, match=r"overflows at r=1067\.\d+ with alpha=100\.0"):
            integrate_radial_ivp(3, 100.0, p, r_max=1e6)

    def test_alpha_80_solves(self):
        # the unit shot's zero sits at r = 3547, where r**82 is still finite
        prof = solve_dirichlet_ball(ProblemParams(3, 80.0, 0.05))
        assert prof.first_zero_raw == pytest.approx(3546.89, rel=1e-5)
        assert fowler_check(prof) < 1e-6

    def test_critical_shot_positive_to_1e3(self):
        shot = integrate_radial_ivp(3, 0.0, 5.0, a=1.0, r_max=1e3)
        assert shot.first_zero is None
        assert np.all(shot.evaluate(shot.r)[0] > 0)

    def test_initial_conditions(self):
        shot = integrate_radial_ivp(3, 1.0, 4.0, a=2.5)
        (u,), (du,) = shot.evaluate(np.array([0.0]))
        assert u == pytest.approx(2.5, rel=1e-12)
        assert du == pytest.approx(0.0, abs=1e-12)

    def test_decreasing_until_zero(self):
        shot = integrate_radial_ivp(3, 2.0, 5.0)
        r = np.linspace(1e-4, shot.first_zero * 0.999, 500)
        _, du = shot.evaluate(r)
        assert np.all(du < 0)

    @pytest.mark.parametrize("a", [0.5, 2.0, 10.0])
    def test_scaling_law_of_first_zero(self, a):
        n_dim, alpha, p = 3, 2.0, 5.0
        base = integrate_radial_ivp(n_dim, alpha, p, a=1.0).first_zero
        scaled = integrate_radial_ivp(n_dim, alpha, p, a=a).first_zero
        predicted = a ** (-(p - 1.0) / (2.0 + alpha)) * base
        assert scaled == pytest.approx(predicted, rel=1e-8)

    def test_dual_integrator_agreement(self):
        za = integrate_radial_ivp(3, 2.0, 5.0).first_zero
        zb = rk45_first_zero(3, 2.0, 5.0)
        assert za == pytest.approx(zb, rel=1e-8)

    @pytest.mark.parametrize("n_dim, alpha, eps", [(4, 3.4, 0.05), (3, 2.0, 0.05)])
    def test_derivative_continuous_at_series_radius(self, n_dim, alpha, eps):
        p = ProblemParams(n_dim, alpha, eps).p
        shot = integrate_radial_ivp(n_dim, alpha, p)
        # where the origin series reaches its 1e-10 truncation cap
        r_series = (1e-5 * (2.0 + alpha) * (n_dim + alpha)) ** (1.0 / (2.0 + alpha))
        _, du = shot.evaluate(r_series * np.array([1.0 - 1e-12, 1.0 + 1e-12]))
        assert abs(du[1] - du[0]) < 1e-9 * abs(du[0])

    def test_bad_exponent_rejected(self):
        with pytest.raises(DomainError):
            integrate_radial_ivp(3, 0.0, 5.2)  # above p_alpha = 5
        with pytest.raises(DomainError):
            integrate_radial_ivp(3, 0.0, 1.0)
        with pytest.raises(DomainError):
            integrate_radial_ivp(3, 0.0, 3.0, a=-1.0)
        with pytest.raises(DomainError):
            integrate_radial_ivp(3, 4.5, 2.0, r_max=0.1)  # series radius 0.31
        # the RK45 cross-check reads the same IVP, checks included
        with pytest.raises(DomainError):
            rk45_first_zero(3, 0.0, 5.2)
        # the shot amplitude is checked before it sizes the integration window
        for amplitude in (-1.0, 0.0):
            with pytest.raises(DomainError):
                solve_dirichlet_ball(ProblemParams(3, 0.0, 0.05), amplitude=amplitude)

    @pytest.mark.parametrize("amplitude", [math.inf, 1e60, 1e300, 1e-60, 1e-300])
    def test_amplitude_out_of_float_range_rejected(self, amplitude):
        # the series forms a**(2p-1); without the check inf failed in math.log,
        # 1e60 and 1e300 overflowed a**(p-1), 1e-60 divided by its underflow
        # and 1e-300 overflowed the window's (u0/a)**(1/beta)
        with pytest.raises(DomainError, match="does not depend on the amplitude"):
            solve_dirichlet_ball(ProblemParams(3, 1.0, 0.1), amplitude=amplitude)

    @pytest.mark.parametrize("a", [math.inf, 1e300])
    def test_shot_amplitude_out_of_float_range_rejected(self, a):
        with pytest.raises(DomainError, match="does not depend on the amplitude"):
            integrate_radial_ivp(3, 1.0, 2.0, a=a)

    def test_series_overflow_at_the_start_radius_rejected(self):
        # within the amplitude bound, r0**(4+2α) still overflows at α = 733
        with pytest.raises(DomainError, match="origin series overflows"):
            integrate_radial_ivp(5, 732.82, 422.67, a=0.4323, r_max=1e300)

    def test_tiny_amplitude_solves(self):
        # u is near 1e-112 at the zero, where the polish's extrapolation
        # divides by an underflowed product
        params = ProblemParams(6, 0.0, 0.2)
        tiny = solve_dirichlet_ball(params, amplitude=1e-112)
        assert tiny.u0 == pytest.approx(solve_dirichlet_ball(params).u0, rel=1e-9)

    @pytest.mark.parametrize("tol", [0.0, 1.0, 10.0, 1e300, math.inf, math.nan])
    def test_tolerance_outside_unit_interval_rejected(self, tol):
        # tol = 10 solved (3, 1, 0.1) to u0 = 4.462, against 13.961 at 1e-10
        with pytest.raises(DomainError, match="need 0 < tol < 1"):
            integrate_radial_ivp(3, 1.0, 2.0, tol=tol)
        with pytest.raises(DomainError, match="need 0 < tol < 1"):
            solve_dirichlet_ball(ProblemParams(3, 1.0, 0.1), tol=tol)


class TestSolveDirichletBall:
    def test_boundary_and_center(self, profile_3_2_005):
        p = profile_3_2_005
        grid = default_profile_grid()
        u, du = p.evaluate(grid)
        assert grid[0] == 0.0 and grid[-1] == 1.0
        assert u[0] == p.u0 > 0
        # the artifact writes du[0] as 0.0, not -0.0
        assert du[0] == 0.0 and not np.signbit(du[0])
        assert abs(u[-1]) < 1e-9 * p.u0
        _, (du1,) = p.evaluate(np.array([1.0]))
        assert du1 < 0  # Hopf sign at the boundary

    def test_strict_decrease(self, profile_3_2_005):
        _, du = profile_3_2_005.evaluate(default_profile_grid())
        assert np.all(du[1:] < 0)

    @settings(max_examples=30, deadline=None)
    @given(n_dim=st.integers(3, 6), alpha=st.floats(0.0, 4.5),
           log_eps=st.floats(math.log(0.005), math.log(0.2)))
    @example(n_dim=3, alpha=2.0, log_eps=math.log(0.05))
    # 1.54e-8 when the shot ran in r, where atol = 1e-12·a set the tail's
    # accuracy; in t = log r a change of amplitude translates the shot
    @example(n_dim=6, alpha=0.2, log_eps=math.log(0.005))
    def test_amplitude_invariance(self, n_dim, alpha, log_eps):
        params = ProblemParams(n_dim, alpha, math.exp(log_eps))
        p1 = solve_dirichlet_ball(params, amplitude=1.0)
        p4 = solve_dirichlet_ball(params, amplitude=4.0)
        grid = default_profile_grid()
        assert np.max(np.abs(p1.evaluate(grid)[0] - p4.evaluate(grid)[0])) < 1e-8 * p1.u0

    def test_mu_eps_tends_to_one(self):
        gaps = []
        for eps in (0.1, 0.05, 0.02, 0.01):
            prof = solve_dirichlet_ball(ProblemParams(3, 1.0, eps))
            gaps.append(abs((prof.u0**-2.0) ** eps - 1.0))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_no_zero_in_the_window_raises(self, monkeypatch):
        # a shot at the threshold exponent stays positive: the solve shoots
        # once, in 512·max(1e3, 5·R) for the zero's estimate R, then gives up
        windows = []
        real = radial.integrate_radial_ivp

        def positive_shot(n_dim, alpha, p, a=1.0, tol=1e-10, r_max=1e3):
            windows.append(r_max)
            return real(n_dim, alpha, threshold_exponent(n_dim, alpha), a, tol, 50.0)

        monkeypatch.setattr(radial, "integrate_radial_ivp", positive_shot)
        params = ProblemParams(3, 0.0, 0.01)
        with pytest.raises(SupercriticalError, match="stayed positive"):
            solve_dirichlet_ball(params)
        estimate = math.sqrt(sup_norm_constant(3, 0.0) / 0.01) ** ((params.p - 1.0) / 2.0)
        assert windows == [pytest.approx(512.0 * 5.0 * estimate, rel=1e-12)]

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
            profile_3_2_005.evaluate(np.atleast_1d(r))

    @pytest.mark.parametrize("r", [0.5, np.array(0.5), np.full((2, 2), 0.5)],
                             ids=["float", "0-d", "2-D"])
    def test_radius_not_a_1d_array_rejected(self, profile_3_2_005, r):
        # without the check a 0-d radius fails with a bare IndexError in the shot
        with pytest.raises(DomainError, match=r"1-D array, got shape \("):
            profile_3_2_005.evaluate(r)


class TestDenseTable:
    # each shot takes its first step and rejects some later ones; the step
    # cap binds in all but (6, 3.5, 0.3)
    @pytest.mark.parametrize("n_dim, alpha, eps",
                             [(3, 2.0, 0.05), (4, 0.5, 0.01), (6, 3.5, 0.3),
                              (3, 0.0, 0.05)])
    def test_agrees_with_scipy_dop853(self, n_dim, alpha, eps):
        # the same algorithm as scipy's DOP853 on the same system in
        # t = log r, with the state (u, r u'), up to the order of its sums
        p, a, r_max = ProblemParams(n_dim, alpha, eps).p, 1.0, 1e3
        shot = integrate_radial_ivp(n_dim, alpha, p, a=a, r_max=r_max)
        r0 = (1e-5 * (2.0 + alpha) * (n_dim + alpha)) ** (1.0 / (2.0 + alpha))
        y0 = [radial._series_u(r0, a, n_dim, alpha, p),
              r0 * radial._series_du(r0, a, n_dim, alpha, p)]

        def rhs(t, y):
            u, w = y
            return [w, -(n_dim - 2.0) * w
                    - math.exp((2.0 + alpha) * t) * math.copysign(abs(u) ** p, u)]

        def hit_zero(t, y):
            return y[0]

        hit_zero.terminal = True
        hit_zero.direction = -1
        ref = solve_ivp(rhs, (math.log(r0), math.log(r_max)), y0, method="DOP853",
                        rtol=1e-10, atol=1e-12 * a, max_step=radial._MAX_STEP,
                        dense_output=True, events=hit_zero)
        zero = math.exp(ref.t_events[0][0])

        def ref_sol(r):
            u, w = ref.sol(np.log(r))
            return np.array([u, w / r])

        assert shot.r.size == ref.t.size
        assert shot.first_zero == pytest.approx(zero, rel=1e-10)
        r = np.exp(np.random.default_rng(1).uniform(
            math.log(r0), math.log(min(zero, shot.first_zero)), 400))
        r = np.concatenate([r, r[::7]])  # unsorted, with repeats
        got = shot.evaluate(r)
        assert np.max(np.abs(got - ref_sol(r))) < 1e-12 * a
        got = shot.evaluate(r[:1])
        assert np.max(np.abs(got - ref_sol(r[:1]))) < 1e-12 * a

    @pytest.mark.parametrize("n_dim, alpha, eps",
                             [(3, 2.0, 0.05), (4, 0.5, 0.01), (6, 3.5, 0.3),
                              (3, 0.0, 0.05)])
    def test_evaluate_is_the_per_point_reference_bit_for_bit(self, n_dim, alpha, eps):
        shot = integrate_radial_ivp(n_dim, alpha, ProblemParams(n_dim, alpha, eps).p)
        start = math.exp(shot.t[0])
        # the radii whose log is a step point exactly, among each e^t and its
        # neighbours, so that a point picks the lower of two steps
        near = np.concatenate([shot.r, np.nextafter(shot.r, 0.0), np.nextafter(shot.r, 2e3)])
        at_steps = near[np.isin(np.log(near), shot.t)]
        assert at_steps.size >= shot.t.size // 2
        r = np.concatenate([
            at_steps, [start, 0.0, np.nextafter(start, 0.0), 0.5 * start],
            shot.first_zero * np.array([1.0 + 1e-9, 1.5, 3.0]),
        ])
        mid = np.exp(np.random.default_rng(2).uniform(shot.t[0], shot.t[-1], 50))
        r = np.concatenate([r, mid, mid[::3], r[::-2]])  # unsorted, with repeats
        want = np.array([_evaluate_point(shot, x) for x in r]).T
        got = shot.evaluate(r)
        assert got.shape == want.shape
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()

    def test_dop853_shot_runs_no_solve_ivp(self, monkeypatch):
        # only the RK45 cross-check goes through scipy's solve_ivp
        calls = []

        def refuse(*args, **kwargs):
            raise AssertionError("solve_ivp called")

        def count(*args, **kwargs):
            calls.append(kwargs["method"])
            return solve_ivp(*args, **kwargs)

        monkeypatch.setattr(scipy.integrate, "solve_ivp", refuse)
        assert flux_gap(3, 0.01, 2.0)[0] > 0
        monkeypatch.setattr(scipy.integrate, "solve_ivp", count)
        assert rk45_first_zero(3, 2.0, 5.0) is not None
        assert calls == ["RK45"]

    @pytest.mark.parametrize("bad_from_start", [True, False])
    def test_non_finite_rhs_raises(self, bad_from_start):
        # with p = NaN the field is NaN wherever |u| != 1 (1.0 ** nan is
        # 1.0): from the start at u = 2, from a step's first stage at u = 1,
        # where w = 1e3 moves u by more than an ulp on any step above the
        # 10 ulp(t) floor.  A NaN error norm rejects every step
        # (max(0.2, nan) = 0.2 shrinks it) until the step falls below that
        # floor; a NaN first step ends the loop at once
        field = (1.0, 3.0, math.nan, 1.0)
        with pytest.raises(NumericsError, match="radial integration failed"):
            radial._dop853_shot(field, 1.0, (2.0 if bad_from_start else 1.0, 1e3), 2.0,
                                1e-10, 1e-12, math.inf)

    def test_step_budget_stops_a_stalled_shot(self):
        # with p = NaN and (u, w) = (1, 0) the field stays finite only on
        # steps too short to move u off 1.0, so the shot creeps: without the
        # budget it crosses this 1.4e-4 window in about 71,000 steps, and a
        # longer one grows its table without bound
        field, t0, _, _, rtol, atol, max_step = radial._radial_ivp(3, 2.0, 4.9, 1.0, 1e-10, 1e3)
        stalled = (*field[:2], math.nan, field[3])
        with pytest.raises(NumericsError, match=(
                r"took \d+ steps and reached only r=0\.11\d* with alpha=2\.0")) as err:
            radial._dop853_shot(stalled, t0, (1.0, 0.0), t0 + 1.4e-4, rtol, atol, max_step)
        assert f"took {radial._MAX_STEPS} steps" in str(err.value)

    def test_underflowing_error_norm_keeps_stepping(self):
        # at the critical exponent the shot has no zero and decays to u ~
        # 1e-163 by r = e^194, where err5 is 0 and 0.01 * err3 underflows;
        # the error norm is then 0, not 0/0, and the shot runs on to the
        # overflow of r^(2+α) |u|^p
        with pytest.raises(NumericsError, match="overflows at r=1.39"):
            integrate_radial_ivp(6, 0.0, 2.0, 1.0, 1e-12, 1e300)


def _evaluate_point(shot, r):
    """(u, u') of `shot` at the one radius r, as `ShotTrajectory.evaluate`
    defines it: the origin series below e^t[0]; from there on the step that
    scipy's `OdeSolution` picks (the lower one at a step point, the end steps
    beyond the ends) and its nested product from 0.0.  Logs and powers run
    on a one-point array, so their bits are numpy's array math, which does
    not depend on the position of a point in the array."""
    one = np.array([r])
    args = (shot.a, shot.n_dim, shot.alpha, shot.p)
    if r < math.exp(shot.t[0]):
        return radial._series_u(one, *args)[0], radial._series_du(one, *args)[0]
    t = np.log(one)[0]
    s = 0
    while s + 1 < shot.h.size and shot.t[s + 1] < t:
        s += 1
    x = (t - shot.t[s]) / shot.h[s]
    u, w = (
        _nested_product(shot.coef[:, s, k], x) + shot.y_old[s, k] for k in (0, 1)
    )
    return u, w / r


def _nested_product(rows, x):
    y = 0.0
    for i, c in enumerate(rows):
        y += c
        y *= x if i % 2 == 0 else 1.0 - x
    return y


def _nonzero(row):
    return tuple((j, float(c)) for j, c in enumerate(row) if c != 0.0)


def _combine(row, ku, kv):
    su = sv = 0.0
    for j, c in row:
        su += c * ku[j]
        sv += c * kv[j]
    return su, sv


def _reference_shot(fun, t0, y0, t_max, rtol, atol, max_step, polishes):
    """The reference stepper: `radial._dop853_shot` as a loop that calls
    `fun` at each stage, with the tableau read from scipy and each sum a loop
    over its sparse row, polished by scipy's `brentq`.  Appends the bracket
    and interpolant of each polish to `polishes`."""
    a_rows = [_nonzero(row) for row in _dop.A]
    t, (u, v) = t0, y0
    fu, fv = fun(t, u, v)
    h_abs = radial._initial_step(fun, t, u, v, fu, fv, t_max - t, rtol, atol, max_step)
    ts, hs, y_old, coef = [t], [], [], []
    first_zero = None
    while t < t_max:
        min_step = 10.0 * math.ulp(t)
        h_abs = max_step if h_abs > max_step else max(h_abs, min_step)
        rejected = False
        while True:
            assert h_abs >= min_step
            t_new = min(t + h_abs, t_max)
            h_abs = h = t_new - t
            ku, kv = [fu], [fv]
            for s in range(1, _dop.N_STAGES):
                du, dv = _combine(a_rows[s], ku, kv)
                gu, gv = fun(t + float(_dop.C[s]) * h, u + du * h, v + dv * h)
                ku.append(gu)
                kv.append(gv)
            du, dv = _combine(_nonzero(_dop.B), ku, kv)
            u_new, v_new = u + h * du, v + h * dv
            fu_new, fv_new = fun(t + h, u_new, v_new)
            ku.append(fu_new)
            kv.append(fv_new)
            scale_u = atol + max(abs(u), abs(u_new)) * rtol
            scale_v = atol + max(abs(v), abs(v_new)) * rtol
            e5u, e5v = _combine(_nonzero(_dop.E5), ku, kv)
            e3u, e3v = _combine(_nonzero(_dop.E3), ku, kv)
            err5 = (e5u / scale_u) ** 2 + (e5v / scale_v) ** 2
            err3 = (e3u / scale_u) ** 2 + (e3v / scale_v) ** 2
            if err5 == 0.0 and err3 == 0.0:
                error_norm = 0.0
            else:
                error_norm = h * err5 / math.sqrt((err5 + 0.01 * err3) * 2.0)
            if error_norm < 1.0:
                if error_norm == 0.0:
                    factor = radial._MAX_FACTOR
                else:
                    factor = min(radial._MAX_FACTOR,
                                 radial._SAFETY * error_norm**radial._EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(radial._MIN_FACTOR, radial._SAFETY * error_norm**radial._EXPONENT)
            rejected = True

        for s in range(_dop.N_STAGES + 1, _dop.N_STAGES_EXTENDED):
            du, dv = _combine(a_rows[s], ku, kv)
            gu, gv = fun(t + float(_dop.C[s]) * h, u + du * h, v + dv * h)
            ku.append(gu)
            kv.append(gv)
        delta_u, delta_v = u_new - u, v_new - v
        rows = [
            (delta_u, delta_v),
            (h * fu - delta_u, h * fv - delta_v),
            (2.0 * delta_u - h * (fu_new + fu), 2.0 * delta_v - h * (fv_new + fv)),
        ]
        for row in _dop.D:
            du, dv = _combine(_nonzero(row), ku, kv)
            rows.append((h * du, h * dv))
        rows.reverse()
        hs.append(h)
        y_old.append((u, v))
        coef.append(rows)

        if u >= 0.0 and u_new <= 0.0:
            args = (t, h, u, rows)
            polishes.append((t, t_new, args))
            first_zero = brentq(radial._interpolant_u, t, t_new, args=args,
                                xtol=radial._ZERO_TOL, rtol=radial._ZERO_TOL)
            ts.append(first_zero)
            break
        ts.append(t_new)
        t, u, v, fu, fv = t_new, u_new, v_new, fu_new, fv_new

    table = (
        np.array(ts),
        np.array(hs),
        np.array(y_old),
        np.ascontiguousarray(np.array(coef).transpose(1, 0, 2)),
    )
    return table, first_zero




def _bits(rows):
    return [[(j, c.hex()) for j, c in row] for row in rows]


@pytest.fixture(scope="module")
def shot_set():
    """The 192 shots of `solve_dirichlet_ball` at N 3-6, α ∈ {0, 0.5, 1, 2,
    3, 4.5}, ε ∈ {0.005, 0.02, 0.05, 0.2} and amplitude a ∈ {1, 4}: the
    arguments of each call of the shot kernel `_dop853_shot`, with the table,
    zero and polishes of the reference stepper on the callable right-hand
    side that `radial._rhs` compiles from the same source."""
    calls = []
    real = radial._dop853_shot
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(radial, "_dop853_shot", lambda *args: calls.append(args) or real(*args))
        for n_dim in (3, 4, 5, 6):
            for alpha in (0.0, 0.5, 1.0, 2.0, 3.0, 4.5):
                for eps in (0.005, 0.02, 0.05, 0.2):
                    for a in (1.0, 4.0):
                        solve_dirichlet_ball(ProblemParams(n_dim, alpha, eps), amplitude=a)
    shots = []
    for field, *args in calls:
        polishes = []
        table, zero = _reference_shot(radial._rhs(*field), *args, polishes)
        shots.append(((field, *args), table, zero, polishes))
    return shots


class TestReferenceStepper:
    def test_literal_tableau_is_scipys(self):
        # the only read of scipy's private tableau module
        assert _bits(radial._A) == _bits(_nonzero(row) for row in _dop.A)
        assert _bits(radial._D) == _bits(_nonzero(row) for row in _dop.D)
        for name in ("B", "E3", "E5"):
            assert _bits([getattr(radial, f"_{name}")]) == _bits([_nonzero(getattr(_dop, name))])
        assert [c.hex() for c in radial._C] == [float(c).hex() for c in _dop.C]
        assert len(radial._A) == _dop.N_STAGES_EXTENDED
        assert radial._N_STAGES == _dop.N_STAGES

    def test_stepper_matches_the_loop_reference(self, shot_set):
        assert len(shot_set) == 192
        for args, ref, ref_zero, _ in shot_set:
            table, zero = radial._dop853_shot(*args)
            assert zero is not None and repr(zero) == repr(ref_zero)
            for name, got, want in zip(("ts", "h", "y_old", "coef"), table, ref):
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), name

    def test_brentq_matches_scipy_on_the_polishes(self, shot_set):
        polishes = [p for *_, shot_polishes in shot_set for p in shot_polishes]
        assert len(polishes) == 192
        tol = radial._ZERO_TOL
        for lo, hi, args in polishes:
            calls = []

            def f(r):
                calls.append(r)
                return radial._interpolant_u(r, *args)

            got = radial._brentq(f, lo, hi, tol, tol)
            got_calls, calls[:] = calls[:], []
            want = brentq(f, lo, hi, xtol=tol, rtol=tol)
            assert repr(got) == repr(want) and got_calls == calls


class TestBrentq:
    # brackets that make Brent's method interpolate, extrapolate and bisect
    @pytest.mark.parametrize("f, lo, hi", [
        (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
        (lambda x: math.cos(x) - x, 0.0, 1.0),
        (lambda x: math.exp(x) - 1e4, -5.0, 20.0),
        (lambda x: (x - 0.3) ** 5, -1.0, 2.0),
        (lambda x: math.copysign(1.0, x - 1.0 / 3.0), 0.0, 1.0),
        (lambda x: x, -1.0, 1.0),
    ])
    @pytest.mark.parametrize("xtol", [1e-10, 2e-12])
    def test_matches_scipy_bit_for_bit(self, f, lo, hi, xtol):
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)

        got = radial._brentq(counted, lo, hi, xtol, 8.9e-16)
        got_calls, calls[:] = calls[:], []
        want = brentq(counted, lo, hi, xtol=xtol, rtol=8.9e-16)
        assert repr(got) == repr(want) and got_calls == calls

    @pytest.mark.parametrize("f, lo, hi", [
        (lambda x: 1e-110 * (x**3 - 2.0 * x - 5.0), 2.0, 3.0),
        (lambda x: 1e-300 * (x - 0.3) ** 5, -1.0, 2.0),
    ])
    def test_underflowed_extrapolation_bisects_as_scipy(self, f, lo, hi):
        # the extrapolation's denominator, a product of three differences
        # of f, underflows to 0; C's division gives inf or NaN and bisects
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)

        got = radial._brentq(counted, lo, hi, 1e-12, 8.9e-16)
        got_calls, calls[:] = calls[:], []
        want = brentq(counted, lo, hi, xtol=1e-12, rtol=8.9e-16)
        assert repr(got) == repr(want) and got_calls == calls

    def test_matches_scipy_on_random_polynomials(self):
        # a loose xtol makes the step-acceptance bound 3|sbis| - delta matter
        rng = np.random.default_rng(3)
        compared = 0
        for _ in range(600):
            c0, c1, c2, c3 = rng.uniform(-1.0, 1.0, 4)
            k = int(rng.choice([1, 3, 5]))

            def f(x):
                calls.append(x)
                return ((c0 * x + c1) * x + c2) * x**k + c3

            calls = []
            if f(-2.0) * f(2.0) >= 0.0:
                continue
            for xtol in (0.3, 0.1, 1e-2, 2e-12):
                calls = []
                got = radial._brentq(f, -2.0, 2.0, xtol, 8.9e-16)
                got_calls, calls = calls, []
                want = brentq(f, -2.0, 2.0, xtol=xtol, rtol=8.9e-16)
                assert repr(got) == repr(want) and got_calls == calls
                compared += 1
        assert compared > 1000

    def test_no_sign_change_is_a_numerics_error(self):
        with pytest.raises(NumericsError, match=r"\[-1\.0, 1\.0\].*same sign"):
            radial._brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12, 8.9e-16)

    def test_no_convergence_is_a_numerics_error(self):
        # scipy gives up on this one too, at the same last x
        def f(x):
            return (x - 0.3) ** 9

        last, info = brentq(f, -1.0, 2.0, xtol=2e-12, rtol=8.9e-16, full_output=True,
                            disp=False)
        assert not info.converged
        with pytest.raises(NumericsError, match=r"\[-1\.0, 2\.0\] did not converge in 100 "
                           rf"iterations; last x={last!r}$"):
            radial._brentq(f, -1.0, 2.0, 2e-12, 8.9e-16)

    def test_nan_is_a_numerics_error(self):
        with pytest.raises(NumericsError, match=r"\[0\.0, 1\.0\].*NaN at x=1\.0"):
            radial._brentq(lambda x: math.nan if x > 0.6 else x - 0.25, 0.0, 1.0,
                           1e-12, 8.9e-16)


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

    @pytest.mark.parametrize("n_dim, alpha, eps", [
        (3, 0.34990207356125325, 0.006957465642943812),
        (4, 3.6035407183892687, 0.01779814962118725),
        (3, 3.0132646831114585, 0.016482419537977456),
        (3, 0.33998990221186887, 0.009250405102667345),
        (3, 3.0033525117621593, 0.021914453570179408),
        (3, 0.3300777308625129, 0.012299017911821877),
        (4, 3.5837163756905284, 0.0314625716061251),
        (3, 2.9934403404128034, 0.029136697690106197),
        (4, 3.6518468642882453, 0.007959120185833056),
        (3, 2.9835281690634474, 0.038739143075866435),
    ])
    def test_residuals_small_where_the_r_shot_missed(self, n_dim, alpha, eps):
        # the points of 400 log-uniform draws where the shot in r left the
        # dense output of its long second step inaccurate: fowler and
        # pde_residual read 1.0e-6 to 4.15e-6 there
        prof = solve_dirichlet_ball(ProblemParams(n_dim, alpha, eps))
        assert fowler_check(prof) < 1e-6
        assert pde_residual(rescale(prof)) < 1e-6

    def test_transform_endpoints(self, profile_3_2_005):
        p = profile_3_2_005
        pr = p.params
        cfac = (2.0 / (2.0 + pr.alpha)) ** (2.0 / (pr.p_alpha - 1.0 - pr.eps))
        # v(0) = cfac*u0 and v(1) = 0 by boundary transport
        assert cfac * p.u0 == pytest.approx(cfac * p.evaluate(np.array([0.0]))[0][0], rel=1e-12)
        assert abs(cfac * p.evaluate(np.array([1.0]))[0][0]) < 1e-9 * p.u0


class TestLinearizationIdentity:
    @settings(max_examples=30, deadline=None)
    @given(n_dim=st.integers(3, 6), alpha=st.floats(0.0, 4.5),
           log_eps=st.floats(math.log(0.005), math.log(0.2)))
    # 1.09e-4 when the shot in log r had no step cap, 5.1e-6 with it
    @example(n_dim=6, alpha=0.3515625, log_eps=-2.0)
    def test_z_solves_limit_eigen_equation(self, n_dim, alpha, log_eps):
        # z = r^(-α/2) u' solves z'' + (N-1)/r z' + (q + Λ₁(α)/r²) z = 0 with
        # q = p r^α u^(p-1), for every ε; a wrong Λ₁ leaves a defect of order 1
        prof = solve_dirichlet_ball(ProblemParams(n_dim, alpha, math.exp(log_eps)))
        p = prof.params.p
        # the 2000-point log grid of fowler_check, mapped back to r
        s_scale = prof.u0 ** (-(p - 1.0) / (2.0 + alpha))
        t_lo = max(1e-14, 1e-3 * min(1.0, s_scale) ** ((2.0 + alpha) / 2.0))
        r = log_grid(t_lo, 1.0, 2000) ** (2.0 / (2.0 + alpha))
        u, du = prof.evaluate(r)
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
        u, du = prof.evaluate(r)
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
