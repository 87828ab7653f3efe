"""Radial Dirichlet solutions of -Δu = |x|^α u^p on the unit ball by shooting.

The initial value problem u'' + (N-1)/r u' + r^α u^p = 0, u(0)=a, u'(0)=0 is
integrated with an adaptive explicit Runge-Kutta scheme (the (N-1)/r term is
singular at the origin).  The shot starts at the series radius, where the
two-term origin series is accurate to 1e-10, and the series itself gives u
and u' below it.
The first zero R of the shot, located on the dense output, fixes the
Dirichlet solution through the scaling u(r) = R^((2+α)/(p-1)) u_shot(R r),
which is independent of the shot amplitude.

A DOP853 shot runs the module's own stepper: scipy's DOP853 algorithm
(Hairer–Nørsett–Wanner, *Solving ODEs I*, §II.10) with scipy's tableau, step
controller, error norm, dense output and zero location, on Python floats for
the two-component state, so a step costs no numpy call.  It takes the same
steps as `solve_ivp(method="DOP853")` up to roundoff, and writes the dense
output of each accepted step into one stacked table, evaluated for all
points in one vectorized pass.  RK45 shots stay on scipy's `solve_ivp`: they
are an independent check of the first zero, from another code base, and
carry no dense output.

Also provided: the change of variables to the unweighted equation in
fractional dimension m = 2(N+α)/(2+α) used as an independent correctness
oracle, and the pointwise upper envelope check for the computed profile.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients as _dop
from scipy.optimize import brentq

from . import numerics
from .closedform import ProblemParams, sup_norm_constant, threshold_exponent
from .errors import DomainError, NumericsError, SupercriticalError

__all__ = [
    "ShotTrajectory",
    "RadialProfile",
    "integrate_radial_ivp",
    "solve_dirichlet_ball",
    "fowler_check",
    "decay_bound_check",
    "default_profile_grid",
]

_METHODS = ("dop853", "rk45")


def _nonzero(row) -> tuple[tuple[int, float], ...]:
    """The (column, coefficient) pairs of a tableau row, zero entries skipped."""
    return tuple((j, float(c)) for j, c in enumerate(row) if c != 0.0)


# scipy's DOP853 tableau: rows 1-11 of A give the stages, rows 13-15 the three
# extra stages of the dense output; stage 12 is f at the step end
_A = tuple(_nonzero(row) for row in _dop.A)
_C = tuple(float(c) for c in _dop.C)
_B = _nonzero(_dop.B)
_E3 = _nonzero(_dop.E3)
_E5 = _nonzero(_dop.E5)
_D = tuple(_nonzero(row) for row in _dop.D)
# scipy's step-size controller for an order-7 error estimate
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_EXPONENT = -1.0 / 8.0
_ZERO_TOL = 4.0 * sys.float_info.epsilon


def _combine(row, ku, kv):
    """Σ c·k over a sparse tableau row, for both components of the stages."""
    su = sv = 0.0
    for j, c in row:
        su += c * ku[j]
        sv += c * kv[j]
    return su, sv


def _rms(x: float, y: float) -> float:
    return math.sqrt(x * x + y * y) / math.sqrt(2.0)


def _initial_step(fun, t, u, v, fu, fv, span, rtol, atol) -> float:
    """scipy's `select_initial_step` (Hairer–Nørsett–Wanner, §II.4)."""
    su, sv = atol + abs(u) * rtol, atol + abs(v) * rtol
    d0 = _rms(u / su, v / sv)
    d1 = _rms(fu / su, fv / sv)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    gu, gv = fun(t + h0, u + h0 * fu, v + h0 * fv)
    d2 = _rms((gu - fu) / su, (gv - fv) / sv) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100.0 * h0, h1, span)


def _dop853_shot(fun, r0, y0, r_max, rtol, atol):
    """Integrate (u, v)' = fun(r, u, v) from (r0, y0) with scipy's DOP853
    algorithm on Python floats, until r_max or the first downward zero of u.

    The step controller, error norm, dense output and zero location are
    scipy's, so a shot takes the same steps as `solve_ivp(method="DOP853")`
    up to roundoff.  Each accepted step appends its row of the dense-output
    table.  The zero is the first step with u ≥ 0 at its start and u ≤ 0 at
    its end, polished by `brentq` on that step's interpolant.  Returns the
    table and the zero (None without one).  A non-finite right-hand side
    makes every error norm NaN, so each retry shrinks the step by
    MIN_FACTOR; NumericsError once the step is below 10 ulp(r), or is NaN.
    """
    t, (u, v) = r0, y0
    fu, fv = fun(t, u, v)
    h_abs = _initial_step(fun, t, u, v, fu, fv, r_max - t, rtol, atol)
    ts, t_old, hs, y_old, coef = [t], [], [], [], []
    first_zero = None
    while t < r_max:
        min_step = 10.0 * math.ulp(t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            # also true for a NaN step, so a bad right-hand side ends the loop
            if not h_abs >= min_step:
                raise NumericsError(
                    "radial integration failed: required step size is less "
                    f"than spacing between numbers at r={t!r}"
                )
            t_new = min(t + h_abs, r_max)
            h_abs = h = t_new - t
            ku, kv = [fu], [fv]
            for s in range(1, _dop.N_STAGES):
                du, dv = _combine(_A[s], ku, kv)
                gu, gv = fun(t + _C[s] * h, u + du * h, v + dv * h)
                ku.append(gu)
                kv.append(gv)
            du, dv = _combine(_B, ku, kv)
            u_new, v_new = u + h * du, v + h * dv
            fu_new, fv_new = fun(t + h, u_new, v_new)
            ku.append(fu_new)
            kv.append(fv_new)
            scale_u = atol + max(abs(u), abs(u_new)) * rtol
            scale_v = atol + max(abs(v), abs(v_new)) * rtol
            e5u, e5v = _combine(_E5, ku, kv)
            e3u, e3v = _combine(_E3, ku, kv)
            err5 = (e5u / scale_u) ** 2 + (e5v / scale_v) ** 2
            err3 = (e3u / scale_u) ** 2 + (e3v / scale_v) ** 2
            if err5 == 0.0 and err3 == 0.0:
                error_norm = 0.0
            else:
                error_norm = h * err5 / math.sqrt((err5 + 0.01 * err3) * 2.0)
            if error_norm < 1.0:
                if error_norm == 0.0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm**_EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm**_EXPONENT)
            rejected = True

        for s in range(_dop.N_STAGES + 1, _dop.N_STAGES_EXTENDED):
            du, dv = _combine(_A[s], ku, kv)
            gu, gv = fun(t + _C[s] * h, u + du * h, v + dv * h)
            ku.append(gu)
            kv.append(gv)
        delta_u, delta_v = u_new - u, v_new - v
        rows = [
            (delta_u, delta_v),
            (h * fu - delta_u, h * fv - delta_v),
            (2.0 * delta_u - h * (fu_new + fu), 2.0 * delta_v - h * (fv_new + fv)),
        ]
        for row in _D:
            du, dv = _combine(row, ku, kv)
            rows.append((h * du, h * dv))
        rows.reverse()
        t_old.append(t)
        hs.append(h)
        y_old.append((u, v))
        coef.append(rows)

        if u >= 0.0 and u_new <= 0.0:
            first_zero = brentq(
                _interpolant_u, t, t_new, args=(t, h, u, rows),
                xtol=_ZERO_TOL, rtol=_ZERO_TOL,
            )
            ts.append(first_zero)
            break
        ts.append(t_new)
        t, u, v, fu, fv = t_new, u_new, v_new, fu_new, fv_new

    table = _Dop853Table(
        ts=np.array(ts),
        t_old=np.array(t_old),
        h=np.array(hs),
        y_old=np.array(y_old),
        coef=np.ascontiguousarray(np.array(coef).transpose(1, 0, 2)),
    )
    return table, first_zero


def _interpolant_u(r, t_old, h, u_old, rows):
    """u at r on one step's dense output: the table's nested product."""
    x = (r - t_old) / h
    y = 0.0
    for i, (c, _) in enumerate(rows):
        y += c
        y *= x if i % 2 == 0 else 1.0 - x
    return y + u_old


@dataclass(frozen=True)
class _Dop853Table:
    """The DOP853 dense output of one shot, stacked over its steps.

    `_dop853_shot` writes one row per accepted step: its start `t_old`,
    length `h` and start state `y_old`, and in `coef[:, s]` its seven
    interpolation coefficients (7 × 2, highest power first); `ts` are the
    step points, with the zero in place of the last step's end.  A call
    picks each point's step as scipy's `OdeSolution` does (the lower step at
    a step point, the end steps beyond the ends) and runs the nested product
    of scipy's `Dop853DenseOutput`.
    """

    ts: np.ndarray
    t_old: np.ndarray
    h: np.ndarray
    y_old: np.ndarray
    coef: np.ndarray

    def __call__(self, t: np.ndarray) -> np.ndarray:
        """(u, u') at the points of the 1-D array t, shape (2, t.size)."""
        seg = np.clip(np.searchsorted(self.ts, t, side="left") - 1, 0, self.h.size - 1)
        x = ((t - self.t_old[seg]) / self.h[seg])[:, None]
        y = np.zeros((t.size, 2))
        for i, c in enumerate(self.coef):
            y += c.take(seg, axis=0)
            y *= x if i % 2 == 0 else 1 - x
        y += self.y_old[seg]
        return y.T


@dataclass
class ShotTrajectory:
    """One shot of the radial IVP with amplitude `a`.

    `first_zero` is None when u stayed positive on [0, r_max] (the expected
    outcome at the threshold exponent).  The shot starts at the series radius
    `_r_start`, where the two-term origin series is accurate to 1e-10; `r`
    holds the integrator's step points from there on, as scipy reports them:
    the start, the ends of the accepted steps, and the zero in place of the
    last step's end.  `evaluate` uses the series below `_r_start` and, from
    there on, the dense-output table `_table` that the DOP853 stepper wrote
    as it stepped, which starts at the series value.  An RK45 shot runs on
    `solve_ivp`, keeps no table, and `evaluate` on it raises DomainError.
    """

    n_dim: int
    alpha: float
    p: float
    a: float
    r: np.ndarray
    first_zero: float | None
    r_max: float
    _table: _Dop853Table | None = None
    _r_start: float = 0.0

    def evaluate(self, r, derivative: bool = False):
        if self._table is None:
            raise DomainError(
                "this shot has no dense output; integrate it with "
                "method='dop853' to evaluate it"
            )
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        out = np.empty((2, r.size))
        # below the start radius there is no table, only the series
        inside = r >= self._r_start
        if np.any(inside):
            out[:, inside] = self._table(r[inside])
        if np.any(~inside):
            rs = r[~inside]
            out[0, ~inside] = _series_u(rs, self.a, self.n_dim, self.alpha, self.p)
            out[1, ~inside] = _series_du(rs, self.a, self.n_dim, self.alpha, self.p)
        u, du = out
        if derivative:
            return (float(u[0]), float(du[0])) if scalar else (u, du)
        return float(u[0]) if scalar else u


def _series_coeffs(a, n_dim, alpha, p):
    # u = a - c1 r^(2+α) + c2 r^(4+2α) + O(r^(6+3α)) from matching powers in
    # the radial equation
    c1 = a**p / ((2.0 + alpha) * (n_dim + alpha))
    c2 = p * a ** (p - 1.0) * c1 / ((4.0 + 2.0 * alpha) * (n_dim + 2.0 * alpha + 2.0))
    return c1, c2


def _series_u(r, a, n_dim, alpha, p):
    c1, c2 = _series_coeffs(a, n_dim, alpha, p)
    return a - c1 * r ** (2.0 + alpha) + c2 * r ** (4.0 + 2.0 * alpha)


def _series_du(r, a, n_dim, alpha, p):
    c1, c2 = _series_coeffs(a, n_dim, alpha, p)
    return -(2.0 + alpha) * c1 * r ** (1.0 + alpha) + (
        4.0 + 2.0 * alpha
    ) * c2 * r ** (3.0 + 2.0 * alpha)


def integrate_radial_ivp(
    n_dim: int,
    alpha: float,
    p: float,
    a: float = 1.0,
    tol: float = 1e-10,
    r_max: float = 1e3,
    method: str = "dop853",
) -> ShotTrajectory:
    """Shoot u'' + (N-1)/r u' + r^α u^p = 0 from u(0)=a, u'(0)=0.

    `tol` is the relative tolerance; the absolute tolerance is tol*1e-2
    scaled by the amplitude.  The first downward zero crossing terminates the
    integration and is polished on the dense output.  `method` selects one of
    two independent integrators so the first zero can be cross-checked:
    "dop853" runs the module's own DOP853 stepper, which writes the stacked
    dense-output table as it steps and can be evaluated; "rk45" runs scipy's
    `solve_ivp` and keeps no dense output.
    """
    p_alpha = threshold_exponent(n_dim, alpha)  # checks N and α
    if not 1.0 < p <= p_alpha:
        raise DomainError(f"need 1 < p <= p_alpha = {p_alpha}, got {p!r}")
    if not a > 0:
        raise DomainError(f"need a > 0, got {a!r}")
    if not tol > 0:
        raise DomainError(f"need tol > 0, got {tol!r}")
    if method not in _METHODS:
        raise DomainError(f"method must be one of {sorted(_METHODS)}, got {method!r}")

    # series start: the relative truncation of the two-term series is the
    # square of a^(p-1) r^(2+α) / ((2+α)(N+α)); cap that at 1e-5 (error 1e-10)
    lead = (2.0 + alpha) * (n_dim + alpha) / a ** (p - 1.0)
    r0 = (1e-5 * lead) ** (1.0 / (2.0 + alpha))
    if not r_max > r0:
        raise DomainError(f"need r_max > series radius {r0:.6g}, got {r_max!r}")
    y0 = (
        float(_series_u(r0, a, n_dim, alpha, p)),
        float(_series_du(r0, a, n_dim, alpha, p)),
    )

    def rhs(r, u, v):
        # odd extension keeps the vector field smooth through u = 0
        return v, -(n_dim - 1.0) / r * v - r**alpha * math.copysign(abs(u) ** p, u)

    if method == "dop853":
        table, first_zero = _dop853_shot(rhs, r0, y0, r_max, tol, tol * 1e-2 * a)
        steps = table.ts
    else:
        def hit_zero(r, y):
            return y[0]

        hit_zero.terminal = True
        hit_zero.direction = -1
        sol = solve_ivp(
            lambda r, y: rhs(r, float(y[0]), float(y[1])),
            (r0, r_max),
            y0,
            method="RK45",
            rtol=tol,
            atol=tol * 1e-2 * a,
            events=hit_zero,
        )
        if sol.status == -1:
            raise NumericsError(f"radial integration failed: {sol.message}")
        table, steps = None, sol.t
        first_zero = float(sol.t_events[0][0]) if sol.t_events[0].size else None
    return ShotTrajectory(
        n_dim=n_dim,
        alpha=alpha,
        p=p,
        a=a,
        r=steps,
        first_zero=first_zero,
        r_max=r_max,
        _table=table,
        _r_start=r0,
    )


def default_profile_grid() -> np.ndarray:
    """Sample grid on [0, 1]: geometric grading (ratio 1.05) up to 0.1, then
    2000 uniform points; curvature concentrates at the origin for small ε."""
    graded = [0.0]
    r = 1e-7
    while r < 0.1:
        graded.append(r)
        r *= 1.05
    uniform = np.linspace(0.1, 1.0, 2000)
    return np.unique(np.concatenate([graded, uniform]))


@dataclass
class RadialProfile:
    """The unique radial Dirichlet solution for one (N, α, ε).

    Holds the shot that produced it, its first zero R (`first_zero_raw`) and
    the sup-norm u0 = u(0) = R^β a with β = (2+α)/(p-1).  `evaluate` gives
    u(r) = R^β u_shot(R r) at any r in [0, 1] from the shot's dense output;
    samples on the standard grid are `evaluate(default_profile_grid(),
    derivative=True)`.
    """

    params: ProblemParams
    u0: float
    first_zero_raw: float
    integrator_tol: float
    _shot: ShotTrajectory

    def evaluate(self, r, derivative: bool = False):
        """u(r) (and u'(r)) for r in [0, 1]; DomainError for any r outside
        it, NaN included."""
        r = np.asarray(r, float)
        if not np.all((r >= 0.0) & (r <= 1.0)):
            raise DomainError("profile radii must lie in [0, 1]")
        beta = (2.0 + self.params.alpha) / (self.params.p - 1.0)
        scale = self.first_zero_raw**beta
        res = self._shot.evaluate(r * self.first_zero_raw, derivative=True)
        u = scale * res[0]
        if derivative:
            return u, scale * self.first_zero_raw * res[1]
        return u


def solve_dirichlet_ball(
    params: ProblemParams,
    amplitude: float = 1.0,
    tol: float = 1e-10,
) -> RadialProfile:
    """Radial Dirichlet solution on the unit ball via one DOP853 shot plus
    rescaling; the profile evaluates the shot, it stores no samples.

    The shot's window is sized from the sup-norm asymptotics (u(0) ~
    sqrt(M/ε) puts the unit shot's zero near u0^((p-1)/(2+α))) and extended
    eightfold up to three times if the zero still lies beyond it; a shot with
    no zero in the last window raises SupercriticalError.
    """
    if not amplitude > 0:
        raise DomainError(f"need amplitude > 0, got {amplitude!r}")
    p = params.p
    alpha = params.alpha
    beta = (2.0 + alpha) / (p - 1.0)

    u0_est = math.sqrt(sup_norm_constant(params.n_dim, alpha) / params.eps)
    r_max = max(1e3, 5.0 * (u0_est / amplitude) ** (1.0 / beta))
    for attempt in range(4):
        shot = integrate_radial_ivp(
            params.n_dim, alpha, p, a=amplitude, tol=tol,
            r_max=r_max * 8.0**attempt,
        )
        if shot.first_zero is not None:
            break
    else:
        raise SupercriticalError(
            f"no zero within r_max={shot.r_max:g} after three eightfold extensions"
        )

    big_r = shot.first_zero
    return RadialProfile(
        params=params,
        u0=big_r**beta * amplitude,
        first_zero_raw=big_r,
        integrator_tol=tol,
        _shot=shot,
    )


def fowler_check(profile: RadialProfile) -> float:
    """Independent correctness oracle via the change of variables
    v(r) = (2/(2+α))^(2/(p_α-1-ε)) u(r^(2/(2+α))).

    v solves v'' + (m-1)/r v' + v^p = 0 with m = 2(N+α)/(2+α); the returned
    value is the maximum term-normalized finite-difference defect of that
    equation on a 2000-point geometric grid (5-point stencils in log r).
    """
    pr = profile.params
    alpha, p = pr.alpha, pr.p
    m = 2.0 * (pr.n_dim + alpha) / (2.0 + alpha)
    cfac = (2.0 / (2.0 + alpha)) ** (2.0 / (pr.p_alpha - 1.0 - pr.eps))

    # u concentrates on the physical scale u0^(-(p-1)/(2+α)); squaring-type
    # exponent maps it to the transformed radial scale
    s_scale = profile.u0 ** (-(p - 1.0) / (2.0 + alpha))
    r_lo = max(1e-14, 1e-3 * min(1.0, s_scale) ** ((2.0 + alpha) / 2.0))
    r = numerics.log_grid(r_lo, 1.0, 2000)
    s = r ** (2.0 / (2.0 + alpha))
    u, du = profile.evaluate(s, derivative=True)
    # v' comes exactly from the profile's radial derivative (chain rule)
    dv = cfac * du * (2.0 / (2.0 + alpha)) * s / r
    return numerics.radial_defect(
        r, cfac * u, dv, m, lambda rin, v: np.clip(v, 0.0, None) ** p
    )


def decay_bound_check(profile: RadialProfile) -> float:
    """Worst margin of the pointwise envelope

    u(r) ≤ [ μ^((p_α-1-2ε)/4) / (μ^((p_α-1-ε)/2) + C_{N,α}^-1 r^(2+α)) ]^((N-2)/(2+α))

    over `default_profile_grid()`, where μ = u0^-2.  Returns min(bound - u);
    the envelope touches u at r = 0, so the result should never drop below
    -1e-9·u0 for a correct profile.
    """
    pr = profile.params
    mu = profile.u0**-2.0
    alpha = pr.alpha
    c_inv = 1.0 / pr.henon_c
    grid = default_profile_grid()
    num = mu ** ((pr.p_alpha - 1.0 - 2.0 * pr.eps) / 4.0)
    den = mu ** ((pr.p_alpha - 1.0 - pr.eps) / 2.0) + c_inv * grid ** (2.0 + alpha)
    bound = (num / den) ** ((pr.n_dim - 2.0) / (2.0 + alpha))
    return float(np.min(bound - profile.evaluate(grid)))
