"""Radial Dirichlet solutions of -Δu = |x|^α u^p on the unit ball by shooting.

The initial value problem u'' + (N-1)/r u' + r^α u^p = 0, u(0)=a, u'(0)=0 is
integrated with an adaptive explicit Runge-Kutta scheme (the (N-1)/r term is
singular at the origin).  The shot starts at the series radius, where the
two-term origin series is accurate to 1e-10, and the series itself gives u
and u' below it.
The first zero R of the shot, located by dense-output event detection, fixes
the Dirichlet solution through the scaling u(r) = R^((2+α)/(p-1)) u_shot(R r),
which is independent of the shot amplitude.

Also provided: the change of variables to the unweighted equation in
fractional dimension m = 2(N+α)/(2+α) used as an independent correctness
oracle, and the pointwise upper envelope check for the computed profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

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

_METHODS = {"dop853": "DOP853", "rk45": "RK45"}


@dataclass
class ShotTrajectory:
    """One shot of the radial IVP with amplitude `a`.

    `first_zero` is None when u stayed positive on [0, r_max] (the expected
    outcome at the threshold exponent).  The shot starts at the series radius
    `_r_start`, where the two-term origin series is accurate to 1e-10;
    `evaluate` uses the series below it and the integrator's dense output
    from there on, which starts at the series value.
    """

    n_dim: int
    alpha: float
    p: float
    a: float
    r: np.ndarray
    u: np.ndarray
    du: np.ndarray
    first_zero: float | None
    r_max: float
    method: str
    _dense: object = None
    _r_start: float = 0.0

    def evaluate(self, r, derivative: bool = False):
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        out = np.empty((2, r.size))
        # below the start radius there is no dense output, only the series
        inside = r >= self._r_start
        if np.any(inside):
            out[:, inside] = self._dense(r[inside])
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
    two independent step controllers ("dop853" or "rk45") so results can be
    cross-checked.
    """
    if n_dim < 3:
        raise DomainError(f"need N >= 3, got {n_dim!r}")
    if alpha < 0:
        raise DomainError(f"need alpha >= 0, got {alpha!r}")
    p_alpha = threshold_exponent(n_dim, alpha)
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

    def rhs(r, y):
        u, v = y
        # odd extension keeps the vector field smooth through u = 0
        return (v, -(n_dim - 1.0) / r * v - r**alpha * np.sign(u) * np.abs(u) ** p)

    def hit_zero(r, y):
        return y[0]

    hit_zero.terminal = True
    hit_zero.direction = -1

    sol = solve_ivp(
        rhs,
        (r0, r_max),
        y0,
        method=_METHODS[method],
        rtol=tol,
        atol=tol * 1e-2 * a,
        dense_output=True,
        events=hit_zero,
    )
    if sol.status == -1:
        raise NumericsError(f"radial integration failed: {sol.message}")
    first_zero = float(sol.t_events[0][0]) if sol.t_events[0].size else None
    return ShotTrajectory(
        n_dim=n_dim,
        alpha=alpha,
        p=p,
        a=a,
        r=sol.t,
        u=sol.y[0],
        du=sol.y[1],
        first_zero=first_zero,
        r_max=r_max,
        method=method,
        _dense=sol.sol,
        _r_start=r0,
    )


def default_profile_grid() -> np.ndarray:
    """Storage grid on [0, 1]: geometric grading (ratio 1.05) up to 0.1, then
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

    Stores samples (u, du) on a graded grid of [0, 1] together with the
    sup-norm u0 = u(0), the shot radius that produced it, and
    mu = u0^-2.  `evaluate` delegates to the shot's dense output, so values
    off the storage grid carry integrator accuracy.
    """

    params: ProblemParams
    grid: np.ndarray
    u: np.ndarray
    du: np.ndarray
    u0: float
    first_zero_raw: float
    mu: float
    integrator_tol: float
    _shot: ShotTrajectory | None = None
    _interp: object = None

    def evaluate(self, r, derivative: bool = False):
        """u(r) (and u'(r)) for r in [0, 1], off-grid capable."""
        beta = (2.0 + self.params.alpha) / (self.params.p - 1.0)
        scale = self.first_zero_raw**beta
        if self._shot is not None:
            res = self._shot.evaluate(np.asarray(r, float) * self.first_zero_raw,
                                      derivative=True)
            u = scale * res[0]
            du = scale * self.first_zero_raw * res[1]
        else:
            u, du = self._hermite(r)
        if derivative:
            return u, du
        return u

    def _hermite(self, r):
        # deserialized profiles interpolate the stored (u, du) samples
        from scipy.interpolate import BPoly

        if self._interp is None:
            yd = np.stack([self.u, self.du], axis=1)
            object.__setattr__(self, "_interp", BPoly.from_derivatives(self.grid, yd))
        f = self._interp
        r = np.asarray(r, dtype=float)
        return f(r), f.derivative()(r)


def solve_dirichlet_ball(
    params: ProblemParams,
    amplitude: float = 1.0,
    tol: float = 1e-10,
    r_max: float | None = None,
) -> RadialProfile:
    """Radial Dirichlet solution on the unit ball via one DOP853 shot plus
    rescaling, sampled on `default_profile_grid()`.

    When `r_max` is omitted it is sized from the sup-norm asymptotics
    (u(0) ~ sqrt(M/ε) puts the unit shot's zero near u0^((p-1)/(2+α))) and
    extended a few times if the zero still lies beyond it.  An explicit
    `r_max` is honored as given and failure to find a zero inside it raises
    SupercriticalError.
    """
    if not amplitude > 0:
        raise DomainError(f"need amplitude > 0, got {amplitude!r}")
    p = params.p
    alpha = params.alpha
    beta = (2.0 + alpha) / (p - 1.0)

    auto = r_max is None
    if auto:
        u0_est = math.sqrt(sup_norm_constant(params.n_dim, alpha) / params.eps)
        r_est = (u0_est / amplitude) ** (1.0 / beta)
        r_max = max(1e3, 5.0 * r_est)

    shot = None
    for attempt in range(4 if auto else 1):
        shot = integrate_radial_ivp(
            params.n_dim, alpha, p, a=amplitude, tol=tol,
            r_max=r_max * 8.0**attempt,
        )
        if shot.first_zero is not None:
            break
    if shot.first_zero is None:
        raise SupercriticalError(
            f"no zero within r_max={shot.r_max:g}: supercritical or r_max too small"
        )

    big_r = shot.first_zero
    u0 = big_r**beta * amplitude
    grid = default_profile_grid()
    scale = big_r**beta
    vals = shot.evaluate(grid * big_r, derivative=True)
    u = scale * vals[0]
    du = scale * big_r * vals[1]
    u[0] = u0      # series value at the origin, exact by construction
    du[0] = 0.0
    return RadialProfile(
        params=params,
        grid=grid,
        u=u,
        du=du,
        u0=u0,
        first_zero_raw=big_r,
        mu=u0**-2.0,
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
    # v' comes exactly from the stored radial derivative (chain rule)
    dv = cfac * du * (2.0 / (2.0 + alpha)) * s / r
    return numerics.radial_defect(
        r, cfac * u, dv, m, lambda rin, v: np.clip(v, 0.0, None) ** p
    )


def decay_bound_check(profile: RadialProfile) -> float:
    """Worst margin of the pointwise envelope

    u(r) ≤ [ μ^((p_α-1-2ε)/4) / (μ^((p_α-1-ε)/2) + C_{N,α}^-1 r^(2+α)) ]^((N-2)/(2+α))

    over the storage grid, where μ = u0^-2.  Returns min(bound - u); the
    envelope touches u at r = 0, so the result should never drop below
    -1e-9·u0 for a correct profile.
    """
    pr = profile.params
    mu = profile.mu
    alpha = pr.alpha
    c_inv = 1.0 / pr.henon_c
    num = mu ** ((pr.p_alpha - 1.0 - 2.0 * pr.eps) / 4.0)
    den = mu ** ((pr.p_alpha - 1.0 - pr.eps) / 2.0) + c_inv * profile.grid ** (2.0 + alpha)
    bound = (num / den) ** ((pr.n_dim - 2.0) / (2.0 + alpha))
    return float(np.min(bound - profile.u))
