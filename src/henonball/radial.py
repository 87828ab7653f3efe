"""Radial Dirichlet solutions of -Δu = |x|^α u^p on the unit ball by shooting.

The initial value problem u'' + (N-1)/r u' + r^α u^p = 0, u(0)=a, u'(0)=0 is
defined once, in `_radial_ivp` and `_RHS`: its input checks, the series
radius where the two-term origin series is accurate to 1e-10 (the (N-1)/r
term is singular at the origin, so the shot starts there and the series
gives u and u' below it), the source of the right-hand side and the
tolerances.  The shot runs in t = log r on the state (u, w = r u'), the
Emden–Fowler change of variables (Fowler, *Q. J. Math.* 2, 1931):
u_t = w, w_t = -(N-2) w - e^((2+α)t) |u|^p sign(u).  There a power of r
becomes an exponential in t, which the stepper follows in fewer steps, and
a change of amplitude is a translation in t.  Two integrators read that
form.
`integrate_radial_ivp` runs the module's own stepper: the DOP853 algorithm
of Hairer–Nørsett–Wanner (*Solving ODEs I*, §II.10) with scipy's step
controller, error norm, dense output and zero location, on Python floats for
the two-component state, so a step costs no numpy call.  The stepper is one
kernel, `_dop853_shot`, generated at import as straight-line source from the
tableau, written out below as literals copied from scipy 1.17.1, with the
right-hand side `_RHS` written into every stage, so a step makes no Python
call either; the callable `_rhs` that the initial step and the RK45 check
call is compiled from the same source.  The zero polish is `_brentq`, a port
of scipy's `brentq.c` (Brent, 1973).  A shot takes the same steps as
`solve_ivp(method="DOP853")` on that right-hand side up to roundoff, needs
numpy alone, and returns a `ShotTrajectory` that holds the dense output of
each accepted step in one stacked table (Hairer–Nørsett–Wanner, §II.6).
The shot's one evaluator maps radii to t and gives (u, u' = w/r) for an
array of radii in one vectorized pass, the series below the shot's start and
the table's nested product on the other points only; `RadialProfile.evaluate`
maps that pair back to the unit ball, in the same shape: a 1-D array of
radii in, (u, u') out.
`rk45_first_zero` shoots the same IVP on scipy's RK45 (Dormand–Prince, 1980),
loaded on its first call: an independent check of the first zero from
another code base.  The checks that do not share the log form are
`fowler_check` (the Fowler form below), `rescaling.pde_residual` (the
equation in r) and the closed-form bubble at the threshold exponent.
The first zero R of the shot fixes the Dirichlet solution through the
scaling u(r) = R^((2+α)/(p-1)) u_shot(R r), which is independent of the shot
amplitude.

Also provided: the change of variables to the unweighted equation in
fractional dimension m = 2(N+α)/(2+α) used as an independent correctness
oracle, and the pointwise upper envelope check for the computed profile.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import numerics
from .closedform import ProblemParams, sup_norm_constant, threshold_exponent
from .errors import DomainError, NumericsError, SupercriticalError

__all__ = [
    "ShotTrajectory",
    "RadialProfile",
    "integrate_radial_ivp",
    "rk45_first_zero",
    "solve_dirichlet_ball",
    "fowler_check",
    "decay_bound_check",
    "default_profile_grid",
]

# The DOP853 tableau of Hairer–Nørsett–Wanner (*Solving ODEs I*, §II.10),
# as scipy 1.17.1 ships it, written once as (column, coefficient) pairs with
# zero entries skipped: rows 1-11 of A give the stages, rows 13-15 the three
# extra stages of the dense output; stage 12 is f at the step end
_A = (
    (),
    ((0, 0.05260015195876773),),
    ((0, 0.0197250569845379), (1, 0.0591751709536137),),
    ((0, 0.02958758547680685), (2, 0.08876275643042054),),
    ((0, 0.2413651341592667), (2, -0.8845494793282861), (3, 0.924834003261792),),
    ((0, 0.037037037037037035), (3, 0.17082860872947386), (4, 0.12546768756682242),),
    (
        (0, 0.037109375), (3, 0.17025221101954405), (4, 0.06021653898045596),
        (5, -0.017578125),
    ),
    (
        (0, 0.03709200011850479), (3, 0.17038392571223998), (4, 0.10726203044637328),
        (5, -0.015319437748624402), (6, 0.008273789163814023),
    ),
    (
        (0, 0.6241109587160757), (3, -3.3608926294469414), (4, -0.868219346841726),
        (5, 27.59209969944671), (6, 20.154067550477894), (7, -43.48988418106996),
    ),
    (
        (0, 0.47766253643826434), (3, -2.4881146199716677), (4, -0.590290826836843),
        (5, 21.230051448181193), (6, 15.279233632882423), (7, -33.28821096898486),
        (8, -0.020331201708508627),
    ),
    (
        (0, -0.9371424300859873), (3, 5.186372428844064), (4, 1.0914373489967295),
        (5, -8.149787010746927), (6, -18.52006565999696), (7, 22.739487099350505),
        (8, 2.4936055526796523), (9, -3.0467644718982196),
    ),
    (
        (0, 2.273310147516538), (3, -10.53449546673725), (4, -2.0008720582248625),
        (5, -17.9589318631188), (6, 27.94888452941996), (7, -2.8589982771350235),
        (8, -8.87285693353063), (9, 12.360567175794303), (10, 0.6433927460157636),
    ),
    (
        (0, 0.054293734116568765), (5, 4.450312892752409), (6, 1.8915178993145003),
        (7, -5.801203960010585), (8, 0.3111643669578199), (9, -0.1521609496625161),
        (10, 0.20136540080403034), (11, 0.04471061572777259),
    ),
    (
        (0, 0.056167502283047954), (6, 0.25350021021662483), (7, -0.2462390374708025),
        (8, -0.12419142326381637), (9, 0.15329179827876568), (10, 0.00820105229563469),
        (11, 0.007567897660545699), (12, -0.008298),
    ),
    (
        (0, 0.03183464816350214), (5, 0.028300909672366776), (6, 0.053541988307438566),
        (7, -0.05492374857139099), (10, -0.00010834732869724932),
        (11, 0.0003825710908356584), (12, -0.00034046500868740456),
        (13, 0.1413124436746325),
    ),
    (
        (0, -0.42889630158379194), (5, -4.697621415361164), (6, 7.683421196062599),
        (7, 4.06898981839711), (8, 0.3567271874552811), (12, -0.0013990241651590145),
        (13, 2.9475147891527724), (14, -9.15095847217987),
    ),
)
_C = (
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2, 0.7777777777777778,
)
_E3 = (
    (0, -0.18980075407240762), (5, 4.450312892752409), (6, 1.8915178993145003),
    (7, -5.801203960010585), (8, -0.4226823213237919), (9, -0.1521609496625161),
    (10, 0.20136540080403034), (11, 0.02265179219836082),
)
_E5 = (
    (0, 0.01312004499419488), (5, -1.2251564463762044), (6, -0.4957589496572502),
    (7, 1.6643771824549864), (8, -0.35032884874997366), (9, 0.3341791187130175),
    (10, 0.08192320648511571), (11, -0.022355307863886294),
)
_D = (
    (
        (0, -8.428938276109013), (5, 0.5667149535193777), (6, -3.0689499459498917),
        (7, 2.38466765651207), (8, 2.117034582445028), (9, -0.871391583777973),
        (10, 2.2404374302607883), (11, 0.6315787787694688), (12, -0.08899033645133331),
        (13, 18.148505520854727), (14, -9.194632392478356), (15, -4.436036387594894),
    ),
    (
        (0, 10.427508642579134), (5, 242.28349177525817), (6, 165.20045171727028),
        (7, -374.5467547226902), (8, -22.113666853125306), (9, 7.733432668472264),
        (10, -30.674084731089398), (11, -9.332130526430229), (12, 15.697238121770845),
        (13, -31.139403219565178), (14, -9.35292435884448), (15, 35.81684148639408),
    ),
    (
        (0, 19.985053242002433), (5, -387.0373087493518), (6, -189.17813819516758),
        (7, 527.8081592054236), (8, -11.57390253995963), (9, 6.8812326946963),
        (10, -1.0006050966910838), (11, 0.7777137798053443), (12, -2.778205752353508),
        (13, -60.19669523126412), (14, 84.32040550667716), (15, 11.99229113618279),
    ),
    (
        (0, -25.69393346270375), (5, -154.18974869023643), (6, -231.5293791760455),
        (7, 357.6391179106141), (8, 93.40532418362432), (9, -37.45832313645163),
        (10, 104.0996495089623), (11, 29.8402934266605), (12, -43.53345659001114),
        (13, 96.32455395918828), (14, -39.17726167561544), (15, -149.72683625798564),
    ),
)
_N_STAGES = 12  # of a step; the rows of A past it give the extra stages
# the weights of the step: stage 12 evaluates f at the step end, where
# c = 1 and the stage state is the new state, so its row of A is B
_B = _A[_N_STAGES]
# scipy's step-size controller for an order-7 error estimate
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_EXPONENT = -1.0 / 8.0
_ZERO_TOL = 4.0 * sys.float_info.epsilon


def _rms(x: float, y: float) -> float:
    return math.sqrt(x * x + y * y) / math.sqrt(2.0)


def _initial_step(fun, t, u, v, fu, fv, span, rtol, atol, max_step) -> float:
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
    return min(100.0 * h0, h1, span, max_step)


def _interpolant_u(t, t_old, h, u_old, rows):
    """u at t on one step's dense output: the table's nested product."""
    x = (t - t_old) / h
    y = 0.0
    for i, (c, _) in enumerate(rows):
        y += c
        y *= x if i % 2 == 0 else 1.0 - x
    return y + u_old


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float) -> float:
    """A zero of f in [xa, xb] by Brent's method (Brent, *Algorithms for
    Minimization without Derivatives*, 1973, ch. 4): a line-for-line port of
    scipy's `brentq.c`, so it returns scipy's `brentq` bit for bit.  It stops
    when f is exactly zero or the bracket is below xtol + rtol·|x|;
    NumericsError, naming the interval, when f(xa) and f(xb) have the same
    sign, f is NaN, or scipy's default 100 iterations do not converge.
    """

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise NumericsError(
                f"Brent's method on [{xa!r}, {xb!r}]: the function is NaN at x={x!r}"
            )
        return fx

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise NumericsError(
            f"Brent's method on [{xa!r}, {xb!r}]: the function has the same sign "
            f"at both ends ({fpre!r}, {fcur!r})"
        )
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (
            math.copysign(1.0, fpre) != math.copysign(1.0, fcur)
        ):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                # C divides an underflowed den to ±inf or NaN, which the
                # test below refuses; Python raises instead
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
            limit = 3.0 * abs(sbis) - delta
            if 2.0 * abs(stry) < (abs(spre) if abs(spre) < limit else limit):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = value(xcur)
    raise NumericsError(
        f"Brent's method on [{xa!r}, {xb!r}] did not converge in 100 iterations; "
        f"last x={xcur!r}"
    )


@dataclass
class ShotTrajectory:
    """One DOP853 shot of the radial IVP with amplitude `a`, and the dense
    output its stepper wrote in t = log r.

    `first_zero` is the radius of the shot's first zero, None when u stayed
    positive in the window (the expected outcome at the threshold
    exponent).  `t` is the step points in log r, as scipy reports them: the
    log of the series radius, where the two-term origin series is accurate
    to 1e-10 and the shot starts, the ends of the accepted steps, and the
    zero in place of the last step's end; `r` is their radii.  Step s
    starts at `t[s]` in the state `y_old[s]` = (u, r u') and has length
    `h[s]` in t; `coef[:, s]` holds its seven interpolation coefficients
    (7 × 2, highest power first).
    """

    n_dim: int
    alpha: float
    p: float
    a: float
    first_zero: float | None
    t: np.ndarray
    h: np.ndarray
    y_old: np.ndarray
    coef: np.ndarray

    @property
    def r(self) -> np.ndarray:
        """The step points as radii, e^t."""
        return np.exp(self.t)

    def evaluate(self, r: np.ndarray) -> np.ndarray:
        """(u, u') at the points of the 1-D array r, shape (2, r.size): the
        origin series below the start radius e^t[0], the dense output at
        t = log r from there on, with u' = (r u')/r.  Only the points from
        e^t[0] on read the table: each picks its step as scipy's
        `OdeSolution` does (the lower step at a step point, the end steps
        beyond the ends) and runs the nested product of scipy's
        `Dop853DenseOutput`, from 0.0 as it does."""
        start = math.exp(self.t[0])
        below = r < start
        if not below.any():
            return self._read_table(r)
        y = np.empty((2, r.size))
        rs = r[below]
        y[0, below] = _series_u(rs, self.a, self.n_dim, self.alpha, self.p)
        y[1, below] = _series_du(rs, self.a, self.n_dim, self.alpha, self.p)
        y[:, ~below] = self._read_table(r[~below])
        return y

    def _read_table(self, r: np.ndarray) -> np.ndarray:
        """(u, u') at radii r from e^t[0] on, by the dense output."""
        t = np.log(r)
        seg = np.clip(np.searchsorted(self.t, t, side="left") - 1, 0, self.h.size - 1)
        x = (t - self.t[seg]) / self.h[seg]
        factors = (x, 1.0 - x)
        # gathered component-major, (7, 2, r.size), so each product runs
        # along the points
        coef = self.coef.transpose(0, 2, 1).take(seg, axis=2)
        y = coef[0] + 0.0
        y *= x
        for i in range(1, len(coef)):
            y += coef[i]
            y *= factors[i % 2]
        y += self.y_old.T.take(seg, axis=1)
        y[1] /= r
        return y


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


# The longest step of the shot in t, a factor e^0.25 = 1.28 in r.  Where the
# shot turns from the origin's growth to the tail's decay, DOP853's error
# estimate passes through zero, and uncapped the controller grew a step from
# such an estimate into one with 6e3 times the tolerated error (u off by
# 5.9e-7 at N = 6, α = 0.66, ε = 0.022), which finite differences of u' then
# show.  The cap costs about two steps per shot.
_MAX_STEP = 0.25
# The most accepted steps of one shot.  The most that any accepted input was
# seen to take is 3,283, at N = 50, α = 0, p = 1.083, a = 1e-4, tol = 1e-15,
# r_max = 1e3 (a grid over N 3-50, α 0-100, p from 1 to p_α, a 1e-4 to 1e4,
# tol 1e-15 to 0.5 and r_max 1 to inf); a shot of the default tol takes
# about 55.  A shot whose steps stay too short to move the state would
# otherwise run on to t_max, its table growing without bound.
_MAX_STEPS = 50_000


# The right-hand side (u_t, w_t) of the t-form at the time {t} and the state
# ({u}, {w}), as source over the field constants of `_radial_ivp`:
# damping = N-2, weight = 2+α and p.  The odd extension keeps the vector
# field smooth through u = 0.  It is the one definition: the callable `_rhs`
# and the shot kernel `_dop853_shot` below are both compiled from it.
_RHS = ("{w}", "-damping * {w} - exp(weight * {t}) * copysign(abs({u}) ** p, {u})")
# the log of the largest float, which `_check_amplitude` holds a**(2p-1) below
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _check_amplitude(a, p) -> None:
    """DomainError unless 0 < a and a**(2p-1) and its inverse are in the
    float range: the origin series forms that power for a > 1, and one near
    its inverse through the start radius for a < 1."""
    if not a > 0:
        raise DomainError(f"need a > 0, got {a!r}")
    if not (2.0 * p - 1.0) * abs(math.log(a)) < _LOG_FLOAT_MAX:
        raise DomainError(
            f"the shot amplitude a={a!r} puts a**(2p-1) out of the float range at "
            f"p={p!r}; the Dirichlet profile does not depend on the amplitude, so "
            "take one nearer 1"
        )


def _radial_ivp(n_dim, alpha, p, a, tol, r_max):
    """The radial IVP u'' + (N-1)/r u' + r^α u^p = 0, u(0)=a, u'(0)=0 as
    both integrators take it, in t = log r with the state (u, w = r u'):

        u_t = w,    w_t = -(N-2) w - e^((2+α)t) |u|^p sign(u),

    the right-hand side `_RHS`.  Returns (field, t0, y0, t_max, rtol, atol,
    max_step), with field = (N-2, 2+α, p, α) the constants of that source
    and the α an overflow names, t0 the log of the series radius, y0 the
    series values (u, r u') there, t_max = log r_max and max_step the
    longest step in t, `_MAX_STEP`.  `_rhs(*field)` is the callable
    right-hand side and `_dop853_shot(field, ...)` the shot.  The absolute
    tolerance is tol*1e-2 scaled by the amplitude, on both components.  A
    power of r in u becomes an exponential in t, and rescaling the amplitude
    translates the whole problem in t, start, tolerances and step cap
    included.  DomainError for an input outside the problem, an amplitude
    whose series powers leave the float range included."""
    p_alpha = threshold_exponent(n_dim, alpha)  # checks N and α
    if not 1.0 < p <= p_alpha:
        raise DomainError(f"need 1 < p <= p_alpha = {p_alpha}, got {p!r}")
    _check_amplitude(a, p)
    if not 0.0 < tol < 1.0:
        raise DomainError(f"need 0 < tol < 1, got {tol!r}")

    # series start: the relative truncation of the two-term series is the
    # square of a^(p-1) r^(2+α) / ((2+α)(N+α)); cap that at 1e-5 (error 1e-10)
    lead = (2.0 + alpha) * (n_dim + alpha) / a ** (p - 1.0)
    r0 = (1e-5 * lead) ** (1.0 / (2.0 + alpha))
    if not r_max > r0:
        raise DomainError(f"need r_max > series radius {r0:.6g}, got {r_max!r}")
    try:
        y0 = (
            float(_series_u(r0, a, n_dim, alpha, p)),
            float(r0 * _series_du(r0, a, n_dim, alpha, p)),
        )
    except OverflowError:  # r0**(4+2α), at α in the hundreds
        raise DomainError(
            f"the origin series overflows at its radius {r0:.6g} with a={a!r}; the "
            "Dirichlet profile does not depend on the amplitude, so take one nearer 1"
        ) from None
    damping, weight = n_dim - 2.0, 2.0 + alpha
    field = (damping, weight, p, alpha)
    return field, math.log(r0), y0, math.log(r_max), tol, tol * 1e-2 * a, _MAX_STEP


def _overflow(t, alpha) -> NumericsError:
    return NumericsError(
        f"radial integration overflows at r={math.exp(t)!r} with alpha={alpha!r}: "
        "r**(2+alpha) * |u|**p exceeds the float range before the shot's first zero"
    )


def _exhausted(t, alpha) -> NumericsError:
    return NumericsError(
        f"radial integration took {_MAX_STEPS} steps and reached only r={math.exp(t)!r} "
        f"with alpha={alpha!r}: its steps are too short to reach r_max"
    )


def _zero(t, t_new, h, u, rows) -> float:
    """The zero in [t, t_new] of u on one step's dense output, by `_brentq`.
    A function of its own, so that the kernel's lambda-free body keeps t, h
    and u as fast locals rather than closure cells."""
    return _brentq(lambda x: _interpolant_u(x, t, h, u, rows), t, t_new,
                   _ZERO_TOL, _ZERO_TOL)


# The shot is generated as straight-line source from the tableau and `_RHS`
# and compiled once at import, the way `dataclasses` builds `__init__`: each
# coefficient is a literal, each stage a local and each right-hand side
# inline, so a step makes no Python call.  Each sum runs left to right from
# 0.0, `0.0 + c·k_j + …`, so its bits are those of a loop over the sparse
# row of the tableau.
def _sum(row, k: str) -> str:
    return "(0.0" + "".join(f" + {c!r} * {k}{j}" for j, c in row) + ")"


def _rhs_at(t: str, u: str, w: str) -> str:
    return ", ".join(part.format(t=t, u=u, w=w) for part in _RHS)


def _stage(s: int) -> list[str]:
    # the stage time is the local tau, which an overflow names
    return [
        f"tau = t + {_C[s]!r} * h",
        f"us = u + {_sum(_A[s], 'ku')} * h",
        f"ws = w + {_sum(_A[s], 'kw')} * h",
        f"ku{s}, kw{s} = {_rhs_at('tau', 'us', 'ws')}",
    ]


def _error(row) -> str:
    return f"({_sum(row, 'ku')} / scale_u) ** 2 + ({_sum(row, 'kw')} / scale_w) ** 2"


def _indent(depth: int, lines) -> list[str]:
    return ["    " * depth + line for line in lines]


def _compile(name: str, args: str, lines):
    source = f"def {name}({args}):\n" + "".join(_indent(1, [f"{line}\n" for line in lines]))
    namespace = {}
    exec(compile(source, f"<radial.{name}>", "exec"), globals(), namespace)
    return namespace[name]


# rhs(t, u, w) = (u_t, w_t) for the field of `_radial_ivp`: the right-hand
# side that the initial step and `rk45_first_zero` call
_rhs = _compile("_rhs", "damping, weight, p, alpha", [
    "exp, copysign = math.exp, math.copysign",
    "def rhs(t, u, w):",
    "    try:",
    f"        return {_rhs_at('t', 'u', 'w')}",
    "    except OverflowError:",
    "        raise _overflow(t, alpha) from None",
    "return rhs",
])

_ROWS = range(len(_D) + 3)  # the seven rows of a step's dense output
# _dop853_shot(field, t, y0, t_max, rtol, atol, max_step) integrates the
# t-form of `_radial_ivp` with the field constants `field` from (t, y0) by
# scipy's DOP853 algorithm on Python floats, until t_max or the first
# downward zero of u.  The step controller, error norm, dense output and
# zero location are scipy's, so a shot takes the same steps as
# `solve_ivp(method="DOP853")` on `_rhs(*field)` up to roundoff.  Each
# accepted step appends its row of the dense-output table.  No step is
# longer than `max_step`, as with `solve_ivp`'s option of that name.  The
# zero is the first step with u ≥ 0 at its start and u ≤ 0 at its end,
# polished by `_brentq` on that step's interpolant.  A shot that would take
# more than `_MAX_STEPS` accepted steps raises NumericsError naming the
# radius reached and α.  Returns the table's
# arrays (ts, h, y_old, coef), as `ShotTrajectory` holds them, and
# the zero (None without one).  A right-hand side that overflows raises
# NumericsError naming the stage's radius and α.  A non-finite one makes
# every error norm NaN, so each retry shrinks the step by MIN_FACTOR;
# NumericsError once the step is below 10 ulp(t), or is NaN.  Where the
# controller takes max(a, b) or min(a, b) it is written `b if b > a else a`
# or `b if b < a else a`, which is the builtin's result, NaN included,
# without its call.
_dop853_shot = _compile("_dop853_shot", "field, t, y0, t_max, rtol, atol, max_step", [
    "damping, weight, p, alpha = field",
    "exp, copysign, sqrt, ulp = math.exp, math.copysign, math.sqrt, math.ulp",
    "fun = _rhs(*field)",
    "u, w = y0",
    "ku0, kw0 = fun(t, u, w)",
    "h_abs = _initial_step(fun, t, u, w, ku0, kw0, t_max - t, rtol, atol, max_step)",
    "ts, hs, y_old, coef = [t], [], [], []",
    "first_zero = None",
    "try:",
    "    while t < t_max:",
    f"        if len(hs) == {_MAX_STEPS!r}:",
    "            raise _exhausted(t, alpha)",
    "        min_step = 10.0 * ulp(t)",
    "        h_abs = max_step if h_abs > max_step else (min_step if min_step > h_abs else h_abs)",
    "        abs_u, abs_w = abs(u), abs(w)",
    "        rejected = False",
    "        while True:",
    # also true for a NaN step, so a bad right-hand side ends the loop
    "            if not h_abs >= min_step:",
    "                raise NumericsError(",
    "                    'radial integration failed: required step size is less '",
    "                    f'than spacing between numbers at t={t!r}'",
    "                )",
    "            t_new = t + h_abs",
    "            t_new = t_max if t_max < t_new else t_new",
    "            h_abs = h = t_new - t",
    *_indent(3, [line for s in range(1, _N_STAGES) for line in _stage(s)]),
    f"            u_new = u + h * {_sum(_B, 'ku')}",
    f"            w_new = w + h * {_sum(_B, 'kw')}",
    "            tau = t + h",
    f"            ku{_N_STAGES}, kw{_N_STAGES} = {_rhs_at('tau', 'u_new', 'w_new')}",
    "            abs_new = abs(u_new)",
    "            scale_u = atol + (abs_new if abs_new > abs_u else abs_u) * rtol",
    "            abs_new = abs(w_new)",
    "            scale_w = atol + (abs_new if abs_new > abs_w else abs_w) * rtol",
    f"            err5 = {_error(_E5)}",
    f"            err3 = {_error(_E3)}",
    # a denominator that underflows to 0 leaves an error below the float range
    "            denom = (err5 + 0.01 * err3) * 2.0",
    "            if denom == 0.0:",
    "                error_norm = 0.0",
    "            else:",
    "                error_norm = h * err5 / sqrt(denom)",
    "            if error_norm < 1.0:",
    "                if error_norm == 0.0:",
    f"                    factor = {_MAX_FACTOR!r}",
    "                else:",
    "                    factor = "
    f"min({_MAX_FACTOR!r}, {_SAFETY!r} * error_norm ** {_EXPONENT!r})",
    "                h_abs *= min(1.0, factor) if rejected else factor",
    "                break",
    f"            h_abs *= max({_MIN_FACTOR!r}, {_SAFETY!r} * error_norm ** {_EXPONENT!r})",
    "            rejected = True",
    # the accepted step's extra stages and dense output, highest power first
    *_indent(2, [line for s in range(_N_STAGES + 1, len(_A)) for line in _stage(s)]),
    "        delta_u, delta_w = u_new - u, w_new - w",
    *(f"        c{i}u, c{i}w = h * {_sum(row, 'ku')}, h * {_sum(row, 'kw')}"
      for i, row in enumerate(reversed(_D))),
    f"        c4u = 2.0 * delta_u - h * (ku{_N_STAGES} + ku0)",
    f"        c4w = 2.0 * delta_w - h * (kw{_N_STAGES} + kw0)",
    "        c5u, c5w = h * ku0 - delta_u, h * kw0 - delta_w",
    "        c6u, c6w = delta_u, delta_w",
    "        hs.append(h)",
    "        y_old += (u, w)",
    "        coef += (" + ", ".join(f"c{i}u, c{i}w" for i in _ROWS) + ")",
    "        if u >= 0.0 and u_new <= 0.0:",
    "            first_zero = _zero(t, t_new, h, u, ("
    + ", ".join(f"(c{i}u, c{i}w)" for i in _ROWS) + "))",
    "            ts.append(first_zero)",
    "            break",
    "        ts.append(t_new)",
    f"        t, u, w, ku0, kw0 = t_new, u_new, w_new, ku{_N_STAGES}, kw{_N_STAGES}",
    "except OverflowError:",
    "    raise _overflow(tau, alpha) from None",
    "table = (",
    "    np.array(ts), np.array(hs), np.array(y_old).reshape(-1, 2),",
    f"    np.ascontiguousarray(np.array(coef).reshape(-1, {len(_ROWS)}, 2).transpose(1, 0, 2)),",
    ")",
    "return table, first_zero",
])


def integrate_radial_ivp(
    n_dim: int,
    alpha: float,
    p: float,
    a: float = 1.0,
    tol: float = 1e-10,
    r_max: float = 1e3,
) -> ShotTrajectory:
    """Shoot u'' + (N-1)/r u' + r^α u^p = 0 from u(0)=a, u'(0)=0 to r_max
    with the module's DOP853 stepper, on numpy alone.

    The shot runs in t = log r on the state (u, r u') of `_radial_ivp`,
    where u decays like an exponential rather than a power of r, so it
    takes fewer steps than the same stepper in r.  `tol` is the relative
    tolerance, in (0, 1); the absolute tolerance is tol*1e-2 scaled by the
    amplitude.  The first downward zero crossing terminates the integration
    and is polished in t on the dense output; the shot's `first_zero` is
    its radius R = e^(t_zero).  A right-hand side that overflows raises
    NumericsError naming r and α: the unit shot's zero moves out with α,
    and at N = 3, α = 100 the shot meets r^(2+α) above the float range,
    near r = 1.05e3, before it.
    """
    field, t0, y0, t_max, rtol, atol, max_step = _radial_ivp(n_dim, alpha, p, a, tol, r_max)
    table, t_zero = _dop853_shot(field, t0, y0, t_max, rtol, atol, max_step)
    first_zero = None if t_zero is None else math.exp(t_zero)
    return ShotTrajectory(n_dim, alpha, p, a, first_zero, *table)


def rk45_first_zero(n_dim: int, alpha: float, p: float) -> float | None:
    """The first zero of the unit shot (a = 1, tol = 1e-10, r_max = 1e3) on
    scipy's RK45 `solve_ivp`, imported here, or None without one: the
    independent check of `integrate_radial_ivp`'s zero."""
    from scipy.integrate import solve_ivp

    field, t0, y0, t_max, rtol, atol, max_step = _radial_ivp(n_dim, alpha, p, 1.0, 1e-10, 1e3)
    rhs = _rhs(*field)

    def hit_zero(t, y):
        return y[0]

    hit_zero.terminal = True
    hit_zero.direction = -1
    sol = solve_ivp(lambda t, y: rhs(t, float(y[0]), float(y[1])), (t0, t_max), y0,
                    method="RK45", rtol=rtol, atol=atol, max_step=max_step,
                    events=hit_zero)
    if sol.status == -1:
        raise NumericsError(f"radial integration failed: {sol.message}")
    return math.exp(sol.t_events[0][0]) if sol.t_events[0].size else None


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
    u(r) = R^β u_shot(R r) and u'(r) at the radii of a 1-D array in [0, 1]
    from the shot's one (u, u') evaluator.  Samples on the standard grid are
    `evaluate(default_profile_grid())`.
    """

    params: ProblemParams
    u0: float
    first_zero_raw: float
    integrator_tol: float
    _shot: ShotTrajectory

    def evaluate(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(u(r), u'(r)) at the points of the 1-D array r.  DomainError for
        an r of another shape, or any point outside [0, 1], NaN included."""
        r = np.asarray(r, float)
        if r.ndim != 1:
            raise DomainError(f"profile radii must be a 1-D array, got shape {r.shape}")
        if not np.all((r >= 0.0) & (r <= 1.0)):
            raise DomainError("profile radii must lie in [0, 1]")
        beta = (2.0 + self.params.alpha) / (self.params.p - 1.0)
        scale = self.first_zero_raw**beta
        u, du = self._shot.evaluate(r * self.first_zero_raw)
        return scale * u, scale * self.first_zero_raw * du


def solve_dirichlet_ball(
    params: ProblemParams,
    amplitude: float = 1.0,
    tol: float = 1e-10,
) -> RadialProfile:
    """Radial Dirichlet solution on the unit ball via one DOP853 shot plus
    rescaling; the profile evaluates the shot, it stores no samples.

    The shot's window is 512·max(1e3, 5·R), where R = u0^((p-1)/(2+α)) is
    where the sup-norm asymptotics u(0) ~ sqrt(M/ε) put the unit shot's
    zero.  The window only caps the first and last steps, so a wide one
    costs nothing; a shot with no zero inside it raises SupercriticalError.
    The profile does not depend on the shot amplitude; DomainError for one
    that is not positive or whose origin series leaves the float range
    (a**(2p-1), e.g. a = 1e60 or 1e-60 at p = 6.9).
    """
    p = params.p
    _check_amplitude(amplitude, p)
    alpha = params.alpha
    beta = (2.0 + alpha) / (p - 1.0)

    u0_est = math.sqrt(sup_norm_constant(params.n_dim, alpha) / params.eps)
    r_max = 512.0 * max(1e3, 5.0 * (u0_est / amplitude) ** (1.0 / beta))
    shot = integrate_radial_ivp(params.n_dim, alpha, p, a=amplitude, tol=tol, r_max=r_max)
    big_r = shot.first_zero
    if big_r is None:
        raise SupercriticalError(
            f"the shot stayed positive to r_max={r_max:g}, 512 times the window "
            "that the sup-norm asymptotics give"
        )
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
    u, du = profile.evaluate(s)
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
    return float(np.min(bound - profile.evaluate(grid)[0]))
