"""Bifurcation values α_k^ε and Morse indices of the radial solution.

A nonradial branch can only appear where the first eigenvalue Λ₁^ε(α) of the
r^-2-weighted linearization crosses a sphere eigenvalue: Λ₁^ε(α_k^ε) = -σ_k.
This module finds those crossings and counts the Morse index on either side
(full space and O(N-1)-invariant subspace).

The crossings come from an exact boundary-flux identity.  Differentiating the
radial equation shows that z = r^(-α/2) u' solves the eigen equation with the
closed-form limit value Λ₁(α) = -(α+2)(2N+α-2)/4, for every ε; z fails only
the Dirichlet condition, since z(1) = u'(1).  Green's identity against the
first Dirichlet eigenfunction φ then gives the gap

    g(α) = Λ₁^ε(α) - Λ₁(α) = -φ'(1) u'(1) / ∫₀¹ r^(N-3) φ z dr,

and g ≥ 0 by Sturm comparison (Pryce, Numerical Solution of Sturm-Liouville
Problems, 1993).  With δ = α - 2(k-1) and A = N + 2k - 2 the crossing
condition Λ₁(α) + g(α) = -σ_k is the fixed point δ = 4g/(A + √(A² + 4g)),
which secant steps reach in two to four g-evaluations.  g is a quotient of
small quantities, not a difference of eigenvalues, so it carries none of the
pencil's Richardson bias: at N = 3 it resolves shifts δ near 1e-15, where the
pencil's Λ₁^ε is biased by about 1e-9.  The 32-point scan of Λ₁^ε plus
Brent's method, on the same samples, decides what the identity's
certificates cannot settle; `find_bifurcation_alpha` reports either root.

One α-evaluation is one `flux_gap`: a Dirichlet shoot; one evaluation of
(u, u') on the fine grid of the N_POINTS/2·N_POINTS pair with r = 1 appended,
which gives u'(1) and the q and guess z of the pencils of
`spectral.pencil_pair`, z being also the identity's z; and the lowest
eigenpair of each pencil by shifted inverse iteration at Λ₁(α), started from
that z.  Profiles and `flux_gap` results are memoized in a SolverCache keyed
by the exact parameters: the one passed as `cache=`, or else a fresh one that
lives only as long as the call.  The grid pairs of the last two (N, N_POINTS) are kept
in the process (`SolverCache.grids`).
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import spectral
from .closedform import (
    ProblemParams,
    bifurcation_alpha,
    lambda1_closed,
    sphere_eigen,
)
from .errors import BracketError, DegeneratePointError, DomainError
from .radial import RadialProfile, _brentq, solve_dirichlet_ball
from .spectral import (
    RadialGrid,
    SLProblem,
    assemble_pencil,
    solve_eigen,
)

log = logging.getLogger("henonball")

__all__ = [
    "SolverCache",
    "BifurcationPoint",
    "MorseIndexReport",
    "lambda_values",
    "flux_gap",
    "find_bifurcation_alpha",
    "morse_index",
]

# coarse grid of every two-grid eigen solve (the fine one has twice as many)
N_POINTS = 1500
# samples of the fallback scan
SCAN_POINTS = 32
# g-evaluations the fixed-point search may spend before it falls back
SEARCH_EVALUATIONS = 8


@functools.lru_cache(maxsize=2)
def _unit_ball_grids(n_dim: int, n_points: int) -> tuple[RadialGrid, RadialGrid]:
    """The (coarse, fine) grids of `pencil_pair(problem, n_points)` on the unit ball."""
    fine = RadialGrid.log_uniform(n_dim, 1.0, 2 * n_points)
    return fine.coarsen(), fine


class SolverCache:
    """Memo of radial profiles and `flux_gap` results, keyed by (N, α, ε),
    and of limit spectra (`spectral.limit_eigen`), keyed by (N, α).  Every
    cache shares the unit ball's last two grid pairs (`grids`), enough for
    searches at N = 3 and 4."""

    def __init__(self):
        self._profiles: dict = {}
        self._gaps: dict = {}
        self._limits: dict = {}

    def grids(self, n_dim: int) -> tuple[RadialGrid, RadialGrid]:
        """The (coarse, fine) unit-ball `RadialGrid`s of N_POINTS and
        2·N_POINTS nodes in dimension N, the grids of `pencil_pair(problem,
        N_POINTS)`; the coarse one is the fine one's `coarsen()`."""
        return _unit_ball_grids(n_dim, N_POINTS)

    def profile(self, n_dim: int, alpha: float, eps: float) -> RadialProfile:
        key = (n_dim, alpha, eps)
        if key not in self._profiles:
            self._profiles[key] = solve_dirichlet_ball(ProblemParams(n_dim, alpha, eps))
        return self._profiles[key]

    def limit(self, n_dim: int, alpha: float) -> spectral.LimitEigenResult:
        key = (n_dim, alpha)
        if key not in self._limits:
            # looked up on the module at each call, so a wrapper set there
            # (a tracer, a test) sees every solve
            self._limits[key] = spectral.limit_eigen(n_dim, alpha)
        return self._limits[key]


def lambda_values(
    n_dim: int,
    eps: float,
    alpha: float,
    count: int = 1,
    cache: SolverCache | None = None,
) -> tuple[float, ...]:
    """Lowest `count` eigenvalues Λ_j^ε(α), Richardson-extrapolated over the
    N_POINTS/2·N_POINTS pair.  The profile comes from `cache`; the eigen
    solve runs on every call, on grids of its own, and reads the profile
    once, on the fine grid (`spectral.pencil_pair`), for q and z."""
    profile = (cache or SolverCache()).profile(n_dim, alpha, eps)
    res = solve_eigen(SLProblem.from_profile(profile), count=count,
                      n_points=N_POINTS, with_vectors=False)
    return tuple(r.extrapolated for r in res)


def _slope_at_one(x: np.ndarray, y: np.ndarray) -> float:
    """Derivative at r = 1 of the polynomial through the points (x_i, y_i)
    and (1, 0), in Lagrange form, on Python floats: at four nodes numpy's
    per-call cost would outweigh the arithmetic."""
    xs = x.tolist()
    slope = 0.0
    for i, (xi, yi) in enumerate(zip(xs, y.tolist())):
        num = den = 1.0
        for j, xj in enumerate(xs):
            if j != i:
                num *= 1.0 - xj
                den *= xi - xj
        slope += yi * num / (den * (xi - 1.0))
    return slope


def flux_gap(
    n_dim: int,
    eps: float,
    alpha: float,
    cache: SolverCache | None = None,
) -> tuple[float, float]:
    """(g, Λ₁^ε) at α: the boundary-flux gap g = Λ₁^ε(α) - Λ₁(α) and the
    pencil's own first eigenvalue, each Richardson-extrapolated as
    (4·fine - coarse)/3 over the N_POINTS/2·N_POINTS grid pair.  Λ₁^ε equals
    `lambda_values(n_dim, eps, alpha, 1)[0]` to the last bit: both come from
    `Pencil.pair(1)` on the same pencils.

    On each grid φ is the pencil's first eigenvector with φ(0) = φ(1) = 0
    appended, φ'(1) is the five-point one-sided derivative through the last
    four nodes and (1, 0), whose error is fourth order, so Richardson's
    (4·fine - coarse)/3 cancels all of the leading error of g, and
    ∫₀¹ r^(N-3) φ z dr is the pencil's own weight matrix applied to φ z,
    which is the trapezoid rule on [0, grid, 1].  The profile is read once,
    (u, u') on the fine grid with r = 1 appended: u'(1) is the last entry,
    and the pair is built from the rest (`spectral.pencil_pair`), q and
    z = r^(-α/2) u' on the fine nodes, the coarse pencil taking every other
    one.  The z of the overlap is each pencil's guess for `pair(1)`,
    `shifts[0]`.  The pencils are assembled on `cache.grids(n_dim)`, the
    grids of `spectral.pencil_pair`.  The result is memoized in `cache`."""
    cache = cache or SolverCache()
    key = (n_dim, alpha, eps)
    if key not in cache._gaps:
        profile = cache.profile(n_dim, alpha, eps)
        grids = cache.grids(n_dim)
        u, du = profile.evaluate(np.append(grids[1].r, 1.0))
        u, du, du1 = u[:-1], du[:-1], du[-1]
        fine_u = SimpleNamespace(params=profile.params, evaluate=lambda r: (u, du))
        pencils = spectral._pencils_on(SLProblem.from_profile(fine_u), grids)
        values = []
        for pencil in pencils:
            lam, phi = pencil.pair(1)
            overlap = np.dot(pencil.b_diag * phi, pencil.shifts[0][1])
            # φ'(1) from the quartic through the last four nodes and (1, 0)
            dphi1 = _slope_at_one(pencil.grid[-4:], phi[-4:])
            values.append((float(-dphi1 * du1 / overlap), lam))
        (g_c, lam_c), (g_f, lam_f) = values
        cache._gaps[key] = (4.0 * g_f - g_c) / 3.0, (4.0 * lam_f - lam_c) / 3.0
    return cache._gaps[key]


@dataclass(frozen=True)
class BifurcationPoint:
    """A certified root α_k^ε of Λ₁^ε(α) = -σ_k.

    `delta` is the shift α_k^ε - 2(k-1) as computed; it keeps the digits that
    `alpha_k_eps` rounds away near 2(k-1).  `bracket` is the interval the root
    was certified in (the search bracket, or on the scan fallback the
    sign-change interval); the pencil's Λ₁^ε + σ_k is positive at its lower
    end and negative at its upper end.  `residual` is the pencil's
    |Λ₁^ε + σ_k| at the returned point.  `unique` is False when several roots
    were found (the returned root is the one closest to the limit value
    2(k-1); the warning lists the others), and `exclusion_ok` is False when
    Λ₁^ε also crosses another -σ_l inside the bracket.  `evaluations` counts
    the distinct α-values at which the search read `flux_gap`."""

    alpha_k_eps: float
    delta: float
    residual: float
    bracket: tuple[float, float]
    unique: bool
    exclusion_ok: bool
    evaluations: int


class _Fallback(Exception):
    """The identity search cannot certify its root; the message says why."""


class _Search(dict):
    """One root search: N, ε, k (checked by `sphere_eigen`, kept as an int),
    its constants σ_k, α_k = 2(k-1) and A = N + 2k - 2, the bracket (default
    α_k ± 0.9), and (g, Λ₁^ε) by α, read from `flux_gap` on first use, so
    len() counts the distinct α-values the search evaluated."""

    def __init__(self, n_dim: int, eps: float, k: int, bracket: tuple | None, cache: SolverCache):
        super().__init__()
        self.sigma_k, _ = sphere_eigen(n_dim, k)
        self.n_dim, self.eps, self.k, self.cache = n_dim, eps, int(k), cache
        self.alpha_k = bifurcation_alpha(self.k)
        self.a_lin = n_dim + self.alpha_k
        if bracket is None:
            bracket = (self.alpha_k - 0.9, self.alpha_k + 0.9)
        self.bracket = bracket
        self.lo, self.hi = bracket

    def __missing__(self, alpha: float) -> tuple[float, float]:
        self[alpha] = flux_gap(self.n_dim, self.eps, alpha, self.cache)
        return self[alpha]

    def f(self, alpha: float) -> float:
        """The pencil's Λ₁^ε(α) + σ_k, whose roots the search reports."""
        return self[alpha][1] + self.sigma_k

    def neighbours(self):
        """(l, σ_l) for l = 1 … k+2 but k: the crossings the exclusion rules out."""
        for l in range(1, self.k + 3):
            if l != self.k:
                yield l, sphere_eigen(self.n_dim, l)[0]


def find_bifurcation_alpha(
    n_dim: int,
    eps: float,
    k: int,
    bracket: tuple[float, float] | None = None,
    cache: SolverCache | None = None,
) -> BifurcationPoint:
    """Locate α_k^ε in the bracket (default 2(k-1) ± 0.9).

    Search.  `flux_gap` is evaluated at both bracket ends, where the pencil's
    f(α) = Λ₁^ε(α) + σ_k must satisfy f(lo) > 0 > f(hi) (BracketError
    otherwise).  From δ = 0 the fixed point δ = 4g/(A + √(A² + 4g)), with
    g = g(2(k-1) + δ) and A = N + 2k - 2, is iterated with secant steps until
    a step is at most 1e-12·|δ|.  The last evaluated point is returned, and
    `residual` is the pencil's |f| there.

    Certificates.  g ≥ 0 is exact, so no root lies below 2(k-1).  With G the
    largest g over the ends and the iterates, every root lies in the window
    [2(k-1), 2(k-1) + 4G/(A + √(A² + 4G))].  `unique` needs that window
    inside the bracket, and the chord slopes of g between evaluated points
    of [2(k-1), hi] at least 1e-6 apart below A/2, the closed-form curve's
    slope at 2(k-1), so that f decreases on the window.  Exclusion, for each
    l ≠ k up to k+2: for l > k, Λ₁(hi) > -σ_l rules out a crossing with
    -σ_l exactly; for l < k, Λ₁(lo) + G < -σ_l rules it out.  A pencil value
    past -σ_l at the near end (Λ₁^ε(hi) < -σ_l for l > k, Λ₁^ε(lo) > -σ_l for
    l < k) proves a crossing: `exclusion_ok` is False and a warning on the
    "henonball" logger names it.  G is a maximum over samples, so, like the
    scan's sign counts, the certificates are sampled evidence.

    Fallback.  When the search leaves the bracket, has not converged after
    8 g-evaluations, or a certificate can be neither met nor refuted, a
    WARNING on the "henonball" logger gives the reason and the scan decides:
    32 samples of f locate its sign changes, Brent's method pins each root to
    1e-10 + 8.9e-16·|α|, and the same samples decide `unique` and
    `exclusion_ok`, whose warnings (the other roots, each crossed -σ_l) the
    search logs.  The scan reads f from the search's samples, so no α is
    evaluated twice; `flux_gap` memoizes across searches on one `cache`.

    k may be an integral float, as in `sphere_eigen`.  A bracket end
    lo ≤ ((N-2)ε - 4)/2, where ε ≥ p_lo - 1, is a DomainError."""
    if k < 2:
        raise DomainError("bifurcation search needs k >= 2: k = 1 is not supported yet")
    search = _Search(n_dim, eps, k, bracket, cache or SolverCache())
    lo, hi = search.lo, search.hi
    if not 0.0 < lo < hi < np.inf:
        raise DomainError(f"bracket must satisfy 0 < lo < hi < inf, got {search.bracket!r}")
    edge = ((n_dim - 2) * eps - 4.0) / 2.0  # the alpha where eps = p_alpha - 1
    if lo <= edge:
        raise DomainError(f"bracket end lo={lo!r} is inadmissible at eps={eps!r}: "
                          f"need alpha > ((N-2)eps - 4)/2 = {edge:g}")
    where = f"N={n_dim} k={search.k} eps={eps!r} bracket={search.bracket!r}"
    f_lo, f_hi = search.f(lo), search.f(hi)
    if not f_lo > 0.0 > f_hi:
        raise BracketError(
            f"bracket endpoints do not straddle -sigma_{search.k}: "
            f"f({lo})={f_lo:.4g}, f({hi})={f_hi:.4g} (eps too large?)"
        )
    try:
        delta = _fixed_point(search)
        alpha, others, interval = search.alpha_k + delta, [], (float(lo), float(hi))
        crossed = _certify(search)
    except _Fallback as reason:
        log.warning("%s: flux-identity search falls back to the scan: %s", where, reason)
        alpha, others, interval, crossed = _scan_search(search)
        delta = alpha - search.alpha_k
    if others:
        log.warning("%s: not unique, lambda1 = -sigma_%d also at alpha=%s (reporting %r)",
                    where, search.k, others, alpha)
    if crossed:
        log.warning("%s: exclusion fails, lambda1 also crosses -%s", where, ", -".join(crossed))
    return BifurcationPoint(
        alpha_k_eps=alpha,
        delta=delta,
        residual=abs(search.f(alpha)),
        bracket=interval,
        unique=not others,
        exclusion_ok=not crossed,
        evaluations=len(search),
    )


def _shift(a_lin: float, g: float) -> float:
    """δ solving Λ₁(2(k-1) + δ) + g = -σ_k, i.e. δ² + 2Aδ = 4g, in the form
    without cancellation (A = N + 2k - 2)."""
    return 4.0 * g / (a_lin + math.sqrt(a_lin * a_lin + 4.0 * g))


def _fixed_point(search: _Search) -> float:
    """δ of the identity's root by secant steps on h(δ) = δ - shift(g)."""
    d, d_prev, h_prev = 0.0, None, None
    for _ in range(SEARCH_EVALUATIONS):
        alpha = search.alpha_k + d
        if not search.lo <= alpha <= search.hi:
            raise _Fallback(f"the search left the bracket at alpha={alpha!r}")
        h = d - _shift(search.a_lin, search[alpha][0])
        if h_prev is None or h == h_prev:
            step = -h  # a plain fixed-point step
        else:
            step = -h * (d - d_prev) / (h - h_prev)
        if abs(step) <= 1e-12 * abs(d):
            return d
        d_prev, h_prev, d = d, h, d + step
    raise _Fallback(f"no convergence after {SEARCH_EVALUATIONS} g-evaluations")


def _certify(search: _Search) -> list[str]:
    """The -σ_l the pencil provably crosses in the bracket; _Fallback when
    the samples can neither certify uniqueness nor settle an exclusion."""
    n_dim, lo, hi, a_lin = search.n_dim, search.lo, search.hi, search.a_lin
    big_g = max(g for g, _ in search.values())
    window = search.alpha_k + _shift(a_lin, big_g)
    if not window < hi:
        raise _Fallback(f"the root window up to alpha={window!r} reaches the bracket end")
    upper = sorted((a, g) for a, (g, _) in search.items() if a >= search.alpha_k)
    for (a, ga), (b, gb) in zip(upper, upper[1:]):
        if b - a >= 1e-6 and abs(gb - ga) / (b - a) >= a_lin / 2.0:
            raise _Fallback(f"g changes faster than A/2 = {a_lin / 2.0:g} on [{a!r}, {b!r}]")
    crossed = []
    for l, sigma_l in search.neighbours():
        if l > search.k:
            end, excluded = hi, lambda1_closed(n_dim, hi) > -sigma_l
            proven = search[hi][1] < -sigma_l
        else:
            end, excluded = lo, lambda1_closed(n_dim, lo) + big_g < -sigma_l
            proven = search[lo][1] > -sigma_l
        if proven:
            crossed.append(f"sigma_{l}={sigma_l:g}")
        elif not excluded:
            raise _Fallback(f"a crossing with -sigma_{l} near alpha={end!r} is not settled")
    return crossed


def _scan_search(search: _Search) -> tuple[float, list[float], tuple[float, float], list[str]]:
    """The scan reference: sign changes of f = Λ₁^ε + σ_k, read from the
    search, on SCAN_POINTS points, each refined by Brent's method, the port
    of scipy's `brentq` in `radial._brentq` (see `find_bifurcation_alpha`,
    which has checked f(lo) > 0 > f(hi)); a refinement that fails raises
    NumericsError.  Returns the root nearest 2(k-1), the other roots nearest
    first, the root's sign-change interval, and the -σ_l (l ≠ k up to k+2)
    that the samples cross; it logs nothing."""
    alphas = np.linspace(search.lo, search.hi, SCAN_POINTS)
    fs = np.array([search.f(a) for a in alphas])
    change = np.nonzero(np.sign(fs[:-1]) * np.sign(fs[1:]) < 0)[0]
    if change.size == 0:
        raise BracketError(f"no sign change of lambda1 + sigma_{search.k} "
                           f"inside {(search.lo, search.hi)!r}")
    intervals = [(float(alphas[i]), float(alphas[i + 1])) for i in change]
    roots = [_brentq(search.f, a, b, 1e-10, 8.9e-16) for a, b in intervals]
    best, *others = np.argsort([abs(r - search.alpha_k) for r in roots]).tolist()
    # crossings with neighboring sphere eigenvalues inside the bracket would
    # break the isolation the jump argument needs
    crossed = []
    for l, sigma_l in search.neighbours():
        fl = fs + (sigma_l - search.sigma_k)
        if np.any(np.sign(fl[:-1]) * np.sign(fl[1:]) < 0):
            crossed.append(f"sigma_{l}={sigma_l:g}")
    return roots[best], [roots[i] for i in others], intervals[best], crossed


@dataclass(frozen=True)
class MorseIndexReport:
    """Negative-direction counts of the linearization at one (α, ε), all
    from one pencil (see `morse_index`).

    radial_count is n_0 = #{j : Λ_j^ε(α) < 0}, the purely radial negative
    directions.  channel_counts lists (k, n_k) for k ≥ 1, where
    Λ_j^ε(α) < -σ_k exactly for j ≤ n_k.  index_full = Σ_{k≥0} N_k n_k
    weights each channel k by the dimension N_k of its spherical-harmonic
    eigenspace (N_0 = 1); index_invariant = Σ_{k≥0} n_k counts each channel
    once (the O(N-1)-invariant slice is one-dimensional)."""

    radial_count: int
    channel_counts: tuple[tuple[int, int], ...]  # (k, #negative j's)
    index_full: int
    index_invariant: int


def morse_index(
    n_dim: int,
    eps: float,
    alpha: float,
    cache: SolverCache | None = None,
) -> MorseIndexReport:
    """Morse index of the radial solution at (α, ε), both weightings.

    One pencil, one window.  The index is Σ_{k≥0} N_k·n_k with
    n_k = #{j : Λ_j^ε(α) < -σ_k}, σ_0 = 0 and N_0 = 1, so the radial count
    is channel k = 0 of the same r^-2-weighted pencil: by Sylvester's law
    the positive weight does not change the inertia at -σ_k.  Every count
    is an inertia count of the fine pencil (the 2·N_POINTS grid of
    `lambda_values`, `cache.grids(n_dim)[1]`, read from the profile
    directly), exact for the discretized operator; no eigenvalue is
    solved.  For k = 0, 1, 2, ...
    n_k is the fine pencil's count at -σ_k - 1e-4, and the loop stops at the
    first k with n_k = 0.  When the counts at -σ_k ∓ 1e-4 differ, some
    eigenvalue of the fine pencil lies within 1e-4 of -σ_k, and that raises
    DegeneratePointError; for k = 0 the message names the radial
    linearization.

    Degeneracy is judged on the fine pencil, not on the extrapolated Λ₁^ε
    that `find_bifurcation_alpha` roots, and the fine pencil's own crossing
    can sit about 3e-5 in α from `alpha_k_eps`.  At (N, ε, k) = (4, 0.2, 3)
    its Λ₁ + σ_3 at the reported root is about -1.1e-4, so a call at that
    root returns the fine pencil's counts and does not raise."""
    degeneracy_tol = 1e-4
    cache = cache or SolverCache()
    fine = assemble_pencil(SLProblem.from_profile(cache.profile(n_dim, alpha, eps)),
                           cache.grids(n_dim)[1])
    counts = []  # (k, n_k, N_k)
    for k in itertools.count():
        sigma_k, mult = sphere_eigen(n_dim, k)
        below, above = fine.count([-sigma_k - degeneracy_tol, -sigma_k + degeneracy_tol]).tolist()
        if below != above:
            raise DegeneratePointError(
                (f"radial linearization has an eigenvalue within {degeneracy_tol} "
                 f"of 0 at alpha={alpha}: degenerate profile") if k == 0 else
                (f"alpha={alpha} is within {degeneracy_tol} of a crossing "
                 f"with sigma_{k}: at bifurcation point")
            )
        if below == 0:
            break
        counts.append((k, below, mult))

    return MorseIndexReport(
        radial_count=counts[0][1] if counts else 0,
        channel_counts=tuple((k, n_k) for k, n_k, _ in counts[1:]),
        index_full=sum(n_k * mult for _, n_k, mult in counts),
        index_invariant=sum(n_k for _, n_k, _ in counts),
    )
