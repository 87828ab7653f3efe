"""Bifurcation values α_k^ε and Morse indices of the radial solution.

A nonradial branch can only appear where the first eigenvalue Λ₁^ε(α) of the
r^-2-weighted linearization crosses a sphere eigenvalue: Λ₁^ε(α_k^ε) = -σ_k.
This module samples the curve α ↦ Λ₁^ε(α), isolates those crossings by a
scan-and-bracket root search, counts the Morse index on either side (full
space and O(N-1)-invariant subspace), and tracks α_k^ε → 2(k-1) along ε
sweeps.

One curve evaluation is one Dirichlet shoot plus one spectral solve; profiles
and eigenvalues are memoized in a process-local cache keyed by the exact
parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.optimize import brentq

from . import numerics
from .closedform import (
    ProblemParams,
    bifurcation_alpha,
    lambda1_closed,
    sphere_eigen,
    sphere_multiplicity,
)
from .errors import BracketError, DegeneratePointError, DomainError
from .radial import RadialProfile, solve_dirichlet_ball
from .spectral import SLProblem, assemble_pencil, default_spectral_grid, radial_pencil, solve_eigen

__all__ = [
    "SolverCache",
    "BifurcationPoint",
    "MorseIndexReport",
    "LambdaCurve",
    "ConvergenceStudy",
    "lambda_values",
    "lambda1_curve",
    "find_bifurcation_alpha",
    "morse_index",
    "lambda2_floor",
    "convergence_study",
    "alpha_resolution",
]

N_POINTS_DEFAULT = 1500
SCAN_POINTS = 32


class SolverCache:
    """Process-local memo of radial profiles and eigenvalue lists.

    All stored objects are immutable once computed; per-key writes are plain
    dict assignments (atomic under the interpreter lock), so concurrent reads
    from worker threads are safe."""

    def __init__(self):
        self._profiles: dict = {}
        self._lambdas: dict = {}

    def profile(self, n_dim: int, alpha: float, eps: float, tol: float = 1e-10) -> RadialProfile:
        key = (n_dim, alpha, eps, tol)
        if key not in self._profiles:
            self._profiles[key] = solve_dirichlet_ball(
                ProblemParams(n_dim, alpha, eps), tol=tol
            )
        return self._profiles[key]

    def lambdas(
        self, n_dim: int, alpha: float, eps: float, count: int, n_points: int
    ) -> tuple[float, ...]:
        key = (n_dim, alpha, eps, n_points)
        have = self._lambdas.get(key, ())
        if len(have) < count:
            res = solve_eigen(
                SLProblem.from_profile(self.profile(n_dim, alpha, eps)),
                count=count,
                n_points=n_points,
                with_vectors=False,
            )
            have = tuple(r.extrapolated for r in res)
            self._lambdas[key] = have
        return have[:count]

    def clear(self):
        self._profiles.clear()
        self._lambdas.clear()


_CACHE = SolverCache()


def lambda_values(
    n_dim: int,
    eps: float,
    alpha: float,
    count: int = 1,
    n_points: int = N_POINTS_DEFAULT,
    cache: SolverCache | None = None,
) -> tuple[float, ...]:
    """Lowest `count` eigenvalues Λ_j^ε(α), Richardson-extrapolated."""
    cache = cache or _CACHE
    return cache.lambdas(n_dim, alpha, eps, count, n_points)


@dataclass(frozen=True)
class LambdaCurve:
    """Samples of α ↦ Λ₁^ε(α) with the closed-form limit alongside."""

    n_dim: int
    eps: float
    alphas: np.ndarray
    values: np.ndarray
    limit_values: np.ndarray

    @property
    def sup_limit_deviation(self) -> float:
        return float(np.max(np.abs(self.values - self.limit_values)))

    def is_continuous(self, slack_factor: float = 3.0) -> bool:
        """Neighbor jumps bounded by the limit curve's local slope (α+N)/2
        times the grid spacing, with a safety factor."""
        da = np.diff(self.alphas)
        slope = (np.maximum(self.alphas[:-1], self.alphas[1:]) + self.n_dim) / 2.0
        allowed = slack_factor * slope * da + 1e-6
        return bool(np.all(np.abs(np.diff(self.values)) <= allowed))

    @property
    def all_negative(self) -> bool:
        return bool(np.all(self.values < 0.0))


def lambda1_curve(
    n_dim: int,
    eps: float,
    alpha_grid: Sequence[float],
    n_points: int = N_POINTS_DEFAULT,
    cache: SolverCache | None = None,
) -> LambdaCurve:
    """Λ₁^ε(α) on a grid of α > 0 (one Dirichlet solve + one spectral solve
    per point, memoized)."""
    alphas = np.asarray(list(alpha_grid), dtype=float)
    if alphas.size < 1 or np.any(alphas <= 0) or np.any(np.diff(alphas) <= 0):
        raise DomainError("alpha_grid must be strictly increasing and positive")
    vals = np.array(
        [lambda_values(n_dim, eps, a, 1, n_points, cache)[0] for a in alphas]
    )
    lim = np.array([lambda1_closed(n_dim, a) for a in alphas])
    return LambdaCurve(n_dim, eps, alphas, vals, lim)


@dataclass(frozen=True)
class BifurcationPoint:
    """A certified root of Λ₁^ε(α) = -σ_k.

    `bracket` is the sign-change interval the root was refined in; `residual`
    is |Λ₁^ε(α_k^ε) + σ_k| evaluated at the returned point.  If the pre-scan
    found several sign changes, `all_roots` lists every refined root (closest
    to the limit value 2(k-1) first) and `unique` is False."""

    n_dim: int
    k: int
    eps: float
    alpha_k_eps: float
    residual: float
    bracket: tuple[float, float]
    sigma_k: float
    all_roots: tuple[float, ...] = ()
    unique: bool = True
    exclusion_ok: bool = True

    @property
    def limit_alpha(self) -> float:
        return bifurcation_alpha(self.k)

    @property
    def error_vs_limit(self) -> float:
        return abs(self.alpha_k_eps - self.limit_alpha)


def alpha_resolution(n_dim: int, k: int, tol: float) -> float:
    """Smallest α-difference the root solve can certify: the residual
    tolerance divided by the limit curve's slope at α_k."""
    slope = (bifurcation_alpha(k) + n_dim) / 2.0
    return 2.0 * tol / slope


def find_bifurcation_alpha(
    n_dim: int,
    eps: float,
    k: int,
    bracket: tuple[float, float] | None = None,
    n_points: int = N_POINTS_DEFAULT,
    cache: SolverCache | None = None,
) -> BifurcationPoint:
    """Locate α_k^ε in the bracket (default 2(k-1) ± 0.9).

    A 32-point scan finds sign-change intervals of f(α) = Λ₁^ε(α) + σ_k; each
    is refined by Brent's method until the root is pinned in α to within
    1e-10 + 8.9e-16·|α|, and `residual` reports |f| there.  The same scan is
    reused to verify that no crossing with a different sphere eigenvalue σ_l
    occurs inside the bracket (`exclusion_ok`)."""
    if k < 2:
        raise DomainError("bifurcation search needs k >= 2 (k = 1 sits at alpha = 0)")
    alpha_k = bifurcation_alpha(k)
    if bracket is None:
        rho = 0.9
        bracket = (alpha_k - rho, alpha_k + rho)
    lo, hi = bracket
    if not 0.0 < lo < hi:
        raise DomainError(f"bracket must satisfy 0 < lo < hi, got {bracket!r}")
    sigma_k, _ = sphere_eigen(n_dim, k)

    def f(alpha: float) -> float:
        return lambda_values(n_dim, eps, alpha, 1, n_points, cache)[0] + sigma_k

    alphas = np.linspace(lo, hi, SCAN_POINTS)
    fs = np.array([f(a) for a in alphas])
    if not (fs[0] > 0.0 > fs[-1]):
        raise BracketError(
            f"bracket endpoints do not straddle -sigma_{k}: "
            f"f({lo})={fs[0]:.4g}, f({hi})={fs[-1]:.4g} (eps too large?)"
        )
    change = np.nonzero(np.sign(fs[:-1]) * np.sign(fs[1:]) < 0)[0]
    if change.size == 0:
        raise BracketError(f"no sign change of lambda1 + sigma_{k} inside {bracket!r}")

    roots = []
    intervals = []
    for i in change:
        root = float(brentq(f, alphas[i], alphas[i + 1], xtol=1e-10, rtol=8.9e-16))
        roots.append(root)
        intervals.append((float(alphas[i]), float(alphas[i + 1])))
    order = np.argsort([abs(r - alpha_k) for r in roots])
    best = int(order[0])

    # crossings with neighboring sphere eigenvalues inside the bracket would
    # break the isolation the jump argument needs
    exclusion_ok = True
    for l in range(1, k + 3):
        if l == k:
            continue
        sigma_l, _ = sphere_eigen(n_dim, l)
        fl = fs + (sigma_l - sigma_k)
        if np.any(np.sign(fl[:-1]) * np.sign(fl[1:]) < 0):
            exclusion_ok = False

    return BifurcationPoint(
        n_dim=n_dim,
        k=k,
        eps=eps,
        alpha_k_eps=roots[best],
        residual=abs(f(roots[best])),
        bracket=intervals[best],
        sigma_k=sigma_k,
        all_roots=tuple(roots[i] for i in order),
        unique=len(roots) == 1,
        exclusion_ok=exclusion_ok,
    )


@dataclass(frozen=True)
class MorseIndexReport:
    """Negative-direction counts of the linearization at one (α, ε).

    index_full weights each angular channel k by the dimension of its
    spherical-harmonic eigenspace; index_invariant counts each channel once
    (the O(N-1)-invariant slice is one-dimensional).  Both include the purely
    radial negative directions.  contributing_pairs lists (j, k, multiplicity)
    with Λ_j^ε(α) < -σ_k for k ≥ 1."""

    n_dim: int
    eps: float
    alpha: float
    radial_count: int
    channel_counts: tuple[tuple[int, int], ...]  # (k, #negative j's)
    lambdas: tuple[float, ...]
    index_full: int = field(init=False)
    index_invariant: int = field(init=False)

    def __post_init__(self):
        full = self.radial_count
        inv = self.radial_count
        for k, n_k in self.channel_counts:
            full += n_k * sphere_multiplicity(self.n_dim, k)
            inv += n_k
        object.__setattr__(self, "index_full", full)
        object.__setattr__(self, "index_invariant", inv)

    @property
    def contributing_pairs(self) -> tuple[tuple[int, int, int], ...]:
        pairs = []
        for k, n_k in self.channel_counts:
            for j in range(1, n_k + 1):
                pairs.append((j, k, sphere_multiplicity(self.n_dim, k)))
        return tuple(pairs)

    def index(self, mode: str) -> int:
        if mode == "full":
            return self.index_full
        if mode == "invariant":
            return self.index_invariant
        raise DomainError(f"mode must be 'full' or 'invariant', got {mode!r}")


def morse_index(
    n_dim: int,
    eps: float,
    alpha: float,
    j_max: int = 3,
    n_points: int = N_POINTS_DEFAULT,
    degeneracy_tol: float = 1e-4,
    cache: SolverCache | None = None,
) -> MorseIndexReport:
    """Morse index of the radial solution at (α, ε), both weightings.

    Channel counts #{j : Λ_j^ε(α) < -σ_k} come from the pencil's inertia at
    the shifts -σ_k (exact for the discretized operator), k running until
    σ_k ≥ |Λ₁| where no eigenvalue can lie below -σ_k.  Requesting a point
    within degeneracy_tol of a crossing raises DegeneratePointError."""
    cache = cache or _CACHE
    profile = cache.profile(n_dim, alpha, eps)
    lambdas = lambda_values(n_dim, eps, alpha, j_max, n_points, cache)

    pencil = assemble_pencil(
        SLProblem.from_profile(profile),
        default_spectral_grid(1.0, 2 * n_points),
    )
    lam1 = lambdas[0]
    channel = []
    k = 1
    while True:
        sigma_k, _ = sphere_eigen(n_dim, k)
        if min(abs(l + sigma_k) for l in lambdas) < degeneracy_tol:
            raise DegeneratePointError(
                f"alpha={alpha} is within {degeneracy_tol} of a crossing "
                f"with sigma_{k}: at bifurcation point"
            )
        if sigma_k >= -lam1:
            break  # no eigenvalue can sit below -sigma_k beyond this k
        n_k = int(pencil.count(-sigma_k))
        if n_k == 0:
            break
        channel.append((k, n_k))
        k += 1

    rad = radial_pencil(profile, n_points=n_points)
    if rad.count(1e-6) != rad.count(-1e-6):
        raise DegeneratePointError(
            "radial linearization has an eigenvalue at 0: degenerate profile"
        )
    radial_count = int(rad.count(0.0))

    return MorseIndexReport(
        n_dim=n_dim,
        eps=eps,
        alpha=alpha,
        radial_count=radial_count,
        channel_counts=tuple(channel),
        lambdas=tuple(lambdas),
    )


def lambda2_floor(
    n_dim: int,
    eps: float,
    alpha_grid: Sequence[float],
    n_points: int = N_POINTS_DEFAULT,
    cache: SolverCache | None = None,
) -> float:
    """min over the α-grid of Λ₂^ε(α); stays above -σ₁ = -(N-1) for small ε."""
    alphas = list(alpha_grid)
    if not alphas or any(a <= 0 for a in alphas):
        raise DomainError("alpha_grid must contain positive values")
    return min(
        lambda_values(n_dim, eps, a, 2, n_points, cache)[1] for a in alphas
    )


@dataclass(frozen=True)
class ConvergenceStudy:
    """α_k^ε along a decreasing ε list with distances to the limit 2(k-1)."""

    n_dim: int
    k: int
    rows: tuple[tuple[float, float, float], ...]  # (eps, alpha_k_eps, error)
    tol: float

    @property
    def errors(self) -> tuple[float, ...]:
        return tuple(r[2] for r in self.rows)

    def monotone_nonincreasing(self, noise_floor: float | None = None) -> bool:
        """Errors nonincreasing up to the root solver's α-resolution.

        The crossings sit so close to 2(k-1) (the deviation is a boundary
        tail effect, below 1e-8 already at ε = 0.1) that consecutive errors
        can differ by less than the solver can certify; the floor makes the
        comparison honest instead of asserting sub-resolution ordering."""
        if noise_floor is None:
            noise_floor = alpha_resolution(self.n_dim, self.k, self.tol)
        e = self.errors
        return all(b <= a + noise_floor for a, b in zip(e, e[1:]))

    @property
    def empirical_rate(self) -> float:
        return numerics.empirical_rate([r[0] for r in self.rows], self.errors)

    @property
    def max_error(self) -> float:
        return max(self.errors)


def convergence_study(
    n_dim: int,
    k: int,
    eps_list: Sequence[float],
    bracket: tuple[float, float] | None = None,
    tol: float = 1e-6,
    n_points: int = N_POINTS_DEFAULT,
    cache: SolverCache | None = None,
) -> ConvergenceStudy:
    """Solve Λ₁^ε(α) = -σ_k for each ε in a decreasing list.  `tol` is the
    residual tolerance behind the study's α noise floor (alpha_resolution)."""
    eps_list = [float(e) for e in eps_list]
    if any(e <= 0 for e in eps_list) or any(
        b >= a for a, b in zip(eps_list, eps_list[1:])
    ):
        raise DomainError("eps_list must be positive and strictly decreasing")
    rows = []
    for eps in eps_list:
        bp = find_bifurcation_alpha(
            n_dim, eps, k, bracket=bracket, n_points=n_points, cache=cache
        )
        rows.append((eps, bp.alpha_k_eps, bp.error_vs_limit))
    return ConvergenceStudy(n_dim=n_dim, k=k, rows=tuple(rows), tol=tol)
