"""Bifurcation values α_k^ε and Morse indices of the radial solution.

A nonradial branch can only appear where the first eigenvalue Λ₁^ε(α) of the
r^-2-weighted linearization crosses a sphere eigenvalue: Λ₁^ε(α_k^ε) = -σ_k.
This module samples the curve α ↦ Λ₁^ε(α), isolates those crossings by a
scan-and-bracket root search, and counts the Morse index on either side (full
space and O(N-1)-invariant subspace).

One curve evaluation is one Dirichlet shoot plus one spectral solve on the
N_POINTS/2·N_POINTS grid pair.  Profiles and eigenvalues are memoized in a
SolverCache keyed by the exact parameters: the one passed as `cache=`, or
else a fresh one that lives only as long as the call.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .closedform import (
    ProblemParams,
    bifurcation_alpha,
    sphere_eigen,
    sphere_multiplicity,
)
from .errors import BracketError, DegeneratePointError, DomainError
from .radial import RadialProfile, solve_dirichlet_ball
from .spectral import SLProblem, assemble_pencil, default_spectral_grid, radial_pencil, solve_eigen

log = logging.getLogger("henonball")

__all__ = [
    "SolverCache",
    "BifurcationPoint",
    "MorseIndexReport",
    "lambda_values",
    "find_bifurcation_alpha",
    "morse_index",
    "alpha_resolution",
]

# coarse grid of every two-grid eigen solve (the fine one has twice as many)
N_POINTS = 1500
SCAN_POINTS = 32


class SolverCache:
    """Memo of radial profiles and eigenvalue lists, keyed by (N, α, ε)."""

    def __init__(self):
        self._profiles: dict = {}
        self._lambdas: dict = {}

    def profile(self, n_dim: int, alpha: float, eps: float) -> RadialProfile:
        key = (n_dim, alpha, eps)
        if key not in self._profiles:
            self._profiles[key] = solve_dirichlet_ball(ProblemParams(n_dim, alpha, eps))
        return self._profiles[key]

    def lambdas(self, n_dim: int, alpha: float, eps: float, count: int) -> tuple[float, ...]:
        key = (n_dim, alpha, eps)
        have = self._lambdas.get(key, ())
        if len(have) < count:
            res = solve_eigen(
                SLProblem.from_profile(self.profile(n_dim, alpha, eps)),
                count=count,
                n_points=N_POINTS,
                with_vectors=False,
            )
            have = tuple(r.extrapolated for r in res)
            self._lambdas[key] = have
        return have[:count]


def lambda_values(
    n_dim: int,
    eps: float,
    alpha: float,
    count: int = 1,
    cache: SolverCache | None = None,
) -> tuple[float, ...]:
    """Lowest `count` eigenvalues Λ_j^ε(α), Richardson-extrapolated."""
    return (cache or SolverCache()).lambdas(n_dim, alpha, eps, count)


@dataclass(frozen=True)
class BifurcationPoint:
    """A certified root α_k^ε of Λ₁^ε(α) = -σ_k.

    `bracket` is the sign-change interval the root was refined in; `residual`
    is |Λ₁^ε(α_k^ε) + σ_k| evaluated at the returned point.  `unique` is False
    when the pre-scan found several sign changes (the returned root is the one
    closest to the limit value 2(k-1); the warning lists the others), and
    `exclusion_ok` is False when Λ₁^ε also crosses another -σ_l inside the
    bracket."""

    alpha_k_eps: float
    residual: float
    bracket: tuple[float, float]
    unique: bool
    exclusion_ok: bool


def alpha_resolution(n_dim: int, k: int) -> float:
    """The α noise floor C4.trend forgives: twice the residual tolerance
    1e-6 divided by the limit curve's slope at α_k.  It is not the solver's
    resolution; brentq pins each root to 1e-10 in α."""
    slope = (bifurcation_alpha(k) + n_dim) / 2.0
    return 2.0 * 1e-6 / slope


def find_bifurcation_alpha(
    n_dim: int,
    eps: float,
    k: int,
    bracket: tuple[float, float] | None = None,
    cache: SolverCache | None = None,
) -> BifurcationPoint:
    """Locate α_k^ε in the bracket (default 2(k-1) ± 0.9).

    A 32-point scan finds sign-change intervals of f(α) = Λ₁^ε(α) + σ_k; each
    is refined by Brent's method until the root is pinned in α to within
    1e-10 + 8.9e-16·|α|, and `residual` reports |f| there.  The same scan is
    reused to verify that no crossing with a different sphere eigenvalue σ_l
    occurs inside the bracket (`exclusion_ok`).  A second root or a failed
    exclusion is also logged as a warning on the "henonball" logger."""
    if k < 2:
        raise DomainError("bifurcation search needs k >= 2 (k = 1 sits at alpha = 0)")
    alpha_k = bifurcation_alpha(k)
    if bracket is None:
        rho = 0.9
        bracket = (alpha_k - rho, alpha_k + rho)
    lo, hi = bracket
    if not 0.0 < lo < hi < np.inf:
        raise DomainError(f"bracket must satisfy 0 < lo < hi < inf, got {bracket!r}")
    sigma_k, _ = sphere_eigen(n_dim, k)
    cache = cache or SolverCache()

    def f(alpha: float) -> float:
        return lambda_values(n_dim, eps, alpha, 1, cache)[0] + sigma_k

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
    crossed = []
    for l in range(1, k + 3):
        if l == k:
            continue
        sigma_l, _ = sphere_eigen(n_dim, l)
        fl = fs + (sigma_l - sigma_k)
        if np.any(np.sign(fl[:-1]) * np.sign(fl[1:]) < 0):
            crossed.append(f"sigma_{l}={sigma_l:g}")
    where = f"N={n_dim} k={k} eps={eps!r} bracket={bracket!r}"
    if len(roots) > 1:
        log.warning("%s: not unique, lambda1 = -sigma_%d also at alpha=%s (reporting %r)",
                    where, k, [roots[i] for i in order[1:]], roots[best])
    if crossed:
        log.warning("%s: exclusion fails, lambda1 also crosses -%s", where, ", -".join(crossed))

    return BifurcationPoint(
        alpha_k_eps=roots[best],
        residual=abs(f(roots[best])),
        bracket=intervals[best],
        unique=len(roots) == 1,
        exclusion_ok=not crossed,
    )


@dataclass(frozen=True)
class MorseIndexReport:
    """Negative-direction counts of the linearization at one (α, ε).

    channel_counts lists (k, n_k) for k ≥ 1, where Λ_j^ε(α) < -σ_k exactly
    for j ≤ n_k.  index_full weights each channel k by the dimension of its
    spherical-harmonic eigenspace; index_invariant counts each channel once
    (the O(N-1)-invariant slice is one-dimensional).  Both include the
    radial_count purely radial negative directions."""

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

    Channel counts #{j : Λ_j^ε(α) < -σ_k} come from the pencil's inertia at
    the shifts -σ_k (exact for the discretized operator), k running until
    σ_k ≥ |Λ₁| where no eigenvalue can lie below -σ_k.  Requesting a point
    where one of Λ₁..Λ₃ lies within 1e-4 of some -σ_k raises
    DegeneratePointError."""
    degeneracy_tol = 1e-4
    cache = cache or SolverCache()
    profile = cache.profile(n_dim, alpha, eps)
    lambdas = lambda_values(n_dim, eps, alpha, 3, cache)

    pencil = assemble_pencil(
        SLProblem.from_profile(profile),
        default_spectral_grid(1.0, 2 * N_POINTS),
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

    rad = radial_pencil(profile, n_points=N_POINTS)
    if rad.count(1e-6) != rad.count(-1e-6):
        raise DegeneratePointError(
            "radial linearization has an eigenvalue at 0: degenerate profile"
        )
    radial_count = int(rad.count(0.0))

    return MorseIndexReport(
        radial_count=radial_count,
        channel_counts=tuple(channel),
        index_full=radial_count + sum(n_k * sphere_multiplicity(n_dim, k)
                                      for k, n_k in channel),
        index_invariant=radial_count + sum(n_k for _, n_k in channel),
    )
