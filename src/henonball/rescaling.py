"""Rescaling of the unit-ball radial solution onto the expanding ball.

w(x) = κ u(x/ρ) with ρ = ε^(-1/(N-2)) and κ^(1-(p_α-ε)) = C_{N,α} ε^(-(2+α)/(N-2))
solves -Δw = C_{N,α}|x|^α w^(p_α-ε) on the ball of radius ρ and converges
uniformly to the entire-space bubble U_α as ε → 0.  This module builds w,
measures its sup-distance to U_α, and fits the constant of the uniform decay
envelope w(r) ≤ C (1+r^(2+α))^(-(N-2)/(2+α)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .closedform import ProblemParams, limit_lambda, limit_profile
from .radial import RadialProfile, default_profile_grid

__all__ = [
    "RescaledProfile",
    "rescale",
    "pde_residual",
    "limit_distance",
    "uniform_bound_check",
    "kappa_relation_residual",
]


@dataclass
class RescaledProfile:
    """w(r) = κ u(r/ρ) on [0, ρ], zero outside, for the radial profile u it
    came from.  It stores no samples: `evaluate` goes through the profile's
    dense evaluator, and `samples` gives w on ρ times `default_profile_grid()`
    for the readers that want a fixed grid."""

    params: ProblemParams
    rho_eps: float
    kappa: float
    profile: RadialProfile

    def evaluate(self, r, derivative: bool = False):
        """w(r) for r ≥ 0 (zero extension beyond ρ)."""
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        inside = r <= self.rho_eps
        w = np.zeros_like(r)
        dw = np.zeros_like(r)
        if np.any(inside):
            u, du = self.profile.evaluate(r[inside] / self.rho_eps, derivative=True)
            w[inside] = self.kappa * u
            dw[inside] = self.kappa / self.rho_eps * du
        if derivative:
            return (float(w[0]), float(dw[0])) if scalar else (w, dw)
        return float(w[0]) if scalar else w

    def samples(self) -> tuple[np.ndarray, np.ndarray]:
        """(ρ·grid, κ·u(grid)) on grid = `default_profile_grid()`."""
        grid = default_profile_grid()
        return self.rho_eps * grid, self.kappa * self.profile.evaluate(grid)


def rescale(profile: RadialProfile) -> RescaledProfile:
    """Apply the expanding-ball change of variables to a Dirichlet profile;
    computes ρ and κ only, the profile is not sampled."""
    pr = profile.params
    rho = pr.eps ** (-1.0 / (pr.n_dim - 2.0))
    # κ in log space: the defining relation spans many orders of magnitude
    log_kappa = (
        math.log(pr.henon_c)
        - (2.0 + pr.alpha) / (pr.n_dim - 2.0) * math.log(pr.eps)
    ) / (1.0 - pr.p_alpha + pr.eps)
    return RescaledProfile(params=pr, rho_eps=rho, kappa=math.exp(log_kappa), profile=profile)


def kappa_relation_residual(rescaled: RescaledProfile) -> float:
    """Relative residual of κ^(1-(p_α-ε)) = C_{N,α} ε^(-(2+α)/(N-2)), in logs."""
    pr = rescaled.params
    lhs = (1.0 - pr.p_alpha + pr.eps) * math.log(rescaled.kappa)
    rhs = math.log(pr.henon_c) - (2.0 + pr.alpha) / (pr.n_dim - 2.0) * math.log(pr.eps)
    return abs(math.expm1(lhs - rhs))


def pde_residual(rescaled: RescaledProfile) -> float:
    """Max term-normalized defect of w'' + (N-1)/r w' + C_{N,α} r^α w^(p_α-ε) = 0
    on a 2000-point geometric grid of (0, ρ); w' comes from the profile's radial
    derivative, so only one finite differencing enters."""
    pr = rescaled.params
    rho = rescaled.rho_eps
    lam = limit_lambda(pr.n_dim, pr.alpha)
    r_lo = max(1e-10 * rho, 1e-3 / lam)
    r = numerics.log_grid(r_lo, rho, 2000)
    w, dw = rescaled.evaluate(r, derivative=True)
    return numerics.radial_defect(
        r, w, dw, pr.n_dim,
        lambda rin, win: pr.henon_c * rin**pr.alpha * np.clip(win, 0.0, None) ** pr.p,
    )


def limit_distance(rescaled: RescaledProfile) -> float:
    """sup |w - U_α| over `samples()` plus a 200-point logarithmic tail
    on [ρ, 10ρ] where w ≡ 0 and the bubble is evaluated directly."""
    pr = rescaled.params
    lam = limit_lambda(pr.n_dim, pr.alpha)
    grid, w = rescaled.samples()
    inner = np.abs(w - limit_profile(grid, lam, pr.n_dim, pr.alpha))
    tail_r = numerics.log_grid(rescaled.rho_eps, 10.0 * rescaled.rho_eps, 200)
    tail = limit_profile(tail_r, lam, pr.n_dim, pr.alpha)
    return float(max(np.max(inner), np.max(tail)))


def uniform_bound_check(rescaled: RescaledProfile) -> float:
    """Smallest C with w(r) ≤ C (1+r^(2+α))^(-(N-2)/(2+α)) on `samples()`."""
    pr = rescaled.params
    expo = (pr.n_dim - 2.0) / (2.0 + pr.alpha)
    grid, w = rescaled.samples()
    envelope = (1.0 + grid ** (2.0 + pr.alpha)) ** expo
    return float(np.max(w * envelope))

