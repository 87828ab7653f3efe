"""Closed-form quantities for the Henon problem -Δu = |x|^α u^(p_α - ε) on the
unit ball.

Everything in this module is exact arithmetic on top of the stdlib Gamma
function: the threshold exponent p_α, the constant C_{N,α} of the
entire-space problem, the sup-norm limit M(N,α), the concentration scale λ of
the limit bubble, the explicit bubble profile U_{λ,α}, the first eigenvalue
Λ₁(α) of the limit linearization, the sphere eigenvalues σ_k with their
multiplicities, and the bifurcation abscissas α_k = 2(k-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

__all__ = [
    "ProblemParams",
    "gamma",
    "threshold_exponent",
    "henon_constant",
    "sup_norm_constant",
    "limit_lambda",
    "limit_profile",
    "lambda1_closed",
    "sphere_eigen",
    "sphere_multiplicity",
    "bifurcation_alpha",
    "first_eigenfunction_closed",
]


def gamma(x: float) -> float:
    """Gamma function for real x > 0 (`math.gamma`, with a DomainError
    outside its positive half-line)."""
    x = float(x)
    if not x > 0.0:
        raise DomainError(f"gamma requires x > 0, got {x!r}")
    return math.gamma(x)


def threshold_exponent(n_dim: int, alpha: float) -> float:
    """Threshold exponent p_α = (N+2+2α)/(N-2); no solutions at or above it.
    DomainError for an α so large that p_α is not a finite float."""
    _check_n_alpha(n_dim, alpha)
    p_alpha = (n_dim + 2.0 + 2.0 * alpha) / (n_dim - 2.0)
    if not math.isfinite(p_alpha):
        raise DomainError(f"p_alpha overflows at alpha={alpha!r}: need a smaller alpha")
    return p_alpha


def henon_constant(n_dim: int, alpha: float) -> float:
    """C_{N,α} = (N-2)(N+α), the coefficient of the entire-space problem."""
    _check_n_alpha(n_dim, alpha)
    return (n_dim - 2.0) * (n_dim + alpha)


def sup_norm_constant(n_dim: int, alpha: float) -> float:
    """Limit M(N,α) of ε·u(0)² as ε → 0 for the radial solution.

    M(N,α) = 2(2+α)/(N-2) · [(N-2)(N+α)]^((N-2)/(2+α))
             · Γ(2(N+α)/(2+α)) / Γ((N+α)/(2+α))².
    """
    _check_n_alpha(n_dim, alpha)
    half = (n_dim + alpha) / (2.0 + alpha)
    prefac = 2.0 * (2.0 + alpha) / (n_dim - 2.0)
    power = henon_constant(n_dim, alpha) ** ((n_dim - 2.0) / (2.0 + alpha))
    return prefac * power * gamma(2.0 * half) / gamma(half) ** 2


def limit_lambda(n_dim: int, alpha: float) -> float:
    """Concentration scale λ of the limit bubble.

    Defined through λ^((N-2)/2) = C_{N,α}^(-(N-2)/(2(2+α))) · M(N,α)^(1/2).
    """
    _check_n_alpha(n_dim, alpha)
    c = henon_constant(n_dim, alpha)
    m = sup_norm_constant(n_dim, alpha)
    # solve for lambda in log space; exponents stay O(1)
    log_lam_half_nm2 = (
        -(n_dim - 2.0) / (2.0 * (2.0 + alpha)) * math.log(c) + 0.5 * math.log(m)
    )
    return math.exp(2.0 * log_lam_half_nm2 / (n_dim - 2.0))


def limit_profile(r, lam: float, n_dim: int, alpha: float):
    """Entire-space bubble U_{λ,α}(r) = λ^((N-2)/2) / (1+λ^(2+α) r^(2+α))^((N-2)/(2+α)).

    Accepts scalar or array r ≥ 0; strictly decreasing in r.  DomainError for
    any r below 0, NaN included.
    """
    _check_n_alpha(n_dim, alpha)
    if not lam > 0.0:
        raise DomainError(f"limit_profile requires lam > 0, got {lam!r}")
    r = _radii(r)
    expo = (n_dim - 2.0) / (2.0 + alpha)
    out = lam ** ((n_dim - 2.0) / 2.0) / (1.0 + (lam * r) ** (2.0 + alpha)) ** expo
    return float(out) if out.ndim == 0 else out


def lambda1_closed(n_dim: int, alpha: float) -> float:
    """First eigenvalue Λ₁(α) = -(α+2)(2N+α-2)/4 of the limit linearization."""
    _check_n_alpha(n_dim, alpha)
    return -(alpha + 2.0) * (2.0 * n_dim + alpha - 2.0) / 4.0


def sphere_eigen(n_dim: int, k: int) -> tuple[float, int]:
    """k-th Laplace-Beltrami eigenvalue σ_k = k(N+k-2) on S^(N-1) and its
    multiplicity (N+2k-2)(N+k-3)!/((N-2)!k!), as an exact integer."""
    sigma = float(k * (n_dim + k - 2))
    return sigma, sphere_multiplicity(n_dim, k)


def sphere_multiplicity(n_dim: int, k: int) -> int:
    """Dimension of the degree-k spherical-harmonic eigenspace on S^(N-1).
    N and k may be integral floats, as in `ProblemParams`."""
    if not (float(n_dim).is_integer() and float(k).is_integer() and n_dim >= 3 and k >= 0):
        raise DomainError(f"need integer N >= 3 and k >= 0, got N={n_dim!r}, k={k!r}")
    n_dim, k = int(n_dim), int(k)
    num = (n_dim + 2 * k - 2) * math.factorial(n_dim + k - 3)
    return num // (math.factorial(n_dim - 2) * math.factorial(k))


def bifurcation_alpha(k: int) -> float:
    """Limit bifurcation abscissa α_k = 2(k-1), the unique α ≥ 0 with
    Λ₁(α) = -σ_k (valid for every N ≥ 3).  k may be an integral float, as
    in `sphere_multiplicity`."""
    if not (float(k).is_integer() and k >= 1):
        raise DomainError(f"bifurcation_alpha requires an integer k >= 1, got {k!r}")
    return 2.0 * (k - 1)


def first_eigenfunction_closed(r, lam: float, n_dim: int, alpha: float):
    """Normalized-shape first eigenfunction of the limit linearization:

    z(r) = λ^((2+α)/2) r^((2+α)/2) / (1+λ^(2+α) r^(2+α))^((N+α)/(2+α)).

    Vanishes at r = 0, positive for r > 0, decays like r^(-(N+α-(2+α)/2)).
    DomainError for any r below 0, NaN included.
    """
    _check_n_alpha(n_dim, alpha)
    if not lam > 0.0:
        raise DomainError(f"first_eigenfunction_closed requires lam > 0, got {lam!r}")
    r = _radii(r)
    x = (lam * r) ** ((2.0 + alpha) / 2.0)
    out = x / (1.0 + x * x) ** ((n_dim + alpha) / (2.0 + alpha))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ProblemParams:
    """One Henon problem instance: dimension N ≥ 3, weight exponent α ≥ 0 and
    subcriticality ε ∈ (0, p_α - 1), large enough that p = p_α - ε rounds
    below p_α (ε above about 4.4e-16 at N = 3, α = 0).  Derived exponents are
    filled in at construction time."""

    n_dim: int
    alpha: float
    eps: float
    p_alpha: float = field(init=False)
    p: float = field(init=False)

    def __post_init__(self):
        if int(self.n_dim) != self.n_dim or self.n_dim < 3:
            raise DomainError(f"need integer N >= 3, got {self.n_dim!r}")
        p_alpha = threshold_exponent(self.n_dim, self.alpha)  # checks α
        if not 0.0 < self.eps < p_alpha - 1.0:
            raise DomainError(
                f"need 0 < eps < p_alpha - 1 = {p_alpha - 1.0}, got {self.eps!r}"
            )
        if not p_alpha - self.eps < p_alpha:
            raise DomainError(
                f"eps={self.eps!r} is below the resolution of p_alpha = {p_alpha}: "
                "p_alpha - eps rounds to p_alpha, the critical exponent"
            )
        object.__setattr__(self, "n_dim", int(self.n_dim))
        object.__setattr__(self, "p_alpha", p_alpha)
        object.__setattr__(self, "p", p_alpha - self.eps)

    @property
    def henon_c(self) -> float:
        return henon_constant(self.n_dim, self.alpha)


def _radii(r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if not np.all(r >= 0.0):
        raise DomainError("radii must be >= 0")
    return r


def _check_n_alpha(n_dim: int, alpha: float) -> None:
    if n_dim < 3:
        raise DomainError(f"need N >= 3, got {n_dim!r}")
    if not 0.0 <= alpha < math.inf:
        raise DomainError(f"need finite alpha >= 0, got {alpha!r}")
