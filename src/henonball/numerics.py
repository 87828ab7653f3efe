"""Small shared numerical utilities: extrapolation, log-grid differentiation
and normalized defects of radial equations."""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = [
    "extrapolate_to_zero",
    "richardson_pair",
    "log_grid",
    "log_grid_derivative",
    "radial_defect",
    "empirical_rate",
]


def extrapolate_to_zero(xs, ys) -> float:
    """Neville polynomial extrapolation of y(x) to x = 0.

    The abscissas need not form a geometric sequence; with n points the
    extrapolant cancels the first n-1 polynomial correction terms.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float).copy()
    if xs.size != ys.size or xs.size < 2:
        raise DomainError("need at least two (x, y) pairs")
    n = xs.size
    for level in range(1, n):
        for i in range(n - level):
            ys[i] = ys[i + 1] + (ys[i] - ys[i + 1]) * xs[i + level] / (
                xs[i + level] - xs[i]
            )
    return float(ys[0])


def richardson_pair(coarse: float, fine: float, order: int = 2, ratio: float = 2.0) -> float:
    """Two-level Richardson extrapolation for a method of known order."""
    f = ratio**order
    return (f * fine - coarse) / (f - 1.0)


def log_grid(r_lo: float, r_hi: float, n: int) -> np.ndarray:
    """n logarithmically spaced points on [r_lo, r_hi]."""
    if not (0.0 < r_lo < r_hi):
        raise DomainError("need 0 < r_lo < r_hi")
    r = np.exp(np.linspace(math.log(r_lo), math.log(r_hi), n))
    r[0], r[-1] = r_lo, r_hi  # exp/log round trip must not overshoot the ends
    return r


def log_grid_derivative(r: np.ndarray, f: np.ndarray) -> np.ndarray:
    """df/dr at the interior nodes r[2:-2] of a geometric grid: the 4th-order
    5-point central difference in t = log r, divided by r."""
    h = math.log(r[1] / r[0])
    return (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * h) / r[2:-2]


def radial_defect(r, terms) -> float:
    """Max normalized defect of a radial equation written as sum(terms) = 0.

    Each entry of `terms` is an array over the same grid.  The pointwise
    defect is |Σ terms| divided by the largest term magnitude at that point
    (with a floor at the global scale), so regions where the equation's
    terms reach 1e10 do not drown out the informative moderate-r region.
    """
    terms = [np.asarray(t, dtype=float) for t in terms]
    total = sum(terms)
    mags = np.max(np.abs(np.stack(terms)), axis=0)
    floor = 1e-12 * float(np.max(mags)) if np.max(mags) > 0 else 1.0
    return float(np.max(np.abs(total) / np.maximum(mags, floor)))


def empirical_rate(xs, errs) -> float:
    """Least-squares slope of log err against log x (convergence-rate probe).

    Entries with nonpositive error are dropped; returns nan if fewer than two
    usable points remain.
    """
    xs = np.asarray(xs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    keep = errs > 0
    if keep.sum() < 2:
        return float("nan")
    slope = np.polyfit(np.log(xs[keep]), np.log(errs[keep]), 1)[0]
    return float(slope)
