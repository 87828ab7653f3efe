"""Small shared numerical utilities: extrapolation, log-grid differentiation
and normalized defects of radial equations."""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = [
    "extrapolate_to_zero",
    "log_grid",
    "radial_defect",
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


def log_grid(r_lo: float, r_hi: float, n: int) -> np.ndarray:
    """n logarithmically spaced points on [r_lo, r_hi]."""
    if not (0.0 < r_lo < r_hi):
        raise DomainError("need 0 < r_lo < r_hi")
    r = np.exp(np.linspace(math.log(r_lo), math.log(r_hi), n))
    r[0], r[-1] = r_lo, r_hi  # exp/log round trip must not overshoot the ends
    return r


def radial_defect(r, y, dy, dim, source) -> float:
    """Max normalized defect of y'' + (dim-1)/r y' + source(r, y) = 0 on a
    geometric grid r, given y and its exact derivative dy there.

    y'' is the 4th-order 5-point central difference of dy in t = log r
    (divided by r), so the defect lives on the interior nodes r[2:-2] and only
    one finite differencing enters.  The pointwise defect is the |sum| of the
    three terms divided by the largest term magnitude at that point (with a
    floor at the global scale), so regions where the terms reach 1e10 do not
    drown out the informative moderate-r region.
    """
    h = math.log(r[1] / r[0])
    rin = r[2:-2]
    d2y = (dy[:-4] - 8.0 * dy[1:-3] + 8.0 * dy[3:-1] - dy[4:]) / (12.0 * h) / rin
    terms = np.stack([d2y, (dim - 1.0) / rin * dy[2:-2], source(rin, y[2:-2])])
    total = terms[0] + terms[1] + terms[2]
    mags = np.max(np.abs(terms), axis=0)
    floor = 1e-12 * float(np.max(mags)) if np.max(mags) > 0 else 1.0
    return float(np.max(np.abs(total) / np.maximum(mags, floor)))
