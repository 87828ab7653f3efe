"""Singular Sturm-Liouville spectra of the linearized Henon operator.

The eigenvalue problem is

    -z'' - (N-1)/r z' - q(r) z = Λ z / r²,   z(0) = z(R) = 0,

discretized in the self-adjoint form -(r^(N-1) z')' - r^(N-1) q z = Λ r^(N-3) z
by a conservative three-point scheme on a graded grid.  A `RadialGrid` holds
the nodes for one N with everything the stencil takes from the grid alone
(flux, cell widths, weights), built once and read-only; `RadialGrid.pencil`
adds the q-dependent diagonal and is the one assembly routine, behind
`assemble_pencil` (one grid) and `pencil_pair` (the coarse/fine pair of a
two-grid solve, from one `SLProblem.read` on the fine nodes, the coarse
grid being the fine one's `coarsen()`).  Both pencil matrices are symmetric
tridiagonal (the weight matrix diagonal).  The purely radial (k = 0)
linearization needs no pencil of its own: by Sylvester's law its
inertia at 0 does not depend on the positive weight, so it is this pencil's
count at 0 (see `bifurcation.morse_index`).
Every eigenvalue comes down one ladder in `Pencil` and passes one
certificate routine: an inertia certificate from the pencil's own count
(`Pencil.count`: the nonpositive pivots of the LDLᵀ factorization of A - xB
from LAPACK's pttrf, one O(n) pass plus one pttrf call per eigenvalue
counted) and, for an eigenvector, a node-count certificate.  A problem may
carry closed-form `shifts` σ_j, values near Λ_j, and its `sample` gives a
guess of the j-th eigenvector with q in one call.  They are Λ₁(α) with
z = r^(-α/2) u' for the unit ball, whose Λ₁^ε lies just above Λ₁(α), and
Λ₁(α) and 0 with the entire-space first eigenfunction and dilation kernel
for the truncated limit problem.  Pair j ≤ len(shifts) comes from shifted
inverse iteration with O(n) tridiagonal solves (`Pencil.pair`), started
from the guess, which each pencil holds as a vector on its nodes.  The
other pairs, every pair of a problem without shifts (the expanding ball)
and a shifted pair that fails its certificate come from LAPACK's bisection
and inverse iteration through one
`eigh_tridiagonal` call; a value that fails there is bisected on the
pencil's count itself.  `Pencil.eigenvalue_batch(count)` and
`Pencil.eigenvectors(count)` return the lowest `count`.  `solve_eigen`
extrapolates over two grids and returns one `EigenResult` per eigenvalue.

A Prüfer-angle shooting method on the same truncated domain provides an
independent oracle: it shoots the angle from both ends to a matching point
where the potential peaks and root-finds the smooth angle mismatch there,
integrating against a cubic spline of the potential tabulated once per call
on a uniform log-r grid.  It integrates with Hairer's Fortran DOP853 through
`scipy.integrate.ode` and root-finds with scipy's `brentq`, not with the
radial shot's own DOP853 stepper (a port of scipy's Python DOP853) and Brent
port, so that the oracle shares no stepping or root-finding code with the
profile it checks.  It loads `scipy.integrate`,
`scipy.interpolate` and `scipy.optimize` on its first call; the rest of the
module needs numpy and `scipy.linalg` alone.  The truncated entire-space
limit problem reproduces the closed-form first eigenvalue
-(α+2)(2N+α-2)/4 and the zero second eigenvalue of the bubble's dilation
kernel.
"""

from __future__ import annotations

import logging
import math
import operator
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dgtsv, dpttrf

from . import numerics, rescaling
from .closedform import (
    first_eigenfunction_closed,
    henon_constant,
    lambda1_closed,
    limit_lambda,
    threshold_exponent,
)
from .errors import BracketError, DomainError, NumericsError
from .radial import RadialProfile

log = logging.getLogger("henonball")

__all__ = [
    "SLProblem",
    "Pencil",
    "RadialGrid",
    "EigenResult",
    "LimitEigenResult",
    "assemble_pencil",
    "pencil_pair",
    "default_spectral_grid",
    "solve_eigen",
    "prufer_eigen",
    "limit_eigen",
    "limit_problem",
    "radial_kernel_test",
    "scale_equivalence_test",
    "eigfun_decay_check",
]

# first node of every spectral grid
R_MIN = 1e-6
# largest log-r spacing of the table prufer_eigen splines the potential on
PRUFER_DT = 1e-3
# solves of Pencil.pair, the first at the closed-form shift
_SHIFTED_SOLVES = 8
# Pencil.pair stops once its residual is within this many ulps of the terms
# it sums; the roundoff floor measured 0.2-0.6 ulps on 750 to 12000 nodes
_RESIDUAL_ULPS = 4.0


@dataclass(frozen=True)
class SLProblem:
    """Potential q ≥ 0 on (0, r_end) for the r^-2-weighted problem above.

    `sample` takes a 1-D array of radii r and returns (q, guesses) from one
    call: q at r, an array of the same size, and one array per shift, the
    closed-form guess of the j-th eigenvector at r.  `shifts[j-1]` is σ_j, a
    closed-form value near Λ_j.  Every pencil of the problem takes the pairs
    (σ_j, guess_j on its nodes) of `read`, and its j-th pair for
    j ≤ len(shifts) comes from `Pencil.pair(j)`, which starts from that
    guess."""

    n_dim: int
    r_end: float
    sample: Callable[[np.ndarray], tuple[np.ndarray, Sequence[np.ndarray]]]
    shifts: tuple[float, ...] = ()

    def read(self, r: np.ndarray) -> tuple[np.ndarray, tuple[tuple[float, np.ndarray], ...]]:
        """(q, ((σ_j, guess_j), …)) at the radii r, as float arrays, from one
        `sample` call.  A sample that gives a guess count other than
        len(shifts) raises DomainError naming both counts."""
        q, guesses = self.sample(r)
        if len(guesses) != len(self.shifts):
            raise DomainError(f"sample gave {len(guesses)} guesses for "
                              f"{len(self.shifts)} shifts")
        return np.asarray(q, dtype=float), tuple(
            (sigma, np.asarray(guess, dtype=float)) for sigma, guess in zip(self.shifts, guesses))

    @staticmethod
    def from_profile(profile: RadialProfile) -> "SLProblem":
        """Unit-ball form: q(r) = (p_α-ε) r^α u^(p_α-1-ε)(r), u read from
        the pair (u, u') of `profile.evaluate`.  Its one shift is the
        closed-form limit value Λ₁(α) = -(α+2)(2N+α-2)/4: Λ₁^ε(α) - Λ₁(α) is
        the boundary-flux gap g ≥ 0 (see `bifurcation`), so Λ₁^ε lies just
        above it.  Its guess is z = r^(-α/2) u', which solves the eigen
        equation at Λ₁(α) and fails only the Dirichlet condition at r = 1.
        Each `sample` call reads the profile once, with one
        `profile.evaluate(r)`, and forms q and z from that read."""
        pr = profile.params
        expn = pr.p_alpha - 1.0 - pr.eps

        def sample(r):
            u, du = profile.evaluate(r)
            q = pr.p * r**pr.alpha * np.clip(u, 0.0, None)**expn
            return q, (r ** (-pr.alpha / 2.0) * du,)

        return SLProblem(pr.n_dim, 1.0, sample, shifts=(lambda1_closed(pr.n_dim, pr.alpha),))

    @staticmethod
    def from_rescaled(rescaled: rescaling.RescaledProfile) -> "SLProblem":
        """Expanding-ball form: q(r) = (p_α-ε) C_{N,α} r^α w^(p_α-1-ε)(r)."""
        pr = rescaled.params
        expn = pr.p_alpha - 1.0 - pr.eps
        c = pr.henon_c

        def sample(r):
            w = np.clip(rescaled.evaluate(r)[0], 0.0, None)
            return pr.p * c * r**pr.alpha * w**expn, ()

        return SLProblem(pr.n_dim, rescaled.rho_eps, sample)


def limit_problem(n_dim: int, alpha: float, r_trunc: float = 1e3) -> SLProblem:
    """Truncated entire-space limit: q(r) = p_α C λ^(2+α) r^α (1+λ^(2+α) r^(2+α))^-2.

    Its shifts are the entire-space values Λ₁(α) = -(α+2)(2N+α-2)/4 and
    Λ₂ = 0 (the bubble's dilation kernel), which the truncation moves only
    slightly, and `sample` gives each one's entire-space eigenfunction as
    its guess: the first, `closedform.first_eigenfunction_closed`, and the
    dilation kernel (1 - x²)/(1 + x²)^((N+α)/(2+α)), x² = (λr)^(2+α)."""
    p_alpha = threshold_exponent(n_dim, alpha)
    c = henon_constant(n_dim, alpha)
    lam = limit_lambda(n_dim, alpha)

    def sample(r):
        r = np.asarray(r, dtype=float)
        x2 = (lam * r) ** (2.0 + alpha)
        q = p_alpha * c * lam ** (2.0 + alpha) * r**alpha / (1.0 + x2) ** 2
        kernel = (1.0 - x2) / (1.0 + x2) ** ((n_dim + alpha) / (2.0 + alpha))
        return q, (first_eigenfunction_closed(r, lam, n_dim, alpha), kernel)

    return SLProblem(n_dim, float(r_trunc), sample, shifts=(lambda1_closed(n_dim, alpha), 0.0))


def default_spectral_grid(r_end: float, n_points: int = 2000) -> np.ndarray:
    """Geometric interior grid on (0, r_end): first node R_MIN = 1e-6, last
    node one geometric step inside r_end.  Eigenfunctions of these problems
    are self-similar in log r, so log-uniform nodes resolve every decade
    alike.  `n_points` must be an integer >= 3 and `r_end` a finite number
    above R_MIN; DomainError otherwise.  `RadialGrid.log_uniform` builds the
    stencil geometry on these nodes."""
    n = _node_count(n_points)
    if not math.isfinite(r_end):
        raise DomainError(f"need a finite grid end r_end, got {r_end!r}")
    return numerics.log_grid(R_MIN, r_end, n + 1)[:-1]


def _node_count(n_points) -> int:
    """`n_points` as an int, if it is an integer >= 3 (the fewest nodes a
    pencil takes); DomainError otherwise."""
    try:
        n = operator.index(n_points)
    except TypeError:
        n = None
    if n is None or n < 3:
        raise DomainError(f"need an integer n_points >= 3, got {n_points!r}")
    return n


def _integer(value, name: str) -> int:
    """An integer or integral float `value` as an int; DomainError naming `name` otherwise."""
    if not float(value).is_integer():
        raise DomainError(f"need an integer {name}, got {value!r}")
    return int(value)


def _geometry():
    return field(init=False, repr=False)


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Interior nodes r of (0, r_end) in dimension N, with everything the
    stencil of `assemble_pencil` needs from the grid alone, computed once,
    as read-only arrays.  With nodes r_0 = 0, r, r_{n+1} = r_end, gaps
    h_i = r_i - r_{i-1} and flux F_i = m_i^(N-1)/h_i at the gap midpoints m_i:
    `flux_sum` = F_i + F_{i+1}, `a_off` = -F_i between nodes, `rn1` = r^(N-1),
    `cell` = (h_i + h_{i+1})/2 and `b_diag` = r^(N-3)·cell, checked > 0 here.
    A pencil on the grid costs only its q-dependent diagonal (`pencil`).

    The nodes must be finite, positive and strictly increasing, at least 3
    of them, below a finite r_end; DomainError otherwise.  They are copied,
    so the caller's array stays writable."""

    n_dim: int
    r_end: float
    r: np.ndarray = field(repr=False)
    flux_sum: np.ndarray = _geometry()
    a_off: np.ndarray = _geometry()
    rn1: np.ndarray = _geometry()
    cell: np.ndarray = _geometry()
    b_diag: np.ndarray = _geometry()

    def __post_init__(self):
        r, r_end = np.array(self.r, dtype=float), self.r_end
        if not math.isfinite(r_end):
            raise DomainError(f"the domain end r_end must be a finite number, got {r_end!r}")
        if r.ndim != 1 or r.size < 3:
            raise DomainError("grid must be a 1-d array with at least 3 nodes")
        if not np.isfinite(r).all():
            raise DomainError("grid nodes must be finite numbers")
        if r[0] <= 0.0:
            raise DomainError("first grid node must be > 0 (the origin is singular)")
        if np.any(np.diff(r) <= 0) or r[-1] >= r_end:
            raise DomainError("grid must increase strictly and stay inside the domain")
        ndm1 = self.n_dim - 1.0
        nodes = np.concatenate([[0.0], r, [r_end]])
        gaps = np.diff(nodes)                       # n+1 gaps
        mids = 0.5 * (nodes[:-1] + nodes[1:])
        flux = mids**ndm1 / gaps                    # n+1 couplings
        cell = 0.5 * (gaps[:-1] + gaps[1:])         # lumped cell widths at nodes
        b_diag = r ** (ndm1 - 2.0) * cell
        if np.any(b_diag <= 0):
            raise NumericsError("weight matrix lost positivity")
        geometry = dict(r=r, flux_sum=flux[:-1] + flux[1:], a_off=-flux[1:-1],
                        rn1=r**ndm1, cell=cell, b_diag=b_diag)
        for name, value in geometry.items():
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @classmethod
    def log_uniform(cls, n_dim: int, r_end: float, n_points: int) -> "RadialGrid":
        """A new grid on the nodes of `default_spectral_grid(r_end, n_points)`."""
        return cls(n_dim, r_end, default_spectral_grid(r_end, n_points))

    @property
    def n(self) -> int:
        return self.r.size

    def coarsen(self) -> "RadialGrid":
        """A new grid on every other node, r_1, r_3, ..., with its own
        geometry.  On `log_uniform(N, r_end, 2n)` it is
        `log_uniform(N, r_end, n)` bit for bit: linspace's step in log r
        halves exactly."""
        return RadialGrid(self.n_dim, self.r_end, self.r[::2])

    def pencil(self, qv, shifts: tuple[tuple[float, np.ndarray], ...] = ()) -> "Pencil":
        """The pencil of -(r^(N-1) z')' - r^(N-1) q z = Λ r^(N-3) z on this
        grid, with q = qv at the nodes and the given shifts, their guesses
        evaluated on the nodes (see `Pencil`): the diagonal
        flux_sum - r^(N-1)·q·cell is its only new array.  A non-finite q
        raises DomainError naming the first such node."""
        qv = np.asarray(qv, dtype=float)
        if not np.isfinite(qv).all():
            bad = ~np.isfinite(np.broadcast_to(qv, self.r.shape))
            raise DomainError(
                f"the potential q is not finite at {np.sum(bad)} of {self.n} grid "
                f"nodes, the first at r = {self.r[np.argmax(bad)]:.6g}"
            )
        return Pencil(grid=self.r, a_diag=self.flux_sum - self.rn1 * qv * self.cell,
                      a_off=self.a_off, b_diag=self.b_diag, shifts=shifts)


@dataclass
class Pencil:
    """Symmetric tridiagonal generalized eigenproblem A z = Λ B z (B diagonal,
    positive).  `count(x)` is the number of eigenvalues at or below x: the
    number of nonpositive pivots of the LDLᵀ factorization of the pencil's
    own A - xB from LAPACK's pttrf (Sylvester's law, B > 0), at a cost of one
    O(n) pass plus one pttrf call per eigenvalue counted.

    `eigenvalue_batch(count)` and `eigenvectors(count)` return the lowest
    `count` eigenvalues, and eigenvectors with the latter, from one ladder:
    1. pair j ≤ len(shifts) from shifted inverse iteration (`pair`) at
       (σ_j, guess_j) = `shifts[j-1]`, the problem's closed-form value near
       Λ_j and its eigenvector guess on `grid` (`SLProblem.read`);
    2. the other pairs, and a shifted pair that fails its certificates, from
       one stebz call on T = B^-1/2 A B^-1/2 over the index range they span,
       with stein's vectors when vectors are asked for (`_stebz`);
    3. a value that fails there, from `eigenvalue_bisect` on the count.
    Every rung passes `_certify`.  Rung 2 works on T, not on A - xB, so the
    count certifies it independently; a vector that fails there raises
    NumericsError.  A `count` or index j may be an integral float.

    `abs_off`, `inv_b` and `pivmin`, the operands of `pair` and `count` that
    do not depend on q, are derived from the fields on first use."""

    grid: np.ndarray
    a_diag: np.ndarray
    a_off: np.ndarray
    b_diag: np.ndarray
    shifts: tuple[tuple[float, np.ndarray], ...] = ()

    @property
    def n(self) -> int:
        return self.grid.size

    @cached_property
    def abs_off(self) -> np.ndarray:
        return np.abs(self.a_off)

    @cached_property
    def inv_b(self) -> np.ndarray:
        return 1.0 / self.b_diag

    @cached_property
    def pivmin(self) -> float:
        """The smallest pivot magnitude of `count`: tiny·max(1, max e²), as
        stebz takes it."""
        return np.finfo(float).tiny * max(1.0, float(np.max(self.a_off * self.a_off)))

    def count(self, shifts) -> np.ndarray | int:
        """The number of eigenvalues at or below each shift x: the number of
        nonpositive pivots of the LDLᵀ factorization of A - xB (Sylvester's
        law, B > 0), an int for a scalar shift and an int64 array of the
        shifts' shape otherwise.

        LAPACK's pttrf factors A - xB and stops at the first pivot ≤ 0.  That
        pivot is counted and, as stebz does, moved to min(pivot, -pivmin),
        pivmin = tiny·max(1, max e²); its Schur update goes into the next row
        and pttrf restarts on the trailing rows, the last of which is checked
        here (pttrf wants two rows).  A shift costs one O(n) pass plus one
        pttrf call per eigenvalue counted.  +inf counts all n eigenvalues,
        -inf none, and a NaN shift raises DomainError."""
        x = np.asarray(shifts, dtype=float)
        if np.isnan(x).any():
            raise DomainError(f"inertia count needs shifts that are numbers, got {shifts!r}")
        n, off = self.n, self.a_off
        out = np.empty(x.shape, dtype=np.int64)
        for i, shift in np.ndenumerate(x):
            d, e = self.a_diag - shift * self.b_diag, off.copy()
            found, start = 0, 0
            while start < n - 1:
                # pttrf overwrites d[start:] with pivots and leaves the rows
                # past a failing pivot as they were
                info = dpttrf(d[start:], e[start:], overwrite_d=1, overwrite_e=1)[2]
                if info == 0:
                    break
                k = start + info - 1
                found += 1
                if k == n - 1:
                    break
                # in Python floats, which overflow to inf without a warning
                pivot, coupling = min(float(d[k]), -self.pivmin), float(e[k])
                d[k + 1] = float(d[k + 1]) - coupling * (coupling / pivot)
                start = k + 1
            else:
                found += d[n - 1] <= 0.0
            out[i] = found
        return int(out) if x.ndim == 0 else out

    def gershgorin(self) -> tuple[float, float]:
        b = self.b_diag
        center = self.a_diag / b
        off = np.abs(self.a_off) / np.sqrt(b[:-1] * b[1:])
        radius = np.zeros_like(center)
        radius[: -1] += off
        radius[1:] += off
        return float(np.min(center - radius)), float(np.max(center + radius))

    def eigenvalue_batch(self, count: int) -> np.ndarray:
        """The lowest `count` eigenvalues, each inertia-certified.  The
        certificate counts at 2·count shifts, each count up to `count` pttrf
        calls, so certifying costs O(count²) calls: at count = 300 on 2000
        nodes a solve took 1.25 s where stebz's bisection alone took 0.77 s.
        No package caller asks for more than 4."""
        return self._lowest(count, vectors=False)[0]

    def eigenvectors(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """The lowest `count` eigenvalues and their eigenvectors, one row of
        `zs` per eigenvalue, each scaled to sup norm 1 with its first interior
        hump positive; both certificates checked."""
        return self._lowest(count, vectors=True)

    def _lowest(self, count: int, vectors: bool) -> tuple[np.ndarray, np.ndarray]:
        """Pairs 1..count down the ladder (see the class); without
        `vectors` the second item is an empty (0, n) array."""
        count = _integer(count, "count")
        if not 1 <= count <= self.n:
            raise DomainError(f"eigenvalue count out of range 1..{self.n}")
        shifted = [self.pair(j) for j in range(1, min(count, len(self.shifts)) + 1)]
        vals, zs = self._stebz(len(shifted) + 1, count, vectors)
        vals = np.concatenate([[lam for lam, _ in shifted], vals])
        if vectors:
            zs = np.vstack([*(z for _, z in shifted), zs])
        return vals, zs

    def _stebz(self, first: int, last: int, vectors: bool) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues first..last from LAPACK's Sturm-sequence bisection
        (stebz) on T = B^-1/2 A B^-1/2, the similar standard problem, and
        with `vectors` their eigenvectors by inverse iteration (stein), scaled
        as `eigenvectors` scales them (else an empty (0, n) array), all
        through `_certify`.  T can span too many scales for stebz's absolute
        tolerance, so values that fail are redone by `eigenvalue_bisect` on
        this pencil's own count; vectors that fail raise NumericsError."""
        js = range(first, last + 1)
        if not js:
            return np.empty(0), np.empty((0, self.n))
        sqrt_b = np.sqrt(self.b_diag)
        t_off = self.a_off / (sqrt_b[:-1] * sqrt_b[1:])
        out = eigh_tridiagonal(self.a_diag / self.b_diag, t_off, eigvals_only=not vectors,
                               select="i", select_range=(first - 1, last - 1))
        if vectors:
            vals, vecs = out
            zs = np.array([z / np.max(np.abs(z)) * _first_hump_sign(z)
                           for z in (vecs / sqrt_b[:, None]).T])
            self._certify(js, vals, zs)
            return vals, zs
        try:
            self._certify(js, out)
        except NumericsError:
            out = np.array([self.eigenvalue_bisect(j) for j in js])
            self._certify(js, out)
        return out, np.empty((0, self.n))

    def pair(self, j: int) -> tuple[float, np.ndarray]:
        """The j-th eigenvalue and its eigenvector, scaled as in
        `eigenvectors`, by shifted inverse iteration from (σ, guess) =
        `shifts[j-1]`; 1 ≤ j ≤ len(shifts).

        One solve of (A - σB) y = B x, from x = guess, pulls x towards the
        eigenvector nearest σ.  Rayleigh-quotient shifts then converge
        cubically.  Each solve is one O(n) LAPACK gtsv.  Once
        the residual |Ax - μBx|, in the B^-1 norm, is within a few ulps of
        the terms it sums, |A||x| + |μ|B|x|, one more solve at that μ settles
        the entries far below the sup norm, such as the tail at r -> 1 that
        φ'(1) is read from; at most 8 solves in all.  On the unit ball's 1500- and
        3000-node pencils a pair takes 2 or 3 solves.  Against stein's
        vector the tail then agrees to about 1e-12 relative, down to tails
        1e-17 of the sup norm.  The pair carries both certificates
        (`_certify`).  When a certificate fails, a solve is singular or an
        iterate is not finite, one WARNING on the "henonball" logger says so
        and the pair comes from `_stebz` instead."""
        j = _integer(j, "j")
        if not 1 <= j <= len(self.shifts):
            raise DomainError(
                f"pair {j} needs a shift; this pencil has {len(self.shifts)}"
            )
        shift, guess = self.shifts[j - 1]
        try:
            lam, x = self._shifted_iteration(shift, guess)
            self._certify([j], np.array([lam]), [x])
        except NumericsError as err:
            log.warning("eigenpair %d from the shift %.9g falls back to stebz: %s",
                        j, shift, err)
            vals, zs = self._stebz(j, j, vectors=True)
            return float(vals[0]), zs[0]
        return lam, x * _first_hump_sign(x)

    def _shifted_iteration(self, sigma: float, x: np.ndarray) -> tuple[float, np.ndarray]:
        """(μ, x) of the iteration in `pair` from σ and the guess x, x at sup
        norm 1; the first solve is at σ, the others at the last μ."""
        a, off, b = self.a_diag, self.a_off, self.b_diag
        abs_a, abs_off, inv_b = np.abs(a), self.abs_off, self.inv_b
        tol = (_RESIDUAL_ULPS * np.finfo(float).eps) ** 2
        bx, mu, converged = b * x, sigma, False
        for _ in range(_SHIFTED_SOLVES):
            *_, y, info = dgtsv(off, a - mu * b, off, bx)
            scale = np.max(np.abs(y)) if info == 0 else 0.0
            if not 0.0 < scale < np.inf:
                raise NumericsError(f"shifted solve failed at {mu:.9g} (info={info})")
            x = y / scale
            if converged:
                break
            ax, bx = _tridiagonal_product(a, off, x), b * x
            mu = float(np.dot(x, ax) / np.dot(x, bx))
            residual = ax - mu * bx
            terms = _tridiagonal_product(abs_a, abs_off, np.abs(x)) + abs(mu) * np.abs(bx)
            # a norm is blind to the tail; the solve after this test
            # settles it (see pair)
            converged = (np.dot(residual * residual, inv_b)
                         <= tol * np.dot(terms * terms, inv_b))
        return mu, x

    def _certify(self, js: Sequence[int], vals: np.ndarray, zs=()) -> None:
        """The certificates of every eigenpair: for each j = js[i], at most
        j-1 eigenvalues lie at or below vals[i] - gap and at least j at or
        below vals[i] + gap (inertia, from `count`'s LDLᵀ pivots: two shifts,
        each one O(n) pttrf pass plus one call per eigenvalue counted), and
        the vector zs[i], if given, has j-1 sign changes (node count);
        NumericsError otherwise."""
        gap = 1e-10 * np.maximum(1.0, np.abs(vals))
        counts = self.count(np.concatenate([vals - gap, vals + gap]))
        for j, v, c_lo, c_hi in zip(js, vals, counts[: len(js)], counts[len(js):]):
            if not (c_lo <= j - 1 and c_hi >= j):
                raise NumericsError(
                    f"inertia certificate failed for eigenvalue {j} at {v:.9g}: "
                    f"counts ({c_lo}, {c_hi})"
                )
        for j, v, z in zip(js, vals, zs):
            nodes = node_count(z)
            if nodes != j - 1:
                raise NumericsError(
                    f"node-count certificate failed for eigenvalue {j} at {v:.9g}: "
                    f"{nodes} sign changes"
                )

    def eigenvalue_bisect(self, j: int) -> float:
        """Self-contained bisection on this pencil's inertia count, to a
        relative width of 1e-12; slower than stebz but with no eigensolver
        in the loop.  The upper end grows from Gershgorin's lower end
        by doubling steps until it counts j, capped at Gershgorin's upper
        end, so the counts stay near j: a count costs one pttrf call per
        eigenvalue it counts (see `count`)."""
        j = _integer(j, "j")
        if not 1 <= j <= self.n:
            raise DomainError(f"eigenvalue index out of range 1..{self.n}")
        lo, top = self.gershgorin()
        step = max(1.0, abs(lo)) / 1024.0
        hi = lo + step
        while hi < top and self.count(hi) < j:
            lo, step = hi, 2.0 * step
            hi = lo + step
        hi = min(hi, top)
        for _ in range(300):
            mid = 0.5 * (lo + hi)
            if self.count(mid) < j:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-12 * max(1.0, abs(lo), abs(hi)):
                return 0.5 * (lo + hi)
        raise NumericsError("eigenvalue bisection did not converge")


def _tridiagonal_product(diag: np.ndarray, off: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M x for the symmetric tridiagonal M with these diagonals."""
    out = diag * x
    out[:-1] += off * x[1:]
    out[1:] += off * x[:-1]
    return out


def _first_hump_sign(z: np.ndarray) -> float:
    """+1/-1 so that the first interior extremum of |z| is positive."""
    az = np.abs(z)
    mid = az[1:-1]
    humps = np.flatnonzero((mid >= 0.05 * np.max(az)) & (mid >= az[:-2]) & (mid >= az[2:]))
    i = humps[0] + 1 if humps.size else np.argmax(az)
    return 1.0 if z[i] > 0 else -1.0


def node_count(z: np.ndarray) -> int:
    """Sign changes of a discrete eigenvector, ignoring entries below 1e-8
    of its sup norm (noise level)."""
    zz = z[np.abs(z) > 1e-8 * np.max(np.abs(z))]
    return int(np.sum(zz[:-1] * zz[1:] < 0))


def assemble_pencil(problem: SLProblem, grid: np.ndarray | RadialGrid) -> Pencil:
    """Conservative three-point discretization of
    -(r^(N-1) z')' - r^(N-1) q z = Λ r^(N-3) z on the given interior grid,
    with Dirichlet values at both domain ends, from one `problem.read` of q
    and the guesses on the grid's nodes.

    `grid` is an array of interior nodes, finite and strictly increasing
    inside (0, r_end), at least 3 of them, whose stencil geometry is built
    here (`RadialGrid`), or a RadialGrid already built for the problem's N
    and r_end, whose geometry is reused; DomainError otherwise, and also
    for a potential that is not finite at some node.
    """
    if not isinstance(grid, RadialGrid):
        grid = RadialGrid(problem.n_dim, problem.r_end, grid)
    elif (grid.n_dim, grid.r_end) != (problem.n_dim, problem.r_end):
        raise DomainError(
            f"grid built for N={grid.n_dim}, r_end={grid.r_end!r}, "
            f"problem has N={problem.n_dim}, r_end={problem.r_end!r}"
        )
    return grid.pencil(*problem.read(grid.r))


def pencil_pair(problem: SLProblem, n_points: int) -> tuple[Pencil, Pencil]:
    """The (coarse, fine) pencils of a two-grid solve, each equal to
    `assemble_pencil` on `default_spectral_grid(r_end, n)` for n = n_points
    and 2·n_points, from one `problem.read` on the fine grid.  Both
    `RadialGrid`s are built on every call: the fine one by
    `RadialGrid.log_uniform`, the coarse one as its `coarsen()`."""
    fine = RadialGrid.log_uniform(problem.n_dim, problem.r_end, 2 * _node_count(n_points))
    return _pencils_on((fine.coarsen(), fine), *problem.read(fine.r))


def _pencils_on(grids: tuple[RadialGrid, RadialGrid], qv: np.ndarray,
                shifts: tuple[tuple[float, np.ndarray], ...]) -> tuple[Pencil, Pencil]:
    """The pencils of `pencil_pair` on a (coarse, fine) pair whose coarse
    grid is the fine one's `coarsen()`, from the fine sample: q and the
    shifts (σ_j, guess_j) of `SLProblem.read` on the fine nodes.  The coarse
    pencil takes every other entry, its guesses as contiguous copies, since
    `np.dot` (`flux_gap`) sums a strided view in another order."""
    coarse, fine = grids
    fine_pencil = fine.pencil(qv, shifts)   # checks every q read
    return coarse.pencil(qv[::2], tuple((s, g[::2].copy()) for s, g in shifts)), fine_pencil


@dataclass
class EigenResult:
    """The j-th eigenvalue of an SLProblem from `solve_eigen`: the two-grid
    Richardson value `extrapolated` = (4 λ_fine - λ_coarse)/3 and, when
    vectors were requested, the fine-grid eigenvector z on its grid r with
    its certified node count.  On the values-only path `node_count` is None
    and `r`, `z` are empty.

    `error_estimate` is |λ_fine - λ_coarse|/3, the extrapolation increment.
    For a second-order scheme it estimates the error of the fine-grid value
    λ_fine, not that of `extrapolated`, which is usually far smaller."""

    j: int
    extrapolated: float
    error_estimate: float
    node_count: int | None
    r: np.ndarray
    z: np.ndarray


def solve_eigen(
    problem: SLProblem,
    count: int = 1,
    n_points: int = 2000,
    with_vectors: bool = True,
) -> list[EigenResult]:
    """Eigenvalues of an SLProblem with two-grid Richardson extrapolation.

    The scheme converges at second order in the geometric step, so the
    extrapolated value uses (4 λ_fine - λ_coarse)/3; the error estimate is the
    extrapolation increment |λ_fine - λ_coarse|/3, the fine-grid value's
    error (see EigenResult).  Both grids' values are
    inertia-certified and must increase strictly.  Eigenvectors, if asked
    for, come from the fine grid with their node-count certificate.  The
    n_points/2·n_points pair and its one q read are `pencil_pair`'s.
    Certifying `count` values costs O(count²) pttrf calls (see
    `Pencil.eigenvalue_batch`).  `count` may be an integral float.
    """
    if _integer(count, "count") < 1:
        raise DomainError("count must be >= 1")
    coarse, fine = pencil_pair(problem, n_points)
    lam_c = coarse.eigenvalue_batch(count)
    if with_vectors:
        lam_f, zs = fine.eigenvectors(count)
    else:
        lam_f = fine.eigenvalue_batch(count)
    if np.any(np.diff(lam_c) <= 0) or np.any(np.diff(lam_f) <= 0):
        raise NumericsError("eigenvalues are not strictly increasing")
    empty = np.empty(0)
    return [
        EigenResult(
            j=j,
            extrapolated=(4.0 * f - c) / 3.0,
            error_estimate=abs(f - c) / 3.0,
            node_count=j - 1 if with_vectors else None,
            r=fine.grid if with_vectors else empty,
            z=zs[j - 1] if with_vectors else empty,
        )
        for j, (c, f) in enumerate(zip(lam_c.tolist(), lam_f.tolist()), start=1)
    ]


def prufer_eigen(problem: SLProblem, j: int, bracket: tuple[float, float]) -> float:
    """Independent eigenvalue oracle by Prüfer-angle shooting to a matching
    point.

    In t = log r with y = r^((N-2)/2) z the equation becomes
    y'' + [Λ - ((N-2)/2)² + V(t)] y = 0, V(t) = e^(2t) q(e^t), and the angle
    θ of (y', y) obeys θ' = cos²θ + v sin²θ, v = Λ - ((N-2)/2)² + V.  The
    left angle θ_L starts at 0 at r = 1e-7 and runs forward; the right angle
    θ_R starts at jπ at r_end and runs backward.  Both stop at the matching
    point t_m, the table node where V peaks, kept one node inside either end.
    The j-th eigenvalue is the Λ where θ_L(t_m) = θ_R(t_m).  The mismatch
    θ_L(t_m) - θ_R(t_m) is smooth and increasing in Λ, so brentq converges
    superlinearly on it; the end angle of a one-sided shot is instead close
    to a π-step in Λ, locked past the last turning point.  The bracket must
    give mismatches of opposite sign.  Each shot runs Hairer's Fortran DOP853
    (`scipy.integrate.ode`, scipy's default step limit) at rtol 1e-11,
    atol 1e-12; it stays outside the package on purpose, so the oracle is
    independent of `radial`'s stepper, which computed the profile behind q.
    A shot that the Fortran code abandons raises NumericsError with its
    return code.

    V is tabulated once per call, from the q of one `problem.sample` call, on a
    uniform grid in t from log 1e-7 to log r_end with spacing at most
    PRUFER_DT = 1e-3 (~16k nodes on the unit ball), and the right-hand side
    evaluates the cubic spline of that table.  A table with a non-finite
    entry raises DomainError.  For the bracket Λ₁ ± 0.05 at N=3, α=2,
    ε=0.05 the call takes 6 mismatch evaluations, 12 half-length
    integrations.  The index j must be an integer ≥ 1 (an integral float
    is accepted, as in `ProblemParams`); DomainError otherwise.
    """
    if not (float(j).is_integer() and j >= 1):
        raise DomainError(f"need an integer eigenvalue index j >= 1, got {j!r}")
    # imported here to keep scipy.integrate, scipy.interpolate and
    # scipy.optimize out of the CLI's start-up
    from scipy.integrate import ode
    from scipy.interpolate import CubicSpline
    from scipy.optimize import brentq

    n_dim = problem.n_dim
    shift = ((n_dim - 2.0) / 2.0) ** 2
    t0, t1 = math.log(1e-7), math.log(problem.r_end)
    cells = math.ceil((t1 - t0) / PRUFER_DT)
    nodes = np.linspace(t0, t1, cells + 1)
    r = np.exp(nodes)
    v_tab = r * r * np.asarray(problem.sample(r)[0], dtype=float)
    bad = ~np.isfinite(v_tab)
    if np.any(bad):
        raise DomainError(
            f"Prüfer's potential table V = r² q(r) is not finite at {np.sum(bad)} "
            f"of {v_tab.size} nodes, the first at r = {r[np.argmax(bad)]:.6g}"
        )
    spline = CubicSpline(nodes, v_tab)
    t_m = float(nodes[min(max(int(np.argmax(v_tab)), 1), cells - 1)])
    # plain-Python Horner on memoryviews of the coefficient rows: no numpy
    # call per step, and no 16k-element float lists held during the shooting
    c3, c2, c1, c0 = (memoryview(row) for row in spline.c)
    dt = (t1 - t0) / cells
    base = 0.0  # Λ - ((N-2)/2)² of the shot in flight

    def rhs(t, theta):
        i = min(max(int((t - t0) / dt), 0), cells - 1)
        d = t - (t0 + i * dt)  # linspace's node i, bit for bit
        v = base + ((c3[i] * d + c2[i]) * d + c1[i]) * d + c0[i]
        s, c = math.sin(theta[0]), math.cos(theta[0])
        return [c * c + v * s * s]

    # one solver for every shot of the call: scipy's wrapper keeps a
    # reference to the rhs and to the integrator on each run and never drops
    # it, so a fresh pair per shot would pile up (about 0.7 kB per shot);
    # set_initial_value restarts the Fortran code from scratch
    shot = ode(rhs).set_integrator("dop853", rtol=1e-11, atol=1e-12)

    def angle(lam: float, t_start: float, theta_start: float) -> float:
        nonlocal base
        base = lam - shift
        shot.set_initial_value([theta_start], t_start)
        # the wrapper also warns when the Fortran code gives up; the return
        # code below reports it instead
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            theta = shot.integrate(t_m)
        if not shot.successful():
            said = "; ".join(str(w.message) for w in caught)
            raise NumericsError(
                f"Prüfer integration failed: DOP853 return code "
                f"{shot.get_return_code()} ({said})"
            )
        return float(theta[0])

    def mismatch(lam: float) -> float:
        return angle(lam, t0, 0.0) - angle(lam, t1, j * math.pi)

    lo, hi = bracket
    try:
        m_lo, m_hi = mismatch(lo), mismatch(hi)
        if not (m_lo < 0.0 < m_hi):
            raise BracketError(
                f"bracket ({lo}, {hi}) does not straddle eigenvalue {j}: "
                f"matching misses ({m_lo:.3f}, {m_hi:.3f})"
            )
        ends = {lo: m_lo, hi: m_hi}

        def matched(lam: float) -> float:
            # brentq opens with the two bracket ends, already evaluated above
            return ends.pop(lam) if lam in ends else mismatch(lam)

        return float(brentq(matched, lo, hi, xtol=1e-10, rtol=8.9e-16))
    finally:
        # scipy's wrapper never drops its references to rhs, so only the
        # released views let the spline table (0.5 MB) go on return
        for view in (c3, c2, c1, c0):
            view.release()


@dataclass(frozen=True)
class LimitEigenResult:
    """Lowest two eigenvalues of the truncated limit problem with their
    truncation-sensitivity estimates."""

    lambda1: float
    lambda2: float
    lambda1_trunc_shift: float
    lambda2_trunc_shift: float


def limit_eigen(n_dim: int, alpha: float) -> LimitEigenResult:
    """Lowest two eigenvalues of the limit linearization truncated at
    r_trunc = 1e3, Richardson-extrapolated over 3000- and 6000-node grids,
    with a mandatory sensitivity re-run at twice the truncation radius.
    Both come from `Pencil.pair` at the problem's shifts (Λ₁(α), 0), started
    from the entire-space eigenfunctions beside them, so the four pencils
    run no bisection unless a certificate fails.  Each call
    solves afresh; `bifurcation.SolverCache.limit` keeps one result per
    (N, α)."""
    r_trunc = 1e3

    def pair(rt: float) -> tuple[float, float]:
        res = solve_eigen(
            limit_problem(n_dim, alpha, rt), count=2, n_points=3000, with_vectors=False
        )
        return res[0].extrapolated, res[1].extrapolated

    l1, l2 = pair(r_trunc)
    l1b, l2b = pair(2.0 * r_trunc)
    return LimitEigenResult(
        lambda1=l1,
        lambda2=l2,
        lambda1_trunc_shift=abs(l1b - l1),
        lambda2_trunc_shift=abs(l2b - l2),
    )


def radial_kernel_test(profile: RadialProfile) -> float:
    """Radial nondegeneracy witness: v(1) for the solution of the linearized
    equation

        v'' + (N-1)/r v' + (p_α-ε) r^α u^(p_α-1-ε) v = 0,  v(0)=1, v'(0)=0.

    A nonzero value certifies that the linearization has no radial kernel
    (degeneracy would force v(1) = 0 together with v'(1) = 0).  No second
    integration is needed: the equation is invariant under the scaling
    u ↦ λ^β u(λ·), β = (2+α)/(p-1), so its generator w = βu + r u' solves the
    linearized equation with w(0) = βu0 and w'(0) = 0.  Hence v = w/(βu0), and
    u(1) = 0 gives v(1) = u'(1)/(βu0)."""
    pr = profile.params
    beta = (2.0 + pr.alpha) / (pr.p - 1.0)
    _, du1 = profile.evaluate(np.array([1.0]))
    return float(du1[0] / (beta * profile.u0))


def scale_equivalence_test(profile: RadialProfile) -> float:
    """Max |Λ_j(unit ball) - Λ_j(expanding ball)| for j ≤ 3, the expanding
    ball built by `rescaling.rescale(profile)`.

    The r^-2 spectral weight makes the two formulations exactly isospectral
    under x → ρ x.  The expanding-ball grid is ρ times the 2000-node
    unit-ball grid, so any discrepancy isolates the κ/ρ bookkeeping and the
    two assembly paths."""
    rescaled = rescaling.rescale(profile)
    grid_u = default_spectral_grid(1.0)
    lam_u = assemble_pencil(SLProblem.from_profile(profile), grid_u).eigenvalue_batch(3)
    lam_w = assemble_pencil(
        SLProblem.from_rescaled(rescaled), rescaled.rho_eps * grid_u
    ).eigenvalue_batch(3)
    return float(np.max(np.abs(lam_u - lam_w)))


def eigfun_decay_check(eig: EigenResult, n_dim: int) -> float:
    """Smallest C with |z(r)| ≤ C r^-(N-2) and |z'(r)| ≤ C r^-(N-1) on r ≥ 1
    for a sup-norm-1 eigenfunction sampled on its grid."""
    if eig.z.size == 0:
        raise DomainError("eigenvector samples required")
    r, z = eig.r, eig.z
    dz = np.gradient(z, r)
    mask = r >= 1.0
    if not np.any(mask):
        raise DomainError("eigenfunction grid does not reach r = 1")
    c_val = np.max(r[mask] ** (n_dim - 2) * np.abs(z[mask]))
    c_der = np.max(r[mask] ** (n_dim - 1) * np.abs(dz[mask]))
    return float(max(c_val, c_der))
