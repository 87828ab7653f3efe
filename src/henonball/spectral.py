"""Singular Sturm-Liouville spectra of the linearized Henon operator.

The eigenvalue problem is

    -z'' - (N-1)/r z' - q(r) z = Λ z / r²,   z(0) = z(R) = 0,

discretized in the self-adjoint form -(r^(N-1) z')' - r^(N-1) q z = Λ r^(N-3) z
by a conservative three-point scheme on a graded grid.  Both pencil matrices
are symmetric tridiagonal (the weight matrix diagonal).  Every eigenvalue
carries an inertia certificate from the pencil's own Sturm count and every
eigenvector a node-count certificate.  The lowest pair of a unit-ball
pencil, whose Λ₁ lies just above the closed-form limit value, comes from
shifted inverse iteration with O(n) tridiagonal solves
(`Pencil.lowest_pair`); the other pairs, and every pair of a pencil without
that shift, come from LAPACK's bisection and inverse iteration through
`eigh_tridiagonal` (`Pencil.eigenvalue_batch`, `Pencil.eigenvectors`).
`solve_eigen` extrapolates over two grids and returns one `EigenResult` per
eigenvalue.

A Prüfer-angle shooting method on the same truncated domain provides an
independent oracle: it shoots the angle from both ends to a matching point
where the potential peaks and root-finds the smooth angle mismatch there,
integrating against a cubic spline of the potential tabulated once per call
on a uniform log-r grid.  It integrates with scipy's `solve_ivp` and
root-finds with scipy's `brentq`, not with the radial shot's own DOP853
stepper and Brent port, so that the oracle shares no stepping or root-finding
code with the profile it checks.  It loads `scipy.integrate`,
`scipy.interpolate` and `scipy.optimize` on its first call; the rest of the
module needs numpy and `scipy.linalg` alone.  The truncated entire-space
limit problem reproduces the closed-form first eigenvalue
-(α+2)(2N+α-2)/4 and the zero second eigenvalue.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dgtsv, dstebz

from . import numerics, rescaling
from .closedform import henon_constant, lambda1_closed, limit_lambda, threshold_exponent
from .errors import BracketError, DomainError, NumericsError
from .radial import RadialProfile

log = logging.getLogger("henonball")

__all__ = [
    "SLProblem",
    "Pencil",
    "EigenResult",
    "LimitEigenResult",
    "assemble_pencil",
    "default_spectral_grid",
    "solve_eigen",
    "solve_pencil_pair",
    "prufer_eigen",
    "limit_eigen",
    "limit_problem",
    "radial_kernel_test",
    "radial_pencil",
    "scale_equivalence_test",
    "eigfun_decay_check",
]

# first node of every spectral grid
R_MIN = 1e-6
# largest log-r spacing of the table prufer_eigen splines the potential on
PRUFER_DT = 1e-3
# stebz tolerance that skips bisection: Sturm counts only
_COUNT_ONLY_TOL = float(np.finfo(float).max)
# solves of Pencil.lowest_pair: the first two at the pencil's own shift
_SHIFTED_SOLVES = 8
# lowest_pair stops once its residual is within this many ulps of the terms
# it sums; the roundoff floor measured 0.2-0.6 ulps on 750 to 12000 nodes
_RESIDUAL_ULPS = 4.0


@dataclass(frozen=True)
class SLProblem:
    """Potential q ≥ 0 on (0, r_end) for the r^-2-weighted problem above.

    `shift`, when set, lies at or just below Λ₁; the Dirichlet pencils of
    the problem then take their lowest pair from `Pencil.lowest_pair`."""

    n_dim: int
    r_end: float
    q: Callable[[np.ndarray], np.ndarray]
    shift: float | None = None

    @staticmethod
    def from_profile(profile: RadialProfile) -> "SLProblem":
        """Unit-ball form: q(r) = (p_α-ε) r^α u^(p_α-1-ε)(r), read through
        `profile.evaluate` (anything with RadialProfile's `params` and
        `evaluate` serves).  Its shift is the closed-form limit value
        Λ₁(α) = -(α+2)(2N+α-2)/4: Λ₁^ε(α) - Λ₁(α) is the boundary-flux gap
        g ≥ 0 (see `bifurcation`), so Λ₁^ε lies just above it."""
        pr = profile.params
        expn = pr.p_alpha - 1.0 - pr.eps

        def q(r):
            u = np.clip(np.asarray(profile.evaluate(r)), 0.0, None)
            return pr.p * np.asarray(r) ** pr.alpha * u**expn

        return SLProblem(pr.n_dim, 1.0, q, shift=lambda1_closed(pr.n_dim, pr.alpha))

    @staticmethod
    def from_rescaled(rescaled: rescaling.RescaledProfile) -> "SLProblem":
        """Expanding-ball form: q(r) = (p_α-ε) C_{N,α} r^α w^(p_α-1-ε)(r)."""
        pr = rescaled.params
        expn = pr.p_alpha - 1.0 - pr.eps
        c = pr.henon_c

        def q(r):
            w = np.clip(np.asarray(rescaled.evaluate(r)), 0.0, None)
            return pr.p * c * np.asarray(r) ** pr.alpha * w**expn

        return SLProblem(pr.n_dim, rescaled.rho_eps, q)


def limit_problem(n_dim: int, alpha: float, r_trunc: float = 1e3) -> SLProblem:
    """Truncated entire-space limit: q(r) = p_α C λ^(2+α) r^α (1+λ^(2+α) r^(2+α))^-2."""
    p_alpha = threshold_exponent(n_dim, alpha)
    c = henon_constant(n_dim, alpha)
    lam = limit_lambda(n_dim, alpha)

    def q(r):
        r = np.asarray(r, dtype=float)
        x = (lam * r) ** (2.0 + alpha)
        return p_alpha * c * lam ** (2.0 + alpha) * r**alpha / (1.0 + x) ** 2

    return SLProblem(n_dim, float(r_trunc), q)


def default_spectral_grid(r_end: float, n_points: int = 2000) -> np.ndarray:
    """Geometric interior grid on (0, r_end): first node R_MIN = 1e-6, last
    node one geometric step inside r_end.  Eigenfunctions of these problems
    are self-similar in log r, so log-uniform nodes resolve every decade
    alike."""
    return numerics.log_grid(R_MIN, r_end, n_points + 1)[:-1]


@dataclass
class Pencil:
    """Symmetric tridiagonal generalized eigenproblem A z = Λ B z (B diagonal,
    positive).  `count(x)` is the number of eigenvalues at or below x: LAPACK
    stebz's Sturm count on the pencil's own A - xB (Sylvester's law, B > 0).
    The fast eigenvalue path runs stebz on T = B^-1/2 A B^-1/2 instead, so
    the count certifies it independently.  `shift`, when set, lies at or
    just below the lowest eigenvalue, and the lowest pair then comes from
    `lowest_pair`."""

    grid: np.ndarray
    a_diag: np.ndarray
    a_off: np.ndarray
    b_diag: np.ndarray
    shift: float | None = None

    @property
    def n(self) -> int:
        return self.grid.size

    def count(self, shifts) -> np.ndarray | int:
        x = np.asarray(shifts, dtype=float)
        out = np.empty(x.shape, dtype=np.int64)
        # f2py wants n-1 >= 1 off-diagonal entries; LAPACK reads none at n = 1
        off = self.a_off if self.n > 1 else np.zeros(1)
        for i, shift in np.ndenumerate(x):
            # range 1 selects by value, here (-inf, 0]; a tolerance this coarse
            # stops stebz after the Sturm counts at the interval ends, so m is
            # the exact count of nonpositive eigenvalues of A - xB
            m, _, _, _, info = dstebz(
                self.a_diag - shift * self.b_diag, off,
                1, -np.inf, 0.0, 0, 0, _COUNT_ONLY_TOL, b"B",
            )
            if info:
                raise NumericsError(
                    f"stebz inertia count failed at shift {shift:.9g} (info={info})"
                )
            out[i] = m
        return int(out) if x.ndim == 0 else out

    def gershgorin(self) -> tuple[float, float]:
        b = self.b_diag
        center = self.a_diag / b
        off = np.abs(self.a_off) / np.sqrt(b[:-1] * b[1:])
        radius = np.zeros_like(center)
        radius[: -1] += off
        radius[1:] += off
        return float(np.min(center - radius)), float(np.max(center + radius))

    def standard_tridiagonal(self) -> tuple[np.ndarray, np.ndarray]:
        """Diagonals of T = B^-1/2 A B^-1/2, the similar standard problem."""
        sqrt_b = np.sqrt(self.b_diag)
        return self.a_diag / self.b_diag, self.a_off / (sqrt_b[:-1] * sqrt_b[1:])

    def eigenvalue_batch(self, js: Sequence[int]) -> np.ndarray:
        """The js-th smallest eigenvalues (1-based), each certified against
        this pencil's own inertia count.  With a shift, the first comes from
        `lowest_pair`; the others come from Sturm-sequence bisection (LAPACK
        stebz on the similarity-transformed tridiagonal), asked for the index
        range they span."""
        js = sorted(set(int(j) for j in js))
        if not js:
            return np.empty(0)
        if js[0] < 1 or js[-1] > self.n:
            raise DomainError(f"eigenvalue index out of range 1..{self.n}")
        if js[0] == 1 and self.shift is not None:
            return np.concatenate([[self.lowest_pair()[0]], self._stebz_values(js[1:])])
        return self._stebz_values(js)

    def _stebz_values(self, js: list[int]) -> np.ndarray:
        if not js:
            return np.empty(0)
        t_diag, t_off = self.standard_tridiagonal()
        vals = eigh_tridiagonal(t_diag, t_off, eigvals_only=True, select="i",
                                select_range=(js[0] - 1, js[-1] - 1))
        out = vals[np.array(js) - js[0]]
        try:
            self._certify(js, out)
        except NumericsError:
            # the transformed matrix can span too many scales for the fast
            # path (absolute LAPACK tolerance); redo on this pencil's own
            # shift-robust inertia count
            out = np.array([self.eigenvalue_bisect(j) for j in js])
            self._certify(js, out)
        return out

    def eigenvectors(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """The lowest `count` eigenvalues and their eigenvectors, one row of
        `zs` per eigenvalue, each scaled to sup norm 1 with its first interior
        hump positive.  The values carry the inertia certificate and each
        vector the node-count certificate node_count == j-1; NumericsError
        otherwise.  With a shift, the first pair comes from `lowest_pair`."""
        if not 1 <= count <= self.n:
            raise DomainError(f"eigenvalue count out of range 1..{self.n}")
        if self.shift is None:
            return self._stebz_pairs(1, count)
        lam, phi = self.lowest_pair()
        vals, zs = self._stebz_pairs(2, count)
        return np.concatenate([[lam], vals]), np.vstack([phi, zs])

    def _stebz_pairs(self, first: int, last: int) -> tuple[np.ndarray, np.ndarray]:
        """Pairs first..last from stebz and stein, both certificates
        checked, as `eigenvectors` returns them."""
        js = list(range(first, last + 1))
        if not js:
            return np.empty(0), np.empty((0, self.n))
        t_diag, t_off = self.standard_tridiagonal()
        vals, vecs = eigh_tridiagonal(
            t_diag, t_off, select="i", select_range=(first - 1, last - 1)
        )
        self._certify(js, vals)
        zs = np.array([z / np.max(np.abs(z)) * _first_hump_sign(z)
                       for z in (vecs / np.sqrt(self.b_diag)[:, None]).T])
        for j, z in zip(js, zs):
            nodes = node_count(z)
            if nodes != j - 1:
                raise NumericsError(
                    f"node-count certificate failed for eigenvalue {j}: "
                    f"{nodes} sign changes"
                )
        return vals, zs

    def lowest_pair(self) -> tuple[float, np.ndarray]:
        """The lowest eigenvalue and its eigenvector, scaled as in
        `eigenvectors`, by shifted inverse iteration from `shift`.

        Two solves of (A - σB) y = B x at σ = `shift`, from x = B·1, pull x
        towards the eigenvector nearest σ; Rayleigh-quotient shifts then
        converge cubically.  Each solve is one O(n) LAPACK gtsv.  Once the
        residual |Ax - μBx|, in the B^-1 norm, is within a few ulps of the
        terms it sums, |A||x| + |μ|B|x|, one more solve at that μ settles the
        entries far below the sup norm, such as the tail at r -> 1 that
        φ'(1) is read from; at most 8 solves in all.  Against stein's vector
        the tail then agrees to about 1e-12 relative, down to tails 1e-17
        of the sup norm.  The pair carries both certificates of
        `eigenvectors`: the
        inertia count places μ as the first eigenvalue, and x has no node.
        When a certificate fails, a solve is singular or an iterate is not
        finite, one WARNING on the "henonball" logger says so and the pair
        comes from stebz and stein instead."""
        if self.shift is None:
            raise DomainError("lowest_pair needs a pencil with a shift")
        try:
            lam, x = self._shifted_iteration()
            self._certify([1], np.array([lam]))
            nodes = node_count(x)
            if nodes != 0:
                raise NumericsError(f"node-count certificate failed: {nodes} sign changes")
        except NumericsError as err:
            log.warning("lowest eigenpair from the shift %.9g falls back to stebz: %s",
                        self.shift, err)
            vals, zs = self._stebz_pairs(1, 1)
            return float(vals[0]), zs[0]
        return lam, x * _first_hump_sign(x)

    def _shifted_iteration(self) -> tuple[float, np.ndarray]:
        """(μ, x) of the iteration in `lowest_pair`, x at sup norm 1."""
        a, off, b = self.a_diag, self.a_off, self.b_diag
        abs_a, abs_off, inv_b = np.abs(a), np.abs(off), 1.0 / b
        tol = (_RESIDUAL_ULPS * np.finfo(float).eps) ** 2
        x, mu, converged = b, self.shift, False
        for solve in range(_SHIFTED_SOLVES):
            shift = self.shift if solve < 2 else mu
            *_, y, info = dgtsv(off, a - shift * b, off, b * x)
            scale = np.max(np.abs(y)) if info == 0 else 0.0
            if not 0.0 < scale < np.inf:
                raise NumericsError(f"shifted solve failed at {shift:.9g} (info={info})")
            x = y / scale
            if converged:
                break
            ax, bx = _tridiagonal_product(a, off, x), b * x
            mu = float(np.dot(x, ax) / np.dot(x, bx))
            residual = ax - mu * bx
            terms = _tridiagonal_product(abs_a, abs_off, np.abs(x)) + abs(mu) * np.abs(bx)
            # a norm is blind to the tail; the solve after this test
            # settles it (see lowest_pair)
            converged = (np.dot(residual * residual, inv_b)
                         <= tol * np.dot(terms * terms, inv_b))
        return mu, x

    def _certify(self, js: Sequence[int], vals: np.ndarray) -> None:
        """Inertia certificate: for each j = js[i], at most j-1 eigenvalues
        lie at or below vals[i] - gap and at least j at or below vals[i] + gap;
        NumericsError otherwise."""
        gap = 1e-10 * np.maximum(1.0, np.abs(vals))
        counts = self.count(np.concatenate([vals - gap, vals + gap]))
        for j, v, c_lo, c_hi in zip(js, vals, counts[: len(js)], counts[len(js):]):
            if not (c_lo <= j - 1 and c_hi >= j):
                raise NumericsError(
                    f"inertia certificate failed for eigenvalue {j} at {v:.9g}: "
                    f"counts ({c_lo}, {c_hi})"
                )

    def eigenvalue_bisect(self, j: int) -> float:
        """Self-contained bisection on this pencil's inertia count, to a
        relative width of 1e-12; slower than eigenvalue_batch but with no
        external solver in the loop."""
        if not 1 <= j <= self.n:
            raise DomainError(f"eigenvalue index out of range 1..{self.n}")
        lo, hi = self.gershgorin()
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


def assemble_pencil(
    problem: SLProblem,
    grid: np.ndarray,
    left_bc: str = "dirichlet",
    weight_power: float | None = None,
) -> Pencil:
    """Conservative three-point discretization of
    -(r^(N-1) z')' - r^(N-1) q z = Λ r^w z on the given interior grid.

    `grid` must be strictly increasing inside (0, r_end); the first node must
    be positive.  Dirichlet values are imposed at both domain ends; for the
    purely radial (k = 0) problem pass left_bc="natural" (no flux through
    r = 0) and weight_power N-1.  Default weight power is N-3, the r^-2
    spectral weight.  The pencil takes the problem's shift only with both
    defaults, the spectrum the shift was derived for.
    """
    r = np.asarray(grid, dtype=float)
    if r.ndim != 1 or r.size < 3:
        raise DomainError("grid must be a 1-d array with at least 3 nodes")
    if r[0] <= 0.0:
        raise DomainError("first grid node must be > 0 (the origin is singular)")
    if np.any(np.diff(r) <= 0) or r[-1] >= problem.r_end:
        raise DomainError("grid must increase strictly and stay inside the domain")
    if left_bc not in ("dirichlet", "natural"):
        raise DomainError(f"unknown left_bc {left_bc!r}")
    ndm1 = problem.n_dim - 1.0
    w = ndm1 - 2.0 if weight_power is None else float(weight_power)

    nodes = np.concatenate([[0.0], r, [problem.r_end]])
    gaps = np.diff(nodes)                       # n+1 gaps
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    flux = mids**ndm1 / gaps                    # n+1 couplings

    cell = 0.5 * (gaps[:-1] + gaps[1:])         # lumped cell widths at nodes
    qv = np.asarray(problem.q(r), dtype=float)
    a_diag = flux[:-1] + flux[1:] - r**ndm1 * qv * cell
    a_off = -flux[1:-1]
    b_diag = r**w * cell
    if left_bc == "natural":
        # half-open first cell [0, mid_0]: no flux through the origin
        a_diag[0] = flux[1] - r[0] ** ndm1 * qv[0] * mids[1]
        b_diag[0] = r[0] ** w * mids[1]
    if np.any(b_diag <= 0):
        raise NumericsError("weight matrix lost positivity")
    # the problem's shift belongs to its Dirichlet, r^-2-weighted spectrum
    shift = problem.shift if left_bc == "dirichlet" and weight_power is None else None
    return Pencil(grid=r, a_diag=a_diag, a_off=a_off, b_diag=b_diag, shift=shift)


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
    grids have n_points and 2·n_points nodes (`default_spectral_grid`); see
    `solve_pencil_pair`.
    """
    coarse = assemble_pencil(problem, default_spectral_grid(problem.r_end, n_points))
    fine = assemble_pencil(problem, default_spectral_grid(problem.r_end, 2 * n_points))
    return solve_pencil_pair(coarse, fine, count, with_vectors)


def solve_pencil_pair(
    coarse: Pencil,
    fine: Pencil,
    count: int = 1,
    with_vectors: bool = True,
) -> list[EigenResult]:
    """`solve_eigen` on pencils already assembled on a grid and on its
    refinement with twice the nodes, for a caller that reads the pencils
    again."""
    if count < 1:
        raise DomainError("count must be >= 1")
    js = list(range(1, count + 1))
    lam_c = coarse.eigenvalue_batch(js)
    if with_vectors:
        lam_f, zs = fine.eigenvectors(count)
    else:
        lam_f = fine.eigenvalue_batch(js)
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
            z=zs[i] if with_vectors else empty,
        )
        for i, (j, c, f) in enumerate(zip(js, lam_c.tolist(), lam_f.tolist()))
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
    give mismatches of opposite sign.  scipy's `solve_ivp` runs DOP853 at
    rtol 1e-11, atol 1e-12; it stays on scipy on purpose, so the oracle is
    independent of `radial`'s stepper, which computed the profile behind q.

    V is tabulated once per call, with one array call of `problem.q`, on a
    uniform grid in t from log 1e-7 to log r_end with spacing at most
    PRUFER_DT = 1e-3 (~16k nodes on the unit ball), and the right-hand side
    evaluates the cubic spline of that table.  For the bracket Λ₁ ± 0.05 at
    N=3, α=2, ε=0.05 the call takes 6 mismatch evaluations, 12 half-length
    integrations.
    """
    # imported here to keep scipy.integrate, scipy.interpolate and
    # scipy.optimize out of the CLI's start-up
    from scipy.integrate import solve_ivp
    from scipy.interpolate import CubicSpline
    from scipy.optimize import brentq

    n_dim = problem.n_dim
    shift = ((n_dim - 2.0) / 2.0) ** 2
    t0, t1 = math.log(1e-7), math.log(problem.r_end)
    cells = math.ceil((t1 - t0) / PRUFER_DT)
    nodes = np.linspace(t0, t1, cells + 1)
    r = np.exp(nodes)
    v_tab = r * r * np.asarray(problem.q(r), dtype=float)
    spline = CubicSpline(nodes, v_tab)
    t_m = float(nodes[min(max(int(np.argmax(v_tab)), 1), cells - 1)])
    # plain-Python Horner on memoryviews of the coefficient rows: no numpy
    # call per step, and no 16k-element float lists held during the shooting
    c3, c2, c1, c0 = (memoryview(row) for row in spline.c)
    dt = (t1 - t0) / cells

    def angle(lam: float, t_start: float, theta_start: float) -> float:
        base = lam - shift

        def rhs(t, theta):
            i = min(max(int((t - t0) / dt), 0), cells - 1)
            d = t - (t0 + i * dt)  # linspace's node i, bit for bit
            v = base + ((c3[i] * d + c2[i]) * d + c1[i]) * d + c0[i]
            s, c = math.sin(theta[0]), math.cos(theta[0])
            return [c * c + v * s * s]

        sol = solve_ivp(
            rhs, (t_start, t_m), [theta_start], method="DOP853", rtol=1e-11, atol=1e-12
        )
        if sol.status != 0:
            raise NumericsError(f"Prüfer integration failed: {sol.message}")
        return sol.y[0, -1]

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
        # each solve_ivp solver sits in a reference cycle that holds rhs, so
        # the views would keep the spline table (0.5 MB) alive until the next
        # full collection; released, the table is freed on return
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
    with a mandatory sensitivity re-run at twice the truncation radius."""
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
    _, du1 = profile.evaluate(1.0, derivative=True)
    return float(du1 / (beta * profile.u0))


def radial_pencil(profile: RadialProfile, n_points: int = 2000) -> Pencil:
    """Pencil of the purely radial (k = 0) linearization: plain r^(N-1)
    weight, no flux through the origin, Dirichlet at r = 1.  Its inertia at 0
    is the radial Morse index; an eigenvalue at 0 would mean radial
    degeneracy."""
    problem = SLProblem.from_profile(profile)
    grid = default_spectral_grid(1.0, n_points)
    return assemble_pencil(
        problem, grid, left_bc="natural", weight_power=problem.n_dim - 1.0
    )


def scale_equivalence_test(profile: RadialProfile) -> float:
    """Max |Λ_j(unit ball) - Λ_j(expanding ball)| for j ≤ 3, the expanding
    ball built by `rescaling.rescale(profile)`.

    The r^-2 spectral weight makes the two formulations exactly isospectral
    under x → ρ x.  The expanding-ball grid is ρ times the 2000-node
    unit-ball grid, so any discrepancy isolates the κ/ρ bookkeeping and the
    two assembly paths."""
    rescaled = rescaling.rescale(profile)
    grid_u = default_spectral_grid(1.0)
    js = [1, 2, 3]
    lam_u = assemble_pencil(SLProblem.from_profile(profile), grid_u).eigenvalue_batch(js)
    lam_w = assemble_pencil(
        SLProblem.from_rescaled(rescaled), rescaled.rho_eps * grid_u
    ).eigenvalue_batch(js)
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
