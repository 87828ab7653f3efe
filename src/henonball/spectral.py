"""Singular Sturm-Liouville spectra of the linearized Henon operator.

The eigenvalue problem is

    -z'' - (N-1)/r z' - q(r) z = Λ z / r²,   z(0) = z(R) = 0,

discretized in the self-adjoint form -(r^(N-1) z')' - r^(N-1) q z = Λ r^(N-3) z
by a conservative three-point scheme on a graded grid.  Both pencil matrices
are symmetric tridiagonal (the weight matrix diagonal), so eigenvalues come
from Sturm-sequence bisection with inertia certificates, eigenvectors from
LAPACK's tridiagonal solver (`eigh_tridiagonal`), and node counts are checked
against the eigenvalue index.

A Prüfer-angle shooting method on the same truncated domain provides an
independent oracle, and the truncated entire-space limit problem reproduces
the closed-form first eigenvalue -(α+2)(2N+α-2)/4 and the zero second
eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dstebz
from scipy.optimize import brentq

from . import numerics
from .closedform import henon_constant, limit_lambda, threshold_exponent
from .errors import BracketError, DomainError, NumericsError
from .radial import RadialProfile
from .rescaling import RescaledProfile

__all__ = [
    "SLProblem",
    "Pencil",
    "EigenResult",
    "LimitEigenResult",
    "assemble_pencil",
    "default_spectral_grid",
    "eigenvalues",
    "solve_eigen",
    "prufer_eigen",
    "limit_eigen",
    "limit_problem",
    "radial_kernel_test",
    "radial_pencil",
    "scale_equivalence_test",
    "eigfun_decay_check",
]

R_MIN_DEFAULT = 1e-6
# stebz tolerance that skips bisection: Sturm counts only
_COUNT_ONLY_TOL = float(np.finfo(float).max)


@dataclass(frozen=True)
class SLProblem:
    """Potential q ≥ 0 on (0, r_end) for the r^-2-weighted problem above."""

    n_dim: int
    r_end: float
    q: Callable[[np.ndarray], np.ndarray]
    label: str = ""

    @staticmethod
    def from_profile(profile: RadialProfile) -> "SLProblem":
        """Unit-ball form: q(r) = (p_α-ε) r^α u^(p_α-1-ε)(r)."""
        pr = profile.params
        expn = pr.p_alpha - 1.0 - pr.eps

        def q(r):
            u = np.clip(np.asarray(profile.evaluate(r)), 0.0, None)
            return pr.p * np.asarray(r) ** pr.alpha * u**expn

        return SLProblem(pr.n_dim, 1.0, q, label=f"ball(N={pr.n_dim},a={pr.alpha},e={pr.eps})")

    @staticmethod
    def from_rescaled(rescaled: RescaledProfile) -> "SLProblem":
        """Expanding-ball form: q(r) = (p_α-ε) C_{N,α} r^α w^(p_α-1-ε)(r)."""
        pr = rescaled.params
        expn = pr.p_alpha - 1.0 - pr.eps
        c = pr.henon_c

        def q(r):
            w = np.clip(np.asarray(rescaled.evaluate(r)), 0.0, None)
            return pr.p * c * np.asarray(r) ** pr.alpha * w**expn

        return SLProblem(
            pr.n_dim, rescaled.rho_eps, q,
            label=f"expanded(N={pr.n_dim},a={pr.alpha},e={pr.eps})",
        )


def limit_problem(n_dim: int, alpha: float, r_trunc: float = 1e3) -> SLProblem:
    """Truncated entire-space limit: q(r) = p_α C λ^(2+α) r^α (1+λ^(2+α) r^(2+α))^-2."""
    p_alpha = threshold_exponent(n_dim, alpha)
    c = henon_constant(n_dim, alpha)
    lam = limit_lambda(n_dim, alpha)

    def q(r):
        r = np.asarray(r, dtype=float)
        x = (lam * r) ** (2.0 + alpha)
        return p_alpha * c * lam ** (2.0 + alpha) * r**alpha / (1.0 + x) ** 2

    return SLProblem(n_dim, float(r_trunc), q, label=f"limit(N={n_dim},a={alpha})")


def default_spectral_grid(
    r_end: float, n_points: int = 2000, r_min: float = R_MIN_DEFAULT
) -> np.ndarray:
    """Geometric interior grid on (0, r_end): first node r_min, last node one
    geometric step inside r_end.  Eigenfunctions of these problems are
    self-similar in log r, so log-uniform nodes resolve every decade alike."""
    return numerics.log_grid(r_min, r_end, n_points + 1)[:-1]


@dataclass
class Pencil:
    """Symmetric tridiagonal generalized eigenproblem A z = Λ B z (B diagonal,
    positive).  `count(x)` is the number of eigenvalues at or below x: LAPACK
    stebz's Sturm count on the pencil's own A - xB (Sylvester's law, B > 0).
    The fast eigenvalue path runs stebz on T = B^-1/2 A B^-1/2 instead, so
    the count certifies it independently."""

    grid: np.ndarray
    a_diag: np.ndarray
    a_off: np.ndarray
    b_diag: np.ndarray

    @property
    def n(self) -> int:
        return self.grid.size

    def count(self, shifts) -> np.ndarray | int:
        x = np.asarray(shifts, dtype=float)
        out = np.empty(x.shape, dtype=np.int64)
        for i, shift in np.ndenumerate(x):
            # range 1 selects by value, here (-inf, 0]; a tolerance this coarse
            # stops stebz after the Sturm counts at the interval ends, so m is
            # the exact count of nonpositive eigenvalues of A - xB
            m, _, _, _, info = dstebz(
                self.a_diag - shift * self.b_diag, self.a_off,
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
        """The js-th smallest eigenvalues (1-based) by Sturm-sequence
        bisection (LAPACK stebz on the similarity-transformed tridiagonal),
        each certified against this pencil's own inertia count."""
        js = sorted(set(int(j) for j in js))
        if not js:
            return np.empty(0)
        if js[0] < 1 or js[-1] > self.n:
            raise DomainError(f"eigenvalue index out of range 1..{self.n}")
        t_diag, t_off = self.standard_tridiagonal()
        vals = eigh_tridiagonal(
            t_diag, t_off, eigvals_only=True, select="i", select_range=(0, js[-1] - 1)
        )
        out = np.array([vals[j - 1] for j in js])
        try:
            self._certify(js, out)
        except NumericsError:
            # the transformed matrix can span too many scales for the fast
            # path (absolute LAPACK tolerance); redo on this pencil's own
            # shift-robust inertia count
            out = np.array([self.eigenvalue_bisect(j) for j in js])
            self._certify(js, out)
        return out

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

    def eigenvalue_bisect(self, j: int, tol: float = 1e-12) -> float:
        """Self-contained bisection on this pencil's inertia count; slower
        than eigenvalue_batch but with no external solver in the loop."""
        if not 1 <= j <= self.n:
            raise DomainError(f"eigenvalue index out of range 1..{self.n}")
        lo, hi = self.gershgorin()
        for _ in range(300):
            mid = 0.5 * (lo + hi)
            if self.count(mid) < j:
                lo = mid
            else:
                hi = mid
            if hi - lo < tol * max(1.0, abs(lo), abs(hi)):
                return 0.5 * (lo + hi)
        raise NumericsError("eigenvalue bisection did not converge")

    def eigenvalue(self, j: int) -> float:
        return float(self.eigenvalue_batch([j])[0])


def _first_hump_sign(z: np.ndarray) -> float:
    """+1/-1 so that the first interior extremum of |z| is positive."""
    az = np.abs(z)
    thresh = 0.05 * np.max(az)
    for i in range(1, z.size - 1):
        if az[i] >= thresh and az[i] >= az[i - 1] and az[i] >= az[i + 1]:
            return 1.0 if z[i] > 0 else -1.0
    return 1.0 if z[np.argmax(az)] > 0 else -1.0


def node_count(z: np.ndarray, rel_floor: float = 1e-8) -> int:
    """Sign changes of a discrete eigenvector, ignoring noise-level entries."""
    zz = z[np.abs(z) > rel_floor * np.max(np.abs(z))]
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
    spectral weight.
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
    return Pencil(grid=r, a_diag=a_diag, a_off=a_off, b_diag=b_diag)


@dataclass
class EigenResult:
    """One eigenvalue with its certificates: inertia-certified index,
    node count of the eigenvector, and (after grid refinement) the
    Richardson-extrapolated value with a three-grid error estimate."""

    j: int
    lambda_j: float
    node_count: int
    grid_sizes: tuple[int, ...]
    extrapolated: float | None
    error_estimate: float | None
    r: np.ndarray
    z: np.ndarray

    @property
    def value(self) -> float:
        return self.lambda_j if self.extrapolated is None else self.extrapolated


def eigenvalues(pencil: Pencil, count: int, with_vectors: bool = True) -> list[EigenResult]:
    """Lowest `count` eigenvalues of the pencil by Sturm bisection.

    Each value carries an inertia certificate (exactly j-1 eigenvalues below
    it, j at or below the bracket top) and, when vectors are requested, the
    node-count certificate node_count == j-1.
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    js = list(range(1, count + 1))
    if with_vectors:
        t_diag, t_off = pencil.standard_tridiagonal()
        vals, vecs = eigh_tridiagonal(
            t_diag, t_off, select="i", select_range=(0, count - 1)
        )
        pencil._certify(js, vals)
        zs = vecs / np.sqrt(pencil.b_diag)[:, None]
    else:
        vals = pencil.eigenvalue_batch(js)
    results = []
    for idx, j in enumerate(js):
        if with_vectors:
            z = zs[:, idx]
            z = z / np.max(np.abs(z)) * _first_hump_sign(z)
            nodes = node_count(z)
            if nodes != j - 1:
                raise NumericsError(
                    f"node-count certificate failed for eigenvalue {j}: "
                    f"{nodes} sign changes"
                )
        else:
            z, nodes = np.empty(0), j - 1
        results.append(
            EigenResult(
                j=j,
                lambda_j=float(vals[idx]),
                node_count=nodes,
                grid_sizes=(pencil.n,),
                extrapolated=None,
                error_estimate=None,
                r=pencil.grid,
                z=z,
            )
        )
    if any(b.lambda_j <= a.lambda_j for a, b in zip(results, results[1:])):
        raise NumericsError("eigenvalues are not strictly increasing")
    return results


def solve_eigen(
    problem: SLProblem,
    count: int = 1,
    n_points: int = 2000,
    r_min: float = R_MIN_DEFAULT,
    with_vectors: bool = True,
) -> list[EigenResult]:
    """Eigenvalues of an SLProblem with two-grid Richardson extrapolation.

    The scheme converges at second order in the geometric step, so the
    extrapolated value uses (4 λ_fine - λ_coarse)/3; the error estimate is the
    extrapolation increment |λ_fine - λ_coarse|/3.  Eigenvectors, if asked
    for, come from the fine grid.
    """
    coarse = eigenvalues(
        assemble_pencil(problem, default_spectral_grid(problem.r_end, n_points, r_min)),
        count,
        with_vectors=False,
    )
    fine = eigenvalues(
        assemble_pencil(
            problem, default_spectral_grid(problem.r_end, 2 * n_points, r_min)
        ),
        count,
        with_vectors=with_vectors,
    )
    out = []
    for c, f in zip(coarse, fine):
        extrap = numerics.richardson_pair(c.lambda_j, f.lambda_j, order=2)
        out.append(
            replace(
                f,
                grid_sizes=(n_points, 2 * n_points),
                extrapolated=extrap,
                error_estimate=abs(f.lambda_j - c.lambda_j) / 3.0,
            )
        )
    return out


def prufer_eigen(
    problem: SLProblem,
    j: int,
    bracket: tuple[float, float],
    r_min: float = 1e-7,
    rtol: float = 1e-11,
) -> float:
    """Independent eigenvalue oracle by Prüfer-angle shooting.

    In t = log r with y = r^((N-2)/2) z the equation becomes
    y'' + [Λ - ((N-2)/2)² + e^(2t) q(e^t)] y = 0; the angle of (y', y)
    advances monotonically in Λ and the j-th eigenvalue is the Λ where the
    angle reaches jπ at the outer end.  The bracket must produce oscillation
    counts straddling j.
    """
    n_dim = problem.n_dim
    shift = ((n_dim - 2.0) / 2.0) ** 2
    t0, t1 = math.log(r_min), math.log(problem.r_end)

    def miss(lam: float) -> float:
        def rhs(t, theta):
            v = lam - shift + math.exp(2.0 * t) * float(problem.q(math.exp(t)))
            s, c = math.sin(theta[0]), math.cos(theta[0])
            return [c * c + v * s * s]

        sol = solve_ivp(rhs, (t0, t1), [0.0], method="DOP853", rtol=rtol, atol=1e-12)
        if sol.status != 0:
            raise NumericsError(f"Prüfer integration failed: {sol.message}")
        return sol.y[0, -1] - j * math.pi

    lo, hi = bracket
    m_lo, m_hi = miss(lo), miss(hi)
    if not (m_lo < 0.0 < m_hi):
        raise BracketError(
            f"bracket ({lo}, {hi}) does not straddle eigenvalue {j}: "
            f"oscillation misses ({m_lo:.3f}, {m_hi:.3f})"
        )
    return float(brentq(miss, lo, hi, xtol=1e-10, rtol=8.9e-16))


@dataclass(frozen=True)
class LimitEigenResult:
    """Lowest two eigenvalues of the truncated limit problem with grid- and
    truncation-sensitivity estimates."""

    n_dim: int
    alpha: float
    r_trunc: float
    lambda1: float
    lambda2: float
    lambda1_error: float
    lambda2_error: float
    lambda1_trunc_shift: float
    lambda2_trunc_shift: float


def limit_eigen(
    n_dim: int,
    alpha: float,
    r_trunc: float = 1e3,
    n_points: int = 3000,
    r_min: float = R_MIN_DEFAULT,
) -> LimitEigenResult:
    """Lowest two eigenvalues of the limit linearization truncated at r_trunc,
    Richardson-extrapolated over two grids, with a mandatory sensitivity
    re-run at twice the truncation radius."""
    def pair(rt: float) -> tuple[float, float, float, float]:
        res = solve_eigen(
            limit_problem(n_dim, alpha, rt),
            count=2,
            n_points=n_points,
            r_min=r_min,
            with_vectors=False,
        )
        return (
            res[0].extrapolated,
            res[1].extrapolated,
            res[0].error_estimate,
            res[1].error_estimate,
        )

    l1, l2, e1, e2 = pair(r_trunc)
    l1b, l2b, _, _ = pair(2.0 * r_trunc)
    return LimitEigenResult(
        n_dim=n_dim,
        alpha=alpha,
        r_trunc=r_trunc,
        lambda1=l1,
        lambda2=l2,
        lambda1_error=e1,
        lambda2_error=e2,
        lambda1_trunc_shift=abs(l1b - l1),
        lambda2_trunc_shift=abs(l2b - l2),
    )


def radial_kernel_test(profile: RadialProfile, tol: float = 1e-11) -> float:
    """Radial nondegeneracy witness: integrate the linearized equation

        v'' + (N-1)/r v' + (p_α-ε) r^α u^(p_α-1-ε) v = 0,  v(0)=1, v'(0)=0,

    and return v(1).  A nonzero value certifies that the linearization has no
    radial kernel (degeneracy would force v(1) = 0 together with v'(1) = 0)."""
    pr = profile.params
    expn = pr.p_alpha - 1.0 - pr.eps
    c0 = pr.p * profile.u0**expn

    r0 = 1e-8
    y0 = (
        1.0 - c0 * r0 ** (2.0 + pr.alpha) / ((2.0 + pr.alpha) * (pr.n_dim + pr.alpha)),
        -c0 * r0 ** (1.0 + pr.alpha) / (pr.n_dim + pr.alpha),
    )

    def rhs(r, y):
        u = max(float(profile.evaluate(r)), 0.0)
        pot = pr.p * r**pr.alpha * u**expn
        return (y[1], -(pr.n_dim - 1.0) / r * y[1] - pot * y[0])

    sol = solve_ivp(rhs, (r0, 1.0), y0, method="DOP853", rtol=tol, atol=1e-13)
    if sol.status != 0:
        raise NumericsError(f"linearized radial integration failed: {sol.message}")
    return float(sol.y[0, -1])


def radial_pencil(
    profile: RadialProfile, n_points: int = 2000, r_min: float = R_MIN_DEFAULT
) -> Pencil:
    """Pencil of the purely radial (k = 0) linearization: plain r^(N-1)
    weight, no flux through the origin, Dirichlet at r = 1.  Its inertia at 0
    is the radial Morse index; an eigenvalue at 0 would mean radial
    degeneracy."""
    problem = SLProblem.from_profile(profile)
    grid = default_spectral_grid(1.0, n_points, r_min)
    return assemble_pencil(
        problem, grid, left_bc="natural", weight_power=problem.n_dim - 1.0
    )


def scale_equivalence_test(
    profile: RadialProfile,
    rescaled: RescaledProfile,
    j_max: int = 3,
    n_points: int = 2000,
    matched_grids: bool = True,
) -> float:
    """Max |Λ_j(unit ball) - Λ_j(expanding ball)| for j ≤ j_max.

    The r^-2 spectral weight makes the two formulations exactly isospectral
    under x → ρ x.  With matched_grids the expanding-ball grid is ρ times the
    unit-ball grid, so any discrepancy isolates the κ/ρ bookkeeping and the
    two assembly paths; otherwise each form uses its own default grid and the
    discrepancy also carries discretization differences."""
    if rescaled._profile is not profile and rescaled.params != profile.params:
        raise DomainError("rescaled must come from the same parameters as profile")
    grid_u = default_spectral_grid(1.0, n_points)
    prob_u = SLProblem.from_profile(profile)
    prob_w = SLProblem.from_rescaled(rescaled)
    grid_w = (
        rescaled.rho_eps * grid_u
        if matched_grids
        else default_spectral_grid(rescaled.rho_eps, n_points)
    )
    js = list(range(1, j_max + 1))
    lam_u = assemble_pencil(prob_u, grid_u).eigenvalue_batch(js)
    lam_w = assemble_pencil(prob_w, grid_w).eigenvalue_batch(js)
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
