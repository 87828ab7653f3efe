"""Automated acceptance suite: every quantitative claim the package is built
to check, with pinned targets and tolerances.

Each criterion is a generator that yields its (id, target, measured,
tolerance, passed) records one at a time; `run_criteria` executes a selection
(by id prefix), stamps each record's `runtime_s` with the time since the
previous record arrived, and assembles a VerifyReport.  The criteria keep
their own clocks only where a wall-time limit is part of what they check
(C1, C3, C4).  A shared in-process cache keeps the radial solves and the
limit spectra (C1 and C2 share two of their four) from being repeated across
criteria.

The criteria read the solvers directly: C3 extrapolates ε·u(0)² from
`solve_dirichlet_ball` along EPS_SWEEP, C4 makes one `find_bifurcation_alpha`
pass over EPS_SWEEP, and C6 takes the minimum of Λ₂ from `lambda_values`.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import bifurcation as bif
from . import numerics
from . import rescaling as resc
from . import spectral as spec
from .closedform import ProblemParams, lambda1_closed, sup_norm_constant
from .errors import DomainError
from .io import SCHEMA_VERSION
from .radial import (
    decay_bound_check,
    default_profile_grid,
    fowler_check,
    integrate_radial_ivp,
    rk45_first_zero,
    solve_dirichlet_ball,
)

__all__ = ["CriterionResult", "VerifyReport", "run_criteria", "CRITERIA"]


@dataclass(frozen=True)
class CriterionResult:
    id: str
    description: str
    target: str
    measured: float
    tolerance: float
    passed: bool
    runtime_s: float = 0.0

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return (
            f"[{mark}] {self.id:<14} measured={self.measured: .6e} "
            f"tol={self.tolerance:.1e}  ({self.description})"
        )


@dataclass
class VerifyReport:
    results: list[CriterionResult] = field(default_factory=list)

    @property
    def overall_pass(self) -> bool:
        return bool(self.results) and all(r.passed for r in self.results)

    @property
    def total_runtime_s(self) -> float:
        return sum(r.runtime_s for r in self.results)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "verify_report",
            "overall_pass": self.overall_pass,
            "total_runtime_s": self.total_runtime_s,
            "criteria": [asdict(r) for r in sorted(self.results, key=lambda r: r.id)],
        }


EPS_SWEEP = (0.1, 0.05, 0.02, 0.01)


def _c1_limit_eigen(cache):
    """C1: Closed-form limit first eigenvalues."""
    # closed-form first eigenvalue of the truncated limit problem; the
    # formula -(α+2)(2N+α-2)/4 gives -6, -2 and -8 for these cases
    for tag, n_dim, alpha in (("a", 3, 2.0), ("b", 3, 0.0), ("c", 4, 2.0)):
        t0 = time.perf_counter()
        res = cache.limit(n_dim, alpha)
        dt = time.perf_counter() - t0
        target = lambda1_closed(n_dim, alpha)
        err = abs(res.lambda1 - target)
        yield CriterionResult(
            f"C1.{tag}",
            f"limit first eigenvalue, N={n_dim}, alpha={alpha}",
            f"{target}",
            err,
            1e-4,
            err < 1e-4 and dt <= 30.0,
        )


def _c2_limit_lambda2(cache):
    """C2: Zero second eigenvalue of the limit problem."""
    for alpha in (0.0, 1.0, 2.0):
        res = cache.limit(3, alpha)
        yield CriterionResult(
            f"C2.val_a{alpha:g}",
            f"zero second limit eigenvalue, N=3, alpha={alpha}",
            "0",
            abs(res.lambda2),
            1e-2,
            abs(res.lambda2) < 1e-2,
        )
        yield CriterionResult(
            f"C2.sens_a{alpha:g}",
            f"truncation sensitivity of second eigenvalue, alpha={alpha}",
            "0",
            res.lambda2_trunc_shift,
            5e-3,
            res.lambda2_trunc_shift < 5e-3,
        )


def _c3_sup_norm(cache):
    """C3: Sup-norm asymptotics eps*u0^2 -> M(4,0)."""
    t0 = time.perf_counter()
    big_m = sup_norm_constant(4, 0.0)
    vals = [eps * solve_dirichlet_ball(ProblemParams(4, 0.0, eps)).u0**2
            for eps in EPS_SWEEP]
    dt = time.perf_counter() - t0
    rel = abs(numerics.extrapolate_to_zero(EPS_SWEEP, vals) - 96.0) / 96.0
    yield CriterionResult(
        "C3.extrap",
        "eps*u0^2 extrapolated to 0 against M(4,0)=96",
        "96",
        rel,
        0.02,
        rel < 0.02 and dt <= 20.0,
    )
    gaps = [abs(1.0 - val / big_m) for val in vals]
    monotone = all(b <= a for a, b in zip(gaps, gaps[1:]))
    yield CriterionResult(
        "C3.monotone",
        "ratio column approaches 1 monotonically",
        "monotone",
        0.0 if monotone else 1.0,
        0.5,
        monotone,
    )


def _c4_bifurcation_convergence(cache):
    """C4: Bifurcation point convergence, N=3, k=2."""
    t0 = time.perf_counter()
    points = [bif.find_bifurcation_alpha(3, eps, 2, cache=cache) for eps in EPS_SWEEP]
    dt = time.perf_counter() - t0
    worst_residual = max(bp.residual for bp in points)
    yield CriterionResult(
        "C4.residual",
        "crossing residual |lambda1 + sigma_2| at each root",
        "0",
        worst_residual,
        1e-6,
        worst_residual < 1e-6 and dt <= 180.0,
    )
    errs = [abs(bp.delta) for bp in points]
    yield CriterionResult(
        "C4.trend",
        "|alpha_2^eps - 2| nonincreasing along eps",
        "nonincreasing",
        max([b - a for a, b in zip(errs, errs[1:])], default=0.0),
        0.0,
        all(b <= a for a, b in zip(errs, errs[1:])),
    )
    max_error = max(errs)
    yield CriterionResult(
        "C4.limit",
        "every alpha_2^eps within 1e-4 of the limit value 2",
        "2",
        max_error,
        1e-4,
        max_error < 1e-4,
    )


def _c5_morse_jump(cache):
    """C5: Morse index jump across alpha_2."""
    bp = bif.find_bifurcation_alpha(3, 0.01, 2, cache=cache)
    delta = 0.05
    below = bif.morse_index(3, 0.01, bp.alpha_k_eps - delta, cache=cache)
    above = bif.morse_index(3, 0.01, bp.alpha_k_eps + delta, cache=cache)
    inv_jump = above.index_invariant - below.index_invariant
    yield CriterionResult(
        "C5.invariant",
        "index jump across alpha_2^eps in the invariant subspace",
        "1",
        float(inv_jump),
        0.5,
        inv_jump == 1,
    )
    full_jump = above.index_full - below.index_full
    yield CriterionResult(
        "C5.full",
        "full index jump equals the sigma_2 multiplicity at N=3",
        "5",
        float(full_jump),
        0.5,
        full_jump == 5,
    )


def _c6_lambda2_floor(cache):
    """C6: Second-eigenvalue floor on alpha in [1,5]."""
    floor_val = min(bif.lambda_values(3, 0.01, a, 2, cache)[1]
                    for a in np.linspace(1.0, 5.0, 9))
    yield CriterionResult(
        "C6.floor",
        "min of lambda2 over alpha in [1,5] stays above -sigma_1 = -2",
        "> -2",
        floor_val,
        2.0,
        floor_val > -2.0,
    )


def _c7_radial_nondegeneracy(cache):
    """C7: Radial nondegeneracy across the sweep."""
    worst = np.inf
    for eps in (0.05, 0.01):
        for alpha in np.arange(0.5, 4.51, 0.5):
            prof = cache.profile(3, float(alpha), eps)
            worst = min(worst, abs(spec.radial_kernel_test(prof)))
    yield CriterionResult(
        "C7.kernel",
        "radial linearized solution |v(1)| over the (alpha, eps) sweep",
        "> 1e-3",
        worst,
        1e-3,
        worst > 1e-3,
    )


def _c8_oracles(cache):
    """C8: Independent-oracle agreements."""
    worst = 0.0
    for n_dim, alpha, p in ((3, 2.0, 5.0), (4, 1.0, 2.5)):
        za = integrate_radial_ivp(n_dim, alpha, p).first_zero
        zb = rk45_first_zero(n_dim, alpha, p)
        worst = max(worst, abs(za - zb) / za)
    yield CriterionResult(
        "C8.a_integrators",
        "first-zero agreement of two independent integrators",
        "0",
        worst,
        1e-8,
        worst < 1e-8,
    )

    prof = cache.profile(3, 2.0, 0.05)
    prob = spec.SLProblem.from_profile(prof)
    lam1 = spec.solve_eigen(prob, 1, with_vectors=False)[0].extrapolated
    diff = abs(spec.prufer_eigen(prob, 1, (lam1 - 0.05, lam1 + 0.05)) - lam1)
    yield CriterionResult(
        "C8.b_prufer",
        "pencil vs Prüfer first eigenvalue, N=3, alpha=2, eps=0.05",
        "0",
        diff,
        1e-6,
        diff < 1e-6,
    )

    d = spec.scale_equivalence_test(prof)
    yield CriterionResult(
        "C8.c_scale",
        "unit-ball vs expanding-ball spectrum, j <= 3",
        "0",
        d,
        1e-6,
        d < 1e-6,
    )

    fw = fowler_check(prof)
    yield CriterionResult(
        "C8.d_fowler",
        "transformed-equation residual of the Dirichlet profile",
        "0",
        fw,
        1e-6,
        fw < 1e-6,
    )

    params = ProblemParams(3, 2.0, 0.05)
    p1 = solve_dirichlet_ball(params, amplitude=1.0)
    p4 = solve_dirichlet_ball(params, amplitude=4.0)
    grid = default_profile_grid()
    amp = float(np.max(np.abs(p1.evaluate(grid)[0] - p4.evaluate(grid)[0])) / p1.u0)
    yield CriterionResult(
        "C8.e_amplitude",
        "shot-amplitude invariance of the Dirichlet solution",
        "0",
        amp,
        1e-8,
        amp < 1e-8,
    )


REGRESSION_SET = ((3, 1.0, 0.05), (3, 2.0, 0.05), (4, 1.0, 0.05), (3, 2.0, 0.02))


def _c9_pointwise_bounds(cache):
    """C9: Pointwise bounds and fitted constants."""
    worst = np.inf
    for n_dim, alpha, eps in REGRESSION_SET:
        prof = cache.profile(n_dim, alpha, eps)
        worst = min(worst, decay_bound_check(prof) / prof.u0)
    yield CriterionResult(
        "C9.decay_margin",
        "pointwise upper-envelope margin (relative to u0)",
        ">= -1e-9",
        worst,
        1e-9,
        worst >= -1e-9,
    )

    cs = []
    for alpha in (1.0, 2.0, 3.0):
        for eps in (0.05, 0.02, 0.01):
            rs = resc.rescale(cache.profile(3, alpha, eps))
            cs.append(resc.uniform_bound_check(rs))
    spread = max(cs) / min(cs)
    yield CriterionResult(
        "C9.envelope_stability",
        "fitted uniform-decay constants across the (alpha, eps) sweep",
        "< 10x spread",
        spread,
        10.0,
        spread < 10.0,
    )

    # the sharpest constant varies smoothly with alpha (the eigenfunction
    # concentrates as alpha grows), so the uniformity content of the bound
    # is stability along the singular eps direction at each fixed alpha
    worst_eps_spread = 0.0
    for alpha in (1.0, 2.0, 3.0):
        cs = []
        for eps in (0.05, 0.02, 0.01):
            rs = resc.rescale(cache.profile(3, alpha, eps))
            res = spec.solve_eigen(spec.SLProblem.from_rescaled(rs), 1, n_points=1500)
            cs.append(spec.eigfun_decay_check(res[0], 3))
        worst_eps_spread = max(worst_eps_spread, max(cs) / min(cs))
    yield CriterionResult(
        "C9.eigfun_decay",
        "fitted eigenfunction decay constants along eps at fixed alpha",
        "< 10x spread",
        worst_eps_spread,
        10.0,
        worst_eps_spread < 10.0,
    )


def _c10_rescaled_convergence(cache):
    """C10: Rescaled profiles approach the bubble."""
    for alpha in (1.0, 2.0):
        dists = [resc.limit_distance(resc.rescale(cache.profile(3, alpha, eps)))
                 for eps in EPS_SWEEP]
        yield CriterionResult(
            f"C10.a{alpha:g}",
            f"sup-distance to the bubble strictly decreasing, alpha={alpha}",
            "decreasing",
            max([b - a for a, b in zip(dists, dists[1:])]),
            0.0,
            all(b < a for a, b in zip(dists, dists[1:])),
        )


CRITERIA = {
    "C1": _c1_limit_eigen,
    "C2": _c2_limit_lambda2,
    "C3": _c3_sup_norm,
    "C4": _c4_bifurcation_convergence,
    "C5": _c5_morse_jump,
    "C6": _c6_lambda2_floor,
    "C7": _c7_radial_nondegeneracy,
    "C8": _c8_oracles,
    "C9": _c9_pointwise_bounds,
    "C10": _c10_rescaled_convergence,
}


def run_criteria(ids: list[str] | None = None, progress=None) -> VerifyReport:
    """Run the selected criteria (all by default) on one fresh SolverCache;
    ids select by prefix, so "C1" runs C1.a, C1.b, C1.c.  Each record's
    `runtime_s` is the time since the previous record (or the start), and
    `progress` gets its line as soon as it arrives."""
    selected = list(CRITERIA) if not ids else []
    if ids:
        for want in ids:
            base = want.split(".")[0]
            if base not in CRITERIA:
                raise DomainError(f"unknown criterion {want!r}; know {list(CRITERIA)}")
            if base not in selected:
                selected.append(base)
    cache = bif.SolverCache()
    report = VerifyReport()
    last = time.perf_counter()
    for cid in selected:
        for result in CRITERIA[cid](cache):
            now = time.perf_counter()
            report.results.append(replace(result, runtime_s=now - last))
            last = now
            if progress is not None:
                progress(result.line())
    return report
