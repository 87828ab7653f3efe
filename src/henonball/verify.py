"""Automated acceptance suite: every quantitative claim the package is built
to check, with pinned targets and tolerances.

Each criterion yields one or more (id, target, measured, tolerance, passed)
records; `run_criteria` executes a selection (by id prefix) and assembles a
VerifyReport.  A shared in-process cache keeps the radial solves from being
repeated across criteria.

The criteria read the solvers directly: C3 extrapolates ε·u(0)² from
`solve_dirichlet_ball` along EPS_SWEEP, C4 makes one `find_bifurcation_alpha`
pass over EPS_SWEEP, and C6 takes the minimum of Λ₂ from `lambda_values`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import bifurcation as bif
from . import numerics
from . import rescaling as resc
from . import spectral as spec
from .closedform import ProblemParams, bifurcation_alpha, lambda1_closed, sup_norm_constant
from .errors import DomainError
from .io import SCHEMA_VERSION
from .radial import (
    decay_bound_check,
    fowler_check,
    integrate_radial_ivp,
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
    total_runtime_s: float = 0.0

    @property
    def overall_pass(self) -> bool:
        return bool(self.results) and all(r.passed for r in self.results)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "verify_report",
            "overall_pass": self.overall_pass,
            "total_runtime_s": self.total_runtime_s,
            "criteria": [
                {
                    "id": r.id,
                    "description": r.description,
                    "target": r.target,
                    "measured": r.measured,
                    "tolerance": r.tolerance,
                    "passed": r.passed,
                    "runtime_s": r.runtime_s,
                }
                for r in sorted(self.results, key=lambda r: r.id)
            ],
        }


EPS_SWEEP = (0.1, 0.05, 0.02, 0.01)


def _c1_limit_eigen(cache):
    # closed-form first eigenvalue of the truncated limit problem; the
    # formula -(α+2)(2N+α-2)/4 gives -6, -2 and -8 for these cases
    out = []
    for tag, n_dim, alpha in (("a", 3, 2.0), ("b", 3, 0.0), ("c", 4, 2.0)):
        t0 = time.perf_counter()
        res = spec.limit_eigen(n_dim, alpha)
        dt = time.perf_counter() - t0
        target = lambda1_closed(n_dim, alpha)
        err = abs(res.lambda1 - target)
        out.append(
            CriterionResult(
                f"C1.{tag}",
                f"limit first eigenvalue, N={n_dim}, alpha={alpha}",
                f"{target}",
                err,
                1e-4,
                err < 1e-4 and dt <= 30.0,
                dt,
            )
        )
    return out


def _c2_limit_lambda2(cache):
    out = []
    for alpha in (0.0, 1.0, 2.0):
        t0 = time.perf_counter()
        res = spec.limit_eigen(3, alpha)
        dt = time.perf_counter() - t0
        out.append(
            CriterionResult(
                f"C2.val_a{alpha:g}",
                f"zero second limit eigenvalue, N=3, alpha={alpha}",
                "0",
                abs(res.lambda2),
                1e-2,
                abs(res.lambda2) < 1e-2,
                dt,
            )
        )
        out.append(
            CriterionResult(
                f"C2.sens_a{alpha:g}",
                f"truncation sensitivity of second eigenvalue, alpha={alpha}",
                "0",
                res.lambda2_trunc_shift,
                5e-3,
                res.lambda2_trunc_shift < 5e-3,
                0.0,
            )
        )
    return out


def _c3_sup_norm(cache):
    t0 = time.perf_counter()
    big_m = sup_norm_constant(4, 0.0)
    vals = [eps * solve_dirichlet_ball(ProblemParams(4, 0.0, eps)).u0**2
            for eps in EPS_SWEEP]
    dt = time.perf_counter() - t0
    rel = abs(numerics.extrapolate_to_zero(EPS_SWEEP, vals) - 96.0) / 96.0
    gaps = [abs(1.0 - val / big_m) for val in vals]
    monotone = all(b <= a for a, b in zip(gaps, gaps[1:]))
    return [
        CriterionResult(
            "C3.extrap",
            "eps*u0^2 extrapolated to 0 against M(4,0)=96",
            "96",
            rel,
            0.02,
            rel < 0.02 and dt <= 20.0,
            dt,
        ),
        CriterionResult(
            "C3.monotone",
            "ratio column approaches 1 monotonically",
            "monotone",
            0.0 if monotone else 1.0,
            0.5,
            monotone,
            0.0,
        ),
    ]


def _c4_bifurcation_convergence(cache):
    t0 = time.perf_counter()
    points = [bif.find_bifurcation_alpha(3, eps, 2, cache=cache) for eps in EPS_SWEEP]
    dt = time.perf_counter() - t0
    worst_residual = max(bp.residual for bp in points)
    floor = bif.alpha_resolution(3, 2)
    errs = [abs(bp.alpha_k_eps - bifurcation_alpha(2)) for bp in points]
    worst_increase = max(
        [b - a for a, b in zip(errs, errs[1:])], default=0.0
    )
    max_error = max(errs)
    return [
        CriterionResult(
            "C4.residual",
            "crossing residual |lambda1 + sigma_2| at each root",
            "0",
            worst_residual,
            1e-6,
            worst_residual < 1e-6 and dt <= 180.0,
            dt,
        ),
        CriterionResult(
            "C4.trend",
            "|alpha_2^eps - 2| nonincreasing along eps (within root resolution)",
            "nonincreasing",
            worst_increase,
            floor,
            all(b <= a + floor for a, b in zip(errs, errs[1:])),
            0.0,
        ),
        CriterionResult(
            "C4.limit",
            "every alpha_2^eps within 1e-4 of the limit value 2",
            "2",
            max_error,
            1e-4,
            max_error < 1e-4,
            0.0,
        ),
    ]


def _c5_morse_jump(cache):
    t0 = time.perf_counter()
    bp = bif.find_bifurcation_alpha(3, 0.01, 2, cache=cache)
    delta = 0.05
    below = bif.morse_index(3, 0.01, bp.alpha_k_eps - delta, cache=cache)
    above = bif.morse_index(3, 0.01, bp.alpha_k_eps + delta, cache=cache)
    dt = time.perf_counter() - t0
    inv_jump = above.index_invariant - below.index_invariant
    full_jump = above.index_full - below.index_full
    return [
        CriterionResult(
            "C5.invariant",
            "index jump across alpha_2^eps in the invariant subspace",
            "1",
            float(inv_jump),
            0.5,
            inv_jump == 1,
            dt,
        ),
        CriterionResult(
            "C5.full",
            "full index jump equals the sigma_2 multiplicity at N=3",
            "5",
            float(full_jump),
            0.5,
            full_jump == 5,
            0.0,
        ),
    ]


def _c6_lambda2_floor(cache):
    t0 = time.perf_counter()
    floor_val = min(bif.lambda_values(3, 0.01, a, 2, cache)[1]
                    for a in np.linspace(1.0, 5.0, 9))
    dt = time.perf_counter() - t0
    return [
        CriterionResult(
            "C6.floor",
            "min of lambda2 over alpha in [1,5] stays above -sigma_1 = -2",
            "> -2",
            floor_val,
            2.0,
            floor_val > -2.0,
            dt,
        )
    ]


def _c7_radial_nondegeneracy(cache):
    t0 = time.perf_counter()
    worst = np.inf
    for eps in (0.05, 0.01):
        for alpha in np.arange(0.5, 4.51, 0.5):
            prof = cache.profile(3, float(alpha), eps)
            worst = min(worst, abs(spec.radial_kernel_test(prof)))
    dt = time.perf_counter() - t0
    return [
        CriterionResult(
            "C7.kernel",
            "radial linearized solution |v(1)| over the (alpha, eps) sweep",
            "> 1e-3",
            worst,
            1e-3,
            worst > 1e-3,
            dt,
        )
    ]


def _c8_oracles(cache):
    out = []

    t0 = time.perf_counter()
    worst = 0.0
    for n_dim, alpha, p in ((3, 2.0, 5.0), (4, 1.0, 2.5)):
        za = integrate_radial_ivp(n_dim, alpha, p, method="dop853").first_zero
        zb = integrate_radial_ivp(n_dim, alpha, p, method="rk45").first_zero
        worst = max(worst, abs(za - zb) / za)
    out.append(
        CriterionResult(
            "C8.a_integrators",
            "first-zero agreement of two independent integrators",
            "0",
            worst,
            1e-8,
            worst < 1e-8,
            time.perf_counter() - t0,
        )
    )

    t0 = time.perf_counter()
    prof = cache.profile(3, 2.0, 0.05)
    prob = spec.SLProblem.from_profile(prof)
    lam1 = spec.solve_eigen(prob, 1, with_vectors=False)[0].extrapolated
    pv = spec.prufer_eigen(prob, 1, (lam1 - 0.05, lam1 + 0.05))
    diff = abs(pv - lam1)
    out.append(
        CriterionResult(
            "C8.b_prufer",
            "pencil vs Prüfer first eigenvalue, N=3, alpha=2, eps=0.05",
            "0",
            diff,
            1e-6,
            diff < 1e-6,
            time.perf_counter() - t0,
        )
    )

    t0 = time.perf_counter()
    rs = resc.rescale(prof)
    d = spec.scale_equivalence_test(prof, rs)
    out.append(
        CriterionResult(
            "C8.c_scale",
            "unit-ball vs expanding-ball spectrum, j <= 3",
            "0",
            d,
            1e-6,
            d < 1e-6,
            time.perf_counter() - t0,
        )
    )

    t0 = time.perf_counter()
    fw = fowler_check(prof)
    out.append(
        CriterionResult(
            "C8.d_fowler",
            "transformed-equation residual of the Dirichlet profile",
            "0",
            fw,
            1e-6,
            fw < 1e-6,
            time.perf_counter() - t0,
        )
    )

    t0 = time.perf_counter()
    params = ProblemParams(3, 2.0, 0.05)
    p1 = solve_dirichlet_ball(params, amplitude=1.0)
    p4 = solve_dirichlet_ball(params, amplitude=4.0)
    amp = float(np.max(np.abs(p1.u - p4.u)) / p1.u0)
    out.append(
        CriterionResult(
            "C8.e_amplitude",
            "shot-amplitude invariance of the Dirichlet solution",
            "0",
            amp,
            1e-8,
            amp < 1e-8,
            time.perf_counter() - t0,
        )
    )
    return out


REGRESSION_SET = ((3, 1.0, 0.05), (3, 2.0, 0.05), (4, 1.0, 0.05), (3, 2.0, 0.02))


def _c9_pointwise_bounds(cache):
    out = []
    t0 = time.perf_counter()
    worst = np.inf
    for n_dim, alpha, eps in REGRESSION_SET:
        prof = cache.profile(n_dim, alpha, eps)
        worst = min(worst, decay_bound_check(prof) / prof.u0)
    out.append(
        CriterionResult(
            "C9.decay_margin",
            "pointwise upper-envelope margin (relative to u0)",
            ">= -1e-9",
            worst,
            1e-9,
            worst >= -1e-9,
            time.perf_counter() - t0,
        )
    )

    t0 = time.perf_counter()
    cs = []
    for alpha in (1.0, 2.0, 3.0):
        for eps in (0.05, 0.02, 0.01):
            rs = resc.rescale(cache.profile(3, alpha, eps))
            cs.append(resc.uniform_bound_check(rs))
    spread = max(cs) / min(cs)
    out.append(
        CriterionResult(
            "C9.envelope_stability",
            "fitted uniform-decay constants across the (alpha, eps) sweep",
            "< 10x spread",
            spread,
            10.0,
            spread < 10.0,
            time.perf_counter() - t0,
        )
    )

    t0 = time.perf_counter()
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
    out.append(
        CriterionResult(
            "C9.eigfun_decay",
            "fitted eigenfunction decay constants along eps at fixed alpha",
            "< 10x spread",
            worst_eps_spread,
            10.0,
            worst_eps_spread < 10.0,
            time.perf_counter() - t0,
        )
    )
    return out


def _c10_rescaled_convergence(cache):
    out = []
    for alpha in (1.0, 2.0):
        t0 = time.perf_counter()
        dists = []
        for eps in EPS_SWEEP:
            rs = resc.rescale(cache.profile(3, alpha, eps))
            dists.append(resc.limit_distance(rs))
        strictly_decreasing = all(b < a for a, b in zip(dists, dists[1:]))
        out.append(
            CriterionResult(
                f"C10.a{alpha:g}",
                f"sup-distance to the bubble strictly decreasing, alpha={alpha}",
                "decreasing",
                max([b - a for a, b in zip(dists, dists[1:])]),
                0.0,
                strictly_decreasing,
                time.perf_counter() - t0,
            )
        )
    return out


CRITERIA = {
    "C1": ("closed-form limit first eigenvalues", _c1_limit_eigen),
    "C2": ("zero second eigenvalue of the limit problem", _c2_limit_lambda2),
    "C3": ("sup-norm asymptotics eps*u0^2 -> M(4,0)", _c3_sup_norm),
    "C4": ("bifurcation point convergence, N=3, k=2", _c4_bifurcation_convergence),
    "C5": ("Morse index jump across alpha_2", _c5_morse_jump),
    "C6": ("second-eigenvalue floor on alpha in [1,5]", _c6_lambda2_floor),
    "C7": ("radial nondegeneracy across the sweep", _c7_radial_nondegeneracy),
    "C8": ("independent-oracle agreements", _c8_oracles),
    "C9": ("pointwise bounds and fitted constants", _c9_pointwise_bounds),
    "C10": ("rescaled profiles approach the bubble", _c10_rescaled_convergence),
}


def run_criteria(ids: list[str] | None = None, progress=None) -> VerifyReport:
    """Run the selected criteria (all by default) on one fresh SolverCache;
    ids select by prefix, so "C1" runs C1.a, C1.b, C1.c."""
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
    t0 = time.perf_counter()
    for cid in selected:
        _, func = CRITERIA[cid]
        for result in func(cache):
            report.results.append(result)
            if progress is not None:
                progress(result.line())
    report.total_runtime_s = time.perf_counter() - t0
    return report
