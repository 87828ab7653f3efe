"""Fingerprint of henonball's numerical outputs, printed as canonical JSON.

The document holds
- every verify criterion's measured value, as `float.hex`;
- fixed `solve_dirichlet_ball` profiles: the shot's first zero, u0 and the
  SHA-256 of (u, u') on the fine grid that `flux_gap` reads;
- fixed `find_bifurcation_alpha` points with a `morse_index` on either side
  of each root, fixed two-eigenvalue sweep rows (`solve_eigen` values only,
  as `henonball sweep` runs them) and fixed three-eigenvalue spectrum points
  (`solve_eigen` with vectors, as `henonball spectrum` runs them);
- integer inertia counts (`Pencil.count`) of fixed pencils at fixed finite
  shifts: Λ_j ± gap for j ≤ 3, with the certificate's gap 1e-10·max(1, |Λ_j|),
  and the Morse windows -σ_k ± 1e-4 for k ≤ 5, so that a change of counting
  convention shows.

Every float is written with `float.hex`, every eigenvector as the SHA-256 of
its bytes, and a point that raises as the exception's type name alone, so
that messages may be reworded.  Each point also counts the WARNING records
the "henonball" logger emitted while it ran, so a new certificate fallback
shows.  Two trees compute the same numbers exactly when their fingerprints
compare equal:

    PYTHONPATH=src python tools/fingerprint.py > new.json
    # the same command in a checkout of the other tree, > old.json
    cmp old.json new.json

The script needs the standard library, numpy and the package alone, and takes a
few seconds on a 2-core host.
"""

from __future__ import annotations

import hashlib
import json
import logging
import sys

import numpy as np

from henonball import bifurcation, spectral
from henonball.closedform import ProblemParams, sphere_eigen
from henonball.errors import HenonError
from henonball.radial import solve_dirichlet_ball
from henonball.verify import run_criteria

# (N, ε, k, bracket) of the root searches; the last falls back to the scan
BIFURCATE_POINTS = [
    (3, 0.05, 2, None), (3, 0.01, 2, None), (3, 0.02, 3, None),
    (4, 0.05, 2, None), (4, 0.05, 3, None), (4, 0.2, 2, None), (4, 0.2, 3, None),
    (4, 0.5, 3, None), (4, 2.0, 2, None), (5, 0.2, 2, None), (5, 0.05, 3, None),
    (6, 0.05, 2, None), (3, 0.1, 4, None),
    (3, 6.4, 2, (1.3, 2.9)),
]
# offsets from each root of the Morse-index probes
MORSE_OFFSETS = (-0.05, 0.05)
# sweep rows: N by α by ε, two eigenvalues each; at N = 5-6 and ε ≥ 1, Λ₂
# lies near the Hardy edge ((N-2)/2)², and some (N, α, ε) are inadmissible
SWEEP_N = (3, 4, 5, 6)
SWEEP_ALPHA = (0.5, 1.0, 2.0, 3.0, 4.3, 6.0)
SWEEP_EPS = (0.01, 0.05, 0.2, 1.0, 2.0)
# (N, α, ε, amplitude) of the profiles read directly
PROFILE_POINTS = [
    (3, 0.0, 0.05, 1.0), (3, 2.0, 0.005, 4.0), (4, 0.5, 0.02, 1.0),
    (5, 3.0, 0.2, 4.0), (6, 4.5, 0.05, 1.0), (6, 1.0, 0.005, 4.0),
]
# (N, α, ε) of three-eigenvalue spectra; at (5, 2, 0.2) and (6, 1, 0.05) Λ₃
# lies past the Hardy edge and fails its node count
SPECTRUM_POINTS = [
    (3, 2.0, 0.05), (3, 2.0, 0.01), (4, 2.0, 0.05), (5, 2.0, 0.2),
    (6, 1.0, 0.05), (4, 4.0, 0.2), (3, 0.5, 1.0),
]

# (N, α, ε) of the unit-ball pencil pairs (N_POINTS and 2·N_POINTS nodes)
# and (N, α) of the limit pencils (3000 nodes) whose inertia counts are read
COUNT_BALL_POINTS = [(3, 2.0, 0.05), (4, 4.0, 0.2), (6, 1.0, 0.05), (3, 0.5, 1.0)]
COUNT_LIMIT_POINTS = [(3, 2.0), (5, 1.0)]
# the Morse windows read: k = 0..COUNT_MAX_K
COUNT_MAX_K = 5


class _Counter(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.n = 0

    def emit(self, record):
        self.n += 1


def _hex(x) -> str:
    return float(x).hex()


def _digest(array) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


def _point(counter: _Counter, compute) -> dict:
    """compute()'s dict, or the type of what it raised, with the WARNING
    count of the run."""
    counter.n = 0
    try:
        out = compute()
    except HenonError as err:
        out = {"error": type(err).__name__}
    out["warnings"] = counter.n
    return out


def _bifurcate(cache, n_dim, eps, k, bracket) -> dict:
    bp = bifurcation.find_bifurcation_alpha(n_dim, eps, k, bracket=bracket, cache=cache)
    out = {
        "alpha_k_eps": _hex(bp.alpha_k_eps), "delta": _hex(bp.delta),
        "residual": _hex(bp.residual), "bracket": [_hex(b) for b in bp.bracket],
        "unique": bp.unique, "exclusion_ok": bp.exclusion_ok,
        "evaluations": bp.evaluations,
    }
    for off in MORSE_OFFSETS:
        try:
            rep = bifurcation.morse_index(n_dim, eps, bp.alpha_k_eps + off, cache=cache)
            morse = [rep.radial_count, [list(c) for c in rep.channel_counts],
                     rep.index_full, rep.index_invariant]
        except HenonError as err:
            morse = type(err).__name__
        out[f"morse{off:+g}"] = morse
    return out


def _profile(n_dim, alpha, eps, amplitude) -> dict:
    profile = solve_dirichlet_ball(ProblemParams(n_dim, alpha, eps), amplitude=amplitude)
    grid = np.append(spectral.default_spectral_grid(1.0, 2 * bifurcation.N_POINTS), 1.0)
    return {"first_zero_raw": _hex(profile.first_zero_raw), "u0": _hex(profile.u0),
            "evaluate": _digest(np.array(profile.evaluate(grid)))}


def _solve(n_dim, alpha, eps, count, n_points, with_vectors) -> dict:
    profile = solve_dirichlet_ball(ProblemParams(n_dim, alpha, eps))
    res = spectral.solve_eigen(spectral.SLProblem.from_profile(profile), count=count,
                               n_points=n_points, with_vectors=with_vectors)
    return {"u0": _hex(profile.u0), "eigen": [
        [r.j, _hex(r.extrapolated), _hex(r.error_estimate), r.node_count,
         _digest(r.r), _digest(r.z)]
        for r in res
    ]}


def _counts(n_dim, pencil) -> list:
    """`pencil.count` at Λ_j ± gap for j ≤ 3 and at -σ_k ± 1e-4 for
    k ≤ COUNT_MAX_K."""
    lam = pencil.eigenvalue_batch(3)
    gap = 1e-10 * np.maximum(1.0, np.abs(lam))
    sigma = np.array([sphere_eigen(n_dim, k)[0] for k in range(COUNT_MAX_K + 1)])
    shifts = np.concatenate([lam - gap, lam + gap, -sigma - 1e-4, -sigma + 1e-4])
    return pencil.count(shifts).tolist()


def _ball_counts(n_dim, alpha, eps) -> dict:
    problem = spectral.SLProblem.from_profile(
        solve_dirichlet_ball(ProblemParams(n_dim, alpha, eps)))
    pair = spectral.pencil_pair(problem, bifurcation.N_POINTS)
    return {"coarse": _counts(n_dim, pair[0]), "fine": _counts(n_dim, pair[1])}


def _limit_counts(n_dim, alpha) -> dict:
    problem = spectral.limit_problem(n_dim, alpha)
    pencil = spectral.assemble_pencil(
        problem, spectral.default_spectral_grid(problem.r_end, 3000))
    return {"pencil": _counts(n_dim, pencil)}


def fingerprint() -> dict:
    counter = _Counter()
    logging.getLogger("henonball").addHandler(counter)
    cache = bifurcation.SolverCache()
    doc = {
        "bifurcate": {
            f"{n},{e!r},{k},{b!r}": _point(counter, lambda: _bifurcate(cache, n, e, k, b))
            for n, e, k, b in BIFURCATE_POINTS
        },
        "profile": {
            f"{n},{a!r},{e!r},{amp!r}": _point(counter, lambda: _profile(n, a, e, amp))
            for n, a, e, amp in PROFILE_POINTS
        },
        "sweep": {
            f"{n},{a!r},{e!r}": _point(
                counter, lambda: _solve(n, a, e, 2, bifurcation.N_POINTS, False))
            for n in SWEEP_N for a in SWEEP_ALPHA for e in SWEEP_EPS
        },
        "spectrum": {
            f"{n},{a!r},{e!r}": _point(counter, lambda: _solve(n, a, e, 3, 2000, True))
            for n, a, e in SPECTRUM_POINTS
        },
        "counts": {
            **{f"ball {n},{a!r},{e!r}": _point(counter, lambda: _ball_counts(n, a, e))
               for n, a, e in COUNT_BALL_POINTS},
            **{f"limit {n},{a!r}": _point(counter, lambda: _limit_counts(n, a))
               for n, a in COUNT_LIMIT_POINTS},
        },
    }
    counter.n = 0
    report = run_criteria()
    doc["verify"] = {
        r.id: {"measured": _hex(r.measured), "passed": r.passed}
        for r in report.results
    }
    doc["verify_warnings"] = counter.n
    return doc


if __name__ == "__main__":
    json.dump(fingerprint(), sys.stdout, sort_keys=True, indent=1)
    sys.stdout.write("\n")
