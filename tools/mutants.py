"""String-replace mutation tests of henonball's certificates, root-search report,
inertia count, shifted eigenpair start, verify gates, shot, profile read, grid
geometry, grid cache and pencil guesses.

Each mutant names one edit of one file under `src/henonball` (an exact text
and its replacement) and the pytest selection meant to fail on it.  The
script copies `src/`, `tests/` and `pyproject.toml` to a temporary directory,
then applies the mutants one after another: it writes the mutated file, runs
the selection there in one subprocess, prints `killed` (the selection
failed), `survived` (it passed) or `error` (pytest could not run it), and
restores the file.  A text that does not occur exactly once stops the run,
so a stale mutant cannot survive unnoticed.  The exit status is 0 when every
mutant is killed and 1 when any survives or errors, so a CI job can run it.
Needs the standard library and pytest; run from anywhere as

    python tools/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BIF = "tests/test_bifurcation.py::"
PLANTED = BIF + "TestFluxIdentity::test_unsettled_certificate_falls_back"
VER = "tests/test_verify.py::"
RAD = "tests/test_radial.py::"
SPEC = "tests/test_spectral.py::"
# (what the mutant does, file, text, replacement, pytest selection)
MUTANTS = [
    ("_fixed_point stops at 1e-7·|δ|", "bifurcation.py", "<= 1e-12 * abs(d)",
     "<= 1e-7 * abs(d)", [BIF + "TestFluxIdentity::test_delta_meets_its_fixed_point"]),
    ("_certify's chord-slope bound is 2A", "bifurcation.py", ">= a_lin / 2.0:",
     ">= 2.0 * a_lin:", [PLANTED + "[chord-slope]"]),
    ("the exclusion's neighbours stop at k+1", "bifurcation.py",
     "range(1, self.k + 3):", "range(1, self.k + 2):", [PLANTED + "[exclusion-above]"]),
    ("_certify's low-side exclusion drops + G", "bifurcation.py",
     "lambda1_closed(n_dim, lo) + big_g < -sigma_l", "lambda1_closed(n_dim, lo) < -sigma_l",
     [PLANTED + "[exclusion-below]"]),
    ("the bracket edge test is lo < edge", "bifurcation.py", "if lo <= edge:",
     "if lo < edge:", [BIF + "TestFluxIdentity::test_bracket_end_at_the_edge_is_inadmissible"]),
    ("index_invariant = 1 + Σ_{k≥1} n_k", "bifurcation.py",
     "index_invariant=sum(n_k for _, n_k, _ in counts),",
     "index_invariant=1 + sum(n_k for _, n_k, _ in counts[1:]),",
     [BIF + "TestMorseIndex::test_invariant_index_counts_every_radial_direction"]),
    ("_RESIDUAL_ULPS is 4096", "spectral.py", "_RESIDUAL_ULPS = 4.0",
     "_RESIDUAL_ULPS = 4096.0",
     ["tests/test_spectral.py::TestLowestPair::test_stops_one_solve_after_the_residual_test"]),
    ("pair ignores the problem's guess (starts from B·1)", "spectral.py",
     "self._shifted_iteration(shift, guess)", "self._shifted_iteration(shift, self.b_diag)",
     [SPEC + "TestLowestPair::test_at_most_three_solves_from_the_guess"]),
    ("from_profile's read ignores writeable", "spectral.py",
     "if last[0] is not r or r.flags.writeable:\n"
     "                last[:] = (None if r.flags.writeable else r),",
     "if last[0] is not r:\n                last[:] = r,",
     [SPEC + "TestLowestPair::test_writable_radii_are_read_again"]),
    ("the coarse guesses are strided views", "spectral.py", "g[::2].copy()", "g[::2]",
     [SPEC + "TestAssembly::test_pair_is_the_assembly_on_both_grids"]),
    ("pair starts at the guess's Rayleigh quotient, skipping the solve at σ", "spectral.py",
     "bx, mu, converged = b * x, sigma, False",
     "bx, mu, converged = b * x, "
     "float(x @ _tridiagonal_product(a, off, x) / (x @ (b * x))), False",
     [SPEC + "TestLowestPair::test_far_guess_still_gives_the_first_pair"]),
    ("count skips the Schur update after a nonpositive pivot", "spectral.py",
     "float(d[k + 1]) - coupling * (coupling / pivot)", "float(d[k + 1])",
     [SPEC + "TestInertiaCount::test_integer_pencils_with_zero_pivots"]),
    ("count drops the last row's check", "spectral.py", "found += d[n - 1] <= 0.0",
     "found += 0", [SPEC + "TestInertiaCount::test_integer_pencils_with_zero_pivots"]),
    ("coarsen() keeps the nodes [1::2]", "spectral.py", "self.r_end, self.r[::2])",
     "self.r_end, self.r[1::2])",
     [SPEC + "TestAssembly::test_pair_is_the_assembly_on_both_grids",
      SPEC + "TestRadialGrid::test_coarsen_is_the_coarse_grid_bit_for_bit"]),
    ("the grid's flux ignores N (exponent fixed at 2)", "spectral.py",
     "flux = mids**ndm1 / gaps", "flux = mids**2.0 / gaps",
     [SPEC + "TestRadialGrid::test_flux_depends_on_the_dimension"]),
    ("SolverCache.grids ignores N_POINTS", "bifurcation.py",
     "_unit_ball_grids(n_dim, N_POINTS)", "_unit_ball_grids(n_dim, 1500)",
     [BIF + "TestSharedEvaluation::test_gap_converges_at_fourth_order"]),
    ("flux_gap takes u'(1) from du[-2]", "bifurcation.py", "du[:-1], du[-1]",
     "du[:-1], du[-2]", [BIF + "TestFluxIdentity::test_gap_matches_the_pencil"]),
    ("BifurcationPoint.residual is halved", "bifurcation.py",
     "residual=abs(search.f(alpha)),", "residual=abs(search.f(alpha)) / 2,",
     [BIF + "TestFluxIdentity::test_residual_is_the_recomputed_crossing_gap"]),
    ("the report ignores the scan's other roots", "bifurcation.py", "unique=not others,",
     "unique=True,", [BIF + "TestFluxIdentity::test_scan_reports_every_root"]),
    ("C4.trend's test is b < a", "verify.py", "all(b <= a for a, b in zip(errs, errs[1:]))",
     "all(b < a for a, b in zip(errs, errs[1:]))", [VER + "test_c4_trend_reads_planted_deltas"]),
    ("C4.trend measures max(a - b)", "verify.py",
     "max([b - a for a, b in zip(errs, errs[1:])], default=0.0)",
     "max([a - b for a, b in zip(errs, errs[1:])], default=0.0)",
     [VER + "test_c4_trend_reads_planted_deltas"]),
    ("the log-r shot damps w by N-1", "radial.py", "damping, weight = n_dim - 2.0,",
     "damping, weight = n_dim - 1.0,",
     ["tests/test_radial.py::TestIntegrateRadialIVP::test_critical_shot_matches_closed_form"]),
    ("the log-r shot has no step cap", "radial.py", "_MAX_STEP = 0.25", "_MAX_STEP = math.inf",
     ["tests/test_radial.py::TestLinearizationIdentity::test_z_solves_limit_eigen_equation"]),
    ("the shot kernel's stages drop their last w term", "radial.py",
     "f\"ws = w + {_sum(_A[s], 'kw')} * h\",", "f\"ws = w + {_sum(_A[s][:-1], 'kw')} * h\",",
     [RAD + "TestReferenceStepper::test_stepper_matches_the_loop_reference"]),
    ("evaluate reads the dense table down to half the start radius", "radial.py",
     "below = r < start", "below = r < 0.5 * start",
     [RAD + "TestDenseTable::test_evaluate_is_the_per_point_reference_bit_for_bit"]),
    ("C10's test is b <= a", "verify.py", "all(b < a for a, b in zip(dists, dists[1:]))",
     "all(b <= a for a, b in zip(dists, dists[1:]))", [VER + "test_c10_reads_planted_distances"]),
]


def main() -> int:
    # no bytecode: a restored or same-length mutated file must not hit a stale .pyc
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    with tempfile.TemporaryDirectory() as tmp:
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp, part),
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        all_killed = True
        for name, file, old, new, selection in MUTANTS:
            path = Path(tmp, "src", "henonball", file)
            text = path.read_text()
            if text.count(old) != 1:
                sys.exit(f"{name}: the text occurs {text.count(old)} times in {file}")
            path.write_text(text.replace(old, new))
            try:
                status = subprocess.run(
                    [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                     *selection], cwd=tmp, env=env, capture_output=True).returncode
            finally:
                path.write_text(text)
            outcome = {0: "survived", 1: "killed"}.get(status, "error")
            all_killed &= outcome == "killed"
            print(f"{outcome:8}  {name}  [{' '.join(selection)}]", flush=True)
    return 0 if all_killed else 1


if __name__ == "__main__":
    sys.exit(main())
