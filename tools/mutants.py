"""String-replace mutation tests of henonball's certificates, inertia count, verify
gates, shot and profile read.

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
    ("_certify's exclusion loop stops at k+1", "bifurcation.py",
     "range(1, k + 3):\n        if l == k:\n            continue\n"
     "        sigma_l, _ = sphere_eigen(n_dim, l)\n        if l > k:",
     "range(1, k + 2):\n        if l == k:\n            continue\n"
     "        sigma_l, _ = sphere_eigen(n_dim, l)\n        if l > k:",
     [PLANTED + "[exclusion-above]"]),
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
    ("count skips the Schur update after a nonpositive pivot", "spectral.py",
     "float(d[k + 1]) - coupling * (coupling / pivot)", "float(d[k + 1])",
     [SPEC + "TestInertiaCount::test_integer_pencils_with_zero_pivots"]),
    ("count drops the last row's check", "spectral.py", "found += d[n - 1] <= 0.0",
     "found += 0", [SPEC + "TestInertiaCount::test_integer_pencils_with_zero_pivots"]),
    ("pencil_pair's coarse rows are [1::2]", "spectral.py", "fine[::2]), qv[::2])",
     "fine[1::2]), qv[1::2])",
     ["tests/test_spectral.py::TestAssembly::test_pair_is_the_assembly_on_both_grids"]),
    ("flux_gap takes u'(1) from du[-2]", "bifurcation.py", "du[:-1], du[-1]",
     "du[:-1], du[-2]", [BIF + "TestFluxIdentity::test_gap_matches_the_pencil"]),
    ("BifurcationPoint.residual is halved", "bifurcation.py",
     "residual=abs(samples[alpha_k + delta][1] + sigma_k),",
     "residual=abs(samples[alpha_k + delta][1] + sigma_k) / 2,",
     [BIF + "TestFluxIdentity::test_residual_is_the_recomputed_crossing_gap"]),
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
