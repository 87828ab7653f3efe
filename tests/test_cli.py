import concurrent.futures
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import henonball
from henonball import bifurcation, cli
from henonball.verify import CriterionResult, VerifyReport

POINT = ["--N", "3", "--alpha", "2.0", "--eps", "0.05"]

# the options each subcommand requires, with valid values
REQUIRED = {
    "solve": POINT, "rescale": POINT, "spectrum": POINT,
    "bifurcate": ["--N", "3", "--k", "2", "--eps", "0.05"],
    "sweep": ["--N", "3", "--alpha-grid", "1:2:2", "--eps-list", "0.05"],
    "verify": [],
}

# option -> (command-line text, the value argparse must hand to cmd_*)
SAMPLES = {
    "N": ("3", 3), "alpha": ("2.0", 2.0), "eps": ("0.05", 0.05),
    "tol": ("1e-9", 1e-9), "cache_dir": ("cache", "cache"), "grid_points": ("400", 400),
    "count": ("2", 2), "format": ("json", "json"), "k": ("2", 2),
    "eps_list": ("0.05,0.04", [0.05, 0.04]), "bracket": ("0.5:1.5", (0.5, 1.5)),
    "alpha_grid": ("1:2:3", [1.0, 1.5, 2.0]), "jobs": ("2", 2),
    "criteria": ("C1,C4", ["C1", "C4"]),
}

# malformed or out-of-range values, each with a piece of argparse's message;
# "@ARGS" stands for a file holding --tol=0.5
BAD_VALUES = [
    (["bifurcate", "--N", "3", "--k", "2", "--eps-list", "abc"], "--eps-list"),
    (["bifurcate", *REQUIRED["bifurcate"], "--bracket", "1"], "--bracket"),
    (["sweep", "--N", "3", "--alpha-grid", "1:2:x", "--eps-list", "0.05"], "--alpha-grid"),
    (["sweep", "--N", "3", "--alpha-grid", "1:inf:3", "--eps-list", "0.05"], "--alpha-grid"),
    (["bifurcate", *REQUIRED["bifurcate"], "--bracket", "1:inf"], "--bracket"),
    (["sweep", *REQUIRED["sweep"], "--jobs", "0"], "--jobs"),
    (["spectrum", *POINT, "--count", "0"], "--count"),
    # assemble_pencil needs at least 3 nodes
    (["spectrum", *POINT, "--grid-points", "2"], "--grid-points"),
    (["bifurcate", *REQUIRED["bifurcate"], "--eps-list", "0.04"], "not allowed with"),
    (["bifurcate", *REQUIRED["bifurcate"], "@ARGS"], "unrecognized arguments: --tol=0.5"),
    # an empty selection would otherwise run every criterion
    (["verify", "--criteria", ","], "--criteria"),
    (["verify", "--criteria", ""], "--criteria"),
]

# (subcommand, option) pairs whose cmd_* never reads the option
REJECTED = [
    ("solve", "--format"), ("solve", "--grid-points"), ("solve", "--amplitude"),
    ("solve", "--no-cache"),
    ("rescale", "--format"), ("rescale", "--grid-points"),
    ("rescale", "--no-cache"), ("rescale", "--cache-dir"),
    ("spectrum", "--no-cache"), ("spectrum", "--cache-dir"),
    ("bifurcate", "--tol"), ("bifurcate", "--grid-points"),
    ("bifurcate", "--no-cache"), ("bifurcate", "--cache-dir"),
    ("bifurcate", "--alpha"),
    ("sweep", "--tol"), ("sweep", "--no-cache"), ("sweep", "--cache-dir"),
    ("sweep", "--alpha"), ("sweep", "--eps"),
    ("verify", "--format"), ("verify", "--tol"), ("verify", "--grid-points"),
    ("verify", "--no-cache"), ("verify", "--cache-dir"),
]


def test_small_spectrum_exits_0(tmp_path):
    out = tmp_path / "spectrum.csv"
    argv = ["spectrum", *POINT, "--count", "2", "--grid-points", "400", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    header, *rows = out.read_text().splitlines()
    assert header.startswith("alpha,eps,j,lambda")
    assert [row.split(",")[2] for row in rows] == ["1", "2"]


def test_spectrum_past_the_hardy_edge_exits_3(capsys):
    # the third discrete value at (5, 2, 0.2) lies above ((N-2)/2)^2 = 2.25,
    # in the continuous spectrum, and its vector fails the node count
    argv = ["spectrum", "--N", "5", "--alpha", "2", "--eps", "0.2"]
    assert cli.main(argv) == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: node-count certificate failed "
                          "for eigenvalue 3 at 2.30")
    assert err.rstrip().endswith(": 0 sign changes")
    assert cli.main([*argv, "--count", "2"]) == cli.EXIT_OK
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [int(row["j"]) for row in rows] == [1, 2]
    assert all(float(row["lambda"]) < 2.25 for row in rows)


@pytest.mark.parametrize("command", ["solve", "spectrum"])
def test_overflowing_shot_exits_3(command, capsys):
    # r**(2+alpha) leaves the float range before the unit shot's first zero
    argv = [command, "--N", "3", "--alpha", "100", "--eps", "0.05"]
    assert cli.main(argv) == cli.EXIT_NUMERICAL
    assert "overflows at r=1067.5" in capsys.readouterr().err


def test_count_help_names_the_continuous_spectrum(capsys):
    with pytest.raises(SystemExit):
        cli.main(["spectrum", "--help"])
    assert "continuous spectrum" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("tol", ["10", "1.0", "inf", "1e300"])
def test_tol_outside_unit_interval_exits_2(tol, capsys):
    # --tol 10 exited 0 with u0 = 4.462 (13.961 at the default), --tol inf
    # exited 3 with an overflow at r=11.16
    argv = ["solve", "--N", "3", "--alpha", "1", "--eps", "0.1", "--tol", tol]
    assert cli.main(argv) == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == "" and "need 0 < tol < 1" in captured.err


def test_tol_outside_unit_interval_exits_2_on_a_cache_hit(tmp_path, capsys):
    # the key is looked up before any solve, so an artifact stored under
    # tol = 10 was served with exit 0
    cache = cli.hio.ProfileCache(tmp_path)
    cache.store_text(cache.key(3, 1.0, 0.1, 10.0), '{"planted": true}\n')
    argv = ["solve", "--N", "3", "--alpha", "1", "--eps", "0.1", "--tol", "10",
            "--cache-dir", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == "" and "need 0 < tol < 1" in captured.err


def test_bad_eps_exits_2(capsys):
    argv = ["spectrum", "--N", "3", "--alpha", "2.0", "--eps", "-0.05"]
    assert cli.main(argv) == cli.EXIT_INVALID
    assert "eps" in capsys.readouterr().err


def test_bracket_that_does_not_straddle_exits_3(capsys):
    argv = ["bifurcate", "--N", "3", "--k", "2", "--eps", "0.05", "--bracket", "0.2:0.6"]
    assert cli.main(argv) == cli.EXIT_NUMERICAL
    out = capsys.readouterr().out
    assert "do not straddle" in out
    # the message's comma stays inside its quoted cell
    [row] = csv.DictReader(io.StringIO(out))
    assert len(row) == 11 and None not in row
    assert row["error"] == ("bracket endpoints do not straddle -sigma_2: "
                            "f(0.2)=3.69, f(0.6)=3.01 (eps too large?)")


# parameters that parse but that the library rejects as invalid, each with a
# piece of the message
INVALID_PARAMETERS = [
    (["bifurcate", "--N", "3", "--k", "1", "--eps", "0.05"], "k >= 2"),
    (["bifurcate", "--N", "2", "--k", "2", "--eps", "0.05"], "N >= 3"),
    (["bifurcate", *REQUIRED["bifurcate"], "--bracket", "2:1"], "bracket"),
    (["bifurcate", "--N", "3", "--k", "2", "--eps", "6.4", "--bracket", "1.1:2.9"], "bracket"),
    (["sweep", "--N", "2", "--alpha-grid", "1:2:2", "--eps-list", "0.05"], "N >= 3"),
    (["solve", "--N", "3", "--alpha", "inf", "--eps", "0.05"], "alpha >= 0, got inf"),
    (["solve", "--N", "3", "--alpha", "nan", "--eps", "0.05"], "alpha >= 0, got nan"),
    # p_alpha - eps rounds to p_alpha: the shot would be critical
    (["solve", "--N", "3", "--alpha", "0", "--eps", "1e-30"], "rounds to p_alpha"),
    (["solve", "--N", "3", "--alpha", "1e308", "--eps", "0.05"], "p_alpha overflows"),
]


@pytest.mark.parametrize("argv, message", INVALID_PARAMETERS,
                         ids=[" ".join(argv) for argv, _ in INVALID_PARAMETERS])
def test_invalid_parameters_exit_2(argv, message, no_solve, capsys):
    assert cli.main(argv) == cli.EXIT_INVALID
    captured = capsys.readouterr()
    # no table: the error goes to stderr, not into a row's error column
    assert captured.out == "" and captured.err.startswith("error: ")
    assert message in captured.err


@pytest.mark.parametrize("command, option", REJECTED)
def test_unread_option_is_rejected(command, option, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args([command, *REQUIRED[command], option, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err


@pytest.mark.parametrize("command, func, _help, options", cli.SUBCOMMANDS)
def test_declared_options_parse(command, func, _help, options):
    singles = [opt for opt in options if isinstance(opt, str)]
    groups = [opt for opt in options if isinstance(opt, tuple)]
    # each member of an exclusive group gets a run of its own
    runs = [singles + [member] for group in groups for member in group] or [singles]
    for given in runs:
        argv = [command]
        for opt in given:
            argv.append("--" + opt.replace("_", "-"))
            if SAMPLES[opt][0] is not None:
                argv.append(SAMPLES[opt][0])
        args = cli.build_parser().parse_args(argv)
        assert args.func is func
        for opt in given:
            assert getattr(args, opt) == SAMPLES[opt][1], opt
        for group in groups:
            assert [getattr(args, m) is None for m in group].count(False) == 1


@pytest.fixture
def no_solve(monkeypatch):
    def fail(*args, **kwargs):
        pytest.fail("a profile solve started")

    monkeypatch.setattr(cli, "solve_dirichlet_ball", fail)
    monkeypatch.setattr(bifurcation, "solve_dirichlet_ball", fail)


@pytest.mark.parametrize("argv, message", BAD_VALUES,
                         ids=[" ".join(argv) for argv, _ in BAD_VALUES])
def test_bad_value_exits_2_before_any_solve(argv, message, tmp_path, no_solve, capsys):
    args_file = tmp_path / "run.args"
    args_file.write_text("--tol=0.5\n")
    argv = [f"@{args_file}" if a == "@ARGS" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_INVALID
    err = capsys.readouterr().err
    assert "usage: henonball" in err and message in err


def test_sweep_pool_has_at_most_one_worker_per_task(tmp_path, monkeypatch):
    seen = []

    class InProcessPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    argv = ["sweep", *REQUIRED["sweep"], "--jobs", "64", "--grid-points", "400",
            "--out", str(tmp_path / "sweep.csv")]
    assert cli.main(argv) == cli.EXIT_OK
    assert seen == [2]


def test_failed_criterion_exits_1(monkeypatch):
    failed = CriterionResult("C0.a", "planted failure", "< 1", 2.0, 1.0, passed=False)
    monkeypatch.setattr(cli, "run_criteria", lambda ids, progress: VerifyReport([failed]))
    assert cli.main(["verify"]) == cli.EXIT_VERIFY_FAILED


@pytest.mark.parametrize("command", ["spectrum", "verify"])
def test_unwritable_out_exits_2(command, tmp_path, monkeypatch, capsys):
    passed = CriterionResult("C0.a", "planted pass", "< 1", 0.0, 1.0, passed=True)
    monkeypatch.setattr(cli, "run_criteria", lambda ids, progress: VerifyReport([passed]))
    argv = {"spectrum": ["spectrum", *POINT, "--count", "1", "--grid-points", "100"],
            "verify": ["verify"]}[command]
    # an existing directory cannot be replaced by the output file
    assert cli.main([*argv, "--out", str(tmp_path)]) == cli.EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write --out") and str(tmp_path) in err


def test_cache_dir_that_is_a_file_exits_2(tmp_path, capsys):
    not_a_dir = tmp_path / "cache"
    not_a_dir.write_text("")
    assert cli.main(["solve", *POINT, "--cache-dir", str(not_a_dir)]) == cli.EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write the profile cache") and str(not_a_dir) in err


def test_bifurcate_exits_0_with_a_certified_root(capsys):
    argv = ["bifurcate", *REQUIRED["bifurcate"], "--format", "json"]
    assert cli.main(argv) == cli.EXIT_OK
    [row] = json.loads(capsys.readouterr().out)["rows"]
    assert row["error"] is None and row["unique"] and row["exclusion_ok"]
    assert abs(row["alpha_k_eps"] - 2.0) < 1e-4
    assert 0.0 <= row["delta"] < 1e-4 and row["alpha_k_eps"] == 2.0 + row["delta"]


def test_bifurcate_default_bracket_starts_at_2_k_minus_1(capsys):
    # exited 2: the lower end 1.1 of the old default bracket 2 ± 0.9 is
    # inadmissible at eps = 6.4
    argv = ["bifurcate", "--N", "3", "--k", "2", "--eps", "6.4", "--format", "json"]
    assert cli.main(argv) == cli.EXIT_OK
    [row] = json.loads(capsys.readouterr().out)["rows"]
    assert row["error"] is None and row["unique"] and row["exclusion_ok"]
    assert row["bracket_lo"] == 2.0 < row["alpha_k_eps"] < row["bracket_hi"]


def test_bifurcate_default_fallback_scans_from_2_k_minus_1(capsys):
    # exited 2: the default search's fallback scanned 2 ± 0.9, and 1.1 is
    # inadmissible at eps = 7.9; the scan on [2, 2.9] reports the root
    argv = ["bifurcate", "--N", "3", "--k", "2", "--eps", "7.9", "--format", "json"]
    assert cli.main(argv) == cli.EXIT_OK
    [row] = json.loads(capsys.readouterr().out)["rows"]
    assert row["error"] is None and row["unique"] and not row["exclusion_ok"]
    assert abs(row["alpha_k_eps"] - 2.8700665824) <= 1e-9
    assert 2.0 < row["bracket_lo"] < row["alpha_k_eps"] < row["bracket_hi"] < 2.9


def test_spectrum_json_rows_match_csv(capsys):
    argv = ["spectrum", *POINT, "--count", "2", "--grid-points", "400"]
    assert cli.main(argv) == cli.EXIT_OK
    header, *lines = capsys.readouterr().out.splitlines()
    assert cli.main([*argv, "--format", "json"]) == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "spectrum"
    assert header.split(",") == list(cli.SPECTRUM_HEADER)
    # CSV floats carry 17 significant digits, so both parse to the same values
    assert [[float(row[key]) for key in cli.SPECTRUM_HEADER] for row in doc["rows"]] == [
        [float(cell) for cell in line.split(",")] for line in lines
    ]


def test_verify_prints_each_record_then_the_summary(capsys):
    assert cli.main(["verify", "--criteria", "C2"]) == cli.EXIT_OK
    *records, summary = capsys.readouterr().out.splitlines()
    assert len(records) == 6 and all(line.startswith("[PASS] C2.") for line in records)
    assert summary.startswith("ALL CRITERIA PASS (6/6) in ")


def test_spectrum_rerun_is_byte_identical(tmp_path):
    outs = [tmp_path / "first.csv", tmp_path / "second.csv"]
    for out in outs:
        argv = ["spectrum", *POINT, "--count", "2", "--grid-points", "400", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_solve_cache_hit_miss_and_fresh_agree(tmp_path, monkeypatch):
    solve = ["solve", *POINT, "--cache-dir", str(tmp_path / "cache")]
    miss, hit, fresh = (tmp_path / name for name in ("miss.json", "hit.json", "fresh.json"))
    assert cli.main([*solve, "--out", str(miss)]) == cli.EXIT_OK
    # without --cache-dir no profile cache is opened
    with monkeypatch.context() as patch:
        patch.setattr(cli.hio, "ProfileCache", lambda *a: pytest.fail("cache opened"))
        assert cli.main(["solve", *POINT, "--out", str(fresh)]) == cli.EXIT_OK
    # the second cached run must be served without solving
    monkeypatch.setattr(cli, "solve_dirichlet_ball", lambda *a, **k: pytest.fail("solved"))
    assert cli.main([*solve, "--out", str(hit)]) == cli.EXIT_OK
    assert miss.read_bytes() == hit.read_bytes() == fresh.read_bytes()


def test_process_exit_status_for_rejected_option():
    env = dict(os.environ, PYTHONPATH=str(Path(henonball.__file__).parents[1]))
    argv = ["bifurcate", *REQUIRED["bifurcate"], "--tol", "0.5"]
    proc = subprocess.run([sys.executable, "-m", "henonball.cli", *argv],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == cli.EXIT_INVALID
    assert "unrecognized arguments: --tol" in proc.stderr
