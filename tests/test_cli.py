import pytest

from henonball import cli

POINT = ["--N", "3", "--alpha", "2.0", "--eps", "0.05"]

# (subcommand, option) pairs whose cmd_* never reads the option
REJECTED = [
    ("solve", "--format"), ("solve", "--grid-points"),
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


def test_bad_eps_exits_2(capsys):
    argv = ["spectrum", "--N", "3", "--alpha", "2.0", "--eps", "-0.05"]
    assert cli.main(argv) == cli.EXIT_INVALID
    assert "eps" in capsys.readouterr().err


def test_bracket_that_does_not_straddle_exits_3(capsys):
    argv = ["bifurcate", "--N", "3", "--k", "2", "--eps", "0.05", "--bracket", "0.2:0.6"]
    assert cli.main(argv) == cli.EXIT_NUMERICAL
    assert "do not straddle" in capsys.readouterr().out


@pytest.mark.parametrize("command, option", REJECTED)
def test_unread_option_is_rejected(command, option, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args([command, option, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err


@pytest.mark.parametrize("command, func, _help, options", cli.SUBCOMMANDS)
def test_declared_options_parse(command, func, _help, options):
    argv = [command]
    for opt in options:
        argv.append("--" + opt.replace("_", "-"))
        if cli.OPTIONS[opt].get("action") != "store_true":
            argv.append("csv" if opt == "format" else "1")
    args = cli.build_parser().parse_args(argv)
    assert args.func is func
    assert all(getattr(args, opt) not in (None, False) for opt in options)
