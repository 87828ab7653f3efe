"""Command-line surface.

Subcommands: solve, rescale, spectrum, bifurcate, sweep, verify.  All outputs
are deterministic (identical invocations produce byte-identical files), files
are written atomically, and every option is parsed and checked by argparse
before any computation starts.  Exit codes: 0 success, 1 failed verification
criteria, 2 invalid parameters, 3 numerical failure.  Only `solve
--cache-dir DIR` reads or writes a profile cache; no other run touches one.

Arguments can be kept in a file and passed as `@FILE`, e.g.
`henonball bifurcate @run.args --format json`.  The file holds one argument
per line, written `--key=value`, with no blank lines or comments; its
arguments are spliced in where `@FILE` stands, so whichever occurrence of an
option comes later on the line wins.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import bifurcation as bif
from . import io as hio
from . import rescaling as resc
from . import spectral as spec
from .closedform import ProblemParams
from .errors import DomainError, HenonError, NumericsError
from .radial import decay_bound_check, fowler_check, solve_dirichlet_ball
from .verify import run_criteria

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID = 2
EXIT_NUMERICAL = 3


# type= callables: a ValueError or ArgumentTypeError here makes argparse
# print the usage line and exit 2
def float_list(text: str) -> list[float]:
    """Comma- (or semicolon-) separated floats."""
    values = [float(tok) for tok in text.replace(";", ",").split(",") if tok.strip()]
    if not values:
        raise argparse.ArgumentTypeError("need at least one number")
    return values


def alpha_grid(text: str) -> list[float]:
    """lo:hi:n grid specification."""
    lo, hi, n = text.split(":")
    lo, hi, n = float(lo), float(hi), int(n)
    if not (-math.inf < lo < hi < math.inf and n >= 2):
        raise argparse.ArgumentTypeError(f"need finite lo < hi and n >= 2, got {text!r}")
    return np.linspace(lo, hi, n).tolist()


def bracket(text: str) -> tuple[float, float]:
    """lo:hi interval with finite ends."""
    lo, hi = (float(tok) for tok in text.split(":"))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise argparse.ArgumentTypeError(f"need finite lo and hi, got {text!r}")
    return lo, hi


def int_at_least(floor: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < floor:
            raise argparse.ArgumentTypeError(f"need an integer >= {floor}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def id_list(text: str) -> list[str]:
    """Comma-separated ids."""
    ids = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not ids:
        raise argparse.ArgumentTypeError("need at least one id")
    return ids


def emit(text: str, out_path: str | None) -> None:
    """Text to the --out file, or to stdout without one.  A failed write is a
    DomainError naming the path (exit 2; exit 1 is for failed criteria)."""
    if out_path:
        try:
            hio.atomic_write_text(out_path, text)
        except OSError as err:
            raise DomainError(f"cannot write --out {out_path!r}: {err}") from err
    else:
        sys.stdout.write(text)


def emit_table(args, kind: str, header: tuple[str, ...], rows: list[dict]) -> None:
    """Rows keyed by `header`, as CSV in header order or as a JSON document."""
    if args.format == "csv":
        text = hio.rows_to_csv(header, [[row[key] for key in header] for row in rows])
    else:
        text = hio.dumps_json(
            {"schema_version": hio.SCHEMA_VERSION, "kind": kind, "rows": rows}
        )
    emit(text, args.out)


def cmd_solve(args) -> int:
    params = ProblemParams(args.N, args.alpha, args.eps)
    # checked before the cache lookup, which would serve a refused input
    if not 0.0 < args.tol < 1.0:
        raise DomainError(f"need 0 < tol < 1, got {args.tol!r}")
    cache = text = None
    if args.cache_dir is not None:
        cache = hio.ProfileCache(args.cache_dir)
        key = cache.key(params.n_dim, params.alpha, params.eps, args.tol)
        text = cache.load_text(key)
    if text is None:
        profile = solve_dirichlet_ball(params, tol=args.tol)
        residuals = {
            "fowler": fowler_check(profile),
            "decay_margin": decay_bound_check(profile),
        }
        text = hio.dumps_json(hio.profile_to_dict(profile, residuals))
        if cache is not None:
            try:
                cache.store_text(key, text)
            except OSError as err:
                raise DomainError(
                    f"cannot write the profile cache {str(cache.root)!r}: {err}"
                ) from err
    emit(text, args.out)
    return EXIT_OK


def cmd_rescale(args) -> int:
    profile = solve_dirichlet_ball(ProblemParams(args.N, args.alpha, args.eps), tol=args.tol)
    rs = resc.rescale(profile)
    metrics = {
        "limit_distance": resc.limit_distance(rs),
        "uniform_bound_constant": resc.uniform_bound_check(rs),
        "kappa_relation_residual": resc.kappa_relation_residual(rs),
        "pde_residual": resc.pde_residual(rs),
    }
    emit(hio.dumps_json(hio.rescaled_to_dict(rs, metrics)), args.out)
    return EXIT_OK


SPECTRUM_HEADER = ("alpha", "eps", "j", "lambda", "node_count", "error_estimate")


def cmd_spectrum(args) -> int:
    params = ProblemParams(args.N, args.alpha, args.eps)
    profile = solve_dirichlet_ball(params, tol=args.tol)
    results = spec.solve_eigen(
        spec.SLProblem.from_profile(profile), count=args.count, n_points=args.grid_points
    )
    rows = [
        dict(zip(SPECTRUM_HEADER, (params.alpha, params.eps, r.j, r.extrapolated,
                                   r.node_count, r.error_estimate)))
        for r in results
    ]
    emit_table(args, "spectrum", SPECTRUM_HEADER, rows)
    return EXIT_OK


BIFURCATE_HEADER = (
    "N", "k", "eps", "alpha_k_eps", "delta", "residual",
    "bracket_lo", "bracket_hi", "unique", "exclusion_ok", "error",
)


def cmd_bifurcate(args) -> int:
    cache = bif.SolverCache()
    rows = []
    for eps in args.eps_list or [args.eps]:
        try:
            bp = bif.find_bifurcation_alpha(
                args.N, eps, args.k, bracket=args.bracket, cache=cache
            )
            values = [
                bp.alpha_k_eps, bp.delta, bp.residual, bp.bracket[0], bp.bracket[1],
                bp.unique, bp.exclusion_ok, None,
            ]
        except NumericsError as err:
            values = [None] * 7 + [str(err)]
        rows.append(dict(zip(BIFURCATE_HEADER, [args.N, args.k, eps, *values])))
    rows.sort(key=lambda r: -r["eps"])
    emit_table(args, "bifurcation_table", BIFURCATE_HEADER, rows)
    return EXIT_OK if any(r["error"] is None for r in rows) else EXIT_NUMERICAL


SWEEP_HEADER = ("eps", "alpha", "lambda1", "lambda2", "u0", "error")


def _sweep_row(task: tuple[int, float, float, int]) -> dict:
    n_dim, alpha, eps, n_points = task
    try:
        profile = solve_dirichlet_ball(ProblemParams(n_dim, alpha, eps))
        res = spec.solve_eigen(
            spec.SLProblem.from_profile(profile),
            count=2,
            n_points=n_points,
            with_vectors=False,
        )
        values = [res[0].extrapolated, res[1].extrapolated, profile.u0, None]
    except NumericsError as err:
        values = [None, None, None, str(err)]
    return dict(zip(SWEEP_HEADER, [eps, alpha, *values]))


def cmd_sweep(args) -> int:
    tasks = [
        (args.N, a, e, args.grid_points)
        for e in args.eps_list for a in args.alpha_grid
    ]
    if args.jobs > 1:
        # imported here: the process pool's modules add to every CLI start-up
        from concurrent.futures import ProcessPoolExecutor

        # the pool starts all its workers at once, so never more than tasks
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(tasks))) as pool:
            rows = list(pool.map(_sweep_row, tasks))
    else:
        rows = [_sweep_row(t) for t in tasks]
    # deterministic order regardless of execution interleaving
    rows.sort(key=lambda r: (-r["eps"], r["alpha"]))
    emit_table(args, "sweep", SWEEP_HEADER, rows)
    return EXIT_OK if any(r["error"] is None for r in rows) else EXIT_NUMERICAL


def cmd_verify(args) -> int:
    report = run_criteria(args.criteria, progress=lambda line: print(line, flush=True))
    print(
        f"{'ALL CRITERIA PASS' if report.overall_pass else 'CRITERIA FAILED'} "
        f"({sum(r.passed for r in report.results)}/{len(report.results)}) "
        f"in {report.total_runtime_s:.1f}s"
    )
    if args.out:
        emit(hio.dumps_json(report.to_dict()), args.out)
    return EXIT_OK if report.overall_pass else EXIT_VERIFY_FAILED


# option name -> add_argument keywords: the one place that knows each option's
# type, default, required flag and choices.  Each subcommand declares only the
# options its cmd_* reads, so argparse rejects the rest.
OPTIONS = {
    "N": {"type": int, "required": True},
    "alpha": {"type": float, "required": True},
    "eps": {"type": float, "required": True},
    "tol": {"type": float, "default": 1e-10, "help": "radial integrator tolerance"},
    "cache_dir": {"help": "profile cache directory; without it nothing is cached"},
    # assemble_pencil needs at least 3 nodes
    "grid_points": {"type": int_at_least(3)},
    "count": {"type": int_at_least(1), "default": 3,
              "help": "number of lowest eigenvalues; values at or above ((N-2)/2)^2 lie "
                      "in the continuous spectrum and are not eigenvalues of the ball"},
    "format": {"choices": ["csv", "json"], "default": "csv"},
    "k": {"type": int, "required": True},
    "eps_list": {"type": float_list, "required": True, "help": "e.g. 0.05,0.04"},
    "bracket": {"type": bracket,
                "help": "lo:hi (default: 2(k-1) to the identity's window end)"},
    "alpha_grid": {"type": alpha_grid, "required": True, "help": "lo:hi:n"},
    "jobs": {"type": int_at_least(1), "default": 1},
    "criteria": {"type": id_list,
                 "help": "comma-separated ids, e.g. C1,C4; an id selects its whole "
                         "criterion (C1.a runs C1.a-C1.c)"},
}

# an inner tuple is a group of options of which exactly one must be given
SUBCOMMANDS = (
    ("solve", cmd_solve, "radial Dirichlet solution as a JSON artifact",
     ("N", "alpha", "eps", "tol", "cache_dir")),
    ("rescale", cmd_rescale, "expanding-ball rescaling and bubble distance",
     ("N", "alpha", "eps", "tol")),
    ("spectrum", cmd_spectrum, "lowest eigenvalues of the linearization",
     ("N", "alpha", "eps", "tol", "grid_points", "count", "format")),
    ("bifurcate", cmd_bifurcate, "bifurcation values alpha_k for an eps list",
     ("N", "k", ("eps", "eps_list"), "bracket", "format")),
    ("sweep", cmd_sweep, "lambda1/lambda2 table over an (alpha, eps) grid",
     ("N", "alpha_grid", "eps_list", "grid_points", "jobs", "format")),
    ("verify", cmd_verify, "run the acceptance criteria suite", ("criteria",)),
)

# defaults that differ between subcommands sharing an option
SUBCOMMAND_DEFAULTS = {
    "spectrum": {"grid_points": 2000},
    "sweep": {"grid_points": bif.N_POINTS},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="henonball",
        description=(
            "Radial solutions, linearized spectra and bifurcation points of "
            "the Henon equation on the unit ball"
        ),
        fromfile_prefix_chars="@",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(target, opt: str, **overrides) -> None:
        target.add_argument("--" + opt.replace("_", "-"), dest=opt,
                            **{**OPTIONS[opt], **overrides})

    for name, func, help_text, options in SUBCOMMANDS:
        # no abbreviations: sweep would take --eps for --eps-list
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--out", help="output path (default: stdout)")
        for opt in options:
            if isinstance(opt, tuple):
                group = p.add_mutually_exclusive_group(required=True)
                for member in opt:
                    add(group, member, required=False)
            else:
                add(p, opt)
        p.set_defaults(func=func, **SUBCOMMAND_DEFAULTS.get(name, {}))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID
    except HenonError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
