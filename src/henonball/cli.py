"""Command-line surface.

Subcommands: solve, rescale, spectrum, bifurcate, sweep, verify.  All outputs
are deterministic (identical invocations produce byte-identical files), files
are written atomically, and numeric parameters are validated before any
computation starts.  Exit codes: 0 success, 1 failed verification criteria,
2 invalid parameters, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import bifurcation as bif
from . import io as hio
from . import rescaling as resc
from . import spectral as spec
from .closedform import ProblemParams
from .errors import DomainError, HenonError
from .radial import decay_bound_check, fowler_check, solve_dirichlet_ball
from .verify import run_criteria

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID = 2
EXIT_NUMERICAL = 3


def load_config(path: str | None) -> dict[str, str]:
    """Flat key=value file; '#' starts a comment; flags override these."""
    if not path:
        return {}
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"bad config line (want key=value): {raw!r}")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out


class Settings:
    """Merges CLI values (highest precedence), config file, then defaults."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = load_config(getattr(args, "config", None))

    def get(self, name: str, cast, default=None, required: bool = False):
        val = getattr(self.args, name, None)
        if val is None and name in self.config:
            val = self.config[name]
        if val is None:
            if required:
                raise DomainError(f"missing required parameter --{name.replace('_', '-')}")
            return default
        if cast is bool and isinstance(val, str):
            return val.lower() in ("1", "true", "yes", "on")
        return cast(val)

    def flag(self, name: str) -> bool:
        if getattr(self.args, name, False):
            return True
        return bool(self.get(name, bool, False))


def parse_float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(";", ",").split(",") if tok.strip()]


def parse_grid(text: str) -> np.ndarray:
    """lo:hi:n grid specification."""
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError(f"grid must be lo:hi:n, got {text!r}")
    lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    if not (lo < hi and n >= 2):
        raise DomainError(f"bad grid spec {text!r}")
    return np.linspace(lo, hi, n)


def emit(text: str, out_path: str | None) -> None:
    if out_path:
        hio.atomic_write_text(out_path, text)
    else:
        sys.stdout.write(text)


def params_from(settings: Settings) -> ProblemParams:
    return ProblemParams(
        settings.get("N", int, required=True),
        settings.get("alpha", float, required=True),
        settings.get("eps", float, required=True),
    )


def cmd_solve(args) -> int:
    st = Settings(args)
    tol = st.get("tol", float, 1e-10)
    amplitude = st.get("amplitude", float, 1.0)
    out = st.get("out", str)
    use_cache = not st.flag("no_cache")
    cache = hio.ProfileCache(st.get("cache_dir", str))

    params = params_from(st)
    key = cache.key(params.n_dim, params.alpha, params.eps, tol, amplitude)
    text = cache.load_text(key) if use_cache else None
    if text is None:
        profile = solve_dirichlet_ball(params, amplitude=amplitude, tol=tol)
        residuals = {
            "fowler": fowler_check(profile),
            "decay_margin": decay_bound_check(profile),
        }
        text = hio.dumps_json(hio.profile_to_dict(profile, residuals))
        if use_cache:
            cache.store_text(key, text)
    emit(text, out)
    return EXIT_OK


def cmd_rescale(args) -> int:
    st = Settings(args)
    tol = st.get("tol", float, 1e-10)
    params = params_from(st)
    profile = solve_dirichlet_ball(params, tol=tol)
    rs = resc.rescale(profile)
    metrics = {
        "limit_distance": resc.limit_distance(rs),
        "uniform_bound_constant": resc.uniform_bound_check(rs),
        "kappa_relation_residual": resc.kappa_relation_residual(rs),
        "pde_residual": resc.pde_residual(rs),
    }
    emit(hio.dumps_json(hio.rescaled_to_dict(rs, metrics)), st.get("out", str))
    return EXIT_OK


def cmd_spectrum(args) -> int:
    st = Settings(args)
    params = params_from(st)
    count = st.get("count", int, 3)
    n_points = st.get("grid_points", int, 2000)
    tol = st.get("tol", float, 1e-10)
    profile = solve_dirichlet_ball(params, tol=tol)
    results = spec.solve_eigen(
        spec.SLProblem.from_profile(profile), count=count, n_points=n_points
    )
    rows = [
        {
            "alpha": params.alpha,
            "eps": params.eps,
            "j": r.j,
            "lambda": r.value,
            "node_count": r.node_count,
            "error_estimate": r.error_estimate,
        }
        for r in results
    ]
    fmt = st.get("format", str, "csv")
    if fmt == "csv":
        text = hio.spectrum_rows_to_csv(rows)
    elif fmt == "json":
        text = hio.dumps_json(
            {"schema_version": hio.SCHEMA_VERSION, "kind": "spectrum", "rows": rows}
        )
    else:
        raise DomainError(f"format must be csv or json, got {fmt!r}")
    emit(text, st.get("out", str))
    return EXIT_OK


BIFURCATE_HEADER = (
    "N,k,eps,alpha_k_eps,residual,bracket_lo,bracket_hi,unique,exclusion_ok,error"
)


def cmd_bifurcate(args) -> int:
    st = Settings(args)
    n_dim = st.get("N", int, required=True)
    k = st.get("k", int, required=True)
    eps_text = st.get("eps_list", str) or st.get("eps", str)
    if eps_text is None:
        raise DomainError("need --eps or --eps-list")
    eps_list = parse_float_list(str(eps_text))
    bracket = None
    if st.get("bracket", str):
        lo, hi = (float(x) for x in st.get("bracket", str).split(":"))
        bracket = (lo, hi)

    cache = bif.SolverCache()
    rows, failures = [], 0
    for eps in eps_list:
        try:
            bp = bif.find_bifurcation_alpha(n_dim, eps, k, bracket=bracket, cache=cache)
            rows.append(
                [
                    n_dim, k, eps, bp.alpha_k_eps, bp.residual,
                    bp.bracket[0], bp.bracket[1], bp.unique, bp.exclusion_ok, None,
                ]
            )
        except HenonError as err:
            failures += 1
            rows.append([n_dim, k, eps, None, None, None, None, None, None, str(err)])
    rows.sort(key=lambda r: -r[2])
    fmt = st.get("format", str, "csv")
    if fmt == "csv":
        text = hio.rows_to_csv(BIFURCATE_HEADER.split(","), rows)
    else:
        keys = BIFURCATE_HEADER.split(",")
        text = hio.dumps_json(
            {
                "schema_version": hio.SCHEMA_VERSION,
                "kind": "bifurcation_table",
                "rows": [dict(zip(keys, r)) for r in rows],
            }
        )
    emit(text, st.get("out", str))
    return EXIT_OK if failures < len(rows) else EXIT_NUMERICAL


SWEEP_HEADER = "eps,alpha,lambda1,lambda2,u0,error"


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
        return {
            "eps": eps,
            "alpha": alpha,
            "lambda1": res[0].extrapolated,
            "lambda2": res[1].extrapolated,
            "u0": profile.u0,
            "error": None,
        }
    except HenonError as err:
        return {"eps": eps, "alpha": alpha, "lambda1": None, "lambda2": None,
                "u0": None, "error": str(err)}


def cmd_sweep(args) -> int:
    st = Settings(args)
    n_dim = st.get("N", int, required=True)
    alphas = parse_grid(st.get("alpha_grid", str, required=True))
    eps_list = parse_float_list(st.get("eps_list", str, required=True))
    n_points = st.get("grid_points", int, bif.N_POINTS_DEFAULT)
    jobs = st.get("jobs", int, 1)

    tasks = [
        (n_dim, float(a), float(e), n_points) for e in eps_list for a in alphas
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_row, tasks))
    else:
        rows = [_sweep_row(t) for t in tasks]
    # deterministic order regardless of execution interleaving
    rows.sort(key=lambda r: (-r["eps"], r["alpha"]))

    ok = sum(1 for r in rows if r["error"] is None)
    fmt = st.get("format", str, "csv")
    if fmt == "csv":
        text = hio.rows_to_csv(
            SWEEP_HEADER.split(","),
            [[r["eps"], r["alpha"], r["lambda1"], r["lambda2"], r["u0"], r["error"]]
             for r in rows],
        )
    else:
        text = hio.dumps_json(
            {"schema_version": hio.SCHEMA_VERSION, "kind": "sweep", "rows": rows}
        )
    emit(text, st.get("out", str))
    return EXIT_OK if ok >= 1 else EXIT_NUMERICAL


def cmd_verify(args) -> int:
    st = Settings(args)
    ids = None
    if st.get("criteria", str):
        ids = [tok.strip() for tok in st.get("criteria", str).split(",") if tok.strip()]
    report = run_criteria(ids, progress=lambda line: print(line, flush=True))
    print(
        f"{'ALL CRITERIA PASS' if report.overall_pass else 'CRITERIA FAILED'} "
        f"({sum(r.passed for r in report.results)}/{len(report.results)}) "
        f"in {report.total_runtime_s:.1f}s"
    )
    out = st.get("out", str)
    if out:
        hio.atomic_write_text(out, hio.dumps_json(report.to_dict()))
    return EXIT_OK if report.overall_pass else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="henonball",
        description=(
            "Radial solutions, linearized spectra and bifurcation points of "
            "the Henon equation on the unit ball"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file (flags override)")
    common.add_argument("--out", help="output path (default: stdout)")
    common.add_argument("--format", choices=["csv", "json"], default=None)
    common.add_argument(
        "--tol", type=float, default=None,
        help="radial integrator tolerance (solve, rescale, spectrum)",
    )
    common.add_argument("--grid-points", dest="grid_points", type=int, default=None)
    common.add_argument("--no-cache", dest="no_cache", action="store_true")
    common.add_argument("--cache-dir", dest="cache_dir", default=None)

    problem = argparse.ArgumentParser(add_help=False)
    problem.add_argument("--N", dest="N", type=int, default=None)
    problem.add_argument("--alpha", type=float, default=None)
    problem.add_argument("--eps", type=float, default=None)

    p = sub.add_parser("solve", parents=[common, problem],
                       help="radial Dirichlet solution as a JSON artifact")
    p.add_argument("--amplitude", type=float, default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("rescale", parents=[common, problem],
                       help="expanding-ball rescaling and bubble distance")
    p.set_defaults(func=cmd_rescale)

    p = sub.add_parser("spectrum", parents=[common, problem],
                       help="lowest eigenvalues of the linearization")
    p.add_argument("--count", type=int, default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("bifurcate", parents=[common, problem],
                       help="bifurcation values alpha_k for an eps list")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--eps-list", dest="eps_list", default=None)
    p.add_argument("--bracket", default=None, help="lo:hi")
    p.set_defaults(func=cmd_bifurcate)

    p = sub.add_parser("sweep", parents=[common, problem],
                       help="lambda1/lambda2 table over an (alpha, eps) grid")
    p.add_argument("--alpha-grid", dest="alpha_grid", default=None, help="lo:hi:n")
    p.add_argument("--eps-list", dest="eps_list", default=None)
    p.add_argument("--jobs", type=int, default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", parents=[common],
                       help="run the acceptance criteria suite")
    p.add_argument("--criteria", default=None, help="comma-separated ids, e.g. C1,C4")
    p.set_defaults(func=cmd_verify)

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
