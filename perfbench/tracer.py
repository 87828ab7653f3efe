"""Span tracer for the traced benchmark run.

The tracer wraps public functions of the henonball layers from outside the
package: each wrapped call records a span (name, start, end, parent) and an
optional work count, kept in memory until the run ends.  Names imported into
another module are wrapped where that caller looks them up, methods on their
class.  `Tracer.uninstall` restores every wrapped attribute.
"""

from __future__ import annotations

import contextvars
import functools
import json
import time
from pathlib import Path

import numpy as np

from henonball import bifurcation, cli, rescaling, radial, spectral, verify
from henonball import io as hio

# span name -> (owner, attribute) pairs to wrap, and a work count taken from
# (args, kwargs, result); None records no count
TARGETS = {
    "radial.ivp": (
        [(radial, "integrate_radial_ivp"), (verify, "integrate_radial_ivp")],
        lambda a, k, res: len(res.r),
    ),
    "radial.solve": (
        [(radial, "solve_dirichlet_ball"), (bifurcation, "solve_dirichlet_ball"),
         (cli, "solve_dirichlet_ball"), (verify, "solve_dirichlet_ball")],
        None,
    ),
    "radial.evaluate": (
        [(radial.RadialProfile, "evaluate")],
        lambda a, k, res: int(np.size(a[1] if len(a) > 1 else k["r"])),
    ),
    "spectral.assemble": (
        [(spectral, "assemble_pencil"), (bifurcation, "assemble_pencil")],
        lambda a, k, res: res.n,
    ),
    "spectral.solve_eigen": (
        [(spectral, "solve_eigen"), (bifurcation, "solve_eigen")],
        None,
    ),
    "spectral.eigen": ([(spectral, "eigh_tridiagonal")], None),
    "spectral.count": (
        [(spectral.Pencil, "count")],
        lambda a, k, res: a[0].n * int(np.size(a[1] if len(a) > 1 else k["shifts"])),
    ),
    "spectral.batch": ([(spectral.Pencil, "eigenvalue_batch")], None),
    "spectral.bisect": ([(spectral.Pencil, "eigenvalue_bisect")], None),
    "spectral.prufer": ([(spectral, "prufer_eigen")], None),
    "spectral.kernel": ([(spectral, "radial_kernel_test")], None),
    "spectral.limit": ([(spectral, "limit_eigen")], None),
    "bifurcation.search": ([(bifurcation, "find_bifurcation_alpha")], None),
    "bifurcation.lambda": ([(bifurcation, "lambda_values")], None),
    "bifurcation.morse": ([(bifurcation, "morse_index")], None),
    "rescaling": (
        [(rescaling, name) for name in (
            "rescale", "limit_distance", "uniform_bound_check",
            "kappa_relation_residual", "pde_residual")],
        None,
    ),
    "io.cache.load": (
        [(hio.ProfileCache, "load_text")],
        lambda a, k, res: int(res is not None),
    ),
    "io.write": (
        [(hio, "atomic_write_text")],
        lambda a, k, res: len((a[1] if len(a) > 1 else k["text"]).encode()),
    ),
    "io.encode": ([(hio, "profile_to_dict"), (hio, "dumps_json")], None),
    "cli.main": ([(cli, "main")], None),
}

# per-layer metric name -> unit, in report order
LAYER_UNITS = {
    "radial.ivp.calls": "count",
    "radial.ivp.steps": "count",
    "radial.ivp.busy_s": "s",
    "radial.ivp.retry_ratio": "ratio",
    "radial.solve.self_s": "s",
    "radial.evaluate.calls": "count",
    "radial.evaluate.points": "count",
    "radial.evaluate.busy_s": "s",
    "spectral.assemble.calls": "count",
    "spectral.assemble.nodes": "count",
    "spectral.assemble.self_s": "s",
    "spectral.eigen.calls": "count",
    "spectral.eigen.busy_s": "s",
    "spectral.count.calls": "count",
    "spectral.count.row_shifts": "count",
    "spectral.count.busy_s": "s",
    "spectral.certify.fallback_ratio": "ratio",
    "spectral.prufer.busy_s": "s",
    "spectral.kernel.busy_s": "s",
    "spectral.limit.busy_s": "s",
    "bifurcation.search.calls": "count",
    "bifurcation.search.self_s": "s",
    "bifurcation.alpha_evals": "count",
    "bifurcation.lambda.hit_ratio": "ratio",
    "bifurcation.morse.busy_s": "s",
    "rescaling.busy_s": "s",
    "io.cache.hits": "count",
    "io.cache.misses": "count",
    "io.write.calls": "count",
    "io.write.bytes": "bytes",
    "io.write.busy_s": "s",
    "io.encode.busy_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}

_NAME, _START, _END, _PARENT, _WORK = range(5)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[list] = []
        self._current = contextvars.ContextVar("span", default=None)
        self._saved: list[tuple[object, str, bool, object]] = []

    def wrap(self, name, fn, work=None):
        spans, current = self.spans, self._current

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, current.get(), None]
            spans.append(span)
            token = current.set(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    span[_WORK] = work(args, kwargs, result)
                return result
            finally:
                span[_END] = time.perf_counter()
                current.reset(token)

        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, (sites, work) in TARGETS.items():
            for owner, attr in sites:
                own = attr in vars(owner)
                original = getattr(owner, attr)
                self._saved.append((owner, attr, own, original))
                setattr(owner, attr, self.wrap(name, original, work))

    def uninstall(self):
        while self._saved:
            owner, attr, own, original = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, path: Path) -> None:
        """Spans as JSON lines: id, name, start, end, parent, work."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, (name, start, end, parent, work) in enumerate(self.spans):
                fh.write(json.dumps([i, name, start, end, parent, work]) + "\n")


def layer_metrics(spans: list[list], n_ops: int) -> dict[str, float]:
    """Per-layer metrics as per-op means over `n_ops` traced ops; ratios are
    over their own base and read 0 when the base is empty."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[_PARENT] is not None:
            children[s[_PARENT]].append(i)

    def dur(i):
        return spans[i][_END] - spans[i][_START]

    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[_NAME], []).append(i)

    def named(name):
        return by_name.get(name, [])

    def outermost(name):
        # a span nested in one of the same name is already counted
        out = []
        for i in named(name):
            p = spans[i][_PARENT]
            while p is not None and spans[p][_NAME] != name:
                p = spans[p][_PARENT]
            if p is None:
                out.append(i)
        return out

    def busy(name):
        return sum(dur(i) for i in outermost(name))

    def self_time(name):
        return sum(dur(i) - sum(dur(c) for c in children[i]) for i in named(name))

    def work(name):
        return sum(spans[i][_WORK] or 0 for i in named(name))

    def has_descendant(i, name):
        stack = list(children[i])
        while stack:
            j = stack.pop()
            if spans[j][_NAME] == name:
                return True
            stack.extend(children[j])
        return False

    def ratio(num, den):
        return num / den if den else 0.0

    solves = named("radial.solve")
    shots_in_solve = sum(
        1 for i in named("radial.ivp")
        if spans[i][_PARENT] is not None and spans[spans[i][_PARENT]][_NAME] == "radial.solve"
    )
    batches = named("spectral.batch")
    searches = named("bifurcation.search")
    search_ids = set(searches)
    lambdas = named("bifurcation.lambda")
    loads = named("io.cache.load")
    hits = work("io.cache.load")
    totals = {
        "radial.ivp.calls": len(named("radial.ivp")),
        "radial.ivp.steps": work("radial.ivp"),
        "radial.ivp.busy_s": busy("radial.ivp"),
        "radial.solve.self_s": self_time("radial.solve"),
        "radial.evaluate.calls": len(named("radial.evaluate")),
        "radial.evaluate.points": work("radial.evaluate"),
        "radial.evaluate.busy_s": busy("radial.evaluate"),
        "spectral.assemble.calls": len(named("spectral.assemble")),
        "spectral.assemble.nodes": work("spectral.assemble"),
        "spectral.assemble.self_s": self_time("spectral.assemble"),
        "spectral.eigen.calls": len(named("spectral.eigen")),
        "spectral.eigen.busy_s": busy("spectral.eigen"),
        "spectral.count.calls": len(named("spectral.count")),
        "spectral.count.row_shifts": work("spectral.count"),
        "spectral.count.busy_s": busy("spectral.count"),
        "spectral.prufer.busy_s": busy("spectral.prufer"),
        "spectral.kernel.busy_s": busy("spectral.kernel"),
        "spectral.limit.busy_s": busy("spectral.limit"),
        "bifurcation.search.calls": len(searches),
        "bifurcation.search.self_s": self_time("bifurcation.search"),
        "bifurcation.morse.busy_s": busy("bifurcation.morse"),
        "rescaling.busy_s": busy("rescaling"),
        "io.cache.hits": hits,
        "io.cache.misses": len(loads) - hits,
        "io.write.calls": len(named("io.write")),
        "io.write.bytes": work("io.write"),
        "io.write.busy_s": busy("io.write"),
        "io.encode.busy_s": busy("io.encode"),
        "cli.self_s": self_time("cli.main"),
    }
    out = {name: value / n_ops for name, value in totals.items()}
    out["radial.ivp.retry_ratio"] = ratio(shots_in_solve - len(solves), len(solves))
    out["spectral.certify.fallback_ratio"] = ratio(
        sum(has_descendant(i, "spectral.bisect") for i in batches), len(batches)
    )
    out["bifurcation.alpha_evals"] = ratio(
        sum(1 for i in lambdas if spans[i][_PARENT] in search_ids), len(searches)
    )
    out["bifurcation.lambda.hit_ratio"] = ratio(
        sum(not has_descendant(i, "spectral.solve_eigen") for i in lambdas), len(lambdas)
    )
    return {name: float(value) for name, value in out.items()}
