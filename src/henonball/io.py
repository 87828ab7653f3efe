"""Serialization, atomic persistence and the on-disk profile cache.

All JSON artifacts carry a `schema_version` field; floats are written with
full round-trip precision (repr in JSON, 17 significant digits in CSV) and
every writer is deterministic: identical inputs give byte-identical files.
Files are written to a temporary sibling and atomically renamed, so an
interrupted run never leaves a partial artifact.

Artifacts are write-only outputs; a profile's samples come from
`RadialProfile.evaluate`, and the cache returns stored text unparsed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .radial import RadialProfile, default_profile_grid
from .rescaling import RescaledProfile

__all__ = [
    "SCHEMA_VERSION",
    "SOLVER_REVISION",
    "fmt_float",
    "dumps_json",
    "atomic_write_text",
    "profile_to_dict",
    "rescaled_to_dict",
    "rows_to_csv",
    "ProfileCache",
]

SCHEMA_VERSION = 1
# the revision of the radial solver whose samples the cache stores, hashed
# into every key: a change that moves a solve's output bumps it, so a
# directory written by an earlier solver misses instead of serving its
# samples (1: the shot runs in t = log r)
SOLVER_REVISION = 1


def fmt_float(x: float) -> str:
    """Locale-independent decimal text with 17 significant digits."""
    return format(float(x), ".17g")


def dumps_json(obj) -> str:
    """Canonical JSON text: sorted keys, stable float repr, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write text through a temporary sibling and an atomic rename.  The
    sibling is created with mode 0o666 and a random suffix, so the kernel
    applies the umask and the file gets the mode a plain open() would give;
    the process umask is never read or changed."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def profile_to_dict(profile: RadialProfile, residuals: Mapping[str, float] | None = None) -> dict:
    """The profile's artifact: its samples on `default_profile_grid()`."""
    pr = profile.params
    grid = default_profile_grid()
    u, du = profile.evaluate(grid)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "radial_profile",
        "params": {"N": pr.n_dim, "alpha": pr.alpha, "eps": pr.eps},
        "u0": profile.u0,
        "mu": profile.u0**-2.0,
        "first_zero_raw": profile.first_zero_raw,
        "integrator_tol": profile.integrator_tol,
        "grid": grid.tolist(),
        "u": u.tolist(),
        "du": du.tolist(),
        "residuals": dict(residuals or {}),
    }


def rescaled_to_dict(rescaled: RescaledProfile, metrics: Mapping[str, float] | None = None) -> dict:
    """The rescaled profile's artifact: w0 = κ u0 and `rescaled.samples()`."""
    pr = rescaled.params
    grid, w = rescaled.samples()
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "rescaled_profile",
        "params": {"N": pr.n_dim, "alpha": pr.alpha, "eps": pr.eps},
        "rho_eps": rescaled.rho_eps,
        "kappa": rescaled.kappa,
        "w0": rescaled.kappa * rescaled.profile.u0,
        "grid": grid.tolist(),
        "w": w.tolist(),
        "metrics": dict(metrics or {}),
    }


def rows_to_csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV text through `csv.writer`: floats at full precision, None empty,
    everything else str(); a cell with a comma, quote or newline is quoted."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(fmt_float(cell) if isinstance(cell, float) else cell for cell in row)
    return buf.getvalue()


class ProfileCache:
    """Content-addressed store of radial-profile artifacts under `root`.

    The key hashes the exact solve inputs (N, α, ε, tolerance) and
    `SOLVER_REVISION`; hits return the artifact written by an identical
    earlier computation, so cached and fresh command outputs are
    byte-identical.  Writes go through the atomic writer (temp file +
    rename) making them safe per key under concurrent use."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def key(self, n_dim: int, alpha: float, eps: float, tol: float) -> str:
        blob = json.dumps(
            {"N": n_dim, "alpha": alpha, "eps": eps, "tol": tol, "solver": SOLVER_REVISION},
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:24]

    def path_for(self, key: str) -> Path:
        return self.root / "profiles" / f"{key}.json"

    def load_text(self, key: str) -> str | None:
        path = self.path_for(key)
        try:
            return path.read_text()
        except OSError:
            return None

    def store_text(self, key: str, text: str) -> Path:
        path = self.path_for(key)
        atomic_write_text(path, text)
        return path
