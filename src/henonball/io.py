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
import tempfile
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .radial import RadialProfile, default_profile_grid
from .rescaling import RescaledProfile

__all__ = [
    "SCHEMA_VERSION",
    "fmt_float",
    "dumps_json",
    "atomic_write_text",
    "profile_to_dict",
    "rescaled_to_dict",
    "rows_to_csv",
    "ProfileCache",
]

SCHEMA_VERSION = 1


def fmt_float(x: float) -> str:
    """Locale-independent decimal text with 17 significant digits."""
    return format(float(x), ".17g")


def dumps_json(obj) -> str:
    """Canonical JSON text: sorted keys, stable float repr, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write text through a temporary sibling and an atomic rename.  The file
    gets the mode a plain open() would give (0o666 less the umask),
    not mkstemp's 0o600."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
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
    u, du = profile.evaluate(grid, derivative=True)
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

    The key hashes the exact solve inputs (N, α, ε, tolerance);
    hits return the artifact written by an identical earlier computation, so
    cached and fresh command outputs are byte-identical.  Writes go through
    the atomic writer (temp file + rename) making them safe per key under
    concurrent use."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def key(self, n_dim: int, alpha: float, eps: float, tol: float) -> str:
        blob = json.dumps({"N": n_dim, "alpha": alpha, "eps": eps, "tol": tol}, sort_keys=True)
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
