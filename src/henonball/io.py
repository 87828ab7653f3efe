"""Serialization, atomic persistence and the on-disk profile cache.

All JSON artifacts carry a `schema_version` field; floats are written with
full round-trip precision (repr in JSON, 17 significant digits in CSV) and
every writer is deterministic: identical inputs give byte-identical files.
Files are written to a temporary sibling and atomically renamed, so an
interrupted run never leaves a partial artifact.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .closedform import ProblemParams
from .radial import RadialProfile
from .rescaling import RescaledProfile

__all__ = [
    "SCHEMA_VERSION",
    "CACHE_ENV_VAR",
    "fmt_float",
    "dumps_json",
    "atomic_write_text",
    "profile_to_dict",
    "profile_from_dict",
    "rescaled_to_dict",
    "spectrum_rows_to_csv",
    "rows_to_csv",
    "ProfileCache",
]

SCHEMA_VERSION = 1
CACHE_ENV_VAR = "HENONBALL_CACHE_DIR"

SPECTRUM_HEADER = "alpha,eps,j,lambda,node_count,error_estimate"


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
    pr = profile.params
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "radial_profile",
        "params": {"N": pr.n_dim, "alpha": pr.alpha, "eps": pr.eps},
        "u0": profile.u0,
        "mu": profile.mu,
        "first_zero_raw": profile.first_zero_raw,
        "integrator_tol": profile.integrator_tol,
        "grid": profile.grid.tolist(),
        "u": profile.u.tolist(),
        "du": profile.du.tolist(),
        "residuals": dict(residuals or {}),
    }


def profile_from_dict(doc: Mapping) -> RadialProfile:
    """Rebuild a profile from its artifact.

    Off-grid evaluation of a deserialized profile goes through a C¹ Hermite
    interpolant of the stored (u, du) samples instead of the integrator's
    dense output, so tight oracle comparisons should use freshly solved
    profiles."""
    if doc.get("kind") != "radial_profile":
        raise ValueError(f"not a radial_profile artifact: kind={doc.get('kind')!r}")
    p = doc["params"]
    params = ProblemParams(int(p["N"]), float(p["alpha"]), float(p["eps"]))
    return RadialProfile(
        params=params,
        grid=np.asarray(doc["grid"], dtype=float),
        u=np.asarray(doc["u"], dtype=float),
        du=np.asarray(doc["du"], dtype=float),
        u0=float(doc["u0"]),
        first_zero_raw=float(doc["first_zero_raw"]),
        mu=float(doc["mu"]),
        integrator_tol=float(doc["integrator_tol"]),
        _shot=None,
    )


def rescaled_to_dict(rescaled: RescaledProfile, metrics: Mapping[str, float] | None = None) -> dict:
    pr = rescaled.params
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "rescaled_profile",
        "params": {"N": pr.n_dim, "alpha": pr.alpha, "eps": pr.eps},
        "rho_eps": rescaled.rho_eps,
        "kappa": rescaled.kappa,
        "w0": rescaled.w0,
        "grid": rescaled.grid.tolist(),
        "w": rescaled.w.tolist(),
        "metrics": dict(metrics or {}),
    }


def spectrum_rows_to_csv(rows: Iterable[Mapping]) -> str:
    lines = [SPECTRUM_HEADER]
    for row in rows:
        lines.append(
            ",".join(
                [
                    fmt_float(row["alpha"]),
                    fmt_float(row["eps"]),
                    str(int(row["j"])),
                    fmt_float(row["lambda"]),
                    str(int(row["node_count"])),
                    fmt_float(row["error_estimate"]),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def rows_to_csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Generic CSV writer: floats at full precision, everything else str()."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append(fmt_float(cell))
            elif cell is None:
                cells.append("")
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


class ProfileCache:
    """Content-addressed store of radial-profile artifacts.

    The key hashes the exact solve inputs (N, α, ε, tolerance, amplitude);
    hits return the artifact written by an identical earlier computation, so
    cached and fresh command outputs are byte-identical.  Writes go through
    the atomic writer (temp file + rename) making them safe per key under
    concurrent use."""

    def __init__(self, root: str | Path | None = None):
        if root is None:
            root = os.environ.get(CACHE_ENV_VAR) or (
                Path.home() / ".cache" / "henonball"
            )
        self.root = Path(root)

    def key(self, n_dim: int, alpha: float, eps: float, tol: float, amplitude: float = 1.0) -> str:
        blob = json.dumps(
            {"N": n_dim, "alpha": alpha, "eps": eps, "tol": tol, "amplitude": amplitude},
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
