import json
import os
import stat

import numpy as np
import pytest

from henonball.closedform import ProblemParams
from henonball.errors import DomainError
from henonball.io import atomic_write_text, dumps_json, profile_from_dict, profile_to_dict
from henonball.radial import solve_dirichlet_ball
from henonball.spectral import radial_kernel_test


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    try:
        yield
    finally:
        os.umask(old)


def test_written_file_honors_umask(tmp_path, umask_022):
    path = tmp_path / "artifact.json"
    atomic_write_text(path, '{"a": 1}\n')
    assert stat.S_IMODE(path.stat().st_mode) == 0o644


def test_same_text_gives_identical_bytes(tmp_path):
    text = "alpha,eps,j,lambda\n2.0,0.01,1,-6.0000813\n"
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    atomic_write_text(first, text)
    atomic_write_text(second, text)
    assert first.read_bytes() == second.read_bytes() == text.encode()
    atomic_write_text(first, text)  # overwrite in place
    assert first.read_bytes() == second.read_bytes()
    # no temporary sibling is left behind
    assert sorted(p.name for p in tmp_path.iterdir()) == ["first.csv", "second.csv"]


def test_profile_artifact_round_trip():
    fresh = solve_dirichlet_ball(ProblemParams(3, 2.0, 0.05))
    text = dumps_json(profile_to_dict(fresh, {"fowler": 1e-9}))
    loaded = profile_from_dict(json.loads(text))
    assert dumps_json(profile_to_dict(loaded, {"fowler": 1e-9})) == text
    # off the shot, evaluate goes through the Hermite interpolant
    assert loaded._shot is None
    assert np.array_equal(loaded.evaluate(loaded.grid), fresh.u)
    k_fresh, k_loaded = radial_kernel_test(fresh), radial_kernel_test(loaded)
    assert abs(k_loaded - k_fresh) <= 1e-12 * abs(k_fresh)
    mid = 0.5 * (fresh.grid[:-1] + fresh.grid[1:])
    assert np.max(np.abs(loaded.evaluate(mid) - fresh.evaluate(mid))) < 1e-6 * fresh.u0


def test_wrong_artifact_kind_is_a_domain_error():
    with pytest.raises(DomainError, match="kind='spectrum'"):
        profile_from_dict({"kind": "spectrum"})
