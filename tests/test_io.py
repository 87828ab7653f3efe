import os
import stat

import pytest

from henonball.io import atomic_write_text, rows_to_csv


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


def test_csv_cells_plain_and_quoted():
    rows = [[3, 0.1, None, True, "ok"], [4, 2.0, 1.5, False, 'f(0.2)=3.69, "f"']]
    assert rows_to_csv(("N", "eps", "x", "unique", "error"), rows) == (
        "N,eps,x,unique,error\n"
        "3,0.10000000000000001,,True,ok\n"
        '4,2,1.5,False,"f(0.2)=3.69, ""f"""\n'
    )
