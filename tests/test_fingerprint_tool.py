"""`tools/fingerprint.py --compare` on two small documents."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"


@pytest.fixture(scope="module")
def fingerprint():
    spec = importlib.util.spec_from_file_location("fingerprint_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def document(alpha=2.0, delta=1e-3, vector="b" * 64, evaluations=4, warnings=0,
             profile="c" * 64):
    return {
        "bifurcate": {"3,0.05,2,None": {
            "alpha_k_eps": alpha.hex(), "delta": delta.hex(), "evaluations": evaluations,
            "unique": True, "warnings": warnings}},
        "spectrum": {"3,2.0,0.05": {
            "eigen": [[1, (-6.0).hex(), (1e-9).hex(), 0, "a" * 64, vector],
                      [2, (0.5).hex(), (1e-9).hex(), 1, "a" * 64, "d" * 64]],
            "u0": (3.0).hex(), "warnings": 0}},
        "profile": {"3,0.0,0.05,1.0": {"evaluate": profile, "warnings": 0}},
    }


def run(fingerprint, tmp_path, capsys, old, new):
    paths = []
    for name, doc in (("old.json", old), ("new.json", new)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(doc))
    status = fingerprint.main(["--compare", *map(str, paths)])
    return status, capsys.readouterr().out.splitlines()


def test_roundoff_moves_are_measured_and_pass(fingerprint, tmp_path, capsys):
    new = document(alpha=2.0 * (1 + 2**-40), delta=1e-3 * (1 + 2**-41), vector="e" * 64)
    status, lines = run(fingerprint, tmp_path, capsys, document(), new)
    assert status == 0
    assert lines[0] == "floats moved: 2 of 7"
    assert lines[1] == ("largest float move, scaled by max(1, |x|): 9.09e-13 at "
                        "bifurcate / 3,0.05,2,None / alpha_k_eps")
    assert lines[2] == ("largest relative delta move: 4.55e-13 at "
                        "bifurcate / 3,0.05,2,None / delta")
    assert lines[3:] == ["eigenvector digests changed: 1 of 2", "other differences: 0"]


def test_every_other_difference_is_listed_and_fails(fingerprint, tmp_path, capsys):
    old = document()
    new = document(evaluations=5, warnings=1, profile="f" * 64)
    new["spectrum"]["3,2.0,0.05"]["eigen"][1][3] = 2
    del new["spectrum"]["3,2.0,0.05"]["u0"]
    new["bifurcate"]["3,0.05,2,None"]["alpha_k_eps"] = "NumericsError"
    status, lines = run(fingerprint, tmp_path, capsys, old, new)
    assert status == 1
    assert lines[4] == "other differences: 6"
    assert lines[5:] == [
        f"  bifurcate / 3,0.05,2,None / alpha_k_eps: {(2.0).hex()!r} -> 'NumericsError'",
        "  bifurcate / 3,0.05,2,None / evaluations: 4 -> 5",
        "  bifurcate / 3,0.05,2,None / warnings: 0 -> 1",
        f"  profile / 3,0.0,0.05,1.0 / evaluate: {'c' * 64!r} -> {'f' * 64!r}",
        "  spectrum / 3,2.0,0.05 / eigen / 1 / 3: 1 -> 2",
        f"  spectrum / 3,2.0,0.05 / u0: {(3.0).hex()!r} -> None",
    ]


def test_identical_documents_and_usage(fingerprint, tmp_path, capsys):
    status, lines = run(fingerprint, tmp_path, capsys, document(), document())
    assert status == 0 and lines[1].startswith("largest float move, scaled by max(1, |x|): 0 ")
    assert fingerprint.main(["--compare", "only-one.json"]) == 2
