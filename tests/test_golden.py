"""Byte-identity of the command-line outputs against committed golden files.

Each case runs one command in a fresh directory, on inputs copied from
``tests/data/golden/``, and compares its stdout and stderr byte for byte with
``<case>.stdout`` and ``<case>.stderr`` there; the files a case writes to
``w/`` (a failing sweep's witnesses, a generated model) are compared with
``<case>.w/``.  The sweep's elapsed
time is cut from stderr before the comparison.  The golden files were written
once, each by the code before the change that added its case; a change that
moves any printed figure fails here.  ``python tests/test_golden.py`` rewrites them
from the current tree.
"""

import contextlib
import io
import os
import re
import shutil
import tempfile
from pathlib import Path

import pytest

from harmonia.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
INPUTS = ("counterexample.json", "model-n3.json")

#: case -> (argv, exit code)
CASES = {
    "sweep-n1-n3": (["verify", "--no-timestamp", "--n", "1,3", "--head-sizes", "2,3",
                     "--dep-sizes", "2,3", "--models", "2"], 0),
    "sweep-fail": (["verify", "--no-timestamp", "--n", "2", "--head-sizes", "2",
                    "--dep-sizes", "2", "--models", "2", "--tol", "1e-300",
                    "--witness-dir", "w"], 1),
    "sweep-spiky": (["verify", "--no-timestamp", "--n", "3", "--head-sizes", "2,3",
                     "--dep-sizes", "3", "--models", "2", "--concentration", "0.05"], 0),
    "verify-counterexample": (["verify", "--no-timestamp", "--input", "counterexample.json"], 1),
    "profile-remainder": (["profile", "model-n3.json", "--objective", "remainder", "--k", "2",
                           "--bits"], 0),
    "sample-score": (["sample", "model-n3.json", "--count", "1000", "--score-k", "2"], 0),
    "gen-copy": (["gen", "copy", "--n", "2", "--noise", "0.1", "--bits",
                  "--out", "w/model.json"], 0),
    "gen-random-identical": (["gen", "random", "--n", "3", "--identical-channels", "--seed", "17",
                              "--out", "w/model.json"], 0),
    "gen-independent": (["gen", "independent", "--n", "2", "--out", "w/model.json"], 0),
    "gen-counterexample": (["gen", "counterexample", "--bits", "--out", "w/model.json"], 0),
    "gen-random-past-cap": (["gen", "random", "--n", "10", "--head-size", "5", "--dep-size", "5",
                             "--out", "w/model.json"], 0),
    "typology": (["typology"], 0),
}


def run_case(case: str, directory: Path) -> tuple[int, str, str]:
    """Exit code, stdout and stderr (elapsed time cut) of one case run in ``directory``;
    the files it writes, if any, are left in ``directory / "w"``."""
    (directory / "w").mkdir()
    for name in INPUTS:
        shutil.copy(GOLDEN / name, directory / name)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(CASES[case][0])
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), re.sub(r" in \d+\.\ds$", " in <elapsed>s", err.getvalue(),
                                        flags=re.MULTILINE)


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden_bytes(case, tmp_path):
    code, out, err = run_case(case, tmp_path)
    assert code == CASES[case][1]
    assert out.encode() == (GOLDEN / f"{case}.stdout").read_bytes()
    assert err.encode() == (GOLDEN / f"{case}.stderr").read_bytes()
    written, golden = tmp_path / "w", GOLDEN / f"{case}.w"
    names = sorted(p.name for p in written.iterdir())
    assert names == (sorted(p.name for p in golden.iterdir()) if golden.exists() else [])
    for name in names:
        assert (written / name).read_bytes() == (golden / name).read_bytes()


if __name__ == "__main__":  # rewrite the golden files from the current tree
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            _, out, err = run_case(name, Path(tmp))
            shutil.rmtree(GOLDEN / f"{name}.w", ignore_errors=True)
            if any((Path(tmp) / "w").iterdir()):
                shutil.copytree(Path(tmp) / "w", GOLDEN / f"{name}.w")
        (GOLDEN / f"{name}.stdout").write_bytes(out.encode())
        (GOLDEN / f"{name}.stderr").write_bytes(err.encode())
