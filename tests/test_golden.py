"""Pinned report bytes of the simulate verbs.

Each case runs ``spacings-gof simulate ... --json`` in-process and compares
its stdout (and, where pinned, the ``--raw-csv`` file) byte for byte with the
files in ``tests/golden/``.  A change that moves a number on purpose says so
and rewrites the pins with

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from spacings_gof.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

#: name -> (argv, whether the --raw-csv file is pinned too)
CASES = {
    "null_moran": (["simulate", "null", "--h", "moran", "--m", "10",
                    "--n", "1000", "--reps", "200", "--seed", "7"], True),
    "null_greenwood_disjoint": (["simulate", "null", "--h", "greenwood",
                                 "--mode", "disjoint", "--m", "10",
                                 "--n", "1000", "--reps", "200",
                                 "--seed", "7"], True),
    "power_greenwood_cos": (["simulate", "power", "--h", "greenwood",
                             "--m", "10", "--n", "1000", "--reps", "200",
                             "--path", "cos:1:2.0", "--seed", "4"], False),
    "corr_moran": (["simulate", "corr", "--h", "moran", "--m", "5",
                    "--n", "1000", "--reps", "200", "--seed", "5"], False),
    "match_greenwood": (["simulate", "match", "--h", "greenwood", "--m", "5",
                         "--reps", "100", "--seed", "3"], False),
}


def run_case(name: str, tmp: Path) -> dict[str, bytes]:
    """{golden file name: bytes} produced by one case."""
    argv, with_raw = CASES[name]
    argv = argv + ["--json"]
    raw = tmp / f"{name}_raw.csv"
    if with_raw:
        argv += ["--raw-csv", str(raw)]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code == 0
    files = {f"{name}.json": out.getvalue().encode()}
    if with_raw:
        files[raw.name] = raw.read_bytes()
    return files


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes(name, tmp_path):
    for fname, got in run_case(name, tmp_path).items():
        assert got == (GOLDEN / fname).read_bytes(), fname


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as d:
        for name in sorted(CASES):
            for fname, data in run_case(name, Path(d)).items():
                (GOLDEN / fname).write_bytes(data)
                print(f"wrote {GOLDEN / fname}", file=sys.stderr)
