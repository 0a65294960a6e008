"""Pinned report bytes of the CLI verbs.

Each case runs ``spacings-gof <verb> ...`` in-process with its own output
flag (``--json``, ``--csv`` or none for the table) and compares its stdout
(and, where pinned, the ``--raw-csv`` file) byte for byte with the files in
``tests/golden/``.  The ``moments`` and ``efficacy`` cases cover each
moment route: closed form (moran, entropy), exact rational (greenwood, pd:2),
rao's Laguerre series and quadrature (pd:0.5).  ``are`` is pinned for a
finite and a growth regime query, and one record verb (``simulate null``) and one table verb
(``efficacy``) are pinned in all three renderings.  The ``test`` cases read ``sample_u199.txt``
from ``tests/golden/``, run from that directory so the reported file name
is the same on every machine; two of them pin normalized scaling, for h on
quadrature (pd:0.5) and for a power form (pd:2).  A change that moves a
number on purpose says so and rewrites the pins with

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from spacings_gof.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

#: output flag (None: the default table) -> golden file suffix
SUFFIX = {"--json": ".json", "--csv": ".csv", None: ".txt"}

NULL_MORAN = ["simulate", "null", "--h", "moran", "--m", "10",
              "--n", "1000", "--reps", "200", "--seed", "7"]
EFFICACY_GREENWOOD = ["efficacy", "--h", "greenwood", "--m", "1,5,50"]

#: name -> (argv, output flag, whether the --raw-csv file is pinned too)
CASES = {
    "null_moran": (NULL_MORAN, "--json", True),
    "null_moran_csv": (NULL_MORAN, "--csv", False),
    "null_moran_table": (NULL_MORAN, None, False),
    "null_greenwood_disjoint": (["simulate", "null", "--h", "greenwood",
                                 "--mode", "disjoint", "--m", "10",
                                 "--n", "1000", "--reps", "200",
                                 "--seed", "7"], "--json", True),
    "power_greenwood_cos": (["simulate", "power", "--h", "greenwood",
                             "--m", "10", "--n", "1000", "--reps", "200",
                             "--path", "cos:1:2.0", "--seed", "4"],
                            "--json", False),
    # the bump path samples through the per-panel polynomial path integral
    "power_greenwood_bump": (["simulate", "power", "--h", "greenwood",
                              "--m", "10", "--n", "1000", "--reps", "200",
                              "--path", "bump:0.5:0.2:4", "--seed", "4"],
                             "--json", False),
    "corr_moran": (["simulate", "corr", "--h", "moran", "--m", "5",
                    "--n", "1000", "--reps", "200", "--seed", "5"],
                   "--json", False),
    "match_greenwood": (["simulate", "match", "--h", "greenwood", "--m", "5",
                         "--reps", "100", "--seed", "3"], "--json", False),
    "test_greenwood": (["test", "sample_u199.txt", "--h", "greenwood",
                        "--m", "3"], "--json", False),
    "test_moran_disjoint": (["test", "sample_u199.txt", "--h", "moran",
                             "--m", "4", "--mode", "disjoint"],
                            "--json", False),
    "test_pd_half_normalized": (["test", "sample_u199.txt", "--h", "pd:0.5",
                                 "--m", "4", "--scaling", "normalized"],
                                "--json", False),
    "test_pd_2_normalized_disjoint": (["test", "sample_u199.txt", "--h",
                                       "pd:2", "--m", "4", "--mode",
                                       "disjoint", "--scaling", "normalized"],
                                      "--json", False),
    "efficacy_greenwood_csv": (EFFICACY_GREENWOOD, "--csv", False),
    "efficacy_greenwood_table": (EFFICACY_GREENWOOD, None, False),
    "are_greenwood_finite": (["are", "--h1", "greenwood", "--m1", "10",
                              "--mode1", "overlapping", "--h2", "greenwood",
                              "--m2", "10", "--mode2", "disjoint"],
                             "--json", False),
    "are_pd_regime": (["are", "--h1", "pd:0", "--m1", "10", "--h2", "pd:1",
                       "--m2", "10", "--c1", "2", "--p1", "0.5",
                       "--c2", "1", "--p2", "0.5"], "--json", False),
    # pd:0 and pd:-1 are the entropy and moran functions under their own
    # names: their reports keep the pd names with the zeta closed forms
    "moments_pd_0": (["moments", "--h", "pd:0", "--m", "1,2,10,1000"],
                     "--json", False),
    "efficacy_pd_m1_overlapping": (["efficacy", "--h", "pd:-1",
                                    "--m", "1,2,10,1000",
                                    "--mode", "overlapping"],
                                   "--json", False),
    "test_pd_0_normalized": (["test", "sample_u199.txt", "--h", "pd:0",
                              "--m", "4", "--scaling", "normalized"],
                             "--json", False),
}

#: tuning function -> m list, one or two per moment route
ROUTE_M = {
    "moran": "1,5,50,100000",
    "entropy": "1,5,50,10000",
    "greenwood": "1,5,50,1000,100000",
    "pd:2": "1,5,50,1000,100000",
    "pd:0.5": "1,3,6",
    "rao": "2,4",
}
for _h, _m in ROUTE_M.items():
    _tag = _h.replace(":", "_").replace(".", "_")
    CASES[f"moments_{_tag}"] = (["moments", "--h", _h, "--m", _m],
                                 "--json", False)
    for _mode in ("overlapping", "disjoint"):
        CASES[f"efficacy_{_tag}_{_mode}"] = (
            ["efficacy", "--h", _h, "--m", _m, "--mode", _mode],
            "--json", False)


def run_case(name: str, tmp: Path) -> dict[str, bytes]:
    """{golden file name: bytes} produced by one case."""
    argv, flag, with_raw = CASES[name]
    argv = argv + ([flag] if flag else [])
    raw = tmp / f"{name}_raw.csv"
    if with_raw:
        argv += ["--raw-csv", str(raw)]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code == 0, err.getvalue()
    files = {name + SUFFIX[flag]: out.getvalue().encode()}
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
