import json
import math
import os
import subprocess
import sys
import warnings

import pytest

import spacings_gof
from spacings_gof import montecarlo
from spacings_gof.cli import main

#: directory holding the spacings_gof package this test process imported
PACKAGE_ROOT = os.path.dirname(os.path.dirname(spacings_gof.__file__))


@pytest.fixture
def sample_file(tmp_path):
    p = tmp_path / "sample.txt"
    p.write_text("0.25\n0.5\n0.75\n")
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestTestVerb:
    def test_greenwood_example(self, capsys, sample_file):
        code, out = run(capsys, "test", sample_file, "--h", "greenwood",
                        "--m", "2", "--mode", "overlapping", "--json")
        assert code == 0
        d = json.loads(out)
        assert d["statistic"] == 16.0
        assert d["standardized"] == pytest.approx(-0.894427190999916, rel=1e-12)
        assert d["reject"] is False

    def test_pd1_normalized_zero(self, capsys, sample_file):
        code, out = run(capsys, "test", sample_file, "--h", "pd:1", "--m", "2",
                        "--scaling", "normalized", "--json")
        assert code == 0
        d = json.loads(out)
        assert d["statistic"] == pytest.approx(0.0, abs=1e-12)
        assert d["reject"] is False

    def test_out_of_range_exits_2(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0.5\n1.5\n")
        code, _ = run(capsys, "test", str(p), "--h", "greenwood", "--m", "1")
        assert code == 2

    def test_missing_file_exits_2(self, capsys):
        code, _ = run(capsys, "test", "/nonexistent.txt", "--h", "greenwood",
                      "--m", "1")
        assert code == 2

    def test_tied_sample_moran_exits_3(self, capsys, tmp_path):
        p = tmp_path / "tied.txt"
        p.write_text("0.3\n0.3\n0.8\n")
        code, _ = run(capsys, "test", str(p), "--h", "moran", "--m", "1")
        assert code == 3

    def test_rao_warns(self, capsys, sample_file):
        code, out = run(capsys, "test", sample_file, "--h", "rao", "--m", "2",
                        "--json")
        assert code == 0
        assert "derivative" in json.loads(out)["warnings"][0]


class TestTables:
    def test_non_finite_moment_exits_2(self, capsys):
        # E h^2 overflows at the first rule; no doubling up to the node cap,
        # and no numpy overflow warning ahead of the one error line
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["moments", "--h", "pd:80.5", "--m", "5"])
        err = capsys.readouterr().err
        assert code == 2
        assert "not finite" in err and "Traceback" not in err
        assert [str(w.message) for w in caught] == []
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_moments_columns(self, capsys):
        code, out = run(capsys, "moments", "--h", "greenwood", "--m", "1..3",
                        "--json")
        assert code == 0
        rows = json.loads(out)
        assert [r["sigma2"] for r in rows] == [4.0, 20.0, 56.0]
        assert [r["sigma_star2"] for r in rows] == [4.0, 12.0, 24.0]

    def test_moments_m_list_forms(self, capsys):
        code, out = run(capsys, "moments", "--h", "moran", "--m", "1,3", "--json")
        assert code == 0
        assert [r["m"] for r in json.loads(out)] == [1, 3]

    def test_efficacy_limit(self, capsys):
        code, out = run(capsys, "efficacy", "--h", "greenwood", "--m", "1000000",
                        "--mode", "overlapping", "--json")
        assert code == 0
        assert json.loads(out)[0]["e2"] == pytest.approx(0.75, abs=1e-5)

    def test_are_regime(self, capsys):
        # c1/c2 is formed before the mode factor, so c1 = c2 = 5e-324 is
        # the ratio 1 too
        for c in ("1", "5e-324"):
            code, out = run(capsys, "are", "--h1", "greenwood", "--m1", "10",
                            "--mode1", "overlapping", "--h2", "greenwood",
                            "--m2", "10", "--mode2", "disjoint", "--c1", c,
                            "--p1", "0.5", "--c2", c, "--p2", "0.5", "--json")
            assert code == 0
            assert json.loads(out)["value"] == pytest.approx(1.5)

    @pytest.mark.parametrize("verb", ["moments", "efficacy"])
    def test_tables_take_no_alpha(self, capsys, verb):
        code = main([verb, "--h", "moran", "--m", "3", "--alpha", "7"])
        assert code == 2
        assert "unrecognized arguments: --alpha 7" in capsys.readouterr().err

    def test_are_partial_regime_exits_2(self, capsys):
        code, _ = run(capsys, "are", "--h1", "greenwood", "--m1", "10",
                      "--h2", "greenwood", "--m2", "10", "--c1", "1")
        assert code == 2

    def test_are_finite(self, capsys):
        code, out = run(capsys, "are", "--h1", "greenwood", "--m1", "2",
                        "--mode1", "overlapping", "--h2", "greenwood",
                        "--m2", "2", "--mode2", "disjoint", "--json")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(1.2, rel=1e-10)


class TestSimulate:
    def test_golden_bytes(self, capsys):
        args = ("simulate", "null", "--h", "greenwood", "--m", "5", "--n", "500",
                "--reps", "200", "--seed", "7", "--json")
        code1, out1 = run(capsys, *args)
        code2, out2 = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_json_csv_equivalence(self, capsys):
        import csv
        import io

        args = ("simulate", "null", "--h", "greenwood", "--m", "5", "--n", "500",
                "--reps", "200", "--seed", "7")
        _, jout = run(capsys, *args, "--json")
        _, cout = run(capsys, *args, "--csv")
        jd = json.loads(jout)
        rows = list(csv.DictReader(io.StringIO(cout)))
        assert len(rows) == 1
        for key in ("empirical_mean", "empirical_var", "ks_to_normal",
                    "rejection_rate"):
            assert float(rows[0][key]) == jd[key]

    def test_power_null_path_near_alpha(self, capsys):
        code, out = run(capsys, "simulate", "power", "--h", "greenwood",
                        "--m", "5", "--n", "500", "--reps", "500", "--seed", "3",
                        "--path", "cos:1:0", "--json")
        assert code == 0
        d = json.loads(out)
        assert abs(d["rejection_rate"] - 0.05) < 3 * (0.05 * 0.95 / 500) ** 0.5

    def test_corr_verb(self, capsys):
        code, out = run(capsys, "simulate", "corr", "--h", "moran", "--m", "5",
                        "--n", "1000", "--reps", "300", "--seed", "5", "--json")
        assert code == 0
        d = json.loads(out)
        assert abs(d["correlations"]["empirical"] - d["correlations"]["mu_m"]) < 0.15

    def test_raw_csv(self, capsys, tmp_path):
        raw = tmp_path / "raw.csv"
        code, _ = run(capsys, "simulate", "null", "--h", "greenwood", "--m", "5",
                      "--n", "500", "--reps", "120", "--seed", "7",
                      "--raw-csv", str(raw), "--json")
        assert code == 0
        lines = raw.read_text().strip().split("\n")
        assert lines[0] == "rep,statistic,standardized,reject"
        assert len(lines) == 121

    def test_raw_csv_runs_each_replication_once(self, capsys, tmp_path,
                                                monkeypatch):
        shapes = []
        kernel = montecarlo.replicate

        def counted(*args):
            raw, bad = kernel(*args)
            shapes.append(raw.shape)
            return raw, bad

        monkeypatch.setattr(montecarlo, "replicate", counted)
        code, _ = run(capsys, "simulate", "null", "--h", "greenwood", "--m", "5",
                      "--n", "500", "--reps", "120", "--seed", "7",
                      "--raw-csv", str(tmp_path / "raw.csv"), "--json")
        assert code == 0
        assert shapes == [(120, 1)]

    def test_raw_csv_degenerate_row_is_nan(self, capsys, tmp_path, zero_draws):
        # replication 0 draws a tied pair, a zero spacing that moran's -log
        # cannot take; 1 of 1000 is below the abort fraction
        zero_draws({0})
        raw = tmp_path / "raw.csv"
        code, out = run(capsys, "simulate", "null", "--h", "moran", "--m", "1",
                        "--n", "50", "--reps", "1000", "--seed", "7",
                        "--raw-csv", str(raw), "--json")
        assert code == 0
        assert json.loads(out)["degenerate_reps"] == 1
        lines = raw.read_text().split("\n")
        assert lines[1] == "0,nan,nan,false"
        assert "nan" not in "".join(lines[2:])

    def test_out_file(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, out = run(capsys, "simulate", "null", "--h", "greenwood",
                        "--m", "5", "--n", "500", "--reps", "150", "--seed", "2",
                        "--json", "--out", str(out_file))
        assert code == 0
        assert out_file.read_text() == out


class TestDeterminismAcrossProcesses:
    def test_two_processes_give_the_same_bytes(self, sample_file):
        cmd = [sys.executable, "-m", "spacings_gof.cli", "simulate", "null",
               "--h", "moran", "--m", "5", "--n", "500", "--reps", "200",
               "--seed", "11", "--json"]
        outs = []
        for _ in range(2):
            r = subprocess.run(cmd, capture_output=True,
                               env={"PATH": "/usr/bin:/bin:/usr/local/bin",
                                    "PYTHONPATH": PACKAGE_ROOT})
            assert r.returncode == 0, r.stderr
            outs.append(r.stdout)
        assert outs[0] == outs[1]


#: (case, argv, expected substring of the error line); every case exits 2.
#: {empty}, {nan}, {dir}, {binary} and {sample} stand for files made by the
#: test; {sample} holds 9 valid observations (n = 10).
BAD_INPUTS = [
    ("pd-inf", ["moments", "--h", "pd:inf", "--m", "3"], "finite d"),
    ("pd-1e300", ["efficacy", "--h", "pd:1e300", "--m", "2"], ""),
    ("pd-nan", ["moments", "--h", "pd:nan", "--m", "2"], "finite d"),
    ("pd-1000", ["moments", "--h", "pd:1000", "--m", "2"], ""),
    ("pd-97", ["moments", "--h", "pd:97", "--m", "2"], "floating-point range"),
    ("pd-1e308", ["moments", "--h", "pd:1e308", "--m", "2"], "not finite"),
    ("are-c-inf", ["are", "--h1", "greenwood", "--m1", "3", "--h2", "moran",
                   "--m2", "3", "--c1", "inf", "--p1", "0.5", "--c2", "1",
                   "--p2", "0.5"], "finite c > 0"),
    ("are-c-ratio-overflows", ["are", "--h1", "greenwood", "--m1", "3",
                               "--h2", "moran", "--m2", "3", "--c1", "1e300",
                               "--p1", "0.5", "--c2", "1e-300", "--p2", "0.5"],
     "c1/c2 = 1e+300/1e-300 overflows"),
    ("are-c-ratio-underflows", ["are", "--h1", "greenwood", "--m1", "3",
                                "--h2", "moran", "--m2", "3", "--c1", "1e-300",
                                "--p1", "0.5", "--c2", "1e300", "--p2", "0.5"],
     "c1/c2 = 1e-300/1e+300 underflows"),
    ("are-c-ratio-subnormal", ["are", "--h1", "greenwood", "--m1", "3",
                               "--h2", "moran", "--m2", "3", "--c1", "1e-320",
                               "--p1", "0.5", "--c2", "1", "--p2", "0.5"],
     "underflows"),
    ("null-seed-negative", ["simulate", "null", "--h", "moran", "--m", "3",
                            "--n", "100", "--reps", "100", "--seed", "-1"],
     "master seed must be an integer in [0, 2^64), got -1"),
    ("corr-alpha-2", ["simulate", "corr", "--h", "moran", "--m", "5",
                      "--n", "500", "--reps", "100", "--alpha", "2"],
     "alpha must be in (0, 1)"),
    ("corr-m-zero", ["simulate", "corr", "--h", "moran", "--m", "0",
                     "--n", "100", "--reps", "100"], "m must be >= 1"),
    ("corr-seed-2-64", ["simulate", "corr", "--h", "moran", "--m", "3",
                        "--n", "99", "--reps", "100",
                        "--seed", "18446744073709551616"], "master seed"),
    ("match-seed-negative", ["simulate", "match", "--h", "greenwood",
                             "--m", "3", "--reps", "10", "--seed", "-5"],
     "master seed"),
    ("match-ci-flat", ["simulate", "match", "--h", "greenwood", "--m", "3",
                       "--reps", "10", "--target-power", "0.99999"],
     "target power 0.99999 with reps=10"),
    ("match-m2-zero", ["simulate", "match", "--h", "greenwood", "--m", "10",
                       "--m2", "0"], "m must be >= 1"),
    ("match-h2-empty", ["simulate", "match", "--h", "greenwood", "--m", "10",
                        "--h2", ""], "unknown tuning function"),
    ("match-reps-zero", ["simulate", "match", "--h", "greenwood", "--m", "10",
                         "--reps", "0"], "reps must be >= 1"),
    ("path-nan", ["simulate", "power", "--h", "greenwood", "--m", "10",
                  "--path", "cos:1:nan"], ""),
    ("path-cos-theta-inf", ["simulate", "power", "--h", "greenwood",
                            "--m", "10", "--path", "cos:1:inf"],
     "cosine parameter theta must be finite"),
    ("path-bump-theta-inf", ["simulate", "power", "--h", "greenwood",
                             "--m", "10", "--path", "bump:0.5:0.3:inf"],
     "bump parameter theta must be finite"),
    ("path-bump-width-inf", ["simulate", "power", "--h", "greenwood",
                             "--m", "10", "--path", "bump:0.5:inf:1"],
     "bump parameter width must be finite"),
    ("path-cos-k-fraction", ["simulate", "power", "--h", "greenwood",
                             "--m", "10", "--path", "cos:2.7:1"],
     "cosine parameter k must be an integer"),
    ("path-cos-theta-huge", ["simulate", "power", "--h", "greenwood",
                             "--m", "10", "--path", "cos:1:1e200"],
     "density not positive"),
    ("path-table-one-column", ["simulate", "power", "--h", "greenwood",
                               "--m", "10", "--path", "table:{onecol}"],
     "two columns x, l(x)"),
    ("path-table-empty", ["simulate", "power", "--h", "greenwood",
                          "--m", "10", "--path", "table:{empty}"],
     "two columns x, l(x)"),
    ("path-table-one-row", ["simulate", "power", "--h", "greenwood",
                            "--m", "10", "--path", "table:{onerow}"],
     ">= 4 points"),
    ("power-without-path", ["simulate", "power", "--h", "greenwood",
                            "--m", "10"], "--path"),
    ("null-with-path", ["simulate", "null", "--h", "greenwood", "--m", "10",
                        "--path", "cos:1:2"], "--path"),
    ("corr-with-raw-csv", ["simulate", "corr", "--h", "moran", "--m", "5",
                           "--raw-csv", "{dir}/raw.csv",
                           "--scaling", "normalized"], "--scaling, --raw-csv"),
    ("match-with-path", ["simulate", "match", "--h", "greenwood", "--m", "10",
                         "--path", "bump:0.5:0.3:6",
                         "--raw-csv", "{dir}/raw.csv"], "--raw-csv, --path"),
    ("rao-normalized-test", ["test", "{sample}", "--h", "rao", "--m", "5",
                             "--scaling", "normalized"], "--scaling"),
    ("rao-normalized-null", ["simulate", "null", "--h", "rao", "--m", "10",
                             "--n", "1000", "--reps", "200",
                             "--scaling", "normalized"], "--scaling"),
    ("rao-normalized-power", ["simulate", "power", "--h", "rao", "--m", "10",
                              "--n", "1000", "--reps", "200",
                              "--path", "cos:1:2",
                              "--scaling", "normalized"], "--scaling"),
    ("m-list-descending", ["moments", "--h", "greenwood", "--m", "3..1"], ""),
    ("m-list-empty-item", ["moments", "--h", "greenwood", "--m", "1,,2"], ""),
    ("empty-file", ["test", "{empty}", "--h", "greenwood", "--m", "1"],
     "at least 1 observation"),
    ("nan-observation", ["test", "{nan}", "--h", "greenwood", "--m", "1"],
     "observation 2 = nan outside [0, 1]"),
    ("directory", ["test", "{dir}", "--h", "greenwood", "--m", "1"], ""),
    ("non-utf8", ["test", "{binary}", "--h", "greenwood", "--m", "1"], ""),
]


@pytest.mark.parametrize("argv, message", [c[1:] for c in BAD_INPUTS],
                         ids=[c[0] for c in BAD_INPUTS])
def test_bad_input_exits_2_with_one_error_line(tmp_path, argv, message):
    files = {"empty": tmp_path / "empty.txt", "nan": tmp_path / "nan.txt",
             "dir": tmp_path, "binary": tmp_path / "binary.txt",
             "sample": tmp_path / "sample.txt",
             "onecol": tmp_path / "onecol.txt", "onerow": tmp_path / "onerow.txt"}
    files["empty"].write_text("")
    files["onecol"].write_text("0\n0.5\n1\n")
    files["onerow"].write_text("0 1\n")
    files["sample"].write_text("".join(f"0.{k}\n" for k in range(1, 10)))
    files["nan"].write_text("0.25\nnan\n")
    files["binary"].write_bytes(b"0.25\n\xff\xfe\n")
    argv = [a.format(**files) for a in argv]
    r = subprocess.run([sys.executable, "-m", "spacings_gof.cli", *argv],
                       capture_output=True, text=True, timeout=60,
                       env={"PATH": "/usr/bin:/bin:/usr/local/bin",
                            "PYTHONPATH": PACKAGE_ROOT})
    assert r.returncode == 2, r.stderr
    assert r.stdout == ""
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), r.stderr
    assert message in lines[0]


def test_largest_finite_pd_moments_exit_0(capsys):
    code, out = run(capsys, "moments", "--h", "pd:85", "--m", "2", "--json")
    assert code == 0
    assert json.loads(out)[0]["sigma2"] < float("inf")


#: tuning functions whose sigma^2 comes from the lag quadrature, one 2-D
#: rule per lag j = 1..m-1
LAG_QUADRATURE = ("pd:-0.5", "pd:0.5")


def _sweep_cases():
    for h in ("greenwood", "moran", "entropy", "rao",
              "pd:-0.5", "pd:0", "pd:0.5", "pd:2"):
        for m in (1, 2, 3, 5, 10, 100, 1000, 10**4, 10**5, 10**6):
            marks = ()
            if h in LAG_QUADRATURE and m >= 10**4:
                marks = pytest.mark.skip(
                    reason="m - 1 lag quadratures are too slow at this m; "
                           "waits for the Laguerre-coefficient route "
                           "(ROADMAP item 1)")
            yield pytest.param(h, m, marks=marks, id=f"{h}-m{m}")


@pytest.mark.parametrize("mode", ("overlapping", "disjoint"))
@pytest.mark.parametrize("m", (2500, 5000))
def test_rao_efficacy_past_the_old_lag_quadrature(capsys, m, mode):
    # lag j = m - 1 of the former quadrature did not converge from m = 2500
    code, out = run(capsys, "efficacy", "--h", "rao", "--m", str(m),
                    "--mode", mode, "--json")
    assert code == 0
    (row,) = json.loads(out)
    assert row["source"] == "series" and 0 < row["e2"] < 1


@pytest.mark.parametrize("mode", ("overlapping", "disjoint"))
@pytest.mark.parametrize("h, m", _sweep_cases())
def test_efficacy_sweep_over_m(capsys, h, m, mode):
    code, out = run(capsys, "efficacy", "--h", h, "--m", str(m),
                    "--mode", mode, "--json")
    assert code == 0
    (row,) = json.loads(out)
    assert all(math.isfinite(v) for v in row.values()
               if isinstance(v, float))


#: the closed-form and exact routes and the sample-size match, in a clean
#: interpreter; prints the scipy modules loaded
NO_SCIPY_SCRIPT = """
import contextlib, io, json, sys
from spacings_gof import cli, montecarlo
from spacings_gof.asymptotics import TestSpec
from spacings_gof.tuning import from_name

with contextlib.redirect_stdout(io.StringIO()):
    for h in ("moran", "greenwood", "entropy", "pd:2"):
        for verb in ("moments", "efficacy"):
            assert cli.main([verb, "--h", h, "--m", "10"]) == 0
    assert cli.main(["simulate", "match", "--h", "greenwood", "--m", "10",
                     "--reps", "10", "--seed", "3"]) == 0
g = from_name("greenwood", m=10)
montecarlo.sample_size_match(
    TestSpec(g, 10, "overlapping"), TestSpec(g, 10, "disjoint"), 0.6, 0.05,
    model_kind="bump", model_params=(0.5, 0.3, 6.0), reps=10, master_seed=3)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_closed_form_verbs_and_match_load_no_scipy():
    # the package imports numpy only; scipy loads inside the routes that
    # need it (ndtr, the Laguerre rules, rao's gammainc)
    r = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT],
                       capture_output=True, text=True, timeout=120,
                       env={"PATH": "/usr/bin:/bin:/usr/local/bin",
                            "PYTHONPATH": PACKAGE_ROOT})
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout.splitlines()[-1]) == []
