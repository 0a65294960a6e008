"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Tolerances are fixed here;
Monte Carlo checks use the frozen master seed below.
"""

import io
import math
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

import spacings_gof as sg
from oracles import affine_shift, quadrature_route
from spacings_gof import montecarlo
from spacings_gof.cli import main
from spacings_gof.montecarlo import replicate

SEED = 20250809
REGISTERED = ("greenwood", "moran", "entropy", "rao")
PD_SAMPLES = ("pd:0.5", "pd:2")
#: directory holding the spacings_gof package this test process imported
PACKAGE_ROOT = os.path.dirname(os.path.dirname(sg.__file__))


def report(name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
          + (f"  [{detail}]" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_01_closed_vs_quadrature():
    t0 = time.time()
    worst_g = 0.0
    g = sg.builtin("greenwood")
    for m in range(1, 51):
        quad = sg.moments(quadrature_route(g), m)
        worst_g = max(worst_g,
                      abs(quad.sigma2 - 2 * m * (m + 1) * (2 * m + 1) / 3)
                      / (2 * m * (m + 1) * (2 * m + 1) / 3),
                      abs(quad.sigma_star2 - 2 * m * (m + 1)) / (2 * m * (m + 1)))
    worst_me = 0.0
    for name in ("moran", "entropy"):
        h = sg.builtin(name)
        for m in range(1, 21):
            closed = sg.moments(h, m)
            quad = sg.moments(quadrature_route(h), m)
            worst_me = max(
                worst_me,
                abs(closed.sigma2 - quad.sigma2) / abs(closed.sigma2),
                abs(closed.sigma_star2 - quad.sigma_star2) / closed.sigma_star2)
    dt = time.time() - t0
    report("C1 closed-form vs quadrature",
           worst_g <= 1e-9 and worst_me <= 1e-6 and dt < 10.0,
           f"greenwood rel {worst_g:.2e}, moran/entropy rel {worst_me:.2e}, "
           f"{dt:.1f}s")


def test_criterion_02_mu_limit():
    grid = (2, 5, 20, 100)
    ok = True
    details = []
    for d in (-1.0, 0.0, 0.5, 1.0, 2.0):
        h = sg.make_power_divergence(d)
        mu2 = [sg.moments(h, m).mu ** 2 for m in grid]
        ok &= all(0.0 < v <= 1.0 + 1e-12 for v in mu2)
        if d == 1.0:
            ok &= abs(mu2[0] - 1.0) <= 1e-10 and abs(mu2[-1] - 1.0) <= 1e-10
        else:
            ok &= all(a < b for a, b in zip(mu2, mu2[1:]))
            ok &= (1.0 - mu2[3]) < (1.0 - mu2[1]) / 3.0
        details.append(f"d={d:g}: {mu2[0]:.5f}->{mu2[3]:.5f}")
    report("C2 mu^2 limit", ok, "; ".join(details))


def test_criterion_03_efficacy_limits():
    t0 = time.time()
    m = 10_000
    ok = True
    details = []
    for name in ("greenwood", "moran", "entropy", "pd:2"):
        h = sg.from_name(name, m=m)
        e2 = sg.efficacy(h, m, "overlapping").e2
        pe = sg.pitman_are(sg.TestSpec(h, m, "overlapping"),
                           sg.TestSpec(h, m, "disjoint")).value
        ok &= abs(e2 - 0.75) <= 0.01 and abs(pe - 1.5) <= 0.01
        details.append(f"{name}: e2={e2:.4f} PE={pe:.4f}")
    dt = time.time() - t0
    ok &= dt < 60.0
    report("C3 efficacy limits at m=1e4", ok, "; ".join(details) + f"; {dt:.1f}s")


def test_criterion_04_exact_small_case():
    raw, _ = replicate(2, None, [(sg.SpacingsPlan(m=1), sg.builtin("greenwood"))],
                       10_000, SEED)
    u = (np.arange(2_000_000) + 0.5) / 2_000_000
    oracle = np.sort(4 * u ** 2 + 4 * (1 - u) ** 2)
    samp = np.sort(raw[:, 0])
    c = np.searchsorted(oracle, samp, side="right") / oracle.size
    i = np.arange(1, samp.size + 1)
    ks = max((i / samp.size - c).max(), (c - (i - 1) / samp.size).max())
    report("C4 exact pushforward oracle (n=2, m=1)", ks < 0.02, f"KS={ks:.4f}")


def test_criterion_05_clt_property_suite():
    t0 = time.time()
    ok = True
    details = []
    for name in ("greenwood", "moran"):
        for mode in ("overlapping", "disjoint"):
            ks = []
            for n in (500, 2000, 8000):
                cfg = sg.SimulationConfig(
                    n=n, plan=sg.SpacingsPlan(m=10, mode=mode),
                    h=sg.builtin(name), model=None, reps=4000,
                    master_seed=SEED)
                ks.append(sg.null_distribution_study(cfg).ks_to_normal)
            ok &= ks[0] > ks[1] > ks[2] and ks[2] < 0.05
            details.append(f"{name}/{mode}: " + "->".join(f"{k:.3f}" for k in ks))
    dt = time.time() - t0
    ok &= dt < 300.0
    report("C5 CLT KS decrease", ok, "; ".join(details) + f"; {dt:.0f}s")


def test_criterion_06_size_validity():
    band = 3 * math.sqrt(0.05 * 0.95 / 4000)
    ok = True
    details = []
    for name in REGISTERED + PD_SAMPLES:
        h = sg.from_name(name, m=10)
        cfg = sg.SimulationConfig(n=2000, plan=sg.SpacingsPlan(m=10),
                                  h=h, model=None, reps=4000, master_seed=SEED)
        rate = sg.null_distribution_study(cfg).rejection_rate
        ok &= abs(rate - 0.05) <= band
        details.append(f"{name}={rate:.4f}")
    report("C6 size validity", ok, f"band ±{band:.4f}; " + "; ".join(details))


def test_criterion_07_power_prediction():
    model = sg.make_alternative("cosine", (1, 2.0), 4000, 20)
    rates = {}
    for mode in ("overlapping", "disjoint"):
        cfg = sg.SimulationConfig(n=4000,
                                  plan=sg.SpacingsPlan(m=20, mode=mode),
                                  h=sg.builtin("greenwood"), model=model,
                                  reps=4000, master_seed=SEED)
        rep = sg.power_study(cfg)
        rates[mode] = rep
    over, disj = rates["overlapping"], rates["disjoint"]
    gap_se = math.hypot(over.rejection_se, disj.rejection_se)
    ok = (abs(over.rejection_rate - over.predicted_power) <= 0.10
          and over.rejection_rate - disj.rejection_rate > 2 * gap_se)
    report("C7 power prediction", ok,
           f"emp={over.rejection_rate:.4f} pred={over.predicted_power:.4f}; "
           f"overlap-disjoint={over.rejection_rate - disj.rejection_rate:.4f} "
           f"vs 2se={2 * gap_se:.4f}")


def test_criterion_08_correlation_identity():
    rep = sg.correlation_study(sg.builtin("moran"), 5, 2000, 4000, SEED)
    mu = sg.moments(sg.builtin("moran"), 5).mu
    diff = abs(rep.correlations["empirical"] - mu)
    repg = sg.correlation_study(sg.builtin("greenwood"), 5, 1000, 500, SEED)
    ok = diff <= 0.05 and repg.correlations["empirical"] == pytest.approx(
        1.0, abs=1e-12)
    report("C8 correlation identity", ok,
           f"moran corr={rep.correlations['empirical']:.4f} mu={mu:.4f}; "
           f"greenwood corr={repg.correlations['empirical']}")


def test_criterion_09_cressie_inequality():
    ok = True
    worst = math.inf
    for name in REGISTERED + PD_SAMPLES:
        for m in range(1, 51):
            h = sg.from_name(name, m=m)
            ms = sg.moments(h, m)
            slack = m * ms.sigma_star2 - ms.sigma2
            worst = min(worst, slack)
            ok &= slack >= -1e-9
    report("C9 Cressie inequality m<=50", ok, f"min slack {worst:.3e}")


def test_criterion_10_affine_invariance():
    ok = True
    details = []
    for name in ("moran", "entropy"):
        h = sg.builtin(name)
        g = affine_shift(h, 2.0, -3.0, 7.0)
        for m in (2, 5):
            mu_h = sg.moments(h, m).mu
            dmu = abs(sg.moments(g, m).mu - mu_h) / abs(mu_h)
            ok &= dmu <= 1e-9
            for mode in ("overlapping", "disjoint"):
                e_h = sg.efficacy(h, m, mode).e2
                e_g = sg.efficacy(g, m, mode).e2
                ok &= abs(e_g - e_h) / e_h <= 1e-9
        details.append(f"{name} ok")
    report("C10 affine invariance", ok, "; ".join(details))


def test_criterion_11_determinism_across_processes(monkeypatch, tmp_path):
    cmd = [sys.executable, "-m", "spacings_gof.cli", "simulate", "null",
           "--h", "greenwood", "--m", "10", "--n", "1000", "--reps", "500",
           "--seed", str(SEED), "--json"]
    outs = []
    for _ in range(2):
        # the child imports the same spacings_gof as this process, whether
        # it is installed or found through PYTHONPATH
        r = subprocess.run(cmd, capture_output=True,
                           env={"PATH": "/usr/bin:/bin:/usr/local/bin",
                                "PYTHONPATH": PACKAGE_ROOT})
        assert r.returncode == 0, r.stderr
        outs.append(r.stdout)
    # in process: stdout and --raw-csv bytes at one row per block and at
    # the default block size
    runs = []
    for elems in (1, montecarlo.BLOCK_ELEMS):
        monkeypatch.setattr(montecarlo, "BLOCK_ELEMS", elems)
        raw = tmp_path / f"raw_{elems}.csv"
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(cmd[3:] + ["--raw-csv", str(raw)])
        assert code == 0
        runs.append((out.getvalue(), raw.read_bytes()))
    ok = outs[0] == outs[1] and runs[0] == runs[1]
    report("C11 determinism across processes and block sizes", ok,
           f"{len(outs[0])} bytes each; raw CSV {len(runs[0][1])} bytes each")


def test_criterion_12_sample_size_matching():
    res = sg.sample_size_match(
        sg.TestSpec(sg.builtin("greenwood"), 10, "overlapping"),
        sg.TestSpec(sg.builtin("greenwood"), 10, "disjoint"),
        target_power=0.6, alpha=0.05, reps=3000, master_seed=SEED)
    ok = res.ci_low <= 1.6 and res.ci_high >= 1.25
    report("C12 sample-size matching", ok,
           f"ratio={res.ratio:.3f} CI=[{res.ci_low:.3f}, {res.ci_high:.3f}] "
           f"n1={res.n1} n2={res.n2}")
