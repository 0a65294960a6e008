"""The benchmark's workloads: their operations, inputs and output checks.

Each operation is one CLI-verb call, ``cli.main(argv)`` run in-process, or
the public library function where the CLI does not offer the operation.  A
workload lists the operations of one pass; ``run.py`` repeats passes and
times each operation.  Every check here recomputes what it can with numpy/scipy code
that shares nothing with the library but the Philox stream definition.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
ALPHA = 0.05


def load_library() -> SimpleNamespace:
    """Import the package modules the workloads and the tracer touch."""
    from spacings_gof import (alternatives, asymptotics, cli, montecarlo,
                              serialize, spacings, special_math, tuning)

    return SimpleNamespace(cli=cli, montecarlo=montecarlo,
                           alternatives=alternatives, spacings=spacings,
                           tuning=tuning, asymptotics=asymptotics,
                           special_math=special_math, serialize=serialize)


def clear_caches(lib):
    """Empty the moment and Gauss-Laguerre rule caches, so that every
    operation starts cold, as every CLI process does.  If the rule cache
    moves, this raises rather than let quad_moments run warm unnoticed."""
    lib.asymptotics.clear_moment_cache()
    lib.special_math._rule_cache.clear()


def run_cli(lib, argv, tracer=None) -> tuple[int, str]:
    """cli.main(argv) in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        if tracer is None:
            rc = lib.cli.main(argv)
        else:
            rc = tracer.call("cli.main", lib.cli.main, (argv,))
    return rc, out.getvalue()


@dataclass
class Op:
    name: str
    run: object              # run(tracer or None) -> (exit code, output text)
    check: object            # check(output, artifact) -> list of problems
    artifact: object = None  # artifact() -> bytes, read after the op is timed


def philox(seed: int, index: int) -> np.random.Generator:
    """The replication stream, spelled out independently of the library."""
    return np.random.Generator(np.random.Philox(
        key=np.array([seed, index], dtype=np.uint64)))


def null_sorted_sample(seed: int, index: int, n: int) -> np.ndarray:
    y = philox(seed, index).standard_exponential(n)
    return np.cumsum(y[:-1]) / y.sum()


def circular_spacings(x: np.ndarray, n: int, m: int, mode: str) -> np.ndarray:
    """Spacings of sorted x (n - 1 values) with X_0 = 0, X_n = 1 and the
    circular continuation X_(n+i) = 1 + X_i."""
    ext = np.concatenate(([0.0], x, [1.0], 1.0 + x[: m - 1]))
    if mode == "overlapping":
        return ext[m: m + n] - ext[:n]
    return np.diff(ext[: n + 1][::m])


def finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def close(a, b, rel, floor=0.0) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + floor


def moran_closed(m: int):
    """(E h, sigma*^2, sigma^2, mu) of moran at order m, from scipy's digamma
    and Hurwitz zeta."""
    from scipy.special import psi, zeta

    z = float(zeta(2, m))
    star = z - 1.0 / m
    sig = star if m == 1 else (2.0 * m * m - 2.0 * m + 1.0) * z - 2.0 * m + 1.0
    return -float(psi(m)), star, sig, 1.0 / math.sqrt(star * 2.0 * m * (m + 1))


def parse_json(out: str, problems: list):
    try:
        return json.loads(out)
    except ValueError:
        problems.append(f"output is not JSON: {out[:120]!r}")
        return None


class Workload:
    name = ""
    #: (replications x sample elements) of one pass's inputs
    elems_per_pass = 0
    #: Monte Carlo replications per simulation
    REPS = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def build(self, lib):
        """Program objects the workload needs; part of setup_s."""
        return ()

    def prepare(self, lib):
        """Generate inputs; excluded from setup_s and from wall_s."""

    def tunings(self) -> list:
        """Tuning functions the workload itself passes to the library."""
        return []

    def ops(self, lib) -> list[Op]:
        """The operations of one pass; every pass of a run repeats them."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# null_sim
# ---------------------------------------------------------------------------

class NullSim(Workload):
    """Three null Monte Carlo studies; the replication kernel does the work."""

    name = "null_sim"
    REPS = 2000
    STUDIES = (  # (verb, h, m, n, mode)
        ("null", "moran", 10, 4000, "overlapping"),
        ("null", "greenwood", 10, 4000, "disjoint"),
        ("corr", "moran", 5, 2000, "disjoint"),
    )
    elems_per_pass = REPS * sum(n for _, _, _, n, _ in STUDIES)

    def build(self, lib):
        return (lib.cli.build_parser(),
                [lib.tuning.from_name(h, m=m) for _, h, m, _, _ in self.STUDIES])

    def argv(self, i: int) -> list[str]:
        verb, h, m, n, mode = self.STUDIES[i]
        argv = ["simulate", verb, "--h", h, "--m", str(m), "--n", str(n),
                "--reps", str(self.REPS), "--seed", str(self.seed), "--json"]
        if verb == "null":
            argv += ["--mode", mode]
        if i == 0:
            argv += ["--raw-csv", str(self.workdir / "null_raw.csv")]
        return argv

    def ops(self, lib):
        out = []
        for i, (verb, h, m, n, mode) in enumerate(self.STUDIES):
            argv = self.argv(i)
            raw = self.workdir / "null_raw.csv" if i == 0 else None
            out.append(Op(
                name=f"simulate {verb} {h} m={m} n={n} {mode}",
                run=lambda tracer, argv=argv: run_cli(lib, argv, tracer),
                check=lambda o, a, i=i: self.check(i, o, a),
                artifact=(lambda raw=raw: raw.read_bytes()) if raw else None))
        return out

    def check(self, i, out, raw) -> list[str]:
        verb, h, m, n, mode = self.STUDIES[i]
        problems = []
        d = parse_json(out, problems)
        if d is None:
            return problems
        want = {"study": verb, "h": h, "m": m, "n": n, "mode": mode,
                "reps": self.REPS, "master_seed": self.seed}
        problems += [f"{k} = {d.get(k)!r}, expected {v!r}"
                     for k, v in want.items() if d.get(k) != v]
        if not finite(d.get("empirical_mean"), d.get("empirical_var")) \
                or not d["empirical_var"] > 0:
            problems.append("empirical moments not finite and positive")
        if not (finite(d.get("ks_to_normal")) and 0 <= d["ks_to_normal"] <= 1):
            problems.append(f"ks_to_normal = {d.get('ks_to_normal')!r}")
        if not (isinstance(d.get("degenerate_reps"), int) and d["degenerate_reps"] >= 0):
            problems.append(f"degenerate_reps = {d.get('degenerate_reps')!r}")
        if verb == "null":
            rate = d.get("rejection_rate")
            if not (finite(rate) and 0 <= rate <= 1):
                problems.append(f"rejection_rate = {rate!r}")
        else:
            corr = d.get("correlations") or {}
            if not (finite(corr.get("empirical")) and -1 <= corr["empirical"] <= 1):
                problems.append(f"empirical correlation = {corr.get('empirical')!r}")
            if not (finite(corr.get("mu_m")) and close(corr["mu_m"], moran_closed(m)[3], 1e-9)):
                problems.append(f"mu_m = {corr.get('mu_m')!r}, expected {moran_closed(m)[3]!r}")
        if raw is not None:
            problems += self.check_raw(d, raw)
        return problems

    def check_raw(self, report, raw: bytes) -> list[str]:
        """Recompute replications from their Philox streams and the
        standardization from scipy's closed forms, and compare with the
        per-replication CSV and the report."""
        from scipy.special import ndtri

        _, h, m, n, _ = self.STUDIES[0]
        lines = raw.decode().splitlines()
        if lines[0] != "rep,statistic,standardized,reject" or len(lines) != self.REPS + 1:
            return [f"raw CSV has header {lines[0]!r} and {len(lines) - 1} rows"]
        rows = [line.split(",") for line in lines[1:]]
        mean_h, _, sig2, _ = moran_closed(m)
        center, scale = n * mean_h, math.sqrt(n * sig2)
        crit = float(ndtri(1.0 - ALPHA)) * scale + center
        problems = []
        picks = {0, self.REPS - 1} | set(
            np.random.default_rng(self.seed).integers(0, self.REPS, 3).tolist())
        for r in sorted(picks):
            x = null_sorted_sample(self.seed, r, n)
            want = math.fsum(-np.log(n * circular_spacings(x, n, m, "overlapping")))
            rep, v, z, rej = int(rows[r][0]), float(rows[r][1]), float(rows[r][2]), rows[r][3]
            if rep != r or not close(v, want, 1e-10):
                problems.append(f"replication {r}: statistic {v!r}, recomputed {want!r}")
            if not close(z, (want - center) / scale, 0.0, 1e-8):
                problems.append(f"replication {r}: standardized {z!r}")
            if abs(want - crit) > 1e-9 * abs(crit) and rej != ("true" if want > crit else "false"):
                problems.append(f"replication {r}: reject flag {rej}")
        zs = [float(row[2]) for row in rows]
        if not close(report["empirical_mean"], float(np.mean(zs)), 0.0, 1e-9):
            problems.append("report mean differs from the mean of the raw CSV")
        rate = sum(row[3] == "true" for row in rows) / self.REPS
        if report["rejection_rate"] != rate:
            problems.append("report rejection rate differs from the raw CSV")
        return problems


# ---------------------------------------------------------------------------
# alt_match
# ---------------------------------------------------------------------------

class AltMatch(Workload):
    """Sample-size matching, greenwood m=10 overlapping against disjoint:
    the cosine path through the CLI, then the bump path through the library.
    How many simulations the bisection needs depends on the master seed, so
    a pass runs both matches for SEEDS master seeds 1000 * seed + k.  Few
    reps per simulation keep a match short, so that one pass can average
    over many seeds."""

    name = "alt_match"
    REPS = 10
    SEEDS = 16
    M, TARGET, REF_N = 10, 0.6, 2000
    MODELS = (("cosine", (1, 2.0)), ("bump", (0.5, 0.3, 6.0)))
    #: nominal size: each match freezes its alternative at reference size
    #: REF_N, so a pass counts SEEDS x 2 x REPS x REF_N elements
    elems_per_pass = SEEDS * 2 * REPS * REF_N

    @property
    def delta(self) -> float:
        return (self.REF_N * self.M) ** -0.25

    def build(self, lib):
        g = lib.tuning.from_name("greenwood", m=self.M)
        specs = (lib.asymptotics.TestSpec(g, self.M, "overlapping"),
                 lib.asymptotics.TestSpec(g, self.M, "disjoint"))
        models = [lib.alternatives.make_alternative(kind, params, self.REF_N, self.M,
                                                    delta_override=self.delta)
                  for kind, params in self.MODELS]
        return specs, models

    def prepare(self, lib):
        self.specs, self.models = self.build(lib)

    def tunings(self):
        return [spec.h for spec in self.specs]

    def ops(self, lib):
        return [op for k in range(self.SEEDS)
                for op in self.seed_ops(lib, 1000 * self.seed + k)]

    def seed_ops(self, lib, seed):
        argv = ["simulate", "match", "--h", "greenwood", "--m", str(self.M),
                "--mode", "overlapping", "--mode2", "disjoint",
                "--target-power", str(self.TARGET), "--reps", str(self.REPS),
                "--seed", str(seed), "--json"]
        kind, params = self.MODELS[1]

        def library_match(tracer):
            # looked up at call time, so a traced run sees the patched name
            res = lib.montecarlo.sample_size_match(
                *self.specs, self.TARGET, ALPHA, model_kind=kind,
                model_params=params, reps=self.REPS, master_seed=seed)
            return 0, lib.serialize.dumps_stable(res.to_json_dict())

        return [
            Op(name=f"simulate match cosine seed={seed}",
               run=lambda tracer: run_cli(lib, argv, tracer),
               check=lambda o, a: self.check(lib, 0, seed, o)),
            Op(name=f"sample_size_match bump seed={seed}", run=library_match,
               check=lambda o, a: self.check(lib, 1, seed, o)),
        ]

    def check(self, lib, k, seed, out) -> list[str]:
        problems = []
        d = parse_json(out, problems)
        if d is None:
            return problems
        n1, n2 = d.get("n1"), d.get("n2")
        if not (isinstance(n1, int) and isinstance(n2, int)
                and n1 > self.M and n2 >= 2 * self.M and n2 % self.M == 0):
            return problems + [f"infeasible sample sizes n1={n1!r}, n2={n2!r}"]
        if not (finite(d.get("ratio")) and d["ratio"] == n2 / n1):
            problems.append(f"ratio {d.get('ratio')!r} is not n2/n1")
        elif not (finite(d.get("ci_low"), d.get("ci_high"))
                  and d["ci_low"] <= d["ratio"] <= d["ci_high"]):
            problems.append("ratio outside its confidence interval")
        for key in ("power1", "power2"):
            if not (finite(d.get(key)) and 0 <= d[key] <= 1):
                problems.append(f"{key} = {d.get(key)!r}")
        if d.get("target_power") != self.TARGET or not close(d.get("delta", 0.0), self.delta, 1e-15):
            problems.append("target power or delta differs from the request")
        return problems + self.check_sampler(lib, k, seed, n1)

    def check_sampler(self, lib, k, seed, n) -> list[str]:
        """The library's alternative sample at the matched n, drawn from
        Philox stream (seed, 0), must solve F(y) = u for the uniform order
        statistics u recomputed from that stream, with F integrated
        independently."""
        from scipy.integrate import quad

        kind, params = self.MODELS[k]
        model = self.models[k]
        u = null_sorted_sample(seed, 0, n)
        y = lib.alternatives.sample_values(model, n, philox(seed, 0))
        if y.shape != u.shape or np.any(np.diff(y) < 0):
            return [f"{kind} sample is not n-1 sorted values"]
        if kind == "cosine":
            freq, theta = params
            w = 2.0 * math.pi * freq
            err = np.abs(y + self.delta * theta * np.sin(w * y) / w - u).max()
            return [] if err <= 1e-12 else [f"cosine inverse CDF off by {err:.3g}"]
        center, width, theta = params

        def base(x):
            t = (x - center) / width
            return math.exp(1.0 - 1.0 / (1.0 - t * t)) if abs(t) < 1 else 0.0

        edges = [center - width, center + width]
        mean = quad(base, 0.0, 1.0, points=edges, epsabs=1e-15, epsrel=1e-13)[0]
        bad = []
        for i in np.linspace(0, n - 2, 9).astype(int).tolist():
            yi = float(y[i])
            inside = [e for e in edges if 0 < e < yi]
            L = theta * (quad(base, 0.0, yi, points=inside or None,
                              epsabs=1e-15, epsrel=1e-13)[0] - mean * yi)
            if abs(yi + self.delta * L - u[i]) > 1e-11:
                bad.append(i)
        return [f"bump inverse CDF off at indices {bad}"] if bad else []


# ---------------------------------------------------------------------------
# quad_moments
# ---------------------------------------------------------------------------

class QuadMoments(Workload):
    """Cold efficacy tables whose sigma^2 needs one 2-D quadrature per lag,
    plus greenwood at m = 1e6 on its closed form.  Uses no seed."""

    name = "quad_moments"
    CASES = (("pd:0.5", 1000), ("rao", 300), ("pd:-0.5", 300), ("greenwood", 1_000_000))
    #: one replication of the order-m Gamma block per efficacy
    elems_per_pass = sum(m for _, m in CASES)
    #: stated accuracy: the library's own route-agreement tolerance
    REL_TOL = 1e-8

    def build(self, lib):
        return [lib.tuning.from_name(h, m=m) for h, m in self.CASES]

    def prepare(self, lib):
        with open(HERE / "quad_reference.json") as fh:
            self.reference = json.load(fh)

    def ops(self, lib):
        out = []
        for h, m in self.CASES:
            argv = ["efficacy", "--h", h, "--m", str(m), "--mode", "overlapping", "--json"]
            out.append(Op(name=f"efficacy {h} m={m}",
                          run=lambda tracer, argv=argv: run_cli(lib, argv, tracer),
                          check=lambda o, a, h=h, m=m: self.check(h, m, o)))
        return out

    def expected(self, h, m) -> dict:
        if h == "greenwood":  # closed forms: mu = 1, sigma*^2 = 2m(m+1)
            star = 2.0 * m * (m + 1)
            sig = star * (2 * m + 1) / 3.0
            return {"e2": (m + 1.0) * star / (2.0 * sig), "mu2": 1.0,
                    "sigma2": sig, "sigma_star2": star}
        return self.reference[f"{h} m={m}"]

    def check(self, h, m, out) -> list[str]:
        problems = []
        rows = parse_json(out, problems)
        if rows is None:
            return problems
        if not (isinstance(rows, list) and len(rows) == 1):
            return [f"expected one table row, got {out[:120]!r}"]
        d = rows[0]
        if d.get("m") != m or d.get("mode") != "overlapping" or not str(d.get("h")).startswith(h):
            problems.append(f"row is for h={d.get('h')!r}, m={d.get('m')!r}")
        for key, want in self.expected(h, m).items():
            if not (finite(d.get(key)) and close(d[key], want, self.REL_TOL)):
                problems.append(f"{key} = {d.get(key)!r}, reference {want!r}")
        if not problems:
            if d["mu2"] > 1.0 + 1e-12:
                problems.append(f"mu^2 = {d['mu2']!r} > 1")
            if m * d["sigma_star2"] < d["sigma2"] * (1 - 1e-9) - 1e-9:
                problems.append("m sigma*^2 < sigma^2")
        return problems


# ---------------------------------------------------------------------------
# file_test
# ---------------------------------------------------------------------------

class FileTest(Workload):
    """`test FILE` on one generated file of N_OBS = 1e6 - 1 unsorted
    observations (sample parameter n = 1e6, which m = 10 divides)."""

    name = "file_test"
    N_OBS = 999_999
    TESTS = (("moran", 10, "overlapping"), ("pd:0.5", 20, "overlapping"),
             ("greenwood", 10, "disjoint"))
    elems_per_pass = len(TESTS) * (N_OBS + 1)

    def build(self, lib):
        return [lib.tuning.from_name(h, m=m) for h, m, _ in self.TESTS]

    @property
    def path(self) -> Path:
        return self.workdir / "sample.txt"

    def values(self) -> np.ndarray:
        """The seed's observations: uniforms, redrawn until free of ties."""
        g = np.random.Generator(np.random.Philox(key=self.seed))
        while True:
            x = g.random(self.N_OBS)
            if np.unique(x).size == x.size:
                return x

    def prepare(self, lib):
        x = self.values()
        with open(self.path, "w") as fh:
            fh.write(f"# n={self.N_OBS + 1}\n")
            for lo in range(0, x.size, 100_000):
                fh.write("\n".join(map(repr, x[lo: lo + 100_000].tolist())) + "\n")

    def ops(self, lib):
        out = []
        for i, (h, m, mode) in enumerate(self.TESTS):
            argv = ["test", str(self.path), "--h", h, "--m", str(m), "--mode", mode, "--json"]
            out.append(Op(name=f"test {h} m={m} {mode}",
                          run=lambda tracer, argv=argv: run_cli(lib, argv, tracer),
                          check=lambda o, a, i=i: self.check(i, o)))
        return out

    def oracle(self, i) -> tuple[float, float]:
        """(statistic, null center) by numpy sort/diff/fsum and scipy."""
        from scipy.special import gammaln, psi

        h, m, mode = self.TESTS[i]
        if not hasattr(self, "_sorted"):
            self._sorted = np.sort(self.values())
        n = self.N_OBS + 1
        d = circular_spacings(self._sorted, n, m, mode) * n
        if h == "moran":
            return math.fsum(-np.log(d)), n * -float(psi(m))
        if h == "greenwood":
            return math.fsum(d * d), n // m * float(m * (m + 1))
        # pd:0.5, (x^1.5 - 1) / 0.75, with E Z^1.5 = Gamma(m + 1.5) / Gamma(m)
        ez = math.exp(float(gammaln(m + 1.5) - gammaln(m)))
        return math.fsum((d ** 1.5 - 1.0) / 0.75), n * (ez - 1.0) / 0.75

    def check(self, i, out) -> list[str]:
        h, m, mode = self.TESTS[i]
        problems = []
        d = parse_json(out, problems)
        if d is None:
            return problems
        if (d.get("n"), d.get("m"), d.get("mode")) != (self.N_OBS + 1, m, mode):
            return [f"report is for n={d.get('n')!r}, m={d.get('m')!r}, {d.get('mode')!r}"]
        stat, center = self.oracle(i)
        keys = ("statistic", "null_center", "null_scale", "standardized",
                "critical_value", "p_value")
        if not finite(*(d.get(k) for k in keys)):
            return [f"non-finite report fields: {out[:200]!r}"]
        if not close(d["statistic"], stat, 1e-12):
            problems.append(f"statistic {d['statistic']!r}, oracle {stat!r}")
        if not close(d["null_center"], center, 1e-9):
            problems.append(f"null center {d['null_center']!r}, oracle {center!r}")
        z = (d["statistic"] - d["null_center"]) / d["null_scale"]
        if not close(d["standardized"], z, 1e-9, 1e-9):
            problems.append("standardized value inconsistent with the report")
        if not 0 <= d["p_value"] <= 1 or d["reject"] != (d["statistic"] > d["critical_value"]):
            problems.append("p-value or decision inconsistent")
        return problems


WORKLOADS = {w.name: w for w in (NullSim, AltMatch, QuadMoments, FileTest)}

