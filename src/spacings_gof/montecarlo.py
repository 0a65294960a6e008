"""Reproducible Monte Carlo validation of the asymptotic theory.

Stream derivation: replication r of a run with master seed s draws its n
standard exponentials from a dedicated counter-based generator
Philox(key = (s, r)) (``substream``).  The studies take s in [0, 2^64),
the range of a key word; sample_size_match derives its per-test seeds
s * 1000003 + k from it modulo 2^64, one to one since the multiplier is odd.
``replicate`` runs every study's replications in blocks of rows: it resets
one Philox to key (s, r) with counter 0 for each row, which gives the same
stream as a fresh generator, and takes spacings, h and the row sums over the
whole block.  Under the null the m-spacings are block or window sums of the
draws over their total; under an alternative they are differences of the
order statistics, the partial sums over the total pushed through F^{-1}.
Each row is reduced on its own (numpy's pairwise summation along the row),
so a replication's statistic does not depend on the block size, and report
bytes depend only on the configuration and the seed.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

from . import asymptotics
from .alternatives import AlternativeModel, order_statistics
from .asymptotics import TestSpec
from .errors import DegenerateSpacingError, DomainError
from .serialize import Record
from .spacings import SpacingsPlan, statistics, statistics_from_draws
from .special_math import normal_cdf, normal_quantile
from .tuning import TuningFunction, builtin

#: degenerate replications (tied samples under float rounding) above this
#: fraction abort a run: a CLT check silently contaminated by substituted
#: values would be invisible.
DEGENERATE_ABORT_FRACTION = 1e-3

#: elements drawn per block of replications: a block holds
#: max(1, BLOCK_ELEMS // n) samples, which bounds its memory
BLOCK_ELEMS = 16384

#: sample size sample_size_match builds its one alternative for
_REF_N = 2000
#: simulations per test in one sample-size search
_MATCH_SIMS = 6


def _check_master_seed(master_seed) -> None:
    """Refuse a master seed outside [0, 2^64): the Philox key holds 64 bits,
    so such a seed would alias the seed it equals modulo 2^64."""
    if not (isinstance(master_seed, (int, np.integer))
            and 0 <= int(master_seed) < 1 << 64):
        raise DomainError(f"master seed must be an integer in [0, 2^64), "
                          f"got {master_seed!r}")


def _key(master_seed: int, index: int) -> np.ndarray:
    return np.array([np.uint64(master_seed & 0xFFFFFFFFFFFFFFFF),
                     np.uint64(index & 0xFFFFFFFFFFFFFFFF)], dtype=np.uint64)


def substream(master_seed: int, index: int) -> np.random.Generator:
    """Philox stream keyed by (master_seed, replication index)."""
    return Generator(Philox(key=_key(master_seed, index)))


def _draw_blocks(n: int, reps: int, seed: int, rows: int):
    """Yield (r0, y) for r0 = 0, rows, 2 rows, ...: y[i] holds the n
    standard exponentials of substream(seed, r0 + i).

    One Philox serves every replication: its state is reset to key
    (seed, r) with counter 0 and an empty buffer, the state of a fresh
    Philox(key=(seed, r))."""
    bitgen = Philox(key=_key(seed, 0))
    rng = Generator(bitgen)
    state = bitgen.state
    y = np.empty((min(rows, reps), n))
    keys = np.tile(_key(seed, 0), (len(y), 1))
    for r0 in range(0, reps, rows):
        block = y[: min(rows, reps - r0)]
        keys[:, 1] = np.arange(r0, r0 + len(keys), dtype=np.uint64)
        for row, key in zip(block, keys):
            state["state"]["key"] = key
            bitgen.state = state
            rng.standard_exponential(n, out=row)
        yield r0, block


def sample_blocks(n: int, model: AlternativeModel | None, reps: int,
                  seed: int, rows: int):
    """Yield (r0, x) for r0 = 0, rows, 2 rows, ...: x[i] holds the n-1
    sorted observations of replication r0 + i, drawn from the stream of
    substream(seed, r0 + i) under ``model``."""
    for r0, y in _draw_blocks(n, reps, seed, rows):
        yield r0, order_statistics(model, y)


@dataclass(frozen=True)
class SimulationConfig:
    """One study's inputs; the spacing order is ``plan.m``."""

    n: int
    plan: SpacingsPlan
    h: TuningFunction
    model: AlternativeModel | None
    reps: int
    master_seed: int
    alpha: float = 0.05

    def __post_init__(self):
        _check_master_seed(self.master_seed)
        if self.reps < 100:
            raise DomainError("reps must be >= 100")
        if not 0.0 < self.alpha < 1.0:
            raise DomainError("alpha must be in (0, 1)")
        self.plan.validate_for(self.n)
        m = self.plan.m
        if self.model is not None and (self.model.n, self.model.m) != (self.n, m):
            raise DomainError(
                f"alternative was built for (n={self.model.n}, m={self.model.m}), "
                f"config has (n={self.n}, m={m})")


@dataclass(frozen=True)
class SimulationReport(Record):
    study: str
    h_name: str
    m: int
    n: int
    mode: str
    scaling: str
    reps: int
    alpha: float
    master_seed: int
    seed_derivation: str = field(
        default="philox(key=(master_seed, replication))", init=False)
    empirical_mean: float
    empirical_var: float
    ks_to_normal: float | None = None
    rejection_rate: float | None = None
    rejection_se: float | None = None
    predicted_power: float | None = None
    correlations: dict | None = None
    deviations: dict | None = None
    degenerate_reps: int = 0
    #: informational; not serialized, so identical configurations
    #: serialize byte-identically
    runtime: float = field(default=0.0, metadata={"json": False})
    #: per-replication statistics (NaN = degenerate); not serialized
    raw: np.ndarray | None = field(default=None, repr=False, compare=False,
                                   metadata={"json": False})


def replicate(n: int, model: AlternativeModel | None,
              stats: Sequence[tuple[SpacingsPlan, TuningFunction]], reps: int,
              seed: int) -> tuple[np.ndarray, int]:
    """raw[r, i] = statistic i of replication r, whose sample of size n is
    drawn from substream(seed, r) under ``model`` (None = uniform null).

    Replications run in blocks of max(1, BLOCK_ELEMS // n) rows.  Null
    spacings come from the draws (``statistics_from_draws``), alternative
    ones from the order statistics (``statistics``).  A
    replication with a degenerate spacing is a NaN row; more than
    DEGENERATE_ABORT_FRACTION of them abort the run.  Returns (raw, number
    of NaN rows)."""
    for plan, _ in stats:
        plan.validate_for(n)
    rows = max(1, BLOCK_ELEMS // n)
    if model is None:
        blocks = _draw_blocks(n, reps, seed, rows)
        block_statistics = statistics_from_draws
    else:
        blocks = sample_blocks(n, model, reps, seed, rows)
        block_statistics = statistics
    raw = np.empty((reps, len(stats)))
    for r0, block in blocks:
        for i, (plan, h) in enumerate(stats):
            raw[r0: r0 + len(block), i] = block_statistics(block, plan, h)
    nan_rows = np.isnan(raw).any(axis=1)
    raw[nan_rows] = np.nan
    bad = int(nan_rows.sum())
    if bad > DEGENERATE_ABORT_FRACTION * reps:
        raise DegenerateSpacingError(
            f"{bad}/{reps} replications degenerate (tied spacings); aborting")
    return raw, bad


def ks_distance_to_normal(standardized: np.ndarray) -> float:
    """sup_x |empirical CDF - Phi(x)| (raw distance, not a p-value)."""
    z = np.sort(standardized)
    n = z.size
    c = normal_cdf(z)
    i = np.arange(1, n + 1)
    return float(max((i / n - c).max(), (c - (i - 1) / n).max()))


def _finite(values: np.ndarray) -> np.ndarray:
    return values[~np.isnan(values)]


def _report(cfg: SimulationConfig, study: str, t0: float, bad: int,
            **fields) -> SimulationReport:
    """The report of one study of cfg: the header cfg fixes, the study's own
    fields, and the runtime since t0."""
    return SimulationReport(
        study=study, h_name=cfg.h.name, m=cfg.plan.m, n=cfg.n,
        mode=cfg.plan.mode, scaling=cfg.plan.scaling, reps=cfg.reps,
        alpha=cfg.alpha, master_seed=cfg.master_seed, degenerate_reps=bad,
        runtime=time.perf_counter() - t0, **fields)


def _rejection_study(cfg: SimulationConfig) -> SimulationReport:
    """The null study (cfg.model None, with ks_to_normal) or the power study
    (with predicted_power): the size-alpha test over cfg.reps replications."""
    t0 = time.perf_counter()
    m = cfg.plan.m
    center, scale = asymptotics.standardization(cfg.h, cfg.plan, cfg.n)
    crit = asymptotics.critical_point(cfg.h, cfg.plan, cfg.n, cfg.alpha)
    predicted = None
    if cfg.model is not None:
        # normalized scaling multiplies the statistic's fluctuations by one
        # alpha > 0, which leaves the efficacy that of the by-n statistic
        e2 = asymptotics.efficacy(cfg.h, m, cfg.plan.mode).e2
        predicted = asymptotics.predicted_power(e2, cfg.model.l2norm2, cfg.alpha)
    raw, bad = replicate(cfg.n, cfg.model, [(cfg.plan, cfg.h)], cfg.reps,
                         cfg.master_seed)
    vals = _finite(raw[:, 0])
    z = (vals - center) / scale
    rate = float((vals > crit).mean())
    return _report(
        cfg, "null" if cfg.model is None else "power", t0, bad,
        empirical_mean=float(z.mean()), empirical_var=float(z.var(ddof=1)),
        ks_to_normal=ks_distance_to_normal(z) if cfg.model is None else None,
        rejection_rate=rate,
        rejection_se=math.sqrt(rate * (1 - rate) / vals.size) if vals.size else None,
        predicted_power=predicted, raw=raw[:, 0],
    )


def null_distribution_study(cfg: SimulationConfig) -> SimulationReport:
    """Simulate the null statistic, standardize by the analytic (center,
    scale), and report the KS distance to the standard normal plus the
    empirical mean/variance of the standardized values and the size of the
    nominal-alpha test.  Standardization uses the analytic moments, not
    plug-in empirical ones: asymptotic normality is claimed for exactly that
    standardization."""
    if cfg.model is not None:
        raise DomainError("null study requires the null model")
    return _rejection_study(cfg)


def power_study(cfg: SimulationConfig) -> SimulationReport:
    """Rejection rate of the size-alpha test under the alternative, next to
    the asymptotic power prediction Phi(e ||l||_2^2 - u_alpha)."""
    if cfg.model is None:
        raise DomainError("power study requires an alternative model")
    return _rejection_study(cfg)


def correlation_study(h: TuningFunction, m: int, n: int, reps: int,
                      master_seed: int, alpha: float = 0.05) -> SimulationReport:
    """Empirical null correlation between the disjoint h-statistic and the
    disjoint greenwood statistic, for comparison with moments(h, m).mu: the
    asymptotic power of the overlapping h-test is governed by exactly this
    correlation.  The inputs are checked as a disjoint, by-n
    SimulationConfig."""
    cfg = SimulationConfig(n=n, plan=SpacingsPlan(m=m, mode="disjoint"), h=h,
                           model=None, reps=reps, master_seed=master_seed,
                           alpha=alpha)
    t0 = time.perf_counter()
    raw, bad = replicate(n, None, [(cfg.plan, builtin("greenwood")),
                                   (cfg.plan, h)], reps, master_seed)
    v_g, v_h = raw[~np.isnan(raw).any(axis=1)].T.copy()
    corr = float(np.corrcoef(v_h, v_g)[0, 1])
    mu = asymptotics.moments(h, m).mu
    z = (v_h - v_h.mean()) / v_h.std(ddof=1)
    return _report(
        cfg, "corr", t0, bad,
        empirical_mean=float(v_h.mean()), empirical_var=float(v_h.var(ddof=1)),
        ks_to_normal=ks_distance_to_normal(z),
        correlations={"empirical": corr, "mu_m": mu},
    )


def empirical_moment_check(cfg: SimulationConfig) -> SimulationReport:
    """Raw-statistic mean and variance against their asymptotic targets
    (count * A_i and n sigma^2, resp. N sigma*^2), as relative ratios."""
    t0 = time.perf_counter()
    m = cfg.plan.m
    center, scale = asymptotics.standardization(cfg.h, cfg.plan, cfg.n)
    var_target = scale * scale
    if cfg.model is None:
        mean_target = center
    else:
        count = cfg.n if cfg.plan.mode == "overlapping" else cfg.n // m
        mean_target = count * asymptotics.shifted_mean(
            cfg.h, cfg.plan, cfg.n, cfg.model.l2norm2)
    raw, bad = replicate(cfg.n, cfg.model, [(cfg.plan, cfg.h)], cfg.reps,
                         cfg.master_seed)
    vals = _finite(raw[:, 0])
    mean, var = float(vals.mean()), float(vals.var(ddof=1))
    return _report(
        cfg, "moments", t0, bad, empirical_mean=mean, empirical_var=var,
        deviations={
            "mean_target": mean_target, "var_target": var_target,
            "mean_ratio": mean / mean_target if mean_target else math.nan,
            "var_ratio": var / var_target if var_target else math.nan,
            "mean_shift": mean - center,
        },
    )


# ---------------------------------------------------------------------------
# Sample-size matching (finite-n Pitman proxy)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatchResult(Record):
    ratio: float
    ci_low: float
    ci_high: float
    n1: int
    n2: int
    power1: float
    power2: float
    target_power: float
    delta: float


def _feasible(spec: TestSpec, n: int) -> int:
    if spec.mode == "disjoint":
        return max(spec.m * 2, spec.m * round(n / spec.m))
    return max(spec.m + 1, n)


def _sim_power(spec: TestSpec, n: int, model: AlternativeModel, alpha: float,
               reps: int, seed: int) -> float:
    plan = SpacingsPlan(m=spec.m, mode=spec.mode, scaling="by_n")
    crit = asymptotics.critical_point(spec.h, plan, n, alpha)
    raw, _ = replicate(n, model, [(plan, spec.h)], reps, seed)
    return float((_finite(raw[:, 0]) > crit).mean())


def _solve_n(spec: TestSpec, model: AlternativeModel, target: float,
             alpha: float, reps: int, seed: int) -> tuple[int, float, float]:
    """The simulated (n, power) closest to ``target``, and the analytic
    d power / d log n at that n.

    All simulations share one seed (common random numbers).  Each n solves
    the analytic curve Phi(c a sqrt(n) - u_alpha), a = sqrt(e^2 m)
    ||l||_2^2 delta^2 and c = 1 at first, for the target; after each
    simulation c is refit by least squares on the probit scale, clamped to
    [c/2, 2c].  The search stops within one binomial standard error of the
    target, when an n repeats, or after _MATCH_SIMS simulations."""
    e2 = asymptotics.efficacy(spec.h, spec.m, spec.mode).e2
    a = math.sqrt(e2 * spec.m) * model.l2norm2 * model.delta ** 2
    u = asymptotics.upper_quantile(alpha)
    x = u + asymptotics.upper_quantile(1.0 - target)
    se = math.sqrt(target * (1 - target) / reps)
    c, power = 1.0, {}
    while len(power) < _MATCH_SIMS:
        n = _feasible(spec, round((x / (c * a)) ** 2))
        if n in power:
            break
        if n > 1 << 22:
            raise DomainError(
                f"target power {target} unreachable at feasible sample sizes "
                f"for {spec.h.name} ({spec.mode}): the search asks for n={n}")
        power[n] = _sim_power(spec, n, model, alpha, reps, seed)
        if abs(power[n] - target) <= se:
            break
        xs = a * np.sqrt(list(power))
        qs = np.clip(list(power.values()), 0.5 / reps, 1 - 0.5 / reps)
        ys = u + np.array([normal_quantile(q) for q in qs])
        c = min(max(float(xs @ ys / (xs @ xs)), c / 2), 2 * c)
    n, p = min(power.items(), key=lambda item: abs(item[1] - target))
    z = a * math.sqrt(n)
    return n, p, math.exp(-(z - u) ** 2 / 2) / math.sqrt(2 * math.pi) * z / 2


def sample_size_match(spec1: TestSpec, spec2: TestSpec, target_power: float,
                      alpha: float, model_kind: str = "cosine",
                      model_params=(1, 2.0), reps: int = 3000,
                      master_seed: int = 951) -> MatchResult:
    """Finite-n sample-size ratio: how much larger a sample the second test
    needs to match the first test's power against one fixed alternative.

    A single physical alternative 1 + delta*l, built for n = _REF_N and
    m = m1 (so delta = (_REF_N m1)^(-1/4)), is faced by both tests; for
    each, n is searched on common random numbers, steered by the analytic
    power curve (_solve_n).
    The returned ratio n2/n1 is the finite-n analogue of the Pitman
    efficiency.  Its CI is ratio * exp(-+1.96 sqrt(v)), where v is the
    delta-method variance of log(n2/n1) from the binomial noise of the two
    power estimates through the analytic slopes d power / d log n.  Where a
    matched power is 0 or 1 (no binomial variance), a slope underflows or
    the CI leaves (0, inf), DomainError."""
    if not alpha < target_power < 1:
        raise DomainError("target_power must be in (alpha, 1)")
    if reps < 1:
        raise DomainError("reps must be >= 1")
    _check_master_seed(master_seed)
    from .alternatives import make_alternative

    model = make_alternative(model_kind, model_params, _REF_N, spec1.m)
    n1, p1, d1 = _solve_n(spec1, model, target_power, alpha,
                          reps, master_seed * 1_000_003 + 1)
    n2, p2, d2 = _solve_n(spec2, model, target_power, alpha,
                          reps, master_seed * 1_000_003 + 2)
    ratio = n2 / n1
    low = high = math.inf
    if 0 < p1 < 1 and 0 < p2 < 1:
        try:
            var = 0.0
            for p, d in ((p1, d1), (p2, d2)):
                var += p * (1 - p) / reps / d ** 2
            half = 1.96 * math.sqrt(var)
            low, high = ratio * math.exp(-half), ratio * math.exp(half)
        except (ZeroDivisionError, OverflowError):
            pass
    if not (low > 0 and high < math.inf):
        raise DomainError(f"no delta-method CI for n2/n1 at target power "
                          f"{target_power} with reps={reps}: matched powers "
                          f"{p1:g} and {p2:g}")
    return MatchResult(ratio=ratio, ci_low=low, ci_high=high, n1=n1, n2=n2,
                       power1=p1, power2=p2, target_power=target_power,
                       delta=model.delta)
