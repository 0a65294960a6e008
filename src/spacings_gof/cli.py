"""Command-line front end.

Verbs: test (run a uniformity test on a data file), moments, efficacy, are
(Pitman relative efficiency), simulate {null,power,corr,match}.  Output is a
human-readable table by default, or stable JSON (--json) / CSV (--csv) whose
bytes depend only on the flags and seed.  Exit codes: 0 success, 2 argument/
validation/parse errors, 3 degenerate-spacing abort.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from . import asymptotics, montecarlo
from .alternatives import parse_path
from .asymptotics import GrowthRegime, TestSpec
from .errors import DegenerateSpacingError, SpacingsGofError
from .montecarlo import SimulationConfig
from .serialize import (
    Record,
    csv_value,
    dict_to_csv,
    dumps_stable,
    rows_to_csv,
)
from .spacings import SpacingsPlan, read_sample_file, statistic
from .tuning import from_name


@dataclass(frozen=True)
class TestReport(Record):
    file: str
    h_name: str
    m: int
    n: int
    mode: str
    scaling: str
    alpha: float
    statistic: float
    null_center: float
    null_scale: float
    standardized: float
    critical_value: float
    p_value: float
    reject: bool
    warnings: tuple = ()


def _emit(payload: str, out: str | None):
    sys.stdout.write(payload)
    if not payload.endswith("\n"):
        sys.stdout.write("\n")
    if out:
        with open(out, "w") as fh:
            fh.write(payload if payload.endswith("\n") else payload + "\n")


def _render_record(d: dict, args) -> str:
    if args.json:
        return dumps_stable(d)
    if args.csv:
        return dict_to_csv(d)
    width = max(len(k) for k in d)
    lines = []
    for k, v in d.items():
        if isinstance(v, float):
            v = f"{v:.10g}"
        lines.append(f"{k:<{width}}  {v}")
    return "\n".join(lines)


def _render_rows(rows: list[dict], args) -> str:
    if args.json:
        return dumps_stable(rows)
    cols = list(rows[0].keys())
    if args.csv:
        return rows_to_csv(rows, cols)
    srows = [[f"{r[c]:.8g}" if isinstance(r[c], float) else str(r[c])
              for c in cols] for r in rows]
    widths = [max(len(c), *(len(sr[i]) for sr in srows)) for i, c in enumerate(cols)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(cols, widths))]
    for sr in srows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(sr, widths)))
    return "\n".join(lines)


def _parse_m_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = part.split("..")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    if not out or any(m < 1 for m in out):
        raise ValueError(f"bad m list {text!r}")
    return out


def cmd_test(args) -> int:
    sample = read_sample_file(args.file)
    plan = SpacingsPlan(m=args.m, mode=args.mode, scaling=args.scaling)
    h = from_name(args.h, m=args.m)
    value = statistic(sample, plan, h)
    center, scale = asymptotics.standardization(h, plan, sample.n)
    crit = asymptotics.critical_point(h, plan, sample.n, args.alpha)
    z = (value - center) / scale
    warns = []
    if h.family == "rao":
        warns.append("rao lacks a continuous derivative at x = m; the "
                     "smooth-theory power formulas are indicative only")
    if sample.has_ties:
        warns.append("sample contains ties")
    report = TestReport(
        file=str(args.file), h_name=h.name, m=args.m, n=sample.n,
        mode=args.mode, scaling=args.scaling, alpha=args.alpha,
        statistic=value, null_center=center, null_scale=scale,
        standardized=z, critical_value=crit,
        p_value=1.0 - asymptotics.normal_cdf(z),  # asymptotic-normal, one-sided
        reject=bool(value > crit), warnings=tuple(warns),
    )
    d = report.to_json_dict()
    d["p_value_kind"] = "asymptotic normal, one-sided"
    if not (args.json or args.csv):
        d["decision"] = "reject H0" if report.reject else "retain H0"
    _emit(_render_record(d, args), args.out)
    return 0


def _m_table(args, record) -> int:
    rows = [record(from_name(args.h, m=m), m).to_json_dict()
            for m in _parse_m_list(args.m)]
    _emit(_render_rows(rows, args), args.out)
    return 0


def cmd_moments(args) -> int:
    return _m_table(args, asymptotics.moments)


def cmd_efficacy(args) -> int:
    return _m_table(args, lambda h, m: asymptotics.efficacy(h, m, args.mode))


def cmd_are(args) -> int:
    regime = [args.c1, args.p1, args.c2, args.p2]
    if any(v is not None for v in regime) and any(v is None for v in regime):
        raise SpacingsGofError("supply all of --c1 --p1 --c2 --p2 or none")
    spec1 = TestSpec(from_name(args.h1, m=args.m1), args.m1, args.mode1)
    spec2 = TestSpec(from_name(args.h2, m=args.m2), args.m2, args.mode2)
    res = asymptotics.pitman_are(
        spec1, spec2,
        regime1=None if args.c1 is None else GrowthRegime(args.c1, args.p1),
        regime2=None if args.c2 is None else GrowthRegime(args.c2, args.p2),
    )
    _emit(_render_record(res.to_json_dict(), args), args.out)
    return 0


def _write_raw_csv(path: str, raw: np.ndarray, center: float, scale: float,
                   crit: float):
    with open(path, "w") as fh:
        fh.write("rep,statistic,standardized,reject\n")
        for r, v in enumerate(raw):
            z = (v - center) / scale
            fh.write(f"{r},{csv_value(float(v))},{csv_value(float(z))},"
                     f"{'true' if v > crit else 'false'}\n")


#: the study-specific flags that each simulate study reads
STUDY_READS = {
    "null": ("n", "mode", "scaling", "raw_csv"),
    "power": ("n", "mode", "scaling", "raw_csv", "path"),
    "corr": ("n",),
    "match": ("mode", "h2", "m2", "mode2", "target_power"),
}


def cmd_simulate(args) -> int:
    unread = ["--" + dest.replace("_", "-")
              for dest, default in args.flag_defaults.items()
              if dest not in STUDY_READS[args.subverb]
              and getattr(args, dest) != default]
    if unread:
        raise SpacingsGofError(
            f"simulate {args.subverb} does not read {', '.join(unread)}")
    h = from_name(args.h, m=args.m)
    if args.subverb == "match":
        spec1 = TestSpec(h, args.m, args.mode)
        m2 = args.m if args.m2 is None else args.m2
        h2 = from_name(args.h if args.h2 is None else args.h2, m=m2)
        spec2 = TestSpec(h2, m2, args.mode2)
        res = montecarlo.sample_size_match(
            spec1, spec2, args.target_power, args.alpha,
            reps=args.reps, master_seed=args.seed)
        _emit(_render_record(res.to_json_dict(), args), args.out)
        return 0
    if args.subverb == "corr":
        report = montecarlo.correlation_study(h, args.m, args.n, args.reps,
                                              args.seed, alpha=args.alpha)
    else:
        plan = SpacingsPlan(m=args.m, mode=args.mode, scaling=args.scaling)
        model = parse_path(args.path, args.n, args.m)
        if args.subverb == "power" and model is None:
            raise SpacingsGofError("simulate power needs an alternative --path")
        cfg = SimulationConfig(n=args.n, plan=plan, h=h, model=model,
                               reps=args.reps, master_seed=args.seed,
                               alpha=args.alpha)
        if model is None:
            report = montecarlo.null_distribution_study(cfg)
        else:
            report = montecarlo.power_study(cfg)
    _emit(_render_record(report.to_json_dict(), args), args.out)
    print(f"runtime: {report.runtime:.2f}s", file=sys.stderr)
    if args.raw_csv:
        center, scale = asymptotics.standardization(h, plan, args.n)
        crit = asymptotics.critical_point(h, plan, args.n, args.alpha)
        _write_raw_csv(args.raw_csv, report.raw, center, scale, crit)
    return 0


def _add_common(p, with_mode=True):
    p.add_argument("--h", required=True,
                   help="greenwood | moran | entropy | rao | pd:<d>")
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", action="store_true")
    p.add_argument("--out", default=None)
    if with_mode:
        p.add_argument("--mode", choices=("overlapping", "disjoint"),
                       default="overlapping")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="spacings-gof",
        description="Uniformity tests from overlapping/disjoint m-spacings: "
                    "run tests, print asymptotic moment/efficacy/ARE tables, "
                    "and drive Monte Carlo validation studies.")
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("test", help="test a sample file for uniformity")
    p.add_argument("file")
    _add_common(p)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--scaling", choices=("by_n", "normalized"), default="by_n")
    p.set_defaults(fn=cmd_test)

    p = sub.add_parser("moments", help="asymptotic moment table over m")
    _add_common(p, with_mode=False)
    p.add_argument("--m", required=True, help="e.g. 1,2,5 or 1..20")
    p.set_defaults(fn=cmd_moments)

    p = sub.add_parser("efficacy", help="efficacy table over m")
    _add_common(p)
    p.add_argument("--m", required=True, help="e.g. 1,2,5 or 1..20")
    p.set_defaults(fn=cmd_efficacy)

    p = sub.add_parser("are", help="Pitman asymptotic relative efficiency")
    p.add_argument("--h1", required=True)
    p.add_argument("--m1", type=int, required=True)
    p.add_argument("--mode1", choices=("overlapping", "disjoint"),
                   default="overlapping")
    p.add_argument("--h2", required=True)
    p.add_argument("--m2", type=int, required=True)
    p.add_argument("--mode2", choices=("overlapping", "disjoint"),
                   default="overlapping")
    p.add_argument("--c1", type=float, default=None,
                   help="growth regime m1 = c1 * n^p1")
    p.add_argument("--p1", type=float, default=None)
    p.add_argument("--c2", type=float, default=None)
    p.add_argument("--p2", type=float, default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_are)

    p = sub.add_parser("simulate", help="Monte Carlo studies")
    p.add_argument("subverb", choices=("null", "power", "corr", "match"))
    _add_common(p)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--reps", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scaling", choices=("by_n", "normalized"), default="by_n")
    p.add_argument("--path", default="null",
                   help="cos:<k>:<theta> | bump:<c>:<w>:<theta> | table:<file>")
    p.add_argument("--raw-csv", default=None,
                   help="stream per-replication statistics to CSV")
    p.add_argument("--h2", default=None, help="(match) second tuning function")
    p.add_argument("--m2", type=int, default=None)
    p.add_argument("--mode2", choices=("overlapping", "disjoint"),
                   default="disjoint")
    p.add_argument("--target-power", type=float, default=0.6)
    p.set_defaults(fn=cmd_simulate, flag_defaults={
        dest: p.get_default(dest)
        for reads in STUDY_READS.values() for dest in reads})
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except DegenerateSpacingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SpacingsGofError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
