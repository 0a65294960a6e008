"""Where the traced run hooks into the package, and the per-layer metrics it
derives from the spans.

Layers are the package's modules.  Each function is wrapped in the
namespace its caller looks it up in: ``montecarlo.statistic`` is the name the
replication loop calls, ``cli.statistic`` the one ``test`` and ``--raw-csv``
call, ``asymptotics.gamma_joint_expectation`` the one the lag sum calls.
"""

from __future__ import annotations

import dataclasses
import statistics

import numpy as np

STUDIES = ("montecarlo.null_distribution_study", "montecarlo.power_study",
           "montecarlo.correlation_study", "montecarlo.empirical_moment_check",
           "montecarlo.sample_size_match")


def _n_of_sample(args, result):
    return int(args[0].n)


def _size_of(i):
    return lambda args, result: int(np.size(args[i]))


def instrument(tracer, lib, tunings=()):
    """Install every wrapper; returns reset(), to be called whenever the
    library's caches are emptied, so that a rule whose key is new again
    counts as a build again."""
    mc, alt, asy, sm, cli = (lib.montecarlo, lib.alternatives, lib.asymptotics,
                             lib.special_math, lib.cli)
    from spacings_gof.errors import DegenerateSpacingError

    def wrap_tuning(h):
        tracer.wrap_field(h, "eval_fn", "tuning.eval", size=_size_of(0))
        if h.inner_mean is not None:
            tracer.wrap_field(h, "inner_mean", "tuning.inner_mean", size=_size_of(1))
        return h

    def wrap_model(model):
        integral = model.path_integral

        def counted(x):
            tracer.add("alternatives.path_integral_calls")
            return integral(x)

        return dataclasses.replace(model, path_integral=counted)

    for h in tunings:
        wrap_tuning(h)

    sample_name = (lambda args: "alternatives.sample_null" if args[0] is None
                   else "alternatives.sample_alt")
    for owner in (mc, alt):  # montecarlo's loops; cli's --raw-csv imports from alternatives
        tracer.wrap(owner, "sample_values", sample_name,
                    size=lambda args, result: int(args[1]))
    tracer.wrap(mc, "substream", "montecarlo.substream")
    tracer.wrap(mc, "builtin", "tuning.builtin", after=wrap_tuning)
    for name in STUDIES:
        tracer.wrap(mc, name.split(".")[1], name)

    statistic = getattr(mc, "statistic", None)
    if statistic is not None:
        def mc_statistic(*args, **kwargs):
            try:
                return tracer.call("spacings.statistic", statistic, args, kwargs,
                                   _n_of_sample)
            except DegenerateSpacingError:
                tracer.add("montecarlo.degenerate_reps")
                raise

        tracer.patch(mc, "statistic", mc_statistic)

    tracer.wrap(alt, "inverse_cdf", "alternatives.inverse_cdf", size=_size_of(1))
    tracer.wrap(alt, "make_alternative", "alternatives.make_alternative", after=wrap_model)

    tracer.wrap(cli, "statistic", "spacings.statistic", size=_n_of_sample)
    tracer.wrap(cli, "read_sample_file", "spacings.read_sample_file",
                size=lambda args, result: int(result.n) - 1)
    tracer.wrap(cli, "from_name", "tuning.from_name", after=wrap_tuning)

    tracer.wrap(asy, "moments", "asymptotics.moments")
    tracer.wrap(asy, "efficacy", "asymptotics.efficacy")
    tracer.wrap(asy, "gamma_expectation", "special_math.gamma_expectation")
    tracer.wrap(asy, "gamma_joint_expectation", "special_math.gamma_joint_expectation")

    seen = set()
    discretization = getattr(sm, "gamma_discretization", None)
    if discretization is not None:
        def rule(*args, **kwargs):
            variant = args[2] if len(args) > 2 else kwargs.get("variant", ("plain",))
            key = (args[0], args[1]) + tuple(variant)
            new = key not in seen
            seen.add(key)
            name = "special_math.rule_build" if new else "special_math.rule_lookup"
            return tracer.call(name, discretization, args, kwargs)

        tracer.patch(sm, "gamma_discretization", rule)
    return seen.clear


def count_signature(summary) -> dict:
    """Everything in a traced pass that must repeat exactly."""
    return {"calls": dict(summary.calls), "sizes": dict(summary.size),
            "counts": dict(summary.counts),
            "errors": {f"{k[0]}:{k[1]}": v for k, v in summary.errors.items()}}


def layer_metrics(summaries, match_reps: int) -> dict:
    """Per-layer metrics of one pass.  Times are the mean over the traced
    passes; counts come from the first (the self-check makes them equal)."""
    first = summaries[0]

    def mean(f):
        return statistics.fmean(f(s) for s in summaries)

    def per(num, den):
        return num / den if den else 0.0

    calls, size, counts = first.calls, first.size, first.counts
    return {
        "montecarlo.substream_ns_per_rep": (mean(lambda s: s.ns_per("montecarlo.substream")), "ns"),
        "alternatives.sample_null_ns_per_elem": (mean(lambda s: s.ns_per("alternatives.sample_null")), "ns"),
        "alternatives.sample_alt_ns_per_elem": (mean(lambda s: s.ns_per("alternatives.sample_alt")), "ns"),
        "alternatives.inverse_cdf_ns_per_elem": (mean(lambda s: s.ns_per("alternatives.inverse_cdf")), "ns"),
        "spacings.statistic_ns_per_elem": (mean(lambda s: s.ns_per("spacings.statistic")), "ns"),
        "spacings.read_sample_file_ns_per_obs": (mean(lambda s: s.ns_per("spacings.read_sample_file")), "ns"),
        "tuning.eval_ns_per_point": (mean(lambda s: s.ns_per("tuning.eval")), "ns"),
        "tuning.eval_points": (size["tuning.eval"], "count"),
        "montecarlo.study_self_s": (mean(lambda s: sum(s.self_time[n] for n in STUDIES)), "s"),
        "montecarlo.degenerate_reps": (counts.get("montecarlo.degenerate_reps", 0), "count"),
        "montecarlo.match_sims": (per(calls["alternatives.sample_alt"],
                                      match_reps * calls["montecarlo.sample_size_match"]), "count"),
        "cli.self_s": (mean(lambda s: s.self_time["cli.main"]), "s"),
        "alternatives.newton_iters": (per(counts.get("alternatives.path_integral_calls", 0),
                                          calls["alternatives.inverse_cdf"]), "count"),
        "alternatives.make_alternative_s": (mean(lambda s: per(s.total["alternatives.make_alternative"],
                                                               s.calls["alternatives.make_alternative"])), "s"),
        "special_math.rule_builds": (calls["special_math.rule_build"], "count"),
        "special_math.rule_build_s": (mean(lambda s: s.total["special_math.rule_build"]), "s"),
        "special_math.joint_calls": (calls["special_math.gamma_joint_expectation"], "count"),
        "special_math.joint_self_s": (mean(lambda s: s.self_time["special_math.gamma_joint_expectation"]), "s"),
        "special_math.expectation_calls": (calls["special_math.gamma_expectation"], "count"),
        "asymptotics.moments_self_s": (mean(lambda s: s.self_time["asymptotics.moments"]), "s"),
        "asymptotics.efficacy_self_s": (mean(lambda s: s.self_time["asymptotics.efficacy"]), "s"),
    }
