"""Per-layer metrics derived from a traced run.

Each metric names the span (or span prefix) it comes from.  Its value is
taken from the measured loop when the loop reached that span, and from
the warm-up pass otherwise: the result format needs every metric on every
workload, but a metric is meant to be read on the workload that the map
in README.md names for it.

Timing metrics are the median per call (or per epoch, generation or op
where the name says so); counts are per op and repeat exactly, except
``stats.ranksum_test.calls``, which is per exact-path compare call.
"""

from __future__ import annotations

from collections import Counter

from tracing import Tracer

NS = {"us": 1e3, "ms": 1e6, "s": 1e9}


class Source:
    """Spans and counts of one phase of a traced run."""

    def __init__(self, label: str, tracer: Tracer, counts: Counter):
        self.label = label
        self.spans = tracer.by_name()
        self.counts = counts                     # per op
        self.total = sum(tracer.op_counts, Counter())
        self.n_ops = max(len(tracer.op_counts), 1)
        self.macs = tracer.macs

    def has(self, prefix: str) -> bool:
        return any(name.startswith(prefix) for name in self.spans)

    def durs(self, name):
        return self.spans.get(name, ([], []))[0]

    def selfs(self, name):
        return self.spans.get(name, ([], []))[1]


def _ratio(num, den):
    return num / den if den else 0.0


def _epochs(src):
    return len(src.durs("trainer.epoch_gradient"))


def _per_epoch(name):
    return lambda src: _ratio(sum(src.durs(name)), _epochs(src)) / NS["s"]


def _self_per_gen(name, kind):
    return lambda src: _ratio(sum(src.selfs(name)),
                              src.total[f"runner.generations.{kind}"]) / NS["us"]


class Metric:
    """``samples`` gives per-call samples (reported as their median);
    ``value`` gives the figure directly."""

    def __init__(self, name, unit, better, span, samples=None, value=None):
        self.name, self.unit, self.better, self.span = name, unit, better, span
        self.samples, self.value = samples, value


def _med(name, unit, span=None, self_time=False):
    span = span or name.rsplit(".", 1)[0]
    pick = Source.selfs if self_time else Source.durs
    return Metric(name, unit, "lower", span,
                  samples=lambda src: [d / NS[unit] for d in pick(src, span)])


FAMILIES = ("sphere", "rastrigin", "ellipsoid", "ackley", "schwefel12", "griewank",
            "rosenbrock", "weierstrass_lite")

METRICS = [
    # controller step: train_epoch_s (train-desk) and run_lde (run-desk)
    _med("neural.forward_step.us", "us"),
    Metric("neural.forward_step.macs", "count", "lower", "neural.forward_step",
           value=lambda src: float(src.macs or 0)),
    _med("state_feat.assemble_state.us", "us"),
    _med("policy.sample_action.us", "us"),
    # training only: train_epoch_s
    _med("neural.backward_through_time.ms", "ms"),
    _med("policy.logprob_grad_mu.us", "us"),
    _med("neural.sgd_ascent.us", "us"),
    Metric("trainer.rollout_s", "s", "lower", "trainer.sample_trajectory",
           value=_per_epoch("trainer.sample_trajectory")),
    Metric("trainer.epoch_gradient_s", "s", "lower", "trainer.epoch_gradient",
           value=_per_epoch("trainer.epoch_gradient")),
    Metric("trainer.bptt_share", "ratio", "lower", "trainer.train",
           value=lambda src: _ratio(sum(src.durs("neural.backward_through_time")),
                                    sum(src.durs("trainer.train")))),
    Metric("trainer.self_s", "s", "lower", "trainer.train",
           value=lambda src: _ratio(sum(src.selfs("trainer.train")), _epochs(src)) / NS["s"]),
    # DE operators: every train/run figure, baselines most
    _med("de_core.evolve.us", "us"),
    _med("de_core.mutate_current_to_pbest.us", "us"),
    _med("de_core.binomial_crossover_batch.us", "us"),
    _med("de_core.repair_bounds.us", "us"),
    _med("de_core.select.us", "us"),
    _med("de_core.init_population.us", "us"),
    Metric("de_core.select.accept_ratio", "ratio", "higher", "de_core.select",
           value=lambda src: _ratio(src.counts["de_core.select.accepted"],
                                    src.counts["de_core.select.rows"])),
    # objective evaluation, per family
    *[_med(f"benchfn.evaluate_batch.{fam}.us", "us") for fam in FAMILIES],
    Metric("benchfn.evaluate_batch.rows", "count", "lower", "benchfn.evaluate_batch.",
           value=lambda src: float(src.counts["benchfn.evaluate_batch.rows"])),
    # run harness: run-desk
    Metric("runner.run_lde.self_us_per_gen", "us", "lower", "runner.run_lde",
           value=_self_per_gen("runner.run_lde", "lde")),
    Metric("runner.run_baseline.self_us_per_gen", "us", "lower", "runner.run_baseline",
           value=_self_per_gen("runner.run_baseline", "baseline")),
    Metric("runner.generations", "count", "lower", "runner.run_",
           value=lambda src: float(src.counts["runner.generations.lde"]
                                   + src.counts["runner.generations.baseline"])),
    Metric("runner.batch_experiment.self_s", "s", "lower", "runner.batch_experiment",
           value=lambda src: _ratio(sum(src.selfs("runner.batch_experiment")),
                                    len(src.selfs("runner.batch_experiment"))) / NS["s"]),
    # statistics: compare
    _med("stats.ranksum_test.exact.ms", "ms"),
    _med("stats.ranksum_test.normal.us", "us"),
    Metric("stats.ranksum_test.calls", "count", "lower", "stats.ranksum_test.exact",
           value=lambda src: _ratio(src.counts["stats.ranksum_test.exact.calls"],
                                    src.counts["stats.exact_compare_calls"])),
    Metric("stats.ranksum_test.redundant_frac", "ratio", "lower", "stats.ranksum_test.",
           value=lambda src: _ratio(src.total["stats.ranksum_test.redundant"],
                                    src.total["stats.ranksum_test.exact.calls"]
                                    + src.total["stats.ranksum_test.normal.calls"])),
    Metric("stats.aps_rank.s", "s", "lower", "stats.aps_rank",
           value=lambda src: sum(src.durs("stats.aps_rank")) / src.n_ops / NS["s"]),
    _med("stats.render_report.ms", "ms"),
    # streams, set-up and I/O
    _med("rng.stream.us", "us"),
    Metric("rng.stream.calls", "count", "lower", "rng.stream",
           value=lambda src: float(src.counts["rng.stream.calls"])),
    _med("benchfn.make_suite.ms", "ms"),
    _med("neural.load_weights.ms", "ms"),
    *[_med(f"cli.{cmd}.self_ms", "ms", span=f"cli.{cmd}", self_time=True)
      for cmd in ("suite", "train", "run", "compare")],
]

OVERHEAD = Metric("trace.overhead_frac", "ratio", "lower", None)

SPECS = [(m.name, m.unit, m.better) for m in METRICS + [OVERHEAD]]


def evaluate(loop: Source, warmup: Source, summarize):
    """name -> (value, unit, source label, timing summary or None)."""
    out = {}
    for m in METRICS:
        src = loop if loop.has(m.span) else warmup
        if m.samples is not None:
            summary = summarize(m.samples(src))
            out[m.name] = (summary["median"], m.unit, src.label, summary)
        else:
            out[m.name] = (m.value(src), m.unit, src.label, None)
    return out
