"""Outside-in tracing of ldectl's layers.

The benchmark never edits the package.  ``install`` replaces each traced
public function with a wrapper that records a span, and rebinds that name
in every ``ldectl`` module holding the original: ``trainer`` and
``runner`` import ``evolve``, ``forward_step``, ``stream`` and the rest by
name, so patching the defining module alone would miss their calls.
``FunctionInstance.evaluate_batch`` is wrapped on the class and named per
function family.  The returned callable puts every original back.

Spans (name, start, end, parent) stay in memory; ``write_spans`` saves them
when the run ends.  A span's self time is its duration minus the
durations of its direct children.  Counters collected at the same
boundaries are kept per op, so a count repeats exactly when the op does.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

_now = time.perf_counter_ns

# (module, function) pairs wrapped by install(); span name = "<module>.<function>"
TRACED = (
    ("benchfn", "make_suite"),
    ("de_core", "init_population"),
    ("de_core", "evolve"),
    ("de_core", "mutate_current_to_pbest"),
    ("de_core", "binomial_crossover_batch"),
    ("de_core", "repair_bounds"),
    ("de_core", "select"),
    ("state_feat", "assemble_state"),
    ("neural", "forward_step"),
    ("neural", "backward_through_time"),
    ("neural", "sgd_ascent"),
    ("neural", "load_weights"),
    ("policy", "sample_action"),
    ("policy", "logprob_grad_mu"),
    ("trainer", "train"),
    ("trainer", "sample_trajectory"),
    ("trainer", "epoch_gradient"),
    ("runner", "batch_experiment"),
    ("runner", "run_lde"),
    ("runner", "run_baseline"),
    ("stats", "build_comparison"),
    ("stats", "ranksum_test"),
    ("stats", "aps_rank"),
    ("stats", "render_report"),
    ("rng", "stream"),
)


class Tracer:
    """In-memory span store plus per-op counters."""

    def __init__(self):
        self.names = []
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.op_counts = []      # one Counter per op
        self.macs = None         # multiply-adds of one controller step
        self.missing = []        # traced names the package no longer has
        self.hook_errors = {}    # span name -> first error raised by its counter hook
        self.seen_pairs = set()  # rank-sum sample pairs tested in the current CLI call
        self.call_ran_exact = False

    def open(self, name) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(_now())
        return idx

    def close(self, idx) -> None:
        self.end[idx] = _now()
        self._stack.pop()

    def begin_call(self) -> None:
        """Mark the start of a CLI call."""
        self.seen_pairs.clear()
        self.call_ran_exact = False

    def begin_op(self) -> None:
        self.op_counts.append(Counter())

    def count(self, key, n=1) -> None:
        self.op_counts[-1][key] += n

    def self_times(self):
        """Per-span self time in ns: duration minus direct children."""
        child = [0] * len(self.names)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - child[i] for i in range(len(self.names))]

    def by_name(self):
        """name -> (durations, self times), both in ns, in call order."""
        selfs = self.self_times()
        out = {}
        for i, name in enumerate(self.names):
            durs, slf = out.setdefault(name, ([], []))
            durs.append(self.end[i] - self.start[i])
            slf.append(selfs[i])
        return out

    def write_spans(self, path, phase: str, mode: str = "w") -> None:
        with open(path, mode) as fh:
            if mode == "w":
                fh.write("phase,index,name,start_ns,end_ns,parent\n")
            for i, name in enumerate(self.names):
                fh.write(f"{phase},{i},{name},{self.start[i]},{self.end[i]},{self.parent[i]}\n")


def _timed(tr: Tracer, name, fn, after=None):
    def wrapper(*args, **kwargs):
        idx = tr.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tr.close(idx)
        if after is not None:
            # a hook that no longer fits the package must not fail its call
            try:
                after(idx, out, args)
            except Exception as exc:
                tr.hook_errors.setdefault(name, repr(exc))
        return out

    wrapper.__wrapped__ = fn
    wrapper.__name__ = fn.__name__
    return wrapper


def _hooks(tr: Tracer, modules):
    """Counters taken at the layer boundaries, keyed by span name."""
    neural = modules["neural"]

    def select(idx, out, args):
        pop, _, trial_fitness = args
        tr.count("de_core.select.accepted", int((trial_fitness <= pop.fitness).sum()))
        tr.count("de_core.select.rows", pop.size)

    def generations(kind):
        def after(idx, res, args):
            n = args[3].pop_size  # run_lde / run_baseline(..., term, cfg, rng)
            tr.count(f"runner.generations.{kind}", (res.evals_used - n) // n)
        return after

    def ranksum(idx, res, args):
        tr.names[idx] = f"stats.ranksum_test.{res.method}"
        tr.count(f"stats.ranksum_test.{res.method}.calls")
        if res.method == "exact" and not tr.call_ran_exact:
            tr.call_ran_exact = True
            tr.count("stats.exact_compare_calls")
        # one sample list per (function, algorithm) lives through a compare
        # call, so the ids name the unordered algorithm pair being tested
        key = frozenset((id(args[0]), id(args[1])))
        if key in tr.seen_pairs:
            tr.count("stats.ranksum_test.redundant")
        tr.seen_pairs.add(key)

    def stream(idx, out, args):
        tr.count("rng.stream.calls")

    def forward_step(fn):
        base = _timed(tr, "neural.forward_step", fn)

        def wrapper(*args, **kwargs):
            if tr.macs is not None or not hasattr(neural, "count_macs"):
                return base(*args, **kwargs)
            with neural.count_macs() as counter:
                out = base(*args, **kwargs)
            tr.macs = counter.total
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    return {
        "de_core.select": select,
        "runner.run_lde": generations("lde"),
        "runner.run_baseline": generations("baseline"),
        "stats.ranksum_test": ranksum,
        "rng.stream": stream,
    }, {"neural.forward_step": forward_step}


def install(tr: Tracer):
    """Wrap every traced function; returns a callable that undoes it.

    A traced name the package no longer has is skipped and listed in
    ``tr.missing``; its metrics then read 0.
    """
    modules = {short: sys.modules.get(f"ldectl.{short}") for short, _ in TRACED}
    package = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "ldectl" or name.startswith("ldectl."))]
    after, custom = _hooks(tr, modules)
    undo = []
    for short, fname in TRACED:
        name = f"{short}.{fname}"
        orig = getattr(modules[short], fname, None)
        if orig is None:
            tr.missing.append(name)
            continue
        if name in custom:
            wrapper = custom[name](orig)
        else:
            wrapper = _timed(tr, name, orig, after.get(name))
        for mod in package:
            if mod.__dict__.get(fname) is orig:
                setattr(mod, fname, wrapper)
                undo.append((mod, fname, orig))

    cls = sys.modules["ldectl.benchfn"].FunctionInstance
    orig_eval = cls.evaluate_batch
    names = {}

    def evaluate_batch(self, X):
        name = names.get(self.base) or names.setdefault(
            self.base, f"benchfn.evaluate_batch.{self.base}")
        idx = tr.open(name)
        try:
            out = orig_eval(self, X)
        finally:
            tr.close(idx)
        tr.count("benchfn.evaluate_batch.rows", len(out))
        return out

    cls.evaluate_batch = evaluate_batch
    undo.append((cls, "evaluate_batch", orig_eval))

    def uninstall():
        for owner, fname, orig in reversed(undo):
            setattr(owner, fname, orig)

    return uninstall
