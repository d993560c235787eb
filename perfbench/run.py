#!/usr/bin/env python3
"""ldectl benchmark: drives ``ldectl.cli.main`` in-process, one call after
another (a closed loop, one client, --jobs 1), on inputs made from --seed.

    python3 perfbench/run.py --workload train-desk --seed 0 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics untraced.  --trace 1 spends half
of --seconds untraced and half traced, prints the per-layer metrics, and
reports the difference between the halves as tracing overhead.
--workload all runs every workload in its own process and prints the
table of figures by name; --smoke does that at a tiny size and checks every
metric name and unit against BENCHMARK.json.  The last line of standard
output is the result as one JSON object.  See README.md for the metric ->
layer -> workload map.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import perlayer  # noqa: E402  (after the path constants on purpose)
import tracing  # noqa: E402
from workloads import (  # noqa: E402
    PATHS, SIZES, WORKLOADS, CheckFailed, digest, expected_rows, make_inputs, op_calls,
)

END_TO_END = (("setup_s", "s", "lower"), ("peak_rss_mb", "MB", "lower"),
              ("path_a_s", "s", "lower"), ("path_b_s", "s", "lower"))
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0)

# The host's speed swings by up to 2x within a second, and process CPU time
# swings with it.  So every timing is scaled by a fixed yardstick kernel
# timed just before and just after it: seconds * YARDSTICK_S / yardstick.
# The figures are seconds on a machine where the yardstick takes
# YARDSTICK_S; the raw wall seconds are kept in result.json.
YARDSTICK_S = 0.010


def yardstick() -> float:
    """Seconds one fixed kernel takes: small numpy ops in a Python loop,
    then a pure-Python enumeration, as ldectl's own code mixes them.  It
    touches nothing of ldectl, so no change to the program moves it."""
    t0 = perf_counter()
    x, s = np.linspace(-1.0, 1.0, 32), 0.0
    for i in range(3000):
        x = np.tanh(x * 0.9 + 0.01)
        s += float(x[i % 32])
    for combo in itertools.combinations(range(17), 6):
        for j in combo:
            s += j * 0.5
    return perf_counter() - t0


def bootstrap():
    """Import ldectl from this checkout's src/ and return cli.main."""
    if not (SRC / "ldectl" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'ldectl'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import ldectl
    import ldectl.cli

    if Path(ldectl.__file__).resolve().parent != (SRC / "ldectl").resolve():
        sys.exit(f"perfbench: imported ldectl from {ldectl.__file__}, not {SRC}")
    return ldectl.cli.main


def summarize(values) -> dict:
    """Median, the highest percentile with >= 10 samples beyond it, and n."""
    n = len(values)
    if n == 0:
        return {"median": 0.0, "tail_pct": None, "tail": None, "n": 0}
    level = next((p for p in TAIL_LEVELS if n * (100.0 - p) / 100.0 >= 10.0), None)
    return {"median": float(np.median(values)), "tail_pct": level,
            "tail": float(np.percentile(values, level)) if level else None, "n": n}


def environment(seed: int) -> dict:
    def blas():
        try:
            b = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{b['name']} {b['version']}"
        except (TypeError, KeyError):
            return None

    def blas_threads():
        import ctypes

        try:
            with open("/proc/self/maps") as fh:
                libs = {ln.split()[-1] for ln in fh if "blas" in ln.lower() and ".so" in ln}
        except OSError:
            return None
        for lib in sorted(libs):
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                try:
                    return int(getattr(ctypes.CDLL(lib), sym)())
                except (OSError, AttributeError):
                    continue
        return None

    def cpu_model():
        try:
            with open("/proc/cpuinfo") as fh:
                for ln in fh:
                    if ln.startswith("model name"):
                        return ln.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or None

    def git_commit():
        if not (ROOT / ".git").exists():
            return None  # an exported tree carries no commit
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.SubprocessError):
            return None
        return proc.stdout.strip() or None

    return {"git_commit": git_commit(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas(), "blas_threads": blas_threads(),
            "cpu": cpu_model(), "nproc": len(os.sched_getaffinity(0)), "seed": seed}


class SetupFailed(Exception):
    pass


def timed_setup(inputs: Path, seed: int, size_name: str, reps: int) -> list:
    """Make the inputs ``reps`` times, each in a fresh interpreter; returns
    (wall seconds, mean yardstick seconds around it) for each."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, str(HERE / "run.py"), "--make-inputs", str(inputs),
            "--seed", str(seed), "--size", size_name]
    times = []
    for _ in range(reps):
        shutil.rmtree(inputs, ignore_errors=True)
        y0 = yardstick()
        t0 = perf_counter()
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=170)
        dt = perf_counter() - t0
        times.append((dt, (y0 + yardstick()) / 2))
        if proc.returncode != 0:
            raise SetupFailed(proc.stderr.strip() or f"exit {proc.returncode}")
    return times


class Bench:
    """One benchmark run: the CLI entry point, the tally, reference digests."""

    def __init__(self, cli_main):
        self.cli_main = cli_main
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.digests = {}   # (op label, call index) -> digest of the first repetition
        self.counts = {}    # op label -> layer counts of the first traced repetition
        self.tracer = None  # set while a traced phase runs
        self._uninstall = None
        self.yardsticks = [yardstick()]

    def fail(self, msg):
        self.failed += 1
        self.errors.append(msg)

    def trace_on(self, tracer):
        self.tracer = tracer
        self._uninstall = tracing.install(tracer)

    def trace_off(self):
        if self._uninstall is not None:
            self._uninstall()
        self._uninstall = None

    def call(self, call):
        """Run one CLI call; returns (seconds, yardstick seconds around it,
        units of work) or None on failure."""
        self.attempted += 1
        tr = self.tracer if self._uninstall is not None else None
        sink_out, sink_err = io.StringIO(), io.StringIO()
        idx = None
        if tr:
            tr.begin_call()
            idx = tr.open(f"cli.{call.argv[0]}")
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
                code = self.cli_main(call.argv)
        except Exception:  # an escaped fault fails this call, not the whole run
            code = traceback.format_exc()
        dt = perf_counter() - t0
        if tr:
            tr.close(idx)
        self.yardsticks.append(yardstick())
        y = (self.yardsticks[-2] + self.yardsticks[-1]) / 2
        if code != 0:
            self.fail(f"ldectl {' '.join(call.argv)}: {code} {sink_err.getvalue().strip()}")
            return None
        if tr:
            self.trace_off()  # checks read outputs through ldectl; keep them out of the trace
        try:
            return dt, y, call.check(call.out)
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            self.fail(f"ldectl {' '.join(call.argv)}: output check failed: {exc}")
            return None
        finally:
            if tr:
                self.trace_on(tr)

    def op(self, label, calls, workload, size, samples):
        """One repetition of an op.  Appends to ``samples[key]`` the op's
        (wall, scaled) seconds per unit of work of the calls with that key;
        returns the op's scaled seconds (calls only)."""
        tr = self.tracer if self._uninstall is not None else None
        if tr:
            tr.begin_op()
        sums = {}  # key -> [wall seconds, scaled seconds, units of work]
        for i, call in enumerate(calls):
            res = self.call(call)
            if res is None:
                continue
            dt, y, unit = res
            acc = sums.setdefault(call.key, [0.0, 0.0, 0.0])
            acc[0] += dt
            acc[1] += dt * YARDSTICK_S / y
            acc[2] += unit
            dg = digest(call.out)
            ref = self.digests.setdefault((label, i), dg)
            if dg != ref:
                self.fail(f"{label} call {i} ({call.key}): digest {dg[:12]} != first {ref[:12]}")
        for key, (wall, scaled, units) in sums.items():
            samples.setdefault(key, []).append((wall / units, scaled / units))
        if tr:
            rows = tr.op_counts[-1]["benchfn.evaluate_batch.rows"]
            want = expected_rows(workload, size, {k: v[2] for k, v in sums.items()})
            if rows != want:
                self.fail(f"{label}: {rows} objective rows evaluated, outputs imply {want}")
            if self.counts.setdefault(label, tr.op_counts[-1]) != tr.op_counts[-1]:
                self.fail(f"{label}: layer counts differ between identical ops")
        return sum(v[1] for v in sums.values())

    def loop(self, label, calls, workload, size, seconds, tracer=None):
        """Repeat the op for about ``seconds``: at least once, and no new op
        once less than half a typical op's time is left.  Returns the
        per-key samples and each op's scaled seconds."""
        samples, walls, scaled = {}, [], []
        if tracer is not None:
            self.trace_on(tracer)
        try:
            deadline = perf_counter() + seconds
            while not walls or perf_counter() + 0.5 * summarize(walls)["median"] < deadline:
                t0 = perf_counter()
                scaled.append(self.op(label, calls, workload, size, samples))
                walls.append(perf_counter() - t0)
        finally:
            self.trace_off()
        return samples, scaled


def run_workload(args) -> int:
    cli_main = bootstrap()
    size, tiny = SIZES[args.size], SIZES["tiny"]
    run_dir = OUT / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = environment(args.seed)

    try:
        setup_times = timed_setup(run_dir / "inputs", args.seed, args.size, size.setup_reps)
        with contextlib.redirect_stdout(io.StringIO()):
            make_inputs(cli_main, run_dir / "warmup_inputs", args.seed, tiny)
    except (SetupFailed, RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 1

    bench = Bench(cli_main)
    # warm-up: every workload's op once at the tiny size, so lazy set-up is
    # done before timing and every path's outputs are checked
    warm = tracing.Tracer() if args.trace else None
    if warm is not None:
        bench.trace_on(warm)
    for w in WORKLOADS:
        calls = op_calls(w, run_dir / "warmup_inputs", run_dir / "warmup" / w, args.seed, tiny)
        bench.op(f"warmup/{w}", calls, w, tiny, {})
    bench.trace_off()

    calls = op_calls(args.workload, run_dir / "inputs", run_dir / "work", args.seed, size)
    if args.trace:
        _, plain_ops = bench.loop("op", calls, args.workload, size, args.seconds / 2)
        traced = tracing.Tracer()
        samples, op_scaled = bench.loop("op", calls, args.workload, size, args.seconds / 2, traced)
    else:
        samples, op_scaled = bench.loop("op", calls, args.workload, size, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    (a_key, a_name, a_unit), (b_key, b_name, b_unit) = PATHS[args.workload]
    rate = {"s": lambda v: v, "1/s": lambda v: 1.0 / v}
    a_scaled = [v for _, v in samples.get(a_key, [])]
    b_scaled = [v for _, v in samples.get(b_key, [])]
    setup_scaled = [t * YARDSTICK_S / y for t, y in setup_times]
    named = {
        "setup_s": (summarize(setup_scaled), "s"),
        a_name: (summarize([rate[a_unit](v) for v in a_scaled]), a_unit),
        b_name: (summarize([rate[b_unit](v) for v in b_scaled]), b_unit),
        "peak_rss_mb": ({"median": peak_rss_mb, "tail_pct": None, "tail": None, "n": 1}, "MB"),
    }
    e2e = {
        "setup_s": named["setup_s"][0],
        "peak_rss_mb": named["peak_rss_mb"][0],
        "path_a_s": summarize(a_scaled),
        "path_b_s": summarize(b_scaled),
    }
    wall = {  # the same figures unscaled, for the record
        "setup_s": summarize([t for t, _ in setup_times]),
        "path_a_s": summarize([w for w, _ in samples.get(a_key, [])]),
        "path_b_s": summarize([w for w, _ in samples.get(b_key, [])]),
        "yardstick_s": summarize(bench.yardsticks),
    }
    op_digest = digest_of(bench.digests, "op")
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "env": env,
        "attempted": bench.attempted, "failed": bench.failed,
        "ops_failed_frac": bench.failed / bench.attempted, "errors": bench.errors[:20],
        "ops": len(op_scaled), "op_digest": op_digest,
        "warmup_digest": digest_of(bench.digests, "warmup/"),
        "end_to_end": e2e, "named": {k: {**s, "unit": u} for k, (s, u) in named.items()},
        "yardstick_s": YARDSTICK_S, "wall": wall,
        "samples": samples, "op_scaled_s": op_scaled, "setup_times": setup_times,
    }

    print(f"# ldectl benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} size={args.size}")
    print("# env " + json.dumps(env))
    print(f"# ops={len(op_scaled)} calls attempted={bench.attempted} failed={bench.failed} "
          f"ops_failed_frac={bench.failed / bench.attempted:.4g}  output digest {op_digest}")
    for msg in bench.errors[:5]:
        print(f"# FAILED {msg}")
    print(f"# end-to-end figures by name, in seconds at a {YARDSTICK_S * 1e3:g} ms yardstick:")
    for name, (s, unit) in named.items():
        print(fmt_row(name, unit, s))
    print("# unscaled wall seconds:")
    for name, s in wall.items():
        print(fmt_row(name, "s", s))

    if args.trace:
        overhead = summarize(op_scaled)["median"] / summarize(plain_ops)["median"] - 1.0
        layer = perlayer.evaluate(
            perlayer.Source("loop", traced, traced.op_counts[0]),
            perlayer.Source("warm-up", warm, sum(warm.op_counts, Counter())),
            summarize)
        layer["trace.overhead_frac"] = (overhead, "ratio", "loop", None)
        for tr in (warm, traced):
            if tr.missing or tr.hook_errors:
                print(f"# tracer: not found {tr.missing}; hook errors {tr.hook_errors}")
        print("# per-layer (median per call unless the name says otherwise; "
              "source 'warm-up' = the loop never reached this layer):")
        for name, (value, unit, src, s) in layer.items():
            print(fmt_row(name, unit, s or {"median": value, "n": None}, src))
        metrics = {name: {"value": v, "unit": u} for name, (v, u, _, _) in layer.items()}
        result["tracer"] = {"missing": traced.missing, "hook_errors": traced.hook_errors}
        result["per_layer"] = {name: {"value": v, "unit": u, "source": src, "summary": s}
                               for name, (v, u, src, s) in layer.items()}
        warm.write_spans(run_dir / "spans.csv", "warmup")
        traced.write_spans(run_dir / "spans.csv", "loop", mode="a")
    else:
        print("# end-to-end metrics:")
        for name, unit, _ in END_TO_END:
            print(fmt_row(name, unit, e2e[name]))
        metrics = {name: {"value": e2e[name]["median"], "unit": unit}
                   for name, unit, _ in END_TO_END}

    (run_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


def digest_of(digests: dict, prefix: str) -> str:
    import hashlib

    h = hashlib.sha256()
    for key in sorted(k for k in digests if k[0].startswith(prefix)):
        h.update(f"{key}:{digests[key]}\n".encode())
    return h.hexdigest()


def fmt_row(name, unit, s, source=None) -> str:
    tail = f"p{s['tail_pct']:g}={s['tail']:.6g}" if s.get("tail_pct") else "p-tail=n/a"
    n = f"n={s['n']}" if s.get("n") is not None else ""
    src = f"[{source}]" if source else ""
    return f"  {name:44s} {s['median']:<14.6g} {unit:6s} {tail:22s} {n:8s} {src}"


def run_all(args) -> int:
    """Every workload in its own process; --smoke adds the format checks."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    ours = {0: {n: u for n, u, _ in END_TO_END},
            1: {n: u for n, u, _ in perlayer.SPECS}}
    problems = [f"BENCHMARK.json trace {t} metrics differ from the harness"
                for t in (0, 1) if want[t] != ours[t]]
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the harness")
    traces = (0, 1) if args.smoke else (args.trace,)
    named = {}
    for w in WORKLOADS:
        digests = set()
        for t in traces:
            argv = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed",
                    str(args.seed), "--seconds", str(args.seconds), "--trace", str(t),
                    "--size", args.size]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{w} trace {t}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            res = json.loads(lines[-1])
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{w} trace {t}: result keys {sorted(res)}")
            got = {n: m["unit"] for n, m in res["metrics"].items()}
            if got != want[t]:
                problems.append(f"{w} trace {t}: metric names/units differ from BENCHMARK.json")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{w} trace {t}: {res['failed']}/{res['attempted']} calls failed")
            if t == 0 and not all(m["value"] > 0 for m in res["metrics"].values()):
                problems.append(f"{w}: an end-to-end metric reads 0")
            detail = json.loads((OUT / f"{w}-s{args.seed}-t{t}" / "result.json").read_text())
            digests.add(detail["op_digest"])
            if t == traces[0]:
                named[w] = detail
        if len(digests) > 1:
            problems.append(f"{w}: output digest differs between traced and untraced runs")

    print(f"# end-to-end figures by name, seed {args.seed}, size {args.size}")
    for w, detail in named.items():
        print(f"{w}:")
        for name, s in detail["named"].items():
            print(fmt_row(name, s["unit"], s))
        print(fmt_row("ops_failed_frac", "ratio", {"median": detail["ops_failed_frac"],
                                                   "n": detail["attempted"]}))
        print(f"  output digest {detail['op_digest']}")
    for p in problems:
        print(f"PROBLEM: {p}")
    if args.smoke:
        print("smoke: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="desk")
    ap.add_argument("--smoke", action="store_true",
                    help="every workload at the tiny size, both trace modes, format checks")
    ap.add_argument("--make-inputs", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.make_inputs:
        cli_main = bootstrap()
        make_inputs(cli_main, Path(args.make_inputs), args.seed, SIZES[args.size])
        return 0
    if args.smoke:
        args.size, args.seconds = "tiny", min(args.seconds, 1.0)
        return run_all(args)
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
