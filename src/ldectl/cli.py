"""Command-line front end.

Subcommands: suite, train, run, compare, gradcheck.  Every option can
also be set in a plain-text config file of ``key = value`` lines passed
via --config; an explicit flag beats the file, the file beats the
built-in default.  Exit codes: 0 success, 1 usage, 2 numeric failure,
3 I/O failure, 4 worker failure (a --jobs worker process died).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import inspect
import math
import os
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np

from . import benchfn, neural, runner, stats, trainer
from .errors import ConsistencyError, NumericFailure


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in _BOOL_TRUE:
        return True
    if t in _BOOL_FALSE:
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _config_keys(commands: dict) -> dict:
    """Config key -> the flag that reads it.  Config files share one
    namespace, so the keys are the flags of every command but --config
    (argparse keeps a parser's flags in ``_actions`` only)."""
    return {a.dest: a for p in commands.values() for a in p._actions
            if a.dest not in ("help", "config")}


def _read_config(path: str, keys: dict) -> dict:
    """The values of a key = value file, each read as its flag reads it."""
    out = {}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise UsageError(f"{path}:{lineno}: expected key = value")
        key, _, val = body.partition("=")
        key, val = key.strip(), val.strip()
        if key not in keys:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        action = keys[key]
        try:
            out[key] = _parse_bool(val) if action.nargs == 0 else (action.type or str)(val)
        except ValueError as exc:  # _parse_bool's message says why; int()'s is noise
            why = exc if action.nargs == 0 else repr(val)
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {why}")
        if action.choices is not None and out[key] not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            err = argparse.ArgumentError(action, f"invalid choice: {val!r} (choose from {choices})")
            raise UsageError(f"{path}:{lineno}: {err}")
    return out


def _resolve(args: argparse.Namespace) -> dict:
    """flag > config file > default, for the keys the command recorded in
    build_parser; main has already put the config file's values into the
    unset flags."""
    defaults = build_parser().commands[args.command].option_defaults
    return {key: dflt if getattr(args, key) is None else getattr(args, key)
            for key, dflt in defaults.items()}


def _command(sub, name: str, handler, help: str, **defaults) -> _Parser:
    """A command's parser, recording its handler and the default of each option
    the handler reads; --seed, --jobs and --out are added only where it has one."""
    p = sub.add_parser(name, help=help)
    p.handler = handler
    p.option_defaults = defaults
    p.add_argument("--config", help="key = value option file")
    # a tuple, not a set: the help lists these flags in this order in every process
    for key, kwargs in (("seed", {"type": int, "help": "master seed"}),
                        ("jobs", {"type": int, "help": "worker processes"}),
                        ("out", {"help": "output directory"})):
        if key in defaults:
            p.add_argument("--" + key, **kwargs)
    return p


def _add_flags(p: _Parser, params) -> None:
    """Add a flag for each dataclass field or signature parameter that p
    has no flag for yet.  pop_size becomes --pop-size, typed by its
    default; a bool becomes a switch.  Each is recorded with default None,
    leaving an unset value to the config file, then to the dataclass or
    function default."""
    taken = {a.dest for a in p._actions}
    for prm in params:
        if prm.name in taken:
            continue
        p.option_defaults[prm.name] = None
        flag = "--" + prm.name.replace("_", "-")
        help = getattr(prm, "metadata", {}).get("help")
        if isinstance(prm.default, bool):
            p.add_argument(flag, action="store_true", default=None, help=help)
        else:
            p.add_argument(flag, type=type(prm.default), help=help)


@functools.cache
def build_parser() -> _Parser:
    """The CLI parser, built once per process: argparse keeps no state
    between parse_args calls, and main never changes the parser."""
    top = _Parser(prog="ldectl", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", metavar="command")
    top.commands = sub.choices

    p = _command(sub, "suite", cmd_suite, "generate benchmark instances",
                 seed=0, out="suite", dim=10, train=6, test=8)
    p.add_argument("--dim", type=int)
    p.add_argument("--train", type=int, help="training instance count")
    p.add_argument("--test", type=int, help="held-out instance count")

    # seed None: a resumed run adopts the weight file's seed
    p = _command(sub, "train", cmd_train, "train the controller", seed=None, jobs=1,
                 out="trained", suite="suite", checkpoint_every=10, resume=None, timings=False)
    p.add_argument("--suite", help="directory of instance files")
    _add_flags(p, dataclasses.fields(trainer.TrainConfig))
    p.add_argument("--checkpoint-every", type=int)
    p.add_argument("--resume", help="checkpoint weight file to continue from")
    p.add_argument("--timings", action="store_true", default=None,
                   help="add wallclock_ms to the log (not reproducible)")

    p = _command(sub, "run", cmd_run, "run optimizers against instances",
                 seed=0, jobs=1, out="runs", weights=None, instances="suite", role="test",
                 algorithms=",".join((runner.LEARNED,) + runner.BASELINES),
                 runs=11, budget=None, tol=runner.Termination.error_tol)
    p.add_argument("--weights", help="trained controller file")
    p.add_argument("--instances", help="directory of instance files")
    p.add_argument("--role", choices=("train", "test", "all"))
    p.add_argument("--algorithms", help="comma-separated list")
    p.add_argument("--runs", type=int)
    p.add_argument("--budget", type=int, help="evaluations per run (default dim * 10^4)")
    p.add_argument("--tol", type=float)
    _add_flags(p, dataclasses.fields(runner.RunConfig))

    p = _command(sub, "compare", cmd_compare, "rank-sum comparison of run results",
                 out=None, results="runs/results.csv", alpha_sig=0.05, ref=None)
    p.add_argument("--results", help="results.csv from the run command")
    p.add_argument("--alpha-sig", type=float)
    p.add_argument("--ref", help="reference algorithm for the text report")

    # every value None: run_gradcheck has the defaults
    p = _command(sub, "gradcheck", cmd_gradcheck,
                 "finite-difference check of the BPTT gradients", seed=None)
    _add_flags(p, inspect.signature(neural.run_gradcheck).parameters.values())

    return top


def cmd_suite(args) -> int:
    opt = _resolve(args)
    if opt["dim"] < 1 or opt["train"] < 1 or opt["test"] < 0:
        raise UsageError("dim and train count must be positive, test count non-negative")
    suite = benchfn.make_suite(opt["seed"], opt["dim"], opt["train"], opt["test"])
    out = Path(opt["out"])
    # train and run load every instance file there, so another suite's would mix in
    ours = {f"{inst.id}.fn" for inst in suite.train + suite.test}
    other = sorted(n for n in (os.listdir(out) if out.is_dir() else ())
                   if n.startswith(("train-", "test-")) and n.endswith(".fn") and n not in ours)
    if other:
        raise UsageError(f"{out / other[0]} is not an instance of this suite; "
                         "give an --out without another suite's instance files")
    out.mkdir(parents=True, exist_ok=True)
    for role, insts in (("train", suite.train), ("test", suite.test)):
        for inst in insts:
            benchfn.save_instance(inst, out / f"{inst.id}.fn")
            print(f"{inst.id} {role}")
    return 0


def _load_instances(directory: str, role: str):
    d = Path(directory)
    if not d.is_dir():
        raise FileNotFoundError(f"instance directory not found: {directory}")
    prefixes = ("train-", "test-") if role == "all" else (role + "-",)
    paths = sorted(p for p in d.glob("*.fn") if p.name.startswith(prefixes))
    if not paths:
        raise UsageError(f"no {role} instances in {directory}")
    functions = []
    for p in paths:
        try:
            functions.append(benchfn.load_instance(p))
        except ValueError as exc:  # UnicodeDecodeError too: the file, then why
            raise UsageError(f"{p}: {exc}") from None
    first = {}
    for p, f in zip(paths, functions):
        other = first.setdefault(f.id, p)
        if other != p:
            raise UsageError(f"{other} and {p} both hold instance {f.id}")
    return functions


def _settings(cls, opt: dict):
    """Build a config dataclass from the resolved options; a key left unset
    (None) keeps the dataclass default."""
    given = {f.name: opt[f.name] for f in dataclasses.fields(cls)
             if opt.get(f.name) is not None}
    return cls(**given)


def _adopt(opt: dict, recorded: dict) -> None:
    """Take each setting a weight file records where the flags and config
    file left it unset; refuse one given with a different value."""
    for key, value in recorded.items():
        if opt[key] is None:
            opt[key] = value
        elif opt[key] != value:
            raise UsageError(
                f"weights were trained with {key}={value}; requested {key}={opt[key]}")


def cmd_train(args) -> int:
    opt = _resolve(args)
    functions = _load_instances(opt["suite"], "train")
    opt.update(functions=len(functions), dim=functions[0].dim)

    weights = None
    start_epoch = 0
    if opt["resume"]:
        weights, manifest = neural.load_weights(opt["resume"])
        trained = manifest.get("training_metadata", {})
        start_epoch = trained.get("epochs_done", 0)
        _adopt(opt, {
            **manifest["spec"], "hidden": manifest["H"], "seed": manifest["seed"],
            **{k: trained[k] for k in ("functions", "dim", "horizon", "rollouts", "alpha")
               if k in trained},
        })
    cfg = _settings(trainer.TrainConfig, opt)
    trainer.check_inputs(functions, cfg, opt["jobs"], start_epoch)
    if opt["checkpoint_every"] < 0:
        raise UsageError(
            f"checkpoint_every must be >= 0 (0 for none), got {opt['checkpoint_every']}")

    out = Path(opt["out"])
    out.mkdir(parents=True, exist_ok=True)
    meta = {
        "epochs_done": cfg.epochs, "functions": opt["functions"], "dim": opt["dim"],
        "horizon": cfg.horizon, "rollouts": cfg.rollouts, "alpha": cfg.alpha,
    }

    def save(w, name, epochs_done):
        neural.save_weights(w, out / name, seed=cfg.seed, spec=cfg,
                            training_metadata={**meta, "epochs_done": epochs_done})

    cols = [c for c in trainer.LOG_COLUMNS if opt["timings"] or c != "wallclock_ms"]
    log_fh = open(out / "train_log.csv", "w", newline="")
    log = csv.DictWriter(log_fh, cols, extrasaction="ignore", lineterminator="\n")
    log.writeheader()

    def on_epoch(epoch, w, rows):
        log.writerows(rows)
        log_fh.flush()
        if opt["checkpoint_every"] > 0 and (epoch + 1) % opt["checkpoint_every"] == 0 \
                and epoch + 1 < cfg.epochs:
            save(w, f"checkpoint_{epoch + 1:04d}.bin", epoch + 1)

    try:
        w = trainer.train(functions, cfg, jobs=opt["jobs"], weights=weights,
                          start_epoch=start_epoch, on_epoch=on_epoch)
    except NumericFailure as exc:
        if exc.last_good is not None:
            save(exc.last_good["weights"], "weights_lastgood.bin", exc.last_good["epochs_done"])
        raise
    finally:
        log_fh.close()
    save(w, "weights.bin", cfg.epochs)
    print(f"trained {cfg.epochs} epochs on {len(functions)} functions -> {out / 'weights.bin'}")
    return 0


def cmd_run(args) -> int:
    opt = _resolve(args)
    algorithms = [a.strip() for a in opt["algorithms"].split(",") if a.strip()]
    if not algorithms:
        raise UsageError("empty algorithm list")
    functions = _load_instances(opt["instances"], opt["role"])

    weights = None
    if runner.LEARNED in algorithms:
        if not opt["weights"]:
            raise UsageError("the learned optimizer needs --weights")
        weights, manifest = neural.load_weights(opt["weights"])
        _adopt(opt, manifest["spec"])
    cfg = _settings(runner.RunConfig, opt)
    budget = opt["budget"]
    if budget is None:
        budget = functions[0].dim * 10_000
    term = runner.Termination(max_evals=budget, error_tol=opt["tol"])

    results = runner.batch_experiment(
        algorithms, functions, opt["runs"], term, cfg, opt["seed"],
        weights=weights, jobs=opt["jobs"], out_dir=opt["out"])
    print(f"{len(results)} runs -> {Path(opt['out']) / 'results.csv'}")
    return 0


def _read_results(path: str):
    """A results.csv in one streamed pass: function_id -> {algorithm_id ->
    best errors (array)}, both in first-seen order, and the algorithms in
    first-seen order.  Refuses a short row or a non-finite best_error
    (naming the line), fewer than two algorithms, and a function with
    fewer than two runs of some algorithm."""
    groups = {}  # (function, algorithm) -> errors, in first-seen order
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd, [])
        need = ("algorithm_id", "function_id", "best_error")
        if not set(need) <= set(header):
            raise UsageError(f"{path}: missing columns {sorted(need)}")
        ia, ifn, ie = (header.index(c) for c in need)
        width = len(header)
        for row in rd:
            if len(row) != width:
                if not row:  # blank line
                    continue
                raise UsageError(f"{path} line {rd.line_num}: "
                                 f"{len(row)} fields, header has {width}")
            try:
                err = float(row[ie])
            except ValueError:
                err = math.nan
            if not math.isfinite(err):
                raise UsageError(f"{path} line {rd.line_num}: "
                                 f"best_error {row[ie]!r} is not a finite number")
            groups.setdefault((row[ifn], row[ia]), []).append(err)
    if not groups:
        raise UsageError(f"{path}: no data rows")
    # an algorithm's first row opens its first group
    algorithms = list(dict.fromkeys(alg for _, alg in groups))
    if len(algorithms) < 2:
        raise UsageError("comparison needs at least two algorithms")
    samples = {}
    for (fid, alg), errs in groups.items():
        samples.setdefault(fid, {})[alg] = np.array(errs)
    for fid, per_fn in samples.items():
        for alg in algorithms:
            if len(per_fn.get(alg, ())) < 2:
                raise UsageError(f"{fid}/{alg}: need at least two runs per pair")
    return samples, algorithms


def _write_comparison(out: Path, table: stats.ComparisonTable, report: str) -> None:
    out.mkdir(parents=True, exist_ok=True)
    fns, algs = table.functions, table.algorithms
    runner.write_csv(out / "comparison.csv",
                     ["function_id", "algorithm_id", "mean_error", "std_error"],
                     ([fid, alg, table.mean[fid, alg], table.std[fid, alg]]
                      for fid in fns for alg in algs))
    runner.write_csv(out / "marks.csv",
                     ["function_id", "algorithm_a", "algorithm_b", "p_value", "mark"],
                     ([fid, a, b, table.p_value[fid, a, b], table.mark[fid, a, b]]
                      for fid in fns for a in algs for b in algs if a != b))
    runner.write_csv(out / "aps.csv", ["algorithm_id", "aps"],
                     ([alg, table.aps[alg]] for alg in algs))
    with open(out / "report.txt", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report)


def cmd_compare(args) -> int:
    opt = _resolve(args)
    if not 0.0 < opt["alpha_sig"] < 1.0:
        raise UsageError("alpha_sig must lie in (0, 1)")
    samples, algorithms = _read_results(opt["results"])
    table = stats.build_comparison(samples, algorithms=algorithms, alpha=opt["alpha_sig"])
    report = stats.render_report(table, reference=opt["ref"])
    sys.stdout.write(report)
    if opt["out"]:
        _write_comparison(Path(opt["out"]), table, report)
    return 0


def cmd_gradcheck(args) -> int:
    opt = _resolve(args)
    report = neural.run_gradcheck(**{k: v for k, v in opt.items() if v is not None})
    for name in neural.FIELD_ORDER:
        print(f"{name:6s} rel_err {report.per_field[name]:.3e}")
    verdict = "PASS" if report.passed else "FAIL"
    print(f"{verdict}: max rel err {report.max_rel_err:.3e} "
          f"(worst {report.worst_field}, threshold {report.threshold:.1e})")
    if not report.passed:
        raise NumericFailure("analytic gradients disagree with finite differences")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help lands here
            return 0 if exc.code in (0, None) else 1
        if args.command is None:
            raise UsageError("pick a command: " + ", ".join(parser.commands))
        if args.config:
            for key, value in _read_config(args.config, _config_keys(parser.commands)).items():
                if getattr(args, key, None) is None:  # a flag beats the file
                    setattr(args, key, value)
        return parser.commands[args.command].handler(args)
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (NumericFailure, ConsistencyError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 3
    except BrokenProcessPool as exc:
        print(f"worker failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
