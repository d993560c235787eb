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
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

from . import benchfn, neural, runner, stats, trainer
from .errors import ConsistencyError, NumericFailure
from .policy import PolicyConfig


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
    raise UsageError(f"not a boolean: {text!r}")


# every key any command understands; config files share one namespace
CONFIG_TYPES = {
    "seed": int, "jobs": int, "out": str,
    "dim": int, "train": int, "test": int,
    "suite": str, "epochs": int, "rollouts": int, "horizon": int,
    "pop_size": int, "bins": int, "window": int, "hidden": int,
    "alpha": float, "sigma": float, "p_best": float, "f_min": float,
    "checkpoint_every": int, "timings": bool, "resume": str,
    "weights": str, "instances": str, "role": str, "algorithms": str,
    "runs": int, "budget": int, "tol": float,
    "deterministic": bool, "param_traces": bool,
    "results": str, "alpha_sig": float, "ref": str,
    "actions": int, "steps": int, "eps": float, "threshold": float,
}


def _read_config(path: str) -> dict:
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
        if key not in CONFIG_TYPES:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        typ = CONFIG_TYPES[key]
        try:
            out[key] = _parse_bool(val) if typ is bool else typ(val)
        except ValueError:
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {val!r}")
    return out


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """flag > config file > default, for the keys this command uses."""
    file_vals = _read_config(args.config) if getattr(args, "config", None) else {}
    merged = {}
    for key, dflt in defaults.items():
        merged[key] = dflt
        if key in file_vals:
            merged[key] = file_vals[key]
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    return merged


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="key = value option file")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--jobs", type=int, help="worker processes")
    p.add_argument("--out", help="output directory")


def build_parser() -> _Parser:
    top = _Parser(prog="ldectl", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("suite", parents=[], help="generate benchmark instances")
    _add_common(p)
    p.add_argument("--dim", type=int)
    p.add_argument("--train", type=int, help="training instance count")
    p.add_argument("--test", type=int, help="held-out instance count")

    p = sub.add_parser("train", help="train the controller")
    _add_common(p)
    p.add_argument("--suite", help="directory of instance files")
    p.add_argument("--epochs", type=int)
    p.add_argument("--rollouts", type=int)
    p.add_argument("--horizon", type=int)
    p.add_argument("--pop-size", dest="pop_size", type=int)
    p.add_argument("--bins", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--hidden", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument("--p-best", dest="p_best", type=float)
    p.add_argument("--f-min", dest="f_min", type=float)
    p.add_argument("--checkpoint-every", dest="checkpoint_every", type=int)
    p.add_argument("--resume", help="checkpoint weight file to continue from")
    p.add_argument("--timings", action="store_true", default=None,
                   help="add wallclock_ms to the log (not reproducible)")

    p = sub.add_parser("run", help="run optimizers against instances")
    _add_common(p)
    p.add_argument("--weights", help="trained controller file")
    p.add_argument("--instances", help="directory of instance files")
    p.add_argument("--role", choices=("train", "test", "all"))
    p.add_argument("--algorithms", help="comma-separated list")
    p.add_argument("--runs", type=int)
    p.add_argument("--budget", type=int, help="evaluations per run (default dim * 10^4)")
    p.add_argument("--tol", type=float)
    p.add_argument("--pop-size", dest="pop_size", type=int)
    p.add_argument("--bins", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--sigma", type=float)
    p.add_argument("--p-best", dest="p_best", type=float)
    p.add_argument("--f-min", dest="f_min", type=float)
    p.add_argument("--deterministic", action="store_true", default=None,
                   help="use head means instead of sampling")
    p.add_argument("--param-traces", dest="param_traces", action="store_true", default=None)

    p = sub.add_parser("compare", help="rank-sum comparison of run results")
    _add_common(p)
    p.add_argument("--results", help="results.csv from the run command")
    p.add_argument("--alpha-sig", dest="alpha_sig", type=float)
    p.add_argument("--ref", help="reference algorithm for the text report")

    p = sub.add_parser("gradcheck", help="finite-difference check of the BPTT gradients")
    _add_common(p)
    p.add_argument("--hidden", type=int)
    p.add_argument("--actions", type=int)
    p.add_argument("--bins", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--threshold", type=float)
    p.add_argument("--corrupt", action="store_true", default=None, help=argparse.SUPPRESS)

    return top


def _fmt(x) -> str:
    return repr(float(x))


def cmd_suite(args) -> int:
    opt = _resolve(args, {"seed": 0, "out": "suite", "dim": 10, "train": 6, "test": 8})
    if opt["dim"] < 1 or opt["train"] < 1 or opt["test"] < 0:
        raise UsageError("dim and train count must be positive, test count non-negative")
    suite = benchfn.make_suite(opt["seed"], opt["dim"], opt["train"], opt["test"])
    out = Path(opt["out"])
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
    return [benchfn.load_instance(p) for p in paths]


def _settings(cls, opt: dict, **extra):
    """Build a config dataclass from the resolved options; a key left unset
    (None) keeps the dataclass default."""
    given = {f.name: opt[f.name] for f in dataclasses.fields(cls)
             if opt.get(f.name) is not None}
    return cls(**given, **extra)


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
    opt = _resolve(args, {
        "jobs": 1, "out": "trained", "suite": "suite",
        **dict.fromkeys(f.name for f in dataclasses.fields(trainer.TrainConfig)),
        "checkpoint_every": 10, "resume": None, "timings": False,
    })
    functions = _load_instances(opt["suite"], "train")
    opt.update(functions=len(functions), dim=functions[0].dim)

    weights = None
    start_epoch = 0
    if opt["resume"]:
        weights, manifest = neural.load_weights(opt["resume"])
        trained = manifest.get("training_metadata", {})
        start_epoch = int(trained.get("epochs_done", 0))
        _adopt(opt, {
            **manifest["spec"], "hidden": manifest["H"], "seed": manifest["seed"],
            **{k: trained[k] for k in ("functions", "dim", "horizon", "rollouts", "alpha")
               if k in trained},
        })
    cfg = _settings(trainer.TrainConfig, opt)

    out = Path(opt["out"])
    out.mkdir(parents=True, exist_ok=True)
    cols = ["epoch", "function_id", "mean_return", "return_std", "grad_norm"]
    if opt["timings"]:
        cols.append("wallclock_ms")
    meta = {
        "epochs_done": cfg.epochs, "functions": opt["functions"], "dim": opt["dim"],
        "horizon": cfg.horizon, "rollouts": cfg.rollouts, "alpha": cfg.alpha,
    }

    def save(w, name, epochs_done):
        neural.save_weights(w, out / name, seed=cfg.seed, spec=cfg,
                            training_metadata={**meta, "epochs_done": epochs_done})

    log_fh = open(out / "train_log.csv", "w", newline="")
    log = csv.writer(log_fh, lineterminator="\n")
    log.writerow(cols)

    def on_epoch(epoch, w, rows):
        for row in rows:
            log.writerow([_fmt(row[c]) if isinstance(row[c], float) else row[c]
                          for c in cols])
        log_fh.flush()
        if opt["checkpoint_every"] > 0 and (epoch + 1) % opt["checkpoint_every"] == 0 \
                and epoch + 1 < cfg.epochs:
            save(w, f"checkpoint_{epoch + 1:04d}.bin", epoch + 1)

    try:
        w, _ = trainer.train(functions, cfg, jobs=opt["jobs"], weights=weights,
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
    opt = _resolve(args, {
        "seed": 0, "jobs": 1, "out": "runs", "weights": None,
        "instances": "suite", "role": "test",
        "algorithms": "lde,de_rand1_fixed,ctpb_fixed,random_params",
        "runs": 11, "budget": None, "tol": 1e-8,
        **dict.fromkeys(f.name for f in dataclasses.fields(PolicyConfig)),
        "deterministic": False, "param_traces": False,
    })
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
    cfg = _settings(runner.RunConfig, opt, sample_actions=not opt["deterministic"],
                    track_params=opt["param_traces"])
    budget = opt["budget"]
    if budget is None:
        budget = functions[0].dim * 10_000
    term = runner.Termination(max_evals=budget, error_tol=opt["tol"])
    if budget < cfg.pop_size:
        raise UsageError(f"budget {budget} below one generation ({cfg.pop_size} evals)")
    if opt["runs"] < 1:
        raise UsageError("runs must be >= 1")

    results = runner.batch_experiment(
        algorithms, functions, opt["runs"], term, cfg, opt["seed"],
        weights=weights, jobs=opt["jobs"], out_dir=opt["out"])
    print(f"{len(results)} runs -> {Path(opt['out']) / 'results.csv'}")
    return 0


def cmd_compare(args) -> int:
    opt = _resolve(args, {
        "results": "runs/results.csv", "alpha_sig": 0.05, "ref": None, "out": None,
    })
    if not 0.0 < opt["alpha_sig"] < 1.0:
        raise UsageError("alpha_sig must lie in (0, 1)")
    samples = {}
    algorithms = []
    with open(opt["results"], newline="") as fh:
        rd = csv.DictReader(fh)
        need = {"algorithm_id", "function_id", "best_error"}
        if rd.fieldnames is None or not need <= set(rd.fieldnames):
            raise UsageError(f"{opt['results']}: missing columns {sorted(need)}")
        for row in rd:
            samples.setdefault(row["function_id"], {}).setdefault(
                row["algorithm_id"], []).append(float(row["best_error"]))
            if row["algorithm_id"] not in algorithms:
                algorithms.append(row["algorithm_id"])
    if not samples:
        raise UsageError(f"{opt['results']}: no data rows")
    if len(algorithms) < 2:
        raise UsageError("comparison needs at least two algorithms")
    for fid, per_fn in samples.items():
        for alg in algorithms:
            if len(per_fn.get(alg, [])) < 2:
                raise UsageError(f"{fid}/{alg}: need at least two runs per pair")

    table = stats.build_comparison(samples, algorithms=algorithms, alpha=opt["alpha_sig"])
    report = stats.render_report(table, reference=opt["ref"])
    sys.stdout.write(report)

    if opt["out"]:
        out = Path(opt["out"])
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "comparison.csv", "w", newline="") as fh:
            wr = csv.writer(fh, lineterminator="\n")
            wr.writerow(["function_id", "algorithm_id", "mean_error", "std_error"])
            for fid in table.functions:
                for alg in table.algorithms:
                    wr.writerow([fid, alg, _fmt(table.mean[(fid, alg)]),
                                 _fmt(table.std[(fid, alg)])])
        with open(out / "marks.csv", "w", newline="") as fh:
            wr = csv.writer(fh, lineterminator="\n")
            wr.writerow(["function_id", "algorithm_a", "algorithm_b", "p_value", "mark"])
            for fid in table.functions:
                for a in table.algorithms:
                    for b in table.algorithms:
                        if a != b:
                            wr.writerow([fid, a, b, _fmt(table.p_value[(fid, a, b)]),
                                         table.mark[(fid, a, b)]])
        with open(out / "aps.csv", "w", newline="") as fh:
            wr = csv.writer(fh, lineterminator="\n")
            wr.writerow(["algorithm_id", "aps"])
            for alg in table.algorithms:
                wr.writerow([alg, _fmt(table.aps[alg])])
        with open(out / "report.txt", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(report)
    return 0


def cmd_gradcheck(args) -> int:
    opt = _resolve(args, {
        "seed": 0, "hidden": 8, "actions": 4, "bins": 1, "steps": 5,
        "eps": 1e-6, "threshold": 1e-4, "corrupt": False,
    })
    if min(opt["hidden"], opt["actions"], opt["bins"], opt["steps"]) < 1:
        raise UsageError("hidden, actions, bins, and steps must be >= 1")
    report = neural.run_gradcheck(
        hidden=opt["hidden"], actions=opt["actions"], bins=opt["bins"],
        steps=opt["steps"], eps=opt["eps"], threshold=opt["threshold"],
        seed=opt["seed"], corrupt=opt["corrupt"])
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
        handlers = {
            "suite": cmd_suite, "train": cmd_train, "run": cmd_run,
            "compare": cmd_compare, "gradcheck": cmd_gradcheck,
        }
        if args.command not in handlers:
            raise UsageError("pick a command: suite, train, run, compare, gradcheck")
        return handlers[args.command](args)
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
