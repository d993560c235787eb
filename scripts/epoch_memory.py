#!/usr/bin/env python3
"""Peak memory of the desk training op at a fixed op count.

Repeats one op -- 10 ``suite`` calls, then a one-epoch ``train`` at desk
scale (dim 10, 6 training functions, N 20, H 32, 10 rollouts, horizon
30, --jobs 1) -- a fixed number of times in this one process, then
prints the process's VmHWM, RssAnon and RssFile from /proc/self/status
("n/a" where that file is missing).  Two builds compared at the same
--ops have done the same work, whatever their speed.

    PYTHONPATH=src python3 scripts/epoch_memory.py --ops 30 --seed 0
"""

import argparse
import contextlib
import io
import tempfile
from pathlib import Path

from ldectl.cli import main as ldectl

FIELDS = ("VmHWM", "RssAnon", "RssFile")


def op_argvs(work: Path, seed: int, suite_calls: int = 10) -> list:
    """The CLI calls of one op: the suite, then one training epoch on it."""
    s, suite = str(seed), str(work / "suite")
    make_suite = ["suite", "--seed", s, "--dim", "10", "--train", "6", "--test", "8",
                  "--out", suite]
    train = ["train", "--seed", s, "--suite", suite, "--jobs", "1", "--epochs", "1",
             "--rollouts", "10", "--horizon", "30", "--hidden", "32", "--pop-size", "20",
             "--bins", "5", "--window", "5", "--checkpoint-every", "0",
             "--out", str(work / "trained")]
    return [make_suite] * suite_calls + [train]


def memory_status(path="/proc/self/status") -> dict:
    """FIELDS from a /proc status file, as "<value> kB" strings or "n/a"."""
    out = dict.fromkeys(FIELDS, "n/a")
    try:
        text = Path(path).read_text()
    except OSError:
        return out
    for line in text.splitlines():
        key, _, value = line.partition(":")
        if key in out:
            out[key] = value.strip()
    return out


def run(ops: int, seed: int, work: Path) -> None:
    for _ in range(ops):
        for argv in op_argvs(work, seed):
            with contextlib.redirect_stdout(io.StringIO()):
                code = ldectl(argv)
            if code != 0:
                raise SystemExit(f"ldectl {' '.join(argv)} exited with {code}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ops", type=int, default=30, help="ops to run before reading")
    ap.add_argument("--seed", type=int, default=0)
    opts = ap.parse_args(argv)
    if opts.ops < 0:
        ap.error("--ops must be >= 0")
    with tempfile.TemporaryDirectory() as tmp:
        run(opts.ops, opts.seed, Path(tmp))
    status = memory_status()
    print(f"ops {opts.ops} seed {opts.seed}")
    for key in FIELDS:
        print(f"{key:8s} {status[key]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
