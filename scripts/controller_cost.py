#!/usr/bin/env python3
"""Measure per-generation controller cost against hidden size.

Counts the multiply-accumulates of one forward step at a fixed population
size across a sweep of hidden sizes, then fits the log-log slope.  The cost
model is 4H(H+D) for the recurrent cell plus 2NH for the output heads, so
the slope approaches 2 as H dominates.
"""

import argparse

import numpy as np

from ldectl.neural import count_macs, forward_step, init_weights, zero_state
from ldectl.rng import stream


def sweep(sizes, pop_size, bins, seed):
    d = pop_size + 2 * bins
    rows = []
    for h in sizes:
        w = init_weights(h, d, pop_size, stream(seed, "weights", h))
        x = stream(seed, "input", h).normal(0.0, 1.0, (1, d))
        with count_macs() as counter:
            forward_step(w, x, zero_state(h, 1))
        rows.append((h, counter.total))
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="16,32,64,128,256,512",
                    help="comma-separated hidden sizes")
    ap.add_argument("--pop-size", type=int, default=2)
    ap.add_argument("--bins", type=int, default=1)
    ap.add_argument("--seed", type=int, default=0)
    opts = ap.parse_args(argv)

    sizes = [int(s) for s in opts.sizes.split(",")]
    rows = sweep(sizes, opts.pop_size, opts.bins, opts.seed)
    print(f"{'hidden':>8} {'macs/step':>12} {'macs/H^2':>10}")
    for h, macs in rows:
        print(f"{h:>8} {macs:>12} {macs / h ** 2:>10.3f}")
    hs = np.array([r[0] for r in rows], dtype=float)
    macs = np.array([r[1] for r in rows], dtype=float)
    slope = np.polyfit(np.log(hs), np.log(macs), 1)[0]
    print(f"\nlog-log slope over H: {slope:.3f} (quadratic limit 2.0)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
