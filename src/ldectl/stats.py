"""Two-sided Wilcoxon rank-sum comparison and average performance scores.

Ties take midranks.  When both samples hold at most EXACT_LIMIT values
the p-value is exact: every assignment of the pooled midranks is
enumerated and the two-sided tail mass of |W - E[W]| is counted.  Above
that the normal approximation applies, with the usual tie-corrected
variance and a 0.5 continuity correction.

The average performance score of algorithm i is the number of rivals
that significantly beat it (lower mean error, p below alpha), averaged
over functions; lower is better.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

EXACT_LIMIT = 10
DEFAULT_ALPHA = 0.05

MARK_BETTER = "-"
MARK_WORSE = "+"
MARK_SIMILAR = "≈"


def _midranks(pooled: np.ndarray) -> np.ndarray:
    order = np.argsort(pooled, kind="stable")
    ranks = np.empty(len(pooled))
    s = pooled[order]
    i = 0
    while i < len(s):
        j = i
        while j + 1 < len(s) and s[j + 1] == s[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0  # average of ranks i+1 .. j+1
        i = j + 1
    return ranks


class RankSumResult(NamedTuple):
    statistic: float  # rank sum of the first sample, midrank ties
    p_value: float
    method: str       # "exact" or "normal"


def ranksum_test(sample_a, sample_b) -> RankSumResult:
    """Two-sided rank-sum test of identical distributions."""
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    if a.ndim != 1 or b.ndim != 1 or a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty 1-D arrays")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("samples must be finite")
    n, m = a.size, b.size
    pooled = np.concatenate([a, b])
    ranks = _midranks(pooled)
    w_obs = float(ranks[:n].sum())
    mean_w = n * (n + m + 1) / 2.0

    if n <= EXACT_LIMIT and m <= EXACT_LIMIT:
        rr = ranks.tolist()
        dev = abs(w_obs - mean_w) - 1e-9
        hits = 0
        total = 0
        for combo in itertools.combinations(range(n + m), n):
            total += 1
            w = 0.0
            for i in combo:
                w += rr[i]
            if abs(w - mean_w) >= dev:
                hits += 1
        return RankSumResult(w_obs, hits / total, "exact")

    s = n + m
    _, counts = np.unique(pooled, return_counts=True)
    tie_term = float(np.sum(counts ** 3 - counts)) / (s * (s - 1))
    var_u = n * m / 12.0 * ((s + 1) - tie_term)
    if var_u <= 0.0:
        return RankSumResult(w_obs, 1.0, "normal")
    u_obs = w_obs - n * (n + 1) / 2.0
    z = max(abs(u_obs - n * m / 2.0) - 0.5, 0.0) / math.sqrt(var_u)
    p = min(1.0, math.erfc(z / math.sqrt(2.0)))
    return RankSumResult(w_obs, p, "normal")


def significance_mark(p_value: float, mean_a: float, mean_b: float,
                      alpha: float = DEFAULT_ALPHA) -> str:
    """Mark for A against B: '-' significantly better (lower mean error),
    '+' significantly worse, '≈' otherwise."""
    if p_value >= alpha or mean_a == mean_b:
        return MARK_SIMILAR
    return MARK_BETTER if mean_a < mean_b else MARK_WORSE


def pair_p_values(per_fn: dict, algorithms) -> dict:
    """p-value of every ordered pair (a, b) of one function's samples.

    The test is symmetric, so each unordered pair is tested once and
    both orders share its p-value.
    """
    out = {}
    for a, b in itertools.combinations(algorithms, 2):
        out[a, b] = out[b, a] = ranksum_test(per_fn[a], per_fn[b]).p_value
    return out


def aps_rank(samples: dict, alpha: float = DEFAULT_ALPHA, p_values: dict = None) -> dict:
    """Average performance score per algorithm.

    ``samples`` maps function_id -> {algorithm_id -> error sample}.
    Every function must cover the same algorithms.  ``p_values`` maps
    function_id -> pair_p_values of that function when they are known.
    """
    if not samples:
        raise ValueError("aps_rank needs at least one function")
    fn_ids = sorted(samples)
    algs = sorted(samples[fn_ids[0]])
    if len(algs) < 2:
        raise ValueError("aps_rank needs at least two algorithms")
    for fid in fn_ids:
        if sorted(samples[fid]) != algs:
            raise ValueError(f"function {fid} does not cover all algorithms")
    scores = {alg: 0.0 for alg in algs}
    for fid in fn_ids:
        per_fn = samples[fid]
        means = {alg: float(np.mean(per_fn[alg])) for alg in algs}
        p_table = p_values[fid] if p_values is not None else pair_p_values(per_fn, algs)
        for i in algs:
            beaten_by = 0
            for j in algs:
                if j == i:
                    continue
                if p_table[i, j] < alpha and means[j] < means[i]:
                    beaten_by += 1
            scores[i] += beaten_by
    return {alg: scores[alg] / len(fn_ids) for alg in algs}


@dataclass
class ComparisonTable:
    """Mean/std errors with pairwise significance marks and APS scores."""

    algorithms: list
    functions: list
    mean: dict = field(default_factory=dict)     # (fn, alg) -> float
    std: dict = field(default_factory=dict)      # (fn, alg) -> float
    p_value: dict = field(default_factory=dict)  # (fn, a, b) -> float
    mark: dict = field(default_factory=dict)     # (fn, a, b) -> str
    aps: dict = field(default_factory=dict)      # alg -> float


def build_comparison(samples: dict, algorithms=None, alpha: float = DEFAULT_ALPHA) -> ComparisonTable:
    """Build the full table from function_id -> {algorithm_id -> errors}."""
    if not samples:
        raise ValueError("no samples to compare")
    functions = sorted(samples)
    algs = list(algorithms) if algorithms else sorted(samples[functions[0]])
    table = ComparisonTable(algorithms=algs, functions=functions)
    p_values = {}
    for fid in functions:
        per_fn = samples[fid]
        for alg in algs:
            if alg not in per_fn:
                raise ValueError(f"function {fid} lacks algorithm {alg}")
            errs = np.asarray(per_fn[alg], dtype=float)
            table.mean[(fid, alg)] = float(np.mean(errs))
            table.std[(fid, alg)] = float(np.std(errs, ddof=1)) if errs.size > 1 else 0.0
        p_values[fid] = pair_p_values(per_fn, sorted(per_fn))  # what aps_rank ranks
        for a, b in itertools.permutations(algs, 2):
            p = p_values[fid][a, b]
            table.p_value[(fid, a, b)] = p
            table.mark[(fid, a, b)] = significance_mark(
                p, table.mean[(fid, a)], table.mean[(fid, b)], alpha)
    table.aps = aps_rank({fid: samples[fid] for fid in functions}, alpha, p_values)
    return table


def render_report(table: ComparisonTable, reference: str = None) -> str:
    """Aligned text report: per-function mean (std) with marks against the
    reference algorithm (first column by default), then tallies and APS."""
    ref = reference or table.algorithms[0]
    if ref not in table.algorithms:
        raise ValueError(f"unknown reference algorithm {ref!r}")
    cols = [ref] + [a for a in table.algorithms if a != ref]
    width = max(12, *(len(a) + 10 for a in cols))
    head = "function".ljust(24) + "".join(a.rjust(width + 2) for a in cols)
    lines = [head, "-" * len(head)]
    tally = {a: {MARK_WORSE: 0, MARK_SIMILAR: 0, MARK_BETTER: 0} for a in cols[1:]}
    for fid in table.functions:
        cells = []
        for a in cols:
            cell = f"{table.mean[(fid, a)]:.3e} ({table.std[(fid, a)]:.1e})"
            if a != ref:
                mk = table.mark[(fid, a, ref)]
                tally[a][mk] += 1
                cell += f" {mk}"
            cells.append(cell.rjust(width + 2))
        lines.append(fid.ljust(24) + "".join(cells))
    lines.append("-" * len(head))
    tline = f"{MARK_WORSE}/{MARK_SIMILAR}/{MARK_BETTER} vs {ref}".ljust(24)
    for a in cols:
        if a == ref:
            tline += "".rjust(width + 2)
        else:
            t = tally[a]
            tline += f"{t[MARK_WORSE]}/{t[MARK_SIMILAR]}/{t[MARK_BETTER]}".rjust(width + 2)
    lines.append(tline)
    lines.append("")
    lines.append("average performance score (lower is better)")
    for alg in sorted(table.aps, key=lambda a: (table.aps[a], a)):
        lines.append(f"  {alg.ljust(20)} {table.aps[alg]:.4f}")
    return "\n".join(lines) + "\n"
