"""Two-sided Wilcoxon rank-sum comparison and average performance scores.

Ties take midranks.  When both samples hold at most EXACT_LIMIT values
the p-value is exact: the pair's pooled values are sorted once, and a
value's doubled midrank, 2·below + ties + 1, is its left plus right
binary-search position in the sorted pool, plus one.  The n-subsets of
the pooled midranks are counted by rank sum (the shift algorithm of
Streitberg and Röhmel, 1986) and the two-sided tail mass of |W - E[W]|
is read off the counts.  Doubled midranks are integers, so the counts
equal those of enumerating every subset.  The counts depend only on the
pooled midranks and n, not on which sample holds which value, so each
pool and n is counted once and kept in a bounded cache.  Above that the
normal approximation applies, with the usual tie-corrected variance and
a 0.5 continuity correction.  A comparison sorts each function's samples
once into a count matrix (distinct values x samples): the rank sums and
tie terms of all its normal-path pairs are integer products of that
matrix, and only the exact pairs are tested one by one.

The average performance score of algorithm i is the number of rivals
that i's significance mark calls significantly better ('+' against
them), averaged over functions; lower is better.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

EXACT_LIMIT = 10
# The exact path counts k-subsets (k <= L) of at most 2L values in int64: C(2L, L)
# must fit, which holds for L <= 33.
assert math.comb(2 * EXACT_LIMIT, EXACT_LIMIT) <= np.iinfo(np.int64).max
DEFAULT_ALPHA = 0.05

MARK_BETTER = "-"
MARK_WORSE = "+"
MARK_SIMILAR = "≈"


def _pooled(samples) -> np.ndarray:
    """The samples' values in one new array, once each is known to be a
    non-empty 1-D array of finite values."""
    if any(x.ndim != 1 or x.size == 0 for x in samples):
        raise ValueError("samples must be non-empty 1-D arrays")
    pooled = np.concatenate(samples)
    if not np.isfinite(pooled).all():
        raise ValueError("samples must be finite")
    return pooled


def _value_counts(samples) -> np.ndarray:
    """How often each distinct pooled value (rows, ascending) occurs in
    each sample (columns): one sort of the pooled values."""
    pooled = _pooled(samples)
    k = len(samples)
    label = np.repeat(np.arange(k), [x.size for x in samples])
    order = np.argsort(pooled, kind="stable")
    s = pooled[order]
    value = np.concatenate(([0], np.cumsum(s[1:] != s[:-1])))
    return np.bincount(value * k + label[order], minlength=(value[-1] + 1) * k).reshape(-1, k)


@lru_cache(maxsize=256)
def _null_counts(ranks2: tuple, n: int) -> np.ndarray:
    """How many n-subsets of the pooled doubled midranks ``ranks2``
    (ascending) sum to each S in 0..sum(ranks2): read-only int64."""
    top = sum(ranks2)
    counts = np.zeros((n + 1, top + 1), dtype=np.int64)  # [k, S]: k-subsets summing to S
    counts[0, 0] = 1
    for r in ranks2:
        counts[1:, r:] += counts[:-1, :-r]  # numpy reads the right side before writing
    row = counts[n].copy()  # not a view: the cache keeps the row, not the table
    row.flags.writeable = False
    return row


def _exact_p(ranks2: tuple, n: int, w2_obs: int) -> float:
    """Share of the n-subsets of ``ranks2`` whose sum lies at least as far
    from its mean as ``w2_obs`` does; all in doubled ranks."""
    row = _null_counts(ranks2, n)
    centre = n * (len(ranks2) + 1)
    d = abs(w2_obs - centre)
    if d == 0:
        return 1.0
    # S <= centre - d, then S >= centre + d.  The observed doubled rank sum
    # lies in [0, 2·centre], so centre - d >= 0 and the first slice never wraps.
    far = int(row[:centre - d + 1].sum()) + int(row[centre + d:].sum())
    return far / math.comb(len(ranks2), n)


def _normal_pairs(counts: np.ndarray):
    """Rank sum and normal-approximation p-value of every pair (i, j) of the
    samples counted in the columns of ``counts`` (see _value_counts), each
    pair ranked on its own pool: A x A nested lists W, W[i][j] the rank sum
    of i against j, and P, which is symmetric.

    The counting is exact int64.  A value of i outranks the values of j
    below it and ties with those equal to it, so the doubled U of i
    against j is sum_v c_i(v) (2 C_j(v) - c_j(v)), with C_j the
    cumulative count; a pair's tie groups have sizes c_i + c_j, whose
    cubes expand into column products.  The formula then runs per pair
    on Python numbers, in the order a single test always used.
    """
    cum = np.cumsum(counts, axis=0)
    size = cum[-1].tolist()
    k = len(size)
    # prod[i][j]: doubled U of i against j; prod[i][k + j]: sum of c_i c_j^2
    prod = (counts.T @ np.concatenate((2 * cum - counts, counts * counts), axis=1)).tolist()
    w = [[(prod[i][j] + size[i] * (size[i] + 1)) / 2.0 for j in range(k)] for i in range(k)]
    p = [[1.0] * k for _ in range(k)]
    for i, j in itertools.combinations(range(k), 2):
        n, m = size[i], size[j]
        s = n + m
        cubes = prod[i][k + i] + prod[j][k + j] + 3 * (prod[i][k + j] + prod[j][k + i])
        ties = cubes - s  # sum over the pair's tie groups of t^3 - t
        tie_term = float(ties) / (s * (s - 1))
        var_u = n * m / 12.0 * ((s + 1) - tie_term)
        if var_u <= 0.0:  # every value of the pair is tied
            continue
        u_obs = w[i][j] - n * (n + 1) / 2.0
        z = max(abs(u_obs - n * m / 2.0) - 0.5, 0.0) / math.sqrt(var_u)
        p[i][j] = p[j][i] = min(1.0, math.erfc(z / math.sqrt(2.0)))
    return w, p


class RankSumResult(NamedTuple):
    statistic: float  # rank sum of the first sample, midrank ties
    p_value: float
    method: str       # "exact" or "normal"


def ranksum_test(sample_a, sample_b) -> RankSumResult:
    """Two-sided rank-sum test of identical distributions."""
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    if a.size <= EXACT_LIMIT and b.size <= EXACT_LIMIT:
        pool = _pooled([a, b])
        pool.sort()
        size = pool.size
        values = np.concatenate((pool, a))
        # left + right search position = 2·below + ties = doubled midrank - 1
        r = pool.searchsorted(values, "left") + pool.searchsorted(values, "right")
        w2_obs = int(r[size:].sum()) + a.size
        ranks2 = tuple((r[:size] + 1).tolist())  # ascending, each value once per copy
        return RankSumResult(w2_obs / 2.0, _exact_p(ranks2, a.size, w2_obs), "exact")
    w, p = _normal_pairs(_value_counts([a, b]))
    return RankSumResult(w[0][1], p[0][1], "normal")


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
    both orders share its p-value.  A pair within EXACT_LIMIT goes
    through ranksum_test with the caller's own samples; every other
    pair of the function comes from one _normal_pairs call.
    """
    algorithms = list(algorithms)
    arrays = [np.asarray(per_fn[alg], dtype=float) for alg in algorithms]
    normal = None
    out = {}
    for i, j in itertools.combinations(range(len(algorithms)), 2):
        a, b = algorithms[i], algorithms[j]
        if arrays[i].size <= EXACT_LIMIT and arrays[j].size <= EXACT_LIMIT:
            p = ranksum_test(per_fn[a], per_fn[b]).p_value
        else:
            if normal is None:
                normal = _normal_pairs(_value_counts(arrays))[1]
            p = normal[i][j]
        out[a, b] = out[b, a] = p
    return out


def _mean_std(sample) -> tuple:
    """np.mean and np.std(ddof=1) (0.0 for one value) bit for bit: the
    same reductions in the same order, without numpy's wrappers."""
    x = np.asarray(sample, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("samples must be non-empty 1-D arrays")
    mean = float(np.add.reduce(x)) / x.size
    if x.size == 1:
        return mean, 0.0
    d = x - mean
    return mean, math.sqrt(float(np.add.reduce(d * d)) / (x.size - 1))


def aps_rank(samples: dict, alpha: float = DEFAULT_ALPHA, p_values: dict = None,
             means: dict = None) -> dict:
    """Average performance score per algorithm.

    ``samples`` maps function_id -> {algorithm_id -> error sample}.
    Every function must cover the same algorithms.  ``p_values`` maps
    function_id -> pair_p_values of that function, and ``means`` maps
    (function_id, algorithm_id) -> mean error, when they are known.
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
    if means is None:
        means = {(fid, alg): _mean_std(samples[fid][alg])[0] for fid in fn_ids for alg in algs}
    scores = {alg: 0.0 for alg in algs}
    for fid in fn_ids:
        per_fn = samples[fid]
        p_table = p_values[fid] if p_values is not None else pair_p_values(per_fn, algs)
        for i in algs:  # the rivals i is marked worse than ('+'), as in marks.csv
            scores[i] += sum(significance_mark(p_table[i, j], means[fid, i], means[fid, j],
                                               alpha) == MARK_WORSE
                             for j in algs if j != i)
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
    means = {}  # every algorithm's, which aps_rank ranks
    for fid in functions:
        per_fn = samples[fid]
        for alg in algs:
            if alg not in per_fn:
                raise ValueError(f"function {fid} lacks algorithm {alg}")
        summary = {alg: _mean_std(per_fn[alg]) for alg in per_fn}
        for alg in algs:
            table.mean[fid, alg], table.std[fid, alg] = summary[alg]
        means.update(((fid, alg), mean) for alg, (mean, _) in summary.items())
        p_values[fid] = pair_p_values(per_fn, sorted(per_fn))  # what aps_rank ranks
        for a, b in itertools.permutations(algs, 2):
            p = p_values[fid][a, b]
            table.p_value[(fid, a, b)] = p
            table.mark[(fid, a, b)] = significance_mark(
                p, table.mean[(fid, a)], table.mean[(fid, b)], alpha)
    table.aps = aps_rank({fid: samples[fid] for fid in functions}, alpha, p_values, means)
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
