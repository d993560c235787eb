"""Rank-sum comparison: exact and normal p-values, marks, APS, report."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from conftest import oracle_exact_p
from ldectl import stats
from ldectl.stats import (
    EXACT_LIMIT,
    MARK_BETTER,
    MARK_SIMILAR,
    MARK_WORSE,
    aps_rank,
    build_comparison,
    ranksum_test,
    render_report,
    significance_mark,
)


# ---------------------------------------------------------------- exact path
def test_exact_separated_triples():
    res = ranksum_test([1, 2, 3], [4, 5, 6])
    assert res.method == "exact"
    assert res.statistic == 6.0
    assert res.p_value == 0.1  # 2 of the 20 assignments are this extreme


def test_exact_fully_separated_quads():
    res = ranksum_test([1, 2, 3, 4], [5, 6, 7, 8])
    assert res.p_value == pytest.approx(2 / 70)


def test_exact_identical_multisets_p_one():
    res = ranksum_test([5.0, 5.0, 5.0], [5.0, 5.0, 5.0])
    assert res.p_value == 1.0
    assert res.statistic == pytest.approx(10.5)  # all midranks 3.5


def test_exact_tied_pool_uses_midranks():
    # pooled [1,2,2,3,2,2,4]: the four 2s share rank (2+3+4+5)/4 = 3.5
    res = ranksum_test([1, 2, 2, 3], [2, 2, 4])
    assert res.statistic == pytest.approx(1 + 3.5 + 3.5 + 6)
    assert res.p_value == pytest.approx(17 / 35)
    w, p = oracle_exact_p([1, 2, 2, 3], [2, 2, 4])
    assert res.statistic == pytest.approx(w) and res.p_value == pytest.approx(p)


@settings(max_examples=60)
@given(
    a=st.lists(st.integers(0, 5), min_size=1, max_size=6),
    b=st.lists(st.integers(0, 5), min_size=1, max_size=6),
)
def test_exact_path_matches_enumeration_oracle(a, b):
    res = ranksum_test(a, b)
    assert res.method == "exact"
    w, p = oracle_exact_p(a, b)
    assert res.statistic == pytest.approx(w)
    assert res.p_value == p


def _pool(kind, size, rng):
    if kind == "normal":
        return rng.normal(size=size)
    if kind == "binary":  # heavy ties
        return rng.integers(0, 2, size).astype(float)
    return np.full(size, 0.25)  # "tied": one value throughout


@pytest.mark.parametrize("n, m, kind", [
    (10, 10, "normal"), (1, 10, "normal"), (10, 1, "normal"), (9, 10, "normal"),
    (10, 10, "binary"), (10, 10, "tied"),
])
def test_exact_p_equals_enumeration_at_the_limit(n, m, kind):
    rng = np.random.default_rng(n * 100 + m)
    a, b = _pool(kind, n, rng), _pool(kind, m, rng)
    res = ranksum_test(a, b)
    assert res.method == "exact"
    w, p = oracle_exact_p(a, b)
    assert res.statistic == w
    assert res.p_value == p
    if kind == "tied":
        assert p == 1.0


def test_exact_fully_separated_at_the_limit():
    res = ranksum_test(range(EXACT_LIMIT), range(EXACT_LIMIT, 2 * EXACT_LIMIT))
    assert res.p_value == 2 / math.comb(2 * EXACT_LIMIT, EXACT_LIMIT)


def test_exact_p_symmetric_in_sample_order():
    p_ab = ranksum_test([1, 5, 7], [2, 3, 9, 11]).p_value
    p_ba = ranksum_test([2, 3, 9, 11], [1, 5, 7]).p_value
    assert p_ab == pytest.approx(p_ba)


def _count_matrix_exact(sample_a, sample_b):
    """The exact branch the sorted-pool searches replace: doubled midranks
    from the cumulative counts of the pair's count matrix, the tail mass
    from a |S - centre| mask over the whole null row."""
    a = np.asarray(sample_a, dtype=float)
    counts = stats._value_counts([a, np.asarray(sample_b, dtype=float)])
    group = counts.sum(axis=1)
    ranks2 = 2 * np.cumsum(group) - group + 1
    w2_obs = int(counts[:, 0] @ ranks2)
    pooled = tuple(np.repeat(ranks2, group).tolist())
    row = stats._null_counts(pooled, a.size)
    centre = a.size * (len(pooled) + 1)
    far = np.abs(np.arange(row.size) - centre) >= abs(w2_obs - centre)
    p = int(row[far].sum()) / math.comb(len(pooled), a.size)
    return stats.RankSumResult(w2_obs / 2.0, p, "exact")


@st.composite
def _exact_pair(draw):
    """Two samples of 1..EXACT_LIMIT values from one pool of 1-4 values
    (heavy ties) or up to 2·EXACT_LIMIT: ±0.0 and magnitudes 1e-300..1e300
    of either sign."""
    magnitude = st.floats(1e-300, 1e300, allow_nan=False, allow_infinity=False)
    value = st.one_of(st.sampled_from([0.0, -0.0]), magnitude, magnitude.map(lambda x: -x))
    pool = draw(st.lists(value, min_size=1, max_size=draw(st.sampled_from([4, 2 * EXACT_LIMIT]))))
    sample = st.lists(st.sampled_from(pool), min_size=1, max_size=EXACT_LIMIT)
    return draw(sample), draw(sample)


@settings(max_examples=300)
@given(pair=_exact_pair())
def test_exact_branch_equals_the_count_matrix_oracle(pair):
    for a, b in (pair, pair[::-1]):
        got, want = ranksum_test(a, b), _count_matrix_exact(a, b)
        assert got.method == "exact"
        assert (got.statistic.hex(), got.p_value.hex()) == (want.statistic.hex(),
                                                            want.p_value.hex())


@pytest.mark.parametrize("partner", [[0.5], [0.5] * (EXACT_LIMIT + 2)],
                         ids=["exact", "normal"])
@pytest.mark.parametrize("bad, message", [
    ([], "samples must be non-empty 1-D arrays"),
    (np.float64(1.0), "samples must be non-empty 1-D arrays"),
    ([[1.0, 2.0]], "samples must be non-empty 1-D arrays"),
    ([1.0, np.nan], "samples must be finite"),
    ([1.0, np.inf], "samples must be finite"),
], ids=["empty", "0-d", "2-D", "nan", "inf"])
def test_refusals_name_what_is_wrong_on_both_branches(bad, message, partner):
    for a, b in ((bad, partner), (partner, bad)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ranksum_test(a, b)


# ---------------------------------------------------------------- null-count cache
@settings(max_examples=40)
@given(
    a=st.lists(st.sampled_from([0.0, 1.0, 2.5, 4.0]), min_size=1, max_size=7),
    b=st.lists(st.sampled_from([0.0, 1.0, 2.5, 4.0]), min_size=1, max_size=7),
)
def test_exact_p_is_the_same_cold_and_warm(a, b):
    _, p = oracle_exact_p(a, b)
    stats._null_counts.cache_clear()
    assert ranksum_test(a, b).p_value == p
    assert stats._null_counts.cache_info().misses == 1
    assert ranksum_test(a, b).p_value == p
    assert stats._null_counts.cache_info().hits == 1


def test_a_pair_and_its_swap_have_their_own_entries():
    a, b = [0.3, 1.5, 2.0], [0.1, 0.7, 2.2, 5.0, 9.0]  # n != m
    stats._null_counts.cache_clear()
    p_ab, p_ba = ranksum_test(a, b).p_value, ranksum_test(b, a).p_value
    assert stats._null_counts.cache_info().currsize == 2
    assert p_ab == oracle_exact_p(a, b)[1] and p_ba == oracle_exact_p(b, a)[1]
    pool = tuple(range(2, 18, 2))  # the pooled doubled ranks of a and b: two hits
    row3, row5 = stats._null_counts(pool, 3), stats._null_counts(pool, 5)
    assert row3.sum() == row5.sum() == math.comb(8, 3)
    assert not np.array_equal(row3, row5)
    assert stats._null_counts.cache_info().hits == 2


@pytest.mark.parametrize("a, b", [
    ([1, 1, 1, 2, 2], [1, 1, 2, 2, 2, 2, 3]),
    ([0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 0]),
    ([4.0] * 5, [4.0] * 8),
    ([4.0] * EXACT_LIMIT, [4.0] * EXACT_LIMIT),
])
def test_cached_counts_under_heavy_ties(a, b):
    stats._null_counts.cache_clear()
    for _ in range(2):
        assert ranksum_test(a, b).p_value == oracle_exact_p(a, b)[1]
        assert ranksum_test(b, a).p_value == oracle_exact_p(b, a)[1]
    if len(set(a + b)) == 1:
        assert ranksum_test(a, b).p_value == 1.0


def test_a_cached_row_refuses_writes_and_holds_no_table():
    row = stats._null_counts((1, 3, 6, 6, 9), 2)
    assert row.dtype == np.int64 and row.base is None
    assert row.shape == (1 + 3 + 6 + 6 + 9 + 1,)
    with pytest.raises(ValueError):
        row[0] = 1


def test_the_cache_stays_within_its_bound():
    limit = stats._null_counts.cache_info().maxsize
    stats._null_counts.cache_clear()
    for k in range(limit + 20):
        assert stats._null_counts((1, 2 * k + 3), 1).tolist().count(1) == 2
        assert stats._null_counts.cache_info().currsize <= limit
    assert stats._null_counts.cache_info().currsize == limit


# ---------------------------------------------------------------- normal path
def test_method_switches_at_exact_limit():
    small = list(range(EXACT_LIMIT))
    assert ranksum_test(small, small).method == "exact"
    assert ranksum_test(small + [99], small).method == "normal"
    assert ranksum_test(small, small + [99]).method == "normal"


def test_normal_path_matches_mannwhitney_with_ties():
    rng = np.random.default_rng(1)
    for _ in range(5):
        a = np.round(rng.normal(0, 1, 15), 1)  # rounding forces ties
        b = np.round(rng.normal(0.4, 1, 20), 1)
        res = ranksum_test(a, b)
        assert res.method == "normal"
        ref = sps.mannwhitneyu(a, b, alternative="two-sided",
                               method="asymptotic", use_continuity=True)
        assert res.p_value == pytest.approx(ref.pvalue, rel=1e-10)


def test_normal_path_all_tied_returns_one():
    res = ranksum_test([3.0] * 12, [3.0] * 12)
    assert res.method == "normal"
    assert res.p_value == 1.0


def test_normal_path_detects_strong_shift():
    a = np.arange(30, dtype=float)
    b = a + 100.0
    assert ranksum_test(a, b).p_value < 1e-9


def test_ranksum_input_validation():
    with pytest.raises(ValueError):
        ranksum_test([], [1.0])
    with pytest.raises(ValueError):
        ranksum_test([1.0], [])
    with pytest.raises(ValueError):
        ranksum_test([[1.0, 2.0]], [1.0])
    with pytest.raises(ValueError):
        ranksum_test([1.0, np.nan], [2.0])
    with pytest.raises(ValueError):
        ranksum_test([1.0], [np.inf])


# ---------------------------------------------------------------- all pairs of a function
@st.composite
def _ragged_samples(draw):
    """2-6 samples of 1-25 values (either side of EXACT_LIMIT) drawn from a
    pool of 1-4 distinct values, so ties are heavy and sometimes total."""
    pool = draw(st.lists(st.sampled_from([0.0, 1e-9, 0.5, 3.0, 7.25, 1e4]),
                         min_size=1, max_size=4, unique=True))
    k = draw(st.integers(2, 6))
    value = st.sampled_from(pool)
    return [draw(st.lists(value, min_size=1, max_size=2 * EXACT_LIMIT + 5)) for _ in range(k)]


@settings(max_examples=80)
@given(samples=_ragged_samples())
def test_pair_kernel_equals_the_per_pair_test(samples):
    arrays = [np.asarray(x, dtype=float) for x in samples]
    w, p = stats._normal_pairs(stats._value_counts(arrays))
    names = [f"alg{i}" for i in range(len(samples))]
    table = stats.pair_p_values(dict(zip(names, samples)), names)
    for i, j in itertools.permutations(range(len(samples)), 2):
        res = ranksum_test(samples[i], samples[j])
        assert table[names[i], names[j]] == res.p_value
        pooled = np.concatenate([arrays[i], arrays[j]])
        assert w[i][j] == res.statistic == sps.rankdata(pooled)[:arrays[i].size].sum()
        if res.method == "exact":
            continue
        assert p[i][j] == res.p_value
        if np.all(pooled == pooled[0]):
            assert res.p_value == 1.0
        else:
            ref = sps.mannwhitneyu(samples[i], samples[j], alternative="two-sided",
                                   method="asymptotic", use_continuity=True)
            assert res.p_value == pytest.approx(ref.pvalue, rel=1e-10)


def test_pair_kernel_on_an_all_tied_pool_gives_one():
    samples = [[2.5] * n for n in (3, 11, 12, 30)]
    _, p = stats._normal_pairs(stats._value_counts([np.asarray(x) for x in samples]))
    assert p == [[1.0] * 4] * 4


def test_pair_p_values_refuses_what_ranksum_test_refuses():
    for bad in ([], [1.0, np.nan] * 6, [[1.0] * 11]):
        with pytest.raises(ValueError):
            stats.pair_p_values({"a": bad, "b": [0.5] * 12}, ["a", "b"])


# ---------------------------------------------------------------- marks
def test_significance_marks():
    assert significance_mark(0.01, 1.0, 2.0) == MARK_BETTER
    assert significance_mark(0.01, 2.0, 1.0) == MARK_WORSE
    assert significance_mark(0.2, 1.0, 2.0) == MARK_SIMILAR
    assert significance_mark(0.05, 1.0, 2.0) == MARK_SIMILAR  # boundary inclusive
    assert significance_mark(0.001, 3.0, 3.0) == MARK_SIMILAR  # equal means
    assert significance_mark(0.06, 1.0, 2.0, alpha=0.1) == MARK_BETTER


# ---------------------------------------------------------------- APS
def _shifted(base, offset):
    return [v + offset for v in base]


def test_aps_identical_algorithms_score_zero():
    errs = [0.5, 0.7, 0.6, 0.9, 0.8]
    samples = {"f0": {"a": errs, "b": list(errs), "c": list(errs)}}
    assert aps_rank(samples) == {"a": 0.0, "b": 0.0, "c": 0.0}


def test_aps_dominance_chain():
    base = [float(i) for i in range(11)]  # n=11 forces the normal path too
    per_fn = {
        "best": base,
        "mid": _shifted(base, 100.0),
        "worst": _shifted(base, 200.0),
    }
    samples = {"f0": dict(per_fn), "f1": dict(per_fn)}
    assert aps_rank(samples) == {"best": 0.0, "mid": 1.0, "worst": 2.0}


def test_aps_averages_over_functions():
    base = [float(i) for i in range(11)]
    samples = {
        "f0": {"a": base, "b": _shifted(base, 100.0)},  # a beats b
        "f1": {"a": list(base), "b": list(base)},       # tie
    }
    assert aps_rank(samples) == {"a": 0.0, "b": 0.5}


def test_aps_validation():
    with pytest.raises(ValueError):
        aps_rank({})
    with pytest.raises(ValueError):
        aps_rank({"f0": {"a": [1.0, 2.0]}})
    with pytest.raises(ValueError):
        aps_rank({"f0": {"a": [1.0], "b": [2.0]}, "f1": {"a": [1.0]}})


# ---------------------------------------------------------------- table
def _table_samples():
    rng = np.random.default_rng(3)
    base = np.sort(rng.random(8))
    return {
        "fn-a": {"x": base.tolist(), "y": (base + 10.0).tolist()},
        "fn-b": {"x": base.tolist(), "y": base.tolist()},
    }


def test_build_comparison_contents():
    samples = _table_samples()
    table = build_comparison(samples)
    assert table.algorithms == ["x", "y"]
    assert table.functions == ["fn-a", "fn-b"]
    errs = np.asarray(samples["fn-a"]["x"])
    assert table.mean[("fn-a", "x")] == pytest.approx(errs.mean())
    assert table.std[("fn-a", "x")] == pytest.approx(errs.std(ddof=1))
    p = table.p_value[("fn-a", "x", "y")]
    assert p == ranksum_test(samples["fn-a"]["x"], samples["fn-a"]["y"]).p_value
    assert table.mark[("fn-a", "x", "y")] == MARK_BETTER
    assert table.mark[("fn-a", "y", "x")] == MARK_WORSE
    assert table.mark[("fn-b", "x", "y")] == MARK_SIMILAR
    assert table.aps == {"x": 0.0, "y": 0.5}


def test_build_comparison_tests_each_unordered_pair_once(monkeypatch):
    from ldectl import stats

    rng = np.random.default_rng(5)
    samples = {f"fn-{k}": {alg: rng.random(6).tolist() for alg in "abcd"} for k in range(3)}
    want = build_comparison(samples)
    calls = []

    def counted(a, b):
        calls.append((id(a), id(b)))
        return ranksum_test(a, b)

    monkeypatch.setattr(stats, "ranksum_test", counted)
    table = build_comparison(samples)
    assert len(calls) == 3 * 6  # C(4, 2) pairs per function, aps_rank reuses them
    assert len({frozenset(c) for c in calls}) == len(calls)
    assert table.p_value == want.p_value and table.mark == want.mark
    assert table.aps == want.aps == aps_rank(samples)
    for (fid, a, b), p in table.p_value.items():  # the test is symmetric
        assert p == ranksum_test(samples[fid][b], samples[fid][a]).p_value


def test_build_comparison_respects_algorithm_order():
    table = build_comparison(_table_samples(), algorithms=["y", "x"])
    assert table.algorithms == ["y", "x"]
    # a subset of the algorithms gets marks; APS still ranks them all
    samples = _table_samples()
    for per_fn in samples.values():
        per_fn["z"] = [v + 20.0 for v in per_fn["x"]]
    table = build_comparison(samples, algorithms=["z", "x"])
    assert set(table.p_value) == {(f, a, b) for f in samples for a, b in (("z", "x"), ("x", "z"))}
    assert table.aps == aps_rank(samples)


def test_build_comparison_validation():
    with pytest.raises(ValueError):
        build_comparison({})
    with pytest.raises(ValueError):
        build_comparison({"f": {"a": [1.0, 2.0]}}, algorithms=["a", "ghost"])


def test_render_report_layout():
    table = build_comparison(_table_samples())
    text = render_report(table)
    assert "fn-a" in text and "fn-b" in text
    assert "x" in text.splitlines()[0] and "y" in text.splitlines()[0]
    assert f"{MARK_WORSE}/{MARK_SIMILAR}/{MARK_BETTER} vs x" in text
    assert "average performance score" in text
    # y loses fn-a and ties fn-b against reference x: tally 1/1/0
    assert "1/1/0" in text


def test_render_report_reference_validation():
    table = build_comparison(_table_samples())
    ref_y = render_report(table, reference="y")
    assert f"vs y" in ref_y
    with pytest.raises(ValueError):
        render_report(table, reference="ghost")
