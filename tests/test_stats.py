"""Rank-sum comparison: exact and normal p-values, marks, APS, report."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

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


def _oracle_exact_p(a, b):
    """Brute force: midranks via scipy, tail mass of |W - E[W]| >= observed."""
    pooled = np.concatenate([np.asarray(a, float), np.asarray(b, float)])
    ranks = sps.rankdata(pooled)
    n = len(a)
    mean_w = n * (len(pooled) + 1) / 2.0
    w_obs = ranks[:n].sum()
    dev = abs(w_obs - mean_w) - 1e-9
    hits = total = 0
    for combo in itertools.combinations(range(len(pooled)), n):
        total += 1
        if abs(ranks[list(combo)].sum() - mean_w) >= dev:
            hits += 1
    return w_obs, hits / total


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
    w, p = _oracle_exact_p([1, 2, 2, 3], [2, 2, 4])
    assert res.statistic == pytest.approx(w) and res.p_value == pytest.approx(p)


@settings(max_examples=60)
@given(
    a=st.lists(st.integers(0, 5), min_size=1, max_size=6),
    b=st.lists(st.integers(0, 5), min_size=1, max_size=6),
)
def test_exact_path_matches_enumeration_oracle(a, b):
    res = ranksum_test(a, b)
    assert res.method == "exact"
    w, p = _oracle_exact_p(a, b)
    assert res.statistic == pytest.approx(w)
    assert res.p_value == pytest.approx(p, rel=1e-12)


def test_exact_p_symmetric_in_sample_order():
    p_ab = ranksum_test([1, 5, 7], [2, 3, 9, 11]).p_value
    p_ba = ranksum_test([2, 3, 9, 11], [1, 5, 7]).p_value
    assert p_ab == pytest.approx(p_ba)


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
