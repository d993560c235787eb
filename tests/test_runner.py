"""Run harness: budget compliance, traces, baselines, batch orchestration."""

import numpy as np
import pytest

from conftest import EvalCounter, ScriptedRng
from ldectl.benchfn import make_suite
from ldectl.de_core import Population
from ldectl.neural import init_weights
from ldectl.rng import stream
from ldectl.runner import (
    BASELINES,
    LEARNED,
    RunConfig,
    Termination,
    _mutate_rand1,
    batch_experiment,
    run_baseline,
    run_lde,
)


def _inst(seed=0, dim=3):
    return make_suite(seed, dim, 1, 0).train[0]


def _weights(cfg, seed=0):
    return init_weights(8, cfg.pop_size + 2 * cfg.bins, cfg.pop_size,
                        stream(seed, "w"))


SMALL = RunConfig(pop_size=8, bins=2, window=3)


# ---------------------------------------------------------------- termination
def test_budget_equal_to_popsize_returns_initial_best():
    inst = EvalCounter(_inst())
    res = run_baseline("de_rand1_fixed", inst, Termination(8), SMALL,
                       stream(0, "r"))
    assert inst.count == 8
    assert res.evals_used == 8
    assert len(res.error_trace) == 1
    pop_best = res.error_trace[0][1]
    assert res.best_error == pop_best


def test_budget_never_exceeded_any_algorithm():
    term = Termination(100)  # not a multiple of pop_size 8: one gen margin
    for kind in BASELINES:
        inst = EvalCounter(_inst())
        res = run_baseline(kind, inst, term, SMALL, stream(0, "r", kind))
        assert inst.count == res.evals_used <= 100
    inst = EvalCounter(_inst())
    res = run_lde(_weights(SMALL), inst, term, SMALL, stream(0, "r", "lde"))
    assert inst.count == res.evals_used <= 100


def test_error_tolerance_stops_early():
    inst = _inst(dim=2)
    res = run_baseline("de_rand1_fixed", inst, Termination(40000, error_tol=1e-6),
                       SMALL, stream(3, "r"))
    assert res.best_error <= 1e-6
    assert res.evals_used < 40000


def test_budget_smaller_than_population_rejected():
    with pytest.raises(ValueError):
        run_baseline("de_rand1_fixed", _inst(), Termination(4), SMALL, stream(0, "r"))


# ---------------------------------------------------------------- traces
def test_error_trace_monotone_and_final_entry():
    for kind in BASELINES:
        res = run_baseline(kind, _inst(1), Termination(800), SMALL, stream(1, kind))
        errs = [e for _, e in res.error_trace]
        assert all(a >= b for a, b in zip(errs, errs[1:]))
        assert res.error_trace[-1][0] == res.evals_used
        assert res.error_trace[-1][1] == res.best_error
        evals = [v for v, _ in res.error_trace]
        assert all(a < b for a, b in zip(evals, evals[1:]))


def test_param_trace_terciles():
    cfg = RunConfig(pop_size=9, bins=2, window=3, track_params=True)
    res = run_baseline("ctpb_fixed", _inst(2), Termination(9 * 11), cfg,
                       stream(2, "r"))
    gens = res.evals_used // 9 - 1
    assert len(res.param_trace) == 3 * gens
    for gen, terc, mf, mcr in res.param_trace:
        assert 1 <= gen <= gens and terc in (0, 1, 2)
        assert mf == 0.5 and mcr == 0.9  # fixed-parameter baseline
    assert res.param_trace[0][0] == 1 and res.param_trace[-1][0] == gens


def test_param_trace_off_by_default():
    res = run_baseline("ctpb_fixed", _inst(2), Termination(80), SMALL, stream(2, "r"))
    assert res.param_trace is None


# ---------------------------------------------------------------- algorithms
def test_same_seed_same_result_every_algorithm():
    w = _weights(SMALL)
    for alg in BASELINES + (LEARNED,):
        def go():
            rng = stream(5, alg)
            if alg == LEARNED:
                return run_lde(w, _inst(3), Termination(400), SMALL, rng)
            return run_baseline(alg, _inst(3), Termination(400), SMALL, rng)
        a, b = go(), go()
        assert a.best_error == b.best_error
        assert a.error_trace == b.error_trace


def test_distinct_baselines_distinct_results():
    outs = {
        kind: run_baseline(kind, _inst(4), Termination(800), SMALL,
                           stream(7, kind)).best_error
        for kind in BASELINES
    }
    assert len(set(outs.values())) == 3


def test_rand1_mutation_pinned_draw_order():
    # three offset batches, r1 then r2 then r3, each shifted past i and the
    # earlier picks.  N = 4, offsets d1 = 0, d2 = 1, d3 = 0 for every i:
    #   i=0: r1 = 1, r2 = 1 -> past {0, 1} -> 3, r3 = 0 -> past {0, 1, 3} -> 2
    #   i=1: r1 = 0, r2 = 1 -> past {0, 1} -> 3, r3 = 0 -> past {0, 1, 3} -> 2
    #   i=2: r1 = 0, r2 = 1 -> past {0, 2} -> 3, r3 = 0 -> past {0, 2, 3} -> 1
    #   i=3: r1 = 0, r2 = 1 -> past {0, 3} -> 2, r3 = 0 -> past {0, 2, 3} -> 1
    # one-hot members make v_i = e_r1 + F (e_r2 - e_r3) readable.
    pop = Population(np.eye(4)[None], np.arange(4.0)[None])
    rng = ScriptedRng(ints=[[0, 0, 0, 0], [1, 1, 1, 1], [0, 0, 0, 0]])
    v = _mutate_rand1(pop, 0.5, [rng])[0]
    assert rng.exhausted()
    picks = [(1, 3, 2), (0, 3, 2), (0, 3, 1), (0, 2, 1)]
    want = np.zeros((4, 4))
    for i, (r1, r2, r3) in enumerate(picks):
        want[i, r1] += 1.0
        want[i, r2] += 0.5
        want[i, r3] -= 0.5
    np.testing.assert_array_equal(v, want)


def test_unknown_baseline_rejected():
    with pytest.raises(ValueError):
        run_baseline("cma_es", _inst(), Termination(100), SMALL, stream(0, "r"))


def test_lde_weight_dims_must_match_config():
    w = _weights(SMALL)
    bigger = RunConfig(pop_size=10, bins=2, window=3)
    with pytest.raises(ValueError):
        run_lde(w, _inst(), Termination(100), bigger, stream(0, "r"))
    odd_bins = RunConfig(pop_size=8, bins=3, window=3)
    with pytest.raises(ValueError):
        run_lde(w, _inst(), Termination(100), odd_bins, stream(0, "r"))


def test_lde_deterministic_mode_uses_head_means():
    w = _weights(SMALL)
    det = RunConfig(pop_size=8, bins=2, window=3, sample_actions=False)
    a = run_lde(w, _inst(5), Termination(240), det, stream(1, "r"))
    b = run_lde(w, _inst(5), Termination(240), det, stream(2, "r"))
    # different streams, but identical actions: only DE index draws differ
    assert a.algorithm_id == b.algorithm_id == "lde"
    # sampled mode from the same streams diverges from deterministic mode
    c = run_lde(w, _inst(5), Termination(240), SMALL, stream(1, "r"))
    assert c.best_error != a.best_error or c.error_trace != a.error_trace


def test_lde_result_fields():
    res = run_lde(_weights(SMALL), _inst(6), Termination(160), SMALL,
                  stream(0, "r"), run_seed=4)
    assert res.algorithm_id == "lde"
    assert res.function_id == _inst(6).id
    assert res.seed == 4
    assert res.best_error >= 0.0


def test_lde_solves_sphere_dim2_within_budget():
    inst = make_suite(0, 2, 1, 0).train[0]
    assert inst.base == "sphere"
    cfg = RunConfig()  # pop 20, bins 5
    w = init_weights(8, cfg.pop_size + 2 * cfg.bins, cfg.pop_size, stream(0, "w"))
    res = run_lde(w, inst, Termination(4000), cfg, stream(0, "r"))
    assert res.best_error <= 1e-8


def test_random_params_baseline_spread():
    # per-individual uniform resampling: trial params leave the fixed point
    cfg = RunConfig(pop_size=8, bins=2, window=3, track_params=True)
    res = run_baseline("random_params", _inst(7), Termination(8 * 30), cfg,
                       stream(4, "r"))
    mfs = np.array([row[2] for row in res.param_trace])
    mcrs = np.array([row[3] for row in res.param_trace])
    assert mfs.std() > 0 and mcrs.std() > 0
    assert np.all(mfs > 0) and np.all(mfs <= 1.0)
    assert np.all(mcrs >= 0) and np.all(mcrs <= 1.0)


# ---------------------------------------------------------------- batch
def test_batch_experiment_shape_and_order(tmp_path):
    fns = make_suite(0, 2, 2, 0).train
    cfg = RunConfig(pop_size=8, bins=2, window=3)
    res = batch_experiment(["de_rand1_fixed", "random_params"], fns, 3,
                           Termination(80), cfg, 11, out_dir=tmp_path)
    assert len(res) == 2 * 2 * 3
    keys = [(r.algorithm_id, r.function_id, r.seed) for r in res]
    assert keys == sorted(keys, key=lambda k: (k[0] != "de_rand1_fixed", k[1], k[2]))
    assert (tmp_path / "results.csv").exists()
    lines = (tmp_path / "results.csv").read_text().splitlines()
    assert lines[0] == "algorithm_id,function_id,seed,best_error,evals_used"
    assert len(lines) == 1 + 12
    traces = list((tmp_path / "traces").glob("*.csv"))
    assert len(traces) == 12


def test_batch_experiment_rerun_is_byte_identical(tmp_path):
    fns = make_suite(0, 2, 1, 0).train
    cfg = RunConfig(pop_size=8, bins=2, window=3)
    outs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        batch_experiment(["random_params"], fns, 2, Termination(80), cfg, 3,
                         out_dir=d)
        outs.append((d / "results.csv").read_bytes())
    assert outs[0] == outs[1]


def test_batch_experiment_jobs_do_not_change_output(tmp_path):
    fns = make_suite(0, 2, 1, 0).train
    cfg = RunConfig(pop_size=8, bins=2, window=3)
    blobs = []
    for jobs, sub in ((1, "j1"), (4, "j4")):
        d = tmp_path / sub
        batch_experiment(BASELINES, fns, 2, Termination(80), cfg, 3,
                         jobs=jobs, out_dir=d)
        blobs.append((d / "results.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_batch_experiment_validates_inputs(tmp_path):
    fns = make_suite(0, 2, 1, 0).train
    with pytest.raises(ValueError):
        batch_experiment(["lde"], fns, 1, Termination(80), SMALL, 0,
                         out_dir=tmp_path)  # no weights
    with pytest.raises(ValueError):
        batch_experiment(["nope"], fns, 1, Termination(80), SMALL, 0,
                         out_dir=tmp_path)
    with pytest.raises(ValueError):
        batch_experiment(BASELINES, fns, 0, Termination(80), SMALL, 0,
                         out_dir=tmp_path)
