"""Run harness: budget compliance, traces, baselines, batch orchestration."""

import hashlib

import numpy as np
import pytest

from conftest import EvalCounter
from ldectl import de_core, runner
from ldectl.benchfn import make_suite
from ldectl.de_core import ParamSheet, Population, distinct_indices, mutate_rand1
from ldectl.neural import init_weights
from ldectl.rng import stream
from ldectl.runner import (
    BASELINES,
    LEARNED,
    RunConfig,
    Termination,
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
    cfg = RunConfig(pop_size=9, bins=2, window=3, param_traces=True)
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
    offsets = [np.array([row]) for row in ([0, 0, 0, 0], [1, 1, 1, 1], [0, 0, 0, 0])]
    sheet = ParamSheet(np.full((1, 4), 0.5), np.full((1, 4), 0.8))
    v = mutate_rand1(pop, sheet, np.stack(distinct_indices(offsets)))[0]  # one row: flat = r
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
    det = RunConfig(pop_size=8, bins=2, window=3, deterministic=True)
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
    cfg = RunConfig(pop_size=8, bins=2, window=3, param_traces=True)
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


def test_batch_experiment_refuses_a_budget_below_one_generation_before_any_file(tmp_path):
    fns = make_suite(0, 2, 1, 0).train
    with pytest.raises(ValueError, match="below one generation"):
        batch_experiment(["ctpb_fixed"], fns, 1, Termination(5), RunConfig(pop_size=20), 0,
                         out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


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
    for jobs in (0, -5):
        with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
            batch_experiment(BASELINES, fns, 1, Termination(80), SMALL, 0,
                             jobs=jobs, out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------- golden bits
# SHA-256 of repr(error_trace) per (function, algorithm): a dim-10 suite's
# first three test functions, a 2,000-evaluation budget, the desk spec
# (RunConfig defaults) and untrained weights of hidden size 32 seeded as
# `train --epochs 0` seeds them.  Any change to the bits of a generation
# step (featurise, controller, sampling, clipping, draws, mutation,
# crossover, repair, selection) moves at least one digest.
GOLDEN_TRACES = {
    ("test-00-sphere", "lde"):
        "ba26bb71b922200e036e9ff90f2106dea3e0a4a0d154a41c22ef3144013c6231",
    ("test-00-sphere", "lde-deterministic"):
        "33d5e81400b11b327965dd77c1a26ccb063a52d1807a24141417e14c333211db",
    ("test-00-sphere", "de_rand1_fixed"):
        "69d16d230757b5941047f9044b5266c6dd3ca9ca855be130135d87c3328a61d2",
    ("test-00-sphere", "ctpb_fixed"):
        "69dab2ef388f0c5040f78a0d60c0c0875f75c06436f7a8ba220dbdb3a9ae30b0",
    ("test-00-sphere", "random_params"):
        "675c38ed5c7939b32282f5baf381194c39a26f8b8aceed6cfae2f43f3ff7e0b1",
    ("test-01-rastrigin", "lde"):
        "58ba1e1384fe7afd75936b67618fb6f10e729a4d0a180c0102788bb895d8ce4d",
    ("test-01-rastrigin", "lde-deterministic"):
        "3f9c8cd9b25abd80e0fc152a057027960aa6a694b2d3aaa85fc8fb94b963ec98",
    ("test-01-rastrigin", "de_rand1_fixed"):
        "66fbecd9938732f9f6b1e27783211ec72a3b26590a96181f9e60e533ae1ea859",
    ("test-01-rastrigin", "ctpb_fixed"):
        "c0de94b1d7b1eb96eb1ea09afe9b7ae91a31ff96e8a14252ed1d8db2813c70ee",
    ("test-01-rastrigin", "random_params"):
        "ea09b2de129e3c7be98919c37e165a55ee1a02d1d721f952374b18fdc85474ec",
    ("test-02-ellipsoid", "lde"):
        "bf4bb958d45be72ef52b3be43a2d82fae38ace505e9934c5d7144372d5320bfe",
    ("test-02-ellipsoid", "lde-deterministic"):
        "05708ac7823934157da4b3f334fee6ac879e36a14e2814745e787cada15d71df",
    ("test-02-ellipsoid", "de_rand1_fixed"):
        "dd015be08bf4fe546e42faaad9a0312f4b85b860fb0aff0f8cc3f437f8c96629",
    ("test-02-ellipsoid", "ctpb_fixed"):
        "3f98e955fa661d053c8655128a0ace05c1acb31484eed07ad6f05d3fc64462be",
    ("test-02-ellipsoid", "random_params"):
        "73d1320b0da86ae2369359a7837ba447470642291585034051a3c92c71379da0",
}


def test_batch_of_one_runs_keep_their_bits():
    cfg = RunConfig()
    w = init_weights(32, cfg.input_size, cfg.pop_size, stream(0, "weights"))
    det = RunConfig(deterministic=True)
    term = Termination(2000)
    got = {}
    for inst in make_suite(0, 10, 0, 3).test:
        def rng(alg):
            return stream(0, "run", alg, inst.id, 0)
        runs = {"lde": run_lde(w, inst, term, cfg, rng(LEARNED)),
                "lde-deterministic": run_lde(w, inst, term, det, rng(LEARNED))}
        for kind in BASELINES:
            runs[kind] = run_baseline(kind, inst, term, cfg, rng(kind))
        for alg, res in runs.items():
            assert res.evals_used == 2000
            got[inst.id, alg] = hashlib.sha256(repr(res.error_trace).encode()).hexdigest()
    assert got == GOLDEN_TRACES


# ---------------------------------------------------------------- chunked draws
def _run_kind(kind, inst, term, cfg, rng):
    """A baseline run, or an lde run (untrained weights), sampled or with
    ``-deterministic`` its head means."""
    if kind.startswith(LEARNED):
        cfg = RunConfig(**cfg.spec_dict(), deterministic=kind != LEARNED)
        return run_lde(_weights(cfg), inst, term, cfg, rng)
    return run_baseline(kind, inst, term, cfg, rng)


@pytest.mark.parametrize("kind", BASELINES + (LEARNED, "lde-deterministic"))
def test_the_chunk_size_does_not_change_a_run(kind, monkeypatch):
    ellipsoid, rastrigin = make_suite(0, 3, 0, 3).test[2], make_suite(0, 3, 0, 3).test[1]
    cases = [  # (instance, config, termination, generator seed)
        (ellipsoid, RunConfig(), Termination(20000), 0),    # stops at tol part way through a chunk
        (rastrigin, RunConfig(), Termination(1490), 0),     # spends the budget
        (_inst(dim=2), RunConfig(pop_size=7), Termination(1000), 2),  # odd N
    ]
    outcomes = {}
    for chunk in (1, 7, 64):
        monkeypatch.setattr(de_core, "CHUNK_GENERATIONS", chunk)
        got = []
        for inst, cfg, term, seed in cases:
            res = _run_kind(kind, inst, term, cfg, stream(seed, "chunk", kind))
            got.append((res.error_trace, res.best_error, res.evals_used))
        outcomes[chunk] = got
    assert outcomes[1] == outcomes[7] == outcomes[64]
    assert outcomes[1][0][2] < 20000 and outcomes[1][1][2] == 1480
