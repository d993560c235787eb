"""Run harness: budget compliance, traces, baselines, batch orchestration."""

import hashlib
import json

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
    random_sheet,
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
        "6fe66bbd7e783e30e2bb1f678dd6926aa1c8fc734ca804c4ddeebb8ababa9a28",
    ("test-00-sphere", "lde-deterministic"):
        "e38d78960746e2dd6d5d69b3e719750cb9937196e3b73162af4387a63b1ee405",
    ("test-00-sphere", "de_rand1_fixed"):
        "9d2436dea60021b3d887f92b5b748bac7ec8223292820125b83fbd909149639a",
    ("test-00-sphere", "ctpb_fixed"):
        "00d54c94b38403b167e9cf6f7470031e4f47e18b53e66e8d4e15a2f6964070b2",
    ("test-00-sphere", "random_params"):
        "65aee299eca13dd5ded4759779379d472a396a101f4c8599ac4b4f9fb14af0da",
    ("test-01-rastrigin", "lde"):
        "6747e0a5ade9ebb3709706f52d399dca95f34b76d144f90c69c584cf9ab2dcf5",
    ("test-01-rastrigin", "lde-deterministic"):
        "ecf343f567b7c54f2aa7d16ebafaf0e1f6022299662ff355926f266158686b94",
    ("test-01-rastrigin", "de_rand1_fixed"):
        "b9363b9a29c843cf5cd09646bbbb0c70bfc88a1740d11f5621b254d0d2266cf2",
    ("test-01-rastrigin", "ctpb_fixed"):
        "afbc8f794dec744ec8fe7153feace84ee5f0136330b13b942d4ed6caa24128ef",
    ("test-01-rastrigin", "random_params"):
        "5a1c29605d2c71a28bee58a1c8aa2fa765058aebd07e91393cd4265fd3c6e56c",
    ("test-02-ellipsoid", "lde"):
        "a8084906f8b65fd4ba7e5e486650197ad7db13f4df54d8cd06d8048c8103317f",
    ("test-02-ellipsoid", "lde-deterministic"):
        "537200776e51fff23d7574019151399f5894c705645bfbb341fab02bf2bc6525",
    ("test-02-ellipsoid", "de_rand1_fixed"):
        "0665599052f7167fa96c4569f661ae26c409ad61e34382dab7f2104d561949dc",
    ("test-02-ellipsoid", "ctpb_fixed"):
        "4058f56493eb5f8c123d7e33358a128002fcad85a83f7dc16b4657d173140401",
    ("test-02-ellipsoid", "random_params"):
        "07587038d45314bd9ccc82e7eb2293bc8775a9a61e112a4f1383a92cfc144169",
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
def _final_state(rng):
    return json.dumps(rng.bit_generator.state, default=lambda a: a.tolist(), sort_keys=True)


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
    cases = [  # (instance, config, termination, generator)
        (ellipsoid, RunConfig(), Termination(20000), lambda: stream(0, "chunk", kind)),  # stops at tol
        (rastrigin, RunConfig(), Termination(2990), lambda: stream(0, "chunk", kind)),   # at budget
        (_inst(dim=2), RunConfig(pop_size=7), Termination(1000),                         # odd k for
         lambda: stream(2, "chunk", kind)),                                              # pbest
        (ellipsoid, RunConfig(), Termination(3000),
         lambda: np.random.Generator(np.random.MT19937(3))),                             # not PCG64
    ]
    outcomes = {}
    for chunk in (1, 7, 64):
        monkeypatch.setattr(de_core, "CHUNK_GENERATIONS", chunk)
        got = []
        for inst, cfg, term, make_rng in cases:
            rng = make_rng()
            res = _run_kind(kind, inst, term, cfg, rng)
            got.append((res.error_trace, res.best_error, res.evals_used, _final_state(rng)))
        outcomes[chunk] = got
    assert outcomes[1] == outcomes[7] == outcomes[64]
    assert outcomes[1][0][2] < 20000 and outcomes[1][1][2] == 2980


def test_a_run_stopped_at_the_tolerance_mid_chunk_rewinds_its_unused_draws():
    inst = make_suite(0, 3, 0, 3).test[2]  # each baseline stops at 1e-8 past its first chunk
    cfg = RunConfig()
    N, n = cfg.pop_size, inst.dim
    for kind, live in (("de_rand1_fixed", 4), ("ctpb_fixed", 3), ("random_params", 3)):
        rng = stream(0, "chunk", kind)
        res = run_baseline(kind, inst, Termination(20000), cfg, rng)
        generations = res.evals_used // N - 1
        assert res.best_error <= 1e-8 and generations > de_core.CHUNK_GENERATIONS
        assert generations % de_core.CHUNK_GENERATIONS
        # per generation: random_params' 2N sheet uniforms, N integers per
        # bound above 1 (two to a 64-bit output), N (n - 1) crossover uniforms
        width = (2 * N if kind == "random_params" else 0) + live * N // 2 + N * (n - 1)
        fresh = stream(0, "chunk", kind)
        fresh.bit_generator.advance(N * n + generations * width)  # start population first
        assert rng.bit_generator.state == fresh.bit_generator.state


def test_an_lde_run_stopped_at_the_tolerance_mid_chunk_replays_its_kept_draws():
    inst = make_suite(0, 3, 0, 3).test[2]
    cfg = RunConfig()
    N, n = cfg.pop_size, inst.dim
    rng = stream(0, "chunk", LEARNED)
    res = run_lde(_weights(cfg), inst, Termination(20000), cfg, rng)
    generations = res.evals_used // N - 1
    assert res.best_error <= 1e-8 and generations > de_core.CHUNK_GENERATIONS
    assert generations % de_core.CHUNK_GENERATIONS
    # a fresh stream, one generation at a time through the generator's own
    # calls: the start population, then per generation the action's 2N
    # normals and evolve's integers and crossover uniforms
    fresh = stream(0, "chunk", LEARNED)
    fresh.uniform(*inst.bounds, size=(N, n))
    for _ in range(generations):
        fresh.standard_normal(2 * N)
        for h in de_core.pbest_highs(N, n, cfg.p_best):
            fresh.integers(0, h, size=N)
        fresh.random((N, n - 1))
    # uinteger is left out: the own calls keep a spent half-word there, unread
    # while has_uint32 is 0
    got, want = rng.bit_generator.state, fresh.bit_generator.state
    assert (got["state"], got["has_uint32"]) == (want["state"], want["has_uint32"]) \
        and want["has_uint32"] == 0


def test_random_sheet_is_numpys_uniform_bit_for_bit():
    # random_params forms its sheet from raw doubles as numpy's uniform does;
    # a numpy whose C code fuses low + range * double into one FMA would
    # round differently, and chunked runs would then drift from the bits
    # of the generator's own uniform calls
    N = 50_000
    for f_min in (RunConfig().f_min, 0.3, 0.9):
        sheet = random_sheet(stream(0, "sheet").random((1, 2 * N)), N, f_min)
        rng = stream(0, "sheet")
        F, CR = rng.uniform(f_min, 1.0, size=(1, N)), rng.uniform(0.0, 1.0, size=(1, N))
        bad = np.flatnonzero(sheet.F != F)
        assert bad.size == 0, (
            f"numpy's uniform({f_min}, 1.0) is not low + (high - low) * double at {bad.size} "
            f"of {N} draws (first: {F[0, bad[0]]!r} against {sheet.F[0, bad[0]]!r}); this numpy "
            "build rounds uniform differently, so random_params' chunked sheets would change bits")
        np.testing.assert_array_equal(sheet.CR, CR)
