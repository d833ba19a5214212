"""Acceptance gate: ten end-to-end criteria, one test (and one pass/fail
line under ``pytest -v``) per criterion, at the stated tolerances.

Each test is self-contained and verifies against an independent oracle
(scalar re-implementations, brute-force sweeps, finite differences, or
hand-computed constants) rather than against the library's own output.
"""

import math
import statistics
import time

import numpy as np
import pytest

from oracles import finite_diff_grad, kl_sweep_brute
from ptqtune import (OpTrace, QuantConfig, Scheme, TargetProfile,
                     build_cache, dequantize_array, enumerate_space,
                     evaluate_top1, extract_features, feature_importance,
                     make_accuracy_evaluator, model_size, predict,
                     quantize_array, quantize_model, recipe_feature_counts,
                     run_integer_only, run_quantized, run_strategy, train)
from ptqtune.analysis import diversity_report, shannon_entropy
from ptqtune.calibration import N_BINS
from ptqtune.gbt import grad_hess, leaf_weight
from ptqtune.schemes import params_for_range
from ptqtune.tuner import TuningRecord

GENERIC = TargetProfile("Generic")


def report(n, text):
    print(f"criterion {n}: PASS - {text}")


# --------------------------------------------------------------------------
def test_criterion_01_scheme_round_trip_within_half_step():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240817)
    n_values = 100_000
    # |v| <= 12 keeps float32 representation error (|v| * 2^-24 <= 8e-7)
    # inside the 1e-6 slack; the bound is absolute, so unbounded magnitudes
    # would violate it under any finite-precision dequantization
    for scheme in Scheme:
        for _ in range(10):
            a, b = np.sort(rng.uniform(-12.0, 12.0, size=2))
            if scheme == Scheme.SymmetricUint8 and rng.random() < 0.5:
                a, b = np.sort(rng.uniform(0.0, 12.0, size=2))  # unsigned branch
            p = params_for_range(scheme, float(a), float(b))
            v = rng.uniform(a, b, size=n_values)
            err = np.abs(dequantize_array(quantize_array(v, p), p) - v)
            smax = float(np.max(np.atleast_1d(p.scale)))
            assert err.max() <= smax / 2 + 1e-6, (scheme, a, b, err.max())
            # real zero is always exactly representable ...
            z = quantize_array(np.array([0.0]), p)
            assert float(dequantize_array(z, p)[0]) == 0.0
            # ... and the symmetric family puts it on code 0
            if scheme in (Scheme.Symmetric, Scheme.SymmetricPower2):
                assert int(z[0]) == 0
    took = time.perf_counter() - t0
    assert took < 10.0
    report(1, f"4 schemes x 10 ranges x 1e5 values within scale/2 + 1e-6 "
              f"({took:.1f}s)")


# --------------------------------------------------------------------------
def test_criterion_02_power_of_two_scales():
    rng = np.random.default_rng(5)
    max_abs_values = np.concatenate([
        rng.uniform(1e-6, 1e6, size=500),
        [127.0, 100.0, 1.0, 0.5, 2.0**-20, 2.0**17, 12.7],
        np.nextafter([1.0, 2.0, 4.0], 10.0),
        np.nextafter([1.0, 2.0, 4.0], 0.0),
    ])
    for ma in max_abs_values:
        s2 = float(params_for_range(Scheme.SymmetricPower2, 0.0, float(ma)).scale)
        ss = float(params_for_range(Scheme.Symmetric, 0.0, float(ma)).scale)
        k = math.log2(s2)
        assert k == round(k), f"log2({s2}) not integral"
        assert 1.0 <= s2 / ss < 2.0, f"ratio {s2 / ss} outside [1, 2)"
    report(2, f"{len(max_abs_values)} ranges: integral log2, ratio in [1,2)")


# --------------------------------------------------------------------------
def test_criterion_03_integer_only_bitwise(lenet, resnet, mobile, ds):
    cfg = QuantConfig(cache="S2", scheme=Scheme.SymmetricPower2,
                      clipping="Max", granularity="Tensor", mixed="Off")
    for g in (lenet, resnet, mobile):
        cache = build_cache(g, ds, "S2", seed=0)
        qg = quantize_model(g, cache, cfg)
        trace = OpTrace()
        codes = run_integer_only(qg, ds.eval_images, trace=trace)
        assert trace.float_ops() == 0, f"{g.name}: float ops in integer path"
        sim_codes = run_quantized(qg, ds.eval_images, return_codes=True)
        assert np.array_equal(codes, sim_codes), g.name
        # identical codes under identical params give identical logits
        out_p = qg.act_params[g.output_tensor()]
        assert np.array_equal(dequantize_array(codes, out_p),
                              run_quantized(qg, ds.eval_images))
    report(3, "3 fixtures: zero float ops, logits bitwise equal to simulation")


# --------------------------------------------------------------------------
def test_criterion_04_kl_equals_brute_force_sweep():
    from ptqtune import TensorHistogram, clip_range_kl

    rng = np.random.default_rng(41)
    histograms = []
    for i in range(7):  # Gaussian
        histograms.append(rng.normal(i - 3, 1 + 0.3 * i, size=6000))
    for i in range(6):  # uniform
        histograms.append(rng.uniform(-1 - i, 2 + i, size=6000))
    for i in range(7):  # outlier-injected
        bulk = rng.normal(0, 1, size=6000)
        spikes = rng.choice([-90.0, 70.0, 120.0], size=1 + i % 3)
        histograms.append(np.concatenate([bulk, spikes]))
    assert len(histograms) == 20

    for idx, vals in enumerate(histograms):
        lo, hi = float(vals.min()), float(vals.max())
        counts, _ = np.histogram(vals, bins=N_BINS, range=(lo, hi))
        h = TensorHistogram(tensor_id=f"h{idx}", min_seen=lo, max_seen=hi,
                            bin_counts=counts.astype(np.int64))
        got = clip_range_kl(h)
        _, _, blo, bhi = kl_sweep_brute(counts, lo, hi)
        assert got == (blo, bhi), f"histogram {idx}: {got} != {(blo, bhi)}"
    report(4, "20/20 histograms equal the brute-force sweep exactly")


# --------------------------------------------------------------------------
def test_criterion_05_space_cardinalities():
    generic = enumerate_space(TargetProfile("Generic"))
    intonly = enumerate_space(TargetProfile("IntegerOnly"))
    assert len(generic) == 96 and len(set(generic)) == 96
    assert len(intonly) == 12 and len(set(intonly)) == 12
    report(5, "Generic=96, IntegerOnly=12, all distinct")


# --------------------------------------------------------------------------
def test_criterion_06_gbt_correctness():
    # (a) analytic gradients vs central finite differences
    rng = np.random.default_rng(6)
    loss = lambda y, p: (p - y) ** 2
    for y, yhat in rng.normal(scale=3, size=(50, 2)):
        g, _ = grad_hess(y, yhat)
        assert abs(float(g) - finite_diff_grad(loss, y, yhat)) <= 1e-6

    # (b) training RMSE non-increasing per tree
    X = rng.uniform(-3, 3, size=(150, 6))
    y = np.tanh(X[:, 1]) + 0.5 * X[:, 4] + 0.05 * rng.standard_normal(150)
    m = train(X, y, n_trees=40, max_depth=4)
    from ptqtune.gbt import _predict_tree
    yhat, prev = np.zeros(len(y)), math.inf
    for tree in m.trees:
        yhat = yhat + m.hyper["eta"] * _predict_tree(tree, X)
        rmse = float(np.sqrt(np.mean((yhat - y) ** 2)))
        assert rmse <= prev + 1e-12
        prev = rmse

    # (c) leaf weight closed form
    assert leaf_weight(4.0, 2.0, 1.0) == -4.0 / 3.0
    for G, H, lam in rng.uniform(0.01, 20, size=(100, 3)):
        assert leaf_weight(G, H, lam) == -G / (H + lam)

    # (d) single-feature target fitted to 1e-3 in 50 trees, < 5 s
    t0 = time.perf_counter()
    Xs = rng.uniform(0, 1, size=(200, 5))
    ys = np.where(Xs[:, 3] > 0.4, 1.5, -0.5)
    ms = train(Xs, ys, n_trees=50, max_depth=3)
    rmse = float(np.sqrt(np.mean((predict(ms, Xs) - ys) ** 2)))
    took = time.perf_counter() - t0
    assert rmse < 1e-3 and took < 5.0
    assert feature_importance(ms)[0][0] == 3
    report(6, f"gradients@1e-6, monotone RMSE, closed-form leaves, "
              f"1-feature fit rmse={rmse:.2e} in {took:.2f}s")


# --------------------------------------------------------------------------
def _table(noise_seed, sigma=0.01):
    """Frozen 96-point response surface: two dominant dimensions (cache and
    clipping) plus minor effects and seeded noise."""
    rng = np.random.default_rng(noise_seed)
    space = enumerate_space(GENERIC)
    table = {}
    for cfg in space:
        v = (0.55 + 0.25 * (cfg.cache == "S3")
             + 0.12 * (cfg.clipping == "Max")
             + 0.03 * (cfg.mixed == "FirstLastFp32")
             + 0.02 * (cfg.scheme == Scheme.Asymmetric)
             + 0.005 * (cfg.granularity == "Channel"))
        table[cfg] = v + sigma * rng.standard_normal()
    return space, table


def test_criterion_07_guided_search_speedup():
    t0 = time.perf_counter()
    feats = recipe_feature_counts("lenet-ish")
    donor_feats = recipe_feature_counts("resnet-toy")
    _, donor_table = _table(noise_seed=7777)
    donor_db = [TuningRecord(model_name="donor", features=donor_feats,
                             config=c, top1=v, timestamp=0.0, trial=i + 1)
                for i, (c, v) in enumerate(donor_table.items())]

    budget, n_seeds = 32, 50
    ttb = {"random": [], "grid": [], "xgb": [], "xgb-t": []}
    for seed in range(n_seeds):
        space, table = _table(noise_seed=1000 + seed)
        ev = table.__getitem__
        ttb["random"].append(run_strategy("random", feats, space, ev, budget, seed=seed)
                             .trials_to_best)
        ttb["grid"].append(run_strategy("grid", feats, space, ev, budget).trials_to_best)
        ttb["xgb"].append(run_strategy("xgb", feats, space, ev, budget, seed=seed)
                          .trials_to_best)
        ttb["xgb-t"].append(run_strategy("xgb-t", feats, space, ev, budget, seed=seed,
                                         seed_db=donor_db).trials_to_best)
    med = {k: statistics.median(v) for k, v in ttb.items()}
    took = time.perf_counter() - t0
    assert med["xgb"] < med["random"], med
    assert med["xgb"] < med["grid"], med
    assert med["xgb-t"] < med["xgb"], med
    assert took < 120.0
    report(7, f"median trials-to-best over {n_seeds} paired seeds: "
              f"xgb-t={med['xgb-t']} < xgb={med['xgb']} < "
              f"random={med['random']}, grid={med['grid']} ({took:.0f}s)")


# --------------------------------------------------------------------------
def test_criterion_08_tuned_quality_on_fixture_suite(lenet, resnet, mobile, ds):
    t0 = time.perf_counter()
    space = enumerate_space(GENERIC)
    lines = []
    for g in (lenet, resnet, mobile):
        fp32_top1 = evaluate_top1(g, ds).top1
        measure = make_accuracy_evaluator(g, ds, seed=0, profile=GENERIC)
        memo: dict[QuantConfig, float] = {}

        def ev(cfg, _m=measure, _memo=memo):
            if cfg not in _memo:
                _memo[cfg] = _m(cfg)
            return _memo[cfg]

        result = run_strategy("xgb", extract_features(g), space, ev,
                              budget=96, seed=0, model_name=g.name)
        exhaustive_best = max(memo.values())
        assert len(memo) == 96  # budget 96 really explored the whole space
        assert result.best_top1 == exhaustive_best
        drop_pts = (fp32_top1 - result.best_top1) * 100.0
        assert drop_pts <= 1.0, f"{g.name}: drop {drop_pts:.2f}pts"
        lines.append(f"{g.name} drop={drop_pts:.2f}pts")
    took = time.perf_counter() - t0
    assert took < 300.0
    report(8, f"{'; '.join(lines)}; best == exhaustive optimum ({took:.0f}s)")


# --------------------------------------------------------------------------
def test_criterion_09_entropy_analysis():
    assert abs(shannon_entropy([1, 1]) - 1.0) <= 1e-4
    assert abs(shannon_entropy([7, 0]) - 0.0) <= 1e-4
    assert abs(shannon_entropy([1, 3]) - 0.8113) <= 1e-4

    feats = recipe_feature_counts("lenet-ish")

    def rec(top1, **kw):
        return TuningRecord(model_name="m", features=feats,
                            config=QuantConfig(**kw), top1=top1,
                            timestamp=0.0, trial=1)

    db = [TuningRecord(model_name="m", features=feats, config=None,
                       top1=0.98, timestamp=0.0, trial=0),
          rec(0.975, cache="S1", clipping="Max", scheme=Scheme.Asymmetric),
          rec(0.974, cache="S1", clipping="Max", scheme=Scheme.Asymmetric),
          rec(0.973, cache="S2", clipping="Max", scheme=Scheme.Symmetric),
          rec(0.972, cache="S3", clipping="KL", scheme=Scheme.Asymmetric),
          rec(0.400, cache="S3", clipping="KL", scheme=Scheme.SymmetricPower2)]
    rep = diversity_report(db, threshold_pts=1.0)
    assert rep.n_samples == 4
    # hand-computed: caches 2/1/1, clipping 3/1, schemes 3/1/0/0, gran 4,
    # mixed 4 (all Off/Tensor)
    h_cache = -(0.5 * math.log2(0.5) + 2 * 0.25 * math.log2(0.25))
    h_clip = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
    assert abs(rep.entropy["cache"] - h_cache) <= 1e-6
    assert abs(rep.entropy["clipping"] - h_clip) <= 1e-6
    assert abs(rep.entropy["scheme"] - h_clip) <= 1e-6  # same 3:1 split
    assert rep.entropy["granularity"] == 0.0
    assert rep.entropy["mixed"] == 0.0
    report(9, "canonical entropies within 1e-4; engineered db within 1e-6")


# --------------------------------------------------------------------------
def _analytic_size(g, granularity, mixed):
    """Independent byte accounting: int8 codes (or 4-byte fp32 words for the
    first/last layers under mixed precision) + 8 bytes per parameter group
    at the configured granularity + 4 bytes per int32 bias word."""
    compute = g.compute_nodes()
    fp32_ids = {compute[0].id, compute[-1].id} if mixed == "FirstLastFp32" else set()
    total = 0
    for node in compute:
        w = g.weights[node.weight_id]
        total += 4 * w.size if node.id in fp32_ids else w.size
        total += 8 * (w.shape[0] if granularity == "Channel" else 1)
        if node.bias_id is not None:
            total += 4 * g.weights[node.bias_id].size
    return total


def test_criterion_10_model_size_ordering(lenet, resnet, mobile, ds):
    for g in (lenet, resnet, mobile):
        cache = build_cache(g, ds, "S1", seed=0)
        sizes = {}
        for gran in ("Tensor", "Channel"):
            for mixed in ("Off", "FirstLastFp32"):
                cfg = QuantConfig(cache="S1", scheme=Scheme.Symmetric,
                                  clipping="Max", granularity=gran, mixed=mixed)
                got = model_size(quantize_model(g, cache, cfg))
                assert got == _analytic_size(g, gran, mixed), (g.name, gran, mixed)
                sizes[(gran, mixed)] = got
        assert sizes[("Tensor", "Off")] <= sizes[("Channel", "Off")]
        assert sizes[("Channel", "Off")] <= sizes[("Channel", "FirstLastFp32")]
        assert sizes[("Tensor", "Off")] <= sizes[("Tensor", "FirstLastFp32")]
    report(10, "size(T) <= size(C) <= size(C+M), size(T) <= size(T+M); "
               "exact analytic byte counts on 3 fixtures x 4 configs")
