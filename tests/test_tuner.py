import json
import re
import time
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from ptqtune import (IntegerOnlyError, QuantConfig, Scheme, TargetProfile, build_cache,
                     check_integer_only, enumerate_space, evaluate_quantized, load_db,
                     make_accuracy_evaluator, make_dataset, quantize_model, record_db,
                     recipe_feature_counts, run_strategy, tuner)
from ptqtune.gbt import FEATURE_NAMES, encode
from ptqtune.quantize import CACHE_SIZES
from ptqtune.tuner import (GENERIC, INTEGER_ONLY, PROFILES, STRATEGIES, TuningRecord,
                           _check_request)

FEATS = recipe_feature_counts("lenet-ish")


def table_evaluator(noise_seed=0, sigma=0.0):
    """Deterministic response surface dominated by clipping and mixed."""
    rng = np.random.default_rng(noise_seed)
    memo = {}

    def evaluate(cfg: QuantConfig) -> float:
        if cfg not in memo:
            v = (0.55 + 0.25 * (cfg.clipping == "Max")
                 + 0.12 * (cfg.mixed == "FirstLastFp32")
                 + 0.02 * (cfg.scheme == Scheme.Asymmetric)
                 + 0.01 * (cfg.cache == "S3")
                 + 0.005 * (cfg.granularity == "Channel"))
            memo[cfg] = v + (sigma * rng.standard_normal() if sigma else 0.0)
        return memo[cfg]

    return evaluate


SPACE = enumerate_space(TargetProfile("Generic"))


# ------------------------------------------------------------------- spaces

def test_generic_space_has_96_points():
    assert len(SPACE) == 96
    assert len(set(SPACE)) == 96
    assert all(not c.fusion for c in SPACE)


def test_integer_only_space_has_12_points():
    space = enumerate_space(TargetProfile("IntegerOnly"))
    assert len(space) == 12
    for c in space:
        assert c.scheme is Scheme.SymmetricPower2
        assert c.granularity == "Tensor" and c.mixed == "Off"
    assert sum(c.fusion for c in space) == 6


def test_profile_membership():
    gen, intonly = PROFILES["generic"], PROFILES["integer-only"]
    assert all(gen.contains(c) for c in SPACE)
    assert not gen.contains(QuantConfig(fusion=True))
    assert intonly.contains(QuantConfig(scheme=Scheme.SymmetricPower2))
    assert not intonly.contains(QuantConfig(scheme=Scheme.Symmetric))
    with pytest.raises(ValueError):
        TargetProfile("DSP").contains(QuantConfig())
    with pytest.raises(ValueError):
        enumerate_space(TargetProfile("DSP"))


# the space as written out by hand, in enumeration and encoding order
CACHES = ("S1", "S2", "S3")
SCHEMES = ("Asymmetric", "Symmetric", "SymmetricUint8", "SymmetricPower2")
CLIPPINGS = ("Max", "KL")
GRANULARITIES = ("Tensor", "Channel")
MIXED = ("Off", "FirstLastFp32")
FUSION = (False, True)


def literal_config(cache, scheme, clipping, granularity, mixed, fusion):
    return QuantConfig(cache=cache, scheme=scheme, clipping=clipping,
                       granularity=granularity, mixed=mixed, fusion=fusion)


def test_spaces_and_encoding_are_pinned():
    generic = [literal_config(*v, False)
               for v in product(CACHES, SCHEMES, CLIPPINGS, GRANULARITIES, MIXED)]
    intonly = [literal_config(c, "SymmetricPower2", cl, "Tensor", "Off", f)
               for c, cl, f in product(CACHES, CLIPPINGS, FUSION)]
    assert enumerate_space(GENERIC) == generic
    assert enumerate_space(INTEGER_ONLY) == intonly
    names = ([f"cache={v}" for v in CACHES] + [f"scheme={v}" for v in SCHEMES]
             + [f"clipping={v}" for v in CLIPPINGS]
             + [f"granularity={v}" for v in GRANULARITIES]
             + [f"mixed={v}" for v in MIXED] + ["fusion=Off", "fusion=On"])
    assert list(FEATURE_NAMES[:15]) == names
    for c in generic + intonly:
        fields = (c.cache, c.scheme.value, c.clipping, c.granularity, c.mixed, c.fusion)
        onehot = [float(x == v) for x, values in
                  zip(fields, (CACHES, SCHEMES, CLIPPINGS, GRANULARITIES, MIXED, FUSION))
                  for v in values]
        assert encode(FEATS, c)[:15].tolist() == onehot


def test_check_integer_only_rejects_what_the_profile_rejects(lenet, lenet_cache_s2):
    qg = quantize_model(lenet, lenet_cache_s2,
                        QuantConfig(cache="S2", scheme=Scheme.SymmetricPower2))
    combos = list(product(CACHES, SCHEMES, CLIPPINGS, GRANULARITIES, MIXED, FUSION))
    assert len(combos) == 192
    for v in combos:
        c = literal_config(*v)
        try:
            check_integer_only(replace(qg, config=c))
            accepted = True
        except IntegerOnlyError:
            accepted = False
        assert accepted == INTEGER_ONLY.contains(c)
        assert accepted == ((c.scheme.value, c.granularity, c.mixed)
                             == ("SymmetricPower2", "Tensor", "Off"))
    with pytest.raises(IntegerOnlyError, match=r"^integer-only execution requires "
                       r"scheme=SymmetricPower2, granularity=Tensor, mixed=Off; "
                       r"got Asymmetric/Channel/Off$"):
        check_integer_only(replace(qg, config=QuantConfig(granularity="Channel")))


def test_space_guardrails():
    with pytest.raises(ValueError):
        _check_request("random", FEATS, [], 1, None)
    with pytest.raises(ValueError):
        _check_request("random", FEATS, SPACE, 0, None)
    with pytest.raises(ValueError):
        _check_request("random", FEATS, SPACE, 97, None)
    with pytest.raises(ValueError):
        _check_request("random", FEATS, [SPACE[0], SPACE[0]], 1, None)
    with pytest.raises(ValueError, match="unknown strategy 'annealing'"):
        _check_request("annealing", FEATS, SPACE, 1, None)
    for seed_db in (None, []):
        with pytest.raises(ValueError, match="xgb-t requires a transfer database"):
            _check_request("xgb-t", FEATS, SPACE, 1, seed_db)
    _check_request("xgb-t", FEATS, SPACE, 96, donor_db())
    with pytest.raises(ValueError, match="^workers 0 is not >= 1$"):
        _check_request("random", FEATS, SPACE, 4, None, 0)


def test_xgb_needs_model_features_before_any_trial():
    def never(cfg):
        raise AssertionError("measured")
    for strategy in ("xgb", "xgb-t"):
        with pytest.raises(ValueError, match=f"^{strategy} requires model features$"):
            run_strategy(strategy, None, SPACE, never, budget=4, seed_db=donor_db())
    bare = donor_db()
    bare[2] = replace(bare[2], features=None)
    bare.append(TuningRecord("donor", None, None, 0.9, 0.0, 0))  # a baseline row is not read
    with pytest.raises(ValueError, match=r"^xgb-t transfer records of trials \[3\] have no "
                                         r"model features$"):
        run_strategy("xgb-t", FEATS, SPACE, never, budget=4, seed_db=bare)
    run_strategy("random", None, SPACE, lambda cfg: 0.5, budget=2)


@pytest.mark.parametrize("workers", [0, -2])
def test_run_strategy_rejects_fewer_than_one_worker(workers):
    def never(cfg):
        raise AssertionError("measured")

    with pytest.raises(ValueError, match=f"^workers {workers} is not >= 1$"):
        run_strategy("random", FEATS, SPACE, never, budget=4, workers=workers)


# ------------------------------------------------------------- common rules

@pytest.mark.parametrize("strategy", STRATEGIES)
def test_full_budget_finds_the_exhaustive_optimum(strategy):
    ev = table_evaluator()
    best = max(ev(c) for c in SPACE)
    kw = {"seed_db": donor_db()} if strategy == "xgb-t" else {}
    r = run_strategy(strategy, FEATS, SPACE, ev, budget=96, **kw)
    assert len(r.trials) == 96
    assert r.best_top1 == best
    assert ev(r.best_config) == best
    # no configuration measured twice
    assert len({t.config for t in r.trials}) == 96
    assert [t.trial for t in r.trials] == list(range(1, 97))


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("space, budget, match", [
    (SPACE, 0, r"budget 0 not in \[1, 96\]"),
    (SPACE, 97, r"budget 97 not in \[1, 96\]"),
    (SPACE + SPACE[:1], 4, "search space contains duplicates"),
], ids=["budget-0", "budget-97", "duplicate"])
def test_budget_and_space_checks_guard_every_strategy(strategy, space, budget, match):
    calls = []
    kw = {"seed_db": donor_db()} if strategy == "xgb-t" else {}
    with pytest.raises(ValueError, match=match):
        run_strategy(strategy, FEATS, space, calls.append, budget, **kw)
    assert calls == []  # checked before the first measurement


def test_trials_to_best_is_first_hit():
    scores = iter([0.2, 0.9, 0.9, 0.1])
    r = run_strategy("random", FEATS, SPACE[:4], lambda c: next(scores), budget=4, seed=0)
    assert r.best_top1 == 0.9
    assert r.trials_to_best == 2


def test_failed_measurement_scores_zero_and_flags_error():
    bad, nan = SPACE[7], SPACE[9]

    def ev(cfg):
        if cfg == bad:
            raise RuntimeError("quantization exploded")
        return float("nan") if cfg == nan else 0.5

    r = run_strategy("grid", FEATS, SPACE, ev, budget=96)
    rec = next(t for t in r.trials if t.config == bad)
    assert rec.error and rec.top1 == 0.0
    # a NaN score is a failed trial too, so no NaN reaches the surrogate or the db
    rec = next(t for t in r.trials if t.config == nan)
    assert rec.error and rec.top1 == 0.0
    assert rec.error_msg == "ValueError: top1 nan is not finite"
    assert "NaN" not in "".join(t.to_json() for t in r.trials)
    assert sum(t.error for t in r.trials) == 2


def test_random_is_seed_deterministic_and_seed_sensitive():
    ev = table_evaluator()
    a = run_strategy("random", FEATS, SPACE, ev, budget=10, seed=3)
    b = run_strategy("random", FEATS, SPACE, ev, budget=10, seed=3)
    c = run_strategy("random", FEATS, SPACE, ev, budget=10, seed=4)
    assert [t.config for t in a.trials] == [t.config for t in b.trials]
    assert [t.config for t in a.trials] != [t.config for t in c.trials]


def test_grid_stride_spreads_over_every_dimension_block():
    r = run_strategy("grid", FEATS, SPACE, table_evaluator(), budget=12)
    picked = [t.config for t in r.trials]
    assert picked == [SPACE[(k * 96) // 12] for k in range(12)]
    assert {c.cache for c in picked} == {"S1", "S2", "S3"}


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_parallel_workers_reproduce_sequential_records(strategy):
    ev = table_evaluator()
    kw = {"seed_db": donor_db()} if strategy == "xgb-t" else {}
    seq = run_strategy(strategy, FEATS, SPACE, ev, budget=16, seed=5, workers=1, **kw)
    for workers in (2, 4):
        par = run_strategy(strategy, FEATS, SPACE, ev, budget=16, seed=5, workers=workers, **kw)
        assert [(t.config, t.top1, t.trial) for t in seq.trials] == \
               [(t.config, t.top1, t.trial) for t in par.trials]


def test_parallel_records_are_stamped_as_each_result_arrives():
    # the last grid picks take longest, so the first records arrive well
    # before the batch ends
    slow = set(SPACE[(k * 96) // 8] for k in (6, 7))
    ended = {}

    def ev(cfg):
        time.sleep(0.3 if cfg in slow else 0.01)
        ended[cfg] = time.time()
        return 0.5

    r = run_strategy("grid", FEATS, SPACE, ev, budget=8, workers=2)
    assert r.trials[0].timestamp < max(ended.values())
    for t in r.trials:
        assert t.timestamp >= ended[t.config]


# ------------------------------------------------- the measured evaluator

@pytest.fixture(scope="module")
def noisy():
    """A small eval split on which resnet-toy's top1 varies across configs."""
    return make_dataset(n_eval=40, noise=1.0)


def test_a_shared_evaluator_scores_every_config_as_a_memo_free_run(resnet, noisy,
                                                                   monkeypatch):
    caches = {sc: build_cache(resnet, noisy, sc, seed=0) for sc in CACHE_SIZES}
    want = {c: evaluate_quantized(quantize_model(resnet, caches[c.cache], c), noisy).top1
            for c in SPACE}
    assert len(set(want.values())) > 1  # a stale array could show
    memos = []

    def spy(qg, d, memo=None):
        memos.append(memo)
        return evaluate_quantized(qg, d, memo=memo)

    monkeypatch.setattr(tuner, "evaluate_quantized", spy)
    for order in (SPACE, SPACE[::-1]):
        evaluate = make_accuracy_evaluator(resnet, noisy, seed=0, profile=GENERIC)
        assert {c: evaluate(c) for c in order} == want
    # one memo per evaluator, holding only the first layer's fp32 output
    first, second = memos[0], memos[-1]
    assert first is not second
    assert all(m is first for m in memos[:96]) and all(m is second for m in memos[96:])
    assert list(first) == list(second) == ["t_conv0"]


def test_an_evaluator_keeps_fused_and_unfused_first_layers_apart(resnet, noisy):
    off = QuantConfig(mixed="FirstLastFp32")
    on = replace(off, fusion=True)
    fresh = {c: make_accuracy_evaluator(resnet, noisy, seed=0)(c) for c in (off, on)}
    shared = make_accuracy_evaluator(resnet, noisy, seed=0)
    assert [shared(c) for c in (off, on, off)] == [fresh[off], fresh[on], fresh[off]]


def test_parallel_workers_share_one_evaluator_memo(lenet, ds):
    runs = []
    for workers in (1, 2):
        evaluate = make_accuracy_evaluator(lenet, ds, seed=0, profile=GENERIC)
        r = run_strategy("random", FEATS, SPACE, evaluate, budget=12, seed=3, workers=workers)
        runs.append([replace(t, timestamp=0.0) for t in r.trials])
    assert runs[0] == runs[1]
    assert any(t.config.mixed == "FirstLastFp32" for t in runs[0])


# ---------------------------------------------------------------- surrogate

def test_xgb_exploits_structure_quickly():
    ev = table_evaluator(noise_seed=1, sigma=0.01)
    best = max(ev(c) for c in SPACE)
    r = run_strategy("xgb", FEATS, SPACE, ev, budget=32, seed=0)
    assert r.best_top1 >= best - 0.02  # lands on/next to the optimum cell


def donor_db():
    """Records of a correlated campaign on a different model."""
    ev = table_evaluator(noise_seed=9, sigma=0.01)
    feats = recipe_feature_counts("resnet-toy")
    return [TuningRecord(model_name="donor", features=feats, config=c,
                         top1=ev(c), timestamp=0.0, trial=i + 1)
            for i, c in enumerate(SPACE)]


def test_transfer_seeding_skips_cold_start():
    ev = table_evaluator(noise_seed=2, sigma=0.01)
    best = max(ev(c) for c in SPACE)
    r = run_strategy("xgb-t", FEATS, SPACE, ev, budget=8, seed=0, seed_db=donor_db())
    assert r.strategy == "xgb-t"
    assert r.best_top1 >= best - 0.02
    # no random cold start: the very first pick already sits in the
    # dominant (clipping, mixed) block learned from the donor model
    first = r.trials[0].config
    assert first.clipping == "Max" and first.mixed == "FirstLastFp32"


def test_xgb_t_requires_a_database():
    with pytest.raises(ValueError):
        run_strategy("xgb-t", FEATS, SPACE, table_evaluator(), budget=4)
    with pytest.raises(ValueError):
        run_strategy("annealing", FEATS, SPACE, table_evaluator(), budget=4)


# ------------------------------------------------------------------ genetic

def test_ga_population_equals_budget_behaves_like_sampling(monkeypatch):
    monkeypatch.setattr(tuner, "_POPULATION", 8)
    monkeypatch.setattr(tuner, "_MAX_GENERATIONS", 1)
    ev = table_evaluator()
    r = run_strategy("genetic", FEATS, SPACE, ev, budget=8, seed=0)
    assert len(r.trials) == 8
    assert len({t.config for t in r.trials}) == 8


def test_ga_zero_mutation_uniform_population_stalls_but_spends_budget(monkeypatch):
    for name, value in [("_POPULATION", 4), ("_MUTATION_P", 0.0), ("_CROSSOVER_P", 0.0),
                        ("_MAX_GENERATIONS", 50)]:
        monkeypatch.setattr(tuner, name, value)
    ev = table_evaluator()
    r = run_strategy("genetic", FEATS, SPACE, ev, budget=6, seed=1)
    # the frozen population measures at most 4 configurations; the
    # remaining budget is spent on uniform fallback picks
    assert len(r.trials) == 6
    assert len({t.config for t in r.trials}) == 6


def test_ga_needs_full_cross_product():
    with pytest.raises(ValueError):
        run_strategy("genetic", FEATS, SPACE[:7], table_evaluator(), budget=3)


def test_the_request_check_rejects_a_partial_space_for_genetic_alone():
    def never(cfg):
        raise AssertionError("measured")
    partial = SPACE[:95]
    with pytest.raises(ValueError, match="not a full cross product"):
        _check_request("genetic", FEATS, partial, 4, None)
    with pytest.raises(ValueError, match="not a full cross product"):
        run_strategy("genetic", FEATS, partial, never, budget=4)
    for strategy in ("xgb", "random", "grid"):
        _check_request(strategy, FEATS, partial, 4, None)


# --------------------------------------------------------------- database io

def test_db_round_trip_and_append(tmp_path):
    p = tmp_path / "db.jsonl"
    ev = table_evaluator()
    r = run_strategy("random", FEATS, SPACE, ev, budget=5, seed=0, model_name="m1")
    record_db(str(p), r.trials + [TuningRecord("m1", FEATS, None, 0.99, 1.0, 0)])
    records = load_db(str(p))
    assert len(records) == 6
    assert records[-1].config is None  # baseline row
    for a, b in zip(r.trials, records):
        assert (a.model_name, a.config, a.top1, a.trial, a.error) == \
               (b.model_name, b.config, b.top1, b.trial, b.error)
        assert a.features == b.features


def test_failed_trial_keeps_why_through_the_db(tmp_path):
    bad = SPACE[8]  # the second grid pick at budget 12

    def ev(cfg):
        if cfg == bad:
            raise RuntimeError("quantization exploded")
        return 0.5

    p = tmp_path / "db.jsonl"
    for workers in (1, 2):
        r = run_strategy("grid", FEATS, SPACE, ev, budget=12, model_name="m", workers=workers)
        record_db(str(p), r.trials)
        lines = p.read_text().splitlines()
        records = load_db(str(p))
        for line, rec in zip(lines, records):
            if rec.config == bad:
                assert rec.error and rec.top1 == 0.0
                assert rec.error_msg == "RuntimeError: quantization exploded"
            else:  # rows of successful trials carry no new key
                assert not rec.error and rec.error_msg is None
                assert "error_msg" not in json.loads(line)
        assert sum(rec.error for rec in records) == 1


def test_db_rejects_future_schema(tmp_path):
    p = tmp_path / "db.jsonl"
    rec = TuningRecord("m", None, None, 0.5, 0.0, 1)
    line = rec.to_json().replace('"v": 1', '"v": 2')
    p.write_text(line + "\n")
    with pytest.raises(ValueError):
        load_db(str(p))


@pytest.mark.parametrize("edit", [
    lambda d: {"v": 1},
    lambda d: [],
    lambda d: {**d, "top1": [1]},
    lambda d: {**d, "top1": float("nan")},
    lambda d: {**d, "features": {k: v for k, v in d["features"].items() if k != "n_conv"}},
    lambda d: {**d, "config": {k: v for k, v in d["config"].items() if k != "scheme"}},
    lambda d: {**d, "config": {**d["config"], "scheme": "Int4"}},
    lambda d: {**d, "features": 3},
    lambda d: "record",
    lambda d: {**d, "config": {**d["config"], "fusion": "false"}},
    lambda d: {**d, "config": {**d["config"], "fusion": 1}},
    lambda d: {**d, "error": "false"},
    lambda d: {**d, "error": 0},
    lambda d: {**d, "trial": 2.7},
    lambda d: {**d, "trial": -1},
    lambda d: {**d, "trial": True},
    lambda d: {**d, "top1": "0.5"},
    lambda d: {**d, "top1": True},
    lambda d: {**d, "top1": 10**400},  # an int that overflows a float
    lambda d: {**d, "timestamp": float("nan")},
    lambda d: {**d, "timestamp": "0"},
    lambda d: {**d, "v": True},
    lambda d: {**d, "v": 1.0},
    lambda d: {**d, "model": 3},
    lambda d: {**d, "error": True, "error_msg": 5},
    lambda d: {**d, "config": {}},  # once read as a baseline row
    lambda d: {**d, "features": False},
    lambda d: {**d, "features": {**d["features"], "n_nodes": "seven"}},
    lambda d: {**d, "features": {**d["features"], "n_nodes": None}},
    lambda d: {**d, "features": {**d["features"], "n_nodes": True}},
    lambda d: {**d, "features": {**d["features"], "n_nodes": 7.5}},
    lambda d: {**d, "features": {**d["features"],
                                 "activation_kinds": {**d["features"]["activation_kinds"],
                                                      "relu": "2"}}},
    lambda d: {**d, "features": {**d["features"], "n_nodes": 10**400}},  # overflows a float
    lambda d: {**d, "features": {**d["features"], "n_nodes": -1}},
    lambda d: {**d, "features": {**d["features"],
                                 "activation_kinds": {**d["features"]["activation_kinds"],
                                                      "relu": 2**53}}},  # rounds in a float
], ids=["no-fields", "array", "top1-list", "top1-nan", "features-no-key", "config-no-scheme",
        "unknown-scheme", "features-int", "string", "fusion-string", "fusion-int",
        "error-string", "error-int", "trial-float", "trial-negative", "trial-bool",
        "top1-string", "top1-bool", "top1-huge", "timestamp-nan", "timestamp-string",
        "v-bool", "v-float", "model-int", "error-msg-int", "config-empty", "features-false",
        "count-string", "count-null", "count-bool", "count-float", "activation-string",
        "count-huge", "count-negative", "activation-huge"])
def test_db_rejects_malformed_records_with_value_error(tmp_path, edit):
    good = TuningRecord("m", FEATS, SPACE[0], 0.5, 0.0, 1).to_json()
    p = tmp_path / "db.jsonl"
    p.write_text(good + "\n\n" + json.dumps(edit(json.loads(good))) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}:3: not a tuning record"):
        load_db(str(p))
