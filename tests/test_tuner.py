import json
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from ptqtune import (GAParams, IntegerOnlyError, QuantConfig, Scheme, TargetProfile,
                     check_integer_only, enumerate_space, load_db, quantize_model,
                     record_db, recipe_feature_counts, run_strategy, tune_genetic,
                     tune_grid, tune_random, tune_xgb)
from ptqtune.gbt import FEATURE_NAMES, encode
from ptqtune.tuner import (GENERIC, INTEGER_ONLY, PROFILES, STRATEGIES, TuningRecord,
                           _check_space)

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
    qg = quantize_model(lenet, lenet_cache_s2, QuantConfig(cache="S2"))
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
        _check_space([], 1)
    with pytest.raises(ValueError):
        _check_space(SPACE, 0)
    with pytest.raises(ValueError):
        _check_space(SPACE, 97)
    with pytest.raises(ValueError):
        _check_space([SPACE[0], SPACE[0]], 1)


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


def test_trials_to_best_is_first_hit():
    scores = iter([0.2, 0.9, 0.9, 0.1])
    r = tune_random(FEATS, SPACE[:4], lambda c: next(scores), budget=4, seed=0)
    assert r.best_top1 == 0.9
    assert r.trials_to_best == 2


def test_failed_measurement_scores_zero_and_flags_error():
    bad = SPACE[7]

    def ev(cfg):
        if cfg == bad:
            raise RuntimeError("quantization exploded")
        return 0.5

    r = tune_grid(FEATS, SPACE, ev, budget=96)
    rec = next(t for t in r.trials if t.config == bad)
    assert rec.error and rec.top1 == 0.0
    assert sum(t.error for t in r.trials) == 1


def test_random_is_seed_deterministic_and_seed_sensitive():
    ev = table_evaluator()
    a = tune_random(FEATS, SPACE, ev, budget=10, seed=3)
    b = tune_random(FEATS, SPACE, ev, budget=10, seed=3)
    c = tune_random(FEATS, SPACE, ev, budget=10, seed=4)
    assert [t.config for t in a.trials] == [t.config for t in b.trials]
    assert [t.config for t in a.trials] != [t.config for t in c.trials]


def test_grid_stride_spreads_over_every_dimension_block():
    r = tune_grid(FEATS, SPACE, table_evaluator(), budget=12)
    picked = [t.config for t in r.trials]
    assert picked == [SPACE[(k * 96) // 12] for k in range(12)]
    assert {c.cache for c in picked} == {"S1", "S2", "S3"}


def test_parallel_workers_reproduce_sequential_records():
    ev = table_evaluator()
    seq = tune_random(FEATS, SPACE, ev, budget=16, seed=5, workers=1)
    par = tune_random(FEATS, SPACE, ev, budget=16, seed=5, workers=4)
    assert [(t.config, t.top1, t.trial) for t in seq.trials] == \
           [(t.config, t.top1, t.trial) for t in par.trials]


# ---------------------------------------------------------------- surrogate

def test_xgb_exploits_structure_quickly():
    ev = table_evaluator(noise_seed=1, sigma=0.01)
    best = max(ev(c) for c in SPACE)
    r = tune_xgb(FEATS, SPACE, ev, budget=32, seed=0)
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
    r = tune_xgb(FEATS, SPACE, ev, budget=8, seed=0, seed_db=donor_db())
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

def test_ga_population_equals_budget_behaves_like_sampling():
    ev = table_evaluator()
    r = tune_genetic(FEATS, SPACE, ev, budget=8, seed=0,
                     params=GAParams(population=8, max_generations=1))
    assert len(r.trials) == 8
    assert len({t.config for t in r.trials}) == 8


def test_ga_zero_mutation_uniform_population_stalls_but_spends_budget():
    dims_bits = 7  # 2+2+1+1+1 bits for (cache, scheme, clip, gran, mixed)
    genome = [0] * dims_bits
    params = GAParams(population=4, mutation_p=0.0, crossover_p=0.0,
                      initial=[list(genome)] * 4, max_generations=50)
    ev = table_evaluator()
    r = tune_genetic(FEATS, SPACE, ev, budget=6, seed=1, params=params)
    # the frozen population maps to a single configuration; the remaining
    # budget is spent on uniform fallback picks
    assert len(r.trials) == 6
    assert len({t.config for t in r.trials}) == 6


def test_ga_needs_full_cross_product():
    with pytest.raises(ValueError):
        tune_genetic(FEATS, SPACE[:7], table_evaluator(), budget=3)


# --------------------------------------------------------------- database io

def test_db_round_trip_and_append(tmp_path):
    p = tmp_path / "db.jsonl"
    ev = table_evaluator()
    r = tune_random(FEATS, SPACE, ev, budget=5, seed=0, model_name="m1")
    record_db(str(p), r.trials, append=False)
    record_db(str(p), [TuningRecord("m1", FEATS, None, 0.99, 1.0, 0)])
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
        r = tune_grid(FEATS, SPACE, ev, budget=12, model_name="m", workers=workers)
        record_db(str(p), r.trials, append=False)
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
