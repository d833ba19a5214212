import math

import numpy as np
import pytest

from ptqtune import QuantConfig, Scheme, recipe_feature_counts
from ptqtune.analysis import (DIMENSIONS, DiversityReport, convergence_report,
                              diversity_report, shannon_entropy)
from ptqtune.tuner import TuningRecord

FEATS = recipe_feature_counts("lenet-ish")


def rec(top1, model="m", **cfg_kw):
    config = QuantConfig(**cfg_kw) if cfg_kw is not None else None
    return TuningRecord(model_name=model, features=FEATS, config=config,
                        top1=top1, timestamp=0.0, trial=1)


def baseline(top1, model="m"):
    return TuningRecord(model_name=model, features=FEATS, config=None,
                        top1=top1, timestamp=0.0, trial=0)


# ------------------------------------------------------------------- entropy

def test_entropy_frozen_values():
    assert shannon_entropy([1, 1]) == pytest.approx(1.0, abs=1e-12)
    assert shannon_entropy([5, 0]) == 0.0
    assert shannon_entropy([1, 3]) == pytest.approx(0.8112781244591328, abs=1e-12)
    assert shannon_entropy([2, 2, 2, 2]) == pytest.approx(2.0, abs=1e-12)


def test_zero_entropy_is_positive_zero_in_the_report():
    assert math.copysign(1.0, shannon_entropy([5, 0])) == 1.0
    db = [baseline(1.0), rec(0.999, clipping="KL"), rec(0.998, clipping="KL")]
    csv = diversity_report(db).to_csv()
    assert "clipping,0.000000," in csv
    assert "-0.000000" not in csv


def test_entropy_rejects_bad_input():
    with pytest.raises(ValueError):
        shannon_entropy([0, 0])
    with pytest.raises(ValueError):
        shannon_entropy([-1, 2])


# ----------------------------------------------------------------- diversity

def test_all_survivors_on_one_scheme_gives_zero_scheme_entropy():
    db = [baseline(1.0)] + [
        rec(0.999, scheme=Scheme.Symmetric, cache=c)
        for c in ("S1", "S2", "S3")
    ]
    rep = diversity_report(db, threshold_pts=1.0)
    assert rep.n_samples == 3
    assert rep.entropy["scheme"] == 0.0
    assert rep.entropy["cache"] == pytest.approx(math.log2(3), abs=1e-12)


def test_engineered_db_matches_hand_computed_entropy():
    # survivors: 4x Max + 4x KL clipping (1 bit); schemes 2/1/1/0 over the
    # four options; caches all S2 (0 bits); mixed 6 Off / 2 FirstLast
    db = [baseline(0.9)]
    specs = [
        ("Max", Scheme.Asymmetric, "Off"), ("Max", Scheme.Asymmetric, "Off"),
        ("Max", Scheme.Symmetric, "Off"), ("Max", Scheme.SymmetricUint8, "Off"),
        ("KL", Scheme.Asymmetric, "Off"), ("KL", Scheme.Asymmetric, "Off"),
        ("KL", Scheme.Symmetric, "FirstLastFp32"),
        ("KL", Scheme.SymmetricUint8, "FirstLastFp32"),
    ]
    for i, (clip, scheme, mixed) in enumerate(specs):
        db.append(rec(0.895, clipping=clip, scheme=scheme, mixed=mixed,
                      granularity="Tensor" if i % 2 else "Channel"))
    # one record far below the baseline must be excluded
    db.append(rec(0.2, clipping="Max"))
    rep = diversity_report(db, threshold_pts=1.0)
    assert rep.n_samples == 8
    assert rep.entropy["clipping"] == pytest.approx(1.0, abs=1e-6)
    h_scheme = -(0.5 * math.log2(0.5) + 2 * 0.25 * math.log2(0.25))
    assert rep.entropy["scheme"] == pytest.approx(h_scheme, abs=1e-6)
    assert rep.entropy["cache"] == 0.0
    h_mixed = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
    assert rep.entropy["mixed"] == pytest.approx(h_mixed, abs=1e-6)
    assert rep.entropy["granularity"] == pytest.approx(1.0, abs=1e-6)


def test_threshold_is_in_percentage_points():
    db = [baseline(1.0), rec(0.995), rec(0.985)]
    assert diversity_report(db, threshold_pts=1.0).n_samples == 1
    assert diversity_report(db, threshold_pts=2.0).n_samples == 2


def test_no_survivors_yields_nan_entropies():
    db = [baseline(1.0), rec(0.5)]
    rep = diversity_report(db, threshold_pts=1.0)
    assert rep.n_samples == 0
    assert all(math.isnan(h) for h in rep.entropy.values())
    csv = rep.to_csv()
    assert "cache,," in csv  # empty cell, not "nan"


def test_missing_baseline_is_an_error():
    with pytest.raises(ValueError):
        diversity_report([rec(0.9)])


def test_multi_model_baselines_apply_per_model():
    db = [baseline(1.0, "a"), baseline(0.6, "b"),
          rec(0.995, "a"), rec(0.595, "b"), rec(0.9, "b")]
    rep = diversity_report(db, threshold_pts=1.0)
    assert rep.n_samples == 3  # 0.9 on model b is above its own baseline


def test_csv_shape():
    db = [baseline(1.0), rec(0.999)]
    csv = diversity_report(db).to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "dimension,entropy_bits,max_bits,n_samples,threshold_pts"
    assert len(lines) == 1 + len(DIMENSIONS)


# --------------------------------------------------------------- convergence

def test_convergence_report_speedup_vs_random():
    def res(strategy, ttb):
        return {"strategy": strategy, "best_top1": 0.9, "trials_to_best": ttb}

    csv = convergence_report([res("random", 30), res("random", 40),
                              res("xgb", 5), res("xgb", 15)])
    rows = {line.split(",")[0]: line.split(",") for line in csv.strip().split("\n")[1:]}
    assert rows["random"][2] == "35.0"
    assert rows["xgb"][2] == "10.0"
    assert float(rows["xgb"][4]) == pytest.approx(3.5)
    assert rows["random"][4] == "1.000"
