import time

import numpy as np
import pytest

from oracles import finite_diff_grad, gbt_train_reference, save_gbt
from ptqtune import (QuantConfig, Scheme, extract_features, feature_importance,
                     predict, train)
from ptqtune.gbt import FEATURE_NAMES, N_FEATURES, _gains, encode, grad_hess, leaf_weight


# -------------------------------------------------------------- derivatives

def test_grad_hess_frozen_values():
    g, h = grad_hess(3.0, 5.0)
    assert float(g) == 4.0 and float(h) == 2.0
    g, h = grad_hess(7.0, 7.0)
    assert float(g) == 0.0 and float(h) == 2.0


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(1)
    loss = lambda y, p: (p - y) ** 2
    grad = lambda y, p: float(grad_hess(y, p)[0])
    for y, yhat in rng.normal(size=(20, 2)):
        g, h = grad_hess(y, yhat)
        assert abs(float(g) - finite_diff_grad(loss, y, yhat)) <= 1e-6
        # hessian via finite differences of the gradient
        assert abs(float(h) - finite_diff_grad(grad, y, yhat)) <= 1e-6


def test_leaf_weight_closed_form():
    assert leaf_weight(4.0, 2.0, 1.0) == -4.0 / 3.0
    assert leaf_weight(0.0, 5.0, 1.0) == 0.0
    assert abs(leaf_weight(4.0, 2.0, 1e12)) < 1e-11  # heavy reg -> 0
    rng = np.random.default_rng(2)
    for G, H, lam in rng.uniform(0.1, 9, size=(30, 3)):
        assert leaf_weight(G, H, lam) == -G / (H + lam)


def split_gain(GL, HL, GR, HR, lam, gamma):
    """The gain of one split with child sums (GL, HL) and (GR, HR), as the
    trainer's ``_gains`` scores it."""
    return float(_gains(np.array([GL]), np.array([HL]), np.float64(GL + GR), HL + HR,
                        lam, gamma)[0])


def test_split_gain_behavior():
    # identical children: joint term equals the sum; any gamma > 0 rejects
    assert split_gain(2.0, 3.0, 2.0, 3.0, 0.0, 0.0) <= 1e-12
    assert split_gain(2.0, 3.0, 2.0, 3.0, 0.0, 0.5) == pytest.approx(-0.5)
    # two opposite clusters separate with positive gain
    assert split_gain(-8.0, 4.0, 8.0, 4.0, 1.0, 0.0) > 0
    # gain decreases monotonically in gamma
    gains = [split_gain(-8.0, 4.0, 8.0, 4.0, 1.0, gm) for gm in (0.0, 0.5, 1.0, 2.0)]
    assert gains == sorted(gains, reverse=True)


# ----------------------------------------------------------------- training

def test_single_row_converges_to_its_target():
    m = train(np.array([[1.0, 2.0]]), np.array([5.0]), n_trees=60)
    assert abs(float(predict(m, np.array([1.0, 2.0]))) - 5.0) < 1e-3


def test_conflicting_duplicates_predict_in_between():
    X = np.array([[1.0], [1.0]])
    m = train(X, np.array([0.0, 10.0]), n_trees=80)
    p = predict(m, X)
    assert np.allclose(p, 5.0, atol=0.05)  # indistinguishable rows share output
    assert 0.0 < p[0] < 10.0


def test_training_rmse_never_increases_per_tree():
    rng = np.random.default_rng(3)
    X = rng.uniform(-2, 2, size=(120, 5))
    y = np.sin(X[:, 0]) + 0.3 * X[:, 3] ** 2 + 0.05 * rng.standard_normal(120)
    m = train(X, y, n_trees=40, max_depth=4)
    yhat = np.zeros(len(y))
    rmses = []
    from ptqtune.gbt import _predict_tree
    for tree in m.trees:
        yhat = yhat + m.hyper["eta"] * _predict_tree(tree, X)
        rmses.append(float(np.sqrt(np.mean((yhat - y) ** 2))))
    assert all(b <= a + 1e-12 for a, b in zip(rmses, rmses[1:]))


def test_single_feature_function_fits_to_1e3_within_50_trees():
    rng = np.random.default_rng(4)
    X = rng.uniform(0, 1, size=(200, 4))
    y = np.where(X[:, 2] > 0.5, 2.0, -1.0)  # step function of one feature
    t0 = time.perf_counter()
    m = train(X, y, n_trees=50, max_depth=3)
    took = time.perf_counter() - t0
    rmse = float(np.sqrt(np.mean((predict(m, X) - y) ** 2)))
    assert rmse < 1e-3
    assert took < 5.0


def test_bad_inputs_rejected():
    with pytest.raises(ValueError):
        train(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError):
        train(np.zeros((3, 2)), np.zeros(4))
    with pytest.raises(ValueError):
        train(np.zeros((3, 2)), np.zeros(3), learning_rate=0.1)  # unknown name
    m = train(np.zeros((3, 2)), np.zeros(3), n_trees=1)
    with pytest.raises(ValueError):
        predict(m, np.zeros((1, 5)))


def _identity_corpus():
    """Seeded training sets: random matrices of four kinds, then the encoded
    GENERIC space, cold (target rows only), warm (after 96 donor rows) and
    warm from two donors (after 192 rows)."""
    from ptqtune import TargetProfile, enumerate_space, recipe_feature_counts
    rng = np.random.default_rng(2024)
    for case in range(160):
        n, d = int(rng.integers(1, 201)), int(rng.integers(1, 9))
        kind = case % 4
        if kind == 0:
            X = rng.normal(size=(n, d))
        elif kind == 1:
            X = rng.integers(0, 2, size=(n, d)).astype(float)
        elif kind == 2:
            X = rng.integers(-2, 3, size=(n, d)).astype(float)
        else:
            X = np.hstack([np.full((n, 2), 7.0), rng.integers(0, 2, size=(n, d)),
                           rng.normal(size=(n, 1)).round(1), np.zeros((n, 1))])
        y = 0.3 * X.sum(axis=1) + rng.normal(size=n)
        hyper = {"max_depth": int(rng.integers(1, 7)), "gamma": float(rng.choice([0.0, 0.01])),
                 "lam": float(rng.choice([1.0, 0.3])), "eta": float(rng.choice([0.3, 0.05])),
                 "n_trees": int(rng.integers(1, 31))}
        yield X, y, hyper
    space = enumerate_space(TargetProfile("Generic"))
    target = np.stack([encode(recipe_feature_counts("lenet-ish"), c) for c in space])
    donor = np.stack([encode(recipe_feature_counts("resnet-toy"), c) for c in space])
    donor_y = 0.6 + 0.2 * donor[:, 2] + 0.1 * donor[:, 7] + 0.01 * rng.normal(size=96)
    mobile = np.stack([encode(recipe_feature_counts("mobile-toy"), c) for c in space])
    two = np.vstack([donor, mobile])
    two_y = np.concatenate([donor_y, 0.55 + 0.2 * mobile[:, 3] + 0.1 * mobile[:, 8]
                            + 0.01 * np.random.default_rng(2025).normal(size=96)])
    # n_nodes, n_layers, n_conv and n_relu then take three values: the
    # per-node-order class, which no one-donor case reaches
    assert sum(len(np.unique(col)) == 3 for col in np.vstack([two, target]).T) == 4
    for case in range(24):
        picks = rng.permutation(96)[:int(rng.integers(3, 97))]
        y = 0.5 + 0.25 * target[picks, 2] + 0.1 * target[picks, 7] \
            + 0.01 * rng.normal(size=len(picks))
        hyper = {"n_trees": 30, "max_depth": 4}
        yield target[picks], y, hyper
        yield np.vstack([donor, target[picks]]), np.concatenate([donor_y, y]), hyper
        yield np.vstack([two, target[picks]]), np.concatenate([two_y, y]), hyper


def test_train_is_byte_identical_to_the_per_node_sort_reference(tmp_path):
    """Trees, thresholds, leaf weights and feature_gain bits all equal those
    of the trainer that sorts every column at every node."""
    ours, ref = tmp_path / "ours.json", tmp_path / "ref.json"
    for X, y, hyper in _identity_corpus():
        m, r = train(X, y, **hyper), gbt_train_reference(X, y, **hyper)
        save_gbt(m, str(ours))
        save_gbt(r, str(ref))
        assert ours.read_bytes() == ref.read_bytes(), (X.shape, hyper)
        assert np.array_equal(predict(m, X), predict(r, X))


# --------------------------------------------------------------- importance

def test_importance_ranks_the_only_informative_feature_first():
    rng = np.random.default_rng(5)
    X = rng.uniform(size=(150, 6))
    y = 3.0 * X[:, 4]
    imp = feature_importance(train(X, y, n_trees=25, max_depth=3))
    assert imp[0][0] == 4
    assert imp[0][1] > 0.9
    assert sum(share for _, share in imp) == pytest.approx(1.0)


def test_importance_of_untrained_model_is_empty():
    m = train(np.ones((5, 3)), np.zeros(5), n_trees=5)  # no split possible
    assert feature_importance(m) == []


# ------------------------------------------------------------ configuration
# encoding

def test_encode_is_injective_over_the_96_point_space(lenet):
    from ptqtune import TargetProfile, enumerate_space
    feats = extract_features(lenet)
    space = enumerate_space(TargetProfile("Generic"))
    assert len(space) == 96
    rows = {encode(feats, s).tobytes() for s in space}
    assert len(rows) == 96


def test_encode_onehot_groups_sum_to_one(lenet):
    feats = extract_features(lenet)
    v = encode(feats, QuantConfig(cache="S1", scheme=Scheme.SymmetricPower2,
                                  clipping="KL", granularity="Channel",
                                  mixed="FirstLastFp32", fusion=True))
    assert v.shape == (N_FEATURES,)
    assert len(FEATURE_NAMES) == N_FEATURES
    groups = [(0, 3), (3, 7), (7, 9), (9, 11), (11, 13), (13, 15)]
    for a, b in groups:
        assert v[a:b].sum() == 1.0
    # numeric block carries the graph's counts
    assert v[15] == 7.0  # node count of the plain conv stack
