"""Gradient-boosted regression trees, from scratch.

Squared-error objective fitted by K additive trees.  Each round fits one
tree to the second-order statistics of the current residuals:

    g_i = 2*(yhat_i - y_i),  h_i = 2
    leaf weight  w* = -G/(H + lambda)
    split gain   1/2 * [GL^2/(HL+l) + GR^2/(HR+l) - G^2/(H+l)] - gamma

Splits are exact greedy: every boundary between distinct values of every
feature is a candidate, and a split is accepted only when its gain is
strictly positive.  Ties in gain break toward the lowest feature index, then
the earliest split position.  Thresholds are the smallest right-side value
with routing ``x < threshold -> left``, which is exact on repeated values.
Predictions sum eta-scaled leaf weights from a base score of 0.  Feature
importance is accumulated split gain, normalized.

``train`` sorts the matrix once (a stable argsort per column) and classes
each column by its number of distinct values.  A constant column has no
candidate and is never searched.  A two-valued column has one candidate per
node, the boundary between its values; its left sums come from a low-value
mask fixed before the first tree, summed in row order.  A column with more
values keeps a per-node row order: each child takes its parent's order
through a stable boolean filter, so no column is sorted twice.  Every
encoded feature is a one-hot flag or a per-model count, so in the tuner
each column falls in the first two classes (the pre-binned split finding of
XGBoost's ``hist`` method, Chen & Guestrin 2016, arXiv 1603.02754).

The result equals a fresh stable argsort at every node bit for bit.  A
node's rows stay in row order, and restricting a stable sort to a subset of
rows is the stable sort of that subset, so every left sum adds the same
gradients in the same order; it is taken from a cumsum, which is always
sequential, while a ``sum`` may be pairwise.  The hessian is the constant
2, so every hessian sum is twice a row count, exact in float64.  Each
gain is computed elementwise with the same operations in the same order,
and the parent term ``G**2/(H+lambda)`` stays a numpy scalar (a scalar
power and an array square can differ in the last bit).  Each leaf writes
its weight into a per-row delta as the tree is built, so updating the
predictions takes no second walk of the tree.

Also defines the feature encoding gluing a quantization configuration and
a model's macro-architecture counts into one fixed-width vector: one one-hot
flag per value of each dimension of ``quantize.DIMENSIONS``, in that table's
order (15 columns), then 8 raw counts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .ir import ModelFeatures
from .quantize import DIMENSIONS, QuantConfig, _plain


def _feature_name(name: str, value) -> str:
    if isinstance(value, bool):
        value = "On" if value else "Off"
    return f"{name}={_plain(value)}"


FEATURE_NAMES: tuple[str, ...] = tuple(
    [_feature_name(name, v) for name, values in DIMENSIONS.items() for v in values]
    + ["n_nodes", "n_layers", "n_conv", "n_depthwise", "n_pointwise",
       "n_skip", "n_relu", "n_softmax"]
)
N_FEATURES = len(FEATURE_NAMES)  # 15 one-hot + 8 numeric = 23


def encode(e: ModelFeatures, s: QuantConfig) -> np.ndarray:
    cols = [1.0 if getattr(s, name) == v else 0.0
            for name, values in DIMENSIONS.items() for v in values]
    cols += [float(e.n_nodes), float(e.n_layers), float(e.n_conv),
             float(e.n_depthwise), float(e.n_pointwise), float(e.n_skip),
             float(e.activation_kinds.get("relu", 0)),
             float(e.activation_kinds.get("softmax", 0))]
    return np.asarray(cols, dtype=np.float64)


def grad_hess(y: np.ndarray | float, yhat: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
    """First/second derivatives of squared loss (yhat - y)^2 w.r.t. yhat."""
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    return 2.0 * (yhat - y), np.full_like(yhat, 2.0)


def leaf_weight(G: float, H: float, lam: float) -> float:
    return -G / (H + lam)


def split_gain(GL: float, HL: float, GR: float, HR: float,
               lam: float, gamma: float) -> float:
    joint = (GL + GR) ** 2 / (HL + HR + lam)
    return 0.5 * (GL**2 / (HL + lam) + GR**2 / (HR + lam) - joint) - gamma


DEFAULT_HYPER = {"eta": 0.3, "gamma": 0.0, "lam": 1.0, "max_depth": 6, "n_trees": 100}


@dataclass
class GBTModel:
    trees: list[dict]
    hyper: dict
    n_features: int
    feature_gain: np.ndarray = field(default_factory=lambda: np.zeros(0))


def _gains(GL: np.ndarray, HL: np.ndarray, G: np.float64, H: float,
           lam: float, gamma: float) -> np.ndarray:
    """Gains of the candidate splits with left sums GL/HL, in the operation
    order of the one-sort form, so that equal sums give equal bits."""
    parent = G**2 / (H + lam)  # a numpy-scalar power, never an array square
    return 0.5 * (GL**2 / (HL + lam) + (G - GL)**2 / ((H - HL) + lam) - parent) - gamma


class _Presorted:
    """One stable presort of the training matrix, its columns classed by
    their number of distinct values, and the tree builder over them.

    ``two`` columns hold exactly two values; ``left`` is their ``x < high``
    mask in row order.  ``many`` columns hold three or more (or a NaN, which
    only the sorted path orders as exact greedy does); ``order`` holds the
    stable sort of each, one row of row indices per column.  Columns with one
    value never split and are in neither class.
    """

    def __init__(self, X: np.ndarray):
        order = np.argsort(X, axis=0, kind="stable")
        Xs = np.take_along_axis(X, order, axis=0)
        steps = (Xs[1:] > Xs[:-1]).sum(axis=0)  # distinct values - 1
        nan = np.isnan(Xs[-1])  # NaN sorts last
        self.X = X
        self.two = np.flatnonzero((steps == 1) & ~nan)
        self.many = np.flatnonzero((steps > 1) | ((steps == 1) & nan))
        self.left = X[:, self.two] < Xs[-1, self.two]
        self.order = np.ascontiguousarray(order[:, self.many].T)
        slot = np.zeros(X.shape[1], dtype=np.int64)  # a column's index in its class
        slot[self.two] = np.arange(len(self.two))
        slot[self.many] = np.arange(len(self.many))
        is_two = np.zeros(X.shape[1], dtype=bool)
        is_two[self.two] = True
        self.slot, self.is_two = slot.tolist(), is_two.tolist()
        self.no_split = np.full(X.shape[1], -np.inf)

    def grow_tree(self, g: np.ndarray, hyper: dict,
                  gain_acc: np.ndarray) -> tuple[dict, np.ndarray]:
        """One tree fitted to the gradients ``g``, and its leaf weight per row."""
        self.g = g
        # g and h = 2 on the low-value rows of each two-valued column, 0 on
        # the others: one cumsum over a node's rows gives its GL and HL
        self.left_gh = np.hstack((np.where(self.left, g[:, None], 0.0), 2.0 * self.left))
        self.delta = np.zeros(len(g))
        tree = self._grow(np.arange(len(g)), self.order, 0, hyper, gain_acc)
        return tree, self.delta

    def _grow(self, rows: np.ndarray, order: np.ndarray, depth: int,
              hyper: dict, gain_acc: np.ndarray) -> dict:
        """The subtree over ``rows`` (ascending), whose many-valued columns
        are sorted by ``order``; writes its leaf weights into ``delta``."""
        lam = hyper["lam"]
        G, H = self.g[rows].sum(), 2.0 * len(rows)
        found = None
        if depth < hyper["max_depth"] and len(rows) >= 2:
            found = self._best_split(rows, order, G, H, lam, hyper["gamma"])
        if found is None:
            w = leaf_weight(G, H, lam)
            self.delta[rows] = w
            return {"leaf": w}
        f, thr, gain, go_left = found
        gain_acc[f] += gain
        rows_l, rows_r = rows[go_left], rows[~go_left]
        order_l = order_r = order
        if len(self.many) and depth + 1 < hyper["max_depth"]:
            member = np.zeros(len(self.X), dtype=bool)
            member[rows_l] = True
            m = member[order]  # a stable filter keeps each column sorted
            order_l = order[m].reshape(len(self.many), -1)
            order_r = order[~m].reshape(len(self.many), -1)
        return {
            "feature": f,
            "threshold": thr,
            "left": self._grow(rows_l, order_l, depth + 1, hyper, gain_acc),
            "right": self._grow(rows_r, order_r, depth + 1, hyper, gain_acc),
        }

    def _best_split(self, rows: np.ndarray, order: np.ndarray, G: np.float64,
                    H: float, lam: float, gamma: float
                    ) -> tuple[int, float, float, np.ndarray] | None:
        """(feature, threshold, gain, left mask over ``rows``) of the best
        split, or None when no split has positive gain.  Ties go to the
        lowest feature, then to the earliest position in sorted order."""
        n, d2 = len(rows), len(self.two)
        best = self.no_split.copy()
        if d2:
            sums = self.left_gh[rows].cumsum(axis=0)[-1]
            GL, HL = sums[:d2], sums[d2:]
            # HL % H == 0 exactly when one side of the split is empty
            best[self.two] = np.where(HL % H, _gains(GL, HL, G, H, lam, gamma), -np.inf)
        if len(self.many):
            Xs = self.X[order, self.many[:, None]]
            GL = self.g[order].cumsum(axis=1)[:, :-1]
            gains = _gains(GL, 2.0 * np.arange(1, n), G, H, lam, gamma)
            gains = np.where(Xs[:, 1:] > Xs[:, :-1], gains, -np.inf)
            at = gains.argmax(axis=1)
            best[self.many] = gains[np.arange(len(self.many)), at]
        f = int(best.argmax())
        gain = float(best[f])
        if not math.isfinite(gain) or gain <= 0.0:
            return None
        j = self.slot[f]
        if self.is_two[f]:
            go_left = self.left[rows, j]
            thr = float(self.X[rows[go_left.argmin()], f])  # first right-side row
        else:
            thr = float(self.X[order[j, at[j] + 1], f])
            go_left = self.X[rows, f] < thr
        return f, thr, gain, go_left


def _predict_tree(tree: dict, X: np.ndarray) -> np.ndarray:
    out = np.zeros(len(X))
    stack = [(tree, np.arange(len(X)))]
    while stack:
        node, idx = stack.pop()
        if len(idx) == 0:
            continue
        if "leaf" in node:
            out[idx] = node["leaf"]
            continue
        mask = X[idx, node["feature"]] < node["threshold"]
        stack.append((node["left"], idx[mask]))
        stack.append((node["right"], idx[~mask]))
    return out


def train(X: np.ndarray, y: np.ndarray, **hyper) -> GBTModel:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or len(X) == 0:
        raise ValueError("training set must be a nonempty 2-d matrix")
    if len(X) != len(y):
        raise ValueError("X/y length mismatch")
    hp = {**DEFAULT_HYPER, **hyper}
    unknown = set(hp) - set(DEFAULT_HYPER)
    if unknown:
        raise ValueError(f"unknown hyperparameters {sorted(unknown)}")
    gain_acc = np.zeros(X.shape[1])
    trees: list[dict] = []
    yhat = np.zeros(len(y))
    presorted = _Presorted(X)
    for _ in range(hp["n_trees"]):
        g, _ = grad_hess(y, yhat)
        tree, delta = presorted.grow_tree(g, hp, gain_acc)
        yhat = yhat + hp["eta"] * delta
        trees.append(tree)
    return GBTModel(trees=trees, hyper=hp, n_features=X.shape[1], feature_gain=gain_acc)


def predict(model: GBTModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    single = X.ndim == 1
    if single:
        X = X[None]
    if X.shape[1] != model.n_features:
        raise ValueError(f"expected {model.n_features} features, got {X.shape[1]}")
    out = np.zeros(len(X))
    for tree in model.trees:
        out += model.hyper["eta"] * _predict_tree(tree, X)
    return out[0] if single else out


def feature_importance(model: GBTModel) -> list[tuple[int, float]]:
    """(feature index, normalized total gain), descending; ties by index."""
    total = float(model.feature_gain.sum())
    if total <= 0.0:
        return []
    shares = model.feature_gain / total
    order = sorted(range(len(shares)), key=lambda i: (-shares[i], i))
    return [(i, float(shares[i])) for i in order if shares[i] > 0.0]


def save_gbt(model: GBTModel, path: str) -> None:
    doc = {
        "format": "gbt",
        "version": 1,
        "hyper": model.hyper,
        "n_features": model.n_features,
        "feature_gain": model.feature_gain.tolist(),
        "trees": model.trees,
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _check_tree(tree, n_features: int) -> None:
    stack = [tree]
    while stack:
        node = stack.pop()
        if not isinstance(node, dict):
            raise ValueError("tree node is not an object")
        if "leaf" in node:
            if not _is_number(node["leaf"]):
                raise ValueError("leaf weight is not a number")
            continue
        if not all(k in node for k in ("feature", "threshold", "left", "right")):
            raise ValueError("tree node is neither a leaf nor a complete split")
        f = node["feature"]
        if type(f) is not int or not 0 <= f < n_features:
            raise ValueError(f"split feature {f!r} not in [0, {n_features})")
        if not _is_number(node["threshold"]):
            raise ValueError("split threshold is not a number")
        stack += [node["left"], node["right"]]


def load_gbt(path: str) -> GBTModel:
    """Read a ``save_gbt`` document; a malformed one raises ValueError."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except RecursionError as e:
        raise ValueError(f"{path}: nested too deeply") from e
    if not isinstance(doc, dict) or doc.get("format") != "gbt":
        raise ValueError(f"{path}: not a tree-model file")
    missing = {"hyper", "n_features", "feature_gain", "trees"} - set(doc)
    if missing:
        raise ValueError(f"{path}: missing keys {sorted(missing)}")
    hyper, n_features, gain, trees = (doc[k] for k in ("hyper", "n_features",
                                                         "feature_gain", "trees"))
    if not isinstance(hyper, dict) or not all(_is_number(hyper.get(k)) for k in DEFAULT_HYPER):
        raise ValueError(f"{path}: hyper must hold numeric {sorted(DEFAULT_HYPER)}")
    if type(n_features) is not int or n_features < 0:
        raise ValueError(f"{path}: bad n_features {n_features!r}")
    if not (isinstance(gain, list) and len(gain) == n_features and all(map(_is_number, gain))):
        raise ValueError(f"{path}: feature_gain must hold {n_features} numbers")
    if not isinstance(trees, list):
        raise ValueError(f"{path}: trees must be a list")
    for tree in trees:
        try:
            _check_tree(tree, n_features)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from e
    return GBTModel(trees=trees, hyper=hyper, n_features=n_features,
                    feature_gain=np.asarray(gain, dtype=np.float64))
