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
values is searched in the root's sorted order filtered to the node's own
rows by a stable boolean mask, so no column is sorted twice.  Every
encoded feature is a one-hot flag or a per-model count, so a cold campaign,
or one seeded from a single other model, puts each column in the first two
classes (the pre-binned split finding of XGBoost's ``hist`` method, Chen &
Guestrin 2016, arXiv 1603.02754).  Records from two other models can give
a count three values (``n_nodes`` is 7, 11 and 13 for lenet-ish seeded from
resnet-toy and mobile-toy), and such a column takes the per-node order.

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

import math
from dataclasses import dataclass

import numpy as np

from .ir import ModelFeatures
from .quantize import DIMENSIONS, QuantConfig, _plain


def _feature_name(name: str, value) -> str:
    if isinstance(value, bool):
        value = "On" if value else "Off"
    return f"{name}={_plain(value)}"


# the numeric columns: these ModelFeatures counts, then these activation kinds
_COUNTS = ("n_nodes", "n_layers", "n_conv", "n_depthwise", "n_pointwise", "n_skip")
_ACTIVATIONS = ("relu", "softmax")

FEATURE_NAMES: tuple[str, ...] = tuple(
    [_feature_name(name, v) for name, values in DIMENSIONS.items() for v in values]
    + list(_COUNTS) + [f"n_{kind}" for kind in _ACTIVATIONS]
)
N_FEATURES = len(FEATURE_NAMES)  # 15 one-hot + 8 numeric = 23


def encode(e: ModelFeatures, s: QuantConfig) -> np.ndarray:
    cols = [1.0 if getattr(s, name) == v else 0.0
            for name, values in DIMENSIONS.items() for v in values]
    cols += [float(getattr(e, name)) for name in _COUNTS]
    cols += [float(e.activation_kinds.get(kind, 0)) for kind in _ACTIVATIONS]
    return np.asarray(cols, dtype=np.float64)


def grad_hess(y: np.ndarray | float, yhat: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
    """First/second derivatives of squared loss (yhat - y)^2 w.r.t. yhat."""
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    return 2.0 * (yhat - y), np.full_like(yhat, 2.0)


def leaf_weight(G: float, H: float, lam: float) -> float:
    return -G / (H + lam)


# the surrogate's one setting, which ``tuner._xgb`` trains with; ``train``
# takes any key as a keyword override
DEFAULT_HYPER = {"eta": 0.3, "gamma": 0.0, "lam": 1.0, "max_depth": 4, "n_trees": 30}


@dataclass
class GBTModel:
    trees: list[dict]
    hyper: dict
    n_features: int
    feature_gain: np.ndarray


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
    stable sort of each, one row of row indices per column, which each
    searching node filters to its own rows.  Columns with one value never
    split and are in neither class.
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
        tree = self._grow(np.arange(len(g)), 0, hyper, gain_acc)
        return tree, self.delta

    def _grow(self, rows: np.ndarray, depth: int, hyper: dict,
              gain_acc: np.ndarray) -> dict:
        """The subtree over ``rows`` (ascending); writes its leaf weights
        into ``delta``."""
        lam = hyper["lam"]
        G, H = self.g[rows].sum(), 2.0 * len(rows)
        found = None
        if depth < hyper["max_depth"] and len(rows) >= 2:
            found = self._best_split(rows, G, H, lam, hyper["gamma"])
        if found is None:
            w = leaf_weight(G, H, lam)
            self.delta[rows] = w
            return {"leaf": w}
        f, thr, gain, go_left = found
        gain_acc[f] += gain
        return {
            "feature": f,
            "threshold": thr,
            "left": self._grow(rows[go_left], depth + 1, hyper, gain_acc),
            "right": self._grow(rows[~go_left], depth + 1, hyper, gain_acc),
        }

    def _best_split(self, rows: np.ndarray, G: np.float64, H: float,
                    lam: float, gamma: float
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
            member = np.zeros(len(self.X), dtype=bool)
            member[rows] = True  # a stable filter keeps each column sorted
            order = self.order[member[self.order]].reshape(len(self.many), -1)
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
