"""Deterministic fixture models for desk-scale experiments.

Three presets cover the block vocabulary: "lenet-ish" (plain conv/pool
stack), "resnet-toy" (residual add), "mobile-toy" (depthwise + pointwise).
A tiny recipe grammar builds sequential models from strings like
"3xconv+fc" (tokens joined by '+', optional "<n>x" repeat; kinds: conv,
dwconv, pwconv, fc, relu, maxpool, avgpool, softmax).  The builder sizes each
layer from ``propagate_shapes`` of the graph so far, so a recipe that does
not fit (a conv or pool after fc) raises the ``GraphError`` naming its node.

Feature-extraction tests need ground truth that does not come from the
graph itself, so each recipe's block counts are also available from
``recipe_feature_counts`` via an independent route (declared tables for
presets, token arithmetic for grammar recipes).

Weights are drawn from seeded He-scaled normals — except the final
fully-connected layer, whose rows are *planted*: the normalized features of
each class template propagated through the (random) stack ahead of it.
That turns every fixture into a template-matching classifier with a wide
decision margin, giving a near-perfect fp32 baseline for quantization-drop
comparisons to be measured against.  Given (recipe, seed) the whole model,
planted head included, is a pure function.
"""

from __future__ import annotations

import re

import numpy as np

from .dataset import IMAGE_SHAPE, N_CLASSES, class_templates
from .fp32 import run_fp32
from .ir import Graph, GraphError, INPUT_TENSOR, ModelFeatures, Node, propagate_shapes, validate


class _Builder:
    def __init__(self, name: str, seed: int):
        self.rng = np.random.default_rng(seed)
        self.nodes: list[Node] = []
        self.weights: dict[str, np.ndarray] = {}
        self.cur = INPUT_TENSOR
        self.name = name
        self.n = 0
        self.next_channels = 8

    @property
    def shape(self) -> tuple[int, ...]:
        """The shape of the current tensor, as ``propagate_shapes`` finds it."""
        return propagate_shapes(self.graph())[self.cur]

    def _tid(self, kind: str) -> tuple[str, str]:
        nid = f"{kind[:4]}{self.n}"
        self.n += 1
        return nid, f"t_{nid}"

    def _emit(self, kind: str, inputs: list[str], attrs: dict | None = None) -> str:
        nid, out = self._tid(kind)
        self.nodes.append(Node(id=nid, kind=kind, inputs=inputs, output=out,
                               attrs=attrs or {}))
        self.cur = out
        return out

    def _weight(self, suffix: str, shape: tuple[int, ...], std: float) -> str:
        wid = f"w_{suffix}{len(self.weights)}"
        self.weights[wid] = (std * self.rng.standard_normal(shape)).astype(np.float32)
        return wid

    def conv(self, out_c: int, k: int, stride: int = 1, pad: int = 0) -> str:
        c = self.shape[0]
        w = self._weight("conv", (out_c, c, k, k), np.sqrt(2.0 / (c * k * k)))
        b = self._weight("bias", (out_c,), 0.01)
        return self._emit("conv2d", [self.cur, w, b], {"stride": stride, "padding": pad})

    def dwconv(self) -> str:
        """A 3x3 depthwise conv, stride 1, padded to keep the size."""
        c = self.shape[0]
        w = self._weight("dw", (c, 1, 3, 3), np.sqrt(2.0 / 9))
        b = self._weight("bias", (c,), 0.01)
        return self._emit("depthwise_conv2d", [self.cur, w, b], {"stride": 1, "padding": 1})

    def pwconv(self, out_c: int) -> str:
        c = self.shape[0]
        w = self._weight("pw", (out_c, c, 1, 1), np.sqrt(2.0 / c))
        b = self._weight("bias", (out_c,), 0.01)
        return self._emit("pointwise_conv2d", [self.cur, w, b], {"stride": 1, "padding": 0})

    def fc(self) -> str:
        d = int(np.prod(self.shape))
        w = self._weight("fc", (N_CLASSES, d), np.sqrt(1.0 / d))
        return self._emit("fully_connected", [self.cur, w])

    def relu(self) -> str:
        return self._emit("relu", [self.cur])

    def maxpool(self, k: int) -> str:
        return self._emit("maxpool", [self.cur], {"kernel": k, "stride": k})

    def avgpool(self, k: int) -> str:
        return self._emit("avgpool", [self.cur], {"kernel": k, "stride": k})

    def add(self, other: str) -> str:
        return self._emit("add", [self.cur, other])

    def softmax(self) -> str:
        return self._emit("softmax", [self.cur])

    def graph(self) -> Graph:
        return Graph(name=self.name, nodes=self.nodes, weights=self.weights,
                     input_shape=IMAGE_SHAPE, output_classes=N_CLASSES)


def _build_lenet(b: _Builder) -> None:
    b.conv(6, 5)
    b.relu()
    b.maxpool(2)
    b.conv(16, 5)
    b.relu()
    b.maxpool(2)
    b.fc()


def _build_resnet(b: _Builder) -> None:
    b.conv(8, 3, pad=1)
    skip = b.relu()
    b.conv(8, 3, pad=1)
    b.add(skip)
    b.relu()
    b.maxpool(2)
    b.conv(16, 3, stride=2, pad=1)
    b.relu()
    b.avgpool(4)
    b.fc()
    b.softmax()


def _build_mobile(b: _Builder) -> None:
    b.conv(8, 3, pad=1)
    b.relu()
    b.dwconv()
    b.relu()
    b.pwconv(16)
    b.relu()
    b.maxpool(4)
    b.dwconv()
    b.relu()
    b.pwconv(32)
    b.relu()
    b.avgpool(4)
    b.fc()


_PRESETS = {
    "lenet-ish": _build_lenet,
    "resnet-toy": _build_resnet,
    "mobile-toy": _build_mobile,
}

_PRESET_COUNTS = {
    "lenet-ish": dict(n_nodes=7, n_layers=3, n_conv=2, n_depthwise=0, n_pointwise=0,
                      n_skip=0, n_fc=1, n_concat=0,
                      activation_kinds={"relu": 2, "maxpool": 2, "avgpool": 0, "softmax": 0}),
    "resnet-toy": dict(n_nodes=11, n_layers=4, n_conv=3, n_depthwise=0, n_pointwise=0,
                       n_skip=1, n_fc=1, n_concat=0,
                       activation_kinds={"relu": 3, "maxpool": 1, "avgpool": 1, "softmax": 1}),
    "mobile-toy": dict(n_nodes=13, n_layers=6, n_conv=1, n_depthwise=2, n_pointwise=2,
                       n_skip=0, n_fc=1, n_concat=0,
                       activation_kinds={"relu": 5, "maxpool": 1, "avgpool": 1, "softmax": 0}),
}

FIXTURE_RECIPES = tuple(_PRESETS)

_TOKEN_RE = re.compile(r"^(?:(\d+)[x×])?([a-z]+)$")
_GRAMMAR_KINDS = ("conv", "dwconv", "pwconv", "fc", "relu", "maxpool", "avgpool", "softmax")


def _parse_tokens(recipe: str) -> list[str]:
    out: list[str] = []
    for part in recipe.split("+"):
        m = _TOKEN_RE.match(part.strip())
        if not m or m.group(2) not in _GRAMMAR_KINDS:
            raise GraphError(f"invalid recipe token {part!r}")
        out.extend([m.group(2)] * int(m.group(1) or 1))
    if not out:
        raise GraphError("empty recipe")
    return out


def _build_grammar(b: _Builder, tokens: list[str]) -> None:
    for tok in tokens:
        if tok == "conv":
            b.conv(b.next_channels, 3, pad=1)
            b.next_channels = min(b.next_channels * 2, 64)
        elif tok == "dwconv":
            b.dwconv()
        elif tok == "pwconv":
            b.pwconv(min(b.next_channels * 2, 64))
            b.next_channels = min(b.next_channels * 2, 64)
        elif tok == "fc":
            b.fc()
        elif tok == "relu":
            b.relu()
        elif tok == "maxpool":
            b.maxpool(2)
        elif tok == "avgpool":
            b.avgpool(2)
        else:
            b.softmax()


def recipe_feature_counts(recipe: str) -> ModelFeatures:
    """Ground-truth block counts for a recipe, derived without building it."""
    if recipe in _PRESET_COUNTS:
        return ModelFeatures(**_PRESET_COUNTS[recipe])
    tokens = _parse_tokens(recipe)
    c = tokens.count
    return ModelFeatures(
        n_nodes=len(tokens),
        n_layers=c("conv") + c("dwconv") + c("pwconv") + c("fc"),
        n_conv=c("conv"), n_depthwise=c("dwconv"), n_pointwise=c("pwconv"),
        n_skip=0, n_fc=c("fc"), n_concat=0,
        activation_kinds={"relu": c("relu"), "maxpool": c("maxpool"),
                          "avgpool": c("avgpool"), "softmax": c("softmax")},
    )


def _plant_head(g: Graph) -> None:
    """Rewrite the last fully-connected layer into a template matcher."""
    fcs = [n for n in g.nodes if n.kind == "fully_connected"]
    if not fcs:
        return
    fc = fcs[-1]
    target = fc.data_inputs[0]
    blocks: list[np.ndarray] = []

    def sink(tid: str, v: np.ndarray) -> None:
        if tid == target:
            blocks.append(v)

    run_fp32(g, class_templates(), sink=sink)
    feats = np.concatenate(blocks).reshape(N_CLASSES, -1).astype(np.float64)
    norms = np.linalg.norm(feats, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    g.weights[fc.weight_id] = (feats / norms).astype(np.float32)


def generate_fixture(recipe: str, seed: int) -> Graph:
    b = _Builder(name=f"{recipe}-s{seed}", seed=seed)
    if recipe in _PRESETS:
        _PRESETS[recipe](b)
    else:
        _build_grammar(b, _parse_tokens(recipe))
    g = b.graph()
    validate(g)
    _plant_head(g)
    return g
