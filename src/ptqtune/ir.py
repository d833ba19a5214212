"""Graph IR for small CNN models.

A Graph is a topologically ordered list of nodes over named tensors.  The
node vocabulary is deliberately small — ten kinds, enough to express
LeNet/ResNet/MobileNet-style blocks (plain, residual, depthwise-separable,
branch-concat).  Weights are fp32 numpy arrays referenced by tensor id from
node input lists, so "every node input is a prior node output or a weight
tensor" holds structurally.

Conventions:
  * the graph input tensor is always named ``"input"``;
  * compute kinds (conv family + fully_connected) take inputs
    ``[data, weight]`` or ``[data, weight, bias]``; ``add`` takes two
    inputs, ``concat`` one or more and every other kind exactly one;
  * ``fully_connected`` flattens its data input row-major (there is no
    separate flatten node);
  * exactly one node output is consumed by nothing — that is the graph
    output.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Any, Iterable

import numpy as np

from .container import _malformed_header, read_container, write_container

INPUT_TENSOR = "input"

CONV_KINDS = ("conv2d", "depthwise_conv2d", "pointwise_conv2d")
COMPUTE_KINDS = CONV_KINDS + ("fully_connected",)
# kinds that run on their input's int8 codes unchanged, so their output
# shares their input's (scale, zero point)
UNIT_KINDS = ("relu", "maxpool", "avgpool", "softmax")
NODE_KINDS = COMPUTE_KINDS + ("relu", "maxpool", "avgpool", "add", "concat", "softmax")
# kind -> (fewest, most) inputs and how many it takes; compute kinds count
# their weight and bias
_ARITY = {
    **{k: (2, 3, "[data, weight(, bias)]") for k in COMPUTE_KINDS},
    **{k: (1, 1, "exactly one input") for k in UNIT_KINDS},
    "add": (2, 2, "exactly two inputs"),
    "concat": (1, np.inf, "at least one input"),
}


class GraphError(ValueError):
    """Raised for malformed graphs or containers."""


@dataclass
class Node:
    id: str
    kind: str
    inputs: list[str]
    output: str
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def weight_id(self) -> str | None:
        if self.kind in COMPUTE_KINDS and len(self.inputs) >= 2:
            return self.inputs[1]
        return None

    @property
    def bias_id(self) -> str | None:
        if self.kind in COMPUTE_KINDS and len(self.inputs) >= 3:
            return self.inputs[2]
        return None

    @property
    def data_inputs(self) -> list[str]:
        if self.kind in COMPUTE_KINDS:
            return self.inputs[:1]
        return list(self.inputs)


@dataclass
class Graph:
    name: str
    nodes: list[Node]
    weights: dict[str, np.ndarray]
    input_shape: tuple[int, int, int]  # (C, H, W)
    output_classes: int

    def consumers(self, tensor_id: str) -> list[Node]:
        return [n for n in self.nodes if tensor_id in n.data_inputs]

    def sole_relu(self, tensor_id: str) -> Node | None:
        """The relu that is the only consumer of ``tensor_id``, else None:
        the one pairing that both narrows a producer's range and fuses it."""
        consumers = self.consumers(tensor_id)
        if len(consumers) == 1 and consumers[0].kind == "relu":
            return consumers[0]
        return None

    def output_tensor(self) -> str:
        consumed = {t for n in self.nodes for t in n.data_inputs}
        terminal = [n.output for n in self.nodes if n.output not in consumed]
        if len(terminal) != 1:
            raise GraphError(f"graph must have exactly one output, found {terminal}")
        return terminal[0]

    def compute_nodes(self) -> list[Node]:
        return [n for n in self.nodes if n.kind in COMPUTE_KINDS]


def is_integer(v) -> bool:
    """Whether ``v`` is an integer: a Python or numpy int, but not a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def fused_relu(node: Node) -> bool:
    """Whether a weighted layer applies the relu fused into it."""
    return node.attrs.get("fused_relu", False)


def conv_args(node: Node) -> tuple[int, int]:
    """(stride, padding) of a conv-family node; they default to 1 and 0."""
    return int(node.attrs.get("stride", 1)), int(node.attrs.get("padding", 0))


def pool_args(node: Node) -> tuple[int, int]:
    """(kernel, stride) of a maxpool/avgpool node; stride defaults to kernel."""
    k = int(node.attrs.get("kernel", 0))
    return k, int(node.attrs.get("stride", k))


def out_size(size: int, k: int, stride: int, pad: int = 0) -> int:
    """Window positions of a k-wide window at ``stride`` along ``size``
    padded by ``pad`` on each side."""
    return (size + 2 * pad - k) // stride + 1


def _conv_out_hw(h: int, w: int, kh: int, kw: int, stride: int, pad: int) -> tuple[int, int]:
    oh, ow = out_size(h, kh, stride, pad), out_size(w, kw, stride, pad)
    if oh < 1 or ow < 1:
        raise GraphError(f"kernel {kh}x{kw} stride {stride} pad {pad} does not fit {h}x{w}")
    return oh, ow


def propagate_shapes(g: Graph) -> dict[str, tuple[int, ...]]:
    """Return per-tensor shapes (without the batch dim); validates as it goes."""
    shapes: dict[str, tuple[int, ...]] = {INPUT_TENSOR: tuple(g.input_shape)}
    for n in g.nodes:
        if n.kind not in _ARITY:
            raise GraphError(f"node {n.id}: unknown kind {n.kind!r}")
        fewest, most, takes = _ARITY[n.kind]
        if not fewest <= len(n.inputs) <= most:
            raise GraphError(f"node {n.id}: {n.kind} takes {takes}")
        for name in ("stride", "padding", "kernel"):
            if name in n.attrs and not is_integer(n.attrs[name]):
                raise GraphError(f"node {n.id}: {name} {n.attrs[name]!r} is not an integer")
        if "fused_relu" in n.attrs and not (n.kind in COMPUTE_KINDS
                                            and isinstance(n.attrs["fused_relu"], bool)):
            raise GraphError(f"node {n.id}: fused_relu {n.attrs['fused_relu']!r} is not "
                             "a bool on a weighted layer")
        for t in n.data_inputs:
            if t not in shapes:
                raise GraphError(f"node {n.id}: input {t!r} not defined before use")
        x = shapes[n.data_inputs[0]]
        if n.kind in COMPUTE_KINDS:
            w = g.weights.get(n.weight_id)
            if w is None:
                raise GraphError(f"node {n.id}: missing weight tensor")
        if n.kind in CONV_KINDS:
            if len(x) != 3:
                raise GraphError(f"node {n.id}: {n.kind} needs a CHW input, got {x}")
            if w.ndim != 4:
                raise GraphError(f"node {n.id}: conv weight must be 4-d, got {w.shape}")
            stride, pad = conv_args(n)
            if stride < 1 or pad < 0:
                raise GraphError(f"node {n.id}: bad stride/padding")
            o, i, kh, kw = w.shape
            if n.kind == "conv2d":
                if i != x[0]:
                    raise GraphError(f"node {n.id}: weight expects {i} channels, input has {x[0]}")
            elif n.kind == "depthwise_conv2d":
                if i != 1 or o != x[0]:
                    raise GraphError(f"node {n.id}: depthwise weight must be (C,1,kh,kw) with C={x[0]}")
            else:  # pointwise
                if (kh, kw) != (1, 1) or i != x[0]:
                    raise GraphError(f"node {n.id}: pointwise weight must be (O,{x[0]},1,1)")
            oh, ow = _conv_out_hw(x[1], x[2], kh, kw, stride, pad)
            shapes[n.output] = (o, oh, ow)
        elif n.kind == "fully_connected":
            if w.ndim != 2:
                raise GraphError(f"node {n.id}: fully_connected weight must be 2-d")
            flat = int(np.prod(x))
            if w.shape[1] != flat:
                raise GraphError(f"node {n.id}: weight expects {w.shape[1]} inputs, got {flat}")
            shapes[n.output] = (w.shape[0],)
        elif n.kind in ("maxpool", "avgpool"):
            if len(x) != 3:
                raise GraphError(f"node {n.id}: pooling needs a CHW input")
            k, stride = pool_args(n)
            if k < 1 or stride < 1:
                raise GraphError(f"node {n.id}: bad pool kernel/stride")
            oh, ow = _conv_out_hw(x[1], x[2], k, k, stride, 0)
            shapes[n.output] = (x[0], oh, ow)
        elif n.kind == "relu" or n.kind == "softmax":
            shapes[n.output] = x
        elif n.kind == "add":
            y = shapes[n.data_inputs[1]]
            if x != y:
                raise GraphError(f"node {n.id}: add shape mismatch {x} vs {y}")
            shapes[n.output] = x
        elif n.kind == "concat":
            parts = [shapes[t] for t in n.data_inputs]
            if any(len(p) != 3 for p in parts):
                raise GraphError(f"node {n.id}: concat needs CHW inputs")
            hw = {p[1:] for p in parts}
            if len(hw) != 1:
                raise GraphError(f"node {n.id}: concat spatial mismatch {hw}")
            shapes[n.output] = (sum(p[0] for p in parts),) + parts[0][1:]
        if n.bias_id is not None:
            b = g.weights.get(n.bias_id)
            if b is None:
                raise GraphError(f"node {n.id}: missing bias tensor")
            n_out = shapes[n.output][0]
            if b.shape != (n_out,):
                raise GraphError(f"node {n.id}: bias shape {b.shape} is not ({n_out},), "
                                 "one per output channel")
    return shapes


def check_names(g: Graph, weight_ids: Iterable[str]) -> None:
    """Node ids are unique, each node writes a tensor of its own (not
    another node's, not the graph input and none of ``weight_ids``), and
    each weight or bias has one reader: a bias is quantized at its layer's
    input scale, so two layers cannot share one."""
    ids = [n.id for n in g.nodes]
    if len(set(ids)) != len(ids):
        raise GraphError("duplicate node ids")
    outs = [n.output for n in g.nodes]
    if len(set(outs)) != len(outs):
        raise GraphError("duplicate output tensor ids")
    if INPUT_TENSOR in outs or set(outs) & set(weight_ids):
        raise GraphError("node outputs collide with reserved/weight tensor ids")
    params = [t for n in g.compute_nodes() for t in n.inputs[1:]]
    if len(set(params)) != len(params):
        shared = sorted({t for t in params if params.count(t) > 1})
        raise GraphError(f"weight/bias tensors {shared} are read more than once")


def validate(g: Graph) -> None:
    check_names(g, g.weights)
    for wid, w in g.weights.items():
        if w.dtype != np.float32:
            raise GraphError(f"weight {wid!r} must be float32, got {w.dtype}")
    propagate_shapes(g)
    for n in g.compute_nodes():
        for t in n.inputs[1:]:
            if not np.isfinite(g.weights[t]).all():
                raise GraphError(f"node {n.id}: {t!r} holds NaN or inf")
    g.output_tensor()


@dataclass
class ModelFeatures:
    """Macro-architecture counts fed to the cost model."""

    n_nodes: int
    n_layers: int  # weighted layers: conv family + fully_connected
    n_conv: int
    n_depthwise: int
    n_pointwise: int
    n_skip: int
    n_fc: int
    n_concat: int
    activation_kinds: dict[str, int]  # per UNIT_KINDS kind

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelFeatures":
        """The features a tuning record stores; every count must be an
        integer in [0, 2**53), which the surrogate's float64 encoding holds
        exactly (the constructor checks nothing, for speed)."""
        f = cls(**{f.name: d[f.name] for f in fields(cls)}
                | {"activation_kinds": dict(d["activation_kinds"])})
        counts = {**vars(f), **{f"activation_kinds.{k}": v for k, v in f.activation_kinds.items()}}
        bad = {k: v for k, v in counts.items()
               if k != "activation_kinds" and not (is_integer(v) and 0 <= v < 2**53)}
        if bad:
            raise ValueError(f"model feature counts {bad} are not integers in [0, 2**53)")
        return f


def extract_features(g: Graph) -> ModelFeatures:
    kinds = [n.kind for n in g.nodes]
    count = lambda k: kinds.count(k)  # noqa: E731
    acts = {k: count(k) for k in UNIT_KINDS}
    n_conv = count("conv2d")
    n_dw = count("depthwise_conv2d")
    n_pw = count("pointwise_conv2d")
    n_fc = count("fully_connected")
    return ModelFeatures(
        n_nodes=len(kinds),
        n_layers=n_conv + n_dw + n_pw + n_fc,
        n_conv=n_conv,
        n_depthwise=n_dw,
        n_pointwise=n_pw,
        n_skip=count("add"),
        n_fc=n_fc,
        n_concat=count("concat"),
        activation_kinds=acts,
    )


# --- container I/O ---------------------------------------------------------

def _graph_header(g: Graph) -> dict:
    """The graph-description header keys shared by ``.qtm`` and ``.qtm8``."""
    return {
        "name": g.name,
        "input_shape": list(g.input_shape),
        "output_classes": g.output_classes,
        "nodes": [{"id": n.id, "kind": n.kind, "inputs": list(n.inputs),
                   "output": n.output, "attrs": dict(n.attrs)} for n in g.nodes],
    }


def _graph_from_header(header: dict, weights: dict[str, np.ndarray]) -> Graph:
    """Inverse of ``_graph_header``."""
    nodes = [Node(id=d["id"], kind=d["kind"], inputs=list(d["inputs"]),
                  output=d["output"], attrs=dict(d["attrs"]))
             for d in header["nodes"]]
    return Graph(name=header["name"], nodes=nodes, weights=weights,
                 input_shape=tuple(header["input_shape"]),
                 output_classes=int(header["output_classes"]))


def save_model(g: Graph, path: str, meta: dict | None = None) -> None:
    validate(g)
    order = sorted(g.weights)
    write_container(path, "qtm", {**_graph_header(g), "weight_order": order},
                    [g.weights[k] for k in order], meta)


def load_model(path: str) -> Graph:
    with _malformed_header(path, GraphError):
        header, buffers = read_container(path, "qtm")
        order = header["weight_order"]
        if len(order) != len(buffers):
            raise GraphError(f"{path}: weight table/buffer count mismatch")
        g = _graph_from_header(header, dict(zip(order, buffers)))
        validate(g)
    return g
