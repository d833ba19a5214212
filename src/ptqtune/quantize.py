"""Quantized-model construction.

quantize_model() turns (Graph, CalibrationCache, QuantConfig) into a
QuantizedGraph: int8 weight codes, int32 bias codes, and per-tensor
activation params.

Parameter placement rules:

  * activation params are always tensor-granularity; channel granularity
    applies to weights (one scale/zero-point per output channel);
  * order-preserving unit ops (relu, maxpool, avgpool, softmax) adopt their
    input tensor's params — they never introduce a new scale, which is what
    makes conv+relu fusion bit-exact;
  * when a weighted layer's or an add's output feeds exactly one relu
    (``Graph.sole_relu``), its params are derived from the relu *output*
    histogram (post-activation range).  The producer's negative values then
    saturate at the code for 0.0, which is exactly what the following relu
    would do, and nonnegative schemes such as SymmetricUint8 get their full
    256-level branch;
  * with fusion, the same pass emits such a weighted layer with
    ``fused_relu`` and the relu's output tensor and drops the relu, so the
    numerics do not change; ``fused`` is true exactly when a pair merged;
  * weights are never KL-clipped — their exact min/max is known;
  * bias quantizes to int32 at scale in_scale * weight_scale, zero point 0;
  * mixed=FirstLastFp32 keeps the first and last weighted layers in fp32:
    their weights/biases carry no quant params, the graph input and final
    output stay unquantized, and the first layer's output becomes the
    quantize boundary.

model_size() sums the bytes of each weighted layer's stored arrays: int8
weight codes (1 B per element) or fp32 weights (4 B), int32 or fp32 biases
(4 B), plus an 8-byte (scale, zero-point) slot per parameter group — the
slot count follows the configured granularity for every weighted layer,
mixed or not, so precision changes move the total by exactly 3 bytes per
weight element.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .calibration import SIZE_CLASSES, CalibrationCache
from .clipping import clipped_range
from .container import _malformed_header, read_container, write_container
from .ir import (COMPUTE_KINDS, Graph, GraphError, INPUT_TENSOR, Node,
                 _graph_from_header, _graph_header, check_names, propagate_shapes)
from .schemes import QuantParams, Scheme, params_for_range, quantize_array, round_half_away

# The configuration space: each QuantConfig field, in declaration order, and
# the values it takes, in enumeration order (``tuner.enumerate_space``) and
# one-hot encoding order (``gbt.encode``).  Everything else that lists these
# values derives them.
DIMENSIONS: dict[str, tuple] = {
    "cache": tuple(SIZE_CLASSES),
    "scheme": tuple(Scheme),
    "clipping": ("Max", "KL"),
    "granularity": ("Tensor", "Channel"),
    "mixed": ("Off", "FirstLastFp32"),
    "fusion": (False, True),
}
CACHE_SIZES = DIMENSIONS["cache"]

INT32_MIN, INT32_MAX = -(2**31), 2**31 - 1


def _plain(value):
    """A dimension value as JSON and the CLI spell it."""
    return value.value if isinstance(value, Scheme) else value


@dataclass(frozen=True)
class QuantConfig:
    cache: str = "S3"
    scheme: Scheme = Scheme.Asymmetric
    clipping: str = "Max"
    granularity: str = "Tensor"
    mixed: str = "Off"
    fusion: bool = False

    def __post_init__(self):
        if not isinstance(self.scheme, Scheme):
            object.__setattr__(self, "scheme", Scheme(self.scheme))
        for name, values in DIMENSIONS.items():
            if getattr(self, name) not in values:
                raise ValueError(f"bad {name} {getattr(self, name)!r}")

    def to_dict(self) -> dict:
        return {name: _plain(getattr(self, name)) for name in DIMENSIONS}

    @classmethod
    def from_dict(cls, d: dict) -> "QuantConfig":
        # fusion is optional: records written before it existed lack it
        return cls(**{name: d[name] for name in DIMENSIONS if name != "fusion"},
                   fusion=bool(d.get("fusion", False)))


# What each deployment target pins; a dimension it does not name is free.
PROFILE_PINS: dict[str, dict] = {
    "Generic": {"fusion": False},
    "IntegerOnly": {"scheme": Scheme.SymmetricPower2, "granularity": "Tensor",
                    "mixed": "Off"},
}


@dataclass(frozen=True)
class TargetProfile:
    name: str

    def __post_init__(self):
        if self.name not in PROFILE_PINS:
            raise ValueError(f"unknown profile {self.name!r}")

    @property
    def pins(self) -> dict:
        return PROFILE_PINS[self.name]

    def contains(self, cfg: QuantConfig) -> bool:
        return all(getattr(cfg, name) == value for name, value in self.pins.items())


GENERIC = TargetProfile("Generic")
INTEGER_ONLY = TargetProfile("IntegerOnly")

PROFILES = {"generic": GENERIC, "integer-only": INTEGER_ONLY}


@dataclass
class QuantizedGraph:
    graph: Graph
    config: QuantConfig
    act_params: dict[str, QuantParams]
    weight_codes: dict[str, np.ndarray]       # int8, keyed by weight tensor id
    weight_params: dict[str, QuantParams]
    bias_codes: dict[str, np.ndarray]         # int32, keyed by bias tensor id
    fp32_nodes: set[str] = field(default_factory=set)
    fused: bool = False

    def on_codes(self, node: Node) -> bool:
        """Whether ``node`` runs on int8 codes: its output carries codes and
        it is not a mixed-precision fp32 layer."""
        return node.output in self.act_params and node.id not in self.fp32_nodes


def quantize_weights(w: np.ndarray, scheme: Scheme,
                     granularity: str) -> tuple[np.ndarray, QuantParams]:
    """Quantize one weight tensor; channel granularity groups by axis 0."""
    w = np.asarray(w, dtype=np.float32)
    if granularity == "Channel" and w.ndim >= 2:
        scales, zps = [], []
        for o in range(w.shape[0]):
            p = params_for_range(scheme, float(w[o].min()), float(w[o].max()))
            scales.append(np.float32(p.scale))
            zps.append(int(p.zero_point))
        params = QuantParams(scale=np.asarray(scales, dtype=np.float32),
                             zero_point=np.asarray(zps, dtype=np.int64), axis=0)
    else:
        params = params_for_range(scheme, float(w.min()), float(w.max()))
    return quantize_array(w, params), params


def _act_params(cache: CalibrationCache, tensor_id: str,
                cfg: QuantConfig) -> QuantParams:
    h = cache.histograms.get(tensor_id)
    if h is None:
        raise GraphError(f"calibration cache has no histogram for {tensor_id!r}")
    lo, hi = clipped_range(h, cfg.clipping)
    return params_for_range(cfg.scheme, lo, hi)


def quantize_model(g: Graph, cache: CalibrationCache, cfg: QuantConfig,
                   profile=None) -> QuantizedGraph:
    if profile is not None and not profile.contains(cfg):
        raise ValueError(f"config {cfg} not allowed by profile {profile.name}")
    if cache.model_name != g.name:
        raise GraphError(f"cache built for {cache.model_name!r}, model is {g.name!r}")

    compute = g.compute_nodes()
    if not compute:
        raise GraphError("graph has no weighted layers")
    fp32_nodes: set[str] = set()
    if cfg.mixed == "FirstLastFp32":
        fp32_nodes = {compute[0].id, compute[-1].id}
    last_id = compute[-1].id

    act_params: dict[str, QuantParams] = {}
    weight_codes: dict[str, np.ndarray] = {}
    weight_params: dict[str, QuantParams] = {}
    bias_codes: dict[str, np.ndarray] = {}
    nodes: list[Node] = []
    folded: set[str] = set()  # ids of relus fused into their producer

    # a tensor carries int8 codes iff it has act_params; the rest stay fp32
    if cfg.mixed == "Off":
        act_params[INPUT_TENSOR] = _act_params(cache, INPUT_TENSOR, cfg)

    for node in g.nodes:
        if node.id in folded:
            continue
        relu = g.sole_relu(node.output) if node.kind in (*COMPUTE_KINDS, "add") else None
        # calibrate from the post-relu range when a sole relu follows
        src = node.output if relu is None else relu.output
        if cfg.fusion and relu is not None and node.kind in COMPUTE_KINDS:
            folded.add(relu.id)
            node = replace(node, output=relu.output, attrs={**node.attrs, "fused_relu": True})
        nodes.append(node)
        in_codes = [t in act_params for t in node.data_inputs]
        if node.kind in COMPUTE_KINDS:
            if node.id in fp32_nodes:
                # output is the quantize boundary unless this is the last layer
                if node.id != last_id:
                    act_params[node.output] = _act_params(cache, src, cfg)
                continue
            if not all(in_codes):
                raise GraphError(f"node {node.id}: quantized layer fed by fp32 tensor")
            w = g.weights[node.weight_id]
            codes, wp = quantize_weights(w, cfg.scheme, cfg.granularity)
            weight_codes[node.weight_id] = codes
            weight_params[node.weight_id] = wp
            if node.bias_id is not None:
                s_in = float(act_params[node.data_inputs[0]].scale)
                s_b = s_in * np.asarray(wp.scale, dtype=np.float64)
                b = np.asarray(g.weights[node.bias_id], dtype=np.float64)
                bq = round_half_away(b / s_b)
                bias_codes[node.bias_id] = np.clip(bq, INT32_MIN, INT32_MAX).astype(np.int32)
            act_params[node.output] = _act_params(cache, src, cfg)
        elif node.kind in ("add", "concat"):
            if all(in_codes):
                act_params[node.output] = _act_params(cache, src, cfg)
            elif any(in_codes):
                raise GraphError(f"node {node.id}: mixed int8/fp32 operands")
        else:  # relu / maxpool / avgpool / softmax: adopt
            if node.data_inputs[0] in act_params:
                act_params[node.output] = act_params[node.data_inputs[0]]

    return QuantizedGraph(graph=replace(g, nodes=nodes) if folded else g, config=cfg,
                          act_params=act_params, weight_codes=weight_codes,
                          weight_params=weight_params, bias_codes=bias_codes,
                          fp32_nodes=fp32_nodes, fused=bool(folded))


def model_size(qg: QuantizedGraph) -> int:
    """Bytes to store all weights: the stored weight and bias arrays (codes
    where quantized, fp32 values otherwise) + 8 B per param group (per
    configured granularity, for every weighted layer)."""
    stored = {**qg.graph.weights, **qg.weight_codes, **qg.bias_codes}
    per_channel = qg.config.granularity == "Channel"
    total = 0
    for node in qg.graph.compute_nodes():
        w = stored[node.weight_id]
        total += w.nbytes + 8 * (w.shape[0] if per_channel else 1)
        if node.bias_id is not None:
            total += stored[node.bias_id].nbytes
    return total


# --- .qtm8 container -------------------------------------------------------

def _params_to_buffers(p: QuantParams) -> tuple[np.ndarray, np.ndarray]:
    return (np.atleast_1d(np.asarray(p.scale, dtype=np.float32)),
            np.atleast_1d(np.asarray(p.zero_point, dtype=np.int32)))


def _params_from_buffers(scale: np.ndarray, zp: np.ndarray,
                         axis: int | None) -> QuantParams:
    if axis is None:
        return QuantParams(scale=np.float32(scale[0]), zero_point=int(zp[0]))
    return QuantParams(scale=scale.astype(np.float32),
                       zero_point=zp.astype(np.int64), axis=axis)


def save_quantized(qg: QuantizedGraph, path: str, meta: dict | None = None) -> None:
    g = qg.graph
    wq_ids = sorted(qg.weight_codes)
    bias_ids = sorted(qg.bias_codes)
    fp32_weight_ids = sorted(set(g.weights) - set(qg.weight_codes) - set(qg.bias_codes))
    act_ids = sorted(qg.act_params)
    # adopted params are shared objects; record sharing so load restores it
    shared: dict[int, str] = {}
    act_src: list[str] = []
    uniq_act: list[str] = []
    for t in act_ids:
        p = qg.act_params[t]
        if id(p) in shared:
            act_src.append(shared[id(p)])
        else:
            shared[id(p)] = t
            act_src.append(t)
            uniq_act.append(t)
    act_scales = np.asarray([float(qg.act_params[t].scale) for t in uniq_act], dtype=np.float32)
    act_zps = np.asarray([int(qg.act_params[t].zero_point) for t in uniq_act], dtype=np.int32)

    buffers: list[np.ndarray] = [act_scales, act_zps]
    wp_meta = []
    for t in wq_ids:
        p = qg.weight_params[t]
        s, z = _params_to_buffers(p)
        buffers += [qg.weight_codes[t], s, z]
        wp_meta.append({"id": t, "axis": p.axis})
    for t in bias_ids:
        buffers.append(qg.bias_codes[t])
    for t in fp32_weight_ids:
        buffers.append(g.weights[t])

    header = {
        **_graph_header(g),
        "config": qg.config.to_dict(),
        "fp32_nodes": sorted(qg.fp32_nodes),
        "fused": qg.fused,
        "act_tensors": act_ids,
        "act_sources": act_src,
        "act_unique": uniq_act,
        "weight_tensors": wp_meta,
        "bias_tensors": bias_ids,
        "fp32_weight_tensors": fp32_weight_ids,
    }
    write_container(path, "qtm8", header, buffers, meta)


def _check_references(qg: QuantizedGraph) -> None:
    """The executors find everything a node reads, in the shape they need:
    node ids and outputs are unique names (``check_names``), shapes
    propagate through the graph (codes standing in for quantized weights)
    to exactly one output, a node run on codes has params for its inputs
    and int8/int32 codes for its weight and bias, a node run in float has
    fp32 ones, and each bias and per-channel param has one entry per output
    channel.  So a corrupt ``.qtm8`` fails at load with ValueError, instead
    of mid-run."""
    g = qg.graph
    check_names(g, [*g.weights, *qg.weight_codes, *qg.bias_codes])
    shapes = propagate_shapes(replace(g, weights={**g.weights, **qg.weight_codes}))
    g.output_tensor()
    for t, p in qg.weight_params.items():
        if p.axis not in (None, 0):
            raise ValueError(f"weight {t!r}: param axis {p.axis!r} is not None or 0")
    for node in g.nodes:
        on_codes = qg.on_codes(node)
        for t in node.data_inputs if on_codes else ():
            if t not in qg.act_params:
                raise ValueError(f"node {node.id}: activation {t!r} has no act_params")
        if node.kind not in COMPUTE_KINDS:
            continue
        w_table = qg.weight_codes if on_codes else g.weights
        b_table = qg.bias_codes if on_codes else g.weights
        for t, table in ((node.weight_id, w_table), (node.bias_id, b_table)):
            if t is not None and t not in table:
                raise ValueError(f"node {node.id}: {t!r} has no "
                                 f"{'codes' if on_codes else 'fp32 values'}")
        n_out = shapes[node.output][0]
        per_channel = {"bias": b_table[node.bias_id]} if node.bias_id is not None else {}
        if on_codes and (p := qg.weight_params[node.weight_id]).axis == 0:
            per_channel.update(scale=p.scale, zero_point=p.zero_point)
        for what, values in per_channel.items():
            if np.shape(values) != (n_out,):
                raise ValueError(f"node {node.id}: {what} shape {np.shape(values)} "
                                 f"is not ({n_out},), one per output channel")


def load_quantized(path: str) -> QuantizedGraph:
    header, buffers = read_container(path, "qtm8")
    with _malformed_header(path):
        it = iter(buffers)
        act_scales = next(it)
        act_zps = next(it)
        uniq_params = {
            t: QuantParams(scale=np.float32(act_scales[i]), zero_point=int(act_zps[i]))
            for i, t in enumerate(header["act_unique"])
        }
        act_params = {t: uniq_params[src]
                      for t, src in zip(header["act_tensors"], header["act_sources"])}
        weight_codes, weight_params = {}, {}
        for meta in header["weight_tensors"]:
            codes, s, z = next(it), next(it), next(it)
            weight_codes[meta["id"]] = codes
            weight_params[meta["id"]] = _params_from_buffers(s, z, meta["axis"])
        bias_codes = {t: next(it) for t in header["bias_tensors"]}
        # quantized weight tensors have no fp32 payload; the executor reads codes
        weights = {t: next(it) for t in header["fp32_weight_tensors"]}
        qg = QuantizedGraph(
            graph=_graph_from_header(header, weights),
            config=QuantConfig.from_dict(header["config"]),
            act_params=act_params,
            weight_codes=weight_codes,
            weight_params=weight_params,
            bias_codes=bias_codes,
            fp32_nodes=set(header["fp32_nodes"]),
            fused=bool(header["fused"]),
        )
        _check_references(qg)
    return qg
