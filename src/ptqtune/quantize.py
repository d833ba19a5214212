"""Quantized-model construction.

quantize_model() turns (Graph, CalibrationCache, QuantConfig) into a
QuantizedGraph: a graph whose one weights table holds int8 weight codes and
int32 bias codes for the layers run on codes (float32 values for the rest),
the weight params, and per-tensor activation params.

Parameter placement rules:

  * activation params are always tensor-granularity; channel granularity
    applies to weights (one scale/zero-point per output channel);
  * unit ops (``ir.UNIT_KINDS``: relu, maxpool, avgpool, softmax) adopt
    their input tensor's params — they never introduce a new scale, which is
    what makes conv+relu fusion bit-exact;
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

from dataclasses import dataclass, replace

import numpy as np

from .calibration import SIZE_CLASSES, CalibrationCache
from .clipping import clipped_range
from .container import _malformed_header, canonical_json, read_container, write_container
from .ir import (COMPUTE_KINDS, Graph, GraphError, INPUT_TENSOR, Node, UNIT_KINDS,
                 _graph_from_header, _graph_header, check_names, fused_relu, propagate_shapes)
from .schemes import (QMAX, QMIN, QuantParams, Scheme, params_for_range, quantize_array,
                      round_half_away)

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
            v = getattr(self, name)
            # by type as well as by value (a dimension's values share one
            # type): 1 == True, but 1 is not a fusion flag
            if v not in values or type(v) is not type(values[0]):
                raise ValueError(f"bad {name} {v!r}")

    def to_dict(self) -> dict:
        return {name: _plain(getattr(self, name)) for name in DIMENSIONS}

    @classmethod
    def from_dict(cls, d: dict) -> "QuantConfig":
        # fusion is optional: records written before it existed lack it
        return cls(**{name: d[name] for name in DIMENSIONS if name != "fusion"},
                   fusion=d.get("fusion", False))


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
    # graph.weights holds exactly what each node reads: int8 weight codes and
    # int32 bias codes for a layer run on codes, float32 values for a layer
    # kept in float
    graph: Graph
    config: QuantConfig
    act_params: dict[str, QuantParams]
    weight_params: dict[str, QuantParams]     # keyed by weight tensor id

    @property
    def fp32_nodes(self) -> set[str]:
        """The weighted layers kept in fp32: their weight has no params."""
        return {n.id for n in self.graph.compute_nodes() if n.weight_id not in self.weight_params}

    @property
    def fused(self) -> bool:
        """Whether some node carries ``fused_relu``."""
        return any(fused_relu(n) for n in self.graph.nodes)

    def on_codes(self, node: Node) -> bool:
        """Whether ``node`` runs on int8 codes: its output carries codes and
        it is not a mixed-precision fp32 layer, whose weight has no params."""
        return node.output in self.act_params and (
            node.kind not in COMPUTE_KINDS or node.weight_id in self.weight_params)


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
    check_names(g, g.weights)  # one code array per bias needs one reader per bias
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
    weight_params: dict[str, QuantParams] = {}
    weights = dict(g.weights)  # codes replace the entries of layers run on codes
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
            weights[node.weight_id] = codes
            weight_params[node.weight_id] = wp
            if node.bias_id is not None:
                s_in = float(act_params[node.data_inputs[0]].scale)
                s_b = s_in * np.asarray(wp.scale, dtype=np.float64)
                b = np.asarray(g.weights[node.bias_id], dtype=np.float64)
                bq = round_half_away(b / s_b)
                weights[node.bias_id] = np.clip(bq, INT32_MIN, INT32_MAX).astype(np.int32)
            act_params[node.output] = _act_params(cache, src, cfg)
        elif node.kind in ("add", "concat"):
            if all(in_codes):
                act_params[node.output] = _act_params(cache, src, cfg)
            elif any(in_codes):
                raise GraphError(f"node {node.id}: mixed int8/fp32 operands")
        elif node.kind in UNIT_KINDS and node.data_inputs[0] in act_params:  # adopt
            act_params[node.output] = act_params[node.data_inputs[0]]

    return QuantizedGraph(graph=replace(g, nodes=nodes, weights=weights), config=cfg,
                          act_params=act_params, weight_params=weight_params)


def model_size(qg: QuantizedGraph) -> int:
    """Bytes to store all weights: the stored weight and bias arrays (codes
    where quantized, fp32 values otherwise) + 8 B per param group (per
    configured granularity, for every weighted layer)."""
    stored = qg.graph.weights
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


def _restated(qg: QuantizedGraph) -> dict:
    """The ``.qtm8`` header keys that restate the graph: ``save_quantized``
    writes them and ``load_quantized`` rejects a header that disagrees.  A
    unit op's output whose input carries params joins its input's group of
    shared params; each group is named by its first member in sorted order."""
    g = qg.graph
    bias_ids = sorted(n.bias_id for n in g.compute_nodes()
                      if n.bias_id is not None and qg.on_codes(n))
    root: dict[str, str] = {}  # unit-op output -> the tensor whose params it adopts
    for n in g.nodes:
        if n.kind in UNIT_KINDS and n.data_inputs[0] in qg.act_params:
            root[n.output] = root.get(n.data_inputs[0], n.data_inputs[0])
    names: dict[str, str] = {}
    sources = [names.setdefault(root.get(t, t), t) for t in sorted(qg.act_params)]
    return {"fp32_nodes": sorted(qg.fp32_nodes), "fused": qg.fused, "bias_tensors": bias_ids,
            "fp32_weight_tensors": sorted(set(g.weights) - set(qg.weight_params) - set(bias_ids)),
            "act_sources": sources, "act_unique": sorted(set(sources))}


def save_quantized(qg: QuantizedGraph, path: str, meta: dict | None = None) -> None:
    g = qg.graph
    restated = _restated(qg)
    unique = [qg.act_params[t] for t in restated["act_unique"]]
    buffers: list[np.ndarray] = [np.asarray([float(p.scale) for p in unique], dtype=np.float32),
                                 np.asarray([int(p.zero_point) for p in unique], dtype=np.int32)]
    wp_meta = []
    for t in sorted(qg.weight_params):
        p = qg.weight_params[t]
        buffers += [g.weights[t], *_params_to_buffers(p)]
        wp_meta.append({"id": t, "axis": p.axis})
    buffers += [g.weights[t] for t in restated["bias_tensors"] + restated["fp32_weight_tensors"]]
    header = {**_graph_header(g), **restated, "config": qg.config.to_dict(),
              "act_tensors": sorted(qg.act_params), "weight_tensors": wp_meta}
    write_container(path, "qtm8", header, buffers, meta)


def _check_references(qg: QuantizedGraph) -> None:
    """The executors find everything a node reads, in the form they need.
    The graph passes the ``ir`` rules: ``check_names``, then
    ``propagate_shapes`` (which checks each weight and bias) to exactly one
    output.  Every act tensor is the input or a node output.  Each param
    has a finite scale > 0, a zero point in [QMIN, QMAX] and, per channel,
    one entry per output channel.  A node run on codes has params for its
    inputs and weight and reads int8 weight and int32 bias codes; a node
    kept in float reads float32.  So a corrupt ``.qtm8`` fails at load with
    ValueError, instead of mid-run."""
    g = qg.graph
    check_names(g, g.weights)
    propagate_shapes(g)
    g.output_tensor()
    ghosts = sorted(set(qg.act_params) - {INPUT_TENSOR, *(n.output for n in g.nodes)})
    if ghosts:
        raise ValueError(f"activations {ghosts} are neither {INPUT_TENSOR!r} nor a node output")
    for what, params in (("activation", qg.act_params), ("weight", qg.weight_params)):
        for t, p in params.items():
            if p.axis not in (None, 0):
                raise ValueError(f"{what} {t!r}: param axis {p.axis!r} is not None or 0")
            scale, zp = np.atleast_1d(p.scale), np.atleast_1d(p.zero_point)
            n = g.weights[t].shape[0] if p.axis == 0 else 1
            for name, values in (("scale", scale), ("zero_point", zp)):
                if values.shape != (n,):
                    raise ValueError(f"{what} {t!r}: {name} shape {values.shape} "
                                     f"is not ({n},), one per output channel")
            if not (np.isfinite(scale) & (scale > 0)).all():
                raise ValueError(f"{what} {t!r}: scale {scale} is not finite and > 0")
            if ((zp < QMIN) | (zp > QMAX)).any():
                raise ValueError(f"{what} {t!r}: zero point {zp} is outside [{QMIN}, {QMAX}]")
    for node in g.nodes:
        on_codes = qg.on_codes(node)
        for t in node.data_inputs if on_codes else ():
            if t not in qg.act_params:
                raise ValueError(f"node {node.id}: activation {t!r} has no act_params")
        if node.kind not in COMPUTE_KINDS:
            continue
        dtypes = (np.int8, np.int32) if on_codes else (np.float32, np.float32)
        for t, dtype in zip((node.weight_id, node.bias_id), dtypes):
            if t is not None and g.weights[t].dtype != dtype:
                raise ValueError(f"node {node.id}: {t!r} is {g.weights[t].dtype}, "
                                 f"not {np.dtype(dtype)}")


def load_quantized(path: str) -> QuantizedGraph:
    header, buffers = read_container(path, "qtm8")
    with _malformed_header(path):
        it = iter(buffers)
        act_scales = next(it)
        act_zps = next(it)
        n_groups = len(header["act_unique"])
        if act_scales.shape != (n_groups,) or act_zps.shape != (n_groups,):
            raise ValueError(f"{path}: act scales {act_scales.shape} and zero points "
                             f"{act_zps.shape} are not ({n_groups},), one per act_unique group")
        uniq_params = {
            t: QuantParams(scale=np.float32(act_scales[i]), zero_point=int(act_zps[i]))
            for i, t in enumerate(header["act_unique"])
        }
        act_params = {t: uniq_params[src]
                      for t, src in zip(header["act_tensors"], header["act_sources"])}
        w_meta = header["weight_tensors"]
        listed = ([m["id"] for m in w_meta] + header["bias_tensors"]
                  + header["fp32_weight_tensors"])
        if len(set(listed)) != len(listed):
            raise ValueError(f"{path}: a tensor is listed twice across weight_tensors, "
                             "bias_tensors and fp32_weight_tensors")
        # act scales and zero points, each listed tensor, and each weight's params
        n_buffers = 2 + len(listed) + 2 * len(w_meta)
        if len(buffers) != n_buffers:
            raise ValueError(f"{path}: {len(buffers)} buffers, but the listed tensors "
                             f"and params take {n_buffers}")
        weights, weight_params = {}, {}  # one table, in payload order
        for meta in w_meta:
            weights[meta["id"]] = next(it)
            weight_params[meta["id"]] = _params_from_buffers(next(it), next(it), meta["axis"])
        weights.update((t, next(it)) for t in listed[len(w_meta):])
        qg = QuantizedGraph(graph=_graph_from_header(header, weights),
                            config=QuantConfig.from_dict(header["config"]),
                            act_params=act_params, weight_params=weight_params)
        _check_references(qg)
        # a header that contradicts the graph is corrupt
        for key, derived in _restated(qg).items():
            if canonical_json(header[key]) != canonical_json(derived):
                raise ValueError(f"{path}: {key} is {header[key]!r} in the header, "
                                 f"but the graph gives {derived!r}")
    return qg
