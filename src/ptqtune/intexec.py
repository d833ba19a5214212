"""Execution of quantized graphs.

One walk serves both paths: each node runs either the fp32 step shared with
``run_fp32`` (tensors kept in float, and FirstLastFp32 layers wrapped in
dequantize and boundary quantize) or the code step on int8 codes.

  run_quantized     — int32 accumulation with float-multiplier requantization
                      (the usual int8 simulation).
  run_integer_only  — multiplication, addition and bit-shifts only; requires
                      SymmetricPower2 + Tensor granularity + mixed Off, and
                      power-of-two avgpool areas.  Returns raw output codes.

The two differ only in how an accumulator is rescaled (``_rescale``: float
multiplier or shift) and in ``add``.  Both round half up, so for power-of-two
scales they agree bit-for-bit:
(acc + (1 << (s-1))) >> s  ==  floor(acc * 2**-s + 0.5).

Every intermediate value is an integer; NumPy carries the matmuls in float64
purely for speed.  Products of zero-shifted int8 codes are < 2**16, and the
widest layer the fixture grammar builds, a fully_connected over 64x32x32
inputs, sums 2**16 taps (``conv+fc`` already sums 8192), so every sum stays
below 2**32, far under 2**53, and the float64 arithmetic is exact —
bit-identical to true integer execution.  The OpTrace records the *semantic*
operation categories of the quantized program, which is what the
integer-only audit asserts over.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import Dataset
from .fp32 import (AccuracyResult, _check_batch, _float_node, _linear, _pool_args,
                   _windows, maxpool, top1_from_scores)
from .ir import COMPUTE_KINDS, Graph, INPUT_TENSOR, Node
from .quantize import INT32_MAX, INT32_MIN, QuantizedGraph
from .schemes import QMAX, QMIN, Scheme, ceil_log2, dequantize_array, quantize_array

# float_kernel marks a layer whose matrix/conv arithmetic runs in fp32
# (the precision map); float_mul/float_add are elementwise float steps
# (dequantize, requantize multiplier, boundary quantize)
FLOAT_CATS = ("float_mul", "float_add", "float_kernel")


class IntegerOnlyError(ValueError):
    """Raised when a graph is not eligible for integer-only execution."""


@dataclass
class OpTrace:
    events: list[tuple[str, str]] = field(default_factory=list)

    def add(self, node_id: str, *categories: str) -> None:
        for c in categories:
            self.events.append((node_id, c))

    def count(self, *categories: str) -> int:
        return sum(1 for _, c in self.events if c in categories)

    def float_ops(self) -> int:
        return self.count(*FLOAT_CATS)

    def to_csv(self) -> str:
        lines = ["node,category"]
        lines += [f"{n},{c}" for n, c in self.events]
        return "\n".join(lines) + "\n"


def _rhu(x: np.ndarray) -> np.ndarray:
    """Round half up (toward +inf), the requantization rounding mode."""
    return np.floor(np.asarray(x, dtype=np.float64) + 0.5)


def requantize(acc: np.ndarray | int, multiplier: float | np.ndarray | None = None,
               shift: int | None = None, zero_point: int = 0) -> np.ndarray:
    """int32 accumulator -> int8 code, via float multiplier or right-shift."""
    acc = np.asarray(acc, dtype=np.int64)
    if (multiplier is None) == (shift is None):
        raise ValueError("pass exactly one of multiplier/shift")
    if multiplier is not None:
        scaled = _rhu(acc * np.asarray(multiplier, dtype=np.float64))
    elif shift >= 0:
        half = (1 << (shift - 1)) if shift > 0 else 0
        scaled = (acc + half) >> shift
    else:
        scaled = acc << (-shift)
    return np.clip(scaled + zero_point, QMIN, QMAX).astype(np.int8)


def _exact_log2(scale: float) -> int:
    k = ceil_log2(scale)
    if 2.0**k != scale:
        raise IntegerOnlyError(f"scale {scale} is not a power of two")
    return k


def _per_channel(vec: np.ndarray, ndim: int) -> np.ndarray:
    """Reshape an (O,) vector to broadcast over (N, O, ...) activations."""
    shape = [1] * ndim
    shape[1] = -1
    return np.asarray(vec).reshape(shape)


def check_integer_only(qg: QuantizedGraph) -> None:
    cfg = qg.config
    if cfg.scheme != Scheme.SymmetricPower2 or cfg.granularity != "Tensor" \
            or cfg.mixed != "Off":
        raise IntegerOnlyError(
            "integer-only execution requires scheme=SymmetricPower2, "
            f"granularity=Tensor, mixed=Off; got {cfg.scheme.value}/"
            f"{cfg.granularity}/{cfg.mixed}")
    for node in qg.graph.nodes:
        if node.kind == "avgpool":
            area = _pool_args(node)[0] ** 2
            if area & (area - 1):
                raise IntegerOnlyError(f"avgpool {node.id}: area {area} not a power of two")


def _rescale(acc: np.ndarray, src_scale: float | np.ndarray, dst_scale: float,
             zero_point: int, integer_only: bool, trace: OpTrace, node_id: str) -> np.ndarray:
    """Accumulator at ``src_scale`` -> int8 codes at ``dst_scale``: a shift
    (power-of-two scales only) under integer_only, else a float multiplier."""
    if integer_only:
        trace.add(node_id, "int_add", "shift", "clamp")
        shift = _exact_log2(float(dst_scale)) - _exact_log2(float(src_scale))
        return requantize(acc, shift=shift, zero_point=zero_point)
    trace.add(node_id, "int_add", "float_mul", "round", "clamp")
    return requantize(acc, multiplier=src_scale / dst_scale, zero_point=zero_point)


def _code_node(qg: QuantizedGraph, node: Node, xs: list[np.ndarray],
               trace: OpTrace, integer_only: bool) -> np.ndarray:
    """One node on int8 codes (carried as int64); returns int64 codes."""
    params = [qg.act_params[t] for t in node.data_inputs]
    out_p = qg.act_params[node.output]
    zo = int(out_p.zero_point)
    x = xs[0]
    if node.kind in COMPUTE_KINDS:
        wp = qg.weight_params[node.weight_id]
        w = qg.weight_codes[node.weight_id].astype(np.int64)
        w = w - wp.zp_vec().reshape((-1,) + (1,) * (w.ndim - 1))
        xz = x - int(params[0].zero_point)
        acc = _linear(node, xz.astype(np.float64), w.astype(np.float64), None).astype(np.int64)
        trace.add(node.id, "int_mul", "int_add")
        if node.bias_id is not None:
            b = qg.bias_codes[node.bias_id].astype(np.int64)
            acc = acc + (_per_channel(b, acc.ndim) if acc.ndim == 4 else b)
            trace.add(node.id, "int_add")
        acc = np.clip(acc, INT32_MIN, INT32_MAX)  # saturating int32 contract
        sw = np.asarray(wp.scale, dtype=np.float64)
        if wp.axis is not None and acc.ndim == 4:
            sw = _per_channel(sw, acc.ndim)
        out = _rescale(acc, float(params[0].scale) * sw, float(out_p.scale), zo,
                       integer_only, trace, node.id)
        if node.attrs.get("fused_relu", False):
            out = np.maximum(out, np.int8(zo))
            trace.add(node.id, "clamp")
    elif node.kind == "relu":
        out = np.maximum(x, zo)
        trace.add(node.id, "clamp")
    elif node.kind == "maxpool":
        out = maxpool(x, *_pool_args(node))
    elif node.kind == "avgpool":
        k, s = _pool_args(node)
        total = _windows(x, k, k, s, 0).sum(axis=(-1, -2))
        out = _rescale(total - zo * k * k, 1.0, float(k * k), zo, integer_only, trace, node.id)
    elif node.kind == "add":
        # align both inputs to a common scale WITHOUT clamping, sum in the
        # wide accumulator, then round/clamp once -- clamping the addends
        # separately would destroy negative contributions when the output
        # range is relu-narrowed
        pa, pb = params
        xa = x - int(pa.zero_point)
        xb = xs[1] - int(pb.zero_point)
        if integer_only:
            ka = _exact_log2(float(pa.scale))
            kb = _exact_log2(float(pb.scale))
            kmin = min(ka, kb)
            acc = (xa << (ka - kmin)) + (xb << (kb - kmin))
            out = requantize(acc, shift=_exact_log2(float(out_p.scale)) - kmin, zero_point=zo)
            trace.add(node.id, "int_add", "shift", "int_add", "shift", "int_add", "shift", "clamp")
        else:
            so = float(out_p.scale)
            acc = xa * (float(pa.scale) / so) + xb * (float(pb.scale) / so)
            out = np.clip(_rhu(acc) + zo, QMIN, QMAX)
            trace.add(node.id, "int_add", "float_mul", "int_add", "float_mul",
                      "float_add", "round", "int_add", "clamp")
    elif node.kind == "concat":
        out = np.concatenate([
            _rescale(xi - int(p.zero_point), float(p.scale), float(out_p.scale), zo,
                     integer_only, trace, node.id)
            for xi, p in zip(xs, params)], axis=1)
    elif node.kind == "softmax":
        out = x  # monotone map: identity on codes
    else:  # pragma: no cover
        raise ValueError(f"unknown node kind {node.kind!r}")
    return out.astype(np.int64, copy=False)


def _float_step(qg: QuantizedGraph, node: Node, env: dict[str, np.ndarray],
                trace: OpTrace) -> np.ndarray:
    """The fp32 step for a quantized graph: dequantize code inputs (only a
    FirstLastFp32 layer has them), run fp32, quantize a code output (the
    FirstLastFp32 boundary)."""
    xs = []
    for t in node.data_inputs:
        if t in qg.act_params:
            xs.append(dequantize_array(env[t].astype(np.int8, copy=False), qg.act_params[t]))
            trace.add(node.id, "int_add", "float_mul")
        else:
            xs.append(env[t])
    out = _float_node(node, xs, qg.graph.weights)
    if node.kind in COMPUTE_KINDS:
        trace.add(node.id, "float_kernel")
        if node.attrs.get("fused_relu", False):
            trace.add(node.id, "clamp")
    elif node.kind == "add":
        trace.add(node.id, "float_add")
    elif node.kind == "softmax":
        trace.add(node.id, "float_add", "float_mul")
    if node.output in qg.act_params:
        out = quantize_array(out, qg.act_params[node.output]).astype(np.int64)
        trace.add(node.id, "float_mul", "round", "int_add", "clamp")
    return out


def _execute(qg: QuantizedGraph, batch: np.ndarray, trace: OpTrace | None,
             integer_only: bool, sink=None) -> np.ndarray:
    g = qg.graph
    trace = OpTrace() if trace is None else trace
    env: dict[str, np.ndarray] = {INPUT_TENSOR: _check_batch(g, batch)}
    if INPUT_TENSOR in qg.act_params:
        # host-side input quantization (not part of the traced graph program)
        env[INPUT_TENSOR] = quantize_array(env[INPUT_TENSOR],
                                           qg.act_params[INPUT_TENSOR]).astype(np.int64)
    for node in g.nodes:
        if node.output in qg.act_params and node.id not in qg.fp32_nodes:
            out = _code_node(qg, node, [env[t] for t in node.data_inputs], trace, integer_only)
        else:
            out = _float_step(qg, node, env, trace)
        env[node.output] = out
        if sink is not None:
            sink(node.output, out)
    return env[g.output_tensor()]


def run_quantized(qg: QuantizedGraph, batch: np.ndarray,
                  trace: OpTrace | None = None,
                  return_codes: bool = False, sink=None) -> np.ndarray:
    """Simulated-int8 forward pass; returns fp32 logits (or codes).

    ``sink(tensor_id, values)`` observes every node output (codes for
    quantized tensors; fp32 for tensors kept in float)."""
    out = _execute(qg, batch, trace, integer_only=False, sink=sink)
    t = qg.graph.output_tensor()
    if t in qg.act_params:
        codes = out.astype(np.int8)
        return codes if return_codes else dequantize_array(codes, qg.act_params[t])
    if return_codes:
        raise ValueError("graph output is fp32; no codes to return")
    return out


def run_integer_only(qg: QuantizedGraph, batch: np.ndarray,
                     trace: OpTrace | None = None) -> np.ndarray:
    """Strict integer path (mul/add/shift only); returns int8 output codes."""
    check_integer_only(qg)
    out = _execute(qg, batch, trace, integer_only=True)
    return out.astype(np.int8)


def evaluate_quantized(qg: QuantizedGraph, d: Dataset) -> AccuracyResult:
    if len(d.eval_images) == 0:
        raise ValueError("empty evaluation set")
    scores = run_quantized(qg, d.eval_images)
    return top1_from_scores(scores, d.eval_labels)


def fuse_conv_relu(qg: QuantizedGraph) -> QuantizedGraph:
    """Merge conv/fc -> relu pairs; numerics are unchanged by construction
    (producer and relu output share one QuantParams)."""
    g = qg.graph
    fuse_map: dict[str, Node] = {}  # producer node id -> its sole relu consumer
    for n in g.nodes:
        if n.kind in COMPUTE_KINDS:
            consumers = g.consumers(n.output)
            if len(consumers) == 1 and consumers[0].kind == "relu":
                fuse_map[n.id] = consumers[0]
    if not fuse_map:
        return qg
    drop_ids = {relu.id for relu in fuse_map.values()}
    fused_nodes: list[Node] = []
    for n in g.nodes:
        if n.id in drop_ids:
            continue
        if n.id in fuse_map:
            fused_nodes.append(Node(id=n.id, kind=n.kind, inputs=list(n.inputs),
                                    output=fuse_map[n.id].output,
                                    attrs={**n.attrs, "fused_relu": True}))
        else:
            fused_nodes.append(Node(id=n.id, kind=n.kind, inputs=list(n.inputs),
                                    output=n.output, attrs=dict(n.attrs)))
    new_graph = Graph(name=g.name, nodes=fused_nodes, weights=g.weights,
                      input_shape=g.input_shape, output_classes=g.output_classes)
    live = {INPUT_TENSOR} | {n.output for n in fused_nodes} \
        | {t for n in fused_nodes for t in n.data_inputs}
    act_params = {t: p for t, p in qg.act_params.items() if t in live}
    return replace(qg, graph=new_graph, act_params=act_params, fused=True)
