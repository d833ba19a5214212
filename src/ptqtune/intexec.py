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
(acc + (1 << (s-1))) >> s  ==  floor(ldexp(acc, -s) + 0.5)
                           ==  floor(acc * 2**-s + 0.5).

Codes are carried as float32 integers, from input quantization to the int8
cast of the graph output; every code, and every zero-shifted code or weight
(|v| <= 255), is exact in float32.  Every intermediate value is an integer,
so the arithmetic is bit-identical to true integer execution as long as no
value needs more significand bits than its dtype has.

  * Weighted layers accumulate in float32 when a bound proves it exact.
    ``_accumulate`` takes, per output channel, the sum of |w - zp_w| over
    its taps times the largest |x - zp_x| the input's zero point allows,
    max(zp_x - QMIN, QMAX - zp_x); no data is read.  When the largest of
    these is below 2**24, every partial sum of every output, in any order
    and with or without FMA, is an integer below 2**24, hence exact.
    Otherwise the layer accumulates in float64: the widest layer the
    fixture grammar builds, a fully_connected over 64x32x32 inputs, sums
    2**16 taps below 2**32, far under 2**53.
  * float64 stays where a float32 result could round: the bias add and
    int32 saturation (int32 values), the requantize multiply, the simulated
    ``add`` (codes times scale ratios) and the avgpool sums.  Requantize and
    ``add`` run in place on ``_blocks`` of the batch.  A shift is
    ``np.ldexp``, exact on integers below 2**53.  The integer-only ``add``
    aligns zero-shifted codes by a left shift of |log2 sa - log2 sb|, exact
    while the shift is at most 45, since 255 * 2**45 < 2**53.

Exactness makes summation order free on codes, and layout with it: an
exact integer sum has one value however it is formed.  So the code step
lowers conv itself, a block of the batch at a time (``_blocks``; a block
holds about ``_BLOCK`` elements of working set, at least one image):

  * conv2d and pointwise conv (``_conv_cols``): the block is zero-shifted
    into a zero-bordered buffer, its im2col columns are gathered in
    (C, kh, kw, OH, OW) order by one copy whose inner loop runs along an
    output row, and one batched matmul of the (O, C*kh*kw) weights writes
    the block of the NCHW output.
  * depthwise conv (``_depthwise_taps``): the sum of the kh*kw strided tap
    products of the shifted, bordered block, written into the output.
  * fully_connected: one matmul.

Each returns a C-contiguous NCHW array; the fp32 conv kernel, which the
code step once shared, returns a view with NHWC memory order, gathered
from a full-batch (N*OH*OW, C*kh*kw) matrix.  None of this is free on fp32,
where the order of a sum and the row count of an sgemm set the rounding,
so ``run_fp32``, calibration and the fp32 layers of mixed-precision graphs
keep the ``fp32`` kernels.

The OpTrace records the *semantic* operation categories of the quantized
program, which is what the integer-only audit asserts over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import Dataset
from .fp32 import (AccuracyResult, _check_batch, _float_node, _pool_args, _taps, _windows,
                   maxpool, top1_from_scores)
from .ir import COMPUTE_KINDS, Graph, INPUT_TENSOR, Node
from .quantize import INT32_MAX, INT32_MIN, INTEGER_ONLY, QuantizedGraph, _plain
from .schemes import QMAX, QMIN, _broadcast, ceil_log2, dequantize_array, quantize_array

# float_kernel marks a layer whose matrix/conv arithmetic runs in fp32
# (the precision map); float_mul/float_add are elementwise float steps
# (dequantize, requantize multiplier, boundary quantize)
FLOAT_CATS = ("float_mul", "float_add", "float_kernel")
# elements per batch block of the code steps (512 KiB in float64): the
# requantize steps and the conv working buffers then stay in cache instead
# of streaming through memory
_BLOCK = 1 << 16


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


def requantize(acc: np.ndarray | int, multiplier: float | np.ndarray | None = None,
               shift: int | None = None, zero_point: int = 0) -> np.ndarray:
    """int32 accumulator -> int8 codes as float64, via float multiplier or
    shift (right for ``shift > 0``, left for ``shift < 0``), rounding half up."""
    if (multiplier is None) == (shift is None):
        raise ValueError("pass exactly one of multiplier/shift")
    return _requantize(np.array(acc, dtype=np.float64), multiplier, shift, zero_point)


def _requantize(acc: np.ndarray, multiplier, shift, zero_point: int,
                out: np.ndarray | None = None) -> np.ndarray:
    """``requantize`` in place on the float64 accumulator ``acc``; the codes
    land in ``out`` (default ``acc``)."""
    if multiplier is not None:
        np.multiply(acc, multiplier, out=acc)
    else:
        np.ldexp(acc, -shift, out=acc)
    acc += 0.5
    np.floor(acc, out=acc)
    acc += zero_point
    return np.clip(acc, QMIN, QMAX, out=acc if out is None else out)


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
    if not INTEGER_ONLY.contains(qg.config):
        pins = INTEGER_ONLY.pins
        want = ", ".join(f"{name}={_plain(v)}" for name, v in pins.items())
        got = "/".join(_plain(getattr(qg.config, name)) for name in pins)
        raise IntegerOnlyError(f"integer-only execution requires {want}; got {got}")
    # the graph as run, which a relabelled config can misdescribe
    if qg.fp32_nodes:
        raise IntegerOnlyError(f"fp32 layers {sorted(qg.fp32_nodes)} in an integer-only graph")
    for wid, wp in qg.weight_params.items():
        if wp.axis is not None:
            raise IntegerOnlyError(f"weight {wid}: per-channel params in an integer-only graph")
    for node in qg.graph.nodes:
        if node.kind == "avgpool":
            area = _pool_args(node)[0] ** 2
            if area & (area - 1):
                raise IntegerOnlyError(f"avgpool {node.id}: area {area} not a power of two")


def _rescale(acc: np.ndarray, src_scale: float | np.ndarray, dst_scale: float,
             zero_point: int, integer_only: bool, trace: OpTrace, node_id: str,
             bias: np.ndarray | None = None) -> np.ndarray:
    """Integer accumulator at ``src_scale``, plus ``bias`` codes and
    saturated to int32 -> float32 int8 codes at ``dst_scale``: a shift
    (power-of-two scales only) under integer_only, else a float multiplier.

    Runs in float64 on ``_blocks`` of the batch, whose temporaries stay in
    cache."""
    if integer_only:
        trace.add(node_id, "int_add", "shift", "clamp")
        multiplier, shift = None, _exact_log2(float(dst_scale)) - _exact_log2(float(src_scale))
    else:
        trace.add(node_id, "int_add", "float_mul", "round", "clamp")
        multiplier, shift = src_scale / dst_scale, None
    out = np.empty_like(acc, dtype=np.float32)
    for sl in _blocks(len(acc), math.prod(acc.shape[1:])):
        a = acc[sl].astype(np.float64)
        if bias is not None:
            a += bias
        np.clip(a, INT32_MIN, INT32_MAX, out=a)  # saturating int32 contract
        _requantize(a, multiplier, shift, zero_point, out[sl])
    return out


def _blocks(n: int, item: int):
    """Slices of a batch of ``n`` items of ``item`` elements each, about
    ``_BLOCK`` elements per slice."""
    step = max(1, _BLOCK // max(1, item))
    return (slice(lo, lo + step) for lo in range(0, n, step))


def _accumulate(node: Node, x: np.ndarray, zx: int, w: np.ndarray) -> np.ndarray:
    """The integer sum of a weighted node: float32 codes ``x`` at zero point
    ``zx`` against zero-shifted weights ``w`` (float64).

    Runs in float32 when no partial sum can reach 2**24, else in float64;
    either way the result is the exact integer sum, C-contiguous."""
    reach = max(zx - QMIN, QMAX - zx)  # largest |x - zx|
    bound = float(np.abs(w).reshape(len(w), -1).sum(axis=1).max()) * reach
    dtype = np.float32 if bound < 2**24 else np.float64
    w = w.astype(dtype, copy=False)
    if node.kind == "fully_connected":
        return np.subtract(x, zx, dtype=dtype).reshape(len(x), -1) @ w.T
    stride = int(node.attrs.get("stride", 1))
    pad = int(node.attrs.get("padding", 0))
    if node.kind == "depthwise_conv2d":
        return _depthwise_taps(x, zx, w, stride, pad)
    return _conv_cols(x, zx, w, stride, pad)


def _shifted_blocks(x: np.ndarray, zx: int, dtype, pad: int, item: int):
    """``(slice, block)`` over the batch of ``x``, each block ``x[slice] - zx``
    in ``dtype`` inside a zero border of ``pad``, in one reused buffer;
    ``item`` is the working set per image that sizes the blocks."""
    n, c, h, wd = x.shape
    buf = None
    for sl in _blocks(n, item):
        xb = x[sl]
        if buf is None:
            buf = np.zeros((len(xb), c, h + 2 * pad, wd + 2 * pad), dtype=dtype)
        xp = buf[:len(xb)]
        np.subtract(xb, zx, out=xp[:, :, pad:pad + h, pad:pad + wd])
        yield sl, xp


def _out_size(size: int, k: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - k) // stride + 1


def _conv_cols(x: np.ndarray, zx: int, w: np.ndarray, stride: int, pad: int) -> np.ndarray:
    """conv2d / pointwise on codes: per batch block, one im2col copy in
    (C, kh, kw, OH, OW) order, then one batched matmul into the NCHW
    output."""
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    oh, ow = _out_size(h, kh, stride, pad), _out_size(wd, kw, stride, pad)
    out = np.empty((n, o, oh, ow), dtype=w.dtype)
    w2 = w.reshape(o, -1)
    cols = None
    for sl, xp in _shifted_blocks(x, zx, w.dtype, pad, c * kh * kw * oh * ow):
        nb = len(xp)
        if cols is None:
            cols = np.empty((nb, c, kh, kw, oh, ow), dtype=w.dtype)
        cb = cols[:nb]
        np.copyto(cb, _windows(xp, kh, kw, stride, 0).transpose(0, 1, 4, 5, 2, 3))
        np.matmul(w2, cb.reshape(nb, -1, oh * ow), out=out[sl].reshape(nb, o, oh * ow))
    return out


def _depthwise_taps(x: np.ndarray, zx: int, w: np.ndarray, stride: int, pad: int) -> np.ndarray:
    """Depthwise conv on codes: per batch block, the sum of its k*k strided
    tap products, written into the NCHW output."""
    n, c, h, wd = x.shape
    kh, kw = w.shape[2], w.shape[3]
    oh, ow = _out_size(h, kh, stride, pad), _out_size(wd, kw, stride, pad)
    out = np.empty((n, c, oh, ow), dtype=w.dtype)
    tmp = None
    item = c * (h + 2 * pad) * (wd + 2 * pad)
    for sl, xp in _shifted_blocks(x, zx, w.dtype, pad, item):
        ob = out[sl]
        if tmp is None:
            tmp = np.empty_like(ob)
        tb = tmp[:len(ob)]
        for i, j, tap in _taps(xp, kh, kw, stride):
            wij = w[None, :, 0, i, j, None, None]
            if i == j == 0:
                np.multiply(tap, wij, out=ob)
            else:
                ob += np.multiply(tap, wij, out=tb)
    return out


def _code_node(qg: QuantizedGraph, node: Node, xs: list[np.ndarray],
               trace: OpTrace, integer_only: bool) -> np.ndarray:
    """One node on int8 codes carried in float32; returns float32 codes."""
    params = [qg.act_params[t] for t in node.data_inputs]
    out_p = qg.act_params[node.output]
    zo = int(out_p.zero_point)
    x = xs[0]
    if node.kind in COMPUTE_KINDS:
        wp = qg.weight_params[node.weight_id]
        w = qg.weight_codes[node.weight_id]
        w = w - _broadcast(wp, w.ndim)[1]  # int8 - float64 zero point
        acc = _accumulate(node, x, int(params[0].zero_point), w)
        trace.add(node.id, "int_mul", "int_add")
        b = None
        if node.bias_id is not None:
            b = qg.bias_codes[node.bias_id].astype(np.float64)
            b = _per_channel(b, acc.ndim) if acc.ndim == 4 else b
            trace.add(node.id, "int_add")
        sw = np.asarray(wp.scale, dtype=np.float64)
        if wp.axis is not None and acc.ndim == 4:
            sw = _per_channel(sw, acc.ndim)
        out = _rescale(acc, float(params[0].scale) * sw, float(out_p.scale), zo,
                       integer_only, trace, node.id, bias=b)
        if node.attrs.get("fused_relu", False):
            np.maximum(out, zo, out=out)
            trace.add(node.id, "clamp")
    elif node.kind == "relu":
        out = np.maximum(x, zo)
        trace.add(node.id, "clamp")
    elif node.kind == "maxpool":
        out = maxpool(x, *_pool_args(node))
    elif node.kind == "avgpool":
        k, s = _pool_args(node)
        total = None
        for _, _, tap in _taps(x, k, k, s):
            total = tap.astype(np.float64) if total is None else np.add(total, tap, out=total)
        total -= zo * k * k
        out = _rescale(total, 1.0, float(k * k), zo, integer_only, trace, node.id)
    elif node.kind == "add":
        # align both inputs to a common scale WITHOUT clamping, sum in the
        # wide accumulator, then round/clamp once -- clamping the addends
        # separately would destroy negative contributions when the output
        # range is relu-narrowed
        pa, pb = params
        out = np.empty_like(x)
        if integer_only:
            ka = _exact_log2(float(pa.scale))
            kb = _exact_log2(float(pb.scale))
            kmin = min(ka, kb)
            shift = _exact_log2(float(out_p.scale)) - kmin
            trace.add(node.id, "int_add", "shift", "int_add", "shift", "int_add", "shift", "clamp")
        else:
            so = float(out_p.scale)
            ra, rb = float(pa.scale) / so, float(pb.scale) / so
            trace.add(node.id, "int_add", "float_mul", "int_add", "float_mul",
                      "float_add", "round", "int_add", "clamp")
        for sl in _blocks(len(x), math.prod(x.shape[1:])):
            xa = np.subtract(x[sl], int(pa.zero_point), dtype=np.float64)
            xb = np.subtract(xs[1][sl], int(pb.zero_point), dtype=np.float64)
            if integer_only:
                np.ldexp(xa, ka - kmin, out=xa)
                xa += np.ldexp(xb, kb - kmin, out=xb)
                _requantize(xa, None, shift, zo, out[sl])
            else:
                xa *= ra
                xa += np.multiply(xb, rb, out=xb)
                _requantize(xa, 1.0, None, zo, out[sl])  # already at the output scale
    elif node.kind == "concat":
        out = np.concatenate([
            _rescale(xi - int(p.zero_point), float(p.scale), float(out_p.scale), zo,
                     integer_only, trace, node.id)
            for xi, p in zip(xs, params)], axis=1)
    elif node.kind == "softmax":
        out = x  # monotone map: identity on codes
    else:  # pragma: no cover
        raise ValueError(f"unknown node kind {node.kind!r}")
    return out


def _float_step(qg: QuantizedGraph, node: Node, env: dict[str, np.ndarray],
                trace: OpTrace) -> np.ndarray:
    """The fp32 step for a quantized graph: dequantize code inputs (only a
    FirstLastFp32 layer has them), run fp32, quantize a code output (the
    FirstLastFp32 boundary)."""
    xs = []
    for t in node.data_inputs:
        if t in qg.act_params:
            xs.append(dequantize_array(env[t], qg.act_params[t]))
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
        out = quantize_array(out, qg.act_params[node.output]).astype(np.float32)
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
                                           qg.act_params[INPUT_TENSOR]).astype(np.float32)
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

    ``sink(tensor_id, values)`` observes every node output (int8 codes
    carried as float32 for quantized tensors; fp32 for tensors kept in
    float)."""
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
