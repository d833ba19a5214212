"""Execution of quantized graphs.

Both paths run ``fp32._walk``, the walk of ``run_fp32``: each node runs
either the fp32 step shared with ``run_fp32`` (tensors kept in float, and
FirstLastFp32 layers wrapped in dequantize and boundary quantize) or the
code step on int8 codes.

  run_quantized     — int32 accumulation with float-multiplier requantization
                      (the usual int8 simulation).
  run_integer_only  — the same arithmetic on an eligible graph
                      (``check_integer_only``), traced as integer mul, add
                      and shift.  Returns raw output codes.

Its trace names each requantize multiplier a shift.  An eligible graph has
power-of-two scales and avgpool areas, so every requantize multiplier and
``add`` ratio is an exact 2**k, and multiplying by it then rounding half up
gives what an integer shift gives (Jacob et al.'s dyadic multipliers):
(acc + (1 << (s-1))) >> s  ==  floor(acc * 2**-s + 0.5).  The ``add`` sum is
2**(kmin - ko) times the zero-shifted codes (|v| <= 255) aligned by a left
shift of |ka - kb|, so it is exact while that is at most 45 (255 * 2**45 <
2**53).

Codes are carried as float32 integers, from input quantization to the int8
cast of the graph output; every code, and every zero-shifted code or weight
(|v| <= 255), is exact in float32.  Every value the code step forms is an
integer times a power of two, so the arithmetic is bit-identical to true
integer execution as long as no value needs more significand bits than its
dtype has.  One rule, ``_float32_exact``, picks the dtype of each step: a
step runs in float32 when every value it forms is a multiple of a
power-of-two unit u (1 for a sum of codes, the 2**k multiplier, or the 0.5
of round half up) below u * 2**24 by a static bound; otherwise in float64,
where the same values are exact far wider.  The bounds read no data: they
come from the weights, bias codes, zero points and scale ratios, with an
input zero point zp allowing |x - zp| up to max(zp - QMIN, QMAX - zp).

  * ``_accumulator``: per output channel, the sum of |w - zp_w| over its
    taps times the input's reach bounds every partial sum of every output,
    in any order and with or without FMA.  The widest layer the fixture
    grammar builds, a fully_connected over 64x32x32 inputs, sums 2**16
    taps below 2**32, far under float64's 2**53.
  * ``_rescaler`` (weighted layers, avgpool, concat): with a power-of-two
    multiplier m, per tensor or per channel, it forms acc * m + (bias * m
    + zp + 0.5), floors and clips; the bound is (|acc| + |bias|) * m + |zp|
    + 0.5, which keeps |acc + bias| below 2**24, so the int32 saturation
    never acts.  Any other multiplier runs the float64 sequence: bias add,
    int32 saturation, multiply, +0.5, floor, +zp, clip.  Either way a fused
    relu is the clip's lower bound.
  * ``add``: with power-of-two ratios ra and rb it forms x * ra + y * rb +
    (zp_o + 0.5 - zp_x * ra - zp_y * rb); the bound is the two inputs'
    reaches times their ratios plus |zp_o| + 0.5.

Exactness makes summation order free on codes, and layout and batch size
with it: an exact integer sum has one value however it is formed.  So the
code step lowers every conv the same way (``_conv_cols``): the input is
zero-shifted into a zero-bordered copy, its im2col columns are gathered in
(C, kh, kw, OH, OW) order by one copy whose inner loop runs along an output
row, and one batched matmul per group of ``C // w.shape[1]`` channels (1 for
conv2d and pointwise, C for depthwise) writes the NCHW output.
fully_connected is one matmul.

Each code node is lowered once per walk (``_lower``), as the multipliers
of Jacob et al. are computed once, offline: everything its step needs that
reads no data is fixed there (the zero-shifted weights, cast to the dtype
``_float32_exact`` picks, the conv and pool arguments, every dtype
decision, and the multiplier and offset vectors of each requantize and
``add``).  What it returns, the step, only computes on the codes of one
block of images.

The walk alone cuts the batch for cache, by ``fp32``'s one rule for every
node: depth-first over image blocks, keeping only the graph output.  A
quantized input is quantized per block, like one more node output.  The
fp32 steps (``_float_step``, lowered like ``_lower``) run each sgemm once
per image, so every tensor holds the bytes of one-image runs, and a
trial's score does not depend on how its images are batched.  A ``sink``
sees blocks: each block's graph input, then each node output.

A tuning campaign runs one float graph under many configurations.  Under
FirstLastFp32 the graph input stays in float, so the first layer runs in
fp32 on the raw batch with its float weights: its output, before the
boundary quantization, is the same for every configuration.  Given a
``memo`` (``make_accuracy_evaluator`` keeps one per graph and eval batch),
the walk computes each such config-free output (``_config_free``) once,
in its own blocks: the first walk keeps each block it computes, read-only,
and stores their concatenation under the output's tensor id only once it
has returned, so a walk that raises stores nothing.  A later walk reads
its block's rows of the stored array, and only the boundary quantization
runs per configuration and per block.  A fused layer writes its relu's
tensor with the relu's values, so fused and unfused configurations share
that entry.  One sgemm per image makes a block's bytes those of the whole
batch, so every result is bit-identical with or without a memo.  Without
a memo the walk computes every node.

The OpTrace records the *semantic* operation categories of the quantized
program, which is what the integer-only audit asserts over.  The walk
only computes; ``_events`` derives each node's categories from the graph
once a run has finished, so a run that raises leaves the trace as it was.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .dataset import Dataset
from .fp32 import (AccuracyResult, _check_batch, _float_node, _tap_reduce, _walk, _windows,
                   maxpool, top1_from_scores)
from .ir import COMPUTE_KINDS, INPUT_TENSOR, Node, conv_args, fused_relu, pool_args
from .quantize import INT32_MAX, INT32_MIN, INTEGER_ONLY, QuantizedGraph, _plain
from .schemes import QMAX, QMIN, _broadcast, dequantize_array, quantize_array

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


def _requantize(acc: np.ndarray, multiplier, zero_point: int, out: np.ndarray,
                lo: int = QMIN) -> np.ndarray:
    """An int32 accumulator ``acc``, held in float64 and overwritten, ->
    int8 codes in ``out``, via a float multiplier, rounding half up and
    clipped to [``lo``, QMAX].  A multiplier 2**-s gives a shift by s."""
    np.multiply(acc, multiplier, out=acc)
    acc += 0.5
    np.floor(acc, out=acc)
    acc += zero_point
    return np.clip(acc, lo, QMAX, out=out)


def _float32_exact(bound, *units) -> bool:
    """The code step's one dtype rule: whether float32 holds exactly every
    value a step forms.  Each such value is an integer combination of
    ``units`` (1 when none is given), so, when every unit is a power of two,
    a multiple of the smallest; float32 holds every multiple of a power of
    two u below u * 2**24 in magnitude.  ``bound`` bounds those magnitudes
    and is static: it comes from weights, bias codes, zero points and scale
    ratios, never from data.  Bound and units may be per channel."""
    units = [np.asarray(u, dtype=np.float64) for u in units or (1.0,)]
    if not all((np.frexp(u)[0] == 0.5).all() for u in units):
        return False
    return bool((bound < reduce(np.minimum, units) * 2.0**24).all())


def _reach(zero_point: int) -> int:
    """The largest |x - zero_point| of an int8 code x."""
    return max(zero_point - QMIN, QMAX - zero_point)


def _per_channel(vec: np.ndarray, ndim: int) -> np.ndarray:
    """Reshape an (O,) vector to broadcast over (N, O, ...) activations."""
    shape = [1] * ndim
    shape[1] = -1
    return np.asarray(vec).reshape(shape)


def check_integer_only(qg: QuantizedGraph) -> None:
    """Raise ``IntegerOnlyError`` unless every requantize step of ``qg`` is
    an exact power-of-two multiplier, before any node runs."""
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
    scales = [(f"tensor {t}", p.scale) for t, p in qg.act_params.items()]
    scales += [(f"weight {wid}", wp.scale) for wid, wp in qg.weight_params.items()]
    for what, scale in scales:
        if math.frexp(float(scale))[0] != 0.5:
            raise IntegerOnlyError(f"{what}: scale {float(scale)} is not a power of two")
    for node in qg.graph.nodes:
        if node.kind == "avgpool":
            area = pool_args(node)[0] ** 2
            if area & (area - 1):
                raise IntegerOnlyError(f"avgpool {node.id}: area {area} not a power of two")


def _rescaler(ndim: int, src_scale: float | np.ndarray, dst_scale: float, zero_point: int,
              bias: np.ndarray | float | None = None, bound: np.ndarray | float | None = None,
              lo: int = QMIN) -> Callable[[np.ndarray], np.ndarray]:
    """The requantize step: an ``ndim``-D integer accumulator at
    ``src_scale``, plus ``bias`` codes and saturated to int32 -> float32
    int8 codes at ``dst_scale`` in [``lo``, QMAX], through the multiplier
    ``src_scale / dst_scale``.  Scales and bias are scalars or (O,) vectors
    over axis 1 of the accumulator.

    Given ``bound``, a static bound on |acc| (per channel allowed), a
    power-of-two multiplier m runs in float32 where ``_float32_exact``
    allows it: acc * m + (bias * m + zero_point + 0.5), floored and clipped,
    where every value is exact and below the bound (int32 saturation can
    then never act).  Otherwise one float64 pass.  The decision and the
    multiplier and offset vectors are fixed here, once."""
    m = src_scale / dst_scale
    b = 0.0 if bias is None else np.asarray(bias, dtype=np.float64)
    if bound is not None and _float32_exact((bound + np.abs(b)) * m + abs(zero_point) + 0.5,
                                            m, 0.5):
        m32, c32 = (_per_channel(v, ndim).astype(np.float32)
                    for v in (m, b * m + (zero_point + 0.5)))

        def rescale32(acc: np.ndarray) -> np.ndarray:
            out = np.multiply(acc, m32, dtype=np.float32)
            out += c32
            np.floor(out, out=out)
            return np.clip(out, lo, QMAX, out=out)
        return rescale32
    m64 = _per_channel(m, ndim)
    b64 = None if bias is None else _per_channel(b, ndim)

    def rescale64(acc: np.ndarray) -> np.ndarray:
        a = acc.astype(np.float64)
        if b64 is not None:
            a += b64
        np.clip(a, INT32_MIN, INT32_MAX, out=a)  # saturating int32 contract
        return _requantize(a, m64, zero_point, np.empty_like(acc, np.float32), lo)
    return rescale64


def _tap_bound(w: np.ndarray, zx: int) -> np.ndarray:
    """Per output channel, the largest |sum| of a weighted node: the sum of
    its zero-shifted |weights| times the input's ``_reach``."""
    return np.abs(w).reshape(len(w), -1).sum(axis=1) * _reach(zx)


def _accumulator(node: Node, zx: int, w: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The integer sum of a weighted node: float32 codes at zero point
    ``zx`` against zero-shifted weights ``w`` (float64).

    The weights are cast here, once: to float32 when ``_float32_exact``
    allows every partial sum (all below ``_tap_bound``), else to float64.
    The returned step maps codes to the exact integer sum, C-contiguous,
    in that dtype."""
    dtype = np.float32 if _float32_exact(_tap_bound(w, zx)) else np.float64
    w = w.astype(dtype, copy=False)
    if node.kind == "fully_connected":
        wt = w.T
        return lambda x: np.subtract(x, zx, dtype=dtype).reshape(len(x), -1) @ wt
    stride, pad = conv_args(node)
    return lambda x: _conv_cols(x, zx, w, stride, pad)


def _shifted(x: np.ndarray, zx: int, dtype, pad: int) -> np.ndarray:
    """``x - zx`` in ``dtype`` inside a zero border of ``pad``."""
    n, c, h, wd = x.shape
    xp = np.zeros((n, c, h + 2 * pad, wd + 2 * pad), dtype=dtype)
    np.subtract(x, zx, out=xp[:, :, pad:pad + h, pad:pad + wd])
    return xp


def _conv_cols(x: np.ndarray, zx: int, w: np.ndarray, stride: int, pad: int) -> np.ndarray:
    """Every conv on codes, as a grouped conv of ``C // w.shape[1]`` groups
    (1 for conv2d and pointwise, C for depthwise): one im2col copy of the
    shifted input in (C, kh, kw, OH, OW) order, then one batched matmul of
    each group's (O/g, C/g*kh*kw) weights into the NCHW output."""
    n, c = x.shape[:2]
    o, cg, kh, kw = w.shape
    g = c // cg
    cols = _windows(_shifted(x, zx, w.dtype, pad), kh, kw, stride, 0)
    oh, ow = cols.shape[2:4]
    cols = np.ascontiguousarray(cols.transpose(0, 1, 4, 5, 2, 3))
    return np.matmul(w.reshape(g, o // g, -1),
                     cols.reshape(n, g, -1, oh * ow)).reshape(n, o, oh, ow)


def _lower(qg: QuantizedGraph, node: Node) -> Callable[[list[np.ndarray]], np.ndarray]:
    """The code step of ``node``, lowered once per walk: all it needs that
    reads no data (zero-shifted weights in their dtype, conv and pool
    arguments, every dtype decision, multiplier and offset) is fixed here.
    The returned step maps the node's input codes to its output codes, all
    int8 codes carried in float32, and only computes."""
    params = [qg.act_params[t] for t in node.data_inputs]
    out_p = qg.act_params[node.output]
    so, zo = float(out_p.scale), int(out_p.zero_point)
    if node.kind in COMPUTE_KINDS:
        wp = qg.weight_params[node.weight_id]
        w = qg.graph.weights[node.weight_id]
        w = w - _broadcast(wp, w.ndim)[1]  # int8 - float64 zero point
        zx = int(params[0].zero_point)
        accumulate = _accumulator(node, zx, w)
        b = None if node.bias_id is None else qg.graph.weights[node.bias_id]
        lo = zo if fused_relu(node) else QMIN  # a fused relu
        rescale = _rescaler(2 if node.kind == "fully_connected" else 4,
                            float(params[0].scale) * np.asarray(wp.scale, dtype=np.float64),
                            so, zo, bias=b, bound=_tap_bound(w, zx), lo=lo)
        return lambda xs: rescale(accumulate(xs[0]))
    if node.kind == "relu":
        return lambda xs: np.maximum(xs[0], zo)
    if node.kind == "maxpool":
        k, s = pool_args(node)
        return lambda xs: maxpool(xs[0], k, s)
    if node.kind == "avgpool":
        k, s = pool_args(node)
        dtype = np.float32 if _float32_exact(-QMIN * k * k) else np.float64
        rescale = _rescaler(4, 1.0, float(k * k), zo, bias=-zo * k * k, bound=-QMIN * k * k)
        return lambda xs: rescale(_tap_reduce(xs[0], k, s, np.add, dtype))
    if node.kind == "add":
        # align both inputs to a common scale WITHOUT clamping, sum in the
        # wide accumulator, then round/clamp once -- clamping the addends
        # separately would destroy negative contributions when the output
        # range is relu-narrowed
        pa, pb = params
        za, zb = int(pa.zero_point), int(pb.zero_point)
        ra, rb = float(pa.scale) / so, float(pb.scale) / so
        if _float32_exact(_reach(za) * ra + _reach(zb) * rb + abs(zo) + 0.5, ra, rb, 0.5):
            # x*ra + xb*rb + (zo + 0.5 - za*ra - zb*rb): each term and partial
            # sum is at most the bound, a multiple of the smallest unit
            ra32, rb32 = np.float32(ra), np.float32(rb)
            c32 = np.float32(zo + 0.5 - za * ra - zb * rb)

            def add32(xs: list[np.ndarray]) -> np.ndarray:
                out = np.multiply(xs[0], ra32)
                out += np.multiply(xs[1], rb32)
                out += c32
                np.floor(out, out=out)
                return np.clip(out, QMIN, QMAX, out=out)
            return add32

        def add64(xs: list[np.ndarray]) -> np.ndarray:
            xa = np.subtract(xs[0], za, dtype=np.float64)
            xb = np.subtract(xs[1], zb, dtype=np.float64)
            xa *= ra
            xa += np.multiply(xb, rb, out=xb)
            return _requantize(xa, 1.0, zo, np.empty_like(xs[0]))  # already at the output scale
        return add64
    if node.kind == "concat":
        rescales = [_rescaler(4, float(p.scale), so, zo, bias=-int(p.zero_point), bound=-QMIN)
                    for p in params]
        return lambda xs: np.concatenate([r(x) for r, x in zip(rescales, xs)], axis=1)
    if node.kind == "softmax":
        return lambda xs: xs[0]  # monotone map: identity on codes
    raise ValueError(f"unknown node kind {node.kind!r}")  # pragma: no cover


def _config_free(qg: QuantizedGraph, memo: dict) -> dict[str, np.ndarray | list]:
    """By node id, each node whose fp32 output, before any boundary
    quantization, is the same for every configuration of the graph on one
    batch: a node not run on codes whose data inputs are all config-free.
    The raw input is config-free when it carries no params, and so is such
    a node's output when it carries none (a boundary's codes depend on its
    params).  Each maps to ``memo``'s read-only whole-batch array under its
    output tensor id, or to a fresh list for the walk's blocks when the
    memo has none.  A fused layer writes its relu's tensor with exactly the
    relu's values, so the tensor id alone is the key."""
    free = set() if INPUT_TENSOR in qg.act_params else {INPUT_TENSOR}
    kept = {}
    for node in qg.graph.nodes:
        if qg.on_codes(node) or not free.issuperset(node.data_inputs):
            continue
        kept[node.id] = memo.get(node.output, [])
        if node.output not in qg.act_params:
            free.add(node.output)
    return kept


def _float_step(qg: QuantizedGraph, node: Node,
                kept: np.ndarray | list | None) -> Callable[[list[np.ndarray]], np.ndarray]:
    """The fp32 step of ``node`` in a quantized graph, lowered once per walk
    like ``_lower``: dequantize code inputs (only a FirstLastFp32 layer has
    them), run ``_float_node`` with one sgemm per image, quantize a code
    output (the FirstLastFp32 boundary).  ``kept`` is the node's entry of
    ``_config_free``: with a whole-batch array, the node's one input is its
    own block of it, so only the boundary runs; with a list, each block the
    step computes is marked read-only and appended there."""
    p_out = qg.act_params.get(node.output)

    def boundary(out: np.ndarray) -> np.ndarray:
        return out if p_out is None else quantize_array(out, p_out).astype(np.float32)
    if isinstance(kept, np.ndarray):
        return lambda xs: boundary(xs[0])
    params = [qg.act_params.get(t) for t in node.data_inputs]

    def step(xs: list[np.ndarray]) -> np.ndarray:
        xs = [x if p is None else dequantize_array(x, p) for x, p in zip(xs, params)]
        out = _float_node(node, xs, qg.graph.weights)
        if kept is not None:
            out.flags.writeable = False
            kept.append(out)
        return boundary(out)
    return step


def _execute(qg: QuantizedGraph, batch: np.ndarray, sink=None,
             memo: dict | None = None) -> np.ndarray:
    g = qg.graph
    batch = _check_batch(g, batch)
    kept = {} if memo is None else _config_free(qg, memo)
    steps = [_lower(qg, node) if qg.on_codes(node) else
             _float_step(qg, node, kept.get(node.id)) for node in g.nodes]
    # host-side input quantization (not part of the traced graph program)
    p_in = qg.act_params.get(INPUT_TENSOR)
    enter = None if p_in is None else lambda x: quantize_array(x, p_in).astype(np.float32)
    out = _walk(g, batch, steps, sink, enter,
                {i: a for i, a in kept.items() if isinstance(a, np.ndarray)})
    for node in g.nodes:  # only once the walk has returned
        if isinstance(kept.get(node.id), list):
            memo[node.output] = np.concatenate(kept[node.id])
            memo[node.output].flags.writeable = False
    return out


def _events(qg: QuantizedGraph, node: Node, integer_only: bool) -> list[str]:
    """The operation categories one run of ``node`` adds to the trace, in
    the order its step performs them.  ``integer_only`` only labels each
    requantize multiplier, an exact 2**k on an eligible graph, as a shift."""
    fused = ["clamp"] if fused_relu(node) else []
    if not qg.on_codes(node):
        dequantize = ["int_add", "float_mul"] * sum(t in qg.act_params for t in node.data_inputs)
        step = (["float_kernel", *fused] if node.kind in COMPUTE_KINDS else
                {"add": ["float_add"], "softmax": ["float_add", "float_mul"]}.get(node.kind, []))
        boundary = ["float_mul", "round", "int_add", "clamp"] if node.output in qg.act_params else []
        return dequantize + step + boundary
    rescale = (["int_add", "shift", "clamp"] if integer_only
               else ["int_add", "float_mul", "round", "clamp"])
    if node.kind in COMPUTE_KINDS:
        bias = ["int_add"] if node.bias_id is not None else []
        return ["int_mul", "int_add", *bias, *rescale, *fused]
    if node.kind == "add":  # align each input, sum, requantize once
        return (["int_add", "shift"] * 3 + ["clamp"] if integer_only
                else ["int_add", "float_mul"] * 2 + ["float_add", "round", "int_add", "clamp"])
    return {"relu": ["clamp"], "avgpool": rescale,
            "concat": rescale * len(node.data_inputs)}.get(node.kind, [])  # maxpool, softmax: none


def run_quantized(qg: QuantizedGraph, batch: np.ndarray,
                  trace: OpTrace | None = None,
                  return_codes: bool = False, sink=None,
                  memo: dict | None = None) -> np.ndarray:
    """Simulated-int8 forward pass; returns fp32 logits (or codes).

    ``sink(tensor_id, values)`` observes, block by block, the graph input,
    then every node output (int8 codes carried as float32 for quantized
    tensors; fp32 for tensors kept in float).  ``memo``, a dict kept for
    one float graph and one ``batch`` across its configurations, maps
    tensor ids to config-free fp32 outputs (``_config_free``): the call
    serves those an earlier call stored, and stores the others its walk
    computed once the walk has returned."""
    t = qg.graph.output_tensor()
    if return_codes and t not in qg.act_params:
        raise ValueError("graph output is fp32; no codes to return")
    out = _execute(qg, batch, sink, memo)
    if trace is not None:  # filled only once the walk has finished
        for node in qg.graph.nodes:
            trace.add(node.id, *_events(qg, node, integer_only=False))
    if t in qg.act_params:
        codes = out.astype(np.int8)
        return codes if return_codes else dequantize_array(codes, qg.act_params[t])
    return out


def run_integer_only(qg: QuantizedGraph, batch: np.ndarray,
                     trace: OpTrace | None = None) -> np.ndarray:
    """Integer-only path: ``check_integer_only``, then the walk of
    ``run_quantized``; returns int8 output codes.  Only the trace differs:
    it names each requantize multiplier a shift, so "mul/add/shift only"
    describes the trace, since the codes travel as float32."""
    check_integer_only(qg)
    out = _execute(qg, batch)
    if trace is not None:  # filled only once the walk has finished
        for node in qg.graph.nodes:
            trace.add(node.id, *_events(qg, node, integer_only=True))
    return out.astype(np.int8)


def evaluate_quantized(qg: QuantizedGraph, d: Dataset,
                       memo: dict | None = None) -> AccuracyResult:
    scores = run_quantized(qg, d.eval_images, memo=memo)
    return top1_from_scores(scores, d.eval_labels)

