"""Floating-point executor.

Runs a Graph on NCHW fp32 batches.  ``_float_node`` is the one fp32 step
over the ten node kinds and holds the fp32 conv/depthwise/pointwise/fc
dispatch; node attributes and window geometry come from ``ir``
(``conv_args``, ``pool_args``, ``out_size``).  ``run_fp32`` walks a graph
with it, and its sink sees the graph input, then each node's output: every
fp32 tensor is observed there (calibration, planted fixture heads).  The
quantized executor (``intexec``) lowers its fp32 layers and tensors kept
in float onto it, and reuses ``maxpool`` and the window views
(``_taps``, ``_windows``) on integer codes, whose conv kernels are its own.
Convolutions lower to im2col + sgemm so accumulation happens in fp32, like a
deployed fp32 baseline would; the test suite pins this against a scalar
brute-force oracle at 1e-5 relative tolerance.  Also hosts top-1 evaluation.

An sgemm's row count sets its fp32 bits (its blocking, hence its summation
order, follows the rows), so a conv or fully_connected output depends on
how many images share one sgemm.  With ``per_image`` the two sgemm sites
(the conv im2col product and ``fully_connected``) each become one stacked
matmul, ``(n, rows of one image, K) @ (K, O)``, for which numpy calls
sgemm once per image with the one-image row count: every tensor then holds
the bytes of ``n`` one-image runs, while every other step still runs once
over the whole batch.  The conv output keeps its ``(n, oh, ow,
o)``-backed layout either way, since ``avgpool`` rounds by memory order.
Calibration and the fp32 layers of the quantized walk run this way, so
neither a histogram nor a trial's score depends on how images are chunked
or blocked.  Only ``evaluate_top1`` and the planted fixture heads
(``fixtures._plant_head``) still run one sgemm over the whole batch, the
default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dataset import Dataset
from .ir import COMPUTE_KINDS, INPUT_TENSOR, Graph, Node, conv_args, out_size, pool_args

ObserverSink = Callable[[str, np.ndarray], None]
# float32 elements per chunk of images, summed over the tensors a chunk
# holds at once (2 MiB), for the int8 walk's image blocks and calibration's
# chunks: a chunk's tensors then stay in cache instead of streaming through
# memory
_BLOCK = 1 << 19


def _check_batch(g: Graph, batch: np.ndarray) -> np.ndarray:
    batch = np.asarray(batch, dtype=np.float32)
    if batch.ndim == 3:
        batch = batch[None]
    if batch.ndim != 4 or tuple(batch.shape[1:]) != tuple(g.input_shape):
        raise ValueError(f"batch shape {batch.shape} does not match input {g.input_shape}")
    if len(batch) == 0:
        raise ValueError("empty batch")
    return batch


def _windows(x: np.ndarray, kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
    """(N, C, OH, OW, kh, kw) view of sliding windows."""
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = sliding_window_view(x, (kh, kw), axis=(2, 3))
    return win[:, :, ::stride, ::stride]


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
           stride: int, pad: int, *, per_image: bool = False) -> np.ndarray:
    n = x.shape[0]
    o, c, kh, kw = w.shape
    win = _windows(x, kh, kw, stride, pad)
    oh, ow = win.shape[2], win.shape[3]
    rows = (n, oh * ow) if per_image else (n * oh * ow,)
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(*rows, c * kh * kw)
    out = np.ascontiguousarray(cols) @ w.reshape(o, -1).T
    if b is not None:
        out = out + b
    return out.reshape(n, oh, ow, o).transpose(0, 3, 1, 2)


def depthwise_conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
                     stride: int, pad: int) -> np.ndarray:
    win = _windows(x, w.shape[2], w.shape[3], stride, pad)
    out = np.einsum("nchwij,cij->nchw", win, w[:, 0], dtype=x.dtype)
    if b is not None:
        out = out + b[None, :, None, None]
    return out


def _taps(x: np.ndarray, kh: int, kw: int, stride: int):
    """The kh*kw strided (N, C, OH, OW) views whose elementwise sum or max
    over a window position is that window's sum or max; unpadded."""
    oh, ow = out_size(x.shape[2], kh, stride), out_size(x.shape[3], kw, stride)
    for i in range(kh):
        for j in range(kw):
            yield i, j, x[:, :, i:i + stride * (oh - 1) + 1:stride,
                          j:j + stride * (ow - 1) + 1:stride]


def maxpool(x: np.ndarray, k: int, stride: int) -> np.ndarray:
    # a running maximum over the k*k taps: max is order-free, and a NaN in
    # a window propagates as in a window reduction.  The result keeps the
    # memory order of x, as the reduction did, since a later float sum
    # (avgpool) rounds by memory order.
    out = None
    for _, _, tap in _taps(x, k, k, stride):
        out = tap.copy(order="K") if out is None else np.maximum(out, tap, out=out)
    return out


def avgpool(x: np.ndarray, k: int, stride: int) -> np.ndarray:
    return _windows(x, k, k, stride, 0).mean(axis=(-1, -2), dtype=x.dtype)


def softmax(x: np.ndarray) -> np.ndarray:
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _float_node(node: Node, xs: list[np.ndarray], weights: dict[str, np.ndarray], *,
                per_image: bool = False) -> np.ndarray:
    """One node in fp32 on its data inputs ``xs``; the float step of every
    executor (``run_fp32``, and float tensors and fp32 layers of quantized
    graphs).  ``per_image`` runs each sgemm once per image (module
    docstring)."""
    x = xs[0]
    if node.kind in COMPUTE_KINDS:
        w = weights[node.weight_id]
        b = weights[node.bias_id] if node.bias_id else None
        if node.kind == "fully_connected":
            rows = (x.shape[0], 1) if per_image else (x.shape[0],)
            out = (x.reshape(*rows, -1) @ w.T).reshape(x.shape[0], -1)
            out = out if b is None else out + b
        elif node.kind == "depthwise_conv2d":
            out = depthwise_conv2d(x, w, b, *conv_args(node))
        else:
            out = conv2d(x, w, b, *conv_args(node), per_image=per_image)
        if node.attrs.get("fused_relu", False):
            out = np.maximum(out, np.float32(0))
    elif node.kind == "relu":
        out = np.maximum(x, np.float32(0))
    elif node.kind == "maxpool":
        out = maxpool(x, *pool_args(node))
    elif node.kind == "avgpool":
        out = avgpool(x, *pool_args(node))
    elif node.kind == "add":
        out = x + xs[1]
    elif node.kind == "concat":
        out = np.concatenate(xs, axis=1)
    elif node.kind == "softmax":
        out = softmax(x)
    else:  # pragma: no cover - validate() rejects these
        raise ValueError(f"unknown node kind {node.kind!r}")
    return out.astype(np.float32, copy=False)


def run_fp32(g: Graph, batch: np.ndarray, sink: ObserverSink | None = None, *,
             per_image: bool = False) -> np.ndarray:
    """Forward pass; returns the graph output (logits or class scores).
    With ``per_image`` every tensor holds the bytes of one-image runs."""
    batch = _check_batch(g, batch)
    env: dict[str, np.ndarray] = {INPUT_TENSOR: batch}
    if sink is not None:
        sink(INPUT_TENSOR, batch)
    for node in g.nodes:
        xs = [env[t] for t in node.data_inputs]
        env[node.output] = _float_node(node, xs, g.weights, per_image=per_image)
        if sink is not None:
            sink(node.output, env[node.output])
    return env[g.output_tensor()]


@dataclass
class AccuracyResult:
    top1: float
    n_evaluated: int


def top1_from_scores(scores: np.ndarray, labels: np.ndarray) -> AccuracyResult:
    if len(scores) == 0:
        raise ValueError("empty evaluation set")
    # np.argmax picks the lowest index on ties
    pred = np.argmax(scores, axis=-1)
    return AccuracyResult(top1=float(np.mean(pred == labels)), n_evaluated=len(labels))


def evaluate_top1(g: Graph, d: Dataset) -> AccuracyResult:
    scores = run_fp32(g, d.eval_images)
    return top1_from_scores(scores, d.eval_labels)
