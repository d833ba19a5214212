"""Floating-point executor.

Runs a Graph on NCHW fp32 batches.  ``_float_node`` is the one fp32 step
over the ten node kinds and holds the fp32 conv/depthwise/pointwise/fc
dispatch; ``_pool_args`` is the one pool-attribute parse.
``run_fp32`` walks a graph with it; the quantized executor (``intexec``)
uses it for tensors kept in float and for mixed-precision fp32 layers, and
reuses ``maxpool`` and the window views (``_taps``, ``_windows``) on
integer codes, whose conv kernels are its own.
Convolutions lower to im2col + sgemm so accumulation happens in fp32, like a
deployed fp32 baseline would; the test suite pins this against a scalar
brute-force oracle at 1e-5 relative tolerance.  Also hosts top-1 evaluation
and the activation observer used by calibration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dataset import Dataset
from .ir import COMPUTE_KINDS, INPUT_TENSOR, Graph, Node

ObserverSink = Callable[[str, np.ndarray], None]


def _check_batch(g: Graph, batch: np.ndarray) -> np.ndarray:
    batch = np.asarray(batch, dtype=np.float32)
    if batch.ndim == 3:
        batch = batch[None]
    if batch.ndim != 4 or tuple(batch.shape[1:]) != tuple(g.input_shape):
        raise ValueError(f"batch shape {batch.shape} does not match input {g.input_shape}")
    return batch


def _windows(x: np.ndarray, kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
    """(N, C, OH, OW, kh, kw) view of sliding windows."""
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = sliding_window_view(x, (kh, kw), axis=(2, 3))
    return win[:, :, ::stride, ::stride]


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
           stride: int, pad: int) -> np.ndarray:
    n = x.shape[0]
    o, c, kh, kw = w.shape
    win = _windows(x, kh, kw, stride, pad)
    oh, ow = win.shape[2], win.shape[3]
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * kh * kw)
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
    oh = (x.shape[2] - kh) // stride + 1
    ow = (x.shape[3] - kw) // stride + 1
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


def _pool_args(node: Node) -> tuple[int, int]:
    """(kernel, stride) of a maxpool/avgpool node; stride defaults to kernel."""
    k = int(node.attrs["kernel"])
    return k, int(node.attrs.get("stride", k))


def _float_node(node: Node, xs: list[np.ndarray], weights: dict[str, np.ndarray]) -> np.ndarray:
    """One node in fp32 on its data inputs ``xs``; the float step of every
    executor (``run_fp32``, and float tensors and fp32 layers of quantized
    graphs)."""
    x = xs[0]
    if node.kind in COMPUTE_KINDS:
        w = weights[node.weight_id]
        b = weights[node.bias_id] if node.bias_id else None
        if node.kind == "fully_connected":
            out = x.reshape(x.shape[0], -1) @ w.T
            out = out if b is None else out + b
        else:
            fn = depthwise_conv2d if node.kind == "depthwise_conv2d" else conv2d
            out = fn(x, w, b, int(node.attrs.get("stride", 1)),
                     int(node.attrs.get("padding", 0)))
        if node.attrs.get("fused_relu", False):
            out = np.maximum(out, np.float32(0))
    elif node.kind == "relu":
        out = np.maximum(x, np.float32(0))
    elif node.kind == "maxpool":
        out = maxpool(x, *_pool_args(node))
    elif node.kind == "avgpool":
        out = avgpool(x, *_pool_args(node))
    elif node.kind == "add":
        out = x + xs[1]
    elif node.kind == "concat":
        out = np.concatenate(xs, axis=1)
    elif node.kind == "softmax":
        out = softmax(x)
    else:  # pragma: no cover - validate() rejects these
        raise ValueError(f"unknown node kind {node.kind!r}")
    return out.astype(np.float32, copy=False)


def run_fp32(g: Graph, batch: np.ndarray, sink: ObserverSink | None = None) -> np.ndarray:
    """Forward pass; returns the graph output (logits or class scores)."""
    batch = _check_batch(g, batch)
    env: dict[str, np.ndarray] = {INPUT_TENSOR: batch}
    if sink is not None:
        sink(INPUT_TENSOR, batch)
    for node in g.nodes:
        env[node.output] = _float_node(node, [env[t] for t in node.data_inputs], g.weights)
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
    if len(d.eval_images) == 0:
        raise ValueError("empty evaluation set")
    scores = run_fp32(g, d.eval_images)
    return top1_from_scores(scores, d.eval_labels)


def observe_activations(g: Graph, images: np.ndarray, sink: ObserverSink) -> None:
    """Stream every tensor (graph input + each node output) per image.

    Images run one at a time so the stream an observer sees is independent
    of batching; order per image is input first, then node order.
    """
    images = np.asarray(images, dtype=np.float32)
    if images.ndim == 3:
        images = images[None]
    for i in range(images.shape[0]):
        run_fp32(g, images[i : i + 1], sink=sink)
