"""Floating-point executor, and the one walk of every executor.

Runs a Graph on NCHW fp32 batches.  ``_float_node`` is the one fp32 step
over the ten node kinds; node attributes and window geometry come from
``ir`` (``conv_args``, ``pool_args``, ``out_size``).  ``run_fp32`` is
``_walk`` over it, whose sink observes every fp32 tensor (calibration,
planted fixture heads).  The quantized executor (``intexec``) runs
``_walk`` with its own steps, and reuses ``maxpool``, ``_tap_reduce`` and
``_windows`` on integer codes.  Convolutions lower to im2col
+ sgemm so accumulation happens in fp32, like a deployed fp32 baseline
would; the test suite pins this against a scalar brute-force oracle at
1e-5 relative tolerance.  Also hosts top-1 evaluation.

An sgemm's row count sets its fp32 bits (its blocking, hence its summation
order, follows the rows), so both sgemm sites (the conv im2col product and
``fully_connected``) are one stacked matmul, ``(n, rows of one image, K)
@ (K, O)``, which numpy runs as one sgemm per image: every tensor holds
the bytes of one-image runs.  The conv output keeps its ``(n, oh, ow,
o)``-backed layout, since ``avgpool`` rounds by memory order.  So the walk
cuts the batch for cache by one rule: depth-first over blocks of ``max(1,
_BLOCK // e)`` images, ``e`` being the graph's elements per image summed
over every node output, keeping only the graph output whole-batch; with
one block it reads the whole arrays as they are.  No output, histogram or
score depends on the block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dataset import Dataset
from .ir import (COMPUTE_KINDS, INPUT_TENSOR, Graph, Node, conv_args, fused_relu, out_size,
                 pool_args, propagate_shapes)

ObserverSink = Callable[[str, np.ndarray], None]
Step = Callable[[list[np.ndarray]], np.ndarray]
# float32 elements per block of images, summed over the node outputs a
# block holds at once (2 MiB): a block's tensors then stay in cache instead
# of streaming through memory
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
           stride: int, pad: int) -> np.ndarray:
    n = x.shape[0]
    o, c, kh, kw = w.shape
    win = _windows(x, kh, kw, stride, pad)
    oh, ow = win.shape[2], win.shape[3]
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(n, oh * ow, c * kh * kw)
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


def _taps(x: np.ndarray, k: int, stride: int):
    """The k*k strided (N, C, OH, OW) views whose elementwise sum or max
    over a window position is that window's sum or max; unpadded."""
    oh, ow = out_size(x.shape[2], k, stride), out_size(x.shape[3], k, stride)
    for i in range(k):
        for j in range(k):
            yield x[:, :, i:i + stride * (oh - 1) + 1:stride, j:j + stride * (ow - 1) + 1:stride]


def _tap_reduce(x: np.ndarray, k: int, stride: int, ufunc: np.ufunc, dtype) -> np.ndarray:
    """The k*k window reduction of ``x`` by ``ufunc`` in ``dtype``: the first
    tap copied in the memory order of ``x``, the others folded in place."""
    taps = _taps(x, k, stride)
    out = next(taps).astype(dtype, order="K")
    for tap in taps:
        ufunc(out, tap, out=out)
    return out


def maxpool(x: np.ndarray, k: int, stride: int) -> np.ndarray:
    # a running maximum over the k*k taps: max is order-free, and a NaN in
    # a window propagates as in a window reduction.  The result keeps the
    # memory order of x, as the reduction did, since a later float sum
    # (avgpool) rounds by memory order.
    return _tap_reduce(x, k, stride, np.maximum, x.dtype)


def avgpool(x: np.ndarray, k: int, stride: int) -> np.ndarray:
    return _windows(x, k, k, stride, 0).mean(axis=(-1, -2), dtype=x.dtype)


def softmax(x: np.ndarray) -> np.ndarray:
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _float_node(node: Node, xs: list[np.ndarray], weights: dict[str, np.ndarray]) -> np.ndarray:
    """One node in fp32 on its data inputs ``xs``, each sgemm once per image;
    the float step of every executor (``run_fp32``, and float tensors and
    fp32 layers of quantized graphs)."""
    x = xs[0]
    if node.kind in COMPUTE_KINDS:
        w = weights[node.weight_id]
        b = weights[node.bias_id] if node.bias_id else None
        if node.kind == "fully_connected":
            out = (x.reshape(x.shape[0], 1, -1) @ w.T).reshape(x.shape[0], -1)
            out = out if b is None else out + b
        elif node.kind == "depthwise_conv2d":
            out = depthwise_conv2d(x, w, b, *conv_args(node))
        else:
            out = conv2d(x, w, b, *conv_args(node))
        if fused_relu(node):
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


def _walk(g: Graph, batch: np.ndarray, steps: list[Step], sink: ObserverSink | None = None,
          enter: Callable[[np.ndarray], np.ndarray] | None = None,
          served: dict[str, np.ndarray] | None = None) -> np.ndarray:
    """The walk of every executor (module docstring): ``steps[i]`` maps the
    data inputs of ``g.nodes[i]`` to its output on one block of the checked
    ``batch``; returns the graph output.  ``enter`` maps each block of the
    batch to the graph input the steps read.  A node in ``served`` reads
    its block's rows of the whole-batch array there as its one input.
    ``sink(tensor_id, values)`` sees each block's input, then each node
    output."""
    n, served = len(batch), served or {}
    shapes = propagate_shapes(g)
    block = max(1, _BLOCK // sum(math.prod(shapes[node.output]) for node in g.nodes))
    out = np.empty((n, *shapes[g.output_tensor()]), np.float32)

    def rows(a: np.ndarray, lo: int) -> np.ndarray:  # one block reads whole arrays as they are
        return a if block >= n else a[lo:lo + block]

    for lo in range(0, n, block):
        x = rows(batch, lo)
        local = {INPUT_TENSOR: x if enter is None else enter(x)}
        if sink is not None:
            sink(INPUT_TENSOR, local[INPUT_TENSOR])
        for node, step in zip(g.nodes, steps):
            xs = ([rows(served[node.id], lo)] if node.id in served
                  else [local[t] for t in node.data_inputs])
            local[node.output] = step(xs)
            if sink is not None:
                sink(node.output, local[node.output])
        out[lo:lo + block] = local[g.output_tensor()]
    return out


def run_fp32(g: Graph, batch: np.ndarray, sink: ObserverSink | None = None) -> np.ndarray:
    """Forward pass; returns the graph output (logits or class scores)."""
    steps = [lambda xs, node=node: _float_node(node, xs, g.weights) for node in g.nodes]
    return _walk(g, _check_batch(g, batch), steps, sink)


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
