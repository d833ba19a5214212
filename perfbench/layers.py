"""Layers of ``ptqtune`` as the traced run sees them, and the per-layer
metrics derived from their spans.

A layer is a module.  The traced run wraps each layer's public functions
(minus the scalar helpers and numeric kernels in ``SKIP``, which run once
per leaf or per node and are charged to their callers) wherever they are
bound, records one span per call, and reduces the spans to the metrics in
``per_layer_metrics``.  Per-node times come from a separate pass through
the executors' ``sink`` hooks (``breakdown``), because ``run_integer_only``
has no sink and a sink inside the traced pass would inflate its spans.
"""

from __future__ import annotations

import importlib
import os
import sys

import numpy as np

import harness

LAYERS = ("cli", "tuner", "gbt", "calibration", "clipping", "quantize",
          "intexec", "fp32", "container")
NODE_KINDS = ("conv2d", "depthwise_conv2d", "pointwise_conv2d", "fully_connected",
              "relu", "maxpool", "avgpool", "add", "concat", "softmax")
SKIP = {
    "gbt": {"grad_hess", "leaf_weight", "split_gain"},
    "fp32": {"conv2d", "depthwise_conv2d", "maxpool", "avgpool", "softmax"},
    "intexec": {"requantize"},
}


def _internal_nodes(tree: dict) -> int:
    if "leaf" in tree:
        return 0
    return 1 + _internal_nodes(tree["left"]) + _internal_nodes(tree["right"])


def install(tracer: harness.Tracer, samples: dict) -> list[str]:
    """Wrap every layer of the imported ``ptqtune`` in ``tracer``.

    ``samples`` collects, per (graph name, fused), the first quantized graph
    run by ``evaluate_quantized`` or ``run_integer_only``, for ``breakdown``.
    """
    mods = {name: importlib.import_module(f"ptqtune.{name}") for name in LAYERS}
    namespaces = [m for n, m in sorted(sys.modules.items())
                  if m is not None and (n == "ptqtune" or n.startswith("ptqtune."))]

    def keep_sample(args, _kwargs, _out):
        qg = args[0]
        samples.setdefault((qg.graph.name, qg.fused), qg)

    def calib_images(args, kwargs, _out):
        images = np.asarray(args[1] if len(args) > 1 else kwargs["images"])
        return {"images": 1 if images.ndim == 3 else int(images.shape[0])}

    hooks = {
        "gbt.train": lambda a, k, out: {
            "rows": len(a[0]), "split_nodes": sum(_internal_nodes(t) for t in out.trees)},
        "calibration.calibrate": calib_images,
        "container.read_container": lambda a, k, out: {
            "bytes": os.path.getsize(a[0] if a else k["path"])},
        "tuner.run_strategy": lambda a, k, out: {
            "trials": len(out.trials), "failed": sum(r.error for r in out.trials)},
        "intexec.evaluate_quantized": keep_sample,
        "intexec.run_integer_only": keep_sample,
    }
    return tracer.install(mods, namespaces, skip=SKIP, hooks=hooks)


def breakdown(graphs: list, samples: dict, d) -> dict[str, dict[str, float]]:
    """Busy seconds per node kind: ``run_fp32`` on each graph and
    ``run_quantized`` on each sampled quantized graph, over the eval split."""
    from ptqtune import fp32, intexec

    out = {"fp32": {}, "intexec": {}}
    if d is None:
        return out
    for g in graphs:
        timer = harness.NodeTimer(g.nodes)
        fp32.run_fp32(g, d.eval_images, sink=timer.start())
        for kind, s in timer.totals.items():
            out["fp32"][kind] = out["fp32"].get(kind, 0.0) + s
    for _key, qg in sorted(samples.items()):
        timer = harness.NodeTimer(qg.graph.nodes)
        intexec.run_quantized(qg, d.eval_images, sink=timer.start())
        for kind, s in timer.totals.items():
            out["intexec"][kind] = out["intexec"].get(kind, 0.0) + s
    return out


def per_layer_metrics(spans: list[list], node_s: dict[str, dict[str, float]],
                      untraced_s: float, traced_s: float) -> dict[str, tuple[float, str]]:
    """Reduce spans, per-node times and the two wall times to named metrics.

    A layer that the workload never calls reads 0.
    """
    summ = harness.summarize(spans)
    kids = harness.children(spans)

    def total(name, key="s"):
        return summ.get(name, {}).get(key, 0.0 if key != "calls" else 0)

    def counted(name, key):
        return sum((s[4] or {}).get(key, 0) for s in spans if s[0] == name)

    m: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    # intexec
    put("intexec.evaluate_quantized.calls", total("intexec.evaluate_quantized", "calls"), "count")
    put("intexec.evaluate_quantized.s", total("intexec.evaluate_quantized"), "s")
    put("intexec.run_quantized.s", total("intexec.run_quantized"), "s")
    put("intexec.run_integer_only.s", total("intexec.run_integer_only"), "s")
    for kind in NODE_KINDS:
        put(f"intexec.node.{kind}.s", node_s["intexec"].get(kind, 0.0), "s")
    # clipping
    clipped = [i for i, s in enumerate(spans) if s[0] == "clipping.clipped_range"]
    misses = sum(1 for i in clipped if any(
        spans[c][0] in ("clipping.clip_range_kl", "clipping.clip_range_max")
        for c in kids.get(i, ())))
    put("clipping.clip_range_kl.calls", total("clipping.clip_range_kl", "calls"), "count")
    put("clipping.clip_range_kl.s", total("clipping.clip_range_kl"), "s")
    put("clipping.clipped_range.calls", len(clipped), "count")
    put("clipping.memo_hit_ratio", (len(clipped) - misses) / len(clipped) if clipped else 0.0,
        "ratio")
    # calibration
    images = counted("calibration.calibrate", "images")
    calib_fp32 = sum(1 for i, s in enumerate(spans) if s[0] == "fp32.run_fp32" and any(
        spans[a][0].startswith("calibration.") for a in harness.ancestors(spans, i)))
    put("calibration.build_cache.calls", total("calibration.build_cache", "calls"), "count")
    put("calibration.build_cache.s", total("calibration.build_cache"), "s")
    put("calibration.images", images, "count")
    put("calibration.fp32_runs_per_image", calib_fp32 / images if images else 0.0, "ratio")
    # fp32
    put("fp32.run_fp32.calls", total("fp32.run_fp32", "calls"), "count")
    put("fp32.run_fp32.s", total("fp32.run_fp32"), "s")
    put("fp32.evaluate_top1.s", total("fp32.evaluate_top1"), "s")
    for kind in NODE_KINDS:
        put(f"fp32.node.{kind}.s", node_s["fp32"].get(kind, 0.0), "s")
    # gbt
    trains = total("gbt.train", "calls")
    put("gbt.train.calls", trains, "count")
    put("gbt.train.s", total("gbt.train"), "s")
    put("gbt.train.rows_mean", counted("gbt.train", "rows") / trains if trains else 0.0, "count")
    put("gbt.predict.s", total("gbt.predict"), "s")
    put("gbt.split_nodes", counted("gbt.train", "split_nodes"), "count")
    # quantize
    put("quantize.quantize_model.calls", total("quantize.quantize_model", "calls"), "count")
    put("quantize.quantize_model.self_s", total("quantize.quantize_model", "self_s"), "s")
    put("quantize.load_quantized.s", total("quantize.load_quantized"), "s")
    put("quantize.save_quantized.s", total("quantize.save_quantized"), "s")
    # tuner
    put("tuner.run_strategy.s", total("tuner.run_strategy"), "s")
    put("tuner.trials", counted("tuner.run_strategy", "trials"), "count")
    put("tuner.trials_failed", counted("tuner.run_strategy", "failed"), "count")
    # container
    for op in ("read_container", "write_container"):
        put(f"container.{op}.calls", total(f"container.{op}", "calls"), "count")
        put(f"container.{op}.s", total(f"container.{op}"), "s")
    put("container.bytes_read", counted("container.read_container", "bytes"), "bytes")
    # cli
    put("cli.main.s", total("cli.main"), "s")
    # self time of every layer
    for layer in LAYERS:
        put(f"{layer}.self_s", total(layer, "self_s"), "s")
    put("trace.untraced_s", untraced_s, "s")
    put("trace.traced_s", traced_s, "s")
    put("trace.overhead_s", traced_s - untraced_s, "s")
    put("trace.spans", len(spans), "count")
    return m
