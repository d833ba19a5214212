from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import conv2d_scalar, depthwise_scalar, requantize_int64, round_half_up
from ptqtune import (GraphError, IntegerOnlyError, OpTrace, QuantConfig, Scheme,
                     build_cache, check_integer_only, enumerate_space,
                     evaluate_quantized, evaluate_top1, fuse_conv_relu,
                     generate_fixture, quantize_model, requantize,
                     run_integer_only, run_quantized, validate)
from ptqtune.fixtures import _GRAMMAR_KINDS
from ptqtune import intexec
from ptqtune.intexec import _BLOCK, _accumulate
from ptqtune.ir import INPUT_TENSOR, Graph, Node
from ptqtune.tuner import INTEGER_ONLY


def cfg(**kw):
    base = dict(cache="S2", scheme=Scheme.Asymmetric, clipping="Max",
                granularity="Tensor", mixed="Off", fusion=False)
    base.update(kw)
    return QuantConfig(**base)


# --------------------------------------------------------------- requantize

def test_requantize_shift_examples():
    assert int(requantize(256, shift=4)) == 16
    assert int(requantize(300000, shift=4)) == 127  # saturates
    assert int(requantize(-300000, shift=4)) == -128
    assert int(requantize(24, shift=4)) == 2   # 1.5 rounds half-up to 2
    assert int(requantize(-24, shift=4)) == -1  # -1.5 rounds half-up to -1


def test_requantize_multiplier_matches_shift_bitwise():
    rng = np.random.default_rng(8)
    acc = rng.integers(-(2**30), 2**30, size=4000)
    for s in (0, 1, 4, 9, 17):
        a = requantize(acc, shift=s, zero_point=3)
        b = requantize(acc, multiplier=2.0**-s, zero_point=3)
        assert np.array_equal(a, b)
        want = np.array([min(max(round_half_up(int(v) * 2.0**-s) + 3, -128), 127)
                         for v in acc])
        assert np.array_equal(a.astype(np.int64), want)
    # the float64 carrier against int64 >>/<< at the int32 extremes, for
    # left, zero and right shifts and the extreme zero points
    acc = np.concatenate([acc, [2**31 - 1, -(2**31 - 1), -(2**31)]])
    for s in range(-3, 32):
        for zp in (-128, 0, 127):
            want = requantize_int64(acc, shift=s, zero_point=zp)
            assert np.array_equal(requantize(acc, shift=s, zero_point=zp), want), (s, zp)
            assert np.array_equal(requantize(acc, multiplier=2.0**-s, zero_point=zp),
                                  want), (s, zp)


def test_requantize_needs_exactly_one_of_multiplier_shift():
    with pytest.raises(ValueError):
        requantize(1)
    with pytest.raises(ValueError):
        requantize(1, multiplier=0.5, shift=1)


# ------------------------------------------ float32 accumulation bound

# Input codes 127 at zero point -128 (the widest reach, 255) against weight
# codes at zero point 0: output channel 1, all -128, sets the layer's bound
# 255 * 128 * taps; channel 0, all 127, sums the odd 255 * 127 per tap, so
# past 2**24 its sum has no float32 representation and a float32
# accumulation there is wrong.
ZX = -128
EDGE_LAYERS = [  # (kind, input channels or fc taps, taps per output, float32?)
    ("fully_connected", 514, 514, True),   # bound 16,776,960 = 2**24 - 256
    ("fully_connected", 519, 519, False),  # bound 16,942,080; channel 0 16,807,815
    ("conv2d", 57, 57 * 9, True),          # bound 16,744,320
    ("conv2d", 59, 59 * 9, False),         # channel 0 17,196,435
    ("pointwise_conv2d", 514, 514, True),
    ("pointwise_conv2d", 519, 519, False),
    ("depthwise_conv2d", 22, 22 * 22, True),   # bound 15,797,760
    ("depthwise_conv2d", 23, 23 * 23, False),  # channel 0 17,131,965
]


def edge_layer(kind, width):
    """A node, its input codes (image 0 all 127, image 1 random) and its
    zero-shifted weights (channel 0 all 127, channel 1 all -128, channel 2
    drawn from -128, -127 and 127)."""
    rng = np.random.default_rng(width)
    if kind == "fully_connected":
        node = Node("l", kind, ["x", "w"], "y")
        x_shape, w_shape = (2, width), (3, width)
    elif kind == "conv2d":
        node = Node("l", kind, ["x", "w"], "y", {"stride": 1, "padding": 1})
        x_shape, w_shape = (2, width, 4, 4), (3, width, 3, 3)
    elif kind == "depthwise_conv2d":  # width is the kernel size
        node = Node("l", kind, ["x", "w"], "y", {"stride": 1, "padding": 1})
        x_shape, w_shape = (2, 3, width, width), (3, 1, width, width)
    else:
        node = Node("l", kind, ["x", "w"], "y", {"stride": 1, "padding": 0})
        x_shape, w_shape = (2, width, 2, 2), (3, width, 1, 1)
    x = np.full(x_shape, 127, dtype=np.float32)
    x[1] = rng.integers(-128, 128, size=x_shape[1:])
    w = rng.choice([-128.0, -127.0, 127.0], size=w_shape)
    w[0] = 127.0
    w[1] = -128.0
    return node, x, w


@pytest.mark.parametrize("kind,width,taps,in_float32", EDGE_LAYERS)
def test_accumulation_is_exact_on_both_sides_of_the_float32_bound(kind, width, taps,
                                                                  in_float32):
    node, x, w = edge_layer(kind, width)
    bound = taps * 128 * (127 - ZX)
    assert (bound < 2**24) == in_float32
    acc = _accumulate(node, x, ZX, w)
    assert acc.dtype == (np.float32 if in_float32 else np.float64)
    xs = (x - ZX).astype(np.int64)
    if kind == "conv2d":
        want = np.stack([conv2d_scalar(xi, w, padding=1) for xi in xs]).astype(np.int64)
    elif kind == "depthwise_conv2d":
        want = np.stack([depthwise_scalar(xi, w, padding=1) for xi in xs]).astype(np.int64)
    elif kind == "fully_connected":
        want = xs @ w.astype(np.int64).T
    else:
        want = np.einsum("nchw,oc->nohw", xs, w[:, :, 0, 0].astype(np.int64))
    assert np.abs(want).max() == bound  # the bound is reached
    assert want[0, 0].max() == taps * 127 * (127 - ZX)
    assert np.array_equal(acc, want)


def conv_oracle(kind, x, zx, w, stride, pad):
    """int64 sums of a conv layer on codes ``x`` at zero point ``zx``."""
    scalar = depthwise_scalar if kind == "depthwise_conv2d" else conv2d_scalar
    return np.stack([scalar(xi - zx, w, stride=stride, padding=pad)
                     for xi in x.astype(np.int64)]).astype(np.int64)


def check_conv(kind, x, zx, w, stride, pad):
    node = Node("l", kind, ["x", "w"], "y", {"stride": stride, "padding": pad})
    bound = np.abs(w).reshape(len(w), -1).sum(axis=1).max() * max(zx + 128, 127 - zx)
    acc = _accumulate(node, x, zx, w)
    assert acc.dtype == (np.float32 if bound < 2**24 else np.float64)
    assert acc.flags.c_contiguous
    assert np.array_equal(acc, conv_oracle(kind, x, zx, w, stride, pad))


@st.composite
def conv_layers(draw):
    """A conv2d, pointwise or depthwise layer on int8 codes, its batch, and
    a block size for the batch: one image or up to seven, in blocks of one
    to three images or of less than one."""
    kind = draw(st.sampled_from(["conv2d", "pointwise_conv2d", "depthwise_conv2d"]))
    # zero-shifted weights reach 255 in magnitude; all-extreme weights on a
    # conv2d of 275 taps or more put its bound past 2**24
    wide = kind == "conv2d" and draw(st.booleans())
    k = 5 if wide else 1 if kind == "pointwise_conv2d" else draw(st.integers(1, 5))
    stride, pad = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    c = draw(st.integers(11 if wide else 1, 16))
    o = c if kind == "depthwise_conv2d" else draw(st.integers(1, 4 if wide else 16))
    lo = max(1, k - 2 * pad)
    h, wd = draw(st.integers(lo, lo + 4)), draw(st.integers(lo, lo + 4))
    n = draw(st.integers(1, 7))
    zx = draw(st.sampled_from([-128, 127])) if wide else draw(st.integers(-128, 127))
    extreme = wide or draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.integers(-128, 128, size=(n, c, h, wd)).astype(np.float32)
    x[0] = 127 if zx < 0 else -128  # the reach of zx
    w_shape = (o, 1 if kind == "depthwise_conv2d" else c, k, k)
    w = (rng.choice([-255.0, 255.0], size=w_shape) if extreme
         else rng.integers(-255, 256, size=w_shape).astype(np.float64))
    # elements per image that size the blocks: the gathered columns, or the
    # padded input of a depthwise layer
    oh, ow = (h + 2 * pad - k) // stride + 1, (wd + 2 * pad - k) // stride + 1
    item = c * ((h + 2 * pad) * (wd + 2 * pad) if kind == "depthwise_conv2d"
                else k * k * oh * ow)
    step = draw(st.integers(0, 3))  # 0: an image larger than a block
    block = max(1, item - 1) if step == 0 else step * item + draw(st.integers(0, item - 1))
    return kind, x, zx, w, stride, pad, block


@settings(max_examples=150, deadline=None)
@given(conv_layers())
@example(("conv2d", np.full((3, 16, 5, 5), 127, dtype=np.float32), -128,
          np.full((2, 16, 5, 5), -255.0), 1, 0, 1000))  # bound 26,010,000
@example(("conv2d", np.full((3, 8, 5, 5), 127, dtype=np.float32), -128,
          np.full((2, 8, 5, 5), -255.0), 2, 1, 5000))   # bound 13,005,000
def test_conv_kernels_on_codes_match_scalar_oracles(layer):
    kind, x, zx, w, stride, pad, block = layer
    with mock.patch.object(intexec, "_BLOCK", block):
        check_conv(kind, x, zx, w, stride, pad)


@pytest.mark.parametrize("kind,k,c,o", [("conv2d", 3, 4, 2), ("pointwise_conv2d", 1, 16, 2),
                                        ("depthwise_conv2d", 2, 4, 4)])
def test_conv_kernels_on_codes_block_at_the_shipped_size(kind, k, c, o):
    """At the shipped ``_BLOCK`` (padding 1): a batch that ends in a ragged
    block, and one image larger than a block."""
    rng = np.random.default_rng(k * c)
    depthwise = kind == "depthwise_conv2d"
    w = rng.integers(-255, 256, size=(o, 1 if depthwise else c, k, k)).astype(np.float64)

    def item(h):  # elements per image of the gathered columns, or the padded input
        return c * (h + 2) ** 2 if depthwise else c * k * k * (h + 3 - k) ** 2

    big = next(h for h in range(1, 256) if item(h) > _BLOCK)
    step = _BLOCK // item(16)
    ragged = step + step // 2 + 1
    assert step > 1 and ragged % step
    for h, n in ((16, ragged), (big, 2)):
        x = rng.integers(-128, 128, size=(n, c, h, h)).astype(np.float32)
        check_conv(kind, x, 5, w, 1, 1)


# --------------------------------------------------- simulated int8 forward

def test_identity_model_logits_within_one_step(ds):
    g = Graph("ident", [Node("fc", "fully_connected", [INPUT_TENSOR, "w"], "t")],
              weights={"w": np.eye(10, dtype=np.float32)},
              input_shape=(10, 1, 1), output_classes=10)
    from ptqtune import Dataset
    rng = np.random.default_rng(0)
    images = rng.uniform(-2, 2, size=(40, 10, 1, 1)).astype(np.float32)
    d = Dataset(images=images, labels=np.zeros(40, dtype=np.int64), n_calib=20)
    cache = build_cache(g, d, "S1", seed=0)
    # calibrate on the widest ranges seen across the whole pool instead of
    # one image so every eval value is in range
    from ptqtune.calibration import calibrate
    cache = calibrate(g, d.calib_images, model_name=g.name, size_class="S1")
    qg = quantize_model(g, cache, cfg())
    logits = run_quantized(qg, d.eval_images)
    step = max(float(qg.act_params["t"].scale), float(qg.act_params["input"].scale))
    assert np.abs(logits - d.eval_images.reshape(20, 10)).max() <= 2 * step


def test_all_zero_weights_give_constant_zero_point_output(ds, lenet):
    g = Graph(lenet.name, lenet.nodes,
              {k: np.zeros_like(v) for k, v in lenet.weights.items()},
              input_shape=lenet.input_shape, output_classes=lenet.output_classes)
    cache = build_cache(g, ds, "S2", seed=0)
    qg = quantize_model(g, cache, cfg())
    codes = run_quantized(qg, ds.eval_images[:4], return_codes=True)
    zp = int(qg.act_params[g.output_tensor()].zero_point)
    assert (codes == zp).all()
    assert (run_quantized(qg, ds.eval_images[:4]) == 0.0).all()


@pytest.mark.parametrize("scheme", list(Scheme))
def test_quantized_top1_stays_high_under_max_clipping(scheme, lenet, resnet,
                                                      lenet_cache_s2,
                                                      resnet_cache_s2, ds):
    for g, cache in ((lenet, lenet_cache_s2), (resnet, resnet_cache_s2)):
        qg = quantize_model(g, cache, cfg(scheme=scheme))
        r = evaluate_quantized(qg, ds)
        assert r.top1 >= 0.95, f"{g.name}/{scheme.value}: {r.top1}"


def test_residual_add_preserves_negative_contributions(resnet, resnet_cache_s2, ds):
    # the skip-add output feeds a relu; summing must happen before the
    # output-range clamp or negative residuals vanish
    qg = quantize_model(resnet, resnet_cache_s2, cfg(scheme=Scheme.Asymmetric))
    assert evaluate_quantized(qg, ds).top1 == evaluate_top1(resnet, ds).top1


def test_logit_drift_bounded_by_output_scale(lenet, ds):
    cache = build_cache(lenet, ds, "S3", seed=0)
    qg = quantize_model(lenet, cache, cfg(cache="S3"))
    fp = __import__("ptqtune").run_fp32(lenet, ds.eval_images)
    q = run_quantized(qg, ds.eval_images)
    out_scale = float(qg.act_params[lenet.output_tensor()].scale)
    assert np.abs(fp - q).mean() <= 3 * out_scale


# ------------------------------------------------------------ mixed precision

def test_mixed_trace_confines_float_ops_to_first_and_last(lenet, lenet_cache_s2):
    qg = quantize_model(lenet, lenet_cache_s2, cfg(mixed="FirstLastFp32"))
    trace = OpTrace()
    run_quantized(qg, np.zeros((1,) + tuple(lenet.input_shape), np.float32), trace=trace)
    kernel_nodes = {nid for nid, cat in trace.events if cat == "float_kernel"}
    assert kernel_nodes == qg.fp32_nodes
    # and an unmixed run keeps every kernel in integer arithmetic
    trace2 = OpTrace()
    run_quantized(quantize_model(lenet, lenet_cache_s2, cfg()),
                  np.zeros((1,) + tuple(lenet.input_shape), np.float32), trace=trace2)
    assert trace2.count("float_kernel") == 0


@pytest.mark.parametrize("fusion", [False, True])
def test_sink_sees_every_node_output_under_mixed_precision(fusion, lenet, lenet_cache_s2, ds):
    qg = quantize_model(lenet, lenet_cache_s2, cfg(mixed="FirstLastFp32", fusion=fusion))
    seen = []
    run_quantized(qg, ds.eval_images[:4], sink=lambda t, v: seen.append((t, v)))
    assert [t for t, _ in seen] == [n.output for n in qg.graph.nodes]
    codes = {t: v for t, v in seen if t in qg.act_params}
    assert set(codes) == set(qg.act_params)
    for t, v in codes.items():
        assert np.array_equal(v, np.round(v)), t
        assert -128 <= v.min() and v.max() <= 127, t


# ------------------------------------------------------------------- fusion

def test_fusion_drops_one_node_per_relu_and_keeps_logits(lenet, lenet_cache_s2, ds):
    qg = quantize_model(lenet, lenet_cache_s2, cfg())
    fused = fuse_conv_relu(qg)
    n_relu = sum(n.kind == "relu" for n in lenet.nodes)
    assert len(fused.graph.nodes) == len(lenet.nodes) - n_relu
    assert fused.fused
    a = run_quantized(qg, ds.eval_images[:16])
    b = run_quantized(fused, ds.eval_images[:16])
    assert np.array_equal(a, b)
    assert evaluate_quantized(fused, ds).top1 == evaluate_quantized(qg, ds).top1


def test_fusion_without_relu_is_identity(ds):
    from ptqtune import generate_fixture
    g = generate_fixture("conv+maxpool+fc", seed=3)
    cache = build_cache(g, ds, "S1", seed=0)
    qg = quantize_model(g, cache, cfg())
    assert fuse_conv_relu(qg) is qg


# ------------------------------------------------------------- integer-only

def int_cfg(**kw):
    base = dict(scheme=Scheme.SymmetricPower2, granularity="Tensor")
    base.update(kw)
    return cfg(**base)


def test_integer_only_requires_power2_tensor_off(lenet, lenet_cache_s2):
    for bad in (cfg(), int_cfg(granularity="Channel"), int_cfg(mixed="FirstLastFp32")):
        with pytest.raises(IntegerOnlyError):
            check_integer_only(quantize_model(lenet, lenet_cache_s2, bad))
    check_integer_only(quantize_model(lenet, lenet_cache_s2, int_cfg()))
    # a config relabelled to pass must still fail on the graph it describes
    mixed = quantize_model(lenet, lenet_cache_s2, int_cfg(mixed="FirstLastFp32"))
    first = lenet.compute_nodes()[0].id
    with pytest.raises(IntegerOnlyError, match=f"fp32 layers .*'{first}'"):
        check_integer_only(replace(mixed, config=replace(mixed.config, mixed="Off")))
    channel = quantize_model(lenet, lenet_cache_s2, int_cfg(granularity="Channel"))
    wid = lenet.compute_nodes()[0].weight_id
    with pytest.raises(IntegerOnlyError, match=f"weight {wid}: per-channel"):
        check_integer_only(replace(channel, config=replace(channel.config,
                                                           granularity="Tensor")))


def test_integer_path_is_bitwise_equal_and_float_free(lenet, resnet, mobile, ds):
    for g in (lenet, resnet, mobile):
        cache = build_cache(g, ds, "S2", seed=0)
        qg = quantize_model(g, cache, int_cfg())
        trace = OpTrace()
        codes_int = run_integer_only(qg, ds.eval_images[:32], trace=trace)
        assert trace.float_ops() == 0
        codes_sim = run_quantized(qg, ds.eval_images[:32], return_codes=True)
        assert np.array_equal(codes_int, codes_sim), g.name


@settings(deadline=None, max_examples=20)
@given(tokens=st.lists(st.sampled_from(_GRAMMAR_KINDS), max_size=5), seed=st.integers(0, 3))
def test_integer_path_is_bitwise_equal_on_generated_recipes(ds, tokens, seed):
    try:
        g = generate_fixture("+".join(tokens + ["fc"]), seed=seed)
    except GraphError:
        assume(False)
    qg = quantize_model(g, build_cache(g, ds, "S1", seed=0), int_cfg(cache="S1"))
    trace = OpTrace()
    codes_int = run_integer_only(qg, ds.eval_images[:8], trace=trace)
    assert trace.float_ops() == 0
    assert np.array_equal(codes_int, run_quantized(qg, ds.eval_images[:8], return_codes=True))


def concat_graph():
    """conv -> relu -> {conv, pointwise} -> concat -> maxpool -> avgpool -> fc -> softmax."""
    g = generate_fixture("conv+relu+fc", seed=1)
    conv, relu = g.nodes[0], g.nodes[1]
    rng = np.random.default_rng(2)
    c = g.weights[conv.weight_id].shape[0]
    g2 = Graph("concat", [
        conv, relu,
        Node("ca", "conv2d", [relu.output, "wa", "ba"], "t_a", {"stride": 1, "padding": 1}),
        Node("pb", "pointwise_conv2d", [relu.output, "wb"], "t_b"),
        Node("cat", "concat", ["t_a", "t_b"], "t_cat"),
        Node("mp", "maxpool", ["t_cat"], "t_mp", {"kernel": 2, "stride": 2}),
        Node("ap", "avgpool", ["t_mp"], "t_ap", {"kernel": 2, "stride": 2}),
        Node("fc", "fully_connected", ["t_ap", "wfc"], "t_fc"),
        Node("sm", "softmax", ["t_fc"], "t_sm"),
    ], weights={conv.inputs[1]: g.weights[conv.weight_id],
                conv.inputs[2]: g.weights[conv.bias_id],
                "wa": (0.2 * rng.standard_normal((4, c, 3, 3))).astype(np.float32),
                "ba": (0.01 * rng.standard_normal(4)).astype(np.float32),
                "wb": (0.5 * rng.standard_normal((6, c, 1, 1))).astype(np.float32),
                "wfc": (0.1 * rng.standard_normal((10, 10 * 8 * 8))).astype(np.float32)},
        input_shape=(3, 32, 32), output_classes=10)
    validate(g2)
    return g2


def test_concat_graph_integer_path_is_bitwise_equal_and_float_free(ds):
    g = concat_graph()
    caches = {c: build_cache(g, ds, c, seed=0) for c in ("S1", "S2", "S3")}
    for c in enumerate_space(INTEGER_ONLY):
        qg = quantize_model(g, caches[c.cache], c)
        trace = OpTrace()
        codes_int = run_integer_only(qg, ds.eval_images[:16], trace=trace)
        assert trace.float_ops() == 0, c
        assert trace.count("shift") > 0
        codes_sim = run_quantized(qg, ds.eval_images[:16], return_codes=True)
        assert np.array_equal(codes_int, codes_sim), c


def test_integer_only_rejects_non_power_of_two_pool_area(ds):
    from ptqtune import generate_fixture
    g = generate_fixture("conv+relu+fc", seed=1)
    # rewrite the conv stride/pool structure: build a graph with avgpool k=3
    nodes = list(g.nodes)
    w = g.weights[nodes[0].weight_id]
    g2 = Graph("odd-pool", [
        nodes[0],
        Node("ap", "avgpool", [nodes[0].output], "t_ap", {"kernel": 3, "stride": 3}),
        Node("fc", "fully_connected", ["t_ap", "wfc"], "t_fc"),
    ], weights={nodes[0].inputs[1]: w,
                nodes[0].inputs[2]: g.weights[nodes[0].bias_id],
                "wfc": np.ones((10, w.shape[0] * 10 * 10), np.float32)},
        input_shape=(3, 32, 32), output_classes=10)
    from ptqtune import validate
    validate(g2)
    cache = build_cache(g2, ds, "S1", seed=0)
    qg = quantize_model(g2, cache, int_cfg())
    with pytest.raises(IntegerOnlyError):
        check_integer_only(qg)
