import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import block_elements, recipes
from oracles import (add_int64, conv2d_scalar, depthwise_scalar, requantize_int64, round_half_up,
                     run_reference)
from ptqtune import (GraphError, IntegerOnlyError, OpTrace, QuantConfig, QuantParams, Scheme,
                     build_cache, check_integer_only, clipped_range, enumerate_space,
                     evaluate_quantized, evaluate_top1, generate_fixture, params_for_range,
                     quantize_model, run_fp32, run_integer_only, run_quantized, validate)
from ptqtune import fp32, intexec
from ptqtune.intexec import _accumulator
from ptqtune.ir import INPUT_TENSOR, Graph, Node, pool_args
from ptqtune.quantize import QuantizedGraph
from ptqtune.schemes import QMAX, QMIN
from ptqtune.tuner import GENERIC, INTEGER_ONLY


def cfg(**kw):
    base = dict(cache="S2", scheme=Scheme.Asymmetric, clipping="Max",
                granularity="Tensor", mixed="Off", fusion=False)
    base.update(kw)
    return QuantConfig(**base)


# --------------------------------------------------------------- requantize

def requantize(acc, multiplier, zero_point=0):
    """int32 accumulator -> int8 codes as float64 through ``_requantize``."""
    acc = np.array(acc, dtype=np.float64)
    return intexec._requantize(acc, multiplier, zero_point, acc)


def test_requantize_shift_examples():
    assert int(requantize(256, 2.0**-4)) == 16
    assert int(requantize(300000, 2.0**-4)) == 127  # saturates
    assert int(requantize(-300000, 2.0**-4)) == -128
    assert int(requantize(24, 2.0**-4)) == 2   # 1.5 rounds half-up to 2
    assert int(requantize(-24, 2.0**-4)) == -1  # -1.5 rounds half-up to -1


def test_requantize_multiplier_matches_shift_bitwise():
    rng = np.random.default_rng(8)
    acc = rng.integers(-(2**30), 2**30, size=4000)
    for s in (0, 1, 4, 9, 17):
        a = requantize(acc, 2.0**-s, zero_point=3)
        assert np.array_equal(a, requantize_int64(acc, shift=s, zero_point=3))
        want = np.array([min(max(round_half_up(int(v) * 2.0**-s) + 3, -128), 127)
                         for v in acc])
        assert np.array_equal(a.astype(np.int64), want)
    # the float64 carrier against int64 >>/<< at the int32 extremes, for
    # left, zero and right shifts and the extreme zero points
    acc = np.concatenate([acc, [2**31 - 1, -(2**31 - 1), -(2**31)]])
    for s in range(-3, 32):
        for zp in (-128, 0, 127):
            want = requantize_int64(acc, shift=s, zero_point=zp)
            assert np.array_equal(requantize(acc, 2.0**-s, zero_point=zp), want), (s, zp)


def test_rescale_matches_int64_shift_with_bias_and_int32_saturation():
    # (n, 7) accumulators with sums that pass both int32 ends once the bias
    # is added
    rng = np.random.default_rng(4)
    acc = rng.integers(-(2**33), 2**33, size=(20000, 7)).astype(np.float64)
    acc[:, 0] = 2**31 - 1
    acc[:, 1] = -(2**31)
    bias = np.array([1, -1, 2**31 - 1, -(2**31), 0, 12345, -54321], dtype=np.int64)
    saturated = np.clip(acc.astype(np.int64) + bias, -(2**31), 2**31 - 1)
    for s in (-2, 0, 1, 7, 16, 31):
        for zp in (-128, 0, 127):
            want = requantize_int64(saturated, shift=s, zero_point=zp)
            got = intexec._rescaler(acc.ndim, 2.0**-9, 2.0**(s - 9), zp,
                                    bias=bias.astype(np.float64))(acc)
            assert got.dtype == np.float32
            assert np.array_equal(got, want), (s, zp)


_EXTREMES = np.array([QMIN, QMIN + 1, -1, 0, 1, QMAX - 1, QMAX], dtype=np.float32)


@pytest.mark.parametrize("integer_only", [False, True])
def test_add_step_matches_int64_alignment_up_to_45_bits(integer_only):
    # every pair of extreme codes, for input exponents 0..45 apart either
    # way, zero points at both ends, and output exponents below, between
    # and above the inputs'; both label sets run the same arithmetic, and
    # only the simulation's labels count float operations
    xa, xb = (v.reshape(1, -1) for v in np.meshgrid(_EXTREMES, _EXTREMES))
    node = Node("a", "add", ["ta", "tb"], "to")
    for d in range(46):
        for ka, kb in ((-10, -10 - d), (-10 - d, -10)):
            kmin, kmax = min(ka, kb), max(ka, kb)
            for ko in (kmin - 1, kmin, kmax, kmax + 1, kmax + 9):
                for za, zb, zo in ((0, 0, 0), (QMIN, QMAX, 0), (QMAX, 0, QMIN)):
                    qg = QuantizedGraph(
                        Graph("add", [node], {}, (1, 1, xa.shape[1]), xa.shape[1]),
                        int_cfg(), {"ta": QuantParams(2.0**ka, za), "tb": QuantParams(2.0**kb, zb),
                                    "to": QuantParams(2.0**ko, zo)}, {})
                    got = intexec._lower(qg, node)([xa, xb])
                    want = add_int64(xa, za, ka, xb, zb, kb, zo, ko)
                    assert np.array_equal(got, want), (ka, kb, ko, za, zb, zo)
                    trace = OpTrace()
                    trace.add(node.id, *intexec._events(qg, node, integer_only))
                    assert (trace.float_ops() == 0) == integer_only


# -------------------------------------------- float32 requantize bound

def rescale_limit(m, zp):
    """The least |acc| + |bias| at which ``_rescaler`` leaves float32, for a
    power-of-two multiplier ``m`` and zero point ``zp``: acc * m + (bias * m
    + zp + 0.5) and its terms are multiples of min(m, 0.5), exact in float32
    below min(m, 0.5) * 2**24."""
    return math.ceil((min(m, 0.5) * 2**24 - abs(zp) - 0.5) / m)


def rescale_ran_float64(acc, *args, **kwargs):
    """``_rescaler``'s codes for ``acc``, and whether its float64 sequence
    ran."""
    with mock.patch.object(intexec, "_requantize", wraps=intexec._requantize) as f64:
        out = intexec._rescaler(acc.ndim, *args, **kwargs)(acc)
    assert out.dtype == np.float32
    return out, f64.called


def accumulators(rng, bound, shape):
    """float32 integer accumulators of ``shape`` (channels on axis 1), each
    channel within its ``bound``, reaching it at both signs in image 0."""
    acc = np.stack([rng.integers(-v, v + 1, size=(shape[0], *shape[2:])) for v in bound], axis=1)
    acc[0, :, 0, 0], acc[0, :, 0, 1] = bound, -bound
    return acc.astype(np.float32)


RESCALE_CASES = [  # shifts s of the multipliers 2**-s (one: per tensor), zero point
    ((9,), 0), ((9,), QMIN), ((9,), QMAX), ((0,), QMIN), ((-2,), QMAX), ((20,), 0),
    ((1, 7, 12, 16), QMIN), ((3, 0, 14, -1), QMAX)]


@pytest.mark.parametrize("shifts,zp", RESCALE_CASES)
@pytest.mark.parametrize("in_float32", [True, False])
def test_rescale_matches_int64_on_both_sides_of_the_float32_bound(shifts, zp, in_float32):
    # four channels whose |acc| + |bias| reaches the last value that runs in
    # float32 (or the first that does not), with bias codes of both signs,
    # on a 4-D layer and the same values as a 2-D one
    m = 2.0 ** -np.array(shifts, dtype=np.float64)
    limit = np.array([rescale_limit(mi, zp) for mi in np.broadcast_to(m, 4)])
    total = limit - 1 if in_float32 else limit
    bias = total // 3 * np.array([1, -1, 1, -1])
    bound = total - np.abs(bias)
    acc = accumulators(np.random.default_rng(256 * len(shifts) + zp - QMIN), bound, (3, 4, 5, 5))
    mult = m if len(m) > 1 else float(m[0])
    for a in (acc, acc.transpose(0, 2, 3, 1).reshape(-1, 4)):
        axis = (1, -1, 1, 1)[:a.ndim]
        want = requantize_int64(a.astype(np.int64) + bias.reshape(axis),
                                multiplier=np.reshape(m, axis), zero_point=zp)
        got, ran_float64 = rescale_ran_float64(a, mult, 1.0, zp, bias=bias.astype(np.int32),
                                               bound=bound)
        assert ran_float64 != in_float32
        assert np.array_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_float32_and_float64_rescale_agree_inside_the_bound(data):
    o = data.draw(st.integers(1, 5))
    shifts = data.draw(st.lists(st.integers(-4, 21), min_size=1, max_size=1)
                       | st.lists(st.integers(-4, 21), min_size=o, max_size=o))
    zp = data.draw(st.integers(QMIN, QMAX))
    m = 2.0 ** -np.array(shifts, dtype=np.float64)
    limit = np.array([rescale_limit(mi, zp) for mi in np.broadcast_to(m, o)])
    assume((limit > 0).all())
    total = np.array([data.draw(st.integers(0, v - 1)) for v in limit])
    bias = np.array([data.draw(st.integers(-v, v)) for v in total])
    bound = total - np.abs(bias)
    acc = accumulators(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), bound,
                       (data.draw(st.integers(1, 3)), o, 2, 3))
    lo = data.draw(st.sampled_from([QMIN, zp]))
    mult = m if len(m) > 1 else float(m[0])
    f32, ran_float64 = rescale_ran_float64(acc, mult, 1.0, zp, bias=bias, bound=bound, lo=lo)
    assert not ran_float64
    f64, ran_float64 = rescale_ran_float64(acc, mult, 1.0, zp, bias=bias, lo=lo)  # no bound
    assert ran_float64
    assert np.array_equal(f32, f64)


@pytest.mark.parametrize("zp", [-100, -3, 0, 40, 120])
def test_a_fused_relu_is_the_clip_lower_bound(zp):
    # on both paths: clip(v, zp, QMAX) == maximum(clip(v, QMIN, QMAX), zp)
    rng = np.random.default_rng(zp - QMIN)
    bound = np.full(3, 2**16)
    acc = accumulators(rng, bound, (4, 3, 6, 6))
    bias = rng.integers(-2**10, 2**10, size=3).astype(np.int32)
    for given_bound, float64 in ((bound, False), (None, True)):
        fused, ran_float64 = rescale_ran_float64(acc, 2.0**-10, 1.0, zp, bias=bias,
                                                 bound=given_bound, lo=zp)
        plain, _ = rescale_ran_float64(acc, 2.0**-10, 1.0, zp, bias=bias, bound=given_bound)
        assert ran_float64 == float64
        assert (plain < zp).any() and np.array_equal(fused, np.maximum(plain, zp))


def test_a_multiplier_that_is_not_a_power_of_two_runs_in_float64():
    # far inside the bound, but 3 * 2**-10 rounds: per tensor, and as one
    # channel of three
    bound = np.full(3, 100)
    acc = accumulators(np.random.default_rng(3), bound, (2, 3, 4, 4))
    for m in (3 * 2.0**-10, np.array([2.0**-10, 3 * 2.0**-10, 2.0**-9])):
        got, ran_float64 = rescale_ran_float64(acc, m, 1.0, 5, bound=bound)
        assert ran_float64
        want = requantize_int64(acc, multiplier=np.reshape(m, (1, -1, 1, 1)), zero_point=5)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("d,in_float32", [(15, True), (16, False)])
def test_add_runs_in_float32_only_inside_the_bound(d, in_float32):
    # ratios 1 and 2**-d, every zero point at the widest reach: the bound
    # 255 + 255 * 2**-d + 128.5 against the unit 2**-d times 2**24
    assert (255 + 255 * 2.0**-d + 128.5 < 2.0**(24 - d)) == in_float32
    xa, xb = (v.reshape(1, -1) for v in np.meshgrid(_EXTREMES, _EXTREMES))
    node = Node("a", "add", ["ta", "tb"], "to")
    qg = QuantizedGraph(Graph("add", [node], {}, (1, 1, xa.shape[1]), xa.shape[1]), int_cfg(),
                        {"ta": QuantParams(2.0**-10, QMIN), "tb": QuantParams(2.0**(-10 - d), QMIN),
                         "to": QuantParams(2.0**-10, QMIN)}, {})
    with mock.patch.object(intexec, "_requantize", wraps=intexec._requantize) as f64:
        got = intexec._lower(qg, node)([xa, xb])
    assert f64.called != in_float32
    assert np.array_equal(got, add_int64(xa, QMIN, -10, xb, QMIN, -10 - d, QMIN, -10))


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
    acc = _accumulator(node, ZX, w)(x)
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
    acc = _accumulator(node, zx, w)(x)
    assert acc.dtype == (np.float32 if bound < 2**24 else np.float64)
    assert acc.flags.c_contiguous
    assert np.array_equal(acc, conv_oracle(kind, x, zx, w, stride, pad))


@st.composite
def conv_layers(draw):
    """A conv2d, pointwise or depthwise layer on int8 codes and its batch of
    one to seven images."""
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
    return kind, x, zx, w, stride, pad


@settings(max_examples=150, deadline=None)
@given(conv_layers())
@example(("conv2d", np.full((3, 16, 5, 5), 127, dtype=np.float32), -128,
          np.full((2, 16, 5, 5), -255.0), 1, 0))  # bound 26,010,000
@example(("conv2d", np.full((3, 8, 5, 5), 127, dtype=np.float32), -128,
          np.full((2, 8, 5, 5), -255.0), 2, 1))   # bound 13,005,000
def test_conv_kernels_on_codes_match_scalar_oracles(layer):
    check_conv(*layer)


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
    cache = calibrate(g, d.calib_images, size_class="S1")
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
    assert [t for t, _ in seen] == [INPUT_TENSOR] + [n.output for n in qg.graph.nodes]
    codes = {t: v for t, v in seen if t in qg.act_params}
    assert set(codes) == set(qg.act_params)
    for t, v in codes.items():
        assert np.array_equal(v, np.round(v)), t
        assert -128 <= v.min() and v.max() <= 127, t


# ------------------------------------------------------------------- fusion

def test_fusion_drops_one_node_per_relu_and_keeps_logits(lenet, lenet_cache_s2, ds):
    qg = quantize_model(lenet, lenet_cache_s2, cfg())
    fused = quantize_model(lenet, lenet_cache_s2, cfg(fusion=True))
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
    qg = quantize_model(g, cache, cfg(fusion=True))
    assert qg.graph.nodes == g.nodes and not qg.fused


def paired_relu_graph(shared: str) -> Graph:
    """conv c0 feeds a relu plus an add (``shared="add"``) or two relus
    (``shared="relus"``); conv c1 feeds a sole relu."""
    rng = np.random.default_rng(4)

    def weight(*shape, std):
        return (std * rng.standard_normal(shape)).astype(np.float32)

    head = [Node("c0", "conv2d", [INPUT_TENSOR, "w0", "b0"], "t_c0", {"stride": 1, "padding": 1}),
            Node("r0", "relu", ["t_c0"], "t_r0")]
    if shared == "add":
        head.append(Node("s", "add", ["t_r0", "t_c0"], "t_s"))
    else:
        head += [Node("r0b", "relu", ["t_c0"], "t_r0b"),
                 Node("s", "add", ["t_r0", "t_r0b"], "t_s")]
    g = Graph(f"paired-{shared}", head + [
        Node("c1", "conv2d", ["t_s", "w1", "b1"], "t_c1", {"stride": 1, "padding": 1}),
        Node("r1", "relu", ["t_c1"], "t_r1"),
        Node("mp", "maxpool", ["t_r1"], "t_mp", {"kernel": 4, "stride": 4}),
        Node("fc", "fully_connected", ["t_mp", "wfc"], "t_fc"),
    ], weights={"w0": weight(8, 3, 3, 3, std=0.3), "b0": weight(8, std=0.1),
                "w1": weight(8, 8, 3, 3, std=0.2), "b1": weight(8, std=0.1),
                "wfc": weight(10, 8 * 8 * 8, std=0.05)},
        input_shape=(3, 32, 32), output_classes=10)
    validate(g)
    return g


@pytest.mark.parametrize("shared", ["add", "relus"])
def test_only_a_sole_relu_narrows_and_fuses(shared, ds):
    g = paired_relu_graph(shared)
    nodes = {n.id: n for n in g.nodes}
    assert g.sole_relu("t_c0") is None
    assert g.sole_relu("t_c1") is nodes["r1"]
    assert g.sole_relu("t_s") is None and g.sole_relu("t_fc") is None
    cache = build_cache(g, ds, "S2", seed=0)

    def params_from(t):
        p = params_for_range(Scheme.Asymmetric, *clipped_range(cache.histograms[t], "Max"))
        return float(p.scale), int(p.zero_point)

    qg = quantize_model(g, cache, cfg())
    got = {t: (float(p.scale), int(p.zero_point)) for t, p in qg.act_params.items()}
    assert params_from("t_c0") != params_from("t_r0")  # narrowing would show
    assert got["t_c0"] == params_from("t_c0")
    assert got["t_c1"] == params_from("t_r1") != params_from("t_c1")
    assert qg.act_params["t_r1"] is qg.act_params["t_c1"]

    fused = quantize_model(g, cache, cfg(fusion=True))
    by_id = {n.id: n for n in fused.graph.nodes}
    assert [n.id for n in fused.graph.nodes if n.attrs.get("fused_relu")] == ["c1"]
    assert by_id["c1"].output == "t_r1" and "r1" not in by_id
    assert by_id["c0"].output == "t_c0" and "r0" in by_id
    for scheme in (Scheme.Asymmetric, Scheme.SymmetricUint8):
        a = run_quantized(quantize_model(g, cache, cfg(scheme=scheme)), ds.eval_images[:16])
        b = run_quantized(quantize_model(g, cache, cfg(scheme=scheme, fusion=True)),
                          ds.eval_images[:16])
        assert np.array_equal(a, b), scheme


# --------------------------------------------------------- config-free memo

def first_last(**kw):
    return cfg(mixed="FirstLastFp32", **kw)


def memo_graph() -> Graph:
    """A maxpool on the raw input, then two weighted layers.  Under
    FirstLastFp32 both layers run in fp32, and the second reads the first
    layer's boundary codes."""
    rng = np.random.default_rng(6)
    g = Graph("memo", [
        Node("m", "maxpool", [INPUT_TENSOR], "t_m", {"kernel": 2, "stride": 2}),
        Node("c0", "conv2d", ["t_m", "w0", "b0"], "t_c0", {"stride": 1, "padding": 1}),
        Node("fc", "fully_connected", ["t_c0", "wfc"], "t_fc"),
    ], weights={"w0": (0.3 * rng.standard_normal((4, 3, 3, 3))).astype(np.float32),
                "b0": (0.1 * rng.standard_normal(4)).astype(np.float32),
                "wfc": (0.05 * rng.standard_normal((10, 4 * 16 * 16))).astype(np.float32)},
        input_shape=(3, 32, 32), output_classes=10)
    validate(g)
    return g


def test_a_memo_computes_the_config_free_prefix_once_and_serves_it_read_only(ds):
    g = memo_graph()
    cache = build_cache(g, ds, "S2", seed=0)
    images = ds.eval_images[:16]
    memo = {}
    ran = []
    kernel = intexec._float_node

    def counted(node, xs, weights, **kw):
        ran.append(node.id)
        return kernel(node, xs, weights, **kw)

    # the two configs give the boundary t_c0 different params
    for c in (first_last(), first_last(scheme=Scheme.SymmetricUint8, clipping="KL")):
        qg = quantize_model(g, cache, c)
        want = run_quantized(qg, images)
        seen = {}
        with mock.patch.object(intexec, "_float_node", counted):
            got = run_quantized(qg, images, memo=memo, sink=seen.__setitem__)
        assert got.tobytes() == want.tobytes()
    # the maxpool and conv values are config-free; fc reads the boundary codes
    assert ran == ["m", "c0", "fc", "fc"]
    assert set(memo) == {"t_m", "t_c0"}
    assert seen["t_m"] is memo["t_m"]
    with pytest.raises(ValueError, match="read-only"):
        seen["t_m"] += 1


def test_a_memo_leaves_first_last_fp32_outputs_byte_equal(resnet, resnet_cache_s2, ds):
    images = ds.eval_images[:40]
    memo = {}
    for c in (first_last(), first_last(scheme=Scheme.Symmetric, clipping="KL",
                                       granularity="Channel")):
        qg = quantize_model(resnet, resnet_cache_s2, c)
        want = run_quantized(qg, images)
        for _ in range(2):  # with an empty memo, then with a stored entry
            assert run_quantized(qg, images, memo=memo).tobytes() == want.tobytes(), c


@pytest.mark.parametrize("preset", ["lenet", "resnet", "mobile"])
def test_the_memo_holds_the_first_layers_fp32_output_per_fused_flag(preset, request, ds):
    g = request.getfixturevalue(preset)
    cache = request.getfixturevalue(f"{preset}_cache_s2")
    first = g.compute_nodes()[0]
    memo = {}
    for c in (cfg(), first_last(), first_last(fusion=True), first_last(granularity="Channel")):
        run_quantized(quantize_model(g, cache, c), ds.eval_images[:4], memo=memo)
    # one entry without fusion, one with the first layer fused with its
    # relu, and none for a graph whose input is quantized
    assert set(memo) == {first.output, g.sole_relu(first.output).output}
    for out in memo.values():
        with pytest.raises(ValueError, match="read-only"):
            out[0] = 0


def counting_float_node(ran):
    """``intexec._float_node`` that appends (node id, images) to ``ran``."""
    kernel = intexec._float_node

    def counted(node, xs, weights):
        ran.append((node.id, len(xs[0])))
        return kernel(node, xs, weights)
    return counted


def test_filling_the_memo_runs_fp32_layers_on_the_walks_blocks(lenet, lenet_cache_s2, ds):
    """No fp32 tensor is computed outside the walk: with one image per
    block, the config-free first layer runs one image at a time."""
    qg = quantize_model(lenet, lenet_cache_s2, first_last())
    images = ds.eval_images[:6]
    want = run_quantized(qg, images)
    memo, ran = {}, []
    with mock.patch.object(fp32, "_BLOCK", 1), \
            mock.patch.object(intexec, "_float_node", counting_float_node(ran)):
        got = run_quantized(qg, images, memo=memo)
    assert got.tobytes() == want.tobytes()
    assert list(memo) == [lenet.compute_nodes()[0].output]
    assert ran and max(n for _, n in ran) == 1


@pytest.mark.parametrize("order", [(False, True), (True, False)], ids=["unfused-first",
                                                                       "fused-first"])
def test_fused_and_unfused_first_last_fp32_share_the_relus_entry(order, ds):
    """One weighted layer is both first and last, so the whole graph stays
    in fp32 and is config-free.  The fused conv writes the relu's tensor
    with the relu's values, so whichever config runs second serves it, and
    every block of a config-free tensor is read-only."""
    g = generate_fixture("conv+relu", seed=1)
    conv, relu = g.nodes
    cache = build_cache(g, ds, "S2", seed=0)
    images = ds.eval_images[:7]
    memo = {}
    for i, fusion in enumerate(order):
        qg = quantize_model(g, cache, first_last(fusion=fusion))
        want = run_quantized(qg, images)
        ran, seen = [], []
        with mock.patch.object(fp32, "_BLOCK", 3 * block_elements(qg.graph)), \
                mock.patch.object(intexec, "_float_node", counting_float_node(ran)):
            got = run_quantized(qg, images, memo=memo,
                                sink=lambda t, v: seen.append((t, v.flags.writeable)))
        assert got.tobytes() == want.tobytes(), fusion
        assert not any(w for t, w in seen if t != INPUT_TENSOR)
        if i == 0:
            entry = memo[relu.output]
    assert set(memo) == {conv.output, relu.output} and memo[relu.output] is entry
    # second: the fused conv is served whole, or the unfused conv computes
    # its own tensor in 3 blocks and the relu is served
    assert [n for n, _ in ran] == ([] if order[1] else ["conv0"] * 3)
    assert not any(out.flags.writeable for out in memo.values())


def test_a_walk_that_raises_stores_nothing_in_the_memo(resnet, resnet_cache_s2, ds):
    qg = quantize_model(resnet, resnet_cache_s2, first_last())
    images = ds.eval_images[:7]
    want = run_quantized(qg, images)
    memo, blocks = {}, []

    def sink(tensor, values):
        if tensor == INPUT_TENSOR:
            blocks.append(values)
            if len(blocks) == 2:
                raise RuntimeError("stop at the second block")
    with mock.patch.object(fp32, "_BLOCK", 3 * block_elements(resnet)):
        with pytest.raises(RuntimeError, match="second block"):
            run_quantized(qg, images, memo=memo, sink=sink)
        assert memo == {}
        assert run_quantized(qg, images, memo=memo).tobytes() == want.tobytes()
    assert list(memo) == ["t_conv0"]
    assert run_quantized(qg, images, memo=memo).tobytes() == want.tobytes()


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


def test_integer_only_rejects_a_scale_that_is_not_a_power_of_two(lenet, lenet_cache_s2, ds):
    # an Asymmetric graph relabelled SymmetricPower2 passes the config pins;
    # its scales fail, before any node runs
    asym = quantize_model(lenet, lenet_cache_s2, cfg())
    relabelled = replace(asym, config=int_cfg())
    with pytest.raises(IntegerOnlyError, match=rf"^tensor {INPUT_TENSOR}: scale \S+ is not "
                       r"a power of two$"):
        check_integer_only(relabelled)
    with mock.patch.object(intexec, "_lower", side_effect=AssertionError("node ran")):
        with pytest.raises(IntegerOnlyError, match=f"^tensor {INPUT_TENSOR}: "):
            run_integer_only(relabelled, ds.eval_images[:4])
    qg = quantize_model(lenet, lenet_cache_s2, int_cfg())
    wid = lenet.compute_nodes()[-1].weight_id
    with pytest.raises(IntegerOnlyError, match=rf"^weight {wid}: scale 0.3 is not a power of two$"):
        check_integer_only(replace(qg, weight_params={**qg.weight_params,
                                                      wid: QuantParams(0.3, 0)}))


def test_codes_of_an_fp32_output_are_refused_before_any_node_runs(lenet, lenet_cache_s2, ds):
    qg = quantize_model(lenet, lenet_cache_s2, first_last())
    assert lenet.output_tensor() not in qg.act_params
    with mock.patch.object(intexec, "_lower", side_effect=AssertionError("node ran")), \
            mock.patch.object(intexec, "_float_step", side_effect=AssertionError("node ran")):
        with pytest.raises(ValueError, match="^graph output is fp32; no codes to return$"):
            run_quantized(qg, ds.eval_images[:4], return_codes=True)


def test_every_executor_rejects_an_empty_batch(lenet, lenet_cache_s2, ds):
    qg = quantize_model(lenet, lenet_cache_s2, int_cfg())
    empty = ds.eval_images[:0]
    for run in (lambda: run_fp32(lenet, empty), lambda: run_quantized(qg, empty),
                lambda: run_integer_only(qg, empty)):
        with pytest.raises(ValueError, match="empty batch"):
            run()


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
@given(g=recipes())
def test_integer_path_is_bitwise_equal_on_generated_recipes(ds, g):
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


def every_step_graph():
    """conv+bias -> sole relu (fused) -> maxpool -> relu -> pointwise (no bias)
    -> add -> three-input concat -> avgpool -> fc+bias -> add -> softmax."""
    rng = np.random.default_rng(6)

    def weight(*shape):
        return (0.2 * rng.standard_normal(shape)).astype(np.float32)

    g = Graph("every-step", [
        Node("c0", "conv2d", [INPUT_TENSOR, "w0", "b0"], "t_c0", {"stride": 1, "padding": 1}),
        Node("r0", "relu", ["t_c0"], "t_r0"),
        Node("mp", "maxpool", ["t_r0"], "t_mp", {"kernel": 2, "stride": 2}),
        Node("r1", "relu", ["t_mp"], "t_r1"),
        Node("pw", "pointwise_conv2d", ["t_r1", "w1"], "t_pw"),
        Node("s", "add", ["t_r1", "t_pw"], "t_s"),
        Node("cat", "concat", ["t_r1", "t_pw", "t_s"], "t_cat"),
        Node("ap", "avgpool", ["t_cat"], "t_ap", {"kernel": 2, "stride": 2}),
        Node("fc", "fully_connected", ["t_ap", "wfc", "bfc"], "t_fc"),
        Node("d", "add", ["t_fc", "t_fc"], "t_d"),
        Node("sm", "softmax", ["t_d"], "t_sm"),
    ], weights={"w0": weight(4, 3, 3, 3), "b0": weight(4), "w1": weight(4, 4, 1, 1),
                "wfc": weight(10, 12 * 8 * 8), "bfc": weight(10)},
        input_shape=(3, 32, 32), output_classes=10)
    validate(g)
    return g


def test_trace_names_every_step_on_both_label_sets(ds):
    g = every_step_graph()
    cache = build_cache(g, ds, "S2", seed=0)
    images = ds.eval_images[:2]

    def expected(integer_only, mixed):
        rescale = (["int_add", "shift", "clamp"] if integer_only
                   else ["int_add", "float_mul", "round", "clamp"])
        add = (["int_add", "shift"] * 3 + ["clamp"] if integer_only
               else ["int_add", "float_mul"] * 2 + ["float_add", "round", "int_add", "clamp"])
        middle = [("r1", ["clamp"]), ("pw", ["int_mul", "int_add", *rescale]), ("s", add),
                  ("cat", rescale * 3), ("ap", rescale)]
        if mixed:  # c0 and fc in fp32: c0 quantizes at its output, fc dequantizes its input
            head = [("c0", ["float_kernel", "clamp", "float_mul", "round", "int_add", "clamp"])]
            tail = [("fc", ["int_add", "float_mul", "float_kernel"]), ("d", ["float_add"]),
                    ("sm", ["float_add", "float_mul"])]
        else:
            head = [("c0", ["int_mul", "int_add", "int_add", *rescale, "clamp"])]
            tail = [("fc", ["int_mul", "int_add", "int_add", *rescale]), ("d", add)]
        return [(n, c) for n, cats in head + middle + tail for c in cats]

    qg = quantize_model(g, cache, int_cfg(fusion=True))
    assert [n.id for n in qg.graph.nodes if n.attrs.get("fused_relu")] == ["c0"]
    sim, integer = OpTrace(), OpTrace()
    run_quantized(qg, images, trace=sim)
    run_integer_only(qg, images, trace=integer)
    assert sim.events == expected(integer_only=False, mixed=False)
    assert integer.events == expected(integer_only=True, mixed=False)

    mixed = quantize_model(g, cache, int_cfg(fusion=True, mixed="FirstLastFp32"))
    assert mixed.fp32_nodes == {"c0", "fc"}
    trace = OpTrace()
    run_quantized(mixed, images, trace=trace)
    assert trace.events == expected(integer_only=False, mixed=True)
    # the integer labels of a graph no integer-only run accepts
    labels = [(n.id, c) for n in mixed.graph.nodes for c in intexec._events(mixed, n, True)]
    assert labels == expected(integer_only=True, mixed=True)

    # a walk that raises partway leaves the caller's trace as it was
    def fail_at_cat(t, _values):
        if t == "t_cat":
            raise RuntimeError("sink")

    trace = OpTrace()
    with pytest.raises(RuntimeError, match="sink"):
        run_quantized(qg, images, trace=trace, sink=fail_at_cat)
    assert trace.events == []


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


# ------------------------------------------------------------ reference walk

# every Generic and IntegerOnly config, except those on the 256-image S3 cache
REFERENCE_CONFIGS = [c for c in enumerate_space(GENERIC) + enumerate_space(INTEGER_ONLY)
                     if c.cache != "S3"]


def assert_matches_the_reference_walk(g, ds, configs, images):
    """``configs`` in order through one memo, as a campaign's evaluator runs
    them: the output equals ``run_reference``'s byte for byte, and so do
    the integer-only codes."""
    caches = {c: build_cache(g, ds, c, seed=0) for c in {c.cache for c in configs}}
    memo = {}
    for c in configs:
        qg = quantize_model(g, caches[c.cache], c)
        want = run_reference(qg, images)
        codes = g.output_tensor() in qg.act_params
        got = run_quantized(qg, images, return_codes=codes, memo=memo)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), c
        if INTEGER_ONLY.contains(c):
            assert run_integer_only(qg, images).tobytes() == want.tobytes(), c


@pytest.mark.parametrize("name", ["lenet", "resnet", "mobile", "concat", "recipe"])
def test_every_s2_config_matches_the_int64_reference_walk(name, request, ds):
    """Every Generic and IntegerOnly config on the S2 cache, in enumeration
    order."""
    if name == "concat":
        g = concat_graph()
    elif name == "recipe":
        g = generate_fixture("conv+relu+maxpool+dwconv+relu+pwconv+avgpool+fc", seed=1)
    else:
        g = request.getfixturevalue(name)
    configs = [c for c in REFERENCE_CONFIGS if c.cache == "S2"]
    assert_matches_the_reference_walk(g, ds, configs, ds.eval_images[:16])


def test_tap_reduce_folds_a_copy_in_its_input_memory_order(ds):
    """The pooling tap fold on a recipe's avgpool input codes, as NCHW and
    as an NHWC-backed view (the layout of an fp32 conv output): the fold
    keeps the input's memory order and never writes into it, maxpool and
    the code-step avgpool included, and that avgpool gives the codes of
    the int64 reference walk."""
    g = generate_fixture("conv+relu+maxpool+dwconv+relu+pwconv+avgpool+fc", seed=1)
    qg = quantize_model(g, build_cache(g, ds, "S2", seed=0), cfg())
    nodes = qg.graph.nodes
    i = next(i for i, n in enumerate(nodes) if n.kind == "avgpool")
    head = replace(qg, graph=replace(qg.graph, nodes=nodes[:i + 1]))  # ends at the avgpool
    images = ds.eval_images[:4]
    blocks = []

    def keep(t, v):
        if t == nodes[i].data_inputs[0]:
            blocks.append(v.copy())
    run_quantized(head, images, sink=keep)
    x = np.concatenate(blocks)
    want = run_reference(head, images)
    k, s = pool_args(nodes[i])
    step = intexec._lower(head, nodes[i])

    def order(a):  # axes from the slowest-varying to the fastest in memory
        return tuple(np.argsort(a.strides)[::-1])

    nhwc = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    assert order(x) == (0, 1, 2, 3) and order(nhwc) == (0, 2, 3, 1)
    for a in (x, nhwc):
        before = a.copy()
        windows = fp32._windows(a, k, k, s, 0)
        total = fp32._tap_reduce(a, k, s, np.add, np.float64)
        assert total.dtype == np.float64 and order(total) == order(a)
        assert np.array_equal(total, windows.sum(axis=(-2, -1), dtype=np.float64))
        pooled = fp32.maxpool(a, k, s)
        assert order(pooled) == order(a)
        assert np.array_equal(pooled, windows.max(axis=(-2, -1)))
        assert np.array_equal(step([a]).astype(np.int8), want)
        assert np.array_equal(a, before)


@settings(deadline=None, max_examples=60)
@given(g=recipes(), configs=st.lists(st.sampled_from(REFERENCE_CONFIGS), min_size=1,
                                     max_size=6, unique=True))
def test_drawn_recipes_match_the_int64_reference_walk(ds, g, configs):
    """Drawn configs of a drawn recipe, on its S1 or S2 cache."""
    assert_matches_the_reference_walk(g, ds, configs, ds.eval_images[:8])


@settings(deadline=None, max_examples=30)
@given(g=recipes(), configs=st.lists(st.sampled_from(REFERENCE_CONFIGS), min_size=1,
                                     max_size=4, unique=True))
@example(g=generate_fixture("conv+relu+fc", seed=1), configs=[first_last()])
def test_a_batch_equals_its_one_image_runs(ds, g, configs):
    """Batch invariance, fp32 layers included: a batch's logits, its codes
    and its integer-only codes are the concatenation of one-image runs,
    byte for byte."""
    images = ds.eval_images[:5]
    caches = {c: build_cache(g, ds, c, seed=0) for c in {c.cache for c in configs}}
    for c in configs:
        qg = quantize_model(g, caches[c.cache], c)
        runs = [lambda x: run_quantized(qg, x)]
        if g.output_tensor() in qg.act_params:
            runs.append(lambda x: run_quantized(qg, x, return_codes=True))
        if INTEGER_ONLY.contains(c):
            runs.append(lambda x: run_integer_only(qg, x))
        for run in runs:
            want = np.concatenate([run(x) for x in images])
            assert run(images).tobytes() == want.tobytes(), c


# ------------------------------------------------------------- image blocks

@pytest.mark.parametrize("name", ["lenet", "resnet", "mobile", "concat"])
def test_image_blocks_give_the_one_block_bytes(name, request, ds):
    """7 images in 1-image blocks, then in 3-image blocks (a ragged last
    block), equal the one-block run byte for byte: logits, codes, with and
    without a memo, and integer-only."""
    g = concat_graph() if name == "concat" else request.getfixturevalue(name)
    cache = build_cache(g, ds, "S2", seed=0)
    images = ds.eval_images[:7]
    for c in (cfg(), first_last(), first_last(scheme=Scheme.Symmetric, fusion=True,
                                              granularity="Channel"), int_cfg()):
        qg = quantize_model(g, cache, c)
        codes = g.output_tensor() in qg.act_params
        integer = INTEGER_ONLY.contains(c)

        def outputs():
            memo = {}
            runs = [run_quantized(qg, images), run_quantized(qg, images, memo=memo),
                    run_quantized(qg, images, memo=memo)]
            if codes:
                runs.append(run_quantized(qg, images, return_codes=True))
            if integer:
                runs.append(run_integer_only(qg, images))
            return [r.tobytes() for r in runs]

        with mock.patch.object(fp32, "_BLOCK", 1 << 40):
            want = outputs()
        e = block_elements(g)
        assert 7 * e < 1 << 40
        for block in (1, 3 * e):
            with mock.patch.object(fp32, "_BLOCK", block):
                assert outputs() == want, (c, block)


@pytest.mark.parametrize("name", ["lenet", "resnet", "mobile", "concat"])
def test_static_work_is_lowered_once_per_walk(name, request, ds):
    """A walk in 1-image blocks makes as many weight bounds and dtype
    decisions as a walk in one block: none of it is redone per block."""
    g = concat_graph() if name == "concat" else request.getfixturevalue(name)
    cache = build_cache(g, ds, "S2", seed=0)
    images = ds.eval_images[:7]
    for c in (cfg(), first_last(), int_cfg()):
        qg = quantize_model(g, cache, c)
        calls = []
        for block in (1, 1 << 40):
            with mock.patch.object(fp32, "_BLOCK", block), \
                    mock.patch.object(intexec, "_float32_exact",
                                      wraps=intexec._float32_exact) as exact, \
                    mock.patch.object(intexec, "_tap_bound", wraps=intexec._tap_bound) as bound:
                run_quantized(qg, images)
            calls.append((exact.call_count, bound.call_count))
        assert calls[0] == calls[1] and min(calls[0]) > 0, (c, calls)


def input_skip_graph() -> Graph:
    """conv c0 on the input, conv c1, then an add of c1's output and the
    input itself, then fc."""
    rng = np.random.default_rng(7)

    def weight(*shape):
        return (0.2 * rng.standard_normal(shape)).astype(np.float32)

    g = Graph("input-skip", [
        Node("c0", "conv2d", [INPUT_TENSOR, "w0", "b0"], "t_c0", {"stride": 1, "padding": 1}),
        Node("c1", "conv2d", ["t_c0", "w1", "b1"], "t_c1", {"stride": 1, "padding": 1}),
        Node("s", "add", ["t_c1", INPUT_TENSOR], "t_s"),
        Node("fc", "fully_connected", ["t_s", "wfc"], "t_fc"),
    ], weights={"w0": weight(3, 3, 3, 3), "b0": weight(3), "w1": weight(3, 3, 3, 3),
                "b1": weight(3), "wfc": weight(10, 3 * 32 * 32)},
        input_shape=(3, 32, 32), output_classes=10)
    validate(g)
    return g


@pytest.mark.parametrize("in_float", [("c1",), ("c0", "c1")], ids=["c1", "c0+c1"])
def test_input_codes_reach_every_reader_from_any_first_run(in_float, ds):
    """A hand-made graph with its input quantized keeps the layers
    ``in_float`` in fp32: the input codes are read after a run in float,
    and, when c0 is in float too, first by that run.  Every block size
    gives the int64 reference walk's bytes."""
    g = input_skip_graph()
    qg = quantize_model(g, build_cache(g, ds, "S2", seed=0), cfg())
    floats = {t for n in g.nodes if n.id in in_float for t in n.inputs[1:]}
    qg = replace(qg, graph=replace(qg.graph, weights={**qg.graph.weights,
                                                      **{t: g.weights[t] for t in floats}}),
                 weight_params={t: p for t, p in qg.weight_params.items() if t not in floats})
    assert qg.fp32_nodes == set(in_float) and INPUT_TENSOR in qg.act_params
    images = ds.eval_images[:7]
    want = run_reference(qg, images)
    for block in (1, 1 << 40):
        with mock.patch.object(fp32, "_BLOCK", block):
            assert run_quantized(qg, images, return_codes=True).tobytes() == want.tobytes()


def test_a_single_image_equals_a_batch_of_one(lenet, lenet_cache_s2, ds):
    """A (C,H,W) image runs as a batch of one, and that is row 0 of a
    batch: the batch size sets no bits, fp32 layers included."""
    images = ds.eval_images[:5]
    for c in (cfg(), first_last(), int_cfg()):
        qg = quantize_model(lenet, lenet_cache_s2, c)
        one = run_quantized(qg, images[0])
        assert one.shape == (1, 10) and one.tobytes() == run_quantized(qg, images[:1]).tobytes()
        assert one.tobytes() == run_quantized(qg, images)[:1].tobytes(), c
        if INTEGER_ONLY.contains(c):
            assert run_integer_only(qg, images[0]).tobytes() == \
                run_integer_only(qg, images)[:1].tobytes()
