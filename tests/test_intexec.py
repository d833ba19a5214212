import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import round_half_up
from ptqtune import (GraphError, IntegerOnlyError, OpTrace, QuantConfig, Scheme,
                     build_cache, check_integer_only, enumerate_space,
                     evaluate_quantized, evaluate_top1, fuse_conv_relu,
                     generate_fixture, quantize_model, requantize,
                     run_integer_only, run_quantized, validate)
from ptqtune.fixtures import _GRAMMAR_KINDS
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


def test_requantize_needs_exactly_one_of_multiplier_shift():
    with pytest.raises(ValueError):
        requantize(1)
    with pytest.raises(ValueError):
        requantize(1, multiplier=0.5, shift=1)


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
    run_quantized(qg, ds.eval_images[:4], sink=lambda t, v: seen.append(t))
    assert seen == [n.output for n in qg.graph.nodes]


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
