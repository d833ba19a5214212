import math
from dataclasses import replace

import numpy as np
import pytest

from ptqtune import (Graph, GraphError, Node, QuantConfig, Scheme, calibrate,
                     dequantize_array, generate_fixture, load_quantized, model_size,
                     quantize_model, quantize_weights, save_quantized)


def cfg(**kw):
    base = dict(cache="S2", scheme=Scheme.Asymmetric, clipping="Max",
                granularity="Tensor", mixed="Off", fusion=False)
    base.update(kw)
    return QuantConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        QuantConfig(cache="S4")
    with pytest.raises(ValueError):
        QuantConfig(clipping="percentile")
    with pytest.raises(ValueError):
        QuantConfig(granularity="Row")
    with pytest.raises(ValueError):
        QuantConfig(mixed="AllFp16")
    c = QuantConfig(scheme="Symmetric")  # string coerced to enum
    assert c.scheme is Scheme.Symmetric
    assert QuantConfig.from_dict(c.to_dict()) == c


@pytest.mark.parametrize("value", [1, 0, "false", np.bool_(True)])
def test_config_values_match_by_type(value):
    # 1 == True and np.bool_(True) == True, but neither is the flag itself
    with pytest.raises(ValueError, match="bad fusion"):
        QuantConfig(fusion=value)
    with pytest.raises(ValueError, match="bad fusion"):
        QuantConfig.from_dict({**QuantConfig().to_dict(), "fusion": value})


def test_load_rejects_a_config_whose_fusion_is_not_a_bool(tmp_path, lenet, lenet_cache_s2):
    def tamper(header, buffers):
        header["config"]["fusion"] = "false"

    with pytest.raises(ValueError, match="bad fusion 'false'"):
        load_quantized(_tampered(tmp_path, quantize_model(lenet, lenet_cache_s2, cfg()), tamper))


@pytest.mark.parametrize("node, attr, value", [
    ("conv0", "stride", 1.5), ("conv3", "padding", "0"), ("maxp2", "kernel", 2.5),
    ("conv0", "fused_relu", "no"), ("maxp2", "fused_relu", False),
], ids=["stride-float", "padding-str", "kernel-float", "fused-str", "fused-on-maxpool"])
def test_load_rejects_node_attributes_of_the_wrong_type(tmp_path, lenet, lenet_cache_s2,
                                                        node, attr, value):
    def tamper(header, buffers):
        next(n for n in header["nodes"] if n["id"] == node)["attrs"][attr] = value

    qg = quantize_model(lenet, lenet_cache_s2, cfg(fusion=True))
    with pytest.raises(GraphError, match=f"^node {node}: {attr} "):
        load_quantized(_tampered(tmp_path, qg, tamper))


@pytest.mark.parametrize("granularity", ["Tensor", "Channel"])
def test_weights_whose_scale_underflows_round_trip(tmp_path, lenet, lenet_cache_s2, granularity):
    # every fp32 weight scale of the first conv rounds to 0; the degenerate
    # rule stores scale 1.0, which the loader accepts
    w = lenet.compute_nodes()[0].weight_id
    tiny = replace(lenet, weights={**lenet.weights, w: lenet.weights[w] * np.float32(1e-44)})
    for scheme in Scheme:
        qg = quantize_model(tiny, lenet_cache_s2, cfg(scheme=scheme, granularity=granularity))
        assert (np.asarray(qg.weight_params[w].scale) == 1.0).all()
        path = str(tmp_path / f"{scheme.value}.qtm8")
        save_quantized(qg, path)
        assert np.array_equal(load_quantized(path).weight_params[w].scale,
                              qg.weight_params[w].scale)


def test_per_channel_beats_per_tensor_on_small_channel():
    rng = np.random.default_rng(2)
    w = np.stack([rng.uniform(-1, 1, (3, 3, 3)),
                  rng.uniform(-100, 100, (3, 3, 3))]).astype(np.float32)
    ct, pt = quantize_weights(w, Scheme.Symmetric, "Tensor")
    cc, pc = quantize_weights(w, Scheme.Symmetric, "Channel")
    mse_t = float(np.mean((dequantize_array(ct, pt)[0] - w[0]) ** 2))
    mse_c = float(np.mean((dequantize_array(cc, pc)[0] - w[0]) ** 2))
    assert mse_c < mse_t / 100  # small channel no longer shares the big scale


def test_channel_granularity_yields_one_param_pair_per_output_channel():
    w = np.random.default_rng(0).standard_normal((16, 4, 3, 3)).astype(np.float32)
    _, p = quantize_weights(w, Scheme.Asymmetric, "Channel")
    assert p.axis == 0
    assert np.atleast_1d(p.scale).shape == (16,)
    assert np.atleast_1d(p.zero_point).shape == (16,)


def test_all_zero_weights_quantize_to_zero_codes():
    w = np.zeros((4, 2, 3, 3), dtype=np.float32)
    for scheme in Scheme:
        for gran in ("Tensor", "Channel"):
            codes, p = quantize_weights(w, scheme, gran)
            # the scheme's zero code is its zero point
            assert (codes == np.asarray(p.zero_point).reshape(-1, 1, 1, 1)).all()
            assert (dequantize_array(codes, p) == 0.0).all()


def test_quantized_graph_covers_all_tensors(lenet, lenet_cache_s2):
    qg = quantize_model(lenet, lenet_cache_s2, cfg())
    for node in lenet.compute_nodes():
        assert node.weight_id in qg.weight_params
        assert qg.graph.weights[node.weight_id].dtype == np.int8
        if node.bias_id:
            assert qg.graph.weights[node.bias_id].dtype == np.int32
    assert "input" in qg.act_params
    for node in lenet.nodes:
        assert node.output in qg.act_params


def test_conv_output_range_narrows_to_following_relu(lenet, lenet_cache_s2):
    qg = quantize_model(lenet, lenet_cache_s2, cfg())
    conv = lenet.compute_nodes()[0]
    relu = lenet.consumers(conv.output)[0]
    assert relu.kind == "relu"
    pc, pr = qg.act_params[conv.output], qg.act_params[relu.output]
    assert float(pc.scale) == float(pr.scale)
    assert int(pc.zero_point) == int(pr.zero_point) == -128  # min 0 range


def test_bias_quantized_at_input_times_weight_scale(lenet, lenet_cache_s2):
    qg = quantize_model(lenet, lenet_cache_s2, cfg(scheme=Scheme.Symmetric))
    conv = lenet.compute_nodes()[0]
    s_in = float(qg.act_params["input"].scale)
    s_w = float(qg.weight_params[conv.weight_id].scale)
    b = lenet.weights[conv.bias_id]
    bq = qg.graph.weights[conv.bias_id]
    assert np.abs(bq * (s_in * s_w) - b).max() <= (s_in * s_w) / 2 + 1e-9


def test_first_last_fp32_marks_exactly_first_and_last_weighted_layer(ds):
    g = generate_fixture("conv+relu+conv+relu+conv+relu+conv+relu+fc", seed=2)
    from ptqtune import build_cache
    cache = build_cache(g, ds, "S2", seed=0)
    qg = quantize_model(g, cache, cfg(mixed="FirstLastFp32"))
    compute = g.compute_nodes()
    assert qg.fp32_nodes == {compute[0].id, compute[-1].id}
    assert len(compute) == 5
    for n in compute[1:-1]:
        assert qg.graph.weights[n.weight_id].dtype == np.int8
    assert qg.graph.weights[compute[0].weight_id].dtype == np.float32
    assert qg.graph.weights[compute[-1].weight_id].dtype == np.float32


def test_power2_config_makes_every_scale_a_power_of_two(lenet, lenet_cache_s2):
    qg = quantize_model(lenet, lenet_cache_s2,
                        cfg(scheme=Scheme.SymmetricPower2, granularity="Channel"))
    everything = list(qg.act_params.values()) + list(qg.weight_params.values())
    for p in everything:
        for s in np.atleast_1d(p.scale):
            k = math.log2(float(s))
            assert k == int(k), f"scale {s} not a power of two"


def test_cache_model_mismatch_rejected(resnet, lenet_cache_s2):
    with pytest.raises(GraphError):
        quantize_model(resnet, lenet_cache_s2, cfg())


def test_round_trip_preserves_everything(tmp_path, lenet, lenet_cache_s2):
    qg = quantize_model(lenet, lenet_cache_s2,
                        cfg(scheme=Scheme.Asymmetric, granularity="Channel",
                            mixed="FirstLastFp32"))
    p = tmp_path / "m.qtm8"
    save_quantized(qg, str(p))
    q2 = load_quantized(str(p))
    assert q2.config == qg.config
    assert q2.fp32_nodes == qg.fp32_nodes
    assert set(q2.act_params) == set(qg.act_params)
    for t in qg.act_params:
        assert np.array_equal(np.atleast_1d(q2.act_params[t].scale),
                              np.atleast_1d(qg.act_params[t].scale))
        assert np.array_equal(np.atleast_1d(q2.act_params[t].zero_point),
                              np.atleast_1d(qg.act_params[t].zero_point))
    assert set(q2.graph.weights) == set(qg.graph.weights)
    for t, a in qg.graph.weights.items():
        assert q2.graph.weights[t].dtype == a.dtype
        assert np.array_equal(q2.graph.weights[t], a)
    for w in qg.weight_params:
        assert np.array_equal(np.atleast_1d(q2.weight_params[w].scale),
                              np.atleast_1d(qg.weight_params[w].scale))
    # untouched fp32 tensors ride along byte-exact
    for n in (lenet.compute_nodes()[0], lenet.compute_nodes()[-1]):
        assert q2.graph.weights[n.weight_id].tobytes() == \
               lenet.weights[n.weight_id].tobytes()


def test_quantization_is_deterministic(tmp_path, lenet, lenet_cache_s2):
    a, b = tmp_path / "a.qtm8", tmp_path / "b.qtm8"
    save_quantized(quantize_model(lenet, lenet_cache_s2, cfg()), str(a))
    save_quantized(quantize_model(lenet, lenet_cache_s2, cfg()), str(b))
    assert a.read_bytes() == b.read_bytes()


def test_size_counts_one_byte_per_weight_plus_params(ds):
    # fc with a 10x100 weight (1000 values), no bias
    g = generate_fixture("fc", seed=0)
    from ptqtune import build_cache
    n_w = g.weights[g.compute_nodes()[0].weight_id].size
    cache = build_cache(g, ds, "S1", seed=0)
    qg = quantize_model(g, cache, cfg(granularity="Tensor"))
    bias_id = g.compute_nodes()[0].bias_id
    bias_bytes = 4 * g.weights[bias_id].size if bias_id else 0
    assert model_size(qg) == n_w + 8 + bias_bytes


def test_mixed_precision_size_penalty_is_three_bytes_per_fp32_weight(lenet, lenet_cache_s2):
    base = quantize_model(lenet, lenet_cache_s2, cfg())
    mixed = quantize_model(lenet, lenet_cache_s2, cfg(mixed="FirstLastFp32"))
    compute = lenet.compute_nodes()
    first_last = (lenet.weights[compute[0].weight_id].size
                  + lenet.weights[compute[-1].weight_id].size)
    assert model_size(mixed) - model_size(base) == 3 * first_last


def test_load_rejects_a_dangling_tensor_name_naming_the_node(tmp_path, lenet, lenet_cache_s2):
    # an IntegerOnly artifact whose node 2 reads a tensor nobody writes
    from ptqtune.container import read_container, write_container
    qg = quantize_model(lenet, lenet_cache_s2, cfg(scheme=Scheme.SymmetricPower2))
    path = str(tmp_path / "q.qtm8")
    save_quantized(qg, path)
    header, buffers = read_container(path, "qtm8")
    node = header["nodes"][2]
    node["inputs"][0] = "t_missing"
    write_container(path, "qtm8", header, buffers)
    with pytest.raises(ValueError, match=f"node {node['id']}"):
        load_quantized(path)


@pytest.mark.parametrize("inputs", [lambda data: [data, data], lambda data: []],
                         ids=["two", "none"])
def test_load_rejects_a_relu_without_exactly_one_input(tmp_path, lenet, lenet_cache_s2, inputs):
    from ptqtune.container import read_container, write_container
    qg = quantize_model(lenet, lenet_cache_s2, cfg())
    path = str(tmp_path / "q.qtm8")
    save_quantized(qg, path)
    header, buffers = read_container(path, "qtm8")
    node = next(n for n in header["nodes"] if n["kind"] == "relu")
    node["inputs"] = inputs(node["inputs"][0])
    write_container(path, "qtm8", header, buffers)
    with pytest.raises(ValueError, match=f"node {node['id']}: relu takes exactly one input"):
        load_quantized(path)


def _rename(nodes):
    nodes[3]["id"] = nodes[2]["id"]


def _write_input(nodes):
    nodes[-1]["output"] = "input"


def _two_outputs(nodes):
    nodes[2]["inputs"] = [nodes[0]["output"]]  # the relu between goes unread


@pytest.mark.parametrize("tamper, match", [
    (_rename, "duplicate node ids"),
    (_write_input, "collide with reserved/weight tensor ids"),
    (_two_outputs, "exactly one output"),
], ids=["duplicate-id", "writes-input", "two-outputs"])
def test_load_rejects_clashing_names_and_extra_outputs(tmp_path, lenet, lenet_cache_s2,
                                                       tamper, match):
    from ptqtune.container import read_container, write_container
    qg = quantize_model(lenet, lenet_cache_s2, cfg())
    path = str(tmp_path / "q.qtm8")
    save_quantized(qg, path)
    header, buffers = read_container(path, "qtm8")
    tamper(header["nodes"])
    write_container(path, "qtm8", header, buffers)
    with pytest.raises(ValueError, match=match):
        load_quantized(path)


@pytest.mark.parametrize("what, match", [
    ("axis", "axis 1 is not None or 0"),
    ("scale", "scale shape"),
    ("zero_point", "zero_point shape"),
    ("bias", "bias shape"),
])
def test_load_rejects_per_channel_data_that_does_not_fit(tmp_path, lenet, lenet_cache_s2,
                                                         what, match):
    # a per-channel artifact: buffers are act scales, act zero points, then
    # (codes, scales, zero points) per weight, then the int32 biases
    from ptqtune.container import read_container, write_container
    qg = quantize_model(lenet, lenet_cache_s2, cfg(granularity="Channel"))
    path = str(tmp_path / "q.qtm8")
    save_quantized(qg, path)
    header, buffers = read_container(path, "qtm8")
    n_weights = len(header["weight_tensors"])
    if what == "axis":
        header["weight_tensors"][0]["axis"] = 1
    else:
        i = {"scale": 3, "zero_point": 4, "bias": 2 + 3 * n_weights}[what]
        buffers[i] = buffers[i][:-1]
    write_container(path, "qtm8", header, buffers)
    with pytest.raises(ValueError, match=match):
        load_quantized(path)


def _tampered(tmp_path, qg, tamper):
    """Save ``qg``, let ``tamper(header, buffers)`` edit the file's header
    and buffers in place, and return the rewritten path."""
    from ptqtune.container import read_container, write_container
    path = str(tmp_path / "q.qtm8")
    save_quantized(qg, path)
    header, buffers = read_container(path, "qtm8")
    buffers = [b.copy() for b in buffers]
    tamper(header, buffers)
    write_container(path, "qtm8", header, buffers)
    return path


def test_load_rejects_a_bias_read_by_two_layers(tmp_path, resnet, resnet_cache_s2):
    # the first two convs both write 8 channels; the second now also reads
    # the first one's bias, which is coded at the first one's input scale
    qg = quantize_model(resnet, resnet_cache_s2, cfg())
    c0, c1 = resnet.compute_nodes()[:2]

    def share(header, buffers):
        next(n for n in header["nodes"] if n["id"] == c1.id)["inputs"][2] = c0.bias_id

    with pytest.raises(ValueError, match=f"'{c0.bias_id}'.* are read more than once"):
        load_quantized(_tampered(tmp_path, qg, share))


def _set(i, value):
    def tamper(header, buffers):
        buffers[i][0] = value
    return tamper


def _list_twice(header, buffers):
    header["fp32_weight_tensors"].append(header["bias_tensors"][0])
    buffers.append(np.zeros(1, dtype=np.float32))


# buffers 0 and 1 are the act scales and zero points, 2-4 the first weight's
# codes, scales and zero points
@pytest.mark.parametrize("tamper, match", [
    (_set(0, 0.0), r"activation .*: scale \[0\.\] is not finite and > 0"),
    (_set(0, np.nan), r"activation .*: scale \[nan\] is not finite and > 0"),
    (_set(1, 1000), r"activation .*: zero point \[1000\] is outside \[-128, 127\]"),
    (_set(3, -0.5), r"weight .*: scale \[-0\.5\] is not finite and > 0"),
    (_set(4, -129), r"weight .*: zero point \[-129\] is outside \[-128, 127\]"),
    (_list_twice, "listed twice"),
], ids=["act-scale-zero", "act-scale-nan", "act-zero-point", "weight-scale-negative",
        "weight-zero-point", "listed-twice"])
def test_load_rejects_params_no_executor_can_use(tmp_path, lenet, lenet_cache_s2,
                                                 tamper, match):
    qg = quantize_model(lenet, lenet_cache_s2, cfg())
    with pytest.raises(ValueError, match=match):
        load_quantized(_tampered(tmp_path, qg, tamper))


@pytest.mark.parametrize("what, mixed, dtype", [
    ("weight", "Off", np.int16),
    ("bias", "Off", np.int8),
    ("fp32", "FirstLastFp32", np.float64),
], ids=["int16-weight-codes", "int8-bias", "float64-fp32-weight"])
def test_load_rejects_arrays_of_the_wrong_dtype_naming_the_node(tmp_path, lenet, lenet_cache_s2,
                                                                what, mixed, dtype):
    # payload: act scales and zero points, (codes, scales, zero points) per
    # quantized weight, the int32 biases, then the float32 weights
    qg = quantize_model(lenet, lenet_cache_s2, cfg(mixed=mixed))
    named = {}

    def retype(header, buffers):
        w_ids, b_ids = [m["id"] for m in header["weight_tensors"]], header["bias_tensors"]
        i, ids = {"weight": (2, w_ids),
                  "bias": (2 + 3 * len(w_ids), b_ids),
                  "fp32": (2 + 3 * len(w_ids) + len(b_ids), header["fp32_weight_tensors"]),
                  }[what]
        buffers[i] = buffers[i].astype(dtype) * (100 if what == "weight" else 1)
        named["node"] = next(n["id"] for n in header["nodes"] if ids[0] in n["inputs"][1:])

    path = _tampered(tmp_path, qg, retype)
    with pytest.raises(ValueError, match=f"node {named['node']}: .* is {np.dtype(dtype)}"):
        load_quantized(path)


def _hand_graph(nodes, **weights):
    """A graph on a (1, 6, 6) input built in memory, never validated, and
    its calibration cache."""
    rng = np.random.default_rng(0)
    g = Graph("hand", nodes, {k: rng.standard_normal(shape).astype(np.float32)
                              for k, shape in weights.items()},
              input_shape=(1, 6, 6), output_classes=3)
    return g, calibrate(g, rng.standard_normal((4, 1, 6, 6)).astype(np.float32))


def test_quantize_model_rejects_a_bias_read_by_two_layers():
    # one int32 code array cannot hold b0 at both layers' input scales
    g, cache = _hand_graph([
        Node("c0", "conv2d", ["input", "w0", "b0"], "t0"),
        Node("r0", "relu", ["t0"], "t1"),
        Node("c1", "conv2d", ["t1", "w1", "b0"], "t2"),
        Node("fc", "fully_connected", ["t2", "wfc"], "t3"),
    ], w0=(2, 1, 3, 3), b0=(2,), w1=(2, 2, 3, 3), wfc=(3, 8))
    with pytest.raises(GraphError, match=r"\['b0'\] are read more than once"):
        quantize_model(g, cache, cfg())


@pytest.mark.parametrize("nodes, weights, match", [
    ([Node("c0", "conv2d", ["input", "w0", "b0"], "t0"),
      Node("c1", "conv2d", ["input", "w1"], "t1"),
      Node("a", "add", ["t0", "t1"], "t2"),
      Node("fc", "fully_connected", ["t2", "wfc"], "t3")],
     dict(w0=(2, 1, 3, 3), b0=(2,), w1=(2, 1, 3, 3), wfc=(3, 32)),
     "^node c1: quantized layer fed by fp32 tensor$"),
    ([Node("c0", "conv2d", ["input", "w0"], "t0"),
      Node("m", "maxpool", ["input"], "t1", {"kernel": 3, "stride": 1}),
      Node("a", "add", ["t0", "t1"], "t2"),
      Node("fc", "fully_connected", ["t2", "wfc"], "t3")],
     dict(w0=(1, 1, 3, 3), wfc=(3, 16)),
     "^node a: mixed int8/fp32 operands$"),
], ids=["conv-reads-the-fp32-input", "add-of-int8-and-fp32"])
def test_first_last_fp32_rejects_an_int8_node_on_fp32_tensors(nodes, weights, match):
    # the input stays fp32 under FirstLastFp32; only the first layer's
    # output is quantized
    g, cache = _hand_graph(nodes, **weights)
    quantize_model(g, cache, cfg())  # the graph itself is fine
    with pytest.raises(GraphError, match=match):
        quantize_model(g, cache, cfg(mixed="FirstLastFp32"))


def _header(key, value):
    def tamper(header, buffers):
        header[key] = value
    return tamper


@pytest.mark.parametrize("config, tamper, match", [
    (cfg(), _header("fused", True), "fused is True in the header, but the graph gives False"),
    (cfg(), _header("fp32_nodes", ["relu1"]), r"fp32_nodes is \['relu1'\] in the header, "
                                              r"but the graph gives \[\]"),
    # the header restates the graph exactly: 1 is not true
    (cfg(fusion=True), _header("fused", 1), "fused is 1 in the header, but the graph gives True"),
], ids=["fused", "fp32-nodes", "fused-one"])
def test_load_rejects_flags_the_graph_contradicts(tmp_path, lenet, lenet_cache_s2,
                                                  config, tamper, match):
    qg = quantize_model(lenet, lenet_cache_s2, config)
    with pytest.raises(ValueError, match=match):
        load_quantized(_tampered(tmp_path, qg, tamper))


def _own_params(header, buffers):
    # t_maxp2 gets params of its own, at 4x its input's scale
    i = header["act_tensors"].index("t_maxp2")
    shared = header["act_unique"].index(header["act_sources"][i])
    header["act_sources"][i] = "t_maxp2"
    j = sorted(header["act_unique"] + ["t_maxp2"]).index("t_maxp2")
    header["act_unique"].insert(j, "t_maxp2")
    buffers[0] = np.insert(buffers[0], j, 4 * buffers[0][shared])
    buffers[1] = np.insert(buffers[1], j, buffers[1][shared])


def _other_group(header, buffers):
    # t_maxp2 points at the input's params; no param value changes
    header["act_sources"][header["act_tensors"].index("t_maxp2")] = "input"


@pytest.mark.parametrize("tamper", [_own_params, _other_group],
                         ids=["own-params", "other-group"])
def test_load_rejects_a_unit_op_that_does_not_share_its_inputs_params(
        tmp_path, lenet, lenet_cache_s2, tamper):
    # a maxpool runs on its input's codes, so it must carry its input's params
    qg = quantize_model(lenet, lenet_cache_s2, cfg())
    with pytest.raises(ValueError, match=r"act_sources is \[.*\] in the header, "
                                         r"but the graph gives \["):
        load_quantized(_tampered(tmp_path, qg, tamper))


def _ghost(header, buffers):
    header["act_tensors"].append("ghost")
    header["act_sources"].append(header["act_sources"][0])


def _extra_buffer(header, buffers):
    buffers.append(np.zeros(1, dtype=np.float32))


def _extra_act_params(*buffer_ids):
    def tamper(header, buffers):
        for i in buffer_ids:  # 0: act scales, 1: act zero points
            buffers[i] = np.append(buffers[i], buffers[i][-1])
    return tamper


@pytest.mark.parametrize("tamper, match", [
    (_ghost, r"activations \['ghost'\] are neither 'input' nor a node output"),
    (_extra_buffer, "14 buffers, but the listed tensors and params take 13"),
    (_extra_act_params(0, 1), r"act scales \(5,\) and zero points \(5,\) are not \(4,\)"),
    (_extra_act_params(1), r"act scales \(4,\) and zero points \(5,\) are not \(4,\)"),
], ids=["ghost-tensor", "extra-buffer", "extra-act-params", "extra-act-zero-point"])
def test_load_rejects_entries_the_graph_does_not_read(tmp_path, lenet, lenet_cache_s2,
                                                       tamper, match):
    qg = quantize_model(lenet, lenet_cache_s2, cfg())
    with pytest.raises(ValueError, match=match):
        load_quantized(_tampered(tmp_path, qg, tamper))


@pytest.mark.parametrize("preset", ["lenet", "resnet", "mobile"])
@pytest.mark.parametrize("config", [cfg(), cfg(fusion=True),
                                    cfg(mixed="FirstLastFp32", granularity="Channel")],
                         ids=["plain", "fused", "first-last-fp32-channel"])
def test_save_load_save_keeps_the_bytes(tmp_path, request, preset, config):
    g = request.getfixturevalue(preset)
    qg = quantize_model(g, request.getfixturevalue(f"{preset}_cache_s2"), config)
    a, b = tmp_path / "a.qtm8", tmp_path / "b.qtm8"
    save_quantized(qg, str(a))
    save_quantized(load_quantized(str(a)), str(b))
    assert a.read_bytes() == b.read_bytes()


def test_a_loaded_artifact_shares_params_along_unit_ops(tmp_path, resnet, resnet_cache_s2):
    from ptqtune.container import read_container
    p = str(tmp_path / "r.qtm8")
    save_quantized(quantize_model(resnet, resnet_cache_s2, cfg()), p)
    q = load_quantized(p)
    # conv6 -> relu7 -> avgpool8 is one group, named by its first member
    assert q.act_params["t_relu7"] is q.act_params["t_conv6"]
    assert q.act_params["t_avgp8"] is q.act_params["t_conv6"]
    assert q.act_params["t_soft10"] is q.act_params["t_full9"]
    header, _ = read_container(p, "qtm8")
    assert header["act_sources"][header["act_tensors"].index("t_conv6")] == "t_avgp8"
