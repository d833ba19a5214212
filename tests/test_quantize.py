import math

import numpy as np
import pytest

from ptqtune import (GraphError, QuantConfig, Scheme, dequantize_array,
                     generate_fixture, load_quantized, model_size,
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
    assert p.scale_vec().shape == (16,)
    assert p.zp_vec().shape == (16,)


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
        assert node.weight_id in qg.weight_codes
        assert qg.weight_codes[node.weight_id].dtype == np.int8
        if node.bias_id:
            assert qg.bias_codes[node.bias_id].dtype == np.int32
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
    bq = qg.bias_codes[conv.bias_id]
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
        assert n.weight_id in qg.weight_codes
    assert compute[0].weight_id not in qg.weight_codes
    assert compute[-1].weight_id not in qg.weight_codes


def test_power2_config_makes_every_scale_a_power_of_two(lenet, lenet_cache_s2):
    qg = quantize_model(lenet, lenet_cache_s2,
                        cfg(scheme=Scheme.SymmetricPower2, granularity="Channel"))
    everything = list(qg.act_params.values()) + list(qg.weight_params.values())
    for p in everything:
        for s in p.scale_vec():
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
        assert np.array_equal(q2.act_params[t].scale_vec(), qg.act_params[t].scale_vec())
        assert np.array_equal(q2.act_params[t].zp_vec(), qg.act_params[t].zp_vec())
    for w in qg.weight_codes:
        assert np.array_equal(q2.weight_codes[w], qg.weight_codes[w])
        assert np.array_equal(q2.weight_params[w].scale_vec(),
                              qg.weight_params[w].scale_vec())
    for b in qg.bias_codes:
        assert np.array_equal(q2.bias_codes[b], qg.bias_codes[b])
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
    header, buffers = read_container(path)
    del header["buffers"]
    node = header["nodes"][2]
    node["inputs"][0] = "t_missing"
    write_container(path, header, buffers)
    with pytest.raises(ValueError, match=f"node {node['id']}"):
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
    header, buffers = read_container(path)
    del header["buffers"]
    n_weights = len(header["weight_tensors"])
    if what == "axis":
        header["weight_tensors"][0]["axis"] = 1
    else:
        i = {"scale": 3, "zero_point": 4, "bias": 2 + 3 * n_weights}[what]
        buffers[i] = buffers[i][:-1]
    write_container(path, header, buffers)
    with pytest.raises(ValueError, match=match):
        load_quantized(path)
