import numpy as np
import pytest

from ptqtune import (Graph, GraphError, Node, extract_features, load_model,
                     propagate_shapes, save_model, validate)
from ptqtune.container import write_container
from ptqtune.ir import INPUT_TENSOR, NODE_KINDS


def tiny_graph():
    """2x conv + relu + fc on a (1,6,6) input, 3 classes."""
    w0 = np.ones((2, 1, 3, 3), dtype=np.float32)
    b0 = np.zeros(2, dtype=np.float32)
    w1 = np.full((2, 2, 3, 3), 0.5, dtype=np.float32)
    wfc = np.ones((3, 2 * 2 * 2), dtype=np.float32)
    nodes = [
        Node("c0", "conv2d", [INPUT_TENSOR, "w0", "b0"], "t0"),
        Node("r0", "relu", ["t0"], "t1"),
        Node("c1", "conv2d", ["t1", "w1"], "t2"),
        Node("fc", "fully_connected", ["t2", "wfc"], "t3"),
    ]
    return Graph("tiny", nodes, {"w0": w0, "b0": b0, "w1": w1, "wfc": wfc},
                 input_shape=(1, 6, 6), output_classes=3)


def test_shapes_propagate_through_every_node():
    shapes = propagate_shapes(tiny_graph())
    assert shapes["t0"] == (2, 4, 4)
    assert shapes["t1"] == (2, 4, 4)
    assert shapes["t2"] == (2, 2, 2)
    assert shapes["t3"] == (3,)


def test_feature_counts_match_hand_count():
    f = extract_features(tiny_graph())
    assert f.n_nodes == 4
    assert f.n_conv == 2
    assert f.n_skip == 0
    assert f.n_layers == 3  # weighted nodes
    assert f.activation_kinds["relu"] == 1


def test_residual_add_counts_as_skip():
    g = tiny_graph()
    # fork t1 into a second conv and add the branches
    w2 = np.full((2, 2, 3, 3), 0.25, dtype=np.float32)
    g.weights["w2"] = w2
    g.nodes = g.nodes[:3] + [
        Node("c2", "conv2d", ["t1", "w2"], "t2b"),
        Node("a0", "add", ["t2", "t2b"], "t4"),
        Node("fc", "fully_connected", ["t4", g.nodes[3].inputs[1]], "t5"),
    ]
    validate(g)
    assert extract_features(g).n_skip == 1


def test_kind_partition_sums_to_n_nodes(lenet, resnet, mobile):
    for g in (lenet, resnet, mobile):
        f = extract_features(g)
        partition = (f.n_conv + f.n_depthwise + f.n_pointwise + f.n_fc
                     + f.n_skip + f.n_concat + sum(f.activation_kinds.values()))
        assert partition == f.n_nodes


def test_round_trip_is_identity(tmp_path, lenet):
    path = tmp_path / "m.qtm"
    save_model(lenet, str(path))
    g2 = load_model(str(path))
    assert g2.name == lenet.name
    assert g2.input_shape == tuple(lenet.input_shape)
    assert len(g2.nodes) == len(lenet.nodes)
    for a, b in zip(lenet.nodes, g2.nodes):
        assert (a.id, a.kind, list(a.inputs), a.output, a.attrs) == \
               (b.id, b.kind, list(b.inputs), b.output, b.attrs)
    for k in lenet.weights:
        assert lenet.weights[k].tobytes() == g2.weights[k].tobytes()


def test_lenet_fixture_has_seven_nodes(tmp_path, lenet):
    path = tmp_path / "lenet.qtm"
    save_model(lenet, str(path))
    assert len(load_model(str(path)).nodes) == 7


def test_empty_file_errors(tmp_path):
    p = tmp_path / "e.qtm"
    p.write_bytes(b"")
    with pytest.raises((GraphError, ValueError)):
        load_model(str(p))


def test_dangling_tensor_reference_errors(tmp_path):
    g = tiny_graph()
    g.nodes[2] = Node("c1", "conv2d", ["missing", "w1"], "t2")
    with pytest.raises(GraphError):
        validate(g)
    # and via the container path: write a malformed header directly
    header = {
        "name": "bad", "input_shape": [1, 6, 6],
        "output_classes": 3,
        "nodes": [{"id": "c0", "kind": "conv2d", "inputs": ["input", "nope"],
                   "output": "t0", "attrs": {}}],
        "weight_order": [],
    }
    p = tmp_path / "bad.qtm"
    write_container(str(p), "qtm", header, [])
    with pytest.raises(GraphError):
        load_model(str(p))


def test_unknown_kind_rejected():
    g = tiny_graph()
    g.nodes[1] = Node("r0", "gelu", ["t0"], "t1")
    assert "gelu" not in NODE_KINDS
    with pytest.raises(GraphError):
        validate(g)


@pytest.mark.parametrize("kind, inputs, takes", [
    ("relu", ["t0", "input"], "exactly one input"),
    ("relu", [], "exactly one input"),
    ("maxpool", ["t0", "t0"], "exactly one input"),
    ("avgpool", [], "exactly one input"),
    ("softmax", ["t0", "t0"], "exactly one input"),
    ("add", ["t0", "t0", "t0"], "exactly two inputs"),
    ("concat", [], "at least one input"),
], ids=["relu-two", "relu-none", "maxpool-two", "avgpool-none", "softmax-two",
        "add-three", "concat-none"])
def test_each_kind_takes_its_number_of_inputs(kind, inputs, takes):
    g = tiny_graph()
    g.nodes[1] = Node("r0", kind, inputs, "t1", {"kernel": 1} if "pool" in kind else {})
    with pytest.raises(GraphError, match=f"^node r0: {kind} takes {takes}$"):
        validate(g)


def test_duplicate_outputs_rejected():
    g = tiny_graph()
    g.nodes[1] = Node("r0", "relu", ["t0"], "t0")
    with pytest.raises(GraphError):
        validate(g)


def test_two_terminals_rejected():
    g = tiny_graph()
    g.nodes.append(Node("r9", "relu", ["t1"], "t9"))
    with pytest.raises(GraphError):
        g.output_tensor()


def test_add_shape_mismatch_rejected():
    g = tiny_graph()
    g.nodes.append(Node("a0", "add", ["t0", "t3"], "t4"))
    with pytest.raises(GraphError):
        propagate_shapes(g)


def _bias_2d(g):
    g.weights["b0"] = np.zeros((2, 1), dtype=np.float32)


def _bias_wrong_length(g):
    g.weights["b0"] = np.zeros(3, dtype=np.float32)


def _bias_missing(g):
    del g.weights["b0"]


def _weight_is_a_node_output(g):
    g.nodes[2].inputs[1] = "t0"


def _weight_holds_nan(g):
    g.weights["w1"][1, 0, 2, 2] = np.nan


@pytest.mark.parametrize("tamper, node", [
    (_bias_2d, "c0"), (_bias_wrong_length, "c0"), (_bias_missing, "c0"),
    (_weight_is_a_node_output, "c1"), (_weight_holds_nan, "c1"),
], ids=["bias-2d", "bias-length", "bias-missing", "weight-is-output", "weight-nan"])
def test_weight_and_bias_that_do_not_fit_are_rejected_naming_the_node(tamper, node):
    g = tiny_graph()
    tamper(g)
    with pytest.raises(GraphError, match=f"^node {node}: "):
        validate(g)


@pytest.mark.parametrize("node, attr, value", [
    ("conv0", "stride", 1.5), ("conv0", "stride", "2"), ("conv0", "stride", True),
    ("conv0", "padding", 0.9), ("maxp2", "kernel", 2.5), ("maxp2", "stride", None),
    ("conv0", "fused_relu", "no"), ("conv0", "fused_relu", 1), ("relu1", "fused_relu", True),
], ids=["stride-float", "stride-str", "stride-bool", "padding-float", "kernel-float",
        "pool-stride-null", "fused-str", "fused-int", "fused-on-relu"])
def test_load_rejects_node_attributes_of_the_wrong_type_naming_the_node(tmp_path, lenet,
                                                                        node, attr, value):
    # each value once ran as some other one: a 1.5 stride as 1, "no" as fused
    from ptqtune.ir import _graph_header
    header = {**_graph_header(lenet), "weight_order": sorted(lenet.weights)}
    next(n for n in header["nodes"] if n["id"] == node)["attrs"][attr] = value
    p = tmp_path / "tampered.qtm"
    write_container(str(p), "qtm", header, [lenet.weights[k] for k in header["weight_order"]])
    with pytest.raises(GraphError, match=f"^node {node}: {attr} "):
        load_model(str(p))


def test_numpy_integer_attributes_pass():
    g = tiny_graph()
    g.nodes[0].attrs.update(stride=np.int64(1), padding=np.int32(0), fused_relu=False)
    assert propagate_shapes(g)["t0"] == (2, 4, 4)


def test_a_bias_read_by_two_layers_is_rejected(tmp_path):
    # each layer's bias is quantized at its own input scale, so one array
    # cannot serve two layers
    from ptqtune.ir import _graph_header
    g = tiny_graph()
    g.nodes[2].inputs.append("b0")
    with pytest.raises(GraphError, match=r"\['b0'\] are read more than once"):
        validate(g)
    order = sorted(g.weights)
    p = tmp_path / "shared.qtm"
    write_container(str(p), "qtm", {**_graph_header(g), "weight_order": order},
                    [g.weights[k] for k in order])
    with pytest.raises(GraphError, match=r"\['b0'\] are read more than once"):
        load_model(str(p))
