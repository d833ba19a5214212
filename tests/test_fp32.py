from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings

from conftest import block_elements, recipes
from oracles import (avgpool_scalar, conv2d_scalar, depthwise_scalar,
                     maxpool_scalar)
from ptqtune import (avgpool, conv2d, depthwise_conv2d, evaluate_top1, generate_fixture,
                     maxpool, run_fp32, softmax, top1_from_scores)
from ptqtune import fp32
from ptqtune.fp32 import _windows
from ptqtune.ir import out_size
from test_intexec import concat_graph

RNG = np.random.default_rng(42)


@pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 0), (2, 1)])
def test_conv2d_matches_scalar_oracle(stride, pad):
    x = RNG.standard_normal((2, 3, 7, 7)).astype(np.float32)
    w = RNG.standard_normal((4, 3, 3, 3)).astype(np.float32)
    b = RNG.standard_normal(4).astype(np.float32)
    got = conv2d(x, w, b, stride, pad)
    for n in range(2):
        want = conv2d_scalar(x[n], w, b, stride, pad)
        assert np.allclose(got[n], want, atol=1e-4)


def test_depthwise_matches_scalar_oracle():
    x = RNG.standard_normal((1, 3, 6, 6)).astype(np.float32)
    w = RNG.standard_normal((3, 1, 3, 3)).astype(np.float32)
    got = depthwise_conv2d(x, w, None, 1, 1)
    want = depthwise_scalar(x[0], w, None, 1, 1)
    assert np.allclose(got[0], want, atol=1e-4)


def test_pools_match_scalar_oracles():
    x = RNG.standard_normal((1, 2, 8, 8)).astype(np.float32)
    assert np.allclose(maxpool(x, 2, 2)[0], maxpool_scalar(x[0], 2, 2))
    assert np.allclose(avgpool(x, 4, 4)[0], avgpool_scalar(x[0], 4, 4), atol=1e-6)


def window_max(x, k, stride):
    """maxpool as a reduction over each window."""
    return _windows(x, k, k, stride, 0).max(axis=(-1, -2))


@pytest.mark.parametrize("k,stride", [(1, 1), (2, 2), (2, 1), (3, 2), (4, 4)])
def test_maxpool_matches_scalar_oracle_and_window_reduction(k, stride):
    x = RNG.standard_normal((2, 3, 9, 9)).astype(np.float32)
    x[0, 1, 2, 3] = np.nan
    x[1, 0, :, 4] = np.nan
    x[1, 2, 5, 5] = np.inf
    x[0, 0, 0, 0] = -np.inf
    got = maxpool(x, k, stride)
    for n in range(2):
        assert np.array_equal(got[n], maxpool_scalar(x[n], k, stride), equal_nan=True)
    assert got.tobytes() == window_max(x, k, stride).tobytes()
    # the memory order of x carries through, as in the reduction: a later
    # float sum over the result rounds by memory order
    x_nhwc = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    assert maxpool(x_nhwc, k, stride).strides == window_max(x_nhwc, k, stride).strides


def _memory_order(a):
    """Axes from the slowest-varying to the fastest in memory."""
    return tuple(int(i) for i in np.argsort(a.strides)[::-1])


def test_maxpool_returns_its_input_memory_order():
    # conv2d returns an NHWC-ordered view and avgpool sums in memory order,
    # so a maxpool between them that reordered memory would move fp32 bits
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
    y = conv2d(x, rng.standard_normal((4, 3, 3, 3)).astype(np.float32), None, 1, 1)
    assert _memory_order(x) == (0, 1, 2, 3) and _memory_order(y) == (0, 2, 3, 1)
    for a in (x, y):
        assert _memory_order(maxpool(a, 2, 2)) == _memory_order(a)


def test_softmax_rows_are_distributions():
    x = RNG.standard_normal((5, 10)).astype(np.float32)
    s = softmax(x)
    assert np.allclose(s.sum(axis=-1), 1.0, atol=1e-6)
    assert (s >= 0).all()
    # monotone: argmax preserved
    assert (np.argmax(s, axis=-1) == np.argmax(x, axis=-1)).all()


def test_all_fixtures_reach_perfect_fp32_top1(lenet, resnet, mobile, ds):
    for g in (lenet, resnet, mobile):
        r = evaluate_top1(g, ds)
        assert r.n_evaluated == 200
        assert r.top1 == 1.0, f"{g.name}: fp32 top1 {r.top1}"


def test_run_accepts_single_image(lenet, ds):
    one = run_fp32(lenet, ds.eval_images[0])
    batch = run_fp32(lenet, ds.eval_images[:1])
    assert one.shape == (1, 10)
    assert np.array_equal(one, batch)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("kernel, stride, pad", [(3, 1, 1), (1, 1, 0), (5, 2, 2)],
                         ids=["conv", "pwconv", "strided"])
def test_conv2d_in_column_chunks_gives_the_one_chunk_bytes(k, kernel, stride, pad):
    """7 images in im2col chunks of ``k`` images, the last one ragged for 2
    and 3, give the bytes and layout of one chunk."""
    rng = np.random.default_rng(k)
    x = rng.standard_normal((7, 4, 9, 9)).astype(np.float32)
    w = rng.standard_normal((5, 4, kernel, kernel)).astype(np.float32)
    b = rng.standard_normal(5).astype(np.float32)
    oh = out_size(9, kernel, stride, pad)
    with mock.patch.object(fp32, "_BLOCK", k * 4 * kernel * kernel * oh * oh):
        got = conv2d(x, w, b, stride, pad)
    with mock.patch.object(fp32, "_BLOCK", 1 << 40):
        want = conv2d(x, w, b, stride, pad)
    assert got.strides == want.strides and got.tobytes() == want.tobytes()


def joined(g, batches):
    """``run_fp32``'s outputs over ``batches``, and every tensor its sink
    sees, each joined along the batch, tensors in first-seen order."""
    outs, seen = [], {}
    for x in batches:
        outs.append(run_fp32(g, x, lambda t, v: seen.setdefault(t, []).append(v)))
    return np.concatenate(outs), {t: np.concatenate(vs) for t, vs in seen.items()}


def assert_blocks_give_one_image_bytes(g, images):
    """Walks in blocks of 1 image, 3 (a ragged last block) and the whole
    batch give the output and every tensor the sink sees the shape and
    bytes of one-image runs."""
    want_out, want = joined(g, images)  # one image per run
    for block in (1, 3, len(images)):
        with mock.patch.object(fp32, "_BLOCK", block * block_elements(g)):
            out, got = joined(g, [images])
        assert out.shape == want_out.shape and out.tobytes() == want_out.tobytes(), block
        assert list(got) == list(want)
        for t, v in want.items():
            assert got[t].shape == v.shape and got[t].tobytes() == v.tobytes(), (block, t)


@pytest.mark.parametrize("name", ["lenet", "resnet", "mobile", "concat"])
def test_image_blocks_give_the_bytes_of_one_image_runs(name, request, ds):
    g = concat_graph() if name == "concat" else request.getfixturevalue(name)
    assert_blocks_give_one_image_bytes(g, ds.eval_images[:7])


@settings(deadline=None, max_examples=40)
@given(g=recipes())
@example(g=generate_fixture("conv+relu+dwconv+avgpool+fc+softmax", seed=1))
@example(g=generate_fixture("pwconv+maxpool+conv+avgpool+fc+fc+softmax", seed=2))
def test_image_blocks_give_the_bytes_of_one_image_runs_on_drawn_recipes(ds, g):
    assert_blocks_give_one_image_bytes(g, ds.eval_images[:7])


@pytest.mark.parametrize("recipe", ["lenet-ish", "resnet-toy", "mobile-toy"])
def test_a_planted_head_does_not_depend_on_the_block(recipe):
    """The head planted from the 10 class templates walked one image per
    block equals the default walk's, whose blocks may hold them all."""
    want = generate_fixture(recipe, seed=1)
    with mock.patch.object(fp32, "_BLOCK", 1):
        got = generate_fixture(recipe, seed=1)
    assert list(got.weights) == list(want.weights)
    for t, w in want.weights.items():
        assert got.weights[t].tobytes() == w.tobytes(), t


def test_batch_shape_mismatch_rejected(lenet):
    with pytest.raises(ValueError):
        run_fp32(lenet, np.zeros((2, 1, 32, 32), dtype=np.float32))


def test_top1_tie_breaks_to_lowest_index():
    scores = np.array([[0.5, 0.5, 0.1]])
    assert top1_from_scores(scores, np.array([0])).top1 == 1.0
    assert top1_from_scores(scores, np.array([1])).top1 == 0.0
    with pytest.raises(ValueError):
        top1_from_scores(np.zeros((0, 3)), np.zeros(0, dtype=np.int64))

