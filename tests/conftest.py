import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import reject
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))  # for the shared oracles module

from ptqtune import GraphError, build_cache, generate_fixture, make_dataset, propagate_shapes
from ptqtune.fixtures import _GRAMMAR_KINDS


def block_elements(g):
    """The graph's elements per image, summed over every node output: what
    the walk divides ``fp32._BLOCK`` by."""
    shapes = propagate_shapes(g)
    return sum(int(np.prod(shapes[n.output])) for n in g.nodes)


def column_elements(g):
    """The im2col column elements per image of each conv-family node of
    ``g``: what ``fp32._chunks`` divides ``fp32._BLOCK`` by, in float32."""
    shapes = propagate_shapes(g)
    return [shapes[n.data_inputs[0]][0] * int(np.prod(g.weights[n.weight_id].shape[2:]))
            * int(np.prod(shapes[n.output][1:]))
            for n in g.nodes if n.kind.endswith("conv2d")]


def ragged_budget(g, n):
    """A ``fp32._BLOCK`` at which the walk cuts ``n`` images into blocks of
    b < n and some conv builds its float32 columns in chunks of k images,
    1 < k < b, with k not dividing b: ragged chunks inside the blocks.
    None when no budget does."""
    e = block_elements(g)
    for c in column_elements(g):
        for k in range(2, n):
            for b in range(k + 1, n):
                # the least budget with blocks of b; chunks of k need it in
                # [k*c, (k+1)*c)
                budget = max(k * c, b * e)
                if b % k and budget // e == b and budget < (k + 1) * c:
                    return budget
    return None


@st.composite
def recipes(draw, max_size=5):
    """The fixture graph of a drawn grammar recipe: up to ``max_size``
    tokens of any kind, then ``fc``, at fixture seed 0-3.  A recipe the
    grammar cannot build (say, a conv after an fc) is rejected."""
    tokens = draw(st.lists(st.sampled_from(_GRAMMAR_KINDS), max_size=max_size))
    seed = draw(st.integers(0, 3))
    try:
        return generate_fixture("+".join(tokens + ["fc"]), seed=seed)
    except GraphError:
        reject()


@pytest.fixture(scope="session")
def ds():
    """The dataset every test shares, read-only: a kernel that writes into
    its input fails its own test instead of corrupting later ones."""
    d = make_dataset(seed=0)
    d.images.flags.writeable = False
    d.labels.flags.writeable = False
    return d


@pytest.fixture(scope="session")
def lenet():
    return generate_fixture("lenet-ish", seed=1)


@pytest.fixture(scope="session")
def resnet():
    return generate_fixture("resnet-toy", seed=1)


@pytest.fixture(scope="session")
def mobile():
    return generate_fixture("mobile-toy", seed=1)


@pytest.fixture(scope="session")
def lenet_cache_s2(lenet, ds):
    return build_cache(lenet, ds, "S2", seed=0)


@pytest.fixture(scope="session")
def lenet_cache_s3(lenet, ds):
    return build_cache(lenet, ds, "S3", seed=0)


@pytest.fixture(scope="session")
def resnet_cache_s2(resnet, ds):
    return build_cache(resnet, ds, "S2", seed=0)


@pytest.fixture(scope="session")
def mobile_cache_s2(mobile, ds):
    return build_cache(mobile, ds, "S2", seed=0)
