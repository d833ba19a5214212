import numpy as np
import pytest

from ptqtune import (FIXTURE_RECIPES, GraphError, extract_features,
                     generate_fixture, recipe_feature_counts, validate)


def test_three_presets_exist():
    assert set(FIXTURE_RECIPES) == {"lenet-ish", "resnet-toy", "mobile-toy"}


@pytest.mark.parametrize("recipe", ["lenet-ish", "resnet-toy", "mobile-toy"])
def test_extracted_features_match_declared_counts(recipe):
    g = generate_fixture(recipe, seed=7)
    got = extract_features(g)
    want = recipe_feature_counts(recipe)
    assert got == want


def test_preset_node_counts():
    assert recipe_feature_counts("lenet-ish").n_nodes == 7
    assert recipe_feature_counts("resnet-toy").n_nodes == 11
    assert recipe_feature_counts("mobile-toy").n_nodes == 13


def test_resnet_has_one_skip_connection(resnet):
    assert extract_features(resnet).n_skip == 1


def test_same_seed_same_weights():
    a = generate_fixture("lenet-ish", seed=3)
    b = generate_fixture("lenet-ish", seed=3)
    assert [n.id for n in a.nodes] == [n.id for n in b.nodes]
    for k in a.weights:
        assert a.weights[k].tobytes() == b.weights[k].tobytes()


def test_different_seed_different_weights():
    a = generate_fixture("lenet-ish", seed=3)
    b = generate_fixture("lenet-ish", seed=4)
    diffs = sum(a.weights[k].tobytes() != b.weights[k].tobytes()
                for k in a.weights)
    assert diffs > 0


def test_grammar_recipe_builds_and_counts():
    g = generate_fixture("2xconv+relu+fc", seed=1)
    validate(g)
    got = extract_features(g)
    want = recipe_feature_counts("2xconv+relu+fc")
    assert got == want
    assert want.n_nodes == 4 and want.n_conv == 2 and want.n_fc == 1


def test_invalid_recipe_token_rejected():
    with pytest.raises(GraphError):
        generate_fixture("conv+blorp", seed=0)
    with pytest.raises(GraphError):
        recipe_feature_counts("")


@pytest.mark.parametrize("recipe", ["fc+conv", "fc+maxpool", "fc+dwconv"])
def test_recipe_that_needs_chw_after_fc_rejected(recipe):
    with pytest.raises(GraphError, match="needs a CHW input"):
        generate_fixture(recipe, seed=0)
