import re

import numpy as np
import pytest

from oracles import make_dataset_oneshot
from ptqtune import (Dataset, class_templates, load_dataset, make_dataset,
                     save_dataset)


def test_templates_are_orthogonal_unit_rms():
    t = class_templates()
    flat = t.reshape(len(t), -1).astype(np.float64)
    d = flat.shape[1]
    gram = flat @ flat.T / d
    assert np.allclose(gram, np.eye(len(t)), atol=1e-5)


def test_templates_deterministic():
    assert class_templates().tobytes() == class_templates().tobytes()


def test_make_dataset_split_and_shapes(ds):
    assert ds.images.shape == (500, 3, 32, 32)
    assert ds.calib_images.shape[0] == 300
    assert ds.eval_images.shape[0] == 200
    assert ds.eval_labels.shape == (200,)
    assert ds.images.dtype == np.float32
    assert ds.labels.dtype == np.int64


def test_same_seed_reproduces_dataset(ds):
    d2 = make_dataset(seed=0)
    assert ds.images.tobytes() == d2.images.tobytes()
    assert ds.labels.tobytes() == d2.labels.tobytes()


@pytest.mark.parametrize("n_calib, n_eval, seed, noise",
                         [(300, 200, 0, 0.25), (0, 1, 3, 1.0), (5, 28, 7, 0.0),
                          (31, 2, 1, 2.5), (0, 0, 2, 0.25), (40, 65, 9, 0.1)])
def test_make_dataset_gives_the_bytes_of_one_noise_draw(n_calib, n_eval, seed, noise):
    """The noise is drawn in chunks of images, a ragged last chunk and a
    batch smaller than one chunk included, with the bytes of one draw."""
    images, labels = make_dataset_oneshot(n_calib, n_eval, seed, noise)
    d = make_dataset(n_calib, n_eval, seed, noise)
    assert d.images.dtype == images.dtype and d.images.shape == images.shape
    assert d.images.tobytes() == images.tobytes()
    assert d.labels.tobytes() == labels.tobytes()


def test_labels_cover_all_classes(ds):
    assert set(np.unique(ds.labels)) == set(range(10))


def test_round_trip(tmp_path, ds):
    p = tmp_path / "d.qds"
    save_dataset(ds, str(p))
    d2 = load_dataset(str(p))
    assert d2.n_calib == ds.n_calib
    assert d2.images.tobytes() == ds.images.tobytes()
    assert d2.labels.tobytes() == ds.labels.tobytes()


def test_bad_split_rejected():
    imgs = np.zeros((4, 3, 32, 32), dtype=np.float32)
    labels = np.zeros(4, dtype=np.int64)
    with pytest.raises(ValueError):
        Dataset(images=imgs, labels=labels, n_calib=5)
    with pytest.raises(ValueError):
        Dataset(images=imgs, labels=labels[:3], n_calib=2)


@pytest.mark.parametrize("noise", [float("nan"), float("inf"), -0.1])
def test_make_dataset_rejects_noise_that_is_not_a_finite_nonnegative_number(noise):
    with pytest.raises(ValueError, match=f"^noise {noise} is not a finite number >= 0$"):
        make_dataset(n_calib=2, n_eval=2, noise=noise)


@pytest.mark.parametrize("n_calib", [True, 1.5, "2"])
def test_load_rejects_an_n_calib_that_is_not_an_integer(tmp_path, n_calib):
    from ptqtune.container import write_container
    d = make_dataset(n_calib=2, n_eval=2)
    p = tmp_path / "d.qds"
    write_container(str(p), "qds", {"n_calib": n_calib}, [d.images, d.labels])
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: n_calib {n_calib!r} is not"):
        load_dataset(str(p))


def test_wrong_format_rejected(tmp_path, lenet):
    from ptqtune import save_model
    p = tmp_path / "m.qtm"
    save_model(lenet, str(p))
    with pytest.raises(ValueError):
        load_dataset(str(p))
    bad = make_dataset(n_calib=2, n_eval=2)
    bad.images[3, 2, 1, 0] = np.nan
    p = tmp_path / "nan.qds"
    save_dataset(bad, str(p))
    with pytest.raises(ValueError, match="images hold NaN or inf"):
        load_dataset(str(p))
    for labels, match in [(np.array([0, 10, 1, 2]), r"labels must lie in \[0, 10\)"),
                          (np.array([0, 1, -3, 2]), r"labels must lie in \[0, 10\)"),
                          (np.array([0.0, 1.0, 2.0, 3.0]), "labels are float64, not integers"),
                          (np.zeros((4, 2), np.int64), r"labels have shape \(4, 2\), not \(4,\)")]:
        save_dataset(Dataset(images=np.zeros((4, 3, 32, 32), np.float32), labels=labels,
                             n_calib=2), str(p))
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: {match}"):
            load_dataset(str(p))
    for shape in [(4, 32, 32), (4, 1, 3, 32, 32)]:
        save_dataset(Dataset(images=np.zeros(shape, np.float32), labels=np.zeros(4, np.int64),
                             n_calib=2), str(p))
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: images have shape "
                                             f"{re.escape(str(shape))}, not \\(N, C, H, W\\)"):
            load_dataset(str(p))
