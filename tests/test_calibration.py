import numpy as np
import pytest

from ptqtune import Graph, Node, build_cache, calibrate, load_cache, save_cache
from ptqtune.calibration import N_BINS, SIZE_CLASSES, select_images
from ptqtune.container import write_container
from ptqtune.ir import INPUT_TENSOR


def test_size_classes():
    assert SIZE_CLASSES == {"S1": 1, "S2": 32, "S3": 256}


def test_single_image_selection_is_stable(ds):
    a = select_images(ds, "S1", seed=9)
    b = select_images(ds, "S1", seed=9)
    assert a.shape == (1,)
    assert np.array_equal(a, b)


def test_large_selection_has_distinct_indices(ds):
    idx = select_images(ds, "S3", seed=4)
    assert len(idx) == 256
    assert len(set(idx.tolist())) == 256
    assert idx.max() < ds.n_calib


def test_small_pool_cannot_supply_large_class():
    from ptqtune import make_dataset
    small = make_dataset(n_calib=100, n_eval=10, seed=0)
    with pytest.raises(ValueError):
        select_images(small, "S3", seed=0)
    with pytest.raises(ValueError):
        select_images(small, "S9", seed=0)


def test_cache_covers_every_tensor(lenet, lenet_cache_s2):
    tensors = {INPUT_TENSOR} | {n.output for n in lenet.nodes}
    assert set(lenet_cache_s2.histograms) == tensors
    for h in lenet_cache_s2.histograms.values():
        assert h.bin_counts.shape == (N_BINS,)
        assert h.bin_counts.sum() == h.n_samples
        assert h.min_seen <= h.max_seen


def test_relu_output_histogram_is_nonnegative(lenet, lenet_cache_s2):
    relu_out = next(n.output for n in lenet.nodes if n.kind == "relu")
    h = lenet_cache_s2.histograms[relu_out]
    assert h.min_seen == 0.0  # relu clamps at zero and zeros dominate
    assert h.max_seen > 0.0


def test_constant_tensor_collapses_to_single_bin(ds):
    g = Graph("const", [Node("r", "relu", [INPUT_TENSOR], "t")],
              weights={}, input_shape=(3, 32, 32), output_classes=10)
    c = calibrate(g, np.full((2, 3, 32, 32), -1.5, dtype=np.float32))
    h = c.histograms["t"]  # relu(-1.5) == 0 everywhere
    assert h.min_seen == h.max_seen == 0.0
    assert h.bin_counts[0] == h.n_samples
    assert (h.bin_counts[1:] == 0).all()


def test_superset_of_images_widens_ranges_monotonically(lenet, ds):
    few = calibrate(lenet, ds.calib_images[:4])
    more = calibrate(lenet, ds.calib_images[:16])
    for t, h in few.histograms.items():
        assert more.histograms[t].min_seen <= h.min_seen
        assert more.histograms[t].max_seen >= h.max_seen


def test_build_cache_records_selection(lenet, ds):
    c = build_cache(lenet, ds, "S2", seed=0)
    assert c.size_class == "S2"
    assert len(c.image_ids) == 32
    assert c.model_name == lenet.name
    # deterministic given (model, dataset, size class, seed)
    c2 = build_cache(lenet, ds, "S2", seed=0)
    assert c.image_ids == c2.image_ids
    for t in c.histograms:
        assert np.array_equal(c.histograms[t].bin_counts,
                              c2.histograms[t].bin_counts)


def test_round_trip(tmp_path, lenet_cache_s2):
    p = tmp_path / "c.qcal"
    save_cache(lenet_cache_s2, str(p))
    c2 = load_cache(str(p))
    assert c2.model_name == lenet_cache_s2.model_name
    assert c2.size_class == lenet_cache_s2.size_class
    assert c2.image_ids == lenet_cache_s2.image_ids
    assert set(c2.histograms) == set(lenet_cache_s2.histograms)
    for t, h in lenet_cache_s2.histograms.items():
        h2 = c2.histograms[t]
        assert h2.min_seen == np.float32(h.min_seen)
        assert h2.max_seen == np.float32(h.max_seen)
        assert np.array_equal(h2.bin_counts, h.bin_counts)
        assert h2.n_samples == h.n_samples


def test_wrong_format_rejected(tmp_path, ds):
    from ptqtune import save_dataset
    p = tmp_path / "d.qds"
    save_dataset(ds, str(p))
    with pytest.raises(ValueError):
        load_cache(str(p))


def write_qcal(path, ranges, counts, n_samples):
    header = {"format": "qcal", "version": 1, "model_name": "m", "size_class": "S1",
              "image_ids": [0], "tensors": ["a", "b"], "n_samples": n_samples}
    write_container(str(path), header, [ranges, counts])


GOOD_RANGES = np.array([[-1.0, 2.0], [0.0, 0.0]], dtype=np.float32)
GOOD_COUNTS = np.zeros((2, N_BINS), dtype=np.int64)


@pytest.mark.parametrize("ranges,counts,n_samples", [
    (GOOD_RANGES, np.zeros((2, 16), dtype=np.int64), [0, 0]),         # 16 bins wide
    (GOOD_RANGES, np.zeros((2, N_BINS + 1), dtype=np.int64), [0, 0]),
    (GOOD_RANGES, np.zeros((3, N_BINS), dtype=np.int64), [0, 0]),
    (GOOD_RANGES, np.full((2, N_BINS), 0.5), [0, 0]),                 # fractional
    (GOOD_RANGES, GOOD_COUNTS.astype(np.int32), [0, 0]),
    (GOOD_RANGES, np.where(np.arange(N_BINS) == 7, -1, GOOD_COUNTS), [0, 0]),
    (GOOD_RANGES[:, :1], GOOD_COUNTS, [0, 0]),
    (np.zeros((2, 3), dtype=np.float32), GOOD_COUNTS, [0, 0]),
    (np.array([[-1.0, np.nan], [0.0, 0.0]], dtype=np.float32), GOOD_COUNTS, [0, 0]),
    (np.array([[-np.inf, 2.0], [0.0, 0.0]], dtype=np.float32), GOOD_COUNTS, [0, 0]),
    (np.array([[2.0, -1.0], [0.0, 0.0]], dtype=np.float32), GOOD_COUNTS, [0, 0]),  # lo > hi
    (GOOD_RANGES, GOOD_COUNTS, [0]),
    (GOOD_RANGES, GOOD_COUNTS, [0, 0, 0]),
])
def test_load_cache_rejects_malformed_buffers(tmp_path, ranges, counts, n_samples):
    p = tmp_path / "bad.qcal"
    write_qcal(p, ranges, counts, n_samples)
    with pytest.raises(ValueError):
        load_cache(str(p))


def test_load_cache_accepts_the_same_file_well_formed(tmp_path):
    p = tmp_path / "good.qcal"
    write_qcal(p, GOOD_RANGES, GOOD_COUNTS, [0, 0])
    c = load_cache(str(p))
    assert c.histograms["a"].max_seen == 2.0 and c.histograms["b"].n_samples == 0
