"""Calibration: per-tensor activation histograms over sampled images.

Two-pass build, each pass one ``run_fp32`` walk whose sink sees every
tensor block by block: pass 1 tracks exact (min, max) per tensor, pass 2
bins every observed value into 2048 uniform bins over that range.  Every
tensor holds the bytes of one-image runs, and min, max and bin counts
compose exactly over blocks, so the cache is the one image-by-image
calibration gives.  Three cache size classes stand in for single-image /
medium / large calibration sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .container import _malformed_header, read_container, write_container
from .dataset import Dataset
from .fp32 import _check_batch, run_fp32
from .ir import Graph

N_BINS = 2048
SIZE_CLASSES = {"S1": 1, "S2": 32, "S3": 256}


@dataclass
class TensorHistogram:
    tensor_id: str
    min_seen: float
    max_seen: float
    bin_counts: np.ndarray  # int64[N_BINS]
    _range_cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n_samples(self) -> int:
        return int(self.bin_counts.sum())

    def bin_edges(self) -> np.ndarray:
        return np.linspace(float(self.min_seen), float(self.max_seen), N_BINS + 1)


@dataclass
class CalibrationCache:
    model_name: str
    size_class: str
    image_ids: list[int]
    histograms: dict[str, TensorHistogram]


def select_images(pool: Dataset, size_class: str, seed: int) -> np.ndarray:
    """Deterministically sample calibration-pool indices for a size class."""
    if size_class not in SIZE_CLASSES:
        raise ValueError(f"unknown size class {size_class!r}")
    n = SIZE_CLASSES[size_class]
    if pool.n_calib < n:
        raise ValueError(f"pool of {pool.n_calib} images cannot supply {size_class} ({n})")
    rng = np.random.default_rng(seed)
    idx = rng.choice(pool.n_calib, size=n, replace=False)
    return np.sort(idx)


def calibrate(g: Graph, images: np.ndarray, *, size_class: str = "",
              image_ids: list[int] | None = None) -> CalibrationCache:
    """Histogram every tensor of ``g`` over ``images``; the cache is named
    ``g.name``.

    Each pass is one ``run_fp32`` call, whose sink sees each image block's
    input, then each node's output: pass 1 takes each block's min and max,
    pass 2 makes one float64 ``np.histogram`` call per tensor per block,
    and both compose exactly over blocks.  A NaN or inf activation raises
    ValueError naming its tensor.
    """
    images = _check_batch(g, images)
    ranges: dict[str, tuple[float, float]] = {}  # first-seen tensor order

    def widen(tid: str, v: np.ndarray) -> None:
        lo, hi = float(v.min()), float(v.max())
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError(f"tensor {tid!r} holds NaN or inf")
        lo0, hi0 = ranges.setdefault(tid, (lo, hi))
        ranges[tid] = (min(lo0, lo), max(hi0, hi))

    run_fp32(g, images, sink=widen)

    counts = {t: np.zeros(N_BINS, dtype=np.int64) for t in ranges}

    def add_bins(tid: str, v: np.ndarray) -> None:
        # bin in float64: at float32 precision a near-constant tensor's bin
        # width can underflow and histogram rejects the range
        flat = v.ravel().astype(np.float64)
        lo, hi = ranges[tid]
        if lo == hi:
            counts[tid][0] += flat.size
        else:
            counts[tid] += np.histogram(flat, bins=N_BINS, range=(lo, hi))[0]

    run_fp32(g, images, sink=add_bins)

    hists = {
        t: TensorHistogram(tensor_id=t, min_seen=np.float32(lo),
                           max_seen=np.float32(hi), bin_counts=counts[t])
        for t, (lo, hi) in ranges.items()
    }
    return CalibrationCache(
        model_name=g.name,
        size_class=size_class,
        image_ids=list(image_ids) if image_ids is not None else list(range(len(images))),
        histograms=hists,
    )


def build_cache(g: Graph, d: Dataset, size_class: str, seed: int) -> CalibrationCache:
    idx = select_images(d, size_class, seed)
    return calibrate(g, d.calib_images[idx], size_class=size_class, image_ids=idx.tolist())


def save_cache(cache: CalibrationCache, path: str, meta: dict | None = None) -> None:
    order = sorted(cache.histograms)
    ranges = np.zeros((len(order), 2), dtype=np.float32)
    counts = np.zeros((len(order), N_BINS), dtype=np.int64)
    for i, t in enumerate(order):
        h = cache.histograms[t]
        ranges[i] = (h.min_seen, h.max_seen)
        counts[i] = h.bin_counts
    header = {
        "model_name": cache.model_name,
        "size_class": cache.size_class,
        "image_ids": list(map(int, cache.image_ids)),
        "tensors": order,
        "n_samples": [int(cache.histograms[t].n_samples) for t in order],
    }
    write_container(path, "qcal", header, [ranges, counts], meta)


def load_cache(path: str) -> CalibrationCache:
    header, buffers = read_container(path, "qcal")
    with _malformed_header(path):
        ranges, counts = buffers
        tensors, n_samples = header["tensors"], header["n_samples"]
        n = len(tensors)
        # the KL sweep indexes N_BINS bins and assumes nonnegative integer counts
        if counts.dtype != np.int64 or counts.shape != (n, N_BINS):
            raise ValueError(f"{path}: bin counts are {counts.dtype}{list(counts.shape)}, "
                             f"not int64[{n}, {N_BINS}]")
        if (counts < 0).any():
            raise ValueError(f"{path}: negative bin counts")
        if ranges.shape != (n, 2) or not np.isfinite(ranges).all() \
                or (ranges[:, 0] > ranges[:, 1]).any():
            raise ValueError(f"{path}: ranges must be {n} finite (lo, hi) pairs with lo <= hi")
        if n_samples != counts.sum(axis=1).tolist():
            raise ValueError(f"{path}: n_samples must equal each tensor's bin count sum")
        hists = {}
        for i, t in enumerate(tensors):
            hists[t] = TensorHistogram(
                tensor_id=t, min_seen=ranges[i, 0], max_seen=ranges[i, 1],
                bin_counts=counts[i].copy())
        return CalibrationCache(model_name=header["model_name"],
                                size_class=header["size_class"],
                                image_ids=list(header["image_ids"]),
                                histograms=hists)
