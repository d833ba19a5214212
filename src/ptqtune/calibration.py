"""Calibration: per-tensor activation histograms over sampled images.

Two-pass build: pass 1 tracks exact (min, max) per tensor, pass 2 bins every
observed value into 2048 uniform bins over that range.  Three cache size
classes stand in for single-image / medium / large calibration sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .container import _malformed_header, read_container, write_container
from .dataset import Dataset
from .fp32 import observe_activations
from .ir import Graph

N_BINS = 2048
SIZE_CLASSES = {"S1": 1, "S2": 32, "S3": 256}


@dataclass
class TensorHistogram:
    tensor_id: str
    min_seen: float
    max_seen: float
    bin_counts: np.ndarray  # int64[N_BINS]
    n_samples: int
    _range_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def bin_edges(self) -> np.ndarray:
        return np.linspace(float(self.min_seen), float(self.max_seen), N_BINS + 1)


@dataclass
class CalibrationCache:
    model_name: str
    size_class: str
    image_ids: list[int]
    histograms: dict[str, TensorHistogram]


def select_images(pool: Dataset | np.ndarray, size_class: str, seed: int) -> np.ndarray:
    """Deterministically sample calibration-pool indices for a size class."""
    if size_class not in SIZE_CLASSES:
        raise ValueError(f"unknown size class {size_class!r}")
    n = SIZE_CLASSES[size_class]
    pool_n = pool.n_calib if isinstance(pool, Dataset) else len(pool)
    if pool_n < n:
        raise ValueError(f"pool of {pool_n} images cannot supply {size_class} ({n})")
    rng = np.random.default_rng(seed)
    idx = rng.choice(pool_n, size=n, replace=False)
    return np.sort(idx)


def calibrate(g: Graph, images: np.ndarray, *, model_name: str | None = None,
              size_class: str = "", image_ids: list[int] | None = None) -> CalibrationCache:
    images = np.asarray(images, dtype=np.float32)
    if images.ndim == 3:
        images = images[None]

    mins: dict[str, float] = {}
    maxs: dict[str, float] = {}
    order: list[str] = []

    def minmax_sink(tid: str, v: np.ndarray) -> None:
        lo, hi = float(v.min()), float(v.max())
        if tid not in mins:
            order.append(tid)
            mins[tid], maxs[tid] = lo, hi
        else:
            mins[tid] = min(mins[tid], lo)
            maxs[tid] = max(maxs[tid], hi)

    observe_activations(g, images, minmax_sink)

    counts = {t: np.zeros(N_BINS, dtype=np.int64) for t in order}
    nsamp = {t: 0 for t in order}

    def bin_sink(tid: str, v: np.ndarray) -> None:
        # bin in float64: at float32 precision a near-constant tensor's bin
        # width can underflow and histogram rejects the range
        flat = v.ravel().astype(np.float64)
        lo, hi = mins[tid], maxs[tid]
        if lo == hi:
            counts[tid][0] += flat.size
        else:
            c, _ = np.histogram(flat, bins=N_BINS, range=(lo, hi))
            counts[tid] += c
        nsamp[tid] += flat.size

    observe_activations(g, images, bin_sink)

    hists = {
        t: TensorHistogram(tensor_id=t, min_seen=np.float32(mins[t]),
                           max_seen=np.float32(maxs[t]),
                           bin_counts=counts[t], n_samples=nsamp[t])
        for t in order
    }
    return CalibrationCache(
        model_name=model_name if model_name is not None else g.name,
        size_class=size_class,
        image_ids=list(image_ids) if image_ids is not None else list(range(len(images))),
        histograms=hists,
    )


def build_cache(g: Graph, d: Dataset, size_class: str, seed: int) -> CalibrationCache:
    idx = select_images(d, size_class, seed)
    return calibrate(g, d.calib_images[idx], model_name=g.name,
                     size_class=size_class, image_ids=idx.tolist())


def save_cache(cache: CalibrationCache, path: str, meta: dict | None = None) -> None:
    order = sorted(cache.histograms)
    ranges = np.zeros((len(order), 2), dtype=np.float32)
    counts = np.zeros((len(order), N_BINS), dtype=np.int64)
    for i, t in enumerate(order):
        h = cache.histograms[t]
        ranges[i] = (h.min_seen, h.max_seen)
        counts[i] = h.bin_counts
    header = {
        "format": "qcal",
        "version": 1,
        "model_name": cache.model_name,
        "size_class": cache.size_class,
        "image_ids": list(map(int, cache.image_ids)),
        "tensors": order,
        "n_samples": [int(cache.histograms[t].n_samples) for t in order],
    }
    if meta:
        header["meta"] = meta
    write_container(path, header, [ranges, counts])


def load_cache(path: str) -> CalibrationCache:
    header, buffers = read_container(path)
    if header.get("format") != "qcal":
        raise ValueError(f"{path}: not a calibration cache")
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
        if len(n_samples) != n:
            raise ValueError(f"{path}: {len(n_samples)} sample counts for {n} tensors")
        hists = {}
        for i, t in enumerate(tensors):
            hists[t] = TensorHistogram(
                tensor_id=t, min_seen=ranges[i, 0], max_seen=ranges[i, 1],
                bin_counts=counts[i].copy(), n_samples=int(n_samples[i]),
            )
        return CalibrationCache(model_name=header["model_name"],
                                size_class=header["size_class"],
                                image_ids=list(header["image_ids"]),
                                histograms=hists)
