"""Deterministic synthetic classification images.

Each class k has a fixed template pattern; an image is its class template
plus seeded Gaussian pixel noise.  Templates are mutually orthonormal
directions in pixel space (QR of a seeded Gaussian matrix, rescaled to
unit per-pixel RMS), so nearest-template classification is easy and a
planted linear head separates the classes with a wide margin — which is
what lets desk-scale accuracy comparisons between fp32 and int8 mean
anything.

The templates are fixed: one per class of ``N_CLASSES``, each of
``IMAGE_SHAPE``; dataset seeds affect only labels and noise.  Fixture
generators rely on this to plant classifier heads that agree with any
dataset drawn here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .container import _malformed_header, read_container, write_container
from .ir import is_integer

_TEMPLATE_SEED = 77041  # fixed: templates are part of the data definition

N_CLASSES = 10
IMAGE_SHAPE = (3, 32, 32)
_CHUNK = 32  # images per noise draw


def class_templates() -> np.ndarray:
    """(N_CLASSES, C, H, W) fp32 templates, orthogonal with unit pixel RMS."""
    d = int(np.prod(IMAGE_SHAPE))
    rng = np.random.default_rng(_TEMPLATE_SEED)
    m = rng.standard_normal((d, N_CLASSES))
    q, _ = np.linalg.qr(m)  # columns orthonormal
    t = q.T * np.sqrt(d)    # unit RMS per pixel
    return t.reshape((N_CLASSES,) + IMAGE_SHAPE).astype(np.float32)


@dataclass
class Dataset:
    images: np.ndarray  # (N, C, H, W) fp32
    labels: np.ndarray  # (N,) int64
    n_calib: int        # images[:n_calib] form the calibration pool

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise ValueError("images/labels length mismatch")
        if not 0 <= self.n_calib <= len(self.images):
            raise ValueError("bad calibration split")

    @property
    def calib_images(self) -> np.ndarray:
        return self.images[: self.n_calib]

    @property
    def eval_images(self) -> np.ndarray:
        return self.images[self.n_calib:]

    @property
    def eval_labels(self) -> np.ndarray:
        return self.labels[self.n_calib:]


def make_dataset(n_calib: int = 300, n_eval: int = 200, seed: int = 0,
                 noise: float = 0.25) -> Dataset:
    if not 0 <= noise < np.inf:
        raise ValueError(f"noise {noise} is not a finite number >= 0")
    rng = np.random.default_rng(seed)
    n = n_calib + n_eval
    labels = rng.integers(0, N_CLASSES, size=n)
    templates = class_templates()
    images = np.empty((n,) + IMAGE_SHAPE, np.float32)
    # consecutive draws continue one normal stream, so the chunks give the
    # bytes of one (n, C, H, W) draw without its float64 temporaries
    for lo in range(0, n, _CHUNK):
        rows = slice(lo, lo + _CHUNK)
        z = rng.standard_normal((len(labels[rows]),) + IMAGE_SHAPE)
        images[rows] = templates[labels[rows]] + noise * z
    return Dataset(images=images, labels=labels.astype(np.int64), n_calib=n_calib)


def save_dataset(d: Dataset, path: str, meta: dict | None = None) -> None:
    write_container(path, "qds", {"n_calib": d.n_calib}, [d.images, d.labels], meta)


def load_dataset(path: str) -> Dataset:
    header, buffers = read_container(path, "qds")
    with _malformed_header(path):
        images, labels = buffers
        if images.ndim != 4:
            raise ValueError(f"{path}: images have shape {images.shape}, not (N, C, H, W)")
        if labels.shape != images.shape[:1]:
            raise ValueError(f"{path}: labels have shape {labels.shape}, not ({len(images)},)")
        if not np.isfinite(images).all():
            raise ValueError(f"{path}: images hold NaN or inf")
        # a label no class can match scores every prediction wrong
        if labels.dtype.kind not in "iu":
            raise ValueError(f"{path}: labels are {labels.dtype}, not integers")
        if ((labels < 0) | (labels >= N_CLASSES)).any():
            raise ValueError(f"{path}: labels must lie in [0, {N_CLASSES})")
        n_calib = header["n_calib"]
        if not is_integer(n_calib):
            raise ValueError(f"{path}: n_calib {n_calib!r} is not an integer")
        return Dataset(images=images, labels=labels, n_calib=n_calib)
