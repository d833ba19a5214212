"""Range clipping: Max is exact min/max; the divergence-based mode must
match a plain-Python brute-force sweep bin for bin, and the window-by-window
loop on drawn histograms."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import clip_range_kl_loop, kl_sweep_brute
from ptqtune import TensorHistogram, clip_range_kl, clip_range_max, clipped_range
from ptqtune.calibration import N_BINS
from ptqtune.clipping import _approx_kl, _reference, _window_kl, _window_starts


def hist_from_values(values, tid="t"):
    values = np.asarray(values, dtype=np.float64)
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        counts = np.zeros(N_BINS, dtype=np.int64)
        counts[0] = values.size
    else:
        counts, _ = np.histogram(values, bins=N_BINS, range=(lo, hi))
    return TensorHistogram(tensor_id=tid, min_seen=lo, max_seen=hi,
                           bin_counts=counts.astype(np.int64))


def hist_from_counts(counts, lo, hi, tid="t"):
    counts = np.asarray(counts, dtype=np.int64)
    assert counts.shape == (N_BINS,)
    return TensorHistogram(tensor_id=tid, min_seen=float(lo), max_seen=float(hi),
                           bin_counts=counts)


def test_max_mode_returns_observed_range():
    h = hist_from_values(np.linspace(-3.5, 8.25, 1000))
    assert clip_range_max(h) == (-3.5, 8.25)


def test_uniform_histogram_keeps_full_range():
    # every window drops mass into merged edge bins, so only the full
    # window is divergence-free: threshold == max_seen
    h = hist_from_counts(np.full(N_BINS, 10), 0.0, 10.0)
    lo, hi = clip_range_kl(h)
    assert (lo, hi) == (0.0, 10.0)


def test_gaussian_keeps_bulk_may_trim_tails():
    rng = np.random.default_rng(3)
    h = hist_from_values(rng.standard_normal(20000))
    lo, hi = clip_range_kl(h)
    # tail trimming is allowed (that is the point of the sweep) but the
    # central mass must survive and the range stays inside what was seen
    assert h.min_seen <= lo <= -2.5 and 2.5 <= hi <= h.max_seen


def test_outlier_is_clipped_away():
    rng = np.random.default_rng(4)
    vals = np.concatenate([rng.standard_normal(20000), [100.0]])
    h = hist_from_values(vals)
    lo, hi = clip_range_kl(h)
    assert abs(hi) < 100.0
    assert abs(lo) < 100.0
    assert hi > 2.0  # keeps the bulk


def test_two_point_histogram_shrinks_to_smallest_window():
    # mass only in bins 0 and 127: the 128-bin window already represents
    # the distribution exactly, so the sweep stops at the smallest window
    counts = np.zeros(N_BINS, dtype=np.int64)
    counts[0] = 500
    counts[127] = 500
    h = hist_from_counts(counts, 0.0, 2048.0)
    lo, hi = clip_range_kl(h)
    edges = h.bin_edges()
    assert (lo, hi) == (float(edges[0]), float(edges[128]))


@pytest.mark.parametrize("case", range(8))
def test_kl_matches_brute_force_sweep(case):
    rng = np.random.default_rng(100 + case)
    kind = case % 4
    if kind == 0:
        vals = rng.standard_normal(5000)
    elif kind == 1:
        vals = rng.uniform(-2, 5, size=5000)
    elif kind == 2:
        vals = np.concatenate([rng.standard_normal(5000),
                               rng.choice([-60.0, 80.0], size=3)])
    else:
        vals = np.abs(rng.standard_normal(5000))  # one-sided
    h = hist_from_values(vals)
    lo, hi = clip_range_kl(h)
    _, _, blo, bhi = kl_sweep_brute(h.bin_counts, h.min_seen, h.max_seen)
    assert (lo, hi) == (blo, bhi)


def test_signed_window_is_centered():
    rng = np.random.default_rng(9)
    vals = np.concatenate([rng.standard_normal(30000), [-50.0, 50.0]])
    h = hist_from_values(vals)
    lo, hi = clip_range_kl(h)
    assert lo < 0 < hi
    # roughly symmetric window on a symmetric distribution
    assert abs(abs(lo) - abs(hi)) < 0.2 * (hi - lo)


def test_dispatch_and_memoization():
    h = hist_from_values(np.random.default_rng(0).standard_normal(4000))
    assert clipped_range(h, "Max") == (h.min_seen, h.max_seen)
    a = clipped_range(h, "KL")
    b = clipped_range(h, "KL")  # second call hits the cache
    assert a == b
    assert "KL" in h._range_cache
    with pytest.raises(ValueError):
        clipped_range(h, "percentile")


def test_degenerate_single_bin_histogram():
    h = hist_from_values(np.full(100, 3.0))
    assert clip_range_max(h) == (3.0, 3.0)
    lo, hi = clip_range_kl(h)
    assert lo == hi == 3.0


@st.composite
def drawn_histograms(draw):
    """Sparse, spiky and dense counts up to 2**40 per bin, one or two
    occupied bins, mirrored two-point mass (exact ties), on one-sided ranges
    and on signed ones with the zero bin at the first bin, mid, the last bin
    or past it."""
    top = draw(st.sampled_from([1, 50, 2**20, 2**40]))
    shape = draw(st.sampled_from(["one", "two", "mirrored", "sparse", "spiky", "dense"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = np.zeros(N_BINS, dtype=np.int64)
    if shape in ("one", "two"):
        k = 1 if shape == "one" else 2
        bins = draw(st.lists(st.integers(0, N_BINS - 1), min_size=k, max_size=k, unique=True))
        counts[bins] = rng.integers(1, top, size=k, endpoint=True)
    elif shape == "mirrored":
        b = draw(st.integers(0, N_BINS // 2 - 1))
        counts[b] = counts[N_BINS - 1 - b] = rng.integers(1, top, endpoint=True)
    elif shape == "sparse":
        bins = rng.choice(N_BINS, size=int(rng.integers(3, 64)), replace=False)
        counts[bins] = rng.integers(1, top, size=len(bins), endpoint=True)
    elif shape == "spiky":
        counts[:] = rng.poisson(rng.uniform(0.05, 3.0), size=N_BINS)
        bins = rng.choice(N_BINS, size=int(rng.integers(1, 8)), replace=False)
        counts[bins] += rng.integers(1, top, size=len(bins), endpoint=True)
    else:
        x = np.arange(N_BINS)
        bell = np.exp(-0.5 * ((x - rng.uniform(0, N_BINS)) / rng.uniform(20, 600)) ** 2)
        counts[:] = np.floor(bell * top)
        counts[rng.integers(N_BINS)] += 1
    width = draw(st.sampled_from([1e-3, 1.0, 37.5]))
    zero = draw(st.sampled_from(["one-sided", "first", "mid", "last", "past", "any"]))
    zero_bin = {"one-sided": None, "first": 0, "mid": N_BINS // 2, "last": N_BINS - 1,
                "past": N_BINS + 5, "any": draw(st.integers(0, N_BINS - 1))}[zero]
    lo = 0.0 if zero_bin is None else -(zero_bin + 0.5) * width / N_BINS
    return hist_from_counts(counts, lo, lo + width)


def _window_scores(h):
    """``_window_kl`` of every window, in sweep order."""
    widths, starts = _window_starts(h, 128)
    counts = np.asarray(h.bin_counts, dtype=np.float64)
    cum = np.cumsum(counts)
    return np.array([_window_kl(*_reference(counts, cum, int(s), int(s + w)), 128)
                     for w, s in zip(widths, starts)])


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(drawn_histograms())
def test_kl_sweep_matches_window_loop_within_rounding_bound(h):
    assert clip_range_kl(h) == clip_range_kl_loop(h)
    widths, starts = _window_starts(h, 128)
    approx, bound = _approx_kl(h.bin_counts, widths, starts, 128)
    exact = _window_scores(h)
    assert np.array_equal(np.isinf(approx), np.isinf(exact))
    feasible = np.isfinite(exact)
    assert np.max(np.abs(approx[feasible] - exact[feasible])) < bound


@settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(drawn_histograms())
def test_kl_sweep_matches_brute_force_on_drawn_histograms(h):
    _, _, blo, bhi = kl_sweep_brute(h.bin_counts, h.min_seen, h.max_seen)
    assert clip_range_kl(h) == (blo, bhi)


def test_kl_sweep_peak_memory_stays_under_4_mib():
    rng = np.random.default_rng(7)
    h = hist_from_values(np.concatenate([rng.standard_normal(50000), [40.0]]))
    tracemalloc.start()
    try:
        clip_range_kl(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.2f} MiB"

