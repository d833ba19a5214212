"""Clipping-range selection over calibration histograms.

Max clipping keeps the full observed range.  KL clipping sweeps candidate
windows of the 2048-bin histogram and keeps the window whose 128-level
re-quantization best preserves the distribution:

  * candidates are window widths i = 128 .. 2048 bins; nonnegative
    distributions use prefix windows [0, i), signed ones use windows
    centered on the bin holding value 0.0 (clipped to the histogram), so
    thresholds stay symmetric around the distribution even when the
    observed range is skewed by a one-sided outlier;
  * P = window counts with all outlier mass merged into the window's edge
    bin(s);
  * Q = the window regrouped into 128 contiguous groups of i // 128 bins
    (last group absorbs the remainder); each group's (unmerged) sum is
    spread uniformly over the bins of that group which are nonzero in P;
  * KL = sum over bins with P > 0 of P * (ln P - ln Q), divided by total
    mass; Q = 0 under P > 0 makes the candidate infeasible (infinite KL);
  * ties break toward the smaller window.

The sweep returns the chosen window's bin-edge values, so a full-range
winner returns exactly (min_seen, max_seen).

``_window_kl`` is the one definition of a window's score.  The sweep does
not call it 1,921 times; it scores every window at once from prefix sums,
then re-scores the few windows that could be the winner.

Prefix sums.  Within group g of a window, Q is S_g / n_g on each of the
n_g bins where P > 0, with S_g the group's unmerged sum.  So, with R_g the
group's sum of P and T the total mass,

    T * KL = sum_k P_k ln P_k  -  sum_g R_g ln(S_g / n_g)

where the second sum runs over groups with n_g > 0.  Prefix sums over the
counts, the nonzero flags and c ln c give every window's S_g, n_g and
first sum in O(1) per group; only the two edge bins, which take the
merged outlier mass, need correcting.  R_g is S_g except in the first and
last groups, which add the merged mass.  A window is infeasible when some
group has S_g = 0 and n_g > 0.  The counts are integers and their prefix
sums are int64, so S_g, n_g and this flag are exact.  Widths are processed
in blocks of ``_BLOCK`` so that the (widths x 128) temporaries stay near
2 MiB.

The rounding bound.  Let u = 2**-53, N = 2048 bins and
lam = ln T + ln N.  Every P_k lies in [1, T] and every Q_k in [1/N, T], so
|ln P_k|, |ln Q_k| and |ln P_k - ln Q_k| are all at most lam, and
sum_k P_k ln P_k and sum_g R_g |ln(S_g / n_g)| are at most T * lam.
Assume np.log errs by at most 4 ulp, i.e. 8u relative.

  * ``_window_kl`` rounds each term P_k (ln P_k - ln Q_k) by at most
    21 u lam P_k, sums at most N terms (at most (N - 1) u relative to
    sum |term| <= T lam, in any order), and divides by the exact T:
    it is within (1.02 N + 23) u lam of the exact KL.
  * The prefix sum of c ln c is a running sum of N nonnegative terms:
    each entry is within (1.02 N + 10) u T lam of exact.  The first sum
    takes the difference of two entries plus four edge terms: within
    (2.04 N + 85) u T lam.  The second sums at most 128 <= N terms of at
    most 11 u lam R_g error each: within (1.02 N + 11) u T lam.  The
    difference and the division by T add 2 u lam, so the pass is within
    (3.06 N + 98) u lam of the exact KL.

So the pass and ``_window_kl`` differ by less than
``bound = 5 N u lam`` (about 3e-11 on a calibration histogram); the slack
also covers the rounding of the cutoff below.  The argument needs every
count to be a nonnegative integer and T < 2**53, so that the loop's own
float64 sums of counts are exact; a histogram of fewer than 9e15 values
meets this.

Re-scoring.  Let m be the smallest approximate KL.  The window the loop
picks, w*, has the smallest exact score, so its approximate score is at
most m + 2 bound.  Re-scoring every window within that cutoff with
``_window_kl``, smallest width first and replacing only on a strict ``<``,
therefore returns w*: the selection equals the window-by-window loop's.
"""

from __future__ import annotations

import math

import numpy as np

from .calibration import N_BINS, TensorHistogram
from .schemes import QMAX

_BLOCK = 256  # window widths per block of the vectorized pass
_LEVELS = QMAX + 1  # KL levels: the int8 codes on one side of zero


def clip_range_max(h: TensorHistogram) -> tuple[float, float]:
    return float(h.min_seen), float(h.max_seen)


def _window_kl(win: np.ndarray, ref: np.ndarray, levels: int) -> float:
    """KL between merged window ref (P) and its regrouped spread (Q)."""
    i = len(win)
    m = i // levels
    starts = np.arange(levels) * m
    sums = np.add.reduceat(win, starts)
    nz = ref > 0
    nz_per_group = np.add.reduceat(nz.astype(np.float64), starts)
    gidx = np.minimum(np.arange(i) // m, levels - 1)
    q = np.zeros(i)
    q[nz] = sums[gidx[nz]] / nz_per_group[gidx[nz]]
    if np.any(nz & (q == 0.0)):
        return math.inf
    p = ref[nz]
    return float(np.sum(p * (np.log(p) - np.log(q[nz]))) / ref.sum())


def _window_starts(h: TensorHistogram, levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Each candidate width, smallest first, and the start bin of its window."""
    widths = np.arange(levels, N_BINS + 1)
    lo, hi = float(h.min_seen), float(h.max_seen)
    if not lo < 0.0:
        return widths, np.zeros_like(widths)
    zero_bin = int((0.0 - lo) / ((hi - lo) / N_BINS))
    return widths, np.minimum(np.maximum(zero_bin - widths // 2, 0), N_BINS - widths)


def _reference(counts: np.ndarray, cum: np.ndarray, start: int,
               end: int) -> tuple[np.ndarray, np.ndarray]:
    """A window's counts and its P, the counts with outlier mass merged in."""
    win = counts[start:end]
    ref = win.copy()
    if start > 0:
        ref[0] += cum[start - 1]
    ref[-1] += cum[-1] - cum[end - 1]
    return win, ref


def _xlogx(x: np.ndarray) -> np.ndarray:
    out = np.zeros(np.shape(x))
    np.log(x, out=out, where=x > 0)
    return out * x


def _approx_kl(counts: np.ndarray, widths: np.ndarray, starts: np.ndarray,
               levels: int) -> tuple[np.ndarray, float]:
    """Every window's KL from prefix sums (inf where infeasible), and the
    bound on its distance from ``_window_kl``; see the module docstring."""
    c = np.asarray(counts, dtype=np.int64)
    xlx = _xlogx(c)
    C = np.concatenate(([0], np.cumsum(c)))
    Z = np.concatenate(([0], np.cumsum(c > 0)))
    PL = np.concatenate(([0.0], np.cumsum(xlx)))
    total = int(C[-1])
    group = np.arange(levels + 1)
    kl = np.empty(len(widths))
    for b in range(0, len(widths), _BLOCK):
        w, s = widths[b:b + _BLOCK], starts[b:b + _BLOCK]
        e = s + w
        bounds = s[:, None] + group * (w // levels)[:, None]
        bounds[:, -1] = e
        S = np.diff(C[bounds], axis=1)
        nz = np.diff(Z[bounds], axis=1)
        left, right = C[s], total - C[e]
        first, last = c[s] + left, c[e - 1] + right
        nz[:, 0] += (first > 0) & (c[s] == 0)
        nz[:, -1] += (last > 0) & (c[e - 1] == 0)
        R = S.astype(np.float64)
        R[:, 0] += left
        R[:, -1] += right
        log_q = np.zeros(S.shape)
        np.log(S / np.maximum(nz, 1), out=log_q, where=S > 0)
        plogp = PL[e] - PL[s] - xlx[s] - xlx[e - 1] + _xlogx(first) + _xlogx(last)
        kl[b:b + _BLOCK] = np.where(np.any((S == 0) & (nz > 0), axis=1), math.inf,
                                    (plogp - np.sum(R * log_q, axis=1)) / total)
    bound = 5 * N_BINS * 2.0 ** -53 * (math.log(total) + math.log(N_BINS))
    return kl, bound


def clip_range_kl(h: TensorHistogram) -> tuple[float, float]:
    if h.n_samples <= 0:
        raise ValueError(f"histogram {h.tensor_id!r} is empty")
    lo, hi = float(h.min_seen), float(h.max_seen)
    if lo == hi:
        return lo, hi
    counts = np.asarray(h.bin_counts, dtype=np.float64)
    widths, starts = _window_starts(h, _LEVELS)
    approx, bound = _approx_kl(h.bin_counts, widths, starts, _LEVELS)
    cum = np.cumsum(counts)

    best_kl = math.inf
    best = (0, N_BINS)
    for j in np.flatnonzero(approx <= approx.min(initial=math.inf) + 2 * bound):
        start, end = int(starts[j]), int(starts[j] + widths[j])
        kl = _window_kl(*_reference(counts, cum, start, end), _LEVELS)
        if kl < best_kl:
            best_kl = kl
            best = (start, end)
    start, end = best
    edges = h.bin_edges()
    return float(edges[start]), float(edges[end])


def clipped_range(h: TensorHistogram, mode: str) -> tuple[float, float]:
    """Memoized dispatch; KL sweeps are reused across configurations."""
    if mode not in ("Max", "KL"):
        raise ValueError(f"unknown clipping mode {mode!r}")
    if mode not in h._range_cache:
        h._range_cache[mode] = clip_range_max(h) if mode == "Max" else clip_range_kl(h)
    return h._range_cache[mode]
