"""Independent reference implementations used to pin expected values.

Everything here is deliberately written the slow, obvious way (scalar loops,
per-candidate recomputation) so that agreement with the library is evidence,
not tautology.
"""

import math

import numpy as np


def round_half_away(v: float) -> int:
    return int(math.floor(v + 0.5)) if v >= 0 else int(math.ceil(v - 0.5))


def round_half_up(v: float) -> int:
    return int(math.floor(v + 0.5))


def conv2d_scalar(x, w, b=None, stride=1, padding=0):
    """Naive O(n^4) convolution. x: (C,H,W), w: (O,C,kh,kw)."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    c, h, ww = x.shape
    o, c2, kh, kw = w.shape
    assert c == c2
    if padding:
        xp = np.zeros((c, h + 2 * padding, ww + 2 * padding))
        xp[:, padding:padding + h, padding:padding + ww] = x
        x = xp
        h, ww = x.shape[1:]
    oh = (h - kh) // stride + 1
    ow = (ww - kw) // stride + 1
    out = np.zeros((o, oh, ow))
    for oc in range(o):
        for i in range(oh):
            for j in range(ow):
                acc = 0.0
                for ic in range(c):
                    for di in range(kh):
                        for dj in range(kw):
                            acc += x[ic, i * stride + di, j * stride + dj] * w[oc, ic, di, dj]
                out[oc, i, j] = acc + (b[oc] if b is not None else 0.0)
    return out


def depthwise_scalar(x, w, b=None, stride=1, padding=0):
    """x: (C,H,W), w: (C,1,kh,kw); one filter per input channel."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    c = x.shape[0]
    outs = []
    for ic in range(c):
        bi = None if b is None else b[ic:ic + 1]
        outs.append(conv2d_scalar(x[ic:ic + 1], w[ic:ic + 1], bi, stride, padding))
    return np.concatenate(outs, axis=0)


def maxpool_scalar(x, kernel, stride):
    c, h, w = x.shape
    oh = (h - kernel) // stride + 1
    ow = (w - kernel) // stride + 1
    out = np.zeros((c, oh, ow))
    for ic in range(c):
        for i in range(oh):
            for j in range(ow):
                out[ic, i, j] = x[ic, i * stride:i * stride + kernel,
                                  j * stride:j * stride + kernel].max()
    return out


def avgpool_scalar(x, kernel, stride):
    c, h, w = x.shape
    oh = (h - kernel) // stride + 1
    ow = (w - kernel) // stride + 1
    out = np.zeros((c, oh, ow))
    for ic in range(c):
        for i in range(oh):
            for j in range(ow):
                out[ic, i, j] = x[ic, i * stride:i * stride + kernel,
                                  j * stride:j * stride + kernel].mean()
    return out


def kl_sweep_brute(bin_counts, min_seen, max_seen, n_bins=2048, levels=128):
    """Exhaustive KL threshold sweep, recomputed per candidate with loops.

    Returns (best_start, best_end, lo, hi) under the same contract as the
    library: prefix windows for nonnegative histograms, zero-bin-centered
    windows for signed ones; outlier mass merged into the window edge bins
    of P; Q formed
    by spreading each of the 128 group sums over the group's P-nonzero bins;
    KL over P>0 bins normalized by total mass; infeasible when Q=0 meets P>0;
    strict improvement only (ties keep the smaller window).
    """
    counts = [float(v) for v in bin_counts]
    total = sum(counts)
    edges = np.linspace(float(min_seen), float(max_seen), n_bins + 1)
    if float(min_seen) == float(max_seen) or total <= 0:
        return 0, n_bins, float(min_seen), float(max_seen)
    signed = float(min_seen) < 0.0
    zero_bin = 0
    if signed:
        width = (float(max_seen) - float(min_seen)) / n_bins
        zero_bin = int((0.0 - float(min_seen)) / width)

    best_kl = math.inf
    best = (0, n_bins)
    for i in range(levels, n_bins + 1):
        start = min(max(zero_bin - i // 2, 0), n_bins - i) if signed else 0
        end = start + i
        win = counts[start:end]
        ref = list(win)
        ref[0] += sum(counts[:start])
        ref[-1] += sum(counts[end:])

        m = i // levels
        q = [0.0] * i
        feasible = True
        for grp in range(levels):
            gs = grp * m
            ge = i if grp == levels - 1 else (grp + 1) * m
            group_sum = sum(win[gs:ge])
            nz = [k for k in range(gs, ge) if ref[k] > 0]
            if nz:
                if group_sum == 0.0:
                    feasible = False
                    break
                for k in nz:
                    q[k] = group_sum / len(nz)
        if not feasible:
            continue
        kl = 0.0
        for k in range(i):
            if ref[k] > 0:
                kl += ref[k] * (math.log(ref[k]) - math.log(q[k]))
        kl /= total
        if kl < best_kl:
            best_kl = kl
            best = (start, end)
    start, end = best
    return start, end, float(edges[start]), float(edges[end])


def finite_diff_grad(loss, y, yhat, eps=1e-5):
    return (loss(y, yhat + eps) - loss(y, yhat - eps)) / (2 * eps)


def gbt_train_reference(X, y, **hyper):
    """The exact-greedy trainer as first written: a stable argsort of every
    column at every node, recursion over row subsets, and ``yhat`` updated by
    re-walking each fresh tree.  ``ptqtune.gbt.train`` must reproduce its
    trees, leaf weights and ``feature_gain`` bit for bit."""
    from ptqtune.gbt import DEFAULT_HYPER, GBTModel, _predict_tree, grad_hess, leaf_weight

    def _best_split(X, g, h, lam, gamma):
        n, d = X.shape
        if n < 2:
            return None
        order = np.argsort(X, axis=0, kind="stable")
        Xs = np.take_along_axis(X, order, axis=0)
        GL = np.cumsum(g[order], axis=0)[:-1]
        HL = np.cumsum(h[order], axis=0)[:-1]
        G, H = g.sum(), h.sum()
        GR, HR = G - GL, H - HL
        gains = 0.5 * (GL**2 / (HL + lam) + GR**2 / (HR + lam) - G**2 / (H + lam)) - gamma
        gains = np.where(Xs[1:] > Xs[:-1], gains, -np.inf)
        flat = gains.T.reshape(-1)  # feature-major: ties -> lowest feature, then position
        best = int(np.argmax(flat))
        best_gain = float(flat[best])
        if not np.isfinite(best_gain) or best_gain <= 0.0:
            return None
        f, k = divmod(best, n - 1)
        return f, float(Xs[k + 1, f]), best_gain

    def _build_tree(X, g, h, depth, hyper, gain_acc):
        lam, gamma = hyper["lam"], hyper["gamma"]
        if depth < hyper["max_depth"]:
            found = _best_split(X, g, h, lam, gamma)
        else:
            found = None
        if found is None:
            return {"leaf": leaf_weight(g.sum(), h.sum(), lam)}
        f, thr, gain = found
        gain_acc[f] += gain
        mask = X[:, f] < thr
        return {
            "feature": f,
            "threshold": thr,
            "left": _build_tree(X[mask], g[mask], h[mask], depth + 1, hyper, gain_acc),
            "right": _build_tree(X[~mask], g[~mask], h[~mask], depth + 1, hyper, gain_acc),
        }

    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    hp = {**DEFAULT_HYPER, **hyper}
    gain_acc = np.zeros(X.shape[1])
    trees = []
    yhat = np.zeros(len(y))
    for _ in range(hp["n_trees"]):
        g, h = grad_hess(y, yhat)
        tree = _build_tree(X, g, h, 0, hp, gain_acc)
        yhat = yhat + hp["eta"] * _predict_tree(tree, X)
        trees.append(tree)
    return GBTModel(trees=trees, hyper=hp, n_features=X.shape[1], feature_gain=gain_acc)


def requantize_int64(acc, multiplier=None, shift=None, zero_point=0):
    """int32 accumulator -> int8 code in int64 arithmetic: ``>>``/``<<`` for a
    shift, float rounding half up for a multiplier."""
    acc = np.asarray(acc, dtype=np.int64)
    if (multiplier is None) == (shift is None):
        raise ValueError("pass exactly one of multiplier/shift")
    if multiplier is not None:
        scaled = np.floor(acc * np.asarray(multiplier, dtype=np.float64) + 0.5)
    elif shift >= 0:
        half = (1 << (shift - 1)) if shift > 0 else 0
        scaled = (acc + half) >> shift
    else:
        scaled = acc << (-shift)
    return np.clip(scaled + zero_point, -128, 127).astype(np.int8)
