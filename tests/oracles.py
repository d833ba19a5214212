"""Independent reference implementations used to pin expected values.

Everything here is deliberately written the slow, obvious way (scalar loops,
per-candidate recomputation) so that agreement with the library is evidence,
not tautology.
"""

import json
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


def clip_range_kl_loop(h, n=8):
    """The KL sweep as first written: one window at a time, each scored by
    ``_window_kl``.  ``ptqtune.clipping.clip_range_kl`` must return the same
    ``(lo, hi)`` for every histogram."""
    from ptqtune.calibration import N_BINS
    from ptqtune.clipping import _window_kl

    if h.n_samples <= 0:
        raise ValueError(f"histogram {h.tensor_id!r} is empty")
    lo, hi = float(h.min_seen), float(h.max_seen)
    if lo == hi:
        return lo, hi
    counts = np.asarray(h.bin_counts, dtype=np.float64)
    total = counts.sum()
    if total <= 0:
        return lo, hi
    levels = 2 ** (n - 1)
    signed = lo < 0.0
    zero_bin = int((0.0 - lo) / ((hi - lo) / N_BINS)) if signed else 0
    cum = np.cumsum(counts)
    edges = h.bin_edges()

    best_kl = math.inf
    best = (0, N_BINS)
    for i in range(levels, N_BINS + 1):
        start = min(max(zero_bin - i // 2, 0), N_BINS - i) if signed else 0
        end = start + i
        win = counts[start:end]
        ref = win.copy()
        if start > 0:
            ref[0] += cum[start - 1]
        ref[-1] += total - cum[end - 1]
        kl = _window_kl(win, ref, levels)
        if kl < best_kl:
            best_kl = kl
            best = (start, end)
    start, end = best
    return float(edges[start]), float(edges[end])


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


def save_gbt(model, path: str) -> None:
    """Write ``model`` as a JSON document, so that two trained surrogates
    can be compared byte for byte (the golden surrogate hashes)."""
    doc = {
        "format": "gbt",
        "version": 1,
        "hyper": model.hyper,
        "n_features": model.n_features,
        "feature_gain": model.feature_gain.tolist(),
        "trees": model.trees,
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)


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


def add_int64(xa, za, ka, xb, zb, kb, zo, ko):
    """int8 add in int64: codes ``xa`` (zero point ``za``, scale 2**ka) plus
    ``xb`` (``zb``, 2**kb) -> codes at (``zo``, 2**ko).  Each zero-shifted
    input is aligned by ``<<`` to the smaller exponent, the two are summed,
    and the sum is requantized by a shift to the output exponent."""
    kmin = min(ka, kb)
    acc = ((np.asarray(xa, dtype=np.int64) - za) << (ka - kmin)) \
        + ((np.asarray(xb, dtype=np.int64) - zb) << (kb - kmin))
    return requantize_int64(acc, shift=ko - kmin, zero_point=zo)


def run_reference(qg, batch):
    """A quantized graph run straight from the spec, one node at a time on the
    whole batch: int8 codes as int64, integer sums in int64, and every
    requantize through ``requantize_int64`` (``add_int64`` for an ``add`` on
    power-of-two scales).  A layer kept in float runs ``fp32._float_node``
    with one sgemm per image on this walk's own inputs, dequantized here,
    and its boundary codes are quantized here.  Returns the graph output:
    int8 codes, or float32 values for an output kept in float."""
    from numpy.lib.stride_tricks import sliding_window_view

    from ptqtune.fp32 import _float_node
    from ptqtune.ir import COMPUTE_KINDS, INPUT_TENSOR, conv_args, pool_args

    g, act = qg.graph, qg.act_params

    def quantize(x, p):  # round half away from zero, then clamp
        v = np.asarray(x, dtype=np.float64) / float(p.scale) + float(p.zero_point)
        return np.clip(np.sign(v) * np.floor(np.abs(v) + 0.5), -128, 127).astype(np.int64)

    def dequantize(codes, p):
        return ((codes.astype(np.float64) - float(p.zero_point)) * float(p.scale)).astype(np.float32)

    def windows(x, k, stride, pad=0):  # (N, C, OH, OW, k, k)
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        return sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]

    batch = np.asarray(batch, dtype=np.float32)
    env = {INPUT_TENSOR: quantize(batch, act[INPUT_TENSOR]) if INPUT_TENSOR in act else batch}
    for node in g.nodes:
        xs = [env[t] for t in node.data_inputs]
        if not qg.on_codes(node):
            xs = [dequantize(x, act[t]) if t in act else x for x, t in zip(xs, node.data_inputs)]
            out = _float_node(node, xs, g.weights)
            env[node.output] = quantize(out, act[node.output]) if node.output in act else out
            continue
        ps = [act[t] for t in node.data_inputs]
        po = act[node.output]
        zo, so = int(po.zero_point), float(po.scale)
        x, zx = xs[0], int(ps[0].zero_point)
        if node.kind in COMPUTE_KINDS:
            wp = qg.weight_params[node.weight_id]
            w = g.weights[node.weight_id].astype(np.int64)
            zw, sw = np.asarray(wp.zero_point), np.asarray(wp.scale, dtype=np.float64)
            if wp.axis is not None:
                zw = zw.reshape((-1,) + (1,) * (w.ndim - 1))
            w = w - zw.astype(np.int64)
            if node.kind == "fully_connected":
                acc = (x - zx).reshape(len(x), -1) @ w.T
            else:
                stride, pad = conv_args(node)
                win = windows(x - zx, w.shape[-1], stride, pad)
                acc = (np.einsum("nchwij,cij->nchw", win, w[:, 0])
                       if node.kind == "depthwise_conv2d"
                       else np.einsum("nchwij,ocij->nohw", win, w))
            shape = (1, -1) + (1,) * (acc.ndim - 2)
            if node.bias_id is not None:
                acc = acc + g.weights[node.bias_id].astype(np.int64).reshape(shape)
            acc = np.clip(acc, -(2**31), 2**31 - 1)
            multiplier = float(ps[0].scale) * (sw.reshape(shape) if sw.ndim else sw) / so
            out = requantize_int64(acc, multiplier=multiplier, zero_point=zo).astype(np.int64)
            if node.attrs.get("fused_relu", False):
                out = np.maximum(out, zo)
        elif node.kind == "relu":
            out = np.maximum(x, zo)
        elif node.kind == "maxpool":
            out = windows(x, *pool_args(node)).max(axis=(-2, -1))
        elif node.kind == "avgpool":
            k, stride = pool_args(node)
            total = windows(x, k, stride).sum(axis=(-2, -1)) - zo * k * k
            out = requantize_int64(total, multiplier=1.0 / (k * k), zero_point=zo).astype(np.int64)
        elif node.kind == "add":
            pa, pb = ps
            mant, exp = zip(*(math.frexp(float(s)) for s in (pa.scale, pb.scale, so)))
            if set(mant) == {0.5}:  # power-of-two scales 2**(exp - 1)
                out = add_int64(x, int(pa.zero_point), exp[0] - 1, xs[1], int(pb.zero_point),
                                exp[1] - 1, zo, exp[2] - 1).astype(np.int64)
            else:  # both inputs at the output scale in float64, rounded half up once
                v = ((x - int(pa.zero_point)) * (float(pa.scale) / so)
                     + (xs[1] - int(pb.zero_point)) * (float(pb.scale) / so))
                out = np.clip(np.floor(v + 0.5) + zo, -128, 127).astype(np.int64)
        elif node.kind == "concat":
            out = np.concatenate([
                requantize_int64(xi - int(p.zero_point), multiplier=float(p.scale) / so,
                                 zero_point=zo).astype(np.int64)
                for xi, p in zip(xs, ps)], axis=1)
        elif node.kind == "softmax":
            out = x  # a monotone map: the identity on codes
        else:
            raise ValueError(f"unknown node kind {node.kind!r}")
        env[node.output] = out
    out = env[g.output_tensor()]
    return out.astype(np.int8) if g.output_tensor() in act else out


def calibrate_per_image(g, images):
    """Calibration image by image, one ``run_fp32`` call per image in each
    of two passes: the exact (min, max) of every tensor the sink sees, then
    2048 bins over that range, in float64, with a constant tensor's values
    all in bin 0.  Returns ``{tensor: (min, max, counts)}`` in first-seen
    tensor order, min and max as float32."""
    from ptqtune.calibration import N_BINS
    from ptqtune.fp32 import run_fp32

    ranges = {}

    def widen(tid, v):
        lo, hi = float(v.min()), float(v.max())
        lo0, hi0 = ranges.setdefault(tid, (lo, hi))
        ranges[tid] = (min(lo0, lo), max(hi0, hi))

    for i in range(len(images)):
        run_fp32(g, images[i:i + 1], sink=widen)
    counts = {t: np.zeros(N_BINS, dtype=np.int64) for t in ranges}

    def add_bins(tid, v):
        flat = v.ravel().astype(np.float64)
        lo, hi = ranges[tid]
        if lo == hi:
            counts[tid][0] += flat.size
        else:
            counts[tid] += np.histogram(flat, bins=N_BINS, range=(lo, hi))[0]

    for i in range(len(images)):
        run_fp32(g, images[i:i + 1], sink=add_bins)
    return {t: (np.float32(lo), np.float32(hi), counts[t]) for t, (lo, hi) in ranges.items()}
