"""Linear int8 quantization schemes.

int8 is the only code width: every range below, and the KL sweep's 128
levels in ``clipping``, derive from ``QMIN`` and ``QMAX``.

Four families over signed int8 codes in [QMIN, QMAX] = [-128, 127], all
in ``params_for_range``, which checks the range once:

  Asymmetric       scale=(max-min)/255,  zero_point=-ROUND(min/scale)-128
  Symmetric        scale=max_abs/127,    zero_point=0
  SymmetricUint8   min>=0: scale=max_abs/255, zero_point=-128
                   else:   falls back to Symmetric
  SymmetricPower2  scale=2^ceil(log2(symmetric scale)), zero_point=0

quant(v)  = clamp(ROUND(v/scale + zero_point), -128, 127)
dequant(c) = scale * (c - zero_point)

ROUND is round-half-away-from-zero, applied identically in every scheme.
Asymmetric ranges are first extended to include 0.0 so the real zero is
always exactly representable and the zero point stays in [-128, 127].
A degenerate range, whose fp32 scale is 0 (max_abs = 0, min = max = 0, or
a range so narrow that its scale underflows, such as (0, 1e-44)), gets
scale 1.0, so its values map to the scheme's zero code; the three
symmetric schemes share that rule and their max_abs scale.  Scales are
stored as fp32; the power-of-two scale is derived from the *stored* fp32
symmetric scale, which pins the audit property scale_p2/scale_sym in
[1, 2) exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

QMIN, QMAX = -128, 127


class Scheme(str, Enum):
    Asymmetric = "Asymmetric"
    Symmetric = "Symmetric"
    SymmetricUint8 = "SymmetricUint8"
    SymmetricPower2 = "SymmetricPower2"


@dataclass
class QuantParams:
    """(scale, zero_point) for one tensor or one channel axis.

    scale/zero_point are scalars for tensor granularity, 1-d arrays indexed
    by ``axis`` (always the output-channel axis, 0) for channel granularity.
    """

    scale: np.ndarray | float
    zero_point: np.ndarray | int
    axis: int | None = None


def round_half_away(x: np.ndarray | float) -> np.ndarray | float:
    """Round halves away from zero (the ROUND used by all schemes)."""
    return _round_half_away(np.array(x, dtype=np.float64))


def _round_half_away(v: np.ndarray) -> np.ndarray:
    """``round_half_away`` in place on the float64 array ``v``.  Adding
    +-0.5 and truncating equals -floor(|v| + 0.5) for negative ``v``, since
    round-to-nearest is sign-symmetric: fl(v - 0.5) == -fl(|v| + 0.5)."""
    v += np.copysign(0.5, v)
    return np.trunc(v, out=v)


def ceil_log2(x: float) -> int:
    """Exact ceil(log2(x)) for positive finite floats via frexp."""
    if not (x > 0 and math.isfinite(x)):
        raise ValueError(f"ceil_log2 needs a positive finite value, got {x}")
    m, e = math.frexp(x)  # x = m * 2**e, m in [0.5, 1)
    return e - 1 if m == 0.5 else e


_SYMMETRIC = (Scheme.Symmetric, Scheme.SymmetricUint8, Scheme.SymmetricPower2)


def params_for_range(scheme: Scheme, vmin: float, vmax: float) -> QuantParams:
    """(scale, zero_point) of ``scheme`` for an observed or clipped
    (min, max) range: every scheme's rule, written once."""
    vmin, vmax = float(vmin), float(vmax)
    if not (math.isfinite(vmin) and math.isfinite(vmax)):
        raise ValueError(f"non-finite range ({vmin}, {vmax})")
    if scheme == Scheme.Asymmetric:
        if vmin > vmax:
            raise ValueError(f"min {vmin} > max {vmax}")
        vmin, vmax = min(vmin, 0.0), max(vmax, 0.0)  # keep 0.0 representable
        scale = (vmax - vmin) / (QMAX - QMIN)
        if np.float32(scale) == 0.0:  # degenerate
            return QuantParams(scale=np.float32(1.0), zero_point=0)
        # zero point from the full-precision scale: a centered range like
        # (-1, 1) must land min/scale on an exact half so ROUND settles it,
        # which the fp32-rounded scale would miss by one ulp
        zp = int(-round_half_away(vmin / scale)) + QMIN
        return QuantParams(scale=np.float32(scale), zero_point=zp)
    if scheme not in _SYMMETRIC:
        raise ValueError(f"unknown scheme {scheme!r}")
    max_abs = max(abs(vmin), abs(vmax))
    unsigned = scheme == Scheme.SymmetricUint8 and vmin >= 0.0
    zp = QMIN if unsigned else 0
    scale = np.float32(max_abs / ((QMAX - QMIN) if unsigned else QMAX))
    if scale == 0.0:  # degenerate
        return QuantParams(scale=np.float32(1.0), zero_point=zp)
    if scheme == Scheme.SymmetricPower2:
        scale = np.float32(2.0 ** ceil_log2(float(scale)))
    return QuantParams(scale=scale, zero_point=zp)


def _broadcast(p: QuantParams, ndim: int) -> tuple[np.ndarray, np.ndarray]:
    scale = np.asarray(p.scale, dtype=np.float64)
    zp = np.asarray(p.zero_point, dtype=np.float64)
    if p.axis is not None:
        shape = [1] * ndim
        shape[p.axis] = -1
        scale = scale.reshape(shape)
        zp = zp.reshape(shape)
    return scale, zp


def quantize_array(x: np.ndarray, p: QuantParams) -> np.ndarray:
    """fp -> int8 codes under p (vectorized; per-channel when p.axis set)."""
    scale, zp = _broadcast(p, np.ndim(x))
    # x cast to float64, then divided: a new array, shifted and rounded in place
    v = np.divide(x, scale, dtype=np.float64, out=np.empty(np.shape(x)))
    v += zp
    return np.clip(_round_half_away(v), QMIN, QMAX, out=v).astype(np.int8)


def dequantize_array(codes: np.ndarray, p: QuantParams) -> np.ndarray:
    scale, zp = _broadcast(p, np.asarray(codes).ndim)
    return ((np.asarray(codes, dtype=np.float64) - zp) * scale).astype(np.float32)
