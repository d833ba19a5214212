"""Scheme arithmetic against hand-computed values and property checks."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import round_half_away as rha_oracle
from ptqtune import QuantParams, Scheme, dequantize_array, params_for_range, quantize_array
from ptqtune.schemes import QMAX, QMIN, ceil_log2, round_half_away


def q1(v, p):
    return int(quantize_array(np.array([v]), p)[0])


def dq1(c, p):
    return float(dequantize_array(np.array([c], dtype=np.int8), p)[0])


# ---------------------------------------------------------------- rounding

def test_round_half_away_from_zero():
    assert round_half_away(0.5) == 1.0
    assert round_half_away(-0.5) == -1.0
    assert round_half_away(2.5) == 3.0
    assert round_half_away(-2.5) == -3.0
    assert round_half_away(0.49) == 0.0
    assert round_half_away(-1.4) == -1.0


@given(st.floats(-1e6, 1e6))
@settings(max_examples=200)
@example(0.5)
@example(-0.5)
@example(1.5)
@example(-1.5)
@example(2.5)
@example(-2.5)
@example(999.5)
@example(-999.5)
@example(0.49999999999999994)
@example(-0.49999999999999994)
@example(2.0**52 + 0.5)
@example(-(2.0**52 + 0.5))
def test_round_half_away_matches_scalar_oracle(v):
    assert float(round_half_away(v)) == rha_oracle(v)


def test_ceil_log2_exact_on_powers():
    assert ceil_log2(1.0) == 0
    assert ceil_log2(0.5) == -1
    assert ceil_log2(0.5000001) == 0
    assert ceil_log2(4.0) == 2
    assert ceil_log2(4.0000001) == 3
    with pytest.raises(ValueError):
        ceil_log2(0.0)
    with pytest.raises(ValueError):
        ceil_log2(float("inf"))


# --------------------------------------------------------------- asymmetric

def test_asymmetric_nonnegative_range():
    p = params_for_range(Scheme.Asymmetric, 0.0, 25.5)
    assert float(p.scale) == np.float32(0.1)
    assert p.zero_point == -128
    assert q1(0.0, p) == -128
    assert q1(25.5, p) == 127


def test_asymmetric_centered_range():
    p = params_for_range(Scheme.Asymmetric, -1.0, 1.0)
    assert float(p.scale) == np.float32(2.0 / 255.0)
    assert p.zero_point == 0
    assert q1(0.0, p) == 0


def test_asymmetric_extends_range_to_zero():
    # a strictly-positive range still represents 0.0 exactly
    p = params_for_range(Scheme.Asymmetric, 5.0, 25.5)
    assert p.zero_point == -128
    assert dq1(-128, p) == 0.0
    assert -128 <= p.zero_point <= 127


def test_asymmetric_zero_always_exact():
    for lo, hi in [(-7.3, 2.1), (0.0, 3.0), (-3.0, 0.0), (1.0, 9.0), (-9.0, -1.0)]:
        p = params_for_range(Scheme.Asymmetric, lo, hi)
        assert dq1(q1(0.0, p), p) == 0.0


def test_asymmetric_degenerate_and_invalid():
    p = params_for_range(Scheme.Asymmetric, 0.0, 0.0)
    assert float(p.scale) == 1.0 and p.zero_point == 0
    with pytest.raises(ValueError):
        params_for_range(Scheme.Asymmetric, 1.0, -1.0)
    with pytest.raises(ValueError):
        params_for_range(Scheme.Asymmetric, float("nan"), 1.0)


# ---------------------------------------------------------------- symmetric

def test_symmetric_basic():
    p = params_for_range(Scheme.Symmetric, 0.0, 12.7)
    assert float(p.scale) == np.float32(0.1)
    assert p.zero_point == 0
    assert q1(1.0, p) == 10
    assert dq1(10, p) == pytest.approx(1.0, abs=1e-7)
    assert q1(0.0, p) == 0


def test_symmetric_skewed_range_wastes_negative_codes():
    # range (-0.01, 100): symmetric scale from max_abs confines every
    # negative input to codes {-1, 0}
    p = params_for_range(Scheme.Symmetric, -0.01, 100.0)
    codes = quantize_array(np.linspace(-0.01, 0.0, 50), p)
    assert set(codes.tolist()) <= {-1, 0}


def test_symmetric_degenerate():
    p = params_for_range(Scheme.Symmetric, 0.0, 0.0)
    assert float(p.scale) == 1.0
    assert q1(0.0, p) == 0


# ----------------------------------------------------------- symmetric-uint8

def test_uint8_nonnegative_uses_full_grid():
    p = params_for_range(Scheme.SymmetricUint8, 0.5, 25.5)
    assert p.zero_point == -128
    assert float(p.scale) == np.float32(0.1)
    assert q1(0.0, p) == -128
    assert q1(25.5, p) == 127


def test_uint8_falls_back_to_symmetric_when_negative():
    p = params_for_range(Scheme.SymmetricUint8, -3.0, 3.0)
    assert p.zero_point == 0
    assert float(p.scale) == np.float32(3.0 / 127.0)


def test_uint8_beats_symmetric_on_nonnegative_ranges():
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 9.0, size=4096)
    pu = params_for_range(Scheme.SymmetricUint8, 0.0, 9.0)
    ps = params_for_range(Scheme.Symmetric, 0.0, 9.0)
    mse_u = np.mean((dequantize_array(quantize_array(x, pu), pu) - x) ** 2)
    mse_s = np.mean((dequantize_array(quantize_array(x, ps), ps) - x) ** 2)
    assert mse_u <= mse_s
    assert mse_u < 0.5 * mse_s  # twice the resolution -> ~4x lower MSE


# ---------------------------------------------------------------- power-of-2

def test_power2_rounds_scale_up_to_power_of_two():
    p = params_for_range(Scheme.SymmetricPower2, 0.0, 127.0)  # symmetric scale exactly 1.0
    assert float(p.scale) == 1.0
    p = params_for_range(Scheme.SymmetricPower2, 0.0, 100.0)  # symmetric scale ~0.787 -> 1.0
    assert float(p.scale) == 1.0


def test_power2_ratio_in_unit_octave():
    rng = np.random.default_rng(0)
    for max_abs in rng.uniform(1e-4, 1e4, size=200):
        s2 = float(params_for_range(Scheme.SymmetricPower2, 0.0, max_abs).scale)
        ss = float(params_for_range(Scheme.Symmetric, 0.0, max_abs).scale)
        k = math.log2(s2)
        assert k == int(k)
        assert 1.0 <= s2 / ss < 2.0


# --------------------------------------------------------------- round trips

@pytest.mark.parametrize("scheme", list(Scheme))
def test_round_trip_error_within_half_step(scheme):
    rng = np.random.default_rng(11)
    lo, hi = -4.0, 9.0
    x = rng.uniform(lo, hi, size=4096)
    p = params_for_range(scheme, lo, hi)
    err = np.abs(dequantize_array(quantize_array(x, p), p) - x)
    smax = float(np.max(np.atleast_1d(p.scale)))
    assert err.max() <= smax / 2 + 1e-6


def test_codes_always_in_int8_range():
    p = params_for_range(Scheme.Asymmetric, -1.0, 1.0)
    codes = quantize_array(np.array([-99.0, 99.0, 0.0]), p)
    assert codes.min() >= QMIN and codes.max() <= QMAX
    assert codes.dtype == np.int8


def test_per_channel_params_broadcast_on_axis0():
    w = np.stack([np.linspace(-1, 1, 12).reshape(1, 1, 12)[0],
                  np.linspace(-100, 100, 12).reshape(1, 1, 12)[0]])[:, None]
    p = QuantParams(scale=np.array([1 / 127, 100 / 127], dtype=np.float32),
                    zero_point=np.array([0, 0]), axis=0)
    codes = quantize_array(w, p)
    back = dequantize_array(codes, p)
    assert np.abs(back[0] - w[0]).max() <= (1 / 127) / 2 + 1e-6
    assert np.abs(back[1] - w[1]).max() <= (100 / 127) / 2 + 1e-6


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("lo,hi", [(0.0, 1e-44), (-1e-44, 0.0), (-1e-44, 1e-44)])
def test_a_range_whose_scale_underflows_is_degenerate(scheme, lo, hi):
    # the fp32 scale of these ranges rounds to 0: the degenerate rule gives
    # scale 1.0 and the scheme's zero code, and quantizing warns of nothing
    p = params_for_range(scheme, lo, hi)
    unsigned = scheme == Scheme.SymmetricUint8 and lo >= 0.0
    assert float(p.scale) == 1.0 and p.zero_point == (QMIN if unsigned else 0)
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        codes = quantize_array(np.array([lo, 0.0, hi]), p)
    assert codes.tolist() == [p.zero_point] * 3


@pytest.mark.parametrize("scheme", list(Scheme))
def test_non_finite_range_rejected_by_every_scheme(scheme):
    # max(1.0, nan) is 1.0, so a max_abs taken before the check hides the nan
    for lo, hi in [(1.0, float("nan")), (float("-inf"), 1.0)]:
        with pytest.raises(ValueError, match="non-finite"):
            params_for_range(scheme, lo, hi)


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError):
        params_for_range("int4", -1.0, 1.0)  # type: ignore[arg-type]
