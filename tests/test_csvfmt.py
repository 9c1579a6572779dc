"""The block formatter against the per-value "%.9g" it replaces."""

from __future__ import annotations

import math
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dsrnet import csvfmt
from dsrnet.csvfmt import format_rows


def per_value(block: np.ndarray) -> bytes:
    return "".join(",".join("%.9g" % v for v in row) + "\n" for row in block.tolist()).encode()


def assert_same_text(block):
    block = np.asarray(block, dtype=float)
    assert format_rows(block) == per_value(block)


@settings(max_examples=300, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
        elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    )
)
def test_any_float64(block):
    assert_same_text(block)


@settings(max_examples=200, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
        elements=st.floats(min_value=1e-5, max_value=1e7).flatmap(
            lambda v: st.sampled_from([v, -v])
        ),
    )
)
def test_floats_around_the_fixed_range(block):
    assert_same_text(block)


def test_neighbours_of_every_decimal_tie():
    # doubles within 3 ulps of (D + 0.5) * 10**(e - 8), the values whose
    # ninth digit is closest to a coin toss, for exponents in and around
    # the fixed range and across the exponent layout's
    rng = np.random.default_rng(5)
    for e in range(-300, 301):
        significands = rng.integers(10**8, 10**9, 64 if -7 <= e <= 10 else 4)
        ties = np.array(
            [float((Decimal(int(d)) + Decimal("0.5")).scaleb(e - 8)) for d in significands]
        )
        shifted = [ties]
        for direction in (np.inf, -np.inf):
            values = ties
            for _ in range(3):
                values = np.nextafter(values, direction)
                shifted.append(values)
        block = np.concatenate(shifted)
        assert_same_text(block.reshape(-1, 4))
        assert_same_text(-block.reshape(4, -1))


@pytest.mark.parametrize(
    "value, text",
    [
        (2.0**-13, "0.000122070312"),  # an exact binary tie, rounded to even
        (-(2.0**-13), "-0.000122070312"),
        (9.9999999995e-5, "0.0001"),
        (999999.9995, "1000000"),
        (-999999.9995, "-1000000"),
        (999999999.5, "1e+09"),
        (0.0, "0"),
        (-0.0, "-0"),
        (1e-4, "0.0001"),
        (100000.0, "100000"),
        (123456.789, "123456.789"),
        (-0.000123456789, "-0.000123456789"),
        (0.1, "0.1"),
        (float("nan"), "nan"),
        (float("-inf"), "-inf"),
        (1e-5, "1e-05"),
        (-1.5e-7, "-1.5e-07"),
        (1.23456789e-60, "1.23456789e-60"),
        (1e9, "1e+09"),
        (-9.87654321e250, "-9.87654321e+250"),
        (1.00000001e-300, "1.00000001e-300"),
        (9.9999999996e-7, "1e-06"),  # the carry into the next exponent
        (-9.99999999951e-100, "-1e-99"),
        (5e-324, "4.94065646e-324"),
        (123456789.0, "123456789"),
    ],
)
def test_known_text(value, text):
    assert "%.9g" % value == text
    assert format_rows(np.array([[value, value]])) == f"{text},{text}\n".encode()


def test_single_row_and_single_column_blocks():
    values = np.array([0.5, -1.25, 3e-7, 0.0, 12345.6789, -7.5e-3, np.inf, 2e8])
    assert_same_text(values[None, :])
    assert_same_text(values[:, None])
    assert_same_text(values[None, :1])
    assert format_rows(values[:, None]) == "".join("%.9g\n" % v for v in values).encode()
    # the first part of a row goes on with ',' after its last value
    for last in (-2.5e-8, 3.25, -1e300):
        row = np.append(values, last)[None, :]
        assert format_rows(row, ends=False) == per_value(row)[:-1] + b","


def test_non_contiguous_blocks():
    values = np.random.default_rng(9).standard_normal((12, 10)) * 10.0 ** np.arange(-5, 5)
    assert_same_text(values[::2, 1::3])
    assert_same_text(values.T)


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{e}") for e in range(-300, 301)])
    values = [powers]
    for direction in (np.inf, -np.inf):
        shifted = powers
        for _ in range(3):
            shifted = np.nextafter(shifted, direction)
            values.append(shifted)
    assert_same_text(np.concatenate(values).reshape(-1, 7))
    assert_same_text(-np.concatenate(values).reshape(7, -1))


def test_exponent_estimate_one_off_is_corrected(monkeypatch):
    # log10 is only as good as the library's; an estimate one too low or
    # too high beside a power of ten must not change a digit
    class SkewedNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def log10(values):
            return np.log10(values) + np.resize([-1.0, 0.0, 1.0], values.shape)

    # exponents -3 to 4 and a few of the exponent layout's, so that a
    # skewed estimate stays inside a layout
    exponents = np.r_[-3:5, -60, -20, -6, 11, 20, 250]
    values = np.random.default_rng(3).uniform(1.0, 10.0, (30, 14)) * 10.0**exponents
    values[::2] *= -1.0
    monkeypatch.setattr(csvfmt, "np", SkewedNumpy())
    calls = []
    monkeypatch.setattr(csvfmt, "_fallback", lambda v: calls.append(v) or "%.9g" % v)
    assert_same_text(values)
    assert calls == []


def needs_fallback(value: float) -> bool:
    """Independently of the formatter: whether a value is not finite, has a
    decimal exponent from 6 to 8 (fixed-point text wider than the fixed
    layout) or below -300 (where 10**(8 - e) overflows a double), or has its
    ninth significant digit within 1e-6 of a tie, where the formatter must
    ask "%.9g"."""
    if value == 0.0:
        return False
    if not math.isfinite(value):
        return True
    exact = abs(Decimal(value))
    exponent = exact.adjusted()
    if 6 <= exponent <= 8 or exponent < -300:
        return True
    scaled = exact.scaleb(8 - exponent)
    return abs(scaled - scaled.to_integral_value()) >= Decimal(0.5 - 1e-6)


def test_fallback_only_for_out_of_range_and_near_ties(monkeypatch):
    # a widened fallback window would give the speed back without changing
    # a byte, so count who takes it
    rng = np.random.default_rng(17)
    in_range = 10.0 ** rng.uniform(-4, 6, 5000) * rng.choice([-1.0, 1.0], 5000)
    outside = 10.0 ** np.concatenate([rng.uniform(-300, -4, 300), rng.uniform(6, 300, 300)])
    left = 10.0 ** np.concatenate([rng.uniform(6, 9, 60), rng.uniform(-323, -300, 60)])
    special = [0.0, -0.0, np.nan, np.inf, -np.inf, 2.0**-13, 2.5, 0.125, 5e-324, 1e-310]
    values = np.concatenate([in_range, outside, left, special, np.round(in_range, 3)])
    values = np.resize(values, 10 * (values.size // 10 + 1))
    calls = []
    original = csvfmt._fallback

    def counted(value):
        calls.append(value)
        return original(value)

    monkeypatch.setattr(csvfmt, "_fallback", counted)
    text = format_rows(values.reshape(-1, 10))
    assert text == per_value(values.reshape(-1, 10))
    expected = [v for v in values.tolist() if needs_fallback(v)]
    assert len(calls) == len(expected)
    assert len(calls) < values.size / 8
    assert sorted(map(repr, calls)) == sorted(map(repr, expected))


def test_tables_are_built_lean():
    csvfmt._tables.cache_clear()
    tracemalloc.start()
    try:
        tables = csvfmt._tables()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert all(table.dtype == np.uint32 for table in tables)
