"""Block formatter for CSV rows: byte for byte the text of ``"%.9g" % v``.

``format_rows`` turns a 2-D block of floats into the rows of a CSV table.
Most values are formatted together with numpy arithmetic; a value goes
through the per-value ``"%.9g"`` (``_fallback``) only where that arithmetic
is not shown to round as it does.

For a finite nonzero x with decimal exponent e = floor(log10|x|), the
scaled value s = |x| * 10**(8 - e) is one multiplication by an exact power
of ten, so it lies within 2**-24 of the exact product. Where s is more
than 0.5 - 1e-6 from a tie, ``rint(s)`` is the correctly rounded nine-digit
significand. For e in [-4, 5] "%.9g" prints fixed-point text with at most
7 integer and 12 fraction digits, so each cell is built at fixed byte
positions in six 4-byte words: sign and 3 integer digits, 4 integer
digits, '.' and 3 fraction digits, 4 and 4 fraction digits, the last
fraction digit and the separator. The words come from lookup tables that
hold NUL wherever a character is absent (a leading zero, a trailing zero,
a dot with no fraction), and the NULs are dropped once per block. Zeros
take the same path. Near-ties, non-finite values and every other exponent
fall back to ``"%.9g"``.
"""

from __future__ import annotations

import functools

import numpy as np

# Decimal exponents formatted without the fallback.
_MIN_EXP, _MAX_EXP = -4, 5


# 10**(8 - e) for every e that the log10 estimate and its correction reach,
# nan outside the range so that no such value is taken as exact; and
# 10**(e + 4), which turns a nine-digit significand into |x| * 10**12.
_EXPS = range(_MIN_EXP - 2, _MAX_EXP + 3)
_SCALE = np.array([float(10 ** (8 - e)) if _MIN_EXP <= e <= _MAX_EXP else np.nan for e in _EXPS])
_SHIFT = np.array([10 ** (e + 4) if _MIN_EXP <= e <= _MAX_EXP else 0 for e in _EXPS], np.uint64)
_CELL = 21  # bytes before the separator


def _words(chars: np.ndarray) -> np.ndarray:
    """Rows of 4 bytes as native uint32 words, keeping the bytes' order."""
    return np.ascontiguousarray(chars).view(np.uint32).ravel()


@functools.cache
def _tables():
    """The lookup words, built on the first write: 4-byte groups of ASCII
    digits with NUL for each character a cell leaves out."""
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T
    chars = digits + np.uint8(ord("0"))
    lead = np.logical_and.accumulate(digits == 0, axis=1)
    lead[:, -1] = False  # the units digit stays
    trail = np.logical_and.accumulate(digits[:, ::-1] == 0, axis=1)[:, ::-1]
    no_lead = np.where(lead, 0, chars)
    no_trail = np.where(trail, 0, chars)
    # the integer digits above the last four (at most 100): none for 0,
    # and a minus sign or NUL in byte 0
    high = np.tile(no_lead[:1000], (2, 1))
    high[0] = high[1000] = 0
    high[1000:, 0] = ord("-")
    # the first three fraction digits after the dot, NUL for no fraction
    dot = np.vstack([chars[:1000], no_trail[:1000]])
    dot[:, 0] = ord(".")
    dot[1000, 0] = 0
    # the last fraction digit, then ',' or, in the last column, '\n'
    last = np.zeros((20, 4), dtype=np.uint8)
    last[:, 0] = np.tile(no_trail[:10, 3], 2)
    last[:10, 1], last[10:, 1] = ord(","), ord("\n")
    return (
        _words(high),
        # the last four integer digits: all of them below nonzero higher
        # digits, else without leading zeros
        _words(np.vstack([chars, no_lead])),
        _words(dot),
        # later fraction groups: all digits when a later group is nonzero,
        # else without trailing zeros
        _words(np.vstack([chars, no_trail])),
        _words(last),
    )


def _fallback(value: float) -> str:
    return "%.9g" % value


def _fixed_point(block: np.ndarray):
    """|x| * 10**12 as an integer, rounded to nine significant digits, for
    each value that is formatted here; and the mask of those values."""
    with np.errstate(all="ignore"):
        size = np.abs(block)
        # fmin and fmax take nan and inf to a bound, inside the tables
        exp = np.fmax(np.fmin(np.floor(np.log10(size)), _MAX_EXP + 1), _MIN_EXP - 1)
        exp = exp.astype(np.intp) - (_MIN_EXP - 2)
        scaled = size * _SCALE[exp]
        # log10 can land one off beside a power of ten
        off = (scaled >= 1e9).astype(np.intp) - (scaled < 1e8)
        if off.any():
            exp += off
            scaled = size * _SCALE[exp]
        digits = np.rint(scaled)
        exact = (np.abs(scaled - digits) < 0.5 - 1e-6) | (size == 0)
        digits = np.where(exact, digits, 0.0).astype(np.uint64)
    # a significand rounded up to 10**9 carries by itself
    return digits * _SHIFT[exp], exact


def _digit_words(block: np.ndarray):
    """Each value's text and the separator after it in six 4-byte words,
    NUL where a character is absent; and the mask of the values that are
    formatted here."""
    rows, cols = block.shape
    fixed, exact = _fixed_point(block)
    # 7 integer digits, in groups of 3 and 4, and 12 fraction digits, in
    # groups of 3, 4, 4 and 1
    whole = (fixed // 10**12).astype(np.uint32)
    frac = fixed - whole.astype(np.uint64) * 10**12
    high = whole // 10**4
    low = whole - high * 10**4
    f1 = (frac // 10**9).astype(np.uint32)
    rest = (frac - f1.astype(np.uint64) * 10**9).astype(np.uint32)
    f2 = rest // 10**5
    rest -= f2 * 10**5
    f3 = rest // 10
    f4 = rest - f3 * 10
    zero4 = f4 == 0
    zero3 = zero4 & (f3 == 0)
    zero2 = zero3 & (f2 == 0)
    last = np.zeros(cols, dtype=np.intp)
    last[-1] = 10

    int_high, int_low, frac_dot, frac4, frac_last = _tables()
    # mode="clip" writes straight into the strided word; every index is in range
    words = np.empty((rows, cols, 6), dtype=np.uint32)
    np.take(int_high, high + 1000 * np.signbit(block), out=words[..., 0], mode="clip")
    np.take(int_low, low + 10**4 * (high == 0), out=words[..., 1], mode="clip")
    np.take(frac_dot, f1 + 10**3 * zero2, out=words[..., 2], mode="clip")
    np.take(frac4, f2 + 10**4 * zero3, out=words[..., 3], mode="clip")
    np.take(frac4, f3 + 10**4 * zero4, out=words[..., 4], mode="clip")
    np.take(frac_last, f4 + last, out=words[..., 5], mode="clip")
    return words, exact


def format_rows(block: np.ndarray) -> str:
    """The rows of a 2-D float block as "%.9g" text, cells joined by ','
    and rows by '\\n', without a trailing newline."""
    words, exact = _digit_words(block)
    cells = words.view(np.uint8).reshape(*block.shape, 24)
    slow = ~exact
    if slow.any():
        text = [_fallback(v) for v in block[slow].tolist()]
        cells[slow, :_CELL] = np.array(text, dtype=f"S{_CELL}").view(np.uint8).reshape(-1, _CELL)
    cells[-1, -1, _CELL] = 0  # no newline after the last row
    return cells.tobytes().translate(None, b"\0").decode("ascii")
