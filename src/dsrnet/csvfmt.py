"""Block formatter for CSV rows: byte for byte the text of ``"%.9g" % v``.

``format_rows`` turns a 2-D block of floats into the lines of a CSV table,
as ASCII bytes. Most values are formatted together with numpy arithmetic;
a value goes through the per-value ``"%.9g"`` (``_fallback``) only where
that arithmetic is not shown to round as it does.

For a finite nonzero x with decimal exponent e = floor(log10|x|), the
scaled value s = |x| * P, where P is the double nearest 10**(8 - e), takes
two roundings, each within 2**-53 relative (P is exact for -14 <= e <= 8),
so s lies within 2**-22 of the exact product, which is below 10**9. Where
s is more than 0.5 - 1e-6 from a tie, ``rint(s)`` is the correctly rounded
nine-digit significand D. A D that rounds up to 10**9 carries into the
exponent before the layout is chosen, as in "%.9g".

"%.9g" prints fixed-point text for e in [-4, 8] and d.dddddddde+XX
otherwise. For e in [-4, 5] the fixed-point text has at most 7 integer and
12 fraction digits, so it is built at fixed byte positions from
D * 10**(e + 4), that is |x| * 10**12 as an integer, in six 4-byte words:
sign and 3 integer digits, 4 integer digits, '.' and 3 fraction digits, 4
and 4 fraction digits, and the last fraction digit with the separator. The
exponent layout fills words 1 to 5: the first digit, '.' and 3 digits, 4
digits, the last digit with 'e' and the exponent's sign, and two or three
exponent digits with the separator. The words come from lookup tables
that hold NUL wherever a character is absent (a leading zero, a trailing
zero, a dot with no fraction), and the NULs are dropped once per block.
Word 0 is left out of a block where it is NUL throughout, one with no
negative value and none of 10**4 or more. Zeros take the fixed layout.
Near-ties, nan, inf, e in [6, 8] and |x| below 1e-300 (where 10**(8 - e)
overflows a double; subnormals among them) fall back to "%.9g".
"""

from __future__ import annotations

import functools

import numpy as np

# Decimal exponents of the fixed layout; and of the table slots, where
# zero's log10 (-inf) lands on the first and that of nan or inf on the last.
_MIN_EXP, _MAX_EXP = -4, 5
_LOW, _HIGH = -325, 309
_TIE = 0.5 - 1e-6  # |s - rint(s)| below this: s is over 1e-6 from a tie
_TEXT = 16  # the longest "%.9g" text, as in -1.23456789e-308


def _words(chars: np.ndarray) -> np.ndarray:
    """Rows of 4 bytes as native uint32 words, keeping the bytes' order."""
    return np.ascontiguousarray(chars).view(np.uint32).ravel()


def _scale(e: int) -> float:
    if e == _LOW:
        return 0.0  # zero scales to 0, a significand of its own
    if e < -300 or _MAX_EXP < e < 9 or e == _HIGH:
        return np.nan
    return float(f"1e{8 - e}")


def _shift(e: int) -> int:
    if _MIN_EXP <= e <= _MAX_EXP + 1:  # 6 only by a carry, as from 999999.9995
        return 10 ** (e + 4)
    return int(e == _LOW)  # zero is fixed, the rest exponent layout


@functools.cache
def _exponents():
    """Per exponent slot, built on the first write: the double nearest
    10**(8 - e), nan where "%.9g" is asked instead; and 10**(e + 4), which
    turns a significand into |x| * 10**12, 0 for the exponent layout."""
    slots = range(_LOW, _HIGH + 1)
    return np.array([_scale(e) for e in slots]), np.array([_shift(e) for e in slots], np.intp)


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
    # the integer digits above the last four (at most 100): none for 0, and
    # byte 0 left NUL for a minus sign
    high = no_lead[:1000].copy()
    high[0] = 0
    # the first three fraction digits after the dot, NUL for no fraction
    dot = np.vstack([no_trail[:1000], chars[:1000]])
    dot[:, 0] = ord(".")
    dot[0, 0] = 0
    # the last fraction digit, then ',' or, in the last column, '\n'
    last = np.zeros((20, 4), dtype=np.uint8)
    last[:, 0] = np.tile(no_trail[:10, 3], 2)
    # the exponent layout's last digit, then 'e' and the exponent's sign
    mark = last.copy()
    mark[:, 1] = ord("e")
    mark[:10, 2], mark[10:, 2] = ord("+"), ord("-")
    last[:10, 1], last[10:, 1] = ord(","), ord("\n")
    # the exponent's digits, at least two, then ',' or '\n'
    exponent = np.zeros((2, 1000, 4), dtype=np.uint8)
    exponent[..., :3] = chars[:1000, 1:]
    exponent[:, :100, 0] = 0
    exponent[0, :, 3], exponent[1, :, 3] = ord(","), ord("\n")
    return (
        _words(high),
        # the last four integer digits, or the exponent layout's first
        # digit: without leading zeros below 10**4, else all of them
        _words(np.vstack([no_lead, chars])),
        _words(dot),
        # later fraction groups: without trailing zeros, or all digits when
        # a later group is nonzero
        _words(np.vstack([no_trail, chars])),
        _words(last),
        _words(mark),
        _words(exponent.reshape(2000, 4)),
    )


def _fallback(value: float) -> str:
    return "%.9g" % value


def _significands(block: np.ndarray):
    """Each value's nine-digit significand as an integer (0 for nan, inf and
    the exponents left to "%.9g"), and the table slot of its decimal
    exponent; and the mask of the values whose significand is shown to be
    exact."""
    scale, _ = _exponents()
    size = np.abs(block)
    with np.errstate(all="ignore"):
        estimate = np.log10(size)
        estimate -= _LOW
        np.fmin(estimate, _HIGH - _LOW, out=estimate)
        slot = np.fmax(estimate, 0, out=estimate).astype(np.intp)
        scaled = np.take(scale, slot, out=estimate, mode="clip")
        scaled *= size
        # log10 can land one off beside a power of ten; zero stays at 0
        if np.fmax.reduce(scaled, axis=None) >= 1e9 or np.fmin.reduce(scaled, axis=None) < 1e8:
            slot += scaled >= 1e9
            slot -= (scaled < 1e8) & (scaled > 0)
            np.take(scale, slot, out=scaled, mode="clip")
            scaled *= size
        digits = np.rint(scaled, out=size)
        scaled -= digits
        exact = np.abs(scaled, out=scaled) < _TIE
        if np.fmax.reduce(digits, axis=None) >= 1e9:
            carry = digits >= 1e9
            digits[carry] = 1e8
            slot += carry
        return np.fmax(digits, 0, out=digits).astype(np.intp), slot, exact


def _fixed_words(block: np.ndarray, words: np.ndarray, signed: bool, ends: bool):
    """Write words 1 to 5 of each |x| * 10**12 in the 2-D integer ``block``
    into ``words``, one row per value, with '\\n' after the last column if
    ``ends``; and return word 0 of each without its sign, or None if
    ``signed`` is false and every word 0 is NUL. ``block`` is used up."""
    int_high, int_low, frac_dot, frac4, frac_last, _, _ = _tables()
    fixed = block.ravel()
    # each group of digits becomes a table index in ``index``, and ``part``
    # holds what is taken off ``fixed``
    index = fixed // 10**12  # the integer digits
    part = np.multiply(index, 10**12)
    fixed -= part
    np.floor_divide(index, 10**4, out=part)
    first = np.take(int_high, part, mode="clip") if signed or part.any() else None
    # the last four integer digits, without leading zeros below 10**4:
    # the smaller of the integer and its last four digits plus 10**4
    part -= 1
    part *= -(10**4)
    part += index
    np.minimum(index, part, out=index)
    np.take(int_low, index, out=words[:, 0], mode="clip")
    # the 12 fraction digits, in groups of 3, 4, 4 and 1, each without
    # trailing zeros unless digits after it are nonzero
    for unit, word, table in ((10**9, 1, frac_dot), (10**5, 2, frac4), (10, 3, frac4)):
        np.floor_divide(fixed, unit, out=index)
        np.multiply(index, unit, out=part)
        fixed -= part
        np.minimum(fixed, 1, out=part)
        part *= len(table) // 2
        index += part
        np.take(table, index, out=words[:, word], mode="clip")
    if ends:
        block[:, -1] += 10
    np.take(frac_last, fixed, out=words[:, 4], mode="clip")
    return first


def _exponent_words(digits: np.ndarray, slot: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Words 1 to 5 of d.dddddddde+XX for each nine-digit significand and
    exponent slot, followed by '\\n' where ``last`` and ',' elsewhere."""
    _, int_low, frac_dot, frac4, _, mark, exponent = _tables()
    first, rest = np.divmod(digits, 10**8)
    exp = slot + _LOW
    return np.stack([
        int_low[first],
        frac_dot[rest // 10**5 + 1000 * (rest % 10**5 != 0)],
        frac4[rest // 10 % 10**4 + 10**4 * (rest % 10 != 0)],
        mark[rest % 10 + 10 * (exp < 0)],
        exponent[np.abs(exp) + 1000 * last],
    ], axis=1)


def format_rows(block: np.ndarray, ends: bool = True) -> bytes:
    """The rows of a 2-D float block as CSV lines of "%.9g" text in ASCII
    bytes: cells joined by ',' and each row ending in '\\n', or, where not
    ``ends``, in ',' before the rest of the row."""
    block = np.ascontiguousarray(block, dtype=float)
    cols = block.shape[1]
    fixed, slot, exact = _significands(block)
    shift = np.take(_exponents()[1], slot, mode="clip")
    sign = np.signbit(block).ravel()
    # the values the fixed layout does not give: exact ones with no shift
    # take the exponent layout, and the rest "%.9g", with its own sign
    others = np.flatnonzero((shift == 0) | ~exact)
    if others.size:
        exact = exact.ravel()[others]
        slow, expo = others[~exact], others[exact]
        expo_words = _exponent_words(
            fixed.ravel()[expo], slot.ravel()[expo], ends & (expo % cols == cols - 1)
        )
        shift.ravel()[slow] = 0
        sign[slow] = False
    # each temporary goes once used, which keeps the block's peak low
    del slot, exact
    fixed *= shift
    del shift
    words = np.empty((block.size, 5), dtype=np.uint32)
    first = _fixed_words(fixed, words, sign.any(), ends)
    del fixed
    if others.size:
        words[expo] = expo_words
        text = [_fallback(v) for v in block.ravel()[slow].tolist()]
        words.view(np.uint8)[slow, :_TEXT] = (
            np.array(text, dtype=f"S{_TEXT}").view(np.uint8).reshape(-1, _TEXT)
        )
    # word 0, the sign and the integer digits above the last four, goes
    # only into a block where some value has them
    if first is not None:
        first.view(np.uint8)[::4][sign] = ord("-")
        words = np.concatenate([first[:, None], words], axis=1)
    return words.tobytes().translate(None, b"\0")
