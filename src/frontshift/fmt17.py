"""Exact ``%.17g`` text of float64 arrays, built by numpy a chunk at a time.

``slots(values)`` gives each value 40 bytes, filled 8-byte column by
column: sign and "0.000" prefix, the digit field (integer digits, '.',
fraction digits), then the exponent and a ','.  Bytes ``format(v,
".17g")`` does not use are NUL, so the slots joined and stripped of NULs
(``bytes.translate(None, b"\\0")``) are the values' text, comma-separated.

The exponent X and N = round(|v| 10^(16-X)) come from an error-free
Dekker product with a double-double 10^(16-X) (Dekker, Numer. Math. 18,
1971); X is corrected from the unrounded product, and a round-up to
10^17 carries into X.  Python formats what the product cannot decide:
within 1e-9 of a 17-digit tie, |v| outside [1e-280, 1e280), non-finite.
"""

from __future__ import annotations

import numpy as np

WIDTH = 40
_SPLIT = 134217729.0            # 2^27 + 1: Veltkamp's splitting factor
_K0, _X0 = 270, 290             # table offsets of k = 16 - X and of X
_POWERS = np.zeros((2 * _K0 + 32, 4))   # hi, lo, hi split as hh + hl
_FILLED = np.zeros(len(_POWERS), dtype=bool)
_TEN = 10 ** np.arange(17, dtype=np.int64)


def _quads() -> np.ndarray:
    """4-digit text of 0..9999 as 4-byte words, then with trailing NULs."""
    quad = np.arange(10000, dtype=np.int32)[:, None]
    digits = quad // [1000, 100, 10, 1] % 10 + 48
    trailing = quad % [10000, 1000, 100, 10] != 0
    return np.array([digits, digits * trailing], np.uint8).view("<u4").ravel()


def _words(texts: list, width: int) -> np.ndarray:
    return np.frombuffer("".join(t.ljust(width, "\0") for t in texts)
                         .encode("latin-1"), "<u8").reshape(len(texts), -1)


def _by_exponent() -> tuple:
    """Per exponent X: head (sign, prefix), tail (exponent, ','), X' (the
    integer digits less one), and per X and fraction or none, the digit
    field's masks: bytes kept, bytes taken from one place down, bytes set
    (a '0' under each integer digit, then the '.')."""
    xs = range(-_X0, _X0 + 1)
    heads = ["0." + "0" * (-1 - x) if -4 <= x < 0 else "" for x in xs]
    tails = ["" if -4 <= x < 17 else f"e{x:+03d}" for x in xs]
    ints = np.clip(xs, 0, 16) * (np.array(xs) < 17)
    field = [("\0" * 3 + "\xff" * (1 + i)).ljust(24, "\0")
             + "\0" * (5 + i) + "\xff" * (19 - i)
             + ("\0" * 3 + "0" * (1 + i) + dot).ljust(24, "\0")
             for dot in "\0." for i in range(17)]
    dot = np.array([not -4 <= x < 0 for x in xs])
    return (_words(heads + ["-" + h for h in heads], 8)[:, 0],
            _words([t.ljust(7, "\0") + "," for t in tails], 8)[:, 0], ints,
            _words(field, 72)[np.concatenate([ints, ints + 17 * dot])])


_TRAILS = _quads()                  # [digits; trailing zeros as NUL]
_HEAD, _TAIL, _INT, _FIELD = _by_exponent()


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple:
    """a 10^k as ph + tail: ph = fl(a hi), tail its exact error plus a lo,
    where hi + lo is 10^k in double-double, filled in on first use."""
    index = k + _K0
    for i in set(index[~_FILLED[index]].tolist()):
        p, q = (10 ** (i - _K0), 1) if i >= _K0 else (1, 10 ** (_K0 - i))
        hi = p / q                  # correctly rounded, as is lo
        num, den = hi.as_integer_ratio()
        c = _SPLIT * hi
        hh = c - (c - hi)
        _POWERS[i] = hi, (p * den - num * q) / (q * den), hh, hi - hh
        _FILLED[i] = True
    hi, lo, hh, hl = _POWERS.take(index, axis=0).T
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    ph = a * hi
    return ph, (((ah * hh - ph) + ah * hl + al * hh) + al * hl) + a * lo


def _digits(v: np.ndarray) -> tuple:
    """(X, N, fast) per value, 10^16 <= N < 10^17, exact where fast."""
    a = np.abs(v)
    fast = (a >= 1e-280) & (a < 1e280)
    a[~fast] = 1.0
    x = np.floor(np.log10(a)).astype(np.int64)
    ph, tail = _scaled(a, 16 - x)
    step = (((ph - 1e17) + tail >= 0).astype(np.int64)
            - ((ph - 1e16) + tail < 0))
    fix = np.flatnonzero(step)
    if fix.size:
        x[fix] += step[fix]
        ph[fix], tail[fix] = _scaled(a[fix], 16 - x[fix])
    whole = np.rint(tail)
    fast &= np.abs(np.abs(tail - whole) - 0.5) > 1e-9
    n = ph.astype(np.int64) + whole.astype(np.int64)
    carry = n == 10 * _TEN[16]
    x += carry
    n[carry] = _TEN[16]
    return x, n, fast


def slots(values: np.ndarray) -> np.ndarray:
    """(values.size, WIDTH) uint8: the slot of each value, in C order."""
    v = np.ravel(values).astype(float, copy=False)
    x, n, fast = _digits(v)
    x += _X0
    words = np.zeros((len(v), WIDTH // 8), "<u8")
    words[:, 0] = _HEAD[x + len(_INT) * np.signbit(v)]
    words[:, 4] = _TAIL[x]
    # The 17 digits of N go into bytes 3..19 of the field (words 1..3) as
    # 4-digit quads, N's trailing zeros as NUL (offset 10000 while every
    # lower quad is 0); then the digits after the X' + 1 integer ones move
    # up one byte, and a '0' under each integer digit (the zeros of 100)
    # and the '.' before a fraction are set.
    fraction = n % _TEN[16 - _INT[x]] != 0
    quads = words.view("<u4")
    part, trail = n, np.full(len(v), 10000)
    for col in range(6, 2, -1):
        part, quad = np.divmod(part, 10000)
        quads[:, col] = _TRAILS[quad + trail]
        trail *= quad == 0
    quads[:, 2] = _TRAILS[part]
    masks = _FIELD.take(x + len(_INT) * fraction, axis=0)
    for k in (3, 2, 1):             # one word at a time: strided 2-D is slow
        word = words[:, k]
        up = word << 8
        if k > 1:
            up |= words[:, k - 1] >> 56
        words[:, k] = (word & masks[:, k - 1]) | (up & masks[:, k + 2]) \
            | masks[:, k + 5]
    slots, slow = words.view(np.uint8), np.flatnonzero(~fast)
    text = [format(u, ".17g") for u in v[slow].tolist()]
    slots[slow, :-1] = np.array(text, "S39").view(np.uint8).reshape(-1, 39)
    return slots
