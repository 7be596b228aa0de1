"""CSV text of float64 rows: the bytes of ``csv.writer`` over ``repr(float)``.

``csv_chunks`` formats a whole chunk of values at once in numpy lanes.
For a lane with a = |x| in [1e-4, 1e16), repr writes the shortest digit
string that reads back as x (nearest to x among the shortest), in
positional notation.  The kernel finds the same digits as follows.

* Exact scaling.  With k = 16 - floor(log10 a), bumped by one where
  a * 10^k < 1e16, the scaled value V = a * 10^k lies in [1e16, 1e18).
  10^k is an exact double (k <= 22), and Dekker's TwoProduct with a
  Veltkamp split gives V = hi + lo exactly.  hi >= 2^53 is an integer,
  so V = N + f with the integer N = hi + floor(lo) and f = lo - floor(lo)
  in [0, 1), both exact.  Half an ulp of a at the same scale is
  H = 2^(e - 54) * 10^k (a = m * 2^e, m in [0.5, 1)), also exact, and
  H > V * 2^-54 > 0.5.
* Shortest digits.  Let C_j be V rounded to a multiple of 10^j.  The
  reals that read back as x form an interval of half-width H about V
  (symmetric when m != 0.5).  A multiple of 10^j lies inside exactly when
  C_j does, and then a multiple of every smaller power does too, so
  repr's digits are C_j for the largest j with |C_j - V| < H.  j = 0
  always succeeds, and the live lanes shrink as j grows.  The distances
  to the two candidates, r + f and (10^j - r) - f with r = N mod 10^j, are
  rounded to doubles; rounding is monotonic and H is a double, so a
  strict comparison with H is exact and only equality is in doubt.
* Fallback.  repr itself formats every lane this argument does not cover:
  0 and -0, nan, +-inf and subnormals; |x| outside [1e-4, 1e16);
  significand 2^52, whose interval is asymmetric; and exact ties, where
  |C_j - V| == H or V lies halfway between two candidates.  Correctness
  never depends on copying the tie rules of repr's dtoa.
* Layout.  Each value becomes a fixed-width field that holds the digits
  of C twice: the integer part shows from the first copy and the fraction
  from the second, so no digit moves.  A precomputed mask row, chosen by
  k, the digit count of C, its trailing zeros (the final j) and whether
  the field ends a row, picks the bytes repr would write.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

# Values per chunk, whatever the row width: the chunk's int64 temporaries
# stay near 32 KiB each.
_CHUNK_VALUES = 4096

# Field bytes: 0 '-', 1 '0', 2..19 the 18 digits of C, 20 '.', 21 pad,
# 22..25 '0000' (fraction digits ahead of C when k > 18), 26..43 the
# digits of C again, 44..45 ',' and pad or '\r\n'.  Digit pairs are
# written through a uint16 view, so every pair starts at an even byte.
_WIDTH = 46
_REPR_MAX = 24  # longest repr of a float64, '-2.2250738585072014e-308'

_POW10 = np.array([float(10**i) for i in range(23)])  # exact doubles
_POW10_INT = np.array([10**i for i in range(19)], dtype=np.int64)
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant
_SIGNIFICAND = np.uint64((1 << 52) - 1)


def _pairs(text: bytes) -> np.ndarray:
    return np.frombuffer(text, dtype=np.uint16)


_DIGIT_PAIRS = _pairs(b"".join(b"%02d" % i for i in range(100)))
_TEMPLATE = _pairs(b"-0" + b"\0" * 18 + b".\0" + b"0" * 4 + b"\0" * 18 + b",\0")
_CRLF = _pairs(b"\r\n")[0]


def _visibility() -> np.ndarray:
    """Rows of shown bytes, by ((k * 2 + z) * 19 + j) * 2 + last: k the
    scale, z whether C has 17 digits, j its trailing zeros, last whether
    the field ends a row."""
    col = np.arange(_WIDTH)
    k = np.arange(23)[:, None, None, None, None]
    z = np.arange(2)[None, :, None, None, None]
    j = np.arange(19)[None, None, :, None, None]
    last = np.arange(2)[None, None, None, :, None]
    integer = np.where(k <= 17, (col >= 2 + np.minimum(z, 17 - k)) & (col <= 19 - k),
                       col == 1)
    fraction = (col >= 44 - k) & (col <= np.maximum(44 - k, 43 - j))
    shown = (integer | (col == 20) | fraction | (col == 44) | ((col == 45) & (last == 1)))
    return shown.reshape(-1, _WIDTH)


_VISIBLE = _visibility()


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = v * _SPLIT
    high = c - (c - v)
    return high, v - high


_POW10_HIGH, _POW10_LOW = _split(_POW10)


def _shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shortest repr digits of each lane of the 1-d float64 array ``x``.

    Returns (C, k, zeros, slow): lane i reads C[i] * 10^-k[i], and C[i]
    ends in exactly zeros[i] zero digits, unless slow[i], where repr must
    format it.
    """
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16) & ((x.view(np.uint64) & _SIGNIFICAND) != 0)
    a = np.where(fast, a, 1.5)  # any covered value; these lanes are repr's
    k = 16 - np.floor(np.log10(a)).astype(np.int64)
    k += a * _POW10[k] < 1e16
    scale = _POW10[k]
    hi = a * scale
    a_high, a_low = _split(a)
    s_high, s_low = _POW10_HIGH[k], _POW10_LOW[k]
    lo = ((a_high * s_high - hi) + a_high * s_low + a_low * s_high) + a_low * s_low
    whole = np.floor(lo)
    n = hi.astype(np.int64) + whole.astype(np.int64)
    f = lo - whole
    half_ulp = np.ldexp(scale, np.frexp(a)[1] - 54)

    c = n + (f > 0.5)  # j = 0: |C_0 - V| <= 1/2 < H
    slow = ~fast | (f == 0.5)
    zeros = np.zeros(x.size, dtype=np.intp)
    live = np.arange(x.size)
    lanes = (n, f, half_ulp)
    for j in range(1, 19):
        cj, inside, unsure = _nearest(*lanes, _POW10_INT[j])
        slow[live[unsure]] = True
        keep = inside & ~slow[live]
        live = live[keep]
        if live.size == 0:
            break
        c[live] = cj[keep]
        zeros[live] = j
        lanes = tuple(v[keep] for v in lanes)
    return c, k, zeros, slow


def _nearest(n, f, h, p):
    """V = n + f rounded to a multiple of p, whether it lies within h of V,
    and whether a tie or an equality with h leaves the lane to repr."""
    q = n // p
    r = n - q * p
    down = r + f
    up = (p - r) - f
    near = np.minimum(down, up)
    inside = near < h
    unsure = (near == h) | ((down == up) & inside)
    return (q + (up < down)) * p, inside, unsure


def _fields(x: np.ndarray, last: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-width fields of the lanes of ``x`` and the mask of shown bytes;
    ``last`` marks the lanes that end a row."""
    c, k, zeros, slow = _shortest(x)
    buf = np.empty((x.size, _WIDTH // 2), dtype=np.uint16)
    buf[:] = _TEMPLATE
    buf[last, -1] = _CRLF
    value = c
    for col in range(9, 0, -1):
        rest = value // 100
        pair = _DIGIT_PAIRS[value - rest * 100]
        buf[:, col] = pair
        buf[:, col + 12] = pair
        value = rest
    text = buf.view(np.uint8)

    row = ((k * 2 + (c < _POW10_INT[17])) * 19 + zeros) * 2 + last
    mask = np.take(_VISIBLE, row, axis=0)
    mask[:, 0] = np.signbit(x)

    slow_lanes = np.flatnonzero(slow)
    if slow_lanes.size:
        reprs = [repr(v).encode() for v in x[slow_lanes].tolist()]
        text[slow_lanes, :_REPR_MAX] = np.array(reprs, dtype=f"S{_REPR_MAX}").view(
            np.uint8).reshape(-1, _REPR_MAX)
        widths = np.array([len(s) for s in reprs])
        mask[slow_lanes, :_WIDTH - 2] = np.arange(_WIDTH - 2) < widths[:, None]
    return text, mask


def csv_chunks(rows: np.ndarray) -> Iterator[bytes]:
    """The CSV lines of a 2-d float64 array, ',' between fields and CRLF
    after each row, in chunks of about ``_CHUNK_VALUES`` values."""
    width = rows.shape[1]
    step = max(1, _CHUNK_VALUES // width)
    for start in range(0, len(rows), step):
        x = rows[start:start + step].ravel()
        last = np.arange(x.size) % width == width - 1
        text, mask = _fields(x, last)
        yield text[mask].tobytes()
