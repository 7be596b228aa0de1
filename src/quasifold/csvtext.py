"""CSV text of float64 rows: the bytes of ``csv.writer`` over ``repr(float)``.

``csv_chunks`` formats a whole chunk of values at once in numpy lanes.
For a lane with a = |x| in [1e-4, 1e16), repr writes the shortest digit
string that reads back as x (nearest to x among the shortest), in
positional notation.  The kernel finds the same digits as follows.

* Exact scaling.  With a = m * 2^e (m in [0.5, 1)), k0 = 16 -
  floor(log10 2^(e - 1)) puts a * 10^k0 in [1e16, 2e17); k is k0, or
  k0 - 1 where that product reaches 1e17, so the scaled value
  V = a * 10^k lies in [1e16, 1e17).  10^k is an exact double (k0 <= 21),
  and Dekker's TwoProduct with a Veltkamp split gives V = hi + lo
  exactly.  hi >= 2^53 is an integer, so V = N + f with the integer
  N = hi + floor(lo) and f = lo - floor(lo) in [0, 1), both exact.  Half
  an ulp of a at the same scale is H = 2^(e - 54) * 10^k, also exact, and
  0.5 < V * 2^-54 < H < 11.2.
* Shortest digits.  Let C_j be V rounded to a multiple of 10^j.  The
  reals that read back as x form an interval of half-width H about V
  (symmetric when m != 0.5).  A multiple of 10^j lies inside exactly when
  C_j does, and then a multiple of every smaller power does too, so
  repr's digits are C_j for the largest j with |C_j - V| < H.  j = 0
  always succeeds.  The search tests j = 1, 2, ... only on the lanes that
  passed the step before, held as an index array that each step shrinks
  with ``np.flatnonzero`` and integer gathers; on sampled data about half
  of the lanes pass j = 1 and a few percent j = 2.  The distances to the
  two candidates, r + f and (10^j - r) - f with r = N mod 10^j, are
  rounded to doubles; rounding is monotonic and H is a double, so a
  strict comparison with H is exact and only equality is in doubt.
* Fallback.  repr itself formats every lane this argument does not cover:
  0 and -0, nan, +-inf and subnormals; |x| outside [1e-4, 1e16);
  significand 2^52 (m == 0.5), whose interval is asymmetric; and exact
  ties, where |C_j - V| == H or V lies halfway between two candidates (at
  distance 10^j / 2, below H only for j = 1).  These lanes get H = 0, so
  the search drops them at once.  Correctness never depends on copying
  the tie rules of repr's dtoa.
* Layout.  Each value becomes a fixed-width field that holds the 17
  digits of C (C < 10^17; a C that rounded up to 10^17 becomes 10^16 at
  scale k - 1) twice: the integer part shows from the first copy and the
  fraction from the second, so no digit moves.  Both copies are written
  in 4-digit groups from a table of 10^4 uint32 words.  The '.' and the
  separator are written over the first hidden digit after the integer
  part and after the fraction, so a field shows two runs of bytes (the
  integer part and '.'; the fraction and separator), as boolean
  compaction costs per run; the sign joins the first run when |x| < 1.
  A precomputed mask row, chosen by k and the trailing zeros of C (the
  final j), picks the bytes repr would write.
* Memory.  A chunk of n values holds its rows (n x 8 bytes) and the
  fields (n x 44 bytes), two buffers reused by every chunk of a call, so
  the blocks are never stacked whole; then the digit search's arrays (at
  most about 100 bytes a value, each freed once used), the mask (n x 44
  bytes) and the compacted text.  8192 values per chunk keep the
  tracemalloc peak of a 10,000 x 12 array near 1.4 MiB.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

# Values per chunk, whatever the row width.
_CHUNK_VALUES = 8192

# Field bytes: 0 pad, 1 '-', 2 '0', 3..19 the 17 digits of C, 20..22
# '000' (fraction digits ahead of C when k > 17), 23..39 the digits of C
# again, 40..41 room for ',' or '\r\n' after a fraction that hides no
# digit, 42..43 pad.  Digits 4..19 and 24..39 are written through a uint32
# view, so every group starts at a multiple of 4.
_WIDTH = 44
_REPR_MAX = 26  # repr and separator, longest '-2.2250738585072014e-308\r\n'
_TEMPLATE = np.frombuffer(b"\0-0" + b"\0" * 17 + b"000" + b"\0" * 21, dtype=np.uint8)

_POW10 = 10.0 ** np.arange(22)  # exact doubles
_POW10_INT = 10 ** np.arange(18, dtype=np.int64)
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant
# k0 by binary exponent e, for the exponents -13..54 of [1e-4, 1e16).
_E_MIN = -13
_K0 = 16 - np.floor(np.arange(_E_MIN - 1, 54) * np.log10(2)).astype(np.int64)

_DIGITS = np.arange(48, 58, dtype=np.uint8)
# The four ASCII digits of 0..9999, one native uint32 each.
_GROUPS = np.stack(np.meshgrid(_DIGITS, _DIGITS, _DIGITS, _DIGITS, indexing="ij"),
                   axis=-1).view(np.uint32).ravel()


def _point(k):
    """The column of the '.': after '0' for |x| < 1, else after the
    integer part in the first copy."""
    return 20 - np.minimum(k, 17)


def _separator(k, j):
    """The column of ',' or '\\r': after the last fraction digit shown, or
    after the one fraction digit '0' of an integer value."""
    return np.maximum(41 - k, 40 - j)


def _visibility() -> np.ndarray:
    """Rows of shown bytes, by k * 17 + j: k the scale, j the trailing
    zeros of C.  The sign and the '\\n' that ends a row are not in them."""
    col = np.arange(_WIDTH)
    k = np.arange(21)[:, None, None]
    j = np.arange(17)[None, :, None]
    integer = (col >= np.where(k >= 17, 2, 3)) & (col <= _point(k))
    fraction = (col >= 40 - k) & (col <= _separator(k, j))
    return (integer | fraction).reshape(-1, _WIDTH)


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
    m, e = np.frexp(a)
    slow = ~((a >= 1e-4) & (a < 1e16)) | (m == 0.5)
    del m
    if slow.any():
        a[slow] = 1.5  # any covered value; these lanes are repr's
        e[slow] = 1  # its exponent
    k = _K0[e - _E_MIN]
    k -= a * _POW10[k] >= 1e17
    scale = _POW10[k]
    hi = a * scale
    a_high, a_low = _split(a)
    del a
    lo = a_high * _POW10_HIGH[k]
    lo -= hi
    lo += a_high * _POW10_LOW[k]
    lo += a_low * _POW10_HIGH[k]
    lo += a_low * _POW10_LOW[k]
    del a_high, a_low
    whole = np.floor(lo)
    n = hi.astype(np.int64) + whole.astype(np.int64)
    f = lo - whole
    h = np.ldexp(scale, e - 54)
    h[slow] = 0
    del hi, lo, whole, scale, e

    c = n + (f > 0.5)  # j = 0: |C_0 - V| <= 1/2 < H
    slow |= f == 0.5
    zeros = np.zeros(x.size, dtype=np.int8)
    live = np.arange(x.size)
    for j in range(1, 18):
        p = _POW10_INT[j]
        q = n // p
        down = n - q * p
        up = p - down
        down = down + f
        up = up - f
        near = np.minimum(down, up)
        inside = near < h
        unsure = near == h
        if j == 1:  # a tie lies 10^j / 2 from V, outside H for j > 1
            unsure |= (down == up) & inside
        if unsure.any():
            slow[live[unsure]] = True
            inside &= ~unsure
        keep = np.flatnonzero(inside)
        if keep.size == 0:
            break
        live = live[keep]
        c[live] = (q + (up < down))[keep] * p
        zeros[live] = j
        del q, down, up, near, inside, unsure
        n, f, h = n[keep], f[keep], h[keep]
    return c, k, zeros, slow


def _format(x: np.ndarray, text: np.ndarray, width: int) -> bytes:
    """The CSV text of the lanes of ``x``, ``width`` to a row, written
    through ``text``, a field buffer that holds the template bytes."""
    c, k, zeros, slow = _shortest(x)
    carried = np.flatnonzero(c >= 10**17)  # V rounded up to 10^17
    if carried.size:
        c[carried] //= 10
        k[carried] -= 1
        zeros[carried] -= 1

    words = text.view(np.uint32)
    for col in (4, 3, 2, 1):
        rest = c // 10000
        group = _GROUPS[c - rest * 10000]
        words[:, col] = group
        words[:, col + 5] = group
        c = rest
    text[:, 3] = text[:, 23] = c + 48
    del c, rest, group

    starts = np.arange(0, text.size, _WIDTH)
    flat = text.reshape(-1)
    flat[starts + _point(k)] = ord(".")
    separators = starts + _separator(k, zeros)
    del starts
    flat[separators] = ord(",")
    newlines = separators[width - 1::width] + 1
    del separators
    flat[newlines - 1] = ord("\r")
    flat[newlines] = ord("\n")

    mask = np.take(_VISIBLE, k * 17 + zeros, axis=0)
    del k, zeros
    mask[:, 1] = np.signbit(x)
    mask.reshape(-1)[newlines] = True

    slow_lanes = np.flatnonzero(slow)
    if slow_lanes.size:
        seps = np.where(slow_lanes % width == width - 1, "\r\n", ",")
        reprs = [(repr(v) + sep).encode() for v, sep in zip(x[slow_lanes].tolist(), seps)]
        text[slow_lanes, :_REPR_MAX] = np.array(reprs, dtype=f"S{_REPR_MAX}").view(
            np.uint8).reshape(-1, _REPR_MAX)
        mask[slow_lanes] = np.arange(_WIDTH) < np.array([len(s) for s in reprs])[:, None]
    chunk = text[mask].tobytes()
    text[slow_lanes, :_REPR_MAX] = _TEMPLATE[:_REPR_MAX]  # for the next chunk
    return chunk


def csv_chunks(*blocks: np.ndarray) -> Iterator[bytes]:
    """The CSV lines of 2-d float64 arrays with equal row counts, set side
    by side (the rows of ``np.hstack(blocks)``), ',' between fields and CRLF
    after each row, in chunks of about ``_CHUNK_VALUES`` values.  Each
    chunk's rows are copied into one reused buffer, not the whole stack."""
    count = len(blocks[0])
    width = sum(block.shape[1] for block in blocks)
    step = max(1, _CHUNK_VALUES // width)
    rows = np.empty((min(step, count), width))
    text = np.empty((rows.size, _WIDTH), dtype=np.uint8)
    text[:] = _TEMPLATE
    for start in range(0, count, step):
        chunk = rows[:min(step, count - start)]
        np.concatenate([block[start:start + step] for block in blocks], axis=1, out=chunk)
        x = chunk.ravel()
        yield _format(x, text[:x.size], width)
