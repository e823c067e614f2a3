"""CSV rows of floats, each value written as Python's "%.17g" % v, byte for byte.

A float's 17 significant digits D and decimal exponent X come from one
array program over a block of rows, in the manner of Grisu (Loitsch,
PLDI 2010): a fast path that knows when it cannot decide, and an exact
fallback. X is floor(log10 |v|); |v| is scaled by 10^(16 - X) as a
double-double (Veltkamp split and Dekker's two-product against a table
of 10^q built exactly from integers) and D is the nearest integer.

A cell is written by "%.17g" % v itself when the fast path cannot
decide or would need a layout it lacks:
- v is nan or infinite, or |v| lies outside [1e-98, 1e98), so every
  exponent of the fast path has two digits;
- the scaled value lies within a guard of a tie (Python rounds ties to
  even), or off [10^16, 10^17), where log10 misjudged X or D rounds up
  to 10^17 (both only next to a power of ten);
- v is an integer whose integer part ends in zeros, or its point
  stands after the 16th digit.

The %g rule at precision 17 picks the fixed or the exponent form and
drops trailing zeros. A cell is laid out in 36 bytes, nine uint32
columns, each written as one one-dimensional gather from a read-only
table:
- columns 0 and 1, the head: sign, "0.000" prefix and first digit, by
  sign, leading zeros and first digit;
- columns 2 to 6, five groups of three digits, each with the point
  before one of its digits or none and with trailing zeros blanked or
  kept. Group k's offset table maps point * 18 + n, for the point
  before digit point (0: none) and n significant digits, to a run of
  1000 entries of the group table, and the group's value picks the
  entry. n is 17 unless the last digit is 0, so it is counted only in
  those cells;
- columns 7 and 8, the tail: the last digit with the e+dd suffix and
  a comma, or a newline at the end of a row.
The cells of a block are laid out in one bytearray, reused from block
to block, and its unused bytes are NUL, dropped by one translate.
`blocks` yields each block's bytes, and `format_rows` joins them into
one str.
"""

from __future__ import annotations

from functools import cache

import numpy as np

BLOCK_CELLS = 8192  # cells formatted at once: 64 KB of float64 input
_GUARD = 2.0**-20
_LOW, _HIGH = 1e-98, 1e98
_QMIN, _QMAX = 16 - 98, 16 + 99  # 10^(16 - X) for X in [-99, 98]
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's constant for doubles


def _pow10(q):
    """10^q as a double-double: hi correctly rounded, lo the correctly rounded rest."""
    num, den = (10**q, 1) if q >= 0 else (1, 10**-q)
    hi = num / den
    a, b = hi.as_integer_ratio()
    return hi, (num * b - a * den) / (den * b)


def _split(x):
    """Veltkamp split: x = hi + lo exactly, each half with at most 26 significant bits."""
    c = _SPLIT * x
    hi = c - (c - x)
    return hi, x - hi


@cache
def _tables():
    """The 10^q table, split for two-product, and the tables of a cell: group bytes, the
    group offsets, and head and tail bytes as low and high uint32 halves."""
    hi, lo = np.array([_pow10(q) for q in range(_QMIN, _QMAX + 1)]).T
    n = np.arange(1000)
    full = np.stack([n // 100, n // 10 % 10, n % 10], axis=1) + 48
    sig = 3 - (n % 10 == 0) - (n % 100 == 0) - (n == 0)  # digits up to the last nonzero one
    digits = np.stack([full, np.where(np.arange(3) < sig[:, None], full, 0)])
    groups = np.zeros((4, 2, 1000, 4), np.uint8)  # [point before digit o, or 3: none][blank]
    for o in range(4):
        groups[o, ..., :o] = digits[..., :o]
        if o < 3:
            groups[o, ..., o] = ord(".")
            groups[o, ..., o + 1 :] = digits[..., o:]
    head = np.zeros((2, 5, 10, 8), np.uint8)  # [negative][-X if fixed X < 0, else 0][first digit]
    head[1, ..., 0] = ord("-")
    prefix = np.frombuffer(b"0.000", np.uint8)
    for z in range(1, 5):
        head[:, z, :, 1 : z + 2] = prefix[: z + 1]
    head[..., 6] = 48 + np.arange(10)
    tail = np.zeros((200, 2, 11, 8), np.uint8)  # [0: fixed, else X + 100][row end][last or 10]
    tail[..., :10, 0] = 48 + np.arange(10)
    x = np.arange(-99, 100)[:, None]
    tail[1:, ..., 1:5] = np.stack(
        [np.full_like(x, ord("e")), np.where(x < 0, ord("-"), ord("+")),
         48 + abs(x) // 10, 48 + abs(x) % 10], axis=-1
    )[:, :, None, :]
    tail[:, 0, :, 5], tail[:, 1, :, 5] = ord(","), ord("\n")
    k, point, n = np.ogrid[:5, :17, :18]  # [group][point before this digit, or 0][digits]
    o = np.where((point > 3 * k) & (point <= 3 * k + 3), point - 3 * k - 1, 3)
    offsets = ((o * 2 + (n <= 3 * k + 4)) * 1000).reshape(5, -1)
    tables = (
        hi, *_split(hi), lo, sig,
        groups.reshape(-1, 4).view(np.uint32)[:, 0], offsets,
        *head.reshape(-1, 2, 4).view(np.uint32)[..., 0].T.copy(),
        *tail.reshape(-1, 2, 4).view(np.uint32)[..., 0].T.copy(),
    )
    for t in tables:  # one copy serves every call
        t.flags.writeable = False
    return tables


def _scaled(a, X):
    """The integer nearest a * 10^(16 - X), its floor, and its distance from a tie."""
    q = 16 - X - _QMIN
    hi, h1, h2, lo = (t[q] for t in _tables()[:4])
    a1, a2 = _split(a)
    p = a * hi  # a * hi = p + e exactly, by Dekker's two-product
    e = ((a1 * h1 - p) + a1 * h2 + a2 * h1) + a2 * h2
    whole = np.floor(p)
    f = (p - whole) + (e + a * lo)
    up = np.floor(f + 0.5)
    whole = whole.astype(np.int64)
    return whole + up.astype(np.int64), whole + np.floor(f).astype(np.int64), 0.5 - np.abs(f - up)


def _block(table, buf):
    """The bytes of the rows of one block, each row ending in a newline.

    The cells are laid out in buf, 36 bytes each, which the caller
    reuses from block to block.
    """
    sig, groups, offsets, head0, head1, tail0, tail1 = _tables()[4:]
    v = table.reshape(-1)
    a = np.abs(v)
    fast = (a >= _LOW) & (a < _HIGH)
    a = np.where(fast, a, 1.0)
    X = np.floor(np.log10(a)).astype(np.int64)
    D, floor, margin = _scaled(a, X)
    zero = v == 0.0  # laid out as the first digit 0 alone: "0" or "-0"
    fast = fast & (margin > _GUARD) & (floor >= 10**16) & (D < 10**17) | zero

    D = np.where(fast, D, 10**16) * ~zero
    first = D // 10**16
    rest = D - first * 10**16
    mid = rest // 10  # the 15 digits between the first and the last
    last = rest - mid * 10
    g = [mid // 10**12] + [mid // 10**j % 1000 for j in (9, 6, 3, 0)]
    n = np.full_like(D, 17)  # significant digits: through the last nonzero one
    short = np.flatnonzero(last == 0)  # only these can have fewer
    m = np.ones_like(short)
    for k, gk in enumerate(g):
        gs = gk[short]
        m = np.where(gs != 0, 3 * k + 1 + sig[gs], m)
    n[short] = m
    fixed = (X >= -4) & (X < 17)
    point = np.where(fixed, X + 1, 1)  # the point stands before this digit
    point = np.where((point >= 1) & (point < n), point, 0)
    fast &= ~(fixed & (n < X + 1)) & (point < 16)
    last = np.where(fast & (last != 0), last, 10)

    cells = np.frombuffer(buf, np.uint32, 9 * v.size).reshape(-1, 9)
    h = (np.signbit(v) * 5 + np.where(fixed & (X < 0), -X, 0)) * 10 + first
    cells[:, 0], cells[:, 1] = head0[h], head1[h]
    pn = point * 18 + n
    for k, gk in enumerate(g):
        cells[:, 2 + k] = groups[offsets[k][pn] + gk]
    t = np.where(fixed | ~fast, 0, X + 100) * 22 + last
    t.reshape(table.shape)[:, -1:] += 11  # a row ends in a newline, not a comma
    cells[:, 7], cells[:, 8] = tail0[t], tail1[t]
    raw = cells.view(np.uint8)
    for i in np.flatnonzero(~fast):
        text = ("%.17g" % v[i]).encode()
        raw[i, :28] = 0
        raw[i, : len(text)] = np.frombuffer(text, np.uint8)
    return (buf if raw.size == len(buf) else buf[: raw.size]).translate(None, b"\0")


def blocks(table):
    """The CSV bytes of a 2-D float table, block by block: one line per row, each value
    as "%.17g" % v."""
    table = np.ascontiguousarray(table, dtype=float)
    if table.shape[1] == 0:  # no cell to end a row: each row is an empty line
        yield b"\n" * len(table)
        return
    rows = max(1, BLOCK_CELLS // table.shape[1])
    buf = bytearray(36 * min(rows, len(table)) * table.shape[1])
    for i in range(0, len(table), rows):
        yield _block(table[i : i + rows], buf)


def format_rows(table):
    """A 2-D float table as CSV text, one line per row, each value as "%.17g" % v."""
    return b"".join(blocks(table)).decode("ascii")
