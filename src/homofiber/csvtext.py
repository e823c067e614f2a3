"""CSV rows of floats, each value written as Python's "%.17g" % v, byte for byte.

A float's 17 significant digits D and decimal exponent X come from one
array program over a block of rows, in the manner of Grisu (Loitsch,
PLDI 2010): a fast path that knows when it cannot decide, and an exact
fallback. X is floor(log10 |v|); |v| is scaled by 10^(16 - X) as a
double-double (Veltkamp split and Dekker's two-product against a table
of 10^q built exactly from integers) and D is the nearest integer.

The fast path runs once over every cell of a block, on |v| clipped to
[1e-98, 1e98), so every table index is in range whatever v holds. A
cell is then rewritten by "%.17g" % v itself, or as "0" or "-0", when
the fast path cannot decide:
- v is zero, nan or infinite, or |v| lies outside [1e-98, 1e98), so
  every exponent of the fast path has two digits;
- the scaled value lies within a guard of a tie (Python rounds ties to
  even), or off [10^16, 10^17 - 1), where log10 misjudged X or D rounds
  up to 10^17 (both only next to a power of ten).

The %g rule at precision 17 picks the fixed or the exponent form and
drops trailing zeros after the point. A cell is laid out in 32 bytes,
one uint64 and six uint32 columns, each written as one one-dimensional
gather from a read-only table:
- the head, 8 bytes: sign, "0.000" prefix, the first two digits and a
  point after either, by sign, X and whether any later digit is nonzero;
- five groups of three digits, each with a point after one of its
  digits or none, trailing zeros blanked or kept, by X and whether any
  later digit is nonzero; the last group ends in the "e" of an
  exponent;
- the tail: the exponent's sign and two digits, and a comma, or a
  newline at the end of a row.
The cells of a block are laid out in one bytearray, and every
temporary of a block has a buffer too; all are made once per table
and reused from block to block (`_Work`). The unused bytes of the
cells are NUL, dropped by one translate.
`blocks` yields each block's bytes, and `format_rows` joins them into
one str.
"""

from __future__ import annotations

from functools import cache

import numpy as np

BLOCK_CELLS = 8192  # cells formatted at once: 64 KB of float64 input
CELL = 32  # bytes of a cell's record
_GUARD = 2.0**-20
_LOW, _HIGH = 1e-98, 1e98
_TOP = float(np.nextafter(_HIGH, 0.0))
_XMIN, _XMAX = -99, 98  # X of the clipped |v|; every table by X has a row per X
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's constant for doubles
_INT = np.frompyfunc(int, 1, 1)


def _pow10(q):
    """10^q over an int array q as double-doubles: hi correctly rounded, lo the correctly
    rounded rest, from exact Python integers in object arrays. With hi = A 2^-s for q < 0,
    the rest is (2^s - A 10^-q) / (10^-q 2^s); for q >= 0 hi is an integer, and the rest too."""
    tens = np.full(np.abs(q).max(initial=0) + 1, 10, dtype=object)
    tens[0] = 1
    big = np.multiply.accumulate(tens)[np.abs(q)]  # 10^|q|
    hi, lo, up = np.empty(q.shape), np.empty(q.shape), q >= 0
    hi[up] = big[up].astype(float)  # int to float rounds correctly
    lo[up] = (big[up] - _INT(hi[up])).astype(float)
    b = big[~up]
    hi[~up] = (1 / b).astype(float)
    m, e = np.frexp(hi[~up])
    A = np.ldexp(m, 53).astype(np.int64).astype(object)
    two = np.left_shift(1, (53 - e).astype(object))  # 2^s
    lo[~up] = ((two - A * b) / (b * two)).astype(float)
    return hi, lo


def _split(x):
    """Veltkamp split: x = hi + lo exactly, each half with at most 26 significant bits."""
    c = _SPLIT * x
    hi = c - (c - x)
    return hi, x - hi


def _group_table():
    """Groups of three digits, 4 bytes each, [mode][value]. Mode s * 2 + z, s the digits
    before the point (0: all after it, 4: all before, no point) and z whether every later
    digit is zero, which blanks trailing zeros after the point and a point with none
    after it; mode 10 is s = 0, z = 1 with the "e" of an exponent."""
    n = np.arange(1000)
    chars = np.stack([n // 100, n // 10 % 10, n % 10], axis=1).astype(np.uint8) + 48
    later = np.flip(np.logical_or.accumulate(np.flip(chars != 48, 1), 1), 1)  # a nonzero digit here or after
    later = np.concatenate([later, np.zeros((1000, 1), bool)], axis=1)
    blank, dots = chars * later[:, :3], later * np.uint8(ord("."))  # blanked unless later is nonzero
    out = np.zeros((11, 1000, 4), np.uint8)
    for mode in range(11):
        s, z = divmod(mode, 2) if mode < 10 else (0, 1)
        row = out[mode]
        for k in range(3):  # digit k stands after the point when the point is inside, at s <= k
            row[:, k + (1 <= s <= k)] = chars[:, k] if k < s or not z else blank[:, k]
        if 1 <= s <= 3:
            row[:, s] = ord(".") if not z else dots[:, s]
    out[10, :, 3] = ord("e")
    return out.reshape(-1, 4).view(np.uint32)[:, 0]


def _head_table():
    """The first 8 bytes of a cell, [kind][z][negative][first two digits], and one spare.
    Kind 0-3: "0." and kind zeros before the digits (-4 <= X < 0); 4 and 5: a point after
    the first or second digit; 6: no point. z: every later digit is zero. A row is its
    sign and "0.000" prefix, then the first digit and up to two characters after it."""
    kind, z, neg = np.arange(7).reshape(7, 1, 1, 1), np.arange(2).reshape(2, 1, 1), np.arange(2)[:, None]
    d, p = np.arange(100), np.arange(8)
    first = neg + np.where(kind < 4, 2 + kind, 0)  # the byte of the first digit
    sign = neg[..., None]
    text = np.where(p < sign, ord("-"), np.where(p - sign == 1, ord("."), ord("0")))
    prefix = np.where(p < first[..., None], text, 0).astype(np.uint8).view(np.uint64)[..., 0]
    out = np.zeros(7 * 2 * 2 * 100 + 1, np.uint64)
    out[:-1].reshape(7, 2, 2, 100)[...] = prefix  # the 8 bytes of a row as one uint64
    d2 = d % 10 + 48
    some = (d2 != 48) | (z == 0)  # a digit after the first is shown
    shown = np.where(some, d2, 0)
    at = np.arange(2800).reshape(7, 2, 2, 100) * 8 + first
    flat = out.view(np.uint8)
    flat[at] = d // 10 + 48
    flat[at + 1] = np.where(kind < 4, shown, np.where(kind > 4, d2, np.where(some, ord("."), 0)))
    flat[at[4:5] + 2] = shown  # kind 4: the second digit after the point
    flat[at[5:6] + 2] = np.where(z == 0, ord("."), 0)  # kind 5: the point after it
    return out


@cache
def _tables():
    """The 10^(16 - X) table by X, split for two-product, the head, group and tail tables,
    and by X the head and group offsets of a cell."""
    X = np.arange(_XMIN, _XMAX + 1)
    hi, lo = _pow10(16 - X)
    exponent = (X < -4) | (X > 16)
    points = np.where(exponent, 1, np.maximum(X + 1, 0))  # digits before the point
    kind = np.where(exponent | (X == 0), 4, np.where(X < 0, -X - 1, np.minimum(X + 4, 6)))
    s = np.minimum(np.maximum(points[:, None] - 3 * np.arange(5) - 2, 0), 4)  # per group, s of its mode
    group_offsets = (s * 2 + [0, 0, 0, 0, 1]) * 1000  # the last group: z = 1 always
    group_offsets[exponent, 4] = 10_000
    # [X][row end]: an exponent's sign and two digits, and a separator
    e, end, a = exponent[:, None], np.frombuffer(b",\n", np.uint8), np.abs(X)[:, None]
    tail = np.zeros((len(X), 2, 4), np.uint8)
    tail[..., 0] = np.where(e, np.where(X < 0, ord("-"), ord("+"))[:, None], end)
    tail[..., 1] = np.where(e, a // 10 + 48, 0)
    tail[..., 2] = np.where(e, a % 10 + 48, 0)
    tail[..., 3] = np.where(e, end, 0)
    zero = b"".join(t.ljust(CELL, b"\0") for t in (b"0,", b"0\n", b"-0,", b"-0\n"))
    tables = (
        np.stack([hi, *_split(hi), lo], axis=1), _head_table(), _group_table(),
        tail.view(np.uint32).reshape(-1), kind * 400, group_offsets.T.copy(),
        np.frombuffer(zero, np.uint8).reshape(4, CELL).copy(),
    )
    for t in tables:  # one copy serves every call
        t.flags.writeable = False
    return tables


class _Work:
    """The buffers of a block of rows x cols cells, reused from block to block: the cell
    records, the row ends (1 on the last cell of a row) and the temporaries of `_block`."""

    def __init__(self, rows, cols):
        n = rows * cols
        self.buf = bytearray(CELL * n)
        self.ends = np.zeros((rows, cols), np.intp)
        self.ends[:, -1] = 1
        self.ends = self.ends.reshape(-1)
        self.pow = np.empty((n, 4))
        self.f = np.empty((7, n))
        self.i = np.empty((3, n), np.intp)
        self.u = np.empty((8, n), np.uint32)
        self.b = np.empty((3, n), bool)


def _block(v, w):
    """The bytes of the cells v of whole rows, each row ending in a newline, laid out in
    the buffers w."""
    n = v.size
    pow10, head, groups, tail, head_offsets, group_offsets, zero = _tables()
    a, c, a1, a2, p, f, t = (row[:n] for row in w.f)
    x, D, i = (row[:n] for row in w.i)
    top, low, first, *g = (row[:n] for row in w.u)
    bad, m, z = (row[:n] for row in w.b)
    ends = w.ends[:n]

    np.abs(v, out=a)
    np.fmin(np.fmax(a, _LOW, out=c), _TOP, out=c)  # nan to _LOW: no warning, every index in range
    np.floor(np.log10(c, out=t), out=t)
    t -= _XMIN
    np.copyto(x, t, casting="unsafe")  # X - _XMIN, the row of X in every table by X
    hi, h1, h2, lo = pow10.take(x, axis=0, out=w.pow[:n], mode="clip").T
    np.multiply(c, _SPLIT, out=t)  # Veltkamp's split of c, as in _split
    np.subtract(t, np.subtract(t, c, out=a1), out=a1)
    np.subtract(c, a1, out=a2)
    np.multiply(c, hi, out=p)  # c * hi = p + e exactly, by Dekker's two-product
    np.subtract(np.multiply(a1, h1, out=f), p, out=f)
    f += np.multiply(a1, h2, out=t)
    f += np.multiply(a2, h1, out=t)
    f += np.multiply(a2, h2, out=t)
    f += np.multiply(c, lo, out=t)  # p >= 2^53 is an integer, so f = e + c lo is the rest
    np.floor(np.add(f, 0.5, out=t), out=t)  # the rest rounded
    np.copyto(D, p, casting="unsafe")
    np.copyto(i, t, casting="unsafe")
    D += i
    np.not_equal(c, a, out=bad)  # zero, not finite or off [1e-98, 1e98)
    np.subtract(D, np.less(f, t, out=m), out=i)  # the floor of the scaled value
    i -= 10**16
    bad |= np.greater_equal(i.view(np.uint64), 9 * 10**16 - 1, out=m)  # floor in [10^16, 10^17 - 1)
    bad |= np.greater_equal(np.abs(np.subtract(f, t, out=f), out=f), 0.5 - _GUARD, out=m)

    np.floor_divide(D, 10**9, out=i)
    top[:] = i  # the first eight digits
    np.subtract(D, np.multiply(i, 10**9, out=i), out=i)
    low[:] = i  # the last nine
    np.floor_divide(top, 10**6, out=first)  # the first two, for the head
    np.floor_divide(top, 1000, out=g[0])  # then five groups of three
    np.subtract(top, np.multiply(g[0], 1000, out=g[1]), out=g[1])
    np.subtract(g[0], np.multiply(first, 1000, out=top), out=g[0])
    np.floor_divide(low, 10**6, out=g[2])
    np.floor_divide(low, 1000, out=g[3])
    np.subtract(low, np.multiply(g[3], 1000, out=g[4]), out=g[4])
    np.subtract(g[3], np.multiply(g[2], 1000, out=low), out=g[3])

    # z: every digit after the current group is zero, which picks a group's and the
    # head's mode with trailing zeros blanked.
    cells = np.frombuffer(w.buf, np.uint32, 8 * n).reshape(-1, 8)
    np.equal(g[4], 0, out=z)
    cells[:, 6] = groups.take(np.add(group_offsets[4].take(x, mode="clip"), g[4], out=i), mode="clip")
    for k in (3, 2, 1, 0):
        np.add(group_offsets[k].take(x, mode="clip"), g[k], out=i)
        i += np.multiply(z, 1000, out=D)
        z &= np.equal(g[k], 0, out=m)
        cells[:, 2 + k] = groups.take(i, mode="clip")
    np.add(head_offsets.take(x, mode="clip"), first, out=i)
    i += np.multiply(np.signbit(v, out=m), 100, out=D)
    i += np.multiply(z, 200, out=D)
    cells.view(np.uint64)[:, 0] = head.take(i, mode="clip")
    cells[:, 7] = tail.take(np.add(np.multiply(x, 2, out=i), ends, out=i), mode="clip")

    bad = np.flatnonzero(bad)
    if bad.size:  # zeros as "0" and "-0", and any other cell by % itself
        raw = cells.view(np.uint8)
        values = v[bad]
        zeros = bad[values == 0.0]
        raw[zeros] = zero[np.signbit(v[zeros]) * 2 + ends[zeros]]
        for j, value in zip(bad[values != 0.0].tolist(), values[values != 0.0].tolist()):
            text = ("%.17g" % value).encode() + b",\n"[ends[j] : ends[j] + 1]
            w.buf[CELL * j : CELL * (j + 1)] = text.ljust(CELL, b"\0")
    buf = w.buf if CELL * n == len(w.buf) else w.buf[: CELL * n]
    return buf.translate(None, b"\0")


def blocks(table):
    """The CSV bytes of a 2-D float table, block by block: one line per row, each value
    as "%.17g" % v."""
    table = np.ascontiguousarray(table, dtype=float)
    rows, cols = table.shape
    if cols == 0:  # no cell to end a row: each row is an empty line
        yield b"\n" * rows
        return
    step = max(1, BLOCK_CELLS // cols)
    work = _Work(min(step, rows), cols)
    for i in range(0, rows, step):
        yield _block(table[i : i + step].reshape(-1), work)


def format_rows(table):
    """A 2-D float table as CSV text, one line per row, each value as "%.17g" % v."""
    return b"".join(blocks(table)).decode("ascii")
