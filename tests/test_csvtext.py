"""The CSV writer prints every float exactly as Python's "%.17g" % v."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homofiber import csvtext
from homofiber.csvtext import format_rows


def per_float(table):
    return "".join(",".join("%.17g" % x for x in row) + "\n" for row in table.tolist())


def _around(x):
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


EDGES = [
    0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-300, 1e300, 1.0, 0.1, 0.5, 1234.5,
    *_around(csvtext._LOW), *_around(csvtext._HIGH),
    *[y for k in range(-25, 46) for y in _around(float(f"1e{k}"))],
    # exact ties at the 18th digit, which round to even
    1 + 2.0**-17, 1 - 2.0**-17, *[(2.0**52 + m) / 4 for m in (1, 3, 5, 7, 2**51 - 1)],
    # just below a power of ten, where the 17 digits may round up to it: these
    # four doubles lie below 10^k and print as 1e-14, 1e-70, 1e-78 and 1e-79
    np.nextafter(1e-4, 0.0), np.nextafter(1e16, 0.0), np.nextafter(1e17, 0.0),
    1e-14, 1e-70, 1e-78, 1e-79,
    # integers whose integer part ends in zeros, and a point after the 16th digit
    10.0, 120.0, 3e16, 1234567890123456.8, 123456789012345.67,
]


def test_edge_values_match_percent_formatting():
    column = np.array(EDGES + [-x for x in EDGES])
    for v, line in zip(column.tolist(), format_rows(column[:, None]).splitlines()):
        assert line == "%.17g" % v


def test_blocks_and_row_ends(monkeypatch):
    rng = np.random.default_rng(3)
    table = rng.standard_normal((301, 7)) * 10.0 ** rng.integers(-30, 30, (301, 7))
    table[::3, 0], table[1::3, 0], table[::2, -1], table[1::2, -1] = 0.0, -0.0, -0.0, 0.0
    want = per_float(table)
    assert want.startswith("0,") and "\n-0," in want and ",-0\n" in want and ",0\n" in want
    assert format_rows(table) == want
    monkeypatch.setattr(csvtext, "BLOCK_CELLS", 10)  # 1 row of 7 cells per block
    assert format_rows(table) == want
    assert format_rows(table[:0]) == ""
    assert format_rows(np.zeros((3, 0))) == "\n\n\n"  # as per-row "%" formatting writes it


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda cols: st.lists(
            st.lists(st.floats(), min_size=cols, max_size=cols), min_size=1, max_size=8
        )
    )
)
def test_random_tables_match_percent_formatting(rows):
    table = np.array(rows, dtype=float)
    assert format_rows(table) == per_float(table)


@pytest.mark.parametrize("seed", range(3))
def test_random_bit_patterns_and_wide_normals_match_percent_formatting(seed):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, 20000, dtype=np.uint64).view(np.float64)
    wide = rng.standard_normal(20000) * 10.0 ** rng.uniform(-110, 110, 20000)
    table = np.concatenate([bits, wide]).reshape(-1, 8)
    assert format_rows(table) == per_float(table)


def _with_digits(X, n):
    """A positive float whose "%.17g" has exponent X and exactly n significant digits,
    or None if no float has them."""
    for m in range(10 ** (n - 1), 10**n):  # n digits, the last one nonzero
        if m % 10:
            v = float(f"{m}e{X - n + 1}")
            mantissa, exponent = ("%.16e" % v).split("e")
            if len(mantissa.replace(".", "").rstrip("0")) == n and int(exponent) == X:
                return v
    return None


def test_every_exponent_and_digit_count_of_the_layout_tables():
    # exponents -5..17 put the point before every digit or in no group, and
    # 1..17 digits blank or keep the trailing zeros of every group
    found = {(X, n): _with_digits(X, n) for X in range(-5, 18) for n in range(1, 18)}
    # the double nearest d * 1e-5 has 17 digits for every digit d
    assert [key for key, v in found.items() if v is None] == [(-5, 1)]
    points = {(X + 1 if 0 <= X < 17 and X + 1 < n else 0, n) for X, n in found}
    assert points == {(p, n) for n in range(1, 18) for p in [0, *range(1, n)]}
    values = [v for v in found.values() if v is not None]
    column = np.array(values + [-v for v in values])
    assert format_rows(column[:, None]) == per_float(column[:, None])
    table = column[: len(column) // 17 * 17].reshape(-1, 17)
    assert format_rows(table) == per_float(table)


@pytest.mark.parametrize("cells", [5, 10, 15, 8192])
def test_row_ends_on_block_boundaries(monkeypatch, cells):
    # the last column holds zeros of both signs, % fallbacks (10.0 and nan) and
    # values with and without trailing zeros, in blocks of one or more rows
    rng = np.random.default_rng(5)
    table = rng.standard_normal((12, 5))
    table[:, -1] = [0.0, -0.0, 1.0, 10.0, np.nan, 2.5, -0.125, 1e-5, 1e16, 3e16, 1.0 / 3, -7.0]
    monkeypatch.setattr(csvtext, "BLOCK_CELLS", cells)
    assert format_rows(table) == per_float(table)


def test_layout_tables_are_read_only():
    tables = csvtext._tables()
    assert len(tables) == 7
    for t in tables:
        assert not t.flags.writeable
        with pytest.raises(ValueError):
            t[0] = t[0]


def _longest(X, negative):
    """A float whose "%.17g" has exponent X and 17 significant digits, negated if asked."""
    for m in range(12345678901234567, 12345678901234567 + 100):
        v = float(f"{m}e{X - 16}")
        mantissa, exponent = ("%.16e" % v).split("e")
        if int(exponent) == X and not mantissa.endswith("0"):
            return -v if negative else v
    raise AssertionError(X)


def test_the_longest_cell_of_every_fast_path_form_fits_the_record():
    # sign x (fixed with leading zeros, fixed, exponent) at every exponent of the fast path
    forms = {"exponent": [*range(-98, -4), *range(17, 98)], "leading zeros": range(-4, 0),
             "fixed": range(0, 17)}
    longest = {}
    for form, exponents in forms.items():
        column = np.array([_longest(X, negative) for X in exponents for negative in (False, True)])
        lines = format_rows(column[:, None]).splitlines()
        assert lines == ["%.17g" % v for v in column.tolist()], form
        longest[form] = max(map(len, lines)) + 1  # and its comma or newline
    assert longest == {"exponent": 24, "leading zeros": 24, "fixed": 20}
    assert max(longest.values()) <= csvtext.CELL


def _simulate_shaped(rows, n=3, seed=11):
    """t, the re and im parts of a unitary n x n matrix per row, a unit position and the
    speed, with roundoff entries near +-1e-17 and zeros of both signs sprinkled in."""
    rng = np.random.default_rng(seed)
    t = np.linspace(-26.756, 26.756, rows)
    z = rng.standard_normal((rows, n, n)) + 1j * rng.standard_normal((rows, n, n))
    q = np.linalg.qr(z)[0]
    pos = rng.standard_normal((rows, 3))
    pos /= np.linalg.norm(pos, axis=1, keepdims=True)
    speed = 1.0 + rng.standard_normal(rows) * 1e-15
    table = np.column_stack([t, q.view(float).reshape(rows, -1), pos, speed])
    tiny = rng.random(table.shape) < 0.1
    table[tiny] = rng.standard_normal(tiny.sum()) * 1e-17
    table[rng.random(table.shape) < 0.02] = 0.0
    table[rng.random(table.shape) < 0.02] = -0.0
    return table


@pytest.mark.parametrize("cells", ["row", 8192, "table"])
def test_a_simulate_shaped_table_in_blocks_of_a_row_8192_cells_and_the_whole_table(monkeypatch, cells):
    table = _simulate_shaped(2 * (8192 // 23) + 1)  # two full blocks of 8192 cells and one row
    per_block = 8192 // table.shape[1] * table.shape[1]
    ends = table.reshape(-1)[per_block - 2 : per_block + 1]  # around the first block boundary
    ends[:] = [-1e-17, -0.0, 0.0]  # a row ends on the boundary in a zero
    table[-1, -1] = 1e-17
    cells = {"row": table.shape[1], "table": table.size}.get(cells, cells)
    monkeypatch.setattr(csvtext, "BLOCK_CELLS", cells)
    assert format_rows(table) == per_float(table)
