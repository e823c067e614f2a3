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
