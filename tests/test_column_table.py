"""The column table's kernels are bit-identical to their per-item forms.

The traversal's leaf bound must not drift by one ulp from the scalar
expressions the oracles and goldens were written against: the batched
distance against ``math.sqrt(row @ row)`` per row, and the eagerly
computed column statistics against ``x @ x`` / ``x.mean()`` per
standardized column. ``np.matmul`` is used rather than ``np.vecdot``,
which needs numpy >= 2.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.column_table import pair_distances, source_columns
from repro.core.standardize import standardize_matrix

_FINITE = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def _row_pairs(draw):
    length = draw(st.integers(2, 64))
    rows = draw(st.integers(1, 12))
    shape = (rows, length)
    left = draw(hnp.arrays(np.float64, shape, elements=_FINITE))
    right = draw(hnp.arrays(np.float64, shape, elements=_FINITE))
    return left, right


@settings(max_examples=200, deadline=None)
@given(_row_pairs())
def test_pair_distances_equal_row_dots(pair):
    left, right = pair
    expected = [math.sqrt(row @ row) for row in np.subtract(left, right, order="C")]
    assert pair_distances(left, right).tolist() == expected


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 64).flatmap(
        lambda length: st.tuples(
            st.integers(1, 20).map(lambda genes: (length, genes)),
            st.integers(0, 2**32 - 1),
            st.floats(1e-3, 1e3),
        )
    )
)
def test_source_columns_equal_per_column_stats(case):
    shape, seed, scale = case
    values = np.random.default_rng(seed).normal(size=shape) * scale
    columns, squares, means = source_columns(values)
    std = standardize_matrix(values)
    cols = [std[:, c] for c in range(std.shape[1])]
    assert columns.flags.c_contiguous
    assert columns.tobytes() == np.ascontiguousarray(std.T).tobytes()
    assert squares.tolist() == [float(x @ x) for x in cols]
    assert means.tolist() == [float(x.mean()) for x in cols]
