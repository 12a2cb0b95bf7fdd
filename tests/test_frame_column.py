"""Unit and property tests for Column."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ColumnTypeError, LengthMismatchError
from repro.frame import Column, dtypes


class TestConstruction:
    def test_infers_dtype(self):
        assert Column("a", [1, 2]).dtype == dtypes.INT64
        assert Column("a", ["x"]).dtype == dtypes.STRING
        assert Column("a", [1, "12k"]).dtype == dtypes.MIXED

    def test_explicit_dtype(self):
        col = Column("a", [1, 2], dtype=dtypes.FLOAT64)
        assert col.dtype == dtypes.FLOAT64
        assert col[0] == 1.0

    def test_missing_values(self):
        col = Column("a", [1, None, 3])
        assert col.n_missing == 1
        assert col[1] is None
        assert list(col.missing_positions()) == [1]

    def test_nan_is_missing(self):
        col = Column("a", [1.0, float("nan")])
        assert col.n_missing == 1

    def test_python_values_out(self):
        col = Column("a", [1, 2])
        assert isinstance(col[0], int) and not isinstance(col[0], np.integer)


class TestAccess:
    def test_iteration_matches_getitem(self):
        col = Column("a", [1, None, 3])
        assert list(col) == [col[i] for i in range(3)]

    def test_to_list(self):
        assert Column("a", ["x", None]).to_list() == ["x", None]

    def test_equals(self):
        assert Column("a", [1, None]).equals(Column("a", [1, None]))
        assert not Column("a", [1, 2]).equals(Column("a", [1, 3]))
        assert not Column("a", [1]).equals(Column("a", [1, 1]))
        assert not Column("a", [1, None]).equals(Column("a", [None, 1]))


class TestTransforms:
    def test_take(self):
        col = Column("a", [10, 20, 30]).take([2, 0])
        assert col.to_list() == [30, 10]

    def test_mask_filter(self):
        col = Column("a", [10, 20, 30]).mask_filter(np.array([True, False, True]))
        assert col.to_list() == [10, 30]

    def test_mask_filter_length_check(self):
        with pytest.raises(LengthMismatchError):
            Column("a", [1, 2]).mask_filter(np.array([True]))

    def test_set_at_scalar(self):
        col = Column("a", [1, 2, 3]).set_at([0, 2], 9)
        assert col.to_list() == [9, 2, 9]

    def test_set_at_is_copy(self):
        original = Column("a", [1, 2, 3])
        original.set_at([0], 9)
        assert original.to_list() == [1, 2, 3]

    def test_set_at_sequence(self):
        col = Column("a", [1, 2, 3]).set_at([0, 1], [7, 8])
        assert col.to_list() == [7, 8, 3]

    def test_set_at_none_marks_missing(self):
        col = Column("a", [1, 2]).set_at([0], None)
        assert col[0] is None and col.n_missing == 1

    def test_set_at_widens_int_to_float(self):
        col = Column("a", [1, 2]).set_at([0], 1.5)
        assert col.dtype == dtypes.FLOAT64
        assert col.to_list() == [1.5, 2.0]

    def test_set_at_widens_to_mixed(self):
        col = Column("a", [1, 2]).set_at([0], "12k")
        assert col.dtype == dtypes.MIXED
        assert col.to_list() == ["12k", 2]

    def test_set_at_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            Column("a", [1, 2]).set_at([0, 1], [1])

    def test_fill_missing(self):
        col = Column("a", [1, None, None]).fill_missing(0)
        assert col.to_list() == [1, 0, 0]

    def test_astype_numeric_to_string(self):
        col = Column("a", [1, None]).astype(dtypes.STRING)
        assert col.to_list() == ["1", None]

    def test_astype_mixed_to_float_strict(self):
        col = Column("a", [1, "12k", "7"]).astype(dtypes.FLOAT64)
        # "12k" is not a strict literal -> missing; "7" parses
        assert col.to_list() == [1.0, None, 7.0]

    def test_concat(self):
        col = Column("a", [1]).concat(Column("a", [2, None]))
        assert col.to_list() == [1, 2, None]

    def test_rename_shares_data(self):
        col = Column("a", [1, 2])
        renamed = col.rename("b")
        assert renamed.name == "b" and renamed.to_list() == [1, 2]


class TestNumericView:
    def test_numeric_column(self):
        values, ok, mismatch = Column("a", [1, None, 3]).to_numeric()
        assert list(values[ok]) == [1.0, 3.0]
        assert not mismatch.any()

    def test_mixed_column_strict(self):
        values, ok, mismatch = Column("a", [50000, "12k", None]).to_numeric()
        assert list(ok) == [True, False, False]
        assert list(mismatch) == [False, True, False]

    def test_mixed_column_lenient(self):
        values, ok, mismatch = Column("a", [50000, "12k"]).to_numeric(lenient=True)
        assert list(ok) == [True, True]
        assert values[1] == 12000.0
        assert not mismatch.any()

    def test_bool_column(self):
        values, ok, _ = Column("a", [True, False]).to_numeric()
        assert list(values) == [1.0, 0.0]


class TestStatistics:
    def test_basic_stats(self):
        col = Column("a", [2.0, 4.0, None])
        assert col.mean() == 3.0
        assert col.min() == 2.0
        assert col.max() == 4.0
        assert col.median() == 3.0
        assert col.sum() == 6.0
        assert col.std() == pytest.approx(1.0)

    def test_stats_on_all_missing(self):
        assert Column("a", [None, None]).mean() is None

    def test_string_stat_raises(self):
        with pytest.raises(ColumnTypeError):
            Column("a", ["x"]).mean()

    def test_unique_preserves_order(self):
        assert Column("a", ["b", "a", "b", None]).unique() == ["b", "a"]

    def test_value_counts(self):
        assert Column("a", ["x", "x", "y", None]).value_counts() == {"x": 2, "y": 1}

    def test_mode(self):
        assert Column("a", ["x", "y", "x"]).mode() == "x"
        assert Column("a", [None]).mode() is None


@given(st.lists(st.one_of(st.none(), st.integers(-1000, 1000)), max_size=50))
def test_property_roundtrip_values(values):
    """Values in == values out, missing pattern preserved."""
    col = Column("a", values)
    assert col.to_list() == values


@given(st.lists(st.integers(-100, 100), min_size=1, max_size=30), st.data())
def test_property_take_matches_python_indexing(values, data):
    col = Column("a", values)
    indices = data.draw(st.lists(st.integers(0, len(values) - 1), max_size=20))
    assert col.take(indices).to_list() == [values[i] for i in indices]


class TestIteration:
    """Chunked iteration yields exactly the per-cell ``_to_python`` values."""

    SAMPLES = {
        dtypes.INT64: [3, -7, 0, 2**40],
        dtypes.FLOAT64: [1.5, -0.25, 3.0, 1e300],
        dtypes.BOOL: [True, False, True],
        dtypes.STRING: ["a", "bb", ""],
        dtypes.MIXED: [1, "12k", 2.5, np.int64(4), np.float64(0.5)],
    }

    @staticmethod
    def _expected(col):
        from repro.frame.column import _to_python

        return [
            _to_python(col._data[i], col.dtype) if col._valid[i] else None
            for i in range(len(col))
        ]

    @staticmethod
    def _assert_same(got, expected):
        assert len(got) == len(expected)
        for value, want in zip(got, expected):
            assert type(value) is type(want)
            assert value == want

    @pytest.mark.parametrize("dtype", dtypes.ALL_DTYPES)
    @pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 9000])
    def test_values_and_types_across_chunk_boundaries(self, dtype, n):
        sample = self.SAMPLES[dtype]
        # a missing cell every 5th row, including rows 4095 and 4096 ± 1
        values = [None if i % 5 == 0 else sample[i % len(sample)]
                  for i in range(n)]
        col = Column("a", values, dtype=dtype)
        self._assert_same(list(col), self._expected(col))
        self._assert_same(col.to_list(), self._expected(col))

    @pytest.mark.parametrize("dtype", dtypes.ALL_DTYPES)
    @pytest.mark.parametrize("n", [4095, 4096, 4097])
    def test_all_missing_and_none_missing(self, dtype, n):
        empty = Column("a", [None] * n, dtype=dtype)
        assert list(empty) == [None] * n
        sample = self.SAMPLES[dtype]
        full = Column("a", [sample[i % len(sample)] for i in range(n)],
                      dtype=dtype)
        self._assert_same(list(full), self._expected(full))
