"""Tests for NLDM timing tables: interpolation, clamping, monotonicity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.techlib import TimingTable


def _make_table():
    return TimingTable.from_linear_model(
        slew_axis=(0.01, 0.05, 0.1, 0.5),
        load_axis=(0.001, 0.01, 0.05, 0.1),
        intrinsic=0.05, drive_res=2.0, slew_sensitivity=0.25,
    )


#: Shared read-only table for the hypothesis tests (fixtures interact badly
#: with hypothesis' per-example execution model).
TABLE = _make_table()


@pytest.fixture
def table():
    return TABLE


class TestConstruction:
    def test_arrays_are_read_only_copies(self):
        values = np.zeros((2, 2))
        table = TimingTable((0.1, 0.2), (0.1, 0.2), values)
        values[0, 0] = 1.0
        assert table.values[0, 0] == 0.0
        for array in (table.slew_axis, table.load_axis, table.values):
            with pytest.raises(ValueError):
                array[0] = 5.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TimingTable((0.1, 0.2), (0.1,), np.zeros((2, 2)))

    def test_non_monotone_axis_rejected(self):
        with pytest.raises(ValueError):
            TimingTable((0.2, 0.1), (0.1, 0.2), np.zeros((2, 2)))


class TestLookup:
    def test_exact_grid_points(self, table):
        for i, s in enumerate(table.slew_axis):
            for j, l in enumerate(table.load_axis):
                assert table.lookup(s, l) == pytest.approx(table.values[i, j])

    def test_linear_model_interpolates_exactly(self, table):
        """A bilinear table built from a bilinear model is exact everywhere."""
        s, l = 0.07, 0.03
        expected = 0.05 + 2.0 * l + 0.25 * s
        assert table.lookup(s, l) == pytest.approx(expected)

    def test_clamps_below_and_above(self, table):
        lo = table.lookup(0.0, 0.0)
        assert lo == pytest.approx(table.values[0, 0])
        hi = table.lookup(10.0, 10.0)
        assert hi == pytest.approx(table.values[-1, -1])

    def test_vectorised_lookup(self, table):
        s = np.array([0.01, 0.07, 0.5])
        l = np.array([0.001, 0.03, 0.1])
        out = table.lookup(s, l)
        assert out.shape == (3,)
        for k in range(3):
            assert out[k] == pytest.approx(table.lookup(s[k], l[k]))

    @settings(max_examples=60, deadline=None)
    @given(s=st.floats(0.0, 1.0), l=st.floats(0.0, 0.2))
    def test_lookup_within_table_range(self, s, l):
        """Interpolated values never leave the convex hull of the table."""
        value = TABLE.lookup(s, l)
        assert TABLE.values.min() - 1e-12 <= value <= TABLE.values.max() + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        s1=st.floats(0.01, 0.5), s2=st.floats(0.01, 0.5),
        l=st.floats(0.001, 0.1),
    )
    def test_monotone_in_slew(self, s1, s2, l):
        """Delay grows with input slew for this (positive-slope) model."""
        lo, hi = min(s1, s2), max(s1, s2)
        assert TABLE.lookup(lo, l) <= TABLE.lookup(hi, l) + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        l1=st.floats(0.001, 0.1), l2=st.floats(0.001, 0.1),
        s=st.floats(0.01, 0.5),
    )
    def test_monotone_in_load(self, l1, l2, s):
        """Delay grows with output load."""
        lo, hi = min(l1, l2), max(l1, l2)
        assert TABLE.lookup(s, lo) <= TABLE.lookup(s, hi) + 1e-12


#: Irregular axes and unstructured values, so reassociating the
#: bilinear terms changes the rounding on a good share of inputs.
BUMPY = TimingTable((0.007, 0.031, 0.113, 0.29, 0.61),
                    (0.0009, 0.0071, 0.023, 0.087),
                    np.random.default_rng(7).uniform(0.01, 2.0, (5, 4)))

#: Slew/load values below, inside and above both axes, plus every
#: breakpoint exactly.
_SLEWS = st.one_of(st.floats(-1.0, 2.0, allow_nan=False),
                   st.sampled_from([float(v) for v in BUMPY.slew_axis]))
_LOADS = st.one_of(st.floats(-0.5, 0.5, allow_nan=False),
                   st.sampled_from([float(v) for v in BUMPY.load_axis]))
_KINDS = st.sampled_from(["float", "float64", "int"])


def _as_input(value, kind):
    if kind == "float64":
        return np.float64(value)
    if kind == "int":
        return int(round(value))
    return value


def _assert_scalar_matches_array(table, s, l):
    scalar = table.lookup(s, l)
    array = table.lookup(np.array([s], dtype=float),
                         np.array([l], dtype=float))[0]
    assert type(scalar) is float
    assert scalar == array


class TestScalarPath:
    """Two Python numbers take the pure-Python branch; it must return a
    ``float`` equal, bit for bit, to the ndarray branch."""

    @settings(max_examples=300, deadline=None)
    @given(s=st.floats(0.007, 0.61), l=st.floats(0.0009, 0.087))
    def test_interior_matches_array_branch_exactly(self, s, l):
        _assert_scalar_matches_array(BUMPY, s, l)

    @settings(max_examples=300, deadline=None)
    @given(s=_SLEWS, l=_LOADS, s_kind=_KINDS, l_kind=_KINDS)
    def test_edges_and_input_types_match_array_branch(self, s, l, s_kind,
                                                      l_kind):
        _assert_scalar_matches_array(BUMPY, _as_input(s, s_kind),
                                     _as_input(l, l_kind))

    def test_every_breakpoint_pair(self):
        for s in BUMPY.slew_axis:
            for l in BUMPY.load_axis:
                _assert_scalar_matches_array(BUMPY, s, l)

    def test_infinities_clamp(self):
        assert BUMPY.lookup(float("inf"), float("-inf")) \
            == BUMPY.values[-1, 0]
