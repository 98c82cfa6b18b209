"""Tests for Parameter and ParameterView (flat indexing, assignment)."""

import numpy as np
import pytest

from repro.nn.tensor import Parameter, ParameterView


class TestParameter:
    def test_value_is_float64_copy(self):
        raw = np.array([[1, 2], [3, 4]], dtype=np.int32)
        p = Parameter(raw, name="w")
        assert p.value.dtype == np.float64
        assert p.shape == (2, 2)
        assert p.size == 4

    def test_assign_checks_shape(self):
        p = Parameter(np.zeros((2, 3)), name="w")
        with pytest.raises(ValueError, match="cannot assign"):
            p.assign(np.zeros((3, 2)))
        p.assign(np.ones((2, 3)))
        assert np.all(p.value == 1.0)

    def test_assign_copies_input(self):
        p = Parameter(np.zeros((2,)))
        src = np.array([1.0, 2.0])
        p.assign(src)
        src[0] = 99.0
        assert p.value[0] == 1.0

    def test_add_in_place(self):
        p = Parameter(np.ones((2,)))
        p.add_(np.array([0.5, -0.5]))
        np.testing.assert_allclose(p.value, [1.5, 0.5])

    def test_add_shape_mismatch_raises(self):
        p = Parameter(np.ones((2,)))
        with pytest.raises(ValueError, match="delta shape"):
            p.add_(np.ones((3,)))

    def test_copy_is_independent(self):
        p = Parameter(np.ones((2,)), name="orig")
        q = p.copy()
        q.value[0] = 5.0
        assert p.value[0] == 1.0
        assert q.name == "orig"


class TestParameterView:
    def _make_view(self):
        a = Parameter(np.arange(6, dtype=float).reshape(2, 3), name="a")
        b = Parameter(np.arange(6, 10, dtype=float), name="b")
        return a, b, ParameterView([a, b])

    def test_requires_at_least_one_parameter(self):
        with pytest.raises(ValueError):
            ParameterView([])

    def test_total_size_and_len(self):
        a, b, view = self._make_view()
        assert view.total_size == 10
        assert len(view) == 2
        assert list(view) == [a, b]

    def test_flat_values_concatenates_in_order(self):
        _, _, view = self._make_view()
        np.testing.assert_allclose(view.flat_values(), np.arange(10, dtype=float))

    def test_set_flat_values_round_trip(self):
        a, b, view = self._make_view()
        new = np.linspace(0, 1, 10)
        view.set_flat_values(new)
        np.testing.assert_allclose(view.flat_values(), new)
        np.testing.assert_allclose(a.value, new[:6].reshape(2, 3))
        np.testing.assert_allclose(b.value, new[6:])

    def test_set_flat_values_wrong_size_raises(self):
        _, _, view = self._make_view()
        with pytest.raises(ValueError, match="entries"):
            view.set_flat_values(np.zeros(9))

    def test_locate_maps_flat_index_to_tensor(self):
        _, _, view = self._make_view()
        assert view.locate(0) == (0, (0, 0))
        assert view.locate(5) == (0, (1, 2))
        assert view.locate(6) == (1, (0,))
        assert view.locate(9) == (1, (3,))

    def test_locate_out_of_range(self):
        _, _, view = self._make_view()
        with pytest.raises(IndexError):
            view.locate(10)
        with pytest.raises(IndexError):
            view.locate(-1)

    def test_scalar_get_set_add(self):
        a, b, view = self._make_view()
        assert view.get_scalar(7) == b.value[1]
        view.set_scalar(7, 42.0)
        assert b.value[1] == 42.0
        view.add_scalar(0, 1.5)
        assert a.value[0, 0] == 1.5

    def test_tensor_slices(self):
        _, _, view = self._make_view()
        assert view.tensor_slices() == [("a", 0, 6), ("b", 6, 10)]
