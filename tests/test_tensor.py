import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from menet.tensor import (
    ShapeError,
    check_count,
    check_groups,
    check_nchw,
    concat_channels,
    elementwise_combine,
)


def rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


@pytest.mark.parametrize("shape,message", [
    ((2, 3), "ndim=2"), ((1, 2, 3, 4, 5), "ndim=5"),
    ((0, 2, 3, 3), "dimensions must be >= 1"),
    ((1, 2, 3, 0), "dimensions must be >= 1"),
])
def test_check_nchw_rejects(shape, message):
    with pytest.raises(ShapeError, match=message):
        check_nchw(np.zeros(shape))


@pytest.mark.parametrize("channels,groups,what,message", [
    (0, 2, "channels", "channels must be >= 1, got 0"),
    (-4, 2, "in_channels", "in_channels must be >= 1, got -4"),
    (9, 0, "channels", "groups must be >= 1, got 0"),
    (9, -3, "channels", "groups must be >= 1, got -3"),
    (0, 0, "channels", "channels must be >= 1, got 0"),
    (10, 3, "bottleneck width", "bottleneck width=10 not divisible by "
                                "groups=3"),
])
def test_check_groups_rejects(channels, groups, what, message):
    with pytest.raises(ShapeError, match=message):
        check_groups(channels, groups, what)


@pytest.mark.parametrize("value,message", [
    (True, "n must be an integer, got True"),
    (2.0, "n must be an integer, got 2.0"),
    ("2", "n must be an integer, got '2'"),
    (0, "why: n must be >= 1, got 0"),
])
def test_check_count_rejects(value, message):
    with pytest.raises(ValueError, match=message):
        check_count("n", value, prefix="why: ")


def test_check_count_accepts_integers_from_low():
    for value in (1, np.int64(7), np.uint8(1)):
        check_count("n", value)
    check_count("n", 0, low=0)
    with pytest.raises(ValueError, match="n must be >= 4, got 3"):
        check_count("n", 3, low=4)


@given(st.integers(-3, 48), st.integers(-3, 48))
def test_check_groups_accepts_exactly_even_splits(channels, groups):
    even = channels >= 1 and groups >= 1 and channels % groups == 0
    if even:
        check_groups(channels, groups)
    else:
        with pytest.raises(ShapeError):
            check_groups(channels, groups)


class TestElementwiseCombine:
    def test_product_with_ones_is_identity(self):
        x = rand((2, 3, 4, 4))
        out = elementwise_combine(x, np.ones_like(x), "product")
        assert np.array_equal(out, x)

    def test_addition_with_zeros_is_identity(self):
        x = rand((2, 3, 4, 4), seed=1)
        out = elementwise_combine(x, np.zeros_like(x), "addition")
        assert np.array_equal(out, x)

    def test_product_direct_values(self):
        a = np.array([2.0, 3.0]).reshape(1, 2, 1, 1)
        b = np.array([4.0, 5.0]).reshape(1, 2, 1, 1)
        out = elementwise_combine(a, b, "product")
        assert out.reshape(-1).tolist() == [8.0, 15.0]

    def test_shape_mismatch_reports_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(1, 2, 1, 1\).*\(1, 3, 1, 1\)"):
            elementwise_combine(np.zeros((1, 2, 1, 1)), np.zeros((1, 3, 1, 1)),
                                "product")

    def test_unknown_mode_rejected(self):
        x = np.zeros((1, 1, 1, 1))
        with pytest.raises(ValueError):
            elementwise_combine(x, x, "xor")

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_product_commutative_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(2, 3, 2, 2))
        b = rng.normal(size=(2, 3, 2, 2))
        assert np.array_equal(elementwise_combine(a, b, "product"),
                              elementwise_combine(b, a, "product"))

    def test_inputs_not_mutated(self):
        a = rand((1, 2, 3, 3))
        b = rand((1, 2, 3, 3), seed=2)
        a0, b0 = a.copy(), b.copy()
        elementwise_combine(a, b, "product")
        elementwise_combine(a, b, "addition")
        assert np.array_equal(a, a0) and np.array_equal(b, b0)


class TestConcatChannels:
    def test_channel_counts_add(self):
        a = rand((2, 24, 4, 4))
        b = rand((2, 204, 4, 4), seed=1)
        assert concat_channels(a, b).shape == (2, 228, 4, 4)

    def test_self_concat_first_half_bit_equal(self):
        a = rand((1, 3, 5, 5))
        out = concat_channels(a, a)
        assert out.shape[1] == 6
        assert np.array_equal(out[:, :3], a)

    def test_constant_channels_keep_order(self):
        a = np.full((1, 1, 2, 2), 7.0)
        b = np.full((1, 1, 2, 2), 9.0)
        out = concat_channels(a, b)
        assert np.all(out[:, 0] == 7.0) and np.all(out[:, 1] == 9.0)

    def test_spatial_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            concat_channels(np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 3, 3)))

    @given(ca=st.integers(1, 6), cb=st.integers(1, 6), seed=st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_concat_then_slice_recovers_inputs(self, ca, cb, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(2, ca, 3, 3))
        b = rng.normal(size=(2, cb, 3, 3))
        out = concat_channels(a, b)
        assert np.array_equal(out[:, :ca], a)
        assert np.array_equal(out[:, ca:ca + cb], b)
