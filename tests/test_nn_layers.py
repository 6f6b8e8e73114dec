"""Unit and gradient-check tests for the neural-network layers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.model import DeepCsiModelConfig, build_deepcsi_model
from repro.nn.gradcheck import check_layer_input_gradient, check_layer_parameter_gradients
from repro.nn.layers import (
    SELU_ALPHA,
    SELU_SCALE,
    AlphaDropout,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    LayerError,
    MaxPool2D,
    Relu,
    Selu,
    Sigmoid,
    Softmax,
    _pad_same,
)


# Reference oracles: the generic formulas the fp64 inference kernels replace.
# The layers must reproduce them bit for bit (``exact`` numerics).
def oracle_max_pool(x, pool_size):
    """Crop, view as 6-d windows, reduce over both window axes."""
    ph, pw = pool_size
    batch, channels, height, width = x.shape
    out_h, out_w = height // ph, width // pw
    cropped = x[:, :, : out_h * ph, : out_w * pw]
    windows = cropped.reshape(batch, channels, out_h, ph, out_w, pw)
    return windows.max(axis=(3, 5))


def oracle_selu(x):
    """SELU through a boolean mask and the ``np.exp`` temporaries."""
    return SELU_SCALE * np.where(x > 0, x, SELU_ALPHA * (np.exp(x) - 1.0))


def oracle_conv(layer, x):
    """``np.pad``, im2col ``tensordot``, NCHW copy, then ``+= bias``."""
    kh, kw = layer.kernel_size
    if layer.padding == "same":
        top, bottom, left, right = _pad_same(x.shape[2], x.shape[3], layer.kernel_size)
        x = np.pad(x, ((0, 0), (0, 0), (top, bottom), (left, right)))
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    out = np.tensordot(windows, layer.weight, axes=([1, 4, 5], [1, 2, 3]))
    out = np.ascontiguousarray(np.moveaxis(out, 3, 1))
    out += layer.bias[np.newaxis, :, np.newaxis, np.newaxis]
    return out


#: Values that stress bitwise parity: NaN, infinities, signed zeros, ties.
SPECIAL_VALUES = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0, 1.0 + 2.0**-52]
ELEMENTS = st.one_of(
    st.sampled_from(SPECIAL_VALUES),
    st.floats(-60.0, 60.0, allow_nan=False),
)


@st.composite
def feature_maps(draw, min_height=1, min_width=1):
    """NCHW float64 maps mixing in special values; odd widths included."""
    shape = (
        draw(st.integers(1, 3)),
        draw(st.integers(1, 4)),
        draw(st.integers(min_height, 5)),
        draw(st.integers(min_width, 9)),
    )
    # No fill value: every entry is drawn, so ties and +0/-0 pairs are common.
    return draw(arrays(np.float64, shape, elements=ELEMENTS, fill=st.nothing()))


def assert_bitwise_equal(actual, expected):
    """Equal values (NaN equals NaN) and equal signs of every non-NaN entry."""
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert np.array_equal(actual, expected, equal_nan=True)
    numbers = ~np.isnan(expected)
    assert np.array_equal(np.signbit(actual[numbers]), np.signbit(expected[numbers]))


@pytest.fixture()
def feature_map(rng):
    return rng.standard_normal((3, 4, 2, 10))


class TestDense:
    def test_forward_matches_matmul(self, rng):
        layer = Dense(5, 3, rng=np.random.default_rng(0))
        x = rng.standard_normal((4, 5))
        np.testing.assert_allclose(layer.forward(x), x @ layer.weight + layer.bias)

    def test_gradients_match_finite_differences(self, rng):
        layer = Dense(6, 4, rng=np.random.default_rng(0))
        x = rng.standard_normal((3, 6))
        check_layer_input_gradient(layer, x)
        check_layer_parameter_gradients(layer, x)

    def test_parameter_count(self):
        layer = Dense(10, 7, rng=np.random.default_rng(0))
        assert layer.num_parameters == 10 * 7 + 7

    def test_shape_validation(self, rng):
        layer = Dense(5, 3, rng=np.random.default_rng(0))
        with pytest.raises(LayerError):
            layer.forward(rng.standard_normal((4, 6)))

    def test_backward_before_forward_rejected(self):
        layer = Dense(5, 3, rng=np.random.default_rng(0))
        with pytest.raises(LayerError):
            layer.backward(np.zeros((2, 3)))

    def test_invalid_sizes_rejected(self):
        with pytest.raises(LayerError):
            Dense(0, 3)


class TestConv2D:
    def test_same_padding_preserves_spatial_size(self, feature_map):
        layer = Conv2D(4, 6, (1, 7), padding="same", rng=np.random.default_rng(0))
        out = layer.forward(feature_map)
        assert out.shape == (3, 6, 2, 10)

    def test_valid_padding_shrinks_spatial_size(self, feature_map):
        layer = Conv2D(4, 6, (2, 3), padding="valid", rng=np.random.default_rng(0))
        out = layer.forward(feature_map)
        assert out.shape == (3, 6, 1, 8)

    def test_manual_convolution_result(self):
        # 1x1 spatial input, kernel (1,1): conv reduces to a channel mixing.
        layer = Conv2D(2, 1, (1, 1), rng=np.random.default_rng(0))
        layer.weight[...] = np.array([[[[2.0]], [[3.0]]]])
        layer.bias[...] = np.array([0.5])
        x = np.array([[[[1.0]], [[10.0]]]])  # (1, 2, 1, 1)
        out = layer.forward(x)
        assert out[0, 0, 0, 0] == pytest.approx(2.0 * 1.0 + 3.0 * 10.0 + 0.5)

    def test_gradients_match_finite_differences(self, rng):
        x = rng.standard_normal((2, 3, 2, 6))
        layer = Conv2D(3, 4, (1, 3), rng=np.random.default_rng(1))
        check_layer_input_gradient(layer, x)
        check_layer_parameter_gradients(layer, x)

    def test_valid_gradients_match_finite_differences(self, rng):
        x = rng.standard_normal((2, 2, 3, 6))
        layer = Conv2D(2, 3, (2, 3), padding="valid", rng=np.random.default_rng(1))
        check_layer_input_gradient(layer, x)
        check_layer_parameter_gradients(layer, x)

    def test_channel_mismatch_rejected(self, feature_map):
        layer = Conv2D(3, 4, (1, 3), rng=np.random.default_rng(0))
        with pytest.raises(LayerError):
            layer.forward(feature_map)

    def test_kernel_larger_than_valid_input_rejected(self, rng):
        layer = Conv2D(1, 1, (3, 3), padding="valid", rng=np.random.default_rng(0))
        with pytest.raises(LayerError):
            layer.forward(rng.standard_normal((1, 1, 2, 2)))

    @settings(max_examples=30, deadline=None)
    @given(
        x=feature_maps(min_width=3),
        kernel=st.sampled_from([(1, 1), (1, 3), (2, 3), (1, 7)]),
        padding=st.sampled_from(["same", "valid"]),
        seed=st.integers(0, 2**16),
    )
    def test_forward_is_bitwise_the_oracle(self, x, kernel, padding, seed):
        if padding == "valid":
            kernel = (min(kernel[0], x.shape[2]), min(kernel[1], x.shape[3]))
        weights = np.random.default_rng(seed)
        layer = Conv2D(x.shape[1], 3, kernel, padding=padding, rng=weights)
        layer.bias[...] = weights.standard_normal(3)
        with np.errstate(invalid="ignore", over="ignore"):
            expected = oracle_conv(layer, x)
            assert_bitwise_equal(layer.forward(x), expected)
            assert_bitwise_equal(layer.forward(x, training=True), expected)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(LayerError):
            Conv2D(2, 2, (0, 3))
        with pytest.raises(LayerError):
            Conv2D(2, 2, (1, 3), padding="reflect")


class TestMaxPool2D:
    def test_output_shape_and_values(self):
        layer = MaxPool2D((1, 2))
        x = np.array([[[[1.0, 5.0, 2.0, 3.0]]]])  # (1, 1, 1, 4)
        out = layer.forward(x)
        np.testing.assert_allclose(out, [[[[5.0, 3.0]]]])

    def test_odd_width_is_cropped(self):
        layer = MaxPool2D((1, 2))
        x = np.arange(5.0).reshape(1, 1, 1, 5)
        out = layer.forward(x)
        assert out.shape == (1, 1, 1, 2)

    def test_backward_routes_gradient_to_maxima(self):
        layer = MaxPool2D((1, 2))
        x = np.array([[[[1.0, 5.0, 2.0, 3.0]]]])
        layer.forward(x, training=True)
        grad = layer.backward(np.array([[[[1.0, 2.0]]]]))
        np.testing.assert_allclose(grad, [[[[0.0, 1.0, 0.0, 2.0]]]])

    def test_gradients_match_finite_differences(self, rng):
        # Use distinct values so the argmax is stable under perturbation.
        x = rng.permutation(np.arange(48.0)).reshape(2, 2, 2, 6) * 0.1
        layer = MaxPool2D((2, 2))
        check_layer_input_gradient(layer, x)

    def test_pool_larger_than_input_rejected(self, rng):
        layer = MaxPool2D((4, 4))
        with pytest.raises(LayerError):
            layer.forward(rng.standard_normal((1, 1, 2, 2)))

    @settings(max_examples=80, deadline=None)
    @given(
        x=feature_maps(min_height=2, min_width=3),
        pool=st.sampled_from([(1, 2), (2, 2), (1, 3)]),
    )
    def test_forward_is_bitwise_the_oracle(self, x, pool):
        layer = MaxPool2D(pool)
        expected = oracle_max_pool(x, pool)
        inference = layer.forward(x)
        assert_bitwise_equal(inference, expected)
        assert_bitwise_equal(layer.forward(x, training=True), inference)

    def test_backward_splits_ties_evenly_and_skips_cropped_columns(self):
        layer = MaxPool2D((2, 2))
        x = np.array([[[[3.0, 1.0, 7.0], [3.0, 2.0, 9.0]]]])  # width 3 -> cropped
        layer.forward(x, training=True)
        grad = layer.backward(np.array([[[[4.0]]]]))
        np.testing.assert_allclose(grad, [[[[2.0, 0.0, 0.0], [2.0, 0.0, 0.0]]]])


class TestActivations:
    def test_selu_constants(self):
        assert SELU_ALPHA == pytest.approx(1.6732632423543772)
        assert SELU_SCALE == pytest.approx(1.0507009873554805)

    def test_selu_values(self):
        layer = Selu()
        x = np.array([[-1.0, 0.0, 2.0]])
        out = layer.forward(x)
        assert out[0, 1] == pytest.approx(0.0)
        assert out[0, 2] == pytest.approx(SELU_SCALE * 2.0)
        assert out[0, 0] == pytest.approx(SELU_SCALE * SELU_ALPHA * (np.exp(-1.0) - 1.0))

    @settings(max_examples=60, deadline=None)
    @given(x=feature_maps())
    def test_selu_is_bitwise_the_oracle(self, x):
        with np.errstate(over="ignore"):
            expected = oracle_selu(x)
        actual = Selu().forward(x)
        assert_bitwise_equal(actual, expected)
        # The sign of a NaN survives both formulas too.
        assert np.array_equal(np.signbit(actual), np.signbit(expected))

    def test_selu_preserves_standardised_statistics(self, rng):
        # The self-normalising property: for standard-normal inputs the
        # output mean stays near 0 and the variance near 1.
        x = rng.standard_normal((200, 500))
        out = Selu().forward(x)
        assert abs(out.mean()) < 0.05
        assert abs(out.std() - 1.0) < 0.1

    @pytest.mark.parametrize("layer_cls", [Selu, Relu, Sigmoid])
    def test_gradients_match_finite_differences(self, layer_cls, rng):
        x = rng.standard_normal((3, 7))
        check_layer_input_gradient(layer_cls(), x)

    def test_relu_zeroes_negatives(self):
        out = Relu().forward(np.array([[-2.0, 3.0]]))
        np.testing.assert_allclose(out, [[0.0, 3.0]])

    def test_sigmoid_range_and_midpoint(self, rng):
        out = Sigmoid().forward(rng.standard_normal((10, 10)) * 10)
        assert np.all(out > 0) and np.all(out < 1)
        assert Sigmoid().forward(np.zeros((1, 1)))[0, 0] == pytest.approx(0.5)

    def test_softmax_rows_sum_to_one(self, rng):
        out = Softmax().forward(rng.standard_normal((6, 4)) * 5)
        np.testing.assert_allclose(out.sum(axis=1), 1.0)

    def test_softmax_gradient(self, rng):
        x = rng.standard_normal((3, 5))
        check_layer_input_gradient(Softmax(), x)


class TestFlatten:
    def test_roundtrip_shapes(self, feature_map):
        layer = Flatten()
        out = layer.forward(feature_map)
        assert out.shape == (3, 4 * 2 * 10)
        grad = layer.backward(out)
        assert grad.shape == feature_map.shape


class TestDropout:
    def test_inference_mode_is_identity(self, rng):
        layer = Dropout(0.5, rng=np.random.default_rng(0))
        x = rng.standard_normal((5, 8))
        np.testing.assert_allclose(layer.forward(x, training=False), x)

    def test_training_mode_zeroes_and_scales(self):
        layer = Dropout(0.5, rng=np.random.default_rng(0))
        x = np.ones((200, 200))
        out = layer.forward(x, training=True)
        zero_fraction = np.mean(out == 0.0)
        assert 0.4 < zero_fraction < 0.6
        # Surviving activations are scaled by 1 / keep_probability.
        assert np.allclose(out[out != 0.0], 2.0)

    def test_backward_uses_same_mask(self):
        layer = Dropout(0.5, rng=np.random.default_rng(0))
        x = np.ones((10, 10))
        out = layer.forward(x, training=True)
        grad = layer.backward(np.ones_like(x))
        np.testing.assert_allclose(grad, out)

    def test_invalid_rate_rejected(self):
        with pytest.raises(LayerError):
            Dropout(1.0)


class TestAlphaDropout:
    def test_inference_mode_is_identity(self, rng):
        layer = AlphaDropout(0.5, rng=np.random.default_rng(0))
        x = rng.standard_normal((5, 8))
        np.testing.assert_allclose(layer.forward(x, training=False), x)

    def test_training_approximately_preserves_mean_and_variance(self, rng):
        layer = AlphaDropout(0.8, rng=np.random.default_rng(0))
        x = rng.standard_normal((400, 400))
        out = layer.forward(x, training=True)
        assert abs(out.mean() - x.mean()) < 0.05
        assert abs(out.std() - x.std()) < 0.1

    def test_retain_probability_one_is_identity(self, rng):
        layer = AlphaDropout(1.0, rng=np.random.default_rng(0))
        x = rng.standard_normal((4, 4))
        np.testing.assert_allclose(layer.forward(x, training=True), x)

    def test_invalid_retain_probability_rejected(self):
        with pytest.raises(LayerError):
            AlphaDropout(0.0)


class TestOracleForward:
    def test_deepcsi_logits_are_bitwise_the_oracle_forward(self, rng):
        config = DeepCsiModelConfig(
            num_filters=8, kernel_widths=(7, 5, 3), dense_units=(16,), dropout_retain=(0.5,)
        )
        x = rng.standard_normal((5, 1, 3, 59))
        model = build_deepcsi_model(x.shape[1:], 3, config=config, rng=np.random.default_rng(2))
        expected = x
        for layer in model.layers:
            if isinstance(layer, Conv2D):
                expected = oracle_conv(layer, expected)
            elif isinstance(layer, MaxPool2D):
                expected = oracle_max_pool(expected, layer.pool_size)
            elif isinstance(layer, Selu):
                expected = oracle_selu(expected)
            else:
                expected = layer.forward(expected)
        logits = model.forward(x, training=False)
        assert np.array_equal(logits.view(np.int64), expected.view(np.int64))
