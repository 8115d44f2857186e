import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenemask import (
    Tensor,
    apply_mask,
    backward,
    conv2d,
    gap,
    linear,
    relu,
    sigmoid,
    softmax_cross_entropy,
)
from scenemask.errors import ConfigError, ShapeError
from scenemask.tensor import add, mul, scale, softmax_values, tsum

from conftest import central_difference, max_relative_error, random_tensor


class TestConv2d:
    def test_identity_kernel(self):
        x = Tensor(np.ones((1, 2, 2)))
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 1, 1] = 1.0
        out = conv2d(x, Tensor(k), Tensor(np.zeros(1)), stride=1, padding=1)
        assert np.array_equal(out.data, x.data)

    def test_center_tap_scaling_with_bias(self):
        x = Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 1, 1] = 2.0
        out = conv2d(x, Tensor(k), Tensor(np.array([0.5])), stride=1, padding=1)
        assert np.array_equal(out.data[0], [[2.5, 4.5], [6.5, 8.5]])

    def test_output_shape_stride2(self):
        x = random_tensor((3, 8, 8), seed=1)
        k = random_tensor((5, 3, 3, 3), seed=2)
        out = conv2d(x, k, Tensor(np.zeros(5)), stride=2, padding=1)
        assert out.shape == (5, 4, 4)

    def test_channel_mismatch_raises(self):
        x = random_tensor((2, 4, 4), seed=1)
        k = random_tensor((5, 3, 3, 3), seed=2)
        with pytest.raises(ConfigError):
            conv2d(x, k, Tensor(np.zeros(5)))

    def test_too_small_output_raises(self):
        x = random_tensor((1, 2, 2), seed=1)
        k = random_tensor((1, 1, 3, 3), seed=2)
        with pytest.raises(ConfigError):
            conv2d(x, k, Tensor(np.zeros(1)), stride=1, padding=0)

    @pytest.mark.parametrize(
        "x_shape, k_shape, b_shape, stride, padding, error, message",
        [
            ((3, 4), (1, 3, 3, 3), (1,), 1, 0, ShapeError, "conv2d input"),
            ((3, 4, 4), (1, 3, 2, 2), (1,), 1, 0, ConfigError, "kernels must"),
            ((3, 4, 4), (1, 3, 3, 3), (2,), 1, 0, ConfigError, "bias must"),
            ((3, 4, 4), (1, 3, 3, 3), (1,), 0, 0, ConfigError, "stride must"),
            ((3, 4, 4), (1, 3, 3, 3), (1,), 1, -1, ConfigError, "stride must"),
        ],
        ids=["rank", "kernel", "bias", "stride", "padding"],
    )
    def test_bad_arguments_rejected(self, x_shape, k_shape, b_shape, stride, padding, error, message):
        x, k, b = (Tensor(np.zeros(shape)) for shape in (x_shape, k_shape, b_shape))
        with pytest.raises(error, match=message):
            conv2d(x, k, b, stride=stride, padding=padding)

    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 1), (1, 0), (2, 0)])
    def test_gradient_matches_finite_differences(self, stride, padding):
        x = random_tensor((2, 5, 5), seed=11)
        k = random_tensor((3, 2, 3, 3), seed=12)
        b = random_tensor((3,), seed=13)

        loss = tsum(conv2d(x, k, b, stride=stride, padding=padding))
        backward(loss)

        def value():
            return tsum(conv2d(x, k, b, stride=stride, padding=padding)).item()

        for tensor in (x, k, b):
            (numeric,) = central_difference(value, [tensor.data])
            assert max_relative_error(tensor.grad, numeric) <= 1e-4


class TestPointwiseOps:
    def test_relu_values(self):
        out = relu(Tensor(np.array([-1.0, 0.0, 2.0])))
        assert np.array_equal(out.data, [0.0, 0.0, 2.0])

    def test_relu_identity_on_nonnegative(self):
        x = Tensor(np.array([0.5, 1.0, 7.0]))
        assert np.array_equal(relu(x).data, x.data)

    def test_relu_subgradient_zero_at_zero(self):
        x = Tensor(np.array([-1.0, 2.0, 0.0]))
        backward(tsum(relu(x)))
        assert np.array_equal(x.grad, [0.0, 1.0, 0.0])

    def test_sigmoid_at_zero(self):
        assert sigmoid(Tensor(np.zeros(3))).data == pytest.approx(0.5)

    def test_sigmoid_saturates(self):
        out = sigmoid(Tensor(np.array([40.0, 80.0])))
        assert np.all(np.abs(out.data - 1.0) <= 1e-15)

    def test_sigmoid_gradient_at_zero(self):
        x = Tensor(np.zeros(4))
        backward(tsum(sigmoid(x)))
        assert x.grad == pytest.approx(0.25)

    @pytest.mark.parametrize("op", [relu, sigmoid])
    def test_gradients_match_finite_differences(self, op):
        x = random_tensor((3, 4), seed=21)
        backward(tsum(op(x)))
        (numeric,) = central_difference(lambda: tsum(op(x)).item(), [x.data])
        assert max_relative_error(x.grad, numeric) <= 1e-4

    @pytest.mark.parametrize("op", [add, mul])
    def test_shape_mismatch_rejected(self, op):
        with pytest.raises(ShapeError, match="shape mismatch"):
            op(Tensor(np.zeros(3)), Tensor(np.zeros((3, 1))))


class TestGap:
    def test_constant_input(self):
        out = gap(Tensor(np.full((4, 3, 5), 7.0)))
        assert np.array_equal(out.data, np.full(4, 7.0))

    def test_single_channel_mean(self):
        out = gap(Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]])))
        assert np.array_equal(out.data, [2.5])

    def test_zeros(self):
        assert np.array_equal(gap(Tensor(np.zeros((2, 3, 3)))).data, np.zeros(2))

    def test_rank_validation(self):
        with pytest.raises(ShapeError):
            gap(Tensor(np.zeros((2, 2))))

    def test_linearity(self):
        x = random_tensor((3, 4, 4), seed=31)
        y = random_tensor((3, 4, 4), seed=32)
        a, b = 1.7, -0.3
        combined = gap(Tensor(a * x.data + b * y.data)).data
        separate = a * gap(x).data + b * gap(y).data
        assert np.max(np.abs(combined - separate)) <= 1e-12

    def test_gradient_distributes_uniformly(self):
        x = random_tensor((2, 3, 4), seed=33)
        backward(tsum(gap(x)))
        assert x.grad == pytest.approx(1.0 / 12)


class TestLinear:
    def test_identity(self):
        x = Tensor(np.array([3.0, -1.0]))
        out = linear(x, Tensor(np.eye(2)), Tensor(np.zeros(2)))
        assert np.array_equal(out.data, x.data)

    def test_affine_example(self):
        out = linear(
            Tensor(np.array([1.0, 2.0])),
            Tensor(np.array([[1.0, 1.0], [0.0, 1.0]])),
            Tensor(np.array([0.0, 1.0])),
        )
        assert np.array_equal(out.data, [3.0, 3.0])

    def test_bias_gradient_is_ones(self):
        x = random_tensor((3,), seed=41)
        w = random_tensor((4, 3), seed=42)
        b = random_tensor((4,), seed=43)
        backward(tsum(linear(x, w, b)))
        assert np.array_equal(b.grad, np.ones(4))

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            linear(Tensor(np.zeros(3)), Tensor(np.zeros((2, 4))), Tensor(np.zeros(2)))

    def test_bias_mismatch(self):
        with pytest.raises(ShapeError, match="linear bias"):
            linear(Tensor(np.zeros(3)), Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))

    def test_gradients_match_finite_differences(self):
        x = random_tensor((5,), seed=44)
        w = random_tensor((3, 5), seed=45)
        b = random_tensor((3,), seed=46)
        backward(tsum(linear(x, w, b)))

        def value():
            return tsum(linear(x, w, b)).item()

        for tensor in (x, w, b):
            (numeric,) = central_difference(value, [tensor.data])
            assert max_relative_error(tensor.grad, numeric) <= 1e-4


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss = softmax_cross_entropy(Tensor(np.zeros(2)), 0)
        assert loss.item() == pytest.approx(0.6931, abs=1e-4)
        loss5 = softmax_cross_entropy(Tensor(np.full(5, 3.0)), 2)
        assert loss5.item() == pytest.approx(np.log(5.0), abs=1e-12)

    def test_saturated_correct_class(self):
        loss = softmax_cross_entropy(Tensor(np.array([100.0, 0.0])), 0)
        assert loss.item() <= 1e-10

    def test_gradient_uniform_two_class(self):
        logits = Tensor(np.zeros(2))
        backward(softmax_cross_entropy(logits, 0))
        assert logits.grad == pytest.approx([-0.5, 0.5])

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(Tensor(np.zeros(3)), 3)

    def test_rank_validation(self):
        with pytest.raises(ShapeError, match="logits must be"):
            softmax_cross_entropy(Tensor(np.zeros((2, 2, 2))), 0)

    def test_stable_at_large_logits(self):
        loss = softmax_cross_entropy(Tensor(np.array([1000.0, 999.0])), 1)
        assert np.isfinite(loss.item())

    def test_softmax_sums_to_one(self):
        values = softmax_values(np.array([3.0, -2.0, 0.5, 900.0]))
        assert abs(values.sum() - 1.0) <= 1e-12

    def test_gradient_matches_finite_differences(self):
        logits = random_tensor((6,), seed=51)
        backward(softmax_cross_entropy(logits, 4))
        (numeric,) = central_difference(
            lambda: softmax_cross_entropy(logits, 4).item(), [logits.data]
        )
        assert max_relative_error(logits.grad, numeric) <= 1e-4


class TestBackward:
    def test_sum_of_squares(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]))
        backward(tsum(mul(x, x)))
        assert np.array_equal(x.grad, [2.0, -4.0, 6.0])

    def test_two_path_accumulation(self):
        x = Tensor(np.array([1.5]))
        backward(tsum(add(x, x)))
        assert np.array_equal(x.grad, [2.0])

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ShapeError):
            backward(Tensor(np.zeros(3)))

    def test_item_of_non_scalar_rejected(self):
        with pytest.raises(ShapeError, match="item"):
            Tensor(np.zeros(2)).item()

    def test_repeated_backward_is_bitwise_identical(self):
        x = random_tensor((4,), seed=61)
        y = mul(x, x)
        loss = tsum(y)
        backward(loss)
        first = x.grad.copy()
        backward(loss)
        assert np.array_equal(first, x.grad)

    def test_unreachable_nodes_keep_zero_gradient(self):
        x = random_tensor((3,), seed=62)
        detached = relu(x)
        loss = tsum(mul(x, x))
        backward(loss)
        assert np.array_equal(detached.grad, np.zeros(3))

    def test_scale(self):
        x = Tensor(np.array([2.0, -1.0, 4.0]))
        y = scale(x, 3.0)
        assert np.array_equal(y.data, [6.0, -3.0, 12.0])
        backward(tsum(y))
        assert np.array_equal(x.grad, [3.0, 3.0, 3.0])


class TestBatchAxis:
    """Ops on a batch of N = 3: (C, N, H, W) maps, (C, N) vectors, (K, N) logits."""

    @staticmethod
    def check_gradients(build, tensors):
        backward(build())
        for tensor in tensors:
            (numeric,) = central_difference(lambda: build().item(), [tensor.data])
            assert max_relative_error(tensor.grad, numeric) <= 1e-4

    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 1), (1, 0), (2, 0)])
    def test_conv2d_gradients(self, stride, padding):
        x = random_tensor((2, 3, 5, 5), seed=81)
        k = random_tensor((3, 2, 3, 3), seed=82)
        b = random_tensor((3,), seed=83)
        self.check_gradients(lambda: tsum(conv2d(x, k, b, stride, padding)), (x, k, b))

    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 1), (1, 0), (2, 0)])
    def test_conv2d_batch_equals_per_image(self, stride, padding):
        x = random_tensor((2, 3, 6, 6), seed=84)
        k = random_tensor((4, 2, 3, 3), seed=85)
        b = random_tensor((4,), seed=86)
        batch = conv2d(x, k, b, stride=stride, padding=padding).data
        for i in range(3):
            single = conv2d(Tensor(x.data[:, i]), k, b, stride=stride, padding=padding).data
            assert np.max(np.abs(batch[:, i] - single)) <= 1e-12

    def test_apply_mask_gradients(self):
        features = random_tensor((2, 3, 4, 4), seed=87)
        mask = random_tensor((4, 4), seed=88, low=0.1, high=0.9)
        self.check_gradients(lambda: tsum(apply_mask(features, mask)), (features, mask))

    def test_gap_gradients(self):
        x = random_tensor((2, 3, 4, 5), seed=89)
        assert gap(x).shape == (2, 3)
        self.check_gradients(lambda: tsum(gap(x)), (x,))

    def test_linear_gradients(self):
        x = random_tensor((5, 3), seed=90)
        w = random_tensor((4, 5), seed=91)
        b = random_tensor((4,), seed=92)
        assert linear(x, w, b).shape == (4, 3)
        self.check_gradients(lambda: tsum(linear(x, w, b)), (x, w, b))

    def test_softmax_cross_entropy_gradients_and_mean(self):
        logits = random_tensor((6, 3), seed=93)
        labels = [4, 0, 5]
        loss = softmax_cross_entropy(logits, labels).item()
        singles = [
            softmax_cross_entropy(Tensor(logits.data[:, i]), labels[i]).item() for i in range(3)
        ]
        assert loss == pytest.approx(np.mean(singles), abs=1e-12)
        self.check_gradients(lambda: softmax_cross_entropy(logits, labels), (logits,))

    @pytest.mark.parametrize(
        "labels", [[0, 1], [0, 1, 2, 3], [0, 1, 6], [0, -1, 2], [0.0, 1.0, 2.0]]
    )
    def test_bad_batch_labels_are_config_errors(self, labels):
        with pytest.raises(ConfigError):
            softmax_cross_entropy(random_tensor((6, 3), seed=94), labels)

    def test_label_out_of_range_is_config_error(self):
        with pytest.raises(ConfigError):
            softmax_cross_entropy(Tensor(np.zeros(3)), 3)


def test_grad_is_allocated_on_first_read():
    x = random_tensor((3,), seed=95)
    y = relu(x)
    assert y._grad is None
    assert np.array_equal(y.grad, np.zeros(3))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_pipeline_gradients_property(seed):
    """Analytic gradients of random pipelines match the difference oracle.

    The oracle itself is only valid away from the ReLU kink, so inputs whose
    pre-activations sit within the difference step of 0 are discarded.
    """
    from hypothesis import assume

    x = random_tensor((2, 4, 4), seed=seed)
    k = random_tensor((3, 2, 3, 3), seed=seed ^ 0xABCDEF)
    b = random_tensor((3,), seed=seed ^ 0x123456)
    pre = conv2d(x, k, b, stride=1, padding=1)
    assume(np.min(np.abs(pre.data)) > 1e-3)

    def value():
        return tsum(sigmoid(gap(relu(conv2d(x, k, b, stride=1, padding=1))))).item()

    loss = tsum(sigmoid(gap(relu(pre))))
    backward(loss)
    for tensor in (x, k, b):
        (numeric,) = central_difference(value, [tensor.data])
        assert max_relative_error(tensor.grad, numeric) <= 1e-4


def test_forward_values_stay_finite():
    x = random_tensor((3, 8, 8), seed=77, low=-50.0, high=50.0)
    k = random_tensor((4, 3, 3, 3), seed=78)
    out = sigmoid(relu(conv2d(x, k, Tensor(np.zeros(4)), stride=2, padding=1)))
    assert np.all(np.isfinite(out.data))
