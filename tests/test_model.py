import numpy as np
import pytest

from scenemask import (
    EncoderConfig,
    SplitMix64,
    Tensor,
    backward,
    encode,
    init_model_params,
    predict_baseline,
    predict_masked,
)
from scenemask.errors import ConfigError
from scenemask.model import forward
from scenemask.tensor import softmax_cross_entropy

from conftest import central_difference, max_relative_error, random_tensor


def make_params(seed=0, masked=True, config=None):
    config = config or EncoderConfig()
    return config, init_model_params(config, SplitMix64(seed), masked=masked)


class TestEncoderConfig:
    def test_default_grid(self):
        config = EncoderConfig()
        assert config.grid_shape == (8, 8)
        assert config.feature_channels == 16

    def test_indivisible_input_rejected(self):
        with pytest.raises(ConfigError):
            EncoderConfig(input_size=(30, 32, 3))

    def test_too_small_grid_rejected(self):
        with pytest.raises(ConfigError):
            EncoderConfig(input_size=(8, 8, 3), block_channels=(4, 8, 16))


class TestEncode:
    def test_default_feature_shape(self):
        config, params = make_params()
        image = random_tensor((3, 32, 32), seed=1, low=0.0, high=1.0)
        assert encode(params, image).shape == (16, 8, 8)

    def test_zero_image_zero_bias_gives_zero_features(self):
        config, params = make_params()
        out = encode(params, Tensor(np.zeros((3, 32, 32))))
        assert np.array_equal(out.data, np.zeros((16, 8, 8)))

    def test_deterministic(self):
        config, params = make_params(seed=3)
        image = random_tensor((3, 32, 32), seed=4, low=0.0, high=1.0)
        a = encode(params, image).data
        b = encode(params, image).data
        assert np.array_equal(a, b)

    def test_wrong_channel_count_rejected(self):
        config, params = make_params()
        with pytest.raises(ConfigError):
            encode(params, Tensor(np.zeros((1, 32, 32))))


class TestPredict:
    def test_zero_head_weights_give_bias(self):
        config, params = make_params(masked=False)
        params.head_weights.data[...] = 0.0
        params.head_bias.data[...] = [1.0, 0.0, 0.0, 0.0]
        image = random_tensor((3, 32, 32), seed=5, low=0.0, high=1.0)
        assert np.array_equal(predict_baseline(params, image).data, [1.0, 0.0, 0.0, 0.0])

    def test_constant_feature_map_from_conv_biases(self):
        config, params = make_params(masked=False)
        for k in params.kernels:
            k.data[...] = 0.0
        for b in params.biases:
            b.data[...] = 0.0
        params.biases[-1].data[...] = 0.25
        image = random_tensor((3, 32, 32), seed=6, low=0.0, high=1.0)
        logits = predict_baseline(params, image)
        expected = params.head_weights.data @ np.full(16, 0.25) + params.head_bias.data
        assert np.allclose(logits.data, expected, atol=1e-12)

    def test_saturated_mask_matches_baseline(self):
        config, params = make_params(masked=True)
        params.mask.data[...] = 40.0
        image = random_tensor((3, 32, 32), seed=7, low=0.0, high=1.0)
        masked = predict_masked(params, image).data
        plain = predict_baseline(params, image).data
        assert np.max(np.abs(masked - plain)) <= 1e-9

    def test_suppressing_mask_gives_head_bias(self):
        config, params = make_params(masked=True)
        params.mask.data[...] = -40.0
        params.head_bias.data[...] = [0.5, -1.0, 2.0, 0.0]
        image = random_tensor((3, 32, 32), seed=8, low=0.0, high=1.0)
        logits = predict_masked(params, image).data
        assert np.max(np.abs(logits - params.head_bias.data)) <= 1e-9

    def test_mask_grid_mismatch_rejected(self):
        config, params = make_params(masked=True)
        params.mask = Tensor(np.zeros((4, 4)))
        image = random_tensor((3, 32, 32), seed=9, low=0.0, high=1.0)
        with pytest.raises(Exception):
            predict_masked(params, image)

    def test_full_model_gradient_on_4x4_input(self):
        # one-block encoder keeps a 2x2 grid valid at this input size
        config = EncoderConfig(input_size=(4, 4, 3), block_channels=(4,), n_classes=2)
        _, params = make_params(seed=20, masked=True, config=config)
        image = random_tensor((3, 4, 4), seed=21, low=0.0, high=1.0)

        from scenemask.masking import apply_mask, mask_from_logits, total_loss
        from scenemask.model import encode
        from scenemask.tensor import gap, linear

        def loss():
            mask = mask_from_logits(params.mask)
            gated = apply_mask(encode(params, image), mask)
            pre = softmax_cross_entropy(
                linear(gap(gated), params.head_weights, params.head_bias), 1
            )
            return total_loss(pre, mask, 0.1).total

        backward(loss())
        for name, tensor in params.named_tensors().items():
            analytic = tensor.grad.copy()
            (numeric,) = central_difference(lambda: loss().item(), [tensor.data])
            assert max_relative_error(analytic, numeric) <= 1e-4, name

    def test_mask_logit_gradient_matches_finite_differences(self):
        config = EncoderConfig(input_size=(16, 16, 3), block_channels=(4, 8), n_classes=3)
        _, params = make_params(seed=10, masked=True, config=config)
        image = random_tensor((3, 16, 16), seed=11, low=0.0, high=1.0)

        def value():
            return softmax_cross_entropy(predict_masked(params, image), 1).item()

        backward(softmax_cross_entropy(predict_masked(params, image), 1))
        (numeric,) = central_difference(value, [params.mask.data])
        assert max_relative_error(params.mask.grad, numeric) <= 1e-4


class TestBatchedForward:
    @pytest.mark.parametrize("masked", [True, False])
    def test_batch_equals_per_image(self, masked):
        config, params = make_params(seed=30, masked=masked)
        if masked:
            logits = random_tensor(config.grid_shape, seed=31, low=-3.0, high=3.0)
            params.mask.data[...] = logits.data
        params.head_bias.data[...] = random_tensor((4,), seed=32).data
        images = random_tensor((3, 5, 32, 32), seed=33, low=0.0, high=1.0)
        logits, pooled, _ = forward(params, images)
        assert logits.shape == (4, 5) and pooled.shape == (16, 5, 8, 8)
        for i in range(5):
            single = forward(params, Tensor(images.data[:, i]))[0].data
            assert np.max(np.abs(logits.data[:, i] - single)) <= 1e-12
            assert np.argmax(logits.data[:, i]) == np.argmax(single)

    def test_single_image_gives_vector_logits(self):
        _, params = make_params(seed=34, masked=True)
        image = random_tensor((3, 32, 32), seed=35, low=0.0, high=1.0)
        assert forward(params, image)[0].shape == (4,)


class TestStructuralInvariants:
    def test_identity_mask_equivalence_everywhere(self):
        config, params = make_params(seed=12, masked=True)
        params.mask.data[...] = 1e9  # sigmoid gives exactly 1.0 here
        for seed in range(5):
            image = random_tensor((3, 32, 32), seed=100 + seed, low=0.0, high=1.0)
            masked = predict_masked(params, image).data
            plain = predict_baseline(params, image).data
            assert np.max(np.abs(masked - plain)) <= 1e-12

    def test_channel_permutation_leaves_logits_unchanged(self):
        config, params = make_params(seed=13, masked=False)
        image = random_tensor((3, 32, 32), seed=14, low=0.0, high=1.0)
        before = predict_baseline(params, image).data.copy()

        perm = np.array([5, 2, 7, 0, 4, 9, 1, 12, 3, 8, 15, 6, 11, 14, 10, 13])
        params.kernels[1].data[...] = params.kernels[1].data[perm]
        params.biases[1].data[...] = params.biases[1].data[perm]
        params.head_weights.data[...] = params.head_weights.data[:, perm]
        after = predict_baseline(params, image).data
        assert np.max(np.abs(after - before)) <= 1e-12

    def test_init_is_seed_deterministic(self):
        _, a = make_params(seed=42)
        _, b = make_params(seed=42)
        for name, tensor in a.named_tensors().items():
            assert np.array_equal(tensor.data, b.named_tensors()[name].data)

    def test_init_weight_scale(self):
        config, params = make_params(seed=15)
        s = np.sqrt(1.0 / (3 * 9))
        k = params.kernels[0].data
        assert np.all(np.abs(k) <= s)
        assert np.all(params.biases[0].data == 0.0)
