import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenemask import (
    Tensor,
    apply_mask,
    backward,
    l1_importance,
    mask_from_logits,
    total_loss,
)
from scenemask.errors import ConfigError, ShapeError
from scenemask.masking import MASK_INIT_LOGIT
from scenemask.tensor import gap, linear, tsum

from conftest import central_difference, max_relative_error, random_tensor


class TestMaskFromLogits:
    def test_zero_logits_give_half(self):
        mask = mask_from_logits(Tensor(np.zeros((4, 4))))
        assert np.array_equal(mask.data, np.full((4, 4), 0.5))

    def test_init_logit_gives_point_nine(self):
        mask = mask_from_logits(Tensor(np.full((8, 8), MASK_INIT_LOGIT)))
        assert mask.data == pytest.approx(0.9, abs=1e-6)
        assert MASK_INIT_LOGIT == pytest.approx(2.1972246)

    def test_range_is_open_unit_interval(self):
        logits = random_tensor((5, 3), seed=3, low=-30.0, high=30.0)
        mask = mask_from_logits(logits)
        assert np.all(mask.data > 0.0)
        assert np.all(mask.data < 1.0)


class TestApplyMask:
    def test_identity_mask(self):
        features = random_tensor((3, 4, 5), seed=7)
        out = apply_mask(features, Tensor(np.ones((4, 5))))
        assert np.array_equal(out.data, features.data)

    def test_zero_mask(self):
        features = random_tensor((3, 4, 5), seed=8)
        out = apply_mask(features, Tensor(np.zeros((4, 5))))
        assert np.array_equal(out.data, np.zeros((3, 4, 5)))

    def test_channel_broadcast_hand_check(self):
        features = Tensor(
            np.array([[[1.0, 2.0], [3.0, 4.0]], [[10.0, 20.0], [30.0, 40.0]]])
        )
        mask = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        out = apply_mask(features, mask)
        assert np.array_equal(out.data[0], [[1.0, 0.0], [0.0, 4.0]])
        assert np.array_equal(out.data[1], [[10.0, 0.0], [0.0, 40.0]])

    def test_spatial_shape_mismatch(self):
        with pytest.raises(ShapeError):
            apply_mask(random_tensor((3, 4, 5), seed=9), Tensor(np.ones((5, 4))))

    def test_feature_rank_validation(self):
        with pytest.raises(ShapeError, match="features must be"):
            apply_mask(random_tensor((4, 5), seed=9), Tensor(np.ones((4, 5))))

    def test_mask_adjoint_sums_over_channels(self):
        features = random_tensor((3, 2, 2), seed=10)
        mask = random_tensor((2, 2), seed=11, low=0.1, high=0.9)
        backward(tsum(apply_mask(features, mask)))
        assert np.allclose(mask.grad, features.data.sum(axis=0))

    def test_commutes_with_channel_permutation(self):
        features = random_tensor((4, 3, 3), seed=12)
        mask = random_tensor((3, 3), seed=13, low=0.0, high=1.0)
        perm = [2, 0, 3, 1]
        direct = apply_mask(Tensor(features.data[perm]), mask).data
        permuted = apply_mask(features, mask).data[perm]
        assert np.array_equal(direct, permuted)


class TestL1Importance:
    def test_all_ones_8x8(self):
        assert l1_importance(Tensor(np.ones((8, 8)))).item() == 64.0

    def test_zeros(self):
        assert l1_importance(Tensor(np.zeros((3, 3)))).item() == 0.0

    def test_hand_example(self):
        mask = Tensor(np.array([[0.5, 0.25], [0.0, 1.0]]))
        assert l1_importance(mask).item() == 1.75

    def test_absolute_value_applied(self):
        mask = Tensor(np.array([[-0.5, 0.25], [0.0, -1.0]]))
        assert l1_importance(mask).item() == 1.75

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=0, max_value=8),
        st.floats(min_value=0.001, max_value=0.5),
    )
    def test_monotone_in_each_entry(self, seed, index, bump):
        mask = random_tensor((3, 3), seed=seed, low=0.0, high=1.0)
        before = l1_importance(mask).item()
        mask.data.reshape(-1)[index] += bump
        after = l1_importance(Tensor(mask.data)).item()
        assert after >= before


class TestTotalLoss:
    def test_paper_default_weighting(self):
        pre = Tensor(np.float64(0.5))
        breakdown = total_loss(pre, Tensor(np.ones((8, 8))), 0.1)
        assert breakdown.total.item() == 6.9
        assert breakdown.regularization_loss.item() == 64.0

    def test_lam_zero_is_prediction_loss_bitwise(self):
        pre = Tensor(np.float64(0.4375))
        breakdown = total_loss(pre, random_tensor((4, 4), seed=20, low=0.0, high=1.0), 0.0)
        assert breakdown.total is pre
        assert breakdown.total.item() == 0.4375

    def test_negative_lam_rejected(self):
        with pytest.raises(ConfigError):
            total_loss(Tensor(np.float64(1.0)), Tensor(np.ones((2, 2))), -0.1)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_non_finite_lam_rejected(self, lam):
        with pytest.raises(ConfigError, match="finite"):
            total_loss(Tensor(np.float64(1.0)), Tensor(np.ones((2, 2))), lam)

    def test_breakdown_identity(self):
        pre = Tensor(np.float64(1.25))
        mask = random_tensor((5, 5), seed=21, low=0.0, high=1.0)
        breakdown = total_loss(pre, mask, 0.7)
        expected = 1.25 + 0.7 * breakdown.regularization_loss.item()
        assert breakdown.total.item() == expected
        assert breakdown.regularization_loss.item() >= 0

    def test_gradient_through_both_terms(self):
        # loss = sum(features * sigmoid(logits)) + lam * l1(sigmoid(logits))
        logits = random_tensor((3, 3), seed=22)
        features = random_tensor((2, 3, 3), seed=23)
        lam = 0.3

        def value():
            m = mask_from_logits(logits)
            pre = tsum(apply_mask(features, m))
            return total_loss(pre, m, lam).total.item()

        m = mask_from_logits(logits)
        pre = tsum(apply_mask(features, m))
        backward(total_loss(pre, m, lam).total)
        (numeric,) = central_difference(value, [logits.data])
        assert max_relative_error(logits.grad, numeric) <= 1e-4


class TestInvariants:
    def test_identity_mask_equivalence(self):
        features = random_tensor((6, 4, 4), seed=30)
        weights = random_tensor((3, 6), seed=31)
        bias = random_tensor((3,), seed=32)
        masked = linear(gap(apply_mask(features, Tensor(np.ones((4, 4))))), weights, bias)
        plain = linear(gap(features), weights, bias)
        assert np.max(np.abs(masked.data - plain.data)) <= 1e-12

    def test_sparsity_pressure_is_strictly_positive(self):
        # gradient of lam * l1(sigmoid(logits)) w.r.t. every logit is > 0
        logits = random_tensor((4, 4), seed=33, low=-6.0, high=6.0)
        mask = mask_from_logits(logits)
        backward(l1_importance(mask))
        assert np.all(logits.grad > 0.0)
