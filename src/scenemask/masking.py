"""Learnable spatial gating of feature maps.

A single trainable mask grid, one value per spatial cell of the final
feature map, multiplies every channel elementwise (values near 1 preserve a
region, values near 0 suppress it).  The mask is reparametrized through a
sigmoid of unconstrained logits, so entries stay strictly inside (0, 1) and
gradients never die at the boundary.  An L1 importance penalty over the mask
entries pushes uninformative regions toward 0; the training objective is
``prediction_loss + lam * regularization``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import Tensor, add, scale, sigmoid

# sigmoid(MASK_INIT_LOGIT) ~= 0.9: training starts near "keep everything"
# and the penalty prunes from there.
MASK_INIT_LOGIT = 2.1972246


@dataclass
class MaskedLossBreakdown:
    """Objective terms: total = prediction loss + lam * regularization_loss."""

    regularization_loss: Tensor
    total: Tensor


def mask_from_logits(logits: Tensor) -> Tensor:
    """Mask grid in (0, 1), differentiable through the sigmoid of its logits."""
    return sigmoid(logits)


def apply_mask(features: Tensor, mask: Tensor) -> Tensor:
    """Gate a (c[, n], d, k) feature map by a (d, k) mask shared across channels and batch.

    The mask adjoint sums over every leading axis; the feature adjoint is the
    usual elementwise product rule.
    """
    if features.data.ndim not in (3, 4):
        raise ShapeError(f"features must be (c, d, k) or (c, n, d, k), got {features.shape}")
    if mask.data.ndim != 2 or mask.shape != features.shape[-2:]:
        raise ShapeError(
            f"mask grid {mask.shape} does not match feature spatial grid {features.shape[-2:]}"
        )

    def _bw(g):
        features.grad += g * mask.data
        mask.grad += (g * features.data).reshape((-1,) + mask.shape).sum(axis=0)

    return Tensor(features.data * mask.data, (features, mask), _bw)


def l1_importance(mask: Tensor) -> Tensor:
    """Sum of absolute mask entries (the sparsity pressure term).

    Sigmoid-derived entries are strictly positive so this equals the plain
    sum, but the absolute value is applied faithfully; its subgradient at
    exactly 0 is 0.
    """
    value = np.float64(np.abs(mask.data).sum())

    def _bw(g):
        mask.grad += g * np.sign(mask.data)

    return Tensor(value, (mask,), _bw)


def total_loss(prediction_loss: Tensor, mask: Tensor, lam: float) -> MaskedLossBreakdown:
    """Combine prediction and importance terms into one scalar objective.

    With ``lam == 0`` the total *is* the prediction loss node (bitwise), so
    the penalty is excluded from the objective entirely; gradients still
    reach the mask logits through the prediction path.
    """
    if not (math.isfinite(lam) and lam >= 0):
        raise ConfigError(f"lam must be finite and nonnegative, got {lam}")
    reg = l1_importance(mask)
    if lam == 0:
        total = prediction_loss
    else:
        total = add(prediction_loss, scale(reg, lam))
    return MaskedLossBreakdown(reg, total)
