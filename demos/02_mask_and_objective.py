#!/usr/bin/env python3
"""The learnable mask: spatial gating, the L1 importance penalty, and how
the two loss terms pull on the mask logits in opposite directions.
"""

import numpy as np

from scenemask import Tensor, apply_mask, backward, l1_importance, mask_from_logits, total_loss
from scenemask.masking import MASK_INIT_LOGIT
from scenemask.tensor import tsum

# The mask lives as unconstrained logits; its sigmoid is the gate in (0, 1).
# Freshly initialized it keeps ~90% of every region.
logits = Tensor(np.full((4, 4), MASK_INIT_LOGIT))
mask = mask_from_logits(logits)
print("initial mask value:", round(float(mask.data[0, 0]), 4), "(everywhere)")

# Gating multiplies every channel of a feature map by the same spatial grid.
features = Tensor(np.ones((2, 4, 4)))
half_open = Tensor(np.kron(np.array([[1.0, 0.0], [0.0, 1.0]]), np.ones((2, 2))))
gated = apply_mask(features, half_open)
print("\ncheckerboard gate applied to all-ones features, channel 0:")
print(gated.data[0])

# The importance penalty is the plain sum of mask magnitudes: an all-ones
# 8x8 grid scores exactly 64, and it only ever decreases when cells close.
print("\nl1_importance(ones 8x8) =", l1_importance(Tensor(np.ones((8, 8)))).item())

# The combined objective: prediction loss + lam * penalty.  With lam = 0.1
# and a prediction loss of 0.5 the total is exactly 6.9 on the fresh grid.
pre = Tensor(np.float64(0.5))
breakdown = total_loss(pre, Tensor(np.ones((8, 8))), lam=0.1)
print("total_loss(0.5, ones, 0.1) =", breakdown.total.item())

# Gradient tug-of-war: the penalty pushes every logit down (gate closing),
# while any prediction signal flowing through kept features pushes back up.
logits = Tensor(np.full((4, 4), MASK_INIT_LOGIT))
mask = mask_from_logits(logits)
objective = total_loss(tsum(apply_mask(features, mask)), mask, lam=0.1)
backward(objective.total)
print("\nlogit gradient with features present (prediction + penalty):")
print(np.round(logits.grad, 4))

logits = Tensor(np.full((4, 4), MASK_INIT_LOGIT))
mask = mask_from_logits(logits)
backward(l1_importance(mask))
print("logit gradient from the penalty alone (always positive => gate closes):")
print(np.round(logits.grad, 4))
