"""Compact convolutional encoder and classification heads.

The encoder is a stack of 3x3 stride-2 conv + ReLU blocks, so each block
halves the spatial grid; a global average pool and a single linear layer
produce class logits.  The masked variant gates the final feature map with
the learnable spatial mask before pooling; with an all-ones mask the two
variants coincide exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import ConfigError
from .masking import MASK_INIT_LOGIT, apply_mask, mask_from_logits
from .rng import SplitMix64
from .tensor import Tensor, conv2d, gap, linear, relu


@dataclass
class EncoderConfig:
    input_size: tuple = (32, 32, 3)  # (height, width, channels)
    block_channels: tuple = (8, 16)
    n_classes: int = 4

    def __post_init__(self):
        h, w, c = self.input_size
        blocks = len(self.block_channels)
        if blocks < 1 or any(ch < 1 for ch in self.block_channels):
            raise ConfigError(f"block_channels must be positive, got {self.block_channels}")
        if self.n_classes < 2:
            raise ConfigError(f"need at least 2 classes, got {self.n_classes}")
        if h % (1 << blocks) or w % (1 << blocks):
            raise ConfigError(
                f"input {h}x{w} must be divisible by 2^{blocks} (one halving per block)"
            )
        if h // (1 << blocks) < 2 or w // (1 << blocks) < 2:
            raise ConfigError(f"feature grid below 2x2 for input {h}x{w} with {blocks} blocks")

    @property
    def grid_shape(self) -> tuple:
        h, w, _ = self.input_size
        blocks = len(self.block_channels)
        return (h >> blocks, w >> blocks)


@dataclass
class ModelParams:
    """All trainable tensors of one model; ``mask`` holds the mask logits, None for
    the baseline."""

    kernels: list  # per block: Tensor (c_out, c_in, 3, 3)
    biases: list  # per block: Tensor (c_out,)
    head_weights: Tensor
    head_bias: Tensor
    mask: Optional[Tensor] = None

    @property
    def variant(self) -> str:
        return "masked" if self.mask is not None else "baseline"

    @property
    def n_classes(self) -> int:
        return self.head_weights.shape[0]

    def named_tensors(self) -> dict:
        """Stable name -> Tensor mapping used by the optimizer and checkpoints."""
        out = {}
        for i, (k, b) in enumerate(zip(self.kernels, self.biases)):
            out[f"conv{i}.kernels"] = k
            out[f"conv{i}.bias"] = b
        out["head.weights"] = self.head_weights
        out["head.bias"] = self.head_bias
        if self.mask is not None:
            out["mask.logits"] = self.mask
        return out

    def snapshot(self) -> dict:
        """Copies of all parameter arrays, keyed by tensor name."""
        return {name: t.data.copy() for name, t in self.named_tensors().items()}

    def restore(self, values: dict) -> None:
        for name, t in self.named_tensors().items():
            t.data[...] = values[name]


def init_model_params(config: EncoderConfig, rng: SplitMix64, masked: bool) -> ModelParams:
    """Seeded initialization: weights uniform in [-sqrt(1/fan_in), +sqrt(1/fan_in)],
    biases zero, mask logits at their keep-everything starting point.

    Draw order is fixed (conv blocks in sequence, then the head) so a seed
    fully determines every parameter.
    """

    def uniform(shape: tuple, fan_in: int) -> Tensor:
        s = math.sqrt(1.0 / fan_in)
        return Tensor(rng.uniforms(math.prod(shape)).reshape(shape) * 2 * s - s)

    kernels, biases = [], []
    c_in = config.input_size[2]
    for c_out in config.block_channels:
        kernels.append(uniform((c_out, c_in, 3, 3), c_in * 9))
        biases.append(Tensor(np.zeros(c_out)))
        c_in = c_out
    mask = Tensor(np.full(config.grid_shape, MASK_INIT_LOGIT)) if masked else None
    return ModelParams(
        kernels=kernels,
        biases=biases,
        head_weights=uniform((config.n_classes, c_in), c_in),
        head_bias=Tensor(np.zeros(config.n_classes)),
        mask=mask,
    )


def encode(params: ModelParams, image: Tensor) -> Tensor:
    """Feature map (c, d, k) from a (channels, h, w) image scaled to [0, 1], or
    (c, n, d, k) from a (channels, n, h, w) batch."""
    if image.data.ndim not in (3, 4) or image.shape[0] != params.kernels[0].shape[1]:
        raise ConfigError(
            f"image shape {image.shape} does not match encoder input "
            f"({params.kernels[0].shape[1]} channels)"
        )
    x = image
    for k, b in zip(params.kernels, params.biases):
        x = relu(conv2d(x, k, b, stride=2, padding=1))
    return x


def forward(params: ModelParams, image: Tensor):
    """The one forward pass: encoder, mask gate (masked models only), GAP, linear head.

    ``image`` is (channels, h, w) or a batch (channels, n, h, w); logits are (k,)
    or (k, n).  Returns (logits, the map GAP pools, mask node); the mask node is
    None for baselines."""
    features, mask = encode(params, image), None
    if params.mask is not None:
        mask = mask_from_logits(params.mask)
        features = apply_mask(features, mask)
    return linear(gap(features), params.head_weights, params.head_bias), features, mask


def predict(params: ModelParams, image: Tensor) -> Tensor:
    """Variant-dispatching class logits."""
    return forward(params, image)[0]


def predict_masked(params: ModelParams, image: Tensor) -> Tensor:
    """Class logits with the spatial mask gating the feature map."""
    if params.mask is None:
        raise ConfigError("model has no mask")
    return predict(params, image)


def predict_baseline(params: ModelParams, image: Tensor) -> Tensor:
    """Class logits from the unmasked feature map; a masked model's mask is ignored."""
    return predict(replace(params, mask=None), image)
