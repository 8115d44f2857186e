"""Seeded end-to-end training: Adam, mini-batches, early stopping, evaluation.

One training run is strictly single-threaded and fully determined by
(seed, config, data): the run's generator seeds parameter init and the
per-epoch shuffles, each mini-batch is one graph whose objective is the mean
of the per-sample objectives, and the returned parameters are those of the
best-validation-loss epoch.  The early stopping signal is the mean
per-sample prediction loss on the validation split (the importance penalty
is excluded so baseline and masked runs are comparable).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .data import DatasetManifest, load_split_pixels, write_csv
from .errors import ConfigError, TrainingFailure
from .masking import total_loss
from .model import EncoderConfig, ModelParams, forward, init_model_params, predict
from .netpbm import image_tensor
from .rng import SplitMix64
from .tensor import Tensor, backward, softmax_cross_entropy

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
EVAL_CHUNK = 32  # images per forward pass when classifying a whole split


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    lam: float = 0.1
    batch_size: int = 16
    max_epochs: int = 200
    patience: int = 10
    seed: int = 0
    variant: str = "masked"

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ConfigError(f"lam must be finite and nonnegative, got {self.lam}")
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 1:
            raise ConfigError("batch_size, max_epochs and patience must be positive")
        if self.variant not in ("baseline", "masked"):
            raise ConfigError(f"unknown variant '{self.variant}'")


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamState":
        named = params.named_tensors()
        return cls(
            m={n: np.zeros_like(t.data) for n, t in named.items()},
            v={n: np.zeros_like(t.data) for n, t in named.items()},
        )


@dataclass
class TrainRecord:
    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    val_acc: list = field(default_factory=list)
    stopping_epoch: int = 0
    best_epoch: int = 0
    wall_seconds: float = 0.0


def adam_step(params: ModelParams, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update of each parameter from its ``grad``, in place."""
    state.t += 1
    c1 = 1.0 - ADAM_BETA1**state.t
    c2 = 1.0 - ADAM_BETA2**state.t
    for name, tensor in params.named_tensors().items():
        g = tensor.grad
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        tensor.data -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


def _batch_objective(params: ModelParams, images: Tensor, labels: np.ndarray, lam: float) -> Tensor:
    """Build one mini-batch's loss graph: mean cross-entropy plus ``lam`` times the
    mask's L1 term, which is the mean of the per-sample objectives."""
    logits, _, mask = forward(params, images)
    prediction_loss = softmax_cross_entropy(logits, labels)
    return prediction_loss if mask is None else total_loss(prediction_loss, mask, lam).total


def _logits(params: ModelParams, images: np.ndarray) -> np.ndarray:
    """(k, n) logits of a (3, n, h, w) image array, EVAL_CHUNK images per forward pass."""
    return np.concatenate(
        [
            predict(params, Tensor(images[:, start : start + EVAL_CHUNK])).data
            for start in range(0, images.shape[1], EVAL_CHUNK)
        ],
        axis=1,
    )


def train(
    config: TrainConfig,
    manifest: DatasetManifest,
    images_root,
    encoder: Optional[EncoderConfig] = None,
):
    """Train one model; returns (best-epoch ModelParams, TrainRecord)."""
    start = time.monotonic()
    train_pixels, train_labels = load_split_pixels(manifest, images_root, "train")
    val_pixels, val_labels = load_split_pixels(manifest, images_root, "val")
    train_images, val_images = image_tensor(train_pixels).data, image_tensor(val_pixels).data
    if encoder is None:
        h, w = train_images.shape[2:]
        encoder = EncoderConfig(input_size=(h, w, 3), n_classes=manifest.n_classes)

    rng = SplitMix64(config.seed)
    params = init_model_params(encoder, rng, masked=config.variant == "masked")
    state = AdamState.for_params(params)
    record = TrainRecord()

    best_val = math.inf
    best_snapshot = params.snapshot()
    epochs_since_best = 0

    for epoch in range(1, config.max_epochs + 1):
        order = list(range(len(train_labels)))
        rng.shuffle(order)
        epoch_loss = 0.0
        for batch_index, batch_start in enumerate(range(0, len(order), config.batch_size)):
            batch = order[batch_start : batch_start + config.batch_size]
            images = Tensor(np.take(train_images, batch, axis=1))
            objective = _batch_objective(params, images, train_labels[batch], config.lam)
            value = objective.item()
            if not math.isfinite(value):
                raise TrainingFailure(f"non-finite loss at epoch {epoch}, batch {batch_index}")
            epoch_loss += value * len(batch)
            backward(objective)
            adam_step(params, state, config.learning_rate)

        record.train_loss.append(epoch_loss / len(order))

        logits = _logits(params, val_images)
        val_loss = softmax_cross_entropy(Tensor(logits), val_labels).item()
        record.val_loss.append(val_loss)
        record.val_acc.append(int((logits.argmax(axis=0) == val_labels).sum()) / len(val_labels))

        if val_loss < best_val:
            best_val = val_loss
            best_snapshot = params.snapshot()
            record.best_epoch = epoch
            epochs_since_best = 0
        else:
            epochs_since_best += 1
        record.stopping_epoch = epoch
        if epochs_since_best >= config.patience:
            break

    params.restore(best_snapshot)
    record.wall_seconds = time.monotonic() - start
    return params, record


def evaluate_pixels(params: ModelParams, pixels: np.ndarray, labels: np.ndarray):
    """Accuracy and per-class confusion counts over (n, h, w, 3) pixels and their (n,) labels."""
    if len(labels) == 0:
        raise ConfigError("cannot evaluate an empty sample list")
    n = params.n_classes
    if labels.min() < 0 or labels.max() >= n:
        raise ConfigError(f"labels must lie in [0, {n}) for a {n}-class model")
    predicted = _logits(params, image_tensor(pixels).data).argmax(axis=0)
    confusion = np.zeros((n, n), dtype=np.int64)
    np.add.at(confusion, (labels, predicted), 1)
    accuracy = float(np.trace(confusion)) / len(labels)
    return accuracy, confusion


def evaluate(params: ModelParams, manifest: DatasetManifest, split: str, images_root):
    """Accuracy and confusion counts on one manifest split."""
    return evaluate_pixels(params, *load_split_pixels(manifest, images_root, split))


def write_train_record(record: TrainRecord, path) -> None:
    rows = zip(range(1, len(record.train_loss) + 1), record.train_loss, record.val_loss, record.val_acc)
    write_csv(rows, ["epoch", "train_loss", "val_loss", "val_acc"], path)
