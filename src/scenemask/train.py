"""Seeded end-to-end training: Adam, mini-batches, early stopping, evaluation.

One training run is strictly single-threaded and fully determined by
(seed, config, data): the run's generator seeds parameter init and the
per-epoch shuffles, batches accumulate mean per-sample gradients, and the
returned parameters are those of the best-validation-loss epoch.  The early
stopping signal is the mean per-sample prediction loss on the validation
split (the importance penalty is excluded so baseline and masked runs are
comparable).
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .data import DatasetManifest, load_split_pixels
from .errors import ConfigError, TrainingFailure
from .masking import total_loss
from .model import EncoderConfig, ModelParams, forward, init_model_params, predict
from .netpbm import image_tensor
from .rng import SplitMix64
from .tensor import Tensor, backward, softmax_cross_entropy

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


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
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.lam < 0:
            raise ConfigError(f"lam must be nonnegative, got {self.lam}")
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


def adam_step(params: ModelParams, grads: dict, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update applied in place."""
    state.t += 1
    c1 = 1.0 - ADAM_BETA1**state.t
    c2 = 1.0 - ADAM_BETA2**state.t
    for name, tensor in params.named_tensors().items():
        g = grads[name]
        if g.shape != tensor.data.shape:
            raise TrainingFailure(f"gradient shape {g.shape} for {name} {tensor.data.shape}")
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        tensor.data -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


def _sample_objective(params: ModelParams, image: Tensor, label: int, lam: float) -> Tensor:
    """Build the per-sample loss graph; returns the objective node."""
    logits, _, mask = forward(params, image)
    prediction_loss = softmax_cross_entropy(logits, label)
    return prediction_loss if mask is None else total_loss(prediction_loss, mask, lam).total


def train(
    config: TrainConfig,
    manifest: DatasetManifest,
    images_root,
    encoder: Optional[EncoderConfig] = None,
):
    """Train one model; returns (best-epoch ModelParams, TrainRecord)."""
    start = time.monotonic()
    train_set = [(image_tensor(px), label) for px, label in load_split_pixels(manifest, images_root, "train")]
    val_set = [(image_tensor(px), label) for px, label in load_split_pixels(manifest, images_root, "val")]
    if encoder is None:
        h, w = train_set[0][0].shape[1], train_set[0][0].shape[2]
        encoder = EncoderConfig(input_size=(h, w, 3), n_classes=manifest.n_classes)

    rng = SplitMix64(config.seed)
    params = init_model_params(encoder, rng, masked=config.variant == "masked")
    state = AdamState.for_params(params)
    record = TrainRecord()

    best_val = math.inf
    best_snapshot = params.snapshot()
    epochs_since_best = 0

    for epoch in range(1, config.max_epochs + 1):
        order = list(range(len(train_set)))
        rng.shuffle(order)
        epoch_loss = 0.0
        for batch_index, batch_start in enumerate(range(0, len(order), config.batch_size)):
            batch = order[batch_start : batch_start + config.batch_size]
            grads = {n: np.zeros_like(t.data) for n, t in params.named_tensors().items()}
            for idx in batch:
                image, label = train_set[idx]
                objective = _sample_objective(params, image, label, config.lam)
                value = objective.item()
                if not math.isfinite(value):
                    raise TrainingFailure(
                        f"non-finite loss at epoch {epoch}, batch {batch_index}"
                    )
                epoch_loss += value
                backward(objective)
                for name, tensor in params.named_tensors().items():
                    grads[name] += tensor.grad
            for name in grads:
                grads[name] /= len(batch)
            adam_step(params, grads, state, config.learning_rate)

        record.train_loss.append(epoch_loss / len(order))

        val_loss = 0.0
        correct = 0
        for image, label in val_set:
            logits = predict(params, image)
            val_loss += softmax_cross_entropy(logits, label).item()
            if int(np.argmax(logits.data)) == label:
                correct += 1
        val_loss /= len(val_set)
        record.val_loss.append(val_loss)
        record.val_acc.append(correct / len(val_set))

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


def evaluate_pixels(params: ModelParams, pairs: list):
    """Accuracy and per-class confusion counts over (pixels, label) pairs."""
    if not pairs:
        raise ConfigError("cannot evaluate an empty sample list")
    n = params.n_classes
    confusion = np.zeros((n, n), dtype=np.int64)
    for pixels, label in pairs:
        logits = predict(params, image_tensor(pixels))
        confusion[label, int(np.argmax(logits.data))] += 1
    accuracy = float(np.trace(confusion)) / len(pairs)
    return accuracy, confusion


def evaluate(params: ModelParams, manifest: DatasetManifest, split: str, images_root):
    """Accuracy and confusion counts on one manifest split."""
    return evaluate_pixels(params, load_split_pixels(manifest, images_root, split))


def write_train_record(record: TrainRecord, path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["epoch", "train_loss", "val_loss", "val_acc"])
        for i in range(len(record.train_loss)):
            writer.writerow([i + 1, record.train_loss[i], record.val_loss[i], record.val_acc[i]])
