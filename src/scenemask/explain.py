"""Attention maps, mask diagnostics, robustness and sensitivity sweeps.

The attention map is CAM in closed form, which equals Grad-CAM for a GAP +
linear head, taken at the feature map the classifier actually pools: the
post-mask map for masked models (so the learned gating shows up in the
explanation) and the raw encoder output for baselines.  Sweeps emit plain CSV rows in a fixed
(model, level, seed) order so output never depends on scheduling.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

import numpy as np

from .checkpoint import load_checkpoint
from .data import (
    DatasetManifest,
    add_gaussian_noise,
    add_salt_pepper_noise,
    load_split_pixels,
    write_csv,  # re-exported: sweep results are written with it
)
from .errors import ConfigError
from .masking import mask_from_logits
from .model import ModelParams, forward
from .netpbm import nearest_resize, quantize
from .rng import derive_seed
from .tensor import Tensor, softmax_values
from .train import TrainConfig, evaluate, evaluate_pixels, train

SUPPRESSED_THRESHOLD = 0.05

_NOISE_FNS = {"gaussian": add_gaussian_noise, "salt_pepper": add_salt_pepper_noise}
_NOISE_TAGS = {"gaussian": 11, "salt_pepper": 12}


@dataclass
class Heatmap:
    grid: np.ndarray  # nonnegative, max-normalized, feature-grid resolution
    upsampled: np.ndarray  # uint8, input resolution, nearest-neighbor
    confidence: float


@dataclass
class RunReport:
    mean: float
    std: float
    min: float


def grad_cam(params: ModelParams, image: Tensor, target_class: int) -> Heatmap:
    """Class-specific attention heatmap over the pooled (d, k) feature map.

    The head is GAP + linear, so the channel weights (the target logit's gradient
    at each cell) are ``head_weights[c] / (d*k)``, with no backward pass.  The grid
    is the ReLU of the weighted channel sum, normalized by its max when positive.
    """
    if not 0 <= target_class < params.n_classes:
        raise ConfigError(f"target class {target_class} out of range")
    logits, pooled, _ = forward(params, image)
    _, d, k = pooled.shape
    alpha = params.head_weights.data[target_class] / (d * k)
    grid = np.maximum(np.einsum("c,cij->ij", alpha, pooled.data), 0.0)
    peak = grid.max()
    if peak > 0:
        grid = grid / peak
    upsampled = quantize(nearest_resize(grid, (image.shape[1], image.shape[2])))
    confidence = float(softmax_values(logits.data)[target_class])
    return Heatmap(grid, upsampled, confidence)


def mask_report(params: ModelParams) -> str:
    """CSV text with per-cell mask values, their mean, and the count of
    suppressed cells (value below the reporting threshold)."""
    if params.mask is None:
        raise ConfigError("model has no mask")
    values = mask_from_logits(params.mask).data
    lines = ["stat,row,col,value"]
    for r in range(values.shape[0]):
        for c in range(values.shape[1]):
            lines.append(f"cell,{r},{c},{float(values[r, c])!r}")
    lines.append(f"mean,,,{float(values.mean())!r}")
    lines.append(f"suppressed_count,,,{int((values < SUPPRESSED_THRESHOLD).sum())}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def robustness_sweep(
    checkpoint_paths: list,
    kind: str,
    levels: list,
    manifest: DatasetManifest,
    images_root,
    n_seeds: int = 5,
    base_seed: int = 0,
) -> list:
    """Accuracy of each checkpointed model on the noise-corrupted test split.

    Every (level, seed) pair corrupts the same test images for all models via
    a seed derived from (base_seed, kind, level index, seed, image index).
    Returns rows [model, variant, noise_kind, level, seed, accuracy].
    """
    if kind not in _NOISE_FNS:
        raise ConfigError(f"unknown noise kind '{kind}'")
    if not levels or n_seeds < 1:
        raise ConfigError(f"levels and n_seeds must be nonempty, got {levels} and {n_seeds}")
    noise_fn = _NOISE_FNS[kind]
    tag = _NOISE_TAGS[kind]
    models = []
    for path in checkpoint_paths:
        name = os.path.splitext(os.path.basename(path))[0]
        params = load_checkpoint(path)
        models.append((name, params))
    test_pixels, test_labels = load_split_pixels(manifest, images_root, "test")

    results = {}
    for li, level in enumerate(levels):
        for seed in range(n_seeds):
            corrupted = np.stack(
                [
                    noise_fn(px, level, derive_seed(base_seed, tag, li, seed, i))
                    for i, px in enumerate(test_pixels)
                ]
            )
            for name, params in models:
                accuracy, _ = evaluate_pixels(params, corrupted, test_labels)
                results[(name, li, seed)] = accuracy

    rows = []
    for name, params in models:
        for li, level in enumerate(levels):
            for seed in range(n_seeds):
                rows.append([name, params.variant, kind, level, seed, results[(name, li, seed)]])
    return rows


def sensitivity_sweep(
    lrs: list,
    lams: list,
    manifest: DatasetManifest,
    images_root,
    template: TrainConfig | None = None,
    n_seeds: int = 5,
    encoder=None,
) -> list:
    """Train one masked model per (learning rate, lam, seed) grid cell.

    Returns rows [lr, lambda, seed, test_accuracy] in fixed grid order.
    """
    if not lrs or not lams or n_seeds < 1:
        raise ConfigError("sensitivity grid and seed count must be nonempty")
    if template is None:
        template = TrainConfig()
    rows = []
    for lr in lrs:
        for lam in lams:
            for seed in range(n_seeds):
                config = dataclasses.replace(
                    template, learning_rate=lr, lam=lam, seed=seed, variant="masked"
                )
                params, _ = train(config, manifest, images_root, encoder)
                accuracy, _ = evaluate(params, manifest, "test", images_root)
                rows.append([lr, lam, seed, accuracy])
    return rows


def aggregate_report(accuracies: list) -> RunReport:
    """Mean, population standard deviation, and minimum over the 5 run seeds."""
    if len(accuracies) != 5:
        raise ConfigError(f"expected 5 per-seed accuracies, got {len(accuracies)}")
    if any(not 0.0 <= a <= 1.0 for a in accuracies):
        raise ConfigError("accuracies must lie in [0, 1]")
    arr = np.asarray(accuracies, dtype=np.float64)
    return RunReport(mean=float(arr.mean()), std=float(arr.std()), min=float(arr.min()))


def format_report(report: RunReport) -> str:
    """Render a report row as ``mean ± std | min``, e.g. ``0.900 ± 7.5e-4 | 0.900``."""
    return f"{report.mean:.3f} ± {_format_std(report.std)} | {report.min:.3f}"


def _format_std(std: float) -> str:
    if std == 0:
        return "0"
    mantissa, exponent = f"{std:.1e}".split("e")
    return f"{mantissa}e{int(exponent)}"
