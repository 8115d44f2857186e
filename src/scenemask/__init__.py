"""Scene classification with a learnable spatial feature-map mask.

A compact convolutional classifier whose final feature map is gated by a
single trainable mask grid under an L1 importance penalty, plus the tooling
to measure what that buys: seeded training runs, noise-robustness sweeps,
hyperparameter sensitivity, attention heatmaps, and a synthetic scene
dataset whose discriminative cue occupies a known region.
"""

from .checkpoint import load_checkpoint, save_checkpoint
from .data import (
    DatasetManifest,
    GAUSSIAN_LEVELS,
    ManifestRow,
    SALT_PEPPER_LEVELS,
    SceneSpec,
    add_gaussian_noise,
    add_salt_pepper_noise,
    generate_dataset,
    load_manifest,
    save_manifest,
    split_dataset,
)
from .errors import CheckpointError, ConfigError, ScenemaskError, ShapeError, TrainingFailure
from .explain import (
    Heatmap,
    RunReport,
    aggregate_report,
    format_report,
    grad_cam,
    mask_report,
    robustness_sweep,
    sensitivity_sweep,
)
from .masking import (
    MaskedLossBreakdown,
    apply_mask,
    l1_importance,
    mask_from_logits,
    total_loss,
)
from .model import (
    EncoderConfig,
    ModelParams,
    encode,
    init_model_params,
    predict,
    predict_baseline,
    predict_masked,
)
from .netpbm import read_image, read_pixels
from .rng import SplitMix64, derive_seed
from .tensor import (
    Tensor,
    backward,
    conv2d,
    gap,
    linear,
    relu,
    sigmoid,
    softmax_cross_entropy,
)
from .train import (
    AdamState,
    TrainConfig,
    TrainRecord,
    adam_step,
    evaluate,
    train,
    write_train_record,
)

__version__ = "0.1.0"
