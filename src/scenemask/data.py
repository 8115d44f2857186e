"""Synthetic scene dataset, split protocol, and test-time noise corruption.

Each generated image carries exactly one class cue: a small patterned color
patch placed in a jittered central window.  Distractor patches drawn from a
pool shared by all classes land in the periphery; their colors repeat the
class palette (with different internal patterns), so a classifier that pools
evidence from everywhere can be pulled toward the wrong class, while the cue
region alone suffices.  With probability ``occlusion_prob`` one distractor
clips a corner of the cue (never its center pixel).

Everything is a pure function of (spec, seed): images, manifest, split tags
and noise are bitwise reproducible, and per-image streams are derived from
the run seed by index so generation order does not matter.
"""

from __future__ import annotations

import csv
import functools
import os
from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from .errors import ConfigError, ShapeError
from .netpbm import read_pixels, write_ppm
from .rng import SplitMix64, derive_seed

_TAG_IMAGE = 1
_TAG_SPLIT = 2

_MANIFEST_HEADER = ["path", "label", "split"]
_SPLIT_FRACTIONS = (("train", 0.6), ("val", 0.2), ("test", 0.2))
_SPLITS = tuple(name for name, _ in _SPLIT_FRACTIONS)

_BASE_COLORS = (
    (208, 64, 64),
    (64, 200, 72),
    (64, 80, 208),
    (212, 200, 48),
    (200, 64, 200),
    (64, 200, 200),
)

_TEXTURE_AMPLITUDE = 8
_CUE_JITTER = 3  # cue top-left moves +-this many pixels around center
_CLEAR_MARGIN = 2  # periphery distractors keep this distance from the cue box
_OCCLUDER_OVERLAP = 2  # corner pixels of the cue an occluder may cover


@dataclass
class SceneSpec:
    n_classes: int = 4
    images_per_class: int = 200
    seed: int = 0

    # the scene geometry is the same for every dataset
    image_size: ClassVar[tuple] = (32, 32, 3)
    cue_size: ClassVar[int] = 6
    clutter_count: ClassVar[int] = 5
    occlusion_prob: ClassVar[float] = 0.3

    def __post_init__(self):
        if self.n_classes < 2 or self.images_per_class < 1:
            raise ConfigError("need at least 2 classes and 1 image per class")

    @property
    def n_images(self) -> int:
        return self.n_classes * self.images_per_class


@dataclass
class ManifestRow:
    path: str
    label: int
    split: str


@dataclass
class DatasetManifest:
    rows: list

    def __post_init__(self):
        seen = set()
        for row in self.rows:
            if row.path in seen:
                raise ConfigError(f"duplicate path {row.path}")
            seen.add(row.path)

    def split_rows(self, split: str) -> list:
        return [r for r in self.rows if r.split == split]

    @property
    def n_classes(self) -> int:
        return max(r.label for r in self.rows) + 1


# ---------------------------------------------------------------------------
# patch rendering
# ---------------------------------------------------------------------------


def class_color(index: int) -> tuple:
    if index < len(_BASE_COLORS):
        return _BASE_COLORS[index]
    # golden-angle hue wheel for palettes beyond the base list
    hue = (index * 0.381966) % 1.0
    i = int(hue * 6)
    f = hue * 6 - i
    v, p, q, t = 216, 54, int(216 - (216 - 54) * f), int(54 + (216 - 54) * f)
    rgb = [(v, t, p), (q, v, p), (p, v, t), (p, q, v), (t, p, v), (v, p, q)][i % 6]
    return rgb


def _render_patch(color: tuple, pattern: int, size: int) -> np.ndarray:
    base = np.array(color, dtype=np.float64)
    dark = np.floor(base * 0.55)
    r = np.arange(size)
    if pattern == 0:  # horizontal stripes
        sel = ((r[:, None] // 2) % 2 == 0) & np.ones(size, bool)[None, :]
    elif pattern == 1:  # vertical stripes
        sel = np.ones(size, bool)[:, None] & ((r[None, :] // 2) % 2 == 0)
    elif pattern == 2:  # diagonal stripes
        sel = ((r[:, None] + r[None, :]) // 2) % 2 == 0
    elif pattern == 3:  # 2x2 checkerboard
        sel = ((r[:, None] // 2) + (r[None, :] // 2)) % 2 == 0
    else:  # solid
        sel = np.ones((size, size), bool)
    return np.where(sel[:, :, None], base, dark).astype(np.uint8)


_DISTRACTOR_BLEND = 0.45  # pull distractor colors toward the background


def _blend_toward_gray(color: tuple, factor: float) -> tuple:
    return tuple(int(round(128 + factor * (c - 128))) for c in color)


@functools.lru_cache(maxsize=8)
def _patches(n_classes: int) -> tuple:
    """Read-only (cue patch per label, distractor pool), rendered once per
    class count rather than once per image.

    A cue is a solid color block: the pooled color signal is what identifies
    the class.  The pool holds the patches available to every class:
    washed-out class colors with shifted patterns, plus two neutral fillers.
    The color overlap with the cues makes them weak evidence for the wrong
    class."""
    cue_size = SceneSpec.cue_size
    cues = [_render_patch(class_color(i), 4, cue_size) for i in range(n_classes)]
    pool = [
        _render_patch(_blend_toward_gray(class_color(i), _DISTRACTOR_BLEND), (i + 2) % 4, cue_size)
        for i in range(n_classes)
    ]
    pool.append(_render_patch((164, 164, 164), 4, cue_size))
    pool.append(_render_patch((84, 84, 84), 2, cue_size))
    for patch in cues + pool:
        patch.flags.writeable = False
    return tuple(cues), tuple(pool)


# ---------------------------------------------------------------------------
# per-image layout and rendering
# ---------------------------------------------------------------------------


@dataclass
class ImageLayout:
    cue_row: int
    cue_col: int
    distractors: list  # (pool_index, row, col) in the periphery
    occluder: Optional[tuple]  # (pool_index, row, col) clipping the cue corner


def _boxes_intersect(r0, c0, r1, c1, size) -> bool:
    return abs(r0 - r1) < size and abs(c0 - c1) < size


def _image_layout(spec: SceneSpec, label: int, index: int) -> tuple:
    """Layout of image ``index`` of class ``label``, and that image's stream after
    the layout draws."""
    rng = SplitMix64(derive_seed(spec.seed, _TAG_IMAGE, label * spec.images_per_class + index))
    h, w, _ = spec.image_size
    cs = spec.cue_size
    cue_row = (h - cs) // 2 - _CUE_JITTER + rng.below(2 * _CUE_JITTER + 1)
    cue_col = (w - cs) // 2 - _CUE_JITTER + rng.below(2 * _CUE_JITTER + 1)

    occluded = rng.uniform() < spec.occlusion_prob
    pool_size = spec.n_classes + 2

    distractors = []
    n_periphery = spec.clutter_count - (1 if occluded else 0)
    for _ in range(n_periphery):
        proto = rng.below(pool_size)
        # rejection-sample a spot clear of the (inflated) cue box; about a
        # third of the spots collide, and the bound keeps the loop finite
        for _attempt in range(64):
            r = rng.below(h - cs + 1)
            c = rng.below(w - cs + 1)
            if not _boxes_intersect(r, c, cue_row, cue_col, cs + _CLEAR_MARGIN):
                distractors.append((proto, r, c))
                break

    occluder = None
    if occluded:
        proto = rng.below(pool_size)
        corner = rng.below(4)
        shift = cs - _OCCLUDER_OVERLAP
        dr = -shift if corner < 2 else shift
        dc = -shift if corner % 2 == 0 else shift
        occluder = (proto, cue_row + dr, cue_col + dc)
    return ImageLayout(cue_row, cue_col, distractors, occluder), rng


def _paint(canvas: np.ndarray, patch: np.ndarray, row: int, col: int) -> None:
    # no patch crosses the canvas edge: distractors are drawn in range, and an
    # occluder sits cue_size - _OCCLUDER_OVERLAP pixels off a near-central cue
    size = patch.shape[0]
    canvas[row : row + size, col : col + size] = patch


def render_image(spec: SceneSpec, label: int, index: int):
    """Pixels and layout for image ``index`` of class ``label``.

    The layout draws come first on the per-image stream, so geometry can be
    replayed without rendering (see :func:`image_layout`).
    """
    layout, rng = _image_layout(spec, label, index)

    h, w, _ = spec.image_size
    texture = np.floor(rng.uniforms(h * w) * (2 * _TEXTURE_AMPLITUDE + 1)) - _TEXTURE_AMPLITUDE
    canvas = np.clip(128.0 + texture.reshape(h, w), 0, 255).astype(np.uint8)
    canvas = np.repeat(canvas[:, :, None], 3, axis=2)

    cues, pool = _patches(spec.n_classes)
    for proto, r, c in layout.distractors:
        _paint(canvas, pool[proto], r, c)
    _paint(canvas, cues[label], layout.cue_row, layout.cue_col)
    if layout.occluder is not None:
        proto, r, c = layout.occluder
        _paint(canvas, pool[proto], r, c)
    return canvas, layout


def image_layout(spec: SceneSpec, label: int, index: int) -> ImageLayout:
    """Replay only the geometry of a generated image (cheap, no rendering)."""
    return _image_layout(spec, label, index)[0]


def image_filename(label: int, index: int) -> str:
    return f"img_c{label}_{index:04d}.ppm"


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------


def _largest_remainder_counts(n: int) -> dict:
    base = {name: int(frac * n) for name, frac in _SPLIT_FRACTIONS}
    remainders = {name: frac * n - base[name] for name, frac in _SPLIT_FRACTIONS}
    leftover = n - sum(base.values())
    priority = {name: i for i, (name, _) in enumerate(_SPLIT_FRACTIONS)}
    order = sorted(base, key=lambda s: (-remainders[s], priority[s]))
    for name in order[:leftover]:
        base[name] += 1
    return base


def split_dataset(items: list, seed: int) -> list:
    """Tag (item, label) pairs with train/val/test, 60/20/20 per class.

    Per-class seeded shuffle, then a largest-remainder partition (ties go to
    val before test).  Output preserves the input order.
    """
    if not items:
        raise ConfigError("cannot split an empty item list")
    by_label: dict = {}
    for pos, (_, label) in enumerate(items):
        by_label.setdefault(label, []).append(pos)

    tags = [None] * len(items)
    for label, positions in sorted(by_label.items()):
        order = list(range(len(positions)))
        SplitMix64(derive_seed(seed, _TAG_SPLIT, label)).shuffle(order)
        counts = _largest_remainder_counts(len(positions))
        cursor = 0
        for name, _ in _SPLIT_FRACTIONS:
            for k in order[cursor : cursor + counts[name]]:
                tags[positions[k]] = name
            cursor += counts[name]
    return [(item, label, tag) for (item, label), tag in zip(items, tags)]


# ---------------------------------------------------------------------------
# dataset generation and manifest IO
# ---------------------------------------------------------------------------


def generate_dataset(spec: SceneSpec, out_dir) -> DatasetManifest:
    """Write all images as PPM files plus ``manifest.csv``; returns the manifest."""
    os.makedirs(out_dir, exist_ok=True)
    items = []
    for label in range(spec.n_classes):
        for index in range(spec.images_per_class):
            pixels, _ = render_image(spec, label, index)
            name = image_filename(label, index)
            write_ppm(pixels, os.path.join(out_dir, name))
            items.append((name, label))

    tagged = split_dataset(items, spec.seed)
    rows = [ManifestRow(path, label, split) for path, label, split in tagged]
    manifest = DatasetManifest(rows)
    save_manifest(manifest, os.path.join(out_dir, "manifest.csv"))
    return manifest


def write_csv(rows, header: list, path) -> None:
    """Write ``header`` and then each row of ``rows`` as one CSV line."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def save_manifest(manifest: DatasetManifest, path) -> None:
    write_csv(([r.path, r.label, r.split] for r in manifest.rows), _MANIFEST_HEADER, path)


def load_manifest(path) -> DatasetManifest:
    rows = []
    try:
        with open(path, newline="") as f:
            reader = csv.reader(f)
            header = next(reader, None)
            if header != _MANIFEST_HEADER:
                raise ConfigError(f"bad manifest header {header}")
            for rec in reader:
                where = f"{path} line {reader.line_num}"
                if len(rec) != 3:
                    raise ConfigError(
                        f"{where}: expected 3 fields (path,label,split), got {len(rec)}"
                    )
                try:
                    label = int(rec[1])
                except ValueError:
                    raise ConfigError(f"{where}: label {rec[1]!r} is not an integer") from None
                if label < 0:
                    raise ConfigError(f"{where}: label {label} is negative")
                if rec[2] not in _SPLITS:
                    raise ConfigError(
                        f"{where}: unknown split {rec[2]!r}, expected one of {_SPLITS}"
                    )
                rows.append(ManifestRow(rec[0], label, rec[2]))
    except (UnicodeDecodeError, csv.Error) as e:
        raise ConfigError(f"{path} is not a readable CSV manifest: {e}") from None
    top = max((r.label for r in rows), default=-1)
    if top >= len(rows):  # a manifest cannot name more classes than it has images
        raise ConfigError(f"{path}: label {top} is not below the row count {len(rows)}")
    return DatasetManifest(rows)


def load_split_pixels(manifest: DatasetManifest, root, split: str):
    """One split in manifest order: (n, h, w, 3) uint8 pixels and their (n,) labels."""
    rows = manifest.split_rows(split)
    if not rows:
        raise ConfigError(f"split '{split}' is empty")
    images = [read_pixels(os.path.join(root, r.path)) for r in rows]
    shapes = sorted({px.shape for px in images})
    if len(shapes) != 1:
        raise ShapeError(f"split '{split}' mixes image sizes: {shapes}")
    return np.stack(images), np.array([r.label for r in rows])


# ---------------------------------------------------------------------------
# noise corruption
# ---------------------------------------------------------------------------

GAUSSIAN_LEVELS = (0, 5, 10, 15, 20, 25)
SALT_PEPPER_LEVELS = (0.0, 0.001, 0.002, 0.003, 0.004, 0.005)


def add_gaussian_noise(pixels: np.ndarray, level: float, seed: int) -> np.ndarray:
    """Zero-mean Gaussian noise with the given *variance* on the 0-255 scale,
    clamped and re-quantized; level 0 is the exact identity."""
    if level < 0:
        raise ConfigError(f"noise level must be nonnegative, got {level}")
    if level == 0:
        return pixels.copy()
    rng = SplitMix64(seed)
    noise = rng.normals(pixels.size, float(level) ** 0.5).reshape(pixels.shape)
    return np.clip(np.floor(pixels.astype(np.float64) + noise + 0.5), 0, 255).astype(np.uint8)


def add_salt_pepper_noise(pixels: np.ndarray, ratio: float, seed: int) -> np.ndarray:
    """Set round(ratio * h * w) distinct pixels to full black or full white
    (all channels, equal polarity odds); ratio 0 is the exact identity."""
    if not 0.0 <= ratio <= 1.0:
        raise ConfigError(f"salt-and-pepper ratio must be in [0, 1], got {ratio}")
    h, w = pixels.shape[:2]
    count = int(np.floor(ratio * h * w + 0.5))
    out = pixels.copy()
    if count == 0:
        return out
    rng = SplitMix64(seed)
    slots = np.arange(h * w, dtype=np.int64)
    for i in range(count):  # partial Fisher-Yates: first `count` are the hits
        j = i + rng.below(h * w - i)
        slots[i], slots[j] = slots[j], slots[i]
    polarity = rng.uniforms(count) < 0.5
    flat = out.reshape(h * w, -1)
    flat[slots[:count]] = np.where(polarity[:, None], 255, 0).astype(np.uint8)
    return out
