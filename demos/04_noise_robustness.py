#!/usr/bin/env python3
"""Noise robustness protocol: corrupt the test split with Gaussian or
salt-and-pepper noise at increasing levels and compare the masked model
against the baseline at each level.  Trains both models from scratch, so
expect a few minutes on one core.
"""

import os
import tempfile

import numpy as np

from scenemask import (
    GAUSSIAN_LEVELS,
    SALT_PEPPER_LEVELS,
    SceneSpec,
    TrainConfig,
    add_gaussian_noise,
    add_salt_pepper_noise,
    generate_dataset,
    robustness_sweep,
    save_checkpoint,
    train,
)
from scenemask.data import write_csv
from scenemask.explain import ROBUSTNESS_COLUMNS

workdir = tempfile.mkdtemp(prefix="scenemask_noise_")
spec = SceneSpec(seed=0)
manifest = generate_dataset(spec, workdir)

# the two noise operators, shown on a flat gray image
flat = np.full((32, 32, 3), 128, dtype=np.uint8)
noisy = add_gaussian_noise(flat, level=25, seed=1)
print("gaussian level 25: empirical variance",
      round(float((noisy.astype(float) - 128).var()), 2))
speckled = add_salt_pepper_noise(flat, ratio=0.005, seed=1)
print("salt-and-pepper 0.5%: corrupted pixels",
      int(np.any(speckled != flat, axis=2).sum()), "of", 32 * 32)

checkpoints = []
for variant, lam in (("masked", 0.1), ("baseline", 0.0)):
    params, _ = train(TrainConfig(variant=variant, lam=lam, seed=0), manifest, workdir)
    path = os.path.join(workdir, f"{variant}.ckpt")
    save_checkpoint(params, path)
    checkpoints.append(path)

for kind, levels in (("gaussian", GAUSSIAN_LEVELS), ("salt_pepper", SALT_PEPPER_LEVELS)):
    rows = robustness_sweep(checkpoints, kind, levels, manifest, workdir, n_seeds=5, base_seed=0)
    out = os.path.join(workdir, f"robustness_{kind}.csv")
    write_csv(rows, ROBUSTNESS_COLUMNS, out)

    by_level = {}
    for _, variant, _, level, _, accuracy in rows:
        by_level.setdefault((variant, level), []).append(accuracy)
    print(f"\n{kind} (mean accuracy over 5 noise seeds) -> {out}")
    print(f"{'level':>8} {'masked':>8} {'baseline':>9} {'advantage':>10}")
    for level in levels:
        masked = np.mean(by_level[("masked", level)])
        baseline = np.mean(by_level[("baseline", level)])
        print(f"{level!s:>8} {masked:8.4f} {baseline:9.4f} {masked - baseline:+10.4f}")
