#!/usr/bin/env python3
"""Hyperparameter sensitivity: test accuracy over a small learning-rate by
penalty-weight grid.  The full protocol uses lr in {1e-4, 1e-3}, lam in
{0, 0.01, 0.1, 1.0} and 5 seeds per cell; this demo runs a single-seed
slice of that grid (three trainings, several minutes on one core).
"""

import os
import tempfile

import numpy as np

from scenemask import SceneSpec, TrainConfig, generate_dataset, sensitivity_sweep
from scenemask.data import write_csv
from scenemask.explain import SENSITIVITY_COLUMNS

workdir = tempfile.mkdtemp(prefix="scenemask_sweep_")
spec = SceneSpec(seed=0)
manifest = generate_dataset(spec, workdir)

lrs = [1e-3]
lams = [0.0, 0.1, 1.0]
template = TrainConfig()
rows = sensitivity_sweep(lrs, lams, manifest, workdir, template=template, n_seeds=1)

out = os.path.join(workdir, "sensitivity.csv")
write_csv(rows, SENSITIVITY_COLUMNS, out)
print("wrote", out, "\n")

print(f"{'lr':>8} {'lambda':>8} {'mean acc':>9} {'per-seed':>20}")
for lr in lrs:
    for lam in lams:
        accs = [acc for r_lr, r_lam, _, acc in rows if r_lr == lr and r_lam == lam]
        print(f"{lr:>8} {lam:>8} {np.mean(accs):9.4f} {str([round(a, 3) for a in accs]):>20}")

spread = max(np.mean([a for _, l, _, a in rows if l == lam]) for lam in lams) - min(
    np.mean([a for _, l, _, a in rows if l == lam]) for lam in lams
)
print(f"\nspread of per-lambda means at lr={lrs[0]}: {spread:.4f}")
