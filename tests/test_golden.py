"""Golden digests: "outputs are bitwise equal to the parent commit" as a test.

``golden.json`` stores SHA-256s of seeded outputs:
- seed-0, 3-epoch training for both variants: final parameters, the
  TrainRecord without ``wall_seconds``, and the test confusion matrix;
- ``robustness_sweep`` rows over ``bench/checkpoints/*.ckpt`` at every
  Gaussian and salt-and-pepper level, with two noise seeds;
- ``grad_cam`` grids, upsampled maps and confidences on all 800 seed-0
  images, with both stored checkpoints.

The digests hold for one numpy/BLAS build, so the stored record is keyed on
the Python, numpy and BLAS versions and the CPU architecture.  Where those
differ the test skips and names the fields; it never passes.  Thread pins are
recorded but not keyed: the digests were equal with ``OPENBLAS_NUM_THREADS``
at 1 and unset (2 threads).  A change that moves a digest on purpose, such as
a new summation order, regenerates the file and says so:

    PYTHONPATH=src python tests/test_golden.py > tests/golden.json
"""

import hashlib
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import scenemask as sm

GOLDEN = Path(__file__).with_name("golden.json")
CHECKPOINTS = sorted((Path(__file__).resolve().parent.parent / "bench" / "checkpoints").glob("*.ckpt"))
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def machine() -> dict:
    """The fields a stored digest is only comparable under."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "arch": platform.machine(),
    }


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype.str}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def digests(work_dir) -> dict:
    manifest = sm.generate_dataset(sm.SceneSpec(seed=0), work_dir)
    out = {}
    for variant in ("masked", "baseline"):
        config = sm.TrainConfig(seed=0, max_epochs=3, variant=variant)
        params, record = sm.train(config, manifest, work_dir)
        _, confusion = sm.evaluate(params, manifest, "test", work_dir)
        named = params.named_tensors()
        out[f"train.{variant}.params"] = _sha(*[x for name in named for x in (name, named[name].data)])
        out[f"train.{variant}.record"] = _sha(
            record.train_loss, record.val_loss, record.val_acc, record.stopping_epoch, record.best_epoch
        )
        out[f"train.{variant}.test_confusion"] = _sha(confusion)

    paths = [str(p) for p in CHECKPOINTS]
    for kind, levels in (("gaussian", sm.GAUSSIAN_LEVELS), ("salt_pepper", sm.SALT_PEPPER_LEVELS)):
        rows = sm.robustness_sweep(paths, kind, list(levels), manifest, work_dir, n_seeds=2)
        out[f"robustness.{kind}"] = _sha(rows)

    images = [(sm.read_image(os.path.join(work_dir, row.path)), row.label) for row in manifest.rows]
    for path in CHECKPOINTS:
        params = sm.load_checkpoint(path)
        maps = [sm.grad_cam(params, x, label) for x, label in images]
        out[f"grad_cam.{path.stem}.grid"] = _sha(*[m.grid for m in maps])
        out[f"grad_cam.{path.stem}.upsampled"] = _sha(*[m.upsampled for m in maps])
        out[f"grad_cam.{path.stem}.confidence"] = _sha([m.confidence for m in maps])
    return out


def test_outputs_match_golden_digests(tmp_path):
    stored = json.loads(GOLDEN.read_text())
    here = machine()
    differ = [k for k in here if stored["machine"].get(k) != here[k]]
    if differ:
        pytest.skip(
            "not comparable, golden digests were taken with "
            + ", ".join(f"{k} {stored['machine'].get(k)!r} (here {here[k]!r})" for k in differ)
        )
    new = digests(tmp_path)
    moved = sorted(k for k in stored["digests"].keys() | new.keys() if stored["digests"].get(k) != new.get(k))
    assert not moved, "digests moved:\n" + "\n".join(f"  {k}: now {new.get(k)}" for k in moved)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work_dir:
        record = {
            "machine": machine(),
            "thread_pins": {var: os.environ.get(var) for var in THREAD_PINS},
            "digests": digests(work_dir),
        }
    json.dump(record, sys.stdout, indent=2)
    print()
