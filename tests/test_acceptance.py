"""Acceptance suite: every release criterion, one test each, at its stated
tolerance.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion PASS lines.  The training-based criteria share one session of
seeded runs (15 trainings on the default synthetic dataset), so the whole
module takes several minutes.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from scenemask import (
    EncoderConfig,
    SceneSpec,
    SplitMix64,
    Tensor,
    TrainConfig,
    add_gaussian_noise,
    add_salt_pepper_noise,
    aggregate_report,
    apply_mask,
    backward,
    conv2d,
    encode,
    evaluate,
    gap,
    generate_dataset,
    grad_cam,
    init_model_params,
    linear,
    load_checkpoint,
    mask_from_logits,
    predict_baseline,
    predict_masked,
    relu,
    robustness_sweep,
    save_checkpoint,
    sigmoid,
    softmax_cross_entropy,
    split_dataset,
    total_loss,
    train,
    write_train_record,
)
from scenemask.data import GAUSSIAN_LEVELS, SALT_PEPPER_LEVELS, image_layout
from scenemask.netpbm import read_pixels
from scenemask.tensor import tsum

from conftest import central_difference, max_relative_error, random_tensor

SEEDS = (0, 1, 2, 3, 4)


def _ok(name: str, detail: str = "") -> None:
    print(f"[PASS] {name}" + (f" -- {detail}" if detail else ""))


# ---------------------------------------------------------------------------
# shared training session
# ---------------------------------------------------------------------------


@dataclass
class Run:
    params: object
    record: object
    test_accuracy: float
    seconds: float

    @property
    def mask_mean(self):
        return float(mask_from_logits(self.params.mask).data.mean())


@pytest.fixture(scope="session")
def acceptance_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_data")
    spec = SceneSpec(seed=0)
    manifest = generate_dataset(spec, out)
    return spec, manifest, out


@pytest.fixture(scope="session")
def runs(acceptance_data):
    """All 15 seeded trainings used by criteria 4, 5, 6 and 9."""
    _, manifest, root = acceptance_data
    out = {}
    for seed in SEEDS:
        for variant, lam in (("masked", 0.1), ("masked", 0.0), ("baseline", 0.0)):
            config = TrainConfig(seed=seed, variant=variant, lam=lam)
            start = time.monotonic()
            params, record = train(config, manifest, root)
            seconds = time.monotonic() - start
            accuracy, _ = evaluate(params, manifest, "test", root)
            out[(seed, variant, lam)] = Run(params, record, accuracy, seconds)
    return out


@pytest.fixture(scope="session")
def seed0_checkpoints(runs, tmp_path_factory):
    out = tmp_path_factory.mktemp("ckpt")
    masked = out / "masked.ckpt"
    baseline = out / "baseline.ckpt"
    save_checkpoint(runs[(0, "masked", 0.1)].params, masked)
    save_checkpoint(runs[(0, "baseline", 0.0)].params, baseline)
    return str(masked), str(baseline)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_gradient_correctness():
    start = time.monotonic()
    step, tol = 1e-5, 1e-4

    # every differentiable primitive on random inputs in [-2, 2]
    x = random_tensor((2, 5, 5), seed=101)
    k = random_tensor((3, 2, 3, 3), seed=102)
    b = random_tensor((3,), seed=103)
    checks = [
        ("conv2d", (x, k, b), lambda: tsum(conv2d(x, k, b, stride=2, padding=1))),
    ]
    r = random_tensor((4, 4), seed=104)
    assert np.min(np.abs(r.data)) > 1e-3  # difference oracle invalid at the kink
    checks.append(("relu", (r,), lambda: tsum(relu(r))))
    s = random_tensor((4, 4), seed=105)
    checks.append(("sigmoid", (s,), lambda: tsum(sigmoid(s))))
    g = random_tensor((3, 4, 4), seed=106)
    checks.append(("gap", (g,), lambda: tsum(gap(g))))
    lx = random_tensor((5,), seed=107)
    lw = random_tensor((4, 5), seed=108)
    lb = random_tensor((4,), seed=109)
    checks.append(("linear", (lx, lw, lb), lambda: tsum(linear(lx, lw, lb))))
    ce = random_tensor((6,), seed=110)
    checks.append(("softmax_cross_entropy", (ce,), lambda: softmax_cross_entropy(ce, 2)))

    for name, tensors, build in checks:
        backward(build())
        for tensor in tensors:
            (numeric,) = central_difference(lambda: build().item(), [tensor.data], step=step)
            err = max_relative_error(tensor.grad, numeric)
            assert err <= tol, f"{name}: {err}"

    # full masked-model loss on a 4-class 32x32 instance
    config = EncoderConfig()
    params = init_model_params(config, SplitMix64(7), masked=True)
    image = random_tensor((3, 32, 32), seed=111, low=0.0, high=1.0)

    def full_loss():
        mask = mask_from_logits(params.mask)
        gated = apply_mask(encode(params, image), mask)
        pre = softmax_cross_entropy(
            linear(gap(gated), params.head_weights, params.head_bias), 2
        )
        return total_loss(pre, mask, 0.1).total

    backward(full_loss())
    worst = 0.0
    n_params = 0
    for name, tensor in params.named_tensors().items():
        analytic = tensor.grad.copy()
        (numeric,) = central_difference(lambda: full_loss().item(), [tensor.data], step=step)
        worst = max(worst, max_relative_error(analytic, numeric))
        n_params += tensor.data.size
    elapsed = time.monotonic() - start
    assert worst <= tol
    assert elapsed < 120
    _ok("criterion 1: gradient correctness", f"{n_params} params, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_identity_mask_equivalence():
    config = EncoderConfig()
    params = init_model_params(config, SplitMix64(21), masked=True)
    params.mask.data[...] = 40.0
    worst_soft = 0.0
    for i in range(100):
        image = random_tensor((3, 32, 32), seed=2000 + i, low=0.0, high=1.0)
        diff = np.max(
            np.abs(predict_masked(params, image).data - predict_baseline(params, image).data)
        )
        worst_soft = max(worst_soft, diff)
    assert worst_soft <= 1e-9

    worst_exact = 0.0
    ones = Tensor(np.ones(config.grid_shape))
    for i in range(100):
        image = random_tensor((3, 32, 32), seed=3000 + i, low=0.0, high=1.0)
        gated = linear(
            gap(apply_mask(encode(params, image), ones)),
            params.head_weights,
            params.head_bias,
        )
        diff = np.max(np.abs(gated.data - predict_baseline(params, image).data))
        worst_exact = max(worst_exact, diff)
    assert worst_exact <= 1e-12
    _ok(
        "criterion 2: identity-mask equivalence",
        f"logit+40 worst {worst_soft:.2e}, exact-ones worst {worst_exact:.2e}",
    )


def test_criterion_03_regularizer_arithmetic():
    from scenemask import l1_importance

    assert l1_importance(Tensor(np.ones((8, 8)))).item() == 64.0
    breakdown = total_loss(Tensor(np.float64(0.5)), Tensor(np.ones((8, 8))), 0.1)
    assert breakdown.total.item() == 6.9
    pre = Tensor(np.float64(0.7311))
    zero_lam = total_loss(pre, Tensor(np.ones((8, 8))), 0.0)
    assert zero_lam.total is pre
    assert zero_lam.total.item() == 0.7311
    _ok("criterion 3: regularizer arithmetic", "64 exact, 6.9 exact, lam=0 bitwise")


def test_criterion_04_sparsity_effect(runs):
    gaps = []
    for seed in SEEDS:
        with_reg = runs[(seed, "masked", 0.1)].mask_mean
        without = runs[(seed, "masked", 0.0)].mask_mean
        assert with_reg < without, f"seed {seed}: {with_reg} !< {without}"
        gaps.append(without - with_reg)
    mean_gap = float(np.mean(gaps))
    assert mean_gap >= 0.1
    total_seconds = sum(
        runs[(seed, "masked", lam)].seconds for seed in SEEDS for lam in (0.1, 0.0)
    )
    assert total_seconds < 20 * 60
    _ok(
        "criterion 4: sparsity effect",
        f"per-seed gaps {[round(g, 3) for g in gaps]}, mean {mean_gap:.3f}, {total_seconds:.0f}s",
    )


def test_criterion_05_efficacy_analogue(runs):
    masked = [runs[(seed, "masked", 0.1)].test_accuracy for seed in SEEDS]
    baseline = [runs[(seed, "baseline", 0.0)].test_accuracy for seed in SEEDS]
    assert np.mean(masked) >= np.mean(baseline)
    assert np.mean(masked) >= 0.95
    for seed in SEEDS:
        for variant, lam in (("masked", 0.1), ("baseline", 0.0)):
            assert runs[(seed, variant, lam)].seconds < 240
    _ok(
        "criterion 5: efficacy analogue",
        f"masked mean {np.mean(masked):.4f} vs baseline {np.mean(baseline):.4f}",
    )


def test_criterion_06_robustness_analogue(seed0_checkpoints, acceptance_data):
    _, manifest, root = acceptance_data
    summaries = {}
    for kind, levels in (("gaussian", GAUSSIAN_LEVELS), ("salt_pepper", SALT_PEPPER_LEVELS)):
        rows = robustness_sweep(
            list(seed0_checkpoints), kind, list(levels), manifest, root, n_seeds=5, base_seed=0
        )
        assert len(rows) == 2 * 6 * 5
        by_level = {}
        for model, variant, _, level, seed, accuracy in rows:
            by_level.setdefault((variant, level), []).append(accuracy)
        advantages = []
        for level in levels:
            adv = float(
                np.mean(by_level[("masked", level)]) - np.mean(by_level[("baseline", level)])
            )
            assert adv >= -0.01, f"{kind} level {level}: advantage {adv}"
            advantages.append(adv)
        summaries[kind] = advantages
    assert summaries["gaussian"][-1] >= summaries["gaussian"][0]
    _ok(
        "criterion 6: robustness analogue",
        f"gaussian adv {summaries['gaussian'][0]:+.4f} (clean) -> {summaries['gaussian'][-1]:+.4f} (max)",
    )


def test_criterion_07_noise_operator_exactness():
    rng = SplitMix64(71)
    image = (rng.uniforms(48 * 48 * 3).reshape(48, 48, 3) * 255).astype(np.uint8)
    assert np.array_equal(add_gaussian_noise(image, 0, seed=1), image)
    assert np.array_equal(add_salt_pepper_noise(image, 0.0, seed=1), image)

    big = np.full((224, 224, 3), 128, dtype=np.uint8)
    corrupted = add_salt_pepper_noise(big, 0.005, seed=2)
    changed = np.any(corrupted != big, axis=2)
    assert changed.sum() == 251

    flat = np.full((64, 64, 3), 128, dtype=np.uint8)
    noisy = add_gaussian_noise(flat, 25, seed=3)
    delta = noisy.astype(np.float64) - 128.0
    assert delta.size >= 10_000
    assert abs(delta.var() - 25.0) <= 0.2 * 25.0
    _ok(
        "criterion 7: noise operator exactness",
        f"251 pixels corrupted, empirical var {delta.var():.2f} vs 25",
    )


def test_criterion_08_determinism_and_persistence(acceptance_data, seed0_checkpoints, tmp_path):
    _, manifest, root = acceptance_data
    config = TrainConfig(seed=3, variant="masked", lam=0.1, max_epochs=8)
    params_a, record_a = train(config, manifest, root)
    params_b, record_b = train(config, manifest, root)
    for name, tensor in params_a.named_tensors().items():
        assert np.array_equal(tensor.data, params_b.named_tensors()[name].data)

    record_csv_a, record_csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_train_record(record_a, record_csv_a)
    write_train_record(record_b, record_csv_b)
    assert record_csv_a.read_bytes() == record_csv_b.read_bytes()

    sweep_args = (list(seed0_checkpoints), "gaussian", [0, 25], manifest, root)
    assert robustness_sweep(*sweep_args, n_seeds=2) == robustness_sweep(*sweep_args, n_seeds=2)

    ckpt = tmp_path / "round.ckpt"
    save_checkpoint(params_a, ckpt)
    loaded = load_checkpoint(ckpt)
    for name, tensor in params_a.named_tensors().items():
        assert np.array_equal(tensor.data, loaded.named_tensors()[name].data)

    tagged = split_dataset([(f"p{i}", 0) for i in range(1000)], seed=0)
    from collections import Counter

    counts = Counter(t for _, _, t in tagged)
    assert counts == {"train": 600, "val": 200, "test": 200}
    _ok("criterion 8: determinism and persistence")


def test_criterion_09_explanation_property(runs, acceptance_data):
    spec, manifest, root = acceptance_data
    params = runs[(0, "masked", 0.1)].params
    cs = spec.cue_size
    wins = total = 0
    for row in manifest.split_rows("test"):
        index = int(row.path.split("_")[-1].split(".")[0])
        layout = image_layout(spec, row.label, index)
        pixels = read_pixels(f"{root}/{row.path}")
        image = Tensor(pixels.transpose(2, 0, 1).astype(np.float64) / 255.0)
        heatmap = grad_cam(params, image, row.label)

        assert np.all(heatmap.grid >= 0)
        assert heatmap.grid.max() <= 1.0
        if heatmap.grid.max() > 0:
            assert heatmap.grid.max() == 1.0

        up = heatmap.upsampled.astype(np.float64)
        cue_mass = up[layout.cue_row : layout.cue_row + cs, layout.cue_col : layout.cue_col + cs].sum()
        h, w = up.shape
        background = [
            up[r : r + cs, c : c + cs].sum()
            for r in range(h - cs + 1)
            for c in range(w - cs + 1)
            if abs(r - layout.cue_row) >= cs or abs(c - layout.cue_col) >= cs
        ]
        if cue_mass > np.mean(background):
            wins += 1
        total += 1
    assert wins / total >= 0.8
    _ok("criterion 9: explanation property", f"cue-mass wins {wins}/{total}")


def test_supporting_task_solvability_oracle(acceptance_data):
    """The synthetic task is solvable from the cue region alone: brute-force
    nearest-centroid on cue pixels scores 100% on clean data, so model
    failures are model failures, not data failures."""
    spec, manifest, root = acceptance_data
    cs = spec.cue_size
    regions, labels = [], []
    for row in manifest.rows:
        index = int(row.path.split("_")[-1].split(".")[0])
        layout = image_layout(spec, row.label, index)
        pixels = read_pixels(f"{root}/{row.path}")
        region = pixels[
            layout.cue_row : layout.cue_row + cs, layout.cue_col : layout.cue_col + cs
        ]
        regions.append(region.astype(np.float64).reshape(-1))
        labels.append(row.label)
    regions = np.stack(regions)
    labels = np.asarray(labels)
    centroids = np.stack([regions[labels == c].mean(axis=0) for c in range(spec.n_classes)])
    distances = ((regions[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(np.argmin(distances, axis=1), labels)
    _ok("supporting: nearest-centroid oracle is 100% on clean data")


def test_criterion_10_reporting_semantics():
    report = aggregate_report([0.9] * 5)
    assert report.mean == 0.9
    assert report.std == 0.0
    assert report.min == 0.9

    accs = [1.0, 0.0, 0.0, 0.0, 0.0]
    report = aggregate_report(accs)
    arr = np.asarray(accs)
    assert abs(report.mean - arr.mean()) <= 1e-15
    assert abs(report.std - arr.std()) <= 1e-15
    assert report.min == 0.0
    assert report.mean == pytest.approx(0.2, abs=1e-15)
    assert report.std == pytest.approx(0.4, abs=1e-15)
    _ok("criterion 10: reporting semantics")
