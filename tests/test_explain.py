import csv
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from scenemask import (
    EncoderConfig,
    SceneSpec,
    SplitMix64,
    Tensor,
    TrainConfig,
    aggregate_report,
    format_report,
    grad_cam,
    init_model_params,
    mask_report,
    robustness_sweep,
    save_checkpoint,
    sensitivity_sweep,
    train,
)
from scenemask import errors
from scenemask.cli import _build_parser, cli
from scenemask.data import write_csv
from scenemask.errors import ConfigError
from scenemask.explain import RunReport
from scenemask.model import forward
from scenemask.tensor import backward, mul, tsum
from scenemask.train import evaluate

from conftest import random_tensor

TINY_ENCODER = EncoderConfig(input_size=(32, 32, 3), block_channels=(4, 8), n_classes=3)
BENCH_CHECKPOINTS = Path(__file__).resolve().parent.parent / "bench" / "checkpoints"


def tiny_train_config(**overrides):
    base = dict(max_epochs=3, patience=10, seed=0, variant="masked", lam=0.1)
    base.update(overrides)
    return TrainConfig(**base)


class TestGradCam:
    def test_grid_is_normalized_and_nonnegative(self):
        params = init_model_params(TINY_ENCODER, SplitMix64(1), masked=True)
        image = random_tensor((3, 32, 32), seed=2, low=0.0, high=1.0)
        heatmap = grad_cam(params, image, target_class=1)
        assert heatmap.grid.shape == (8, 8)
        assert np.all(heatmap.grid >= 0)
        assert heatmap.grid.max() <= 1.0
        assert heatmap.upsampled.shape == (32, 32)
        assert heatmap.upsampled.dtype == np.uint8
        assert 0.0 <= heatmap.confidence <= 1.0

    def test_zero_head_row_gives_zero_grid(self):
        params = init_model_params(TINY_ENCODER, SplitMix64(3), masked=False)
        params.head_weights.data[2, :] = 0.0
        image = random_tensor((3, 32, 32), seed=4, low=0.0, high=1.0)
        heatmap = grad_cam(params, image, target_class=2)
        assert np.array_equal(heatmap.grid, np.zeros((8, 8)))
        assert np.array_equal(heatmap.upsampled, np.zeros((32, 32), np.uint8))

    def test_single_channel_positive_gradient_tracks_features(self):
        config = EncoderConfig(input_size=(32, 32, 3), block_channels=(4, 1), n_classes=2)
        params = init_model_params(config, SplitMix64(5), masked=False)
        params.head_weights.data[...] = np.array([[1.0], [-1.0]])
        image = random_tensor((3, 32, 32), seed=6, low=0.0, high=1.0)
        from scenemask.model import encode

        features = encode(params, image).data[0]
        heatmap = grad_cam(params, image, target_class=0)
        expected = np.maximum(features, 0)
        if expected.max() > 0:
            expected = expected / expected.max()
        assert np.allclose(heatmap.grid, expected, atol=1e-12)

    def test_identity_mask_matches_baseline_heatmap(self):
        params = init_model_params(TINY_ENCODER, SplitMix64(7), masked=True)
        params.mask.data[...] = 1e9  # exact all-ones mask
        baseline = init_model_params(TINY_ENCODER, SplitMix64(7), masked=False)
        image = random_tensor((3, 32, 32), seed=8, low=0.0, high=1.0)
        a = grad_cam(params, image, 0)
        b = grad_cam(baseline, image, 0)
        assert np.max(np.abs(a.grid - b.grid)) <= 1e-12
        assert a.confidence == pytest.approx(b.confidence, abs=1e-12)

    @pytest.mark.parametrize("masked", [True, False], ids=["masked", "baseline"])
    def test_closed_form_weights_match_tape(self, masked):
        """CAM's channel weights W[c] / (d*k) equal the spatial means of the
        target logit's gradient at the pooled map, backpropagated by the tape."""
        params = init_model_params(TINY_ENCODER, SplitMix64(14), masked=masked)
        for i, b in enumerate(params.biases + [params.head_bias]):
            b.data[...] = random_tensor(b.shape, seed=20 + i, low=-0.5, high=0.5).data
        if masked:
            params.mask.data[...] = random_tensor((8, 8), seed=15).data
        image = random_tensor((3, 32, 32), seed=16, low=0.0, high=1.0)
        for c in range(params.n_classes):
            logits, pooled, _ = forward(params, image)
            backward(tsum(mul(logits, Tensor(np.eye(params.n_classes)[c]))))
            tape_weights = pooled.grad.mean(axis=(1, 2))
            closed_form = params.head_weights.data[c] / (8 * 8)
            assert np.max(np.abs(tape_weights - closed_form)) <= 1e-12
            grid = np.maximum(np.einsum("c,cij->ij", tape_weights, pooled.data), 0.0)
            if grid.max() > 0:
                grid = grid / grid.max()
            assert np.max(np.abs(grad_cam(params, image, c).grid - grid)) <= 1e-12

    def test_invalid_class_rejected(self):
        params = init_model_params(TINY_ENCODER, SplitMix64(9), masked=True)
        image = random_tensor((3, 32, 32), seed=10, low=0.0, high=1.0)
        with pytest.raises(ValueError):
            grad_cam(params, image, target_class=3)


class TestMaskReport:
    def test_fresh_mask_statistics(self):
        params = init_model_params(TINY_ENCODER, SplitMix64(11), masked=True)
        text = mask_report(params)
        lines = text.strip().splitlines()
        assert lines[0] == "stat,row,col,value"
        cells = [l for l in lines if l.startswith("cell,")]
        assert len(cells) == 64
        mean = float([l for l in lines if l.startswith("mean,")][0].split(",")[-1])
        assert mean == pytest.approx(0.9, abs=1e-6)
        suppressed = int([l for l in lines if l.startswith("suppressed_count,")][0].split(",")[-1])
        assert suppressed == 0

    def test_fully_suppressed_mask(self):
        params = init_model_params(TINY_ENCODER, SplitMix64(12), masked=True)
        params.mask.data[...] = -40.0
        text = mask_report(params)
        suppressed = int(text.strip().splitlines()[-1].split(",")[-1])
        assert suppressed == 64

    def test_baseline_rejected(self):
        params = init_model_params(TINY_ENCODER, SplitMix64(13), masked=False)
        with pytest.raises(ConfigError, match="no mask"):
            mask_report(params)


@pytest.fixture(scope="module")
def checkpoints(tiny_dataset, tmp_path_factory):
    _, manifest, root = tiny_dataset
    out = tmp_path_factory.mktemp("ckpts")
    paths = []
    for variant in ("masked", "baseline"):
        params, _ = train(
            tiny_train_config(variant=variant, lam=0.1 if variant == "masked" else 0.0),
            manifest,
            root,
            TINY_ENCODER,
        )
        path = out / f"{variant}.ckpt"
        save_checkpoint(params, path)
        paths.append(str(path))
    return paths


class TestSweeps:
    def test_robustness_row_count_and_order(self, checkpoints, tiny_dataset):
        _, manifest, root = tiny_dataset
        rows = robustness_sweep(checkpoints, "gaussian", [0, 5, 10], manifest, root, n_seeds=2)
        assert len(rows) == 2 * 3 * 2
        assert [r[0] for r in rows[:6]] == ["masked"] * 6
        assert [r[3] for r in rows[:6]] == [0, 0, 5, 5, 10, 10]

    def test_checkpoints_sharing_a_basename_keep_their_own_rows(self, tiny_dataset, tmp_path):
        # the benchmark's trained checkpoints: the tiny ones both score chance
        # on this split, so swapped rows would go unseen
        _, manifest, root = tiny_dataset
        paths = []
        for directory, source in (("a", "masked.ckpt"), ("b", "baseline.ckpt")):
            (tmp_path / directory).mkdir()
            paths.append(str(shutil.copy(BENCH_CHECKPOINTS / source, tmp_path / directory / "model.ckpt")))

        def sweep(paths):
            return robustness_sweep(paths, "gaussian", [0, 5, 10], manifest, root, n_seeds=2)

        alone = [sweep([path]) for path in paths]
        assert [r[5] for r in alone[0]] != [r[5] for r in alone[1]]  # the models tell apart
        assert sweep(paths) == alone[0] + alone[1]

    def test_level_zero_equals_clean_accuracy(self, checkpoints, tiny_dataset):
        _, manifest, root = tiny_dataset
        rows = robustness_sweep(checkpoints, "gaussian", [0, 5], manifest, root, n_seeds=2)
        from scenemask import load_checkpoint

        clean, _ = evaluate(load_checkpoint(checkpoints[0]), manifest, "test", root)
        level0 = [r[5] for r in rows if r[0] == "masked" and r[3] == 0]
        assert level0 == [clean, clean]

    def test_unknown_kind_rejected(self, checkpoints, tiny_dataset):
        _, manifest, root = tiny_dataset
        with pytest.raises(ConfigError):
            robustness_sweep(checkpoints, "speckle", [0], manifest, root)

    def test_sensitivity_rows_and_lam_zero_bitwise(self, tiny_dataset):
        _, manifest, root = tiny_dataset
        template = tiny_train_config(max_epochs=2)
        rows = sensitivity_sweep(
            [1e-3], [0.0, 0.1], manifest, root, template=template, n_seeds=2, encoder=TINY_ENCODER
        )
        assert len(rows) == 1 * 2 * 2
        # the lam=0 column reproduces a plain no-regularizer run bitwise
        params, _ = train(
            tiny_train_config(max_epochs=2, lam=0.0, seed=0), manifest, root, TINY_ENCODER
        )
        direct, _ = evaluate(params, manifest, "test", root)
        assert rows[0] == [1e-3, 0.0, 0, direct]

    def test_empty_grid_rejected(self, tiny_dataset):
        _, manifest, root = tiny_dataset
        with pytest.raises(ConfigError):
            sensitivity_sweep([], [0.1], manifest, root)

    @pytest.mark.parametrize("levels, n_seeds", [([], 1), ([0], 0), ([0], -2)])
    def test_empty_robustness_sweep_rejected(self, checkpoints, tiny_dataset, levels, n_seeds):
        _, manifest, root = tiny_dataset
        with pytest.raises(ConfigError):
            robustness_sweep(checkpoints, "gaussian", levels, manifest, root, n_seeds=n_seeds)

    def test_sensitivity_seed_count_below_one_rejected(self, tiny_dataset):
        _, manifest, root = tiny_dataset
        with pytest.raises(ConfigError):
            sensitivity_sweep([1e-3], [0.1], manifest, root, n_seeds=0)


class TestAggregateReport:
    def test_all_equal(self):
        report = aggregate_report([0.9] * 5)
        assert report.mean == 0.9
        assert report.std == 0.0
        assert report.min == 0.9

    def test_one_hot(self):
        report = aggregate_report([1.0, 0.0, 0.0, 0.0, 0.0])
        assert report.mean == pytest.approx(0.2)
        assert report.std == pytest.approx(0.4)
        assert report.min == 0.0

    def test_population_std_and_min_recomputable(self):
        accs = [0.91, 0.93, 0.9, 0.95, 0.92]
        report = aggregate_report(accs)
        arr = np.array(accs)
        assert abs(report.mean - arr.mean()) <= 1e-15
        assert abs(report.std - arr.std()) <= 1e-15
        assert report.min == arr.min()

    def test_wrong_count_rejected(self):
        with pytest.raises(ValueError):
            aggregate_report([0.9] * 4)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            aggregate_report([0.9, 0.9, 0.9, 0.9, 1.1])

    def test_rejection_is_declared_error(self):
        with pytest.raises(ConfigError):
            aggregate_report([0.9] * 4)

    def test_format_mirrors_result_table_row(self):
        report = RunReport(mean=0.9, std=7.5e-4, min=0.9)
        assert format_report(report) == "0.900 ± 7.5e-4 | 0.900"

    def test_format_zero_std(self):
        assert format_report(aggregate_report([0.9] * 5)) == "0.900 ± 0 | 0.900"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("cliws")
    code = cli(
        [
            "gen-data",
            "--out",
            str(ws / "data"),
            "--n-classes",
            "3",
            "--images-per-class",
            "10",
            "--seed",
            "3",
        ]
    )
    assert code == 0
    return ws


@pytest.fixture(scope="module")
def trained(workspace):
    code = cli(
        [
            "train",
            "--manifest",
            str(workspace / "data" / "manifest.csv"),
            "--variant",
            "masked",
            "--max-epochs",
            "3",
            "--seed",
            "0",
            "--checkpoint-out",
            str(workspace / "m.ckpt"),
            "--record-out",
            str(workspace / "record.csv"),
        ]
    )
    assert code == 0
    return workspace / "m.ckpt"


# what each subcommand requires; parsing fails before any of these paths is opened
_REQUIRED = {
    "gen-data": ["--out", "d"],
    "train": ["--manifest", "m.csv", "--checkpoint-out", "m.ckpt"],
    "eval": ["--checkpoint", "m.ckpt", "--manifest", "m.csv"],
    "robustness": ["--checkpoints", "m.ckpt", "--kind", "gaussian", "--levels", "0"]
    + ["--manifest", "m.csv", "--out", "o.csv"],
    "sweep": ["--manifest", "m.csv", "--out", "o.csv"],
    "explain": ["--checkpoint", "m.ckpt", "--image", "i.ppm", "--class", "0", "--out", "h.pgm"],
    "mask-report": ["--checkpoint", "m.ckpt", "--out", "r.csv"],
}
# flags every subcommand once accepted, and the subcommands that read them
_READ_BY = {
    "--seed": {"gen-data", "train", "robustness"},
    "--lambda": {"train"},
    "--lr": {"train"},
    "--noise-as-stddev": set(),
    # scene geometry is fixed: SceneSpec's class constants
    "--image-size": set(),
    "--cue-size": set(),
    "--clutter": set(),
    "--occlusion-prob": set(),
}
_READ = [(cmd, flag) for flag, readers in _READ_BY.items() for cmd in _REQUIRED if cmd in readers]
_UNREAD = [(cmd, flag) for flag, readers in _READ_BY.items() for cmd in _REQUIRED if cmd not in readers]


class TestCli:
    def test_gen_data_wrote_files(self, workspace):
        assert os.path.exists(workspace / "data" / "manifest.csv")
        assert os.path.exists(workspace / "data" / "img_c0_0000.ppm")

    def test_train_wrote_record(self, workspace, trained):
        lines = (workspace / "record.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,val_acc"
        assert len(lines) == 4

    def test_eval_prints_accuracy(self, workspace, trained, capsys):
        code = cli(
            [
                "eval",
                "--checkpoint",
                str(trained),
                "--manifest",
                str(workspace / "data" / "manifest.csv"),
                "--split",
                "test",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out.strip()
        assert 0.0 <= float(printed) <= 1.0

    def test_explain_writes_pgm_at_input_resolution(self, workspace, trained):
        out = workspace / "heat.pgm"
        code = cli(
            [
                "explain",
                "--checkpoint",
                str(trained),
                "--image",
                str(workspace / "data" / "img_c1_0002.ppm"),
                "--class",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        from scenemask.netpbm import read_pixels

        assert read_pixels(out).shape == (32, 32, 3)

    def test_mask_report_csv(self, workspace, trained):
        out = workspace / "mask.csv"
        assert cli(["mask-report", "--checkpoint", str(trained), "--out", str(out)]) == 0
        assert out.read_text().startswith("stat,row,col,value")

    def test_robustness_csv(self, workspace, trained):
        out = workspace / "rob.csv"
        code = cli(
            [
                "robustness",
                "--checkpoints",
                str(trained),
                "--kind",
                "gaussian",
                "--levels",
                "0,5",
                "--manifest",
                str(workspace / "data" / "manifest.csv"),
                "--noise-seeds",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        with open(out) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["model", "variant", "noise_kind", "level", "seed", "accuracy"]
        assert len(rows) == 1 + 1 * 2 * 2

    def test_unknown_subcommand_is_usage_error(self):
        assert cli(["frobnicate"]) == 1

    def test_unknown_flag_is_usage_error(self):
        assert cli(["eval", "--bogus"]) == 1

    def test_missing_checkpoint_is_runtime_error(self, workspace):
        code = cli(
            [
                "eval",
                "--checkpoint",
                str(workspace / "nope.ckpt"),
                "--manifest",
                str(workspace / "data" / "manifest.csv"),
            ]
        )
        assert code == 2

    def test_corrupt_checkpoint_is_runtime_error(self, workspace):
        bad = workspace / "bad.ckpt"
        bad.write_bytes(b"garbage")
        code = cli(
            [
                "eval",
                "--checkpoint",
                str(bad),
                "--manifest",
                str(workspace / "data" / "manifest.csv"),
            ]
        )
        assert code == 2

    def test_oversized_checkpoint_dims_are_runtime_error(self, workspace, capsys):
        import struct

        big = workspace / "big.ckpt"
        name = b"conv0.kernels"
        dims = struct.pack("<5I", 4, 4_000_000_000, 4_000_000_000, 3, 3)
        big.write_bytes(b"MASKHEAD1" + struct.pack("<I", len(name)) + name + dims + b"\x00" * 64)
        manifest = workspace / "data" / "manifest.csv"
        code = cli(["eval", "--checkpoint", str(big), "--manifest", str(manifest)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: truncated tensor data") and "Traceback" not in err

    @pytest.mark.parametrize(
        "name, dims, message",
        [
            (b"conv\xff.kernels", (4, 1, 1, 3, 3), "tensor name is not ASCII"),
            (b"conv0.kernels", (65,) + (1,) * 65, "rank 65 of conv0.kernels exceeds 4"),
            (b"conv0.kernels", (4, 0, 4_000_000_000, 4_000_000_000, 4_000_000_000), "empty dimension"),
        ],
        ids=["non-ascii-name", "rank-65", "zero-and-huge-dims"],
    )
    def test_malformed_checkpoint_record_is_runtime_error(self, workspace, name, dims, message, capsys):
        import struct

        bad = workspace / "record.ckpt"
        record = struct.pack("<I", len(name)) + name + struct.pack(f"<{len(dims)}I", *dims)
        bad.write_bytes(b"MASKHEAD1" + record + b"\x00" * 72)
        manifest = workspace / "data" / "manifest.csv"
        code = cli(["eval", "--checkpoint", str(bad), "--manifest", str(manifest)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and message in err and "Traceback" not in err

    def test_missing_tensor_message_does_not_follow_hash_seed(self, workspace, tmp_path):
        named = init_model_params(TINY_ENCODER, SplitMix64(14), masked=False).named_tensors()
        conv0 = {name: t for name, t in named.items() if name.startswith("conv0.")}
        path = tmp_path / "conv0.ckpt"
        save_checkpoint(SimpleNamespace(named_tensors=lambda: conv0), path)
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__code__.co_filename)))
        argv = ["eval", "--checkpoint", str(path), "--manifest", str(workspace / "data" / "manifest.csv")]
        for hash_seed in range(8):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(hash_seed))
            done = subprocess.run(
                [sys.executable, "-m", "scenemask.cli", *argv], env=env, capture_output=True, text=True
            )
            assert (done.returncode, done.stderr) == (2, 'error: missing tensor "head.bias"\n'), hash_seed

    def test_out_of_range_class_is_runtime_error(self, workspace, trained, capsys):
        code = cli(
            [
                "explain",
                "--checkpoint",
                str(trained),
                "--image",
                str(workspace / "data" / "img_c1_0002.ppm"),
                "--class",
                "7",
                "--out",
                str(workspace / "never.pgm"),
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: target class 7") and "Traceback" not in err
        assert not (workspace / "never.pgm").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["robustness", "--checkpoints", "m.ckpt", "--kind", "gaussian", "--levels", "0,abc"],
            ["sweep", "--lrs", "x"],
            ["sweep", "--lambdas", "x"],
            ["sweep", "--lrs", "1e-3,inf"],
        ],
        ids=["levels", "lrs", "lambdas", "non-finite"],
    )
    def test_malformed_number_list_is_usage_error(self, workspace, argv, capsys):
        argv = argv + ["--manifest", str(workspace / "data" / "manifest.csv"), "--out", "x.csv"]
        code = cli(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("usage error: argument --") and "Traceback" not in err

    @pytest.mark.parametrize(
        "row, message",
        [
            ("foo", "expected 3 fields"),
            ("img.ppm,one,test", "label 'one' is not an integer"),
            ("img.ppm,1,holdout", "unknown split 'holdout'"),
            ("img.ppm,-1,test", "label -1 is negative"),
        ],
        ids=["field-count", "label", "split", "negative-label"],
    )
    def test_malformed_manifest_row_is_runtime_error(self, tmp_path, trained, row, message, capsys):
        manifest = tmp_path / "m.csv"
        manifest.write_text(f"path,label,split\nimg_c0_0000.ppm,0,test\n{row}\n")
        code = cli(["eval", "--checkpoint", str(trained), "--manifest", str(manifest)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "line 3" in err and message in err
        assert "Traceback" not in err

    def test_repeated_manifest_path_is_runtime_error(self, tmp_path, trained, capsys):
        manifest = tmp_path / "m.csv"
        manifest.write_text("path,label,split\nimg_c0_0000.ppm,0,test\nimg_c0_0000.ppm,1,test\n")
        code = cli(["eval", "--checkpoint", str(trained), "--manifest", str(manifest)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: duplicate path img_c0_0000.ppm\n"

    def test_label_beyond_row_count_is_runtime_error(self, tmp_path, capsys):
        manifest = tmp_path / "huge.csv"
        manifest.write_text(f"path,label,split\nimg_c0_0000.ppm,{10**15},train\n")
        out = tmp_path / "never.ckpt"
        code = cli(["train", "--manifest", str(manifest), "--checkpoint-out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "huge.csv" in err and "Traceback" not in err
        assert not out.exists()

    def test_non_utf8_manifest_is_runtime_error(self, tmp_path, trained, capsys):
        manifest = tmp_path / "bad.csv"
        manifest.write_bytes(b"path,label,split\nimg_\xff.ppm,0,test\n")
        code = cli(["eval", "--checkpoint", str(trained), "--manifest", str(manifest)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "bad.csv" in err and "Traceback" not in err

    # a rate of 1e300 is finite, but its first step makes the loss overflow
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "flag, value", [("--lr", "nan"), ("--lr", "inf"), ("--lambda", "nan"), ("--lr", "1e300")]
    )
    def test_non_finite_rate_is_runtime_error(self, workspace, flag, value, capsys):
        out = workspace / "never.ckpt"
        manifest = str(workspace / "data" / "manifest.csv")
        code = cli(["train", "--manifest", manifest, "--checkpoint-out", str(out), flag, value])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "finite" in err and "Traceback" not in err
        assert not out.exists()

    def test_single_class_dataset_is_runtime_error(self, tmp_path, capsys):
        code = cli(["gen-data", "--out", str(tmp_path / "data"), "--n-classes", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: need at least 2 classes") and "Traceback" not in err
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("robustness", "--noise-seeds", "0"),
            ("robustness", "--noise-seeds", "-2"),
            ("sweep", "--seeds", "0"),
        ],
    )
    def test_seed_count_below_one_is_usage_error(self, command, flag, value, capsys):
        code = cli([command, *_REQUIRED[command], flag, value])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"usage error: argument {flag}: must be at least 1")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, flag", _UNREAD, ids=[f"{c} {f}" for c, f in _UNREAD])
    def test_unread_flag_is_usage_error(self, command, flag, capsys):
        value = [] if flag == "--noise-as-stddev" else ["5"]
        code = cli([command, *_REQUIRED[command], flag, *value])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"usage error: unrecognized arguments: {flag}") and "Traceback" not in err

    @pytest.mark.parametrize("command, flag", _READ, ids=[f"{c} {f}" for c, f in _READ])
    def test_read_flag_parses(self, command, flag):
        args = _build_parser().parse_args([command, *_REQUIRED[command], flag, "5"])
        assert vars(args)[{"--lambda": "lam", "--lr": "learning_rate"}.get(flag, flag[2:])] == 5

    def test_settings_reach_their_dataclass(self, monkeypatch):
        given = {}

        def capture(name, result):
            def record(*args, **kwargs):
                given[name] = (args, kwargs)
                return result

            monkeypatch.setattr(f"scenemask.cli.{name}", record)

        capture("generate_dataset", SimpleNamespace(rows=[]))
        capture("train", (None, SimpleNamespace(stopping_epoch=1, best_epoch=1, val_acc=[1.0])))
        capture("sensitivity_sweep", [])
        monkeypatch.setattr("scenemask.cli.load_manifest", lambda path: None)
        monkeypatch.setattr("scenemask.cli.save_checkpoint", lambda params, path: None)
        monkeypatch.setattr("scenemask.cli.write_csv", lambda rows, header, path: None)

        def run(command, *flags):
            assert cli([command, *_REQUIRED[command], *flags]) == 0

        run("gen-data")
        assert given["generate_dataset"][0][0] == SceneSpec()
        run("train")
        assert given["train"][0][0] == TrainConfig()
        run("sweep")
        assert given["sensitivity_sweep"][1]["template"] == TrainConfig()

        run("gen-data", "--n-classes", "3", "--images-per-class", "7", "--seed", "9")
        assert given["generate_dataset"][0][0] == SceneSpec(n_classes=3, images_per_class=7, seed=9)
        run(
            "train",
            *["--variant", "baseline", "--lambda", "0.5", "--lr", "0.01", "--seed", "4"],
            *["--batch-size", "8", "--max-epochs", "6", "--patience", "2"],
        )
        assert given["train"][0][0] == TrainConfig(
            learning_rate=0.01, lam=0.5, batch_size=8, max_epochs=6, patience=2, seed=4, variant="baseline"
        )
        run("sweep", "--batch-size", "8", "--max-epochs", "6", "--patience", "2")
        assert given["sensitivity_sweep"][1]["template"] == TrainConfig(
            batch_size=8, max_epochs=6, patience=2
        )

    @pytest.mark.parametrize(
        "error, builtin",
        [
            (errors.ShapeError, ValueError),
            (errors.ConfigError, ValueError),
            (errors.CheckpointError, ValueError),
            (errors.NetpbmError, ValueError),
            (errors.TrainingFailure, RuntimeError),
        ],
    )
    def test_declared_errors_share_one_base(self, error, builtin):
        assert issubclass(error, errors.ScenemaskError) and issubclass(error, builtin)

    def test_help_exits_zero(self):
        assert cli(["--help"]) == 0

    def test_sweep_csv(self, workspace):
        out = workspace / "sweep.csv"
        code = cli(
            [
                "sweep",
                "--manifest",
                str(workspace / "data" / "manifest.csv"),
                "--lrs",
                "1e-3",
                "--lambdas",
                "0,0.1",
                "--seeds",
                "1",
                "--max-epochs",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        with open(out) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["lr", "lambda", "seed", "test_accuracy"]
        assert len(rows) == 1 + 1 * 2 * 1
