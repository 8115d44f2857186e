import hashlib
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenemask import (
    DatasetManifest,
    ManifestRow,
    SceneSpec,
    SplitMix64,
    Tensor,
    add_gaussian_noise,
    add_salt_pepper_noise,
    generate_dataset,
    load_manifest,
    save_manifest,
    split_dataset,
)
from scenemask.data import image_layout, render_image
from scenemask.errors import ConfigError, ScenemaskError, ShapeError
from scenemask.netpbm import (
    NetpbmError,
    nearest_resize,
    quantize,
    read_image,
    read_pixels,
    write_pgm,
    write_ppm,
)

from conftest import corrupted_bytes

_VALID_PPM = b"P6\n# a comment\n3 2\n255\n" + bytes(range(0, 18 * 14, 14))


class TestSplit:
    def test_1000_items(self):
        items = [(f"p{i}", 0) for i in range(1000)]
        tagged = split_dataset(items, seed=1)
        counts = Counter(t for _, _, t in tagged)
        assert counts == {"train": 600, "val": 200, "test": 200}

    def test_10_items(self):
        tagged = split_dataset([(f"p{i}", 0) for i in range(10)], seed=2)
        counts = Counter(t for _, _, t in tagged)
        assert counts == {"train": 6, "val": 2, "test": 2}

    def test_7_items_largest_remainder(self):
        # 4.2 / 1.4 / 1.4 -> base 4/1/1, leftover to val on the val-test tie
        tagged = split_dataset([(f"p{i}", 0) for i in range(7)], seed=3)
        counts = Counter(t for _, _, t in tagged)
        assert counts == {"train": 4, "val": 2, "test": 1}

    def test_per_class_partition(self):
        items = [(f"p{i}", i % 3) for i in range(30)]
        tagged = split_dataset(items, seed=4)
        for label in range(3):
            counts = Counter(t for _, lbl, t in tagged if lbl == label)
            assert counts == {"train": 6, "val": 2, "test": 2}

    def test_deterministic(self):
        items = [(f"p{i}", i % 2) for i in range(21)]
        assert split_dataset(items, seed=5) == split_dataset(items, seed=5)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            split_dataset([], seed=0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=300), st.integers(min_value=0, max_value=2**31))
    def test_sizes_sum_and_stay_close_to_fractions(self, n, seed):
        tagged = split_dataset([(f"p{i}", 0) for i in range(n)], seed=seed)
        counts = Counter(t for _, _, t in tagged)
        assert sum(counts.values()) == n
        for name, frac in (("train", 0.6), ("val", 0.2), ("test", 0.2)):
            assert abs(counts.get(name, 0) - frac * n) < 1.0


class TestGenerate:
    def test_default_spec_counts(self, tmp_path):
        spec = SceneSpec(images_per_class=25, seed=9)
        manifest = generate_dataset(spec, tmp_path)
        assert len(manifest.rows) == 100
        counts = Counter(r.split for r in manifest.rows)
        assert counts == {"train": 60, "val": 20, "test": 20}
        assert os.path.exists(tmp_path / manifest.rows[0].path)

    def test_same_seed_is_bitwise_identical(self, tmp_path):
        spec = SceneSpec(n_classes=2, images_per_class=6, seed=11)
        generate_dataset(spec, tmp_path / "a")
        generate_dataset(spec, tmp_path / "b")
        for name in sorted(os.listdir(tmp_path / "a")):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name

    def test_seed0_dataset_digest_is_pinned(self, tmp_path):
        # SHA-256 of every PPM's bytes in manifest order, then manifest.csv, for
        # the default spec at seed 0; taken before render_image cached its patches
        manifest = generate_dataset(SceneSpec(seed=0), tmp_path)
        digest = hashlib.sha256()
        for row in manifest.rows:
            digest.update((tmp_path / row.path).read_bytes())
        digest.update((tmp_path / "manifest.csv").read_bytes())
        assert digest.hexdigest() == "b1dcccbcd75e474f1c990e0916c95679d1709b79d30a5553d8042dbd476251c6"

    def test_cue_centers_distinguish_classes(self):
        spec = SceneSpec(n_classes=2, images_per_class=40, seed=13)
        centers = {0: set(), 1: set()}
        half = spec.cue_size // 2
        for label in (0, 1):
            for index in range(spec.images_per_class):
                pixels, layout = render_image(spec, label, index)
                px = pixels[layout.cue_row + half, layout.cue_col + half]
                centers[label].add(tuple(int(v) for v in px))
        assert centers[0].isdisjoint(centers[1])

    def test_layout_replay_matches_render(self):
        spec = SceneSpec(seed=17)
        _, layout_full = render_image(spec, 2, 7)
        layout_only = image_layout(spec, 2, 7)
        assert layout_only == layout_full

    def test_cue_patch_inside_image(self):
        spec = SceneSpec(seed=19)
        h, w, _ = spec.image_size
        for label in range(spec.n_classes):
            for index in range(10):
                layout = image_layout(spec, label, index)
                assert 0 <= layout.cue_row <= h - spec.cue_size
                assert 0 <= layout.cue_col <= w - spec.cue_size

    def test_manifest_round_trip(self, tmp_path):
        spec = SceneSpec(n_classes=2, images_per_class=5, seed=21)
        manifest = generate_dataset(spec, tmp_path)
        loaded = load_manifest(tmp_path / "manifest.csv")
        assert [(r.path, r.label, r.split) for r in loaded.rows] == [
            (r.path, r.label, r.split) for r in manifest.rows
        ]

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_corrupted_manifest_returns_or_raises_declared_error(self, fuzz_path, data):
        splits = ("train", "val", "test")
        rows = [ManifestRow(f"img_c{i % 2}_{i:04d}.ppm", i % 2, splits[i % 3]) for i in range(6)]
        save_manifest(DatasetManifest(rows), fuzz_path)
        fuzz_path.write_bytes(data.draw(corrupted_bytes(fuzz_path.read_bytes())))
        try:
            load_manifest(fuzz_path)
        except ScenemaskError:
            pass

    def test_nearest_centroid_on_cue_region_is_perfect(self, tmp_path):
        # the task is solvable from the cue region alone: a brute-force
        # nearest-centroid classifier over cue pixels scores 100%
        spec = SceneSpec(images_per_class=30, seed=23)
        generate_dataset(spec, tmp_path)
        cs = spec.cue_size
        regions, labels = [], []
        for label in range(spec.n_classes):
            for index in range(spec.images_per_class):
                px = read_pixels(tmp_path / f"img_c{label}_{index:04d}.ppm")
                lay = image_layout(spec, label, index)
                region = px[lay.cue_row : lay.cue_row + cs, lay.cue_col : lay.cue_col + cs]
                regions.append(region.astype(np.float64).reshape(-1))
                labels.append(label)
        regions = np.stack(regions)
        labels = np.array(labels)
        centroids = np.stack([regions[labels == c].mean(axis=0) for c in range(spec.n_classes)])
        distances = ((regions[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(np.argmin(distances, axis=1), labels)


class TestGaussianNoise:
    def test_level_zero_identity(self):
        img = (SplitMix64(1).uniforms(32 * 32 * 3).reshape(32, 32, 3) * 255).astype(np.uint8)
        out = add_gaussian_noise(img, 0, seed=3)
        assert np.array_equal(out, img)
        assert out is not img

    def test_statistics_at_level_25(self):
        img = np.full((64, 64, 3), 128, dtype=np.uint8)
        out = add_gaussian_noise(img, 25, seed=5)
        delta = out.astype(np.float64) - 128.0
        assert delta.size >= 10_000
        assert abs(delta.mean()) <= 0.5
        assert abs(delta.var() - 25.0) <= 0.2 * 25.0

    def test_clamping_at_white(self):
        img = np.full((16, 16, 3), 255, dtype=np.uint8)
        out = add_gaussian_noise(img, 25, seed=7)
        assert out.max() <= 255
        assert out.dtype == np.uint8

    def test_negative_level_rejected(self):
        with pytest.raises(ConfigError):
            add_gaussian_noise(np.zeros((4, 4, 3), np.uint8), -1, seed=0)

    def test_seed_determines_output(self):
        img = np.full((8, 8, 3), 100, dtype=np.uint8)
        assert np.array_equal(add_gaussian_noise(img, 10, 9), add_gaussian_noise(img, 10, 9))
        assert not np.array_equal(add_gaussian_noise(img, 10, 9), add_gaussian_noise(img, 10, 10))


class TestSaltPepperNoise:
    def test_ratio_zero_identity(self):
        img = (SplitMix64(2).uniforms(16 * 16 * 3).reshape(16, 16, 3) * 255).astype(np.uint8)
        assert np.array_equal(add_salt_pepper_noise(img, 0.0, seed=1), img)

    def test_exact_corruption_count_at_half_percent(self):
        img = np.full((224, 224, 3), 128, dtype=np.uint8)
        out = add_salt_pepper_noise(img, 0.005, seed=3)
        changed = np.any(out != img, axis=2)
        assert changed.sum() == 251  # round(0.005 * 50176)

    def test_corrupted_pixels_are_black_or_white_on_all_channels(self):
        img = np.full((32, 32, 3), 128, dtype=np.uint8)
        out = add_salt_pepper_noise(img, 0.01, seed=5)
        changed = np.any(out != img, axis=2)
        values = out[changed]
        assert values.size > 0
        assert set(np.unique(values)) <= {0, 255}
        assert np.all((values == values[:, :1]).all(axis=1))

    def test_positions_are_distinct(self):
        img = np.full((20, 20, 3), 128, dtype=np.uint8)
        out = add_salt_pepper_noise(img, 0.5, seed=7)
        changed = np.any(out != img, axis=2)
        # 128 is neither polarity, so every selected pixel shows as changed
        assert changed.sum() == round(0.5 * 400)

    def test_ratio_above_one_rejected(self):
        with pytest.raises(ConfigError):
            add_salt_pepper_noise(np.zeros((4, 4, 3), np.uint8), 1.5, seed=0)

    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=0.2),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_count_formula_property(self, ratio, seed):
        img = np.full((24, 24, 3), 90, dtype=np.uint8)
        out = add_salt_pepper_noise(img, ratio, seed)
        changed = np.any(out != img, axis=2)
        assert changed.sum() == int(np.floor(ratio * 24 * 24 + 0.5))


class TestNetpbm:
    def test_ppm_round_trip_exact(self, tmp_path):
        img = (SplitMix64(3).uniforms(10 * 7 * 3).reshape(7, 10, 3) * 255).astype(np.uint8)
        path = tmp_path / "x.ppm"
        write_ppm(img, path)
        assert np.array_equal(read_pixels(path), img)

    @pytest.mark.parametrize(
        "pixels", [np.zeros((2, 2, 3)), np.zeros((2, 2, 4), np.uint8)], ids=["float64", "4-channel"]
    )
    def test_write_ppm_rejects_non_rgb8(self, tmp_path, pixels):
        with pytest.raises(ShapeError):
            write_ppm(pixels, tmp_path / "bad.ppm")
        assert not (tmp_path / "bad.ppm").exists()

    @pytest.mark.parametrize("gray", [np.zeros((2, 2)), np.zeros((2, 2, 3), np.uint8)])
    def test_write_pgm_rejects_non_gray8(self, tmp_path, gray):
        with pytest.raises(ShapeError):
            write_pgm(gray, tmp_path / "bad.pgm")

    def test_write_ppm_checks_survive_optimized_mode(self, tmp_path):
        src = os.path.dirname(os.path.dirname(os.path.abspath(write_ppm.__code__.co_filename)))
        code = (
            "import sys, numpy as np\n"
            "from scenemask.errors import ShapeError\n"
            "from scenemask.netpbm import write_ppm\n"
            "try:\n"
            "    write_ppm(np.zeros((2, 2, 3)), sys.argv[1])\n"
            "except ShapeError:\n"
            "    sys.exit(0)\n"
            "sys.exit(3)\n"
        )
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-O", "-c", code, str(tmp_path / "o.ppm")], env=env)
        assert done.returncode == 0

    def test_read_image_scales_to_unit(self, tmp_path):
        img = np.arange(4 * 4 * 3, dtype=np.uint8).reshape(4, 4, 3)
        path = tmp_path / "y.ppm"
        write_ppm(img, path)
        tensor = read_image(path)
        assert tensor.shape == (3, 4, 4)
        assert np.array_equal(tensor.data, img.transpose(2, 0, 1) / 255.0)

    def test_quantize_round_trip(self, tmp_path):
        img = np.arange(4 * 4 * 3, dtype=np.uint8).reshape(4, 4, 3)
        path = tmp_path / "z.ppm"
        write_ppm(img, path)
        assert np.array_equal(quantize(read_image(path).data).transpose(1, 2, 0), img)

    def test_pgm_replicates_channels(self, tmp_path):
        gray = np.arange(12, dtype=np.uint8).reshape(3, 4)
        path = tmp_path / "g.pgm"
        write_pgm(gray, path)
        px = read_pixels(path)
        assert px.shape == (3, 4, 3)
        assert np.array_equal(px[:, :, 0], gray)
        assert np.array_equal(px[:, :, 1], gray)

    def test_p3_rejected(self, tmp_path):
        path = tmp_path / "p3.ppm"
        path.write_bytes(b"P3\n2 2\n255\n0 0 0 0 0 0 0 0 0 0 0 0\n")
        with pytest.raises(NetpbmError, match="unsupported format P3"):
            read_pixels(path)

    def test_truncated_payload_reports_offset(self, tmp_path):
        path = tmp_path / "trunc.ppm"
        path.write_bytes(b"P6\n4 4\n255\n" + b"\x00" * 10)
        with pytest.raises(NetpbmError, match="byte"):
            read_pixels(path)

    @pytest.mark.parametrize("header", [b"P6\n0 2\n255\n", b"P6\n2 0\n255\n"], ids=["width", "height"])
    def test_zero_dimension_rejected(self, tmp_path, header):
        path = tmp_path / "empty.ppm"
        path.write_bytes(header + b"\x00" * 12)
        with pytest.raises(NetpbmError, match="bad dimensions"):
            read_pixels(path)

    def test_bad_maxval(self, tmp_path):
        path = tmp_path / "max.ppm"
        path.write_bytes(b"P6\n2 2\n65535\n" + b"\x00" * 24)
        with pytest.raises(NetpbmError, match="maxval"):
            read_pixels(path)

    def test_header_comments_allowed(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6 # comment\n# another\n2 1\n255\n" + bytes(6))
        assert read_pixels(path).shape == (1, 2, 3)

    def test_nearest_resize(self):
        img = np.arange(4 * 4 * 3, dtype=np.uint8).reshape(4, 4, 3)
        up = nearest_resize(img, (8, 8))
        assert up.shape == (8, 8, 3)
        assert np.array_equal(up[::2, ::2], img)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(data=corrupted_bytes(_VALID_PPM))
    def test_corrupted_file_returns_or_raises_declared_error(self, fuzz_path, data):
        fuzz_path.write_bytes(data)
        try:
            read_pixels(fuzz_path)
        except ScenemaskError:
            pass
