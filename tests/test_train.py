import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenemask import (
    AdamState,
    DatasetManifest,
    EncoderConfig,
    ManifestRow,
    SplitMix64,
    TrainConfig,
    adam_step,
    evaluate,
    init_model_params,
    load_checkpoint,
    save_checkpoint,
    train,
    write_train_record,
)
from scenemask.errors import CheckpointError, ConfigError, ScenemaskError, ShapeError
from scenemask.model import predict
from scenemask.netpbm import image_tensor, write_ppm
from scenemask.tensor import Tensor, backward
from scenemask.train import _batch_objective, evaluate_pixels

from conftest import corrupted_bytes

TINY_ENCODER = EncoderConfig(input_size=(32, 32, 3), block_channels=(4, 8), n_classes=3)


def tiny_config(**overrides):
    base = dict(
        learning_rate=1e-3,
        lam=0.1,
        batch_size=16,
        max_epochs=4,
        patience=10,
        seed=0,
        variant="masked",
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestTrainConfig:
    @pytest.mark.parametrize(
        "field, value",
        [("learning_rate", 0.0), ("learning_rate", math.nan), ("learning_rate", math.inf)]
        + [("lam", -0.1), ("lam", math.nan), ("lam", math.inf)],
    )
    def test_rate_and_lam_out_of_range_rejected(self, field, value):
        with pytest.raises(ConfigError):
            tiny_config(**{field: value})


class TestAdam:
    def test_first_step_magnitude(self):
        params = init_model_params(TINY_ENCODER, SplitMix64(0), masked=False)
        params.head_bias.data[...] = 1.0
        state = AdamState.for_params(params)
        params.head_bias.grad[...] = 1.0
        adam_step(params, state, 1e-3)
        assert params.head_bias.data == pytest.approx(0.999, abs=1e-6)
        assert state.t == 1

    def test_zero_gradient_leaves_parameters(self):
        params = init_model_params(TINY_ENCODER, SplitMix64(1), masked=True)
        before = params.snapshot()
        adam_step(params, AdamState.for_params(params), 1e-3)
        for name, tensor in params.named_tensors().items():
            assert np.array_equal(tensor.data, before[name])

    def test_zero_learning_rate_is_bitwise_noop(self):
        params = init_model_params(TINY_ENCODER, SplitMix64(2), masked=True)
        before = params.snapshot()
        for i, t in enumerate(params.named_tensors().values()):
            t.grad = SplitMix64(10 + i).uniforms(t.data.size).reshape(t.data.shape) - 0.5
        adam_step(params, AdamState.for_params(params), 0.0)
        for name, tensor in params.named_tensors().items():
            assert np.array_equal(tensor.data, before[name])

    def test_ten_steps_match_scalar_recursion(self):
        # independent oracle: the scalar Adam recursion written out by hand
        beta1, beta2, eps, lr, g = 0.9, 0.999, 1e-8, 0.05, 2.0
        theta, m, v = 1.0, 0.0, 0.0
        expected = []
        for t in range(1, 11):
            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * g * g
            mhat = m / (1 - beta1**t)
            vhat = v / (1 - beta2**t)
            theta = theta - lr * mhat / (math.sqrt(vhat) + eps)
            expected.append(theta)

        params = init_model_params(TINY_ENCODER, SplitMix64(3), masked=False)
        params.head_bias.data[...] = 1.0
        state = AdamState.for_params(params)
        observed = []
        for _ in range(10):
            params.head_bias.grad[...] = g
            adam_step(params, state, lr)
            observed.append(float(params.head_bias.data[0]))
        assert observed == pytest.approx(expected, abs=1e-12)


class TestTrainLoop:
    def test_seeded_run_is_bitwise_reproducible(self, tiny_dataset):
        _, manifest, root = tiny_dataset
        a_params, a_rec = train(tiny_config(), manifest, root, TINY_ENCODER)
        b_params, b_rec = train(tiny_config(), manifest, root, TINY_ENCODER)
        for name, tensor in a_params.named_tensors().items():
            assert np.array_equal(tensor.data, b_params.named_tensors()[name].data)
        assert a_rec.train_loss == b_rec.train_loss
        assert a_rec.val_loss == b_rec.val_loss
        assert a_rec.val_acc == b_rec.val_acc

    def test_lam_zero_total_equals_prediction_loss(self, tiny_dataset):
        from scenemask.masking import mask_from_logits, total_loss
        from scenemask.model import encode
        from scenemask.masking import apply_mask
        from scenemask.tensor import Tensor, gap, linear, softmax_cross_entropy

        _, manifest, root = tiny_dataset
        params, _ = train(tiny_config(lam=0.0, max_epochs=2), manifest, root, TINY_ENCODER)
        image = Tensor(np.zeros((3, 32, 32)) + 0.25)
        mask_t = mask_from_logits(params.mask)
        gated = apply_mask(encode(params, image), mask_t)
        pre = softmax_cross_entropy(linear(gap(gated), params.head_weights, params.head_bias), 0)
        breakdown = total_loss(pre, mask_t, 0.0)
        assert breakdown.total.item() == pre.item()

    def test_mask_moves_even_without_regularizer(self, tiny_dataset):
        _, manifest, root = tiny_dataset
        params, _ = train(tiny_config(lam=0.0, max_epochs=2), manifest, root, TINY_ENCODER)
        from scenemask.masking import MASK_INIT_LOGIT

        assert not np.allclose(params.mask.data, MASK_INIT_LOGIT)

    def test_early_stopping_contract(self, tiny_dataset):
        _, manifest, root = tiny_dataset
        config = tiny_config(max_epochs=60, patience=3, variant="baseline", lam=0.0)
        params, record = train(config, manifest, root, TINY_ENCODER)
        assert record.stopping_epoch <= config.max_epochs
        if record.stopping_epoch < config.max_epochs:
            # stopped early: the best epoch precedes exactly `patience`
            # consecutive non-improving epochs
            losses = record.val_loss
            best = min(range(len(losses)), key=lambda i: (losses[i], i))
            assert record.stopping_epoch - (best + 1) == config.patience
            assert all(losses[i] >= losses[best] for i in range(best + 1, len(losses)))

    def test_returns_best_epoch_parameters(self, tiny_dataset):
        _, manifest, root = tiny_dataset
        config = tiny_config(max_epochs=6, patience=10)
        params, record = train(config, manifest, root, TINY_ENCODER)
        assert record.best_epoch == int(np.argmin(record.val_loss)) + 1

    def test_train_record_csv(self, tiny_dataset, tmp_path):
        _, manifest, root = tiny_dataset
        _, record = train(tiny_config(max_epochs=3), manifest, root, TINY_ENCODER)
        out = tmp_path / "record.csv"
        write_train_record(record, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,val_acc"
        assert len(lines) == record.stopping_epoch + 1
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == record.train_loss[0]


class TestBatchObjective:
    @pytest.mark.parametrize("variant", ["masked", "baseline"])
    def test_gradient_is_mean_of_per_sample_gradients(self, variant):
        params = init_model_params(TINY_ENCODER, SplitMix64(20), masked=variant == "masked")
        images = SplitMix64(21).uniforms(3 * 4 * 32 * 32).reshape(3, 4, 32, 32)
        labels = np.array([0, 2, 1, 2])
        named = params.named_tensors()

        objective = _batch_objective(params, Tensor(images), labels, 0.1)
        backward(objective)
        batch = {n: t.grad.copy() for n, t in named.items()}
        mean = {n: np.zeros_like(t.data) for n, t in named.items()}
        values = []
        for i in range(4):
            single = _batch_objective(params, Tensor(images[:, i]), int(labels[i]), 0.1)
            backward(single)
            values.append(single.item())
            for n, t in named.items():
                mean[n] += t.grad / 4
        assert objective.item() == pytest.approx(np.mean(values), rel=1e-12)
        for n in named:
            assert np.max(np.abs(batch[n] - mean[n])) <= 1e-12 * np.max(np.abs(mean[n])), n


class TestEvaluate:
    def test_counting(self):
        # fabricate a model that predicts a fixed class via head bias
        params = init_model_params(TINY_ENCODER, SplitMix64(4), masked=False)
        for k in params.kernels:
            k.data[...] = 0.0
        params.head_weights.data[...] = 0.0
        params.head_bias.data[...] = [1.0, 0.0, 0.0]
        pixels = np.zeros((3, 32, 32, 3), dtype=np.uint8)
        accuracy, confusion = evaluate_pixels(params, pixels, np.array([0, 1, 0]))
        assert accuracy == pytest.approx(2 / 3)
        assert confusion[0, 0] == 2 and confusion[1, 0] == 1

    def test_constant_predictor_on_balanced_two_class(self):
        config = EncoderConfig(input_size=(32, 32, 3), block_channels=(4, 8), n_classes=2)
        params = init_model_params(config, SplitMix64(5), masked=False)
        params.head_weights.data[...] = 0.0
        params.head_bias.data[...] = [1.0, 0.0]
        pixels = np.zeros((8, 32, 32, 3), dtype=np.uint8)
        accuracy, _ = evaluate_pixels(params, pixels, np.array([0, 1] * 4))
        assert accuracy == 0.5

    def test_argmax_ties_break_low(self):
        params = init_model_params(TINY_ENCODER, SplitMix64(6), masked=False)
        params.head_weights.data[...] = 0.0
        params.head_bias.data[...] = 0.0  # all logits equal
        pixels = np.zeros((1, 32, 32, 3), dtype=np.uint8)
        accuracy, confusion = evaluate_pixels(params, pixels, np.array([1]))
        assert confusion[1, 0] == 1

    def test_confusion_equals_per_image_argmax_counts(self, tiny_dataset):
        from scenemask.data import load_split_pixels

        _, manifest, root = tiny_dataset
        params = init_model_params(TINY_ENCODER, SplitMix64(13), masked=True)
        pixels, labels = load_split_pixels(manifest, root, "train")
        pixels, labels = np.concatenate([pixels] * 3), np.tile(labels, 3)  # more than one chunk
        expected = np.zeros((3, 3), dtype=np.int64)
        for px, label in zip(pixels, labels):
            expected[label, int(np.argmax(predict(params, image_tensor(px)).data))] += 1
        accuracy, confusion = evaluate_pixels(params, pixels, labels)
        assert np.array_equal(confusion, expected)
        assert accuracy == np.trace(expected) / len(labels)

    def test_label_outside_model_classes_rejected(self):
        params = init_model_params(TINY_ENCODER, SplitMix64(14), masked=False)
        pixels = np.zeros((2, 32, 32, 3), dtype=np.uint8)
        with pytest.raises(ConfigError):
            evaluate_pixels(params, pixels, np.array([0, 3]))

    def test_mixed_image_sizes_rejected(self, tmp_path):
        # a split is one (n, h, w, 3) array, so sizes are checked when it is loaded
        params = init_model_params(TINY_ENCODER, SplitMix64(15), masked=False)
        rows = []
        for s in (32, 16):
            write_ppm(np.zeros((s, s, 3), dtype=np.uint8), tmp_path / f"{s}.ppm")
            rows.append(ManifestRow(f"{s}.ppm", 0, "test"))
        with pytest.raises(ShapeError, match="mixes image sizes"):
            evaluate(params, DatasetManifest(rows), "test", tmp_path)

    def test_empty_split_rejected(self, tiny_dataset):
        _, manifest, root = tiny_dataset
        params = init_model_params(TINY_ENCODER, SplitMix64(7), masked=False)
        with pytest.raises(ConfigError):
            evaluate(params, manifest, "nosuchsplit", root)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        params = init_model_params(TINY_ENCODER, SplitMix64(8), masked=True)
        params.mask.data[...] = SplitMix64(9).uniforms(64).reshape(8, 8) * 4 - 2
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        for name, tensor in params.named_tensors().items():
            assert np.array_equal(tensor.data, loaded.named_tensors()[name].data)
        assert loaded.variant == "masked"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTMAGIC1" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="bad magic"):
            load_checkpoint(path)

    def test_truncated_tensor(self, tmp_path):
        params = init_model_params(TINY_ENCODER, SplitMix64(11), masked=False)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_wire_format_byte_layout(self, tmp_path):
        # parse the file with nothing but struct to pin the external format
        import struct

        config = EncoderConfig(input_size=(16, 16, 3), block_channels=(2,), n_classes=2)
        params = init_model_params(config, SplitMix64(12), masked=True)
        path = tmp_path / "wire.ckpt"
        save_checkpoint(params, path)
        buf = path.read_bytes()
        assert buf[:9] == b"MASKHEAD1"
        pos = 9
        seen = {}
        while pos < len(buf):
            (name_len,) = struct.unpack_from("<I", buf, pos)
            pos += 4
            name = buf[pos : pos + name_len].decode("ascii")
            pos += name_len
            (rank,) = struct.unpack_from("<I", buf, pos)
            pos += 4
            dims = struct.unpack_from(f"<{rank}I", buf, pos)
            pos += 4 * rank
            count = int(np.prod(dims))
            values = np.frombuffer(buf, dtype="<f8", count=count, offset=pos)
            pos += 8 * count
            seen[name] = (dims, values)
        assert pos == len(buf)
        assert set(seen) == {
            "conv0.kernels",
            "conv0.bias",
            "head.weights",
            "head.bias",
            "mask.logits",
        }
        assert seen["conv0.kernels"][0] == (2, 3, 3, 3)
        assert seen["mask.logits"][0] == (8, 8)
        assert np.array_equal(
            seen["head.weights"][1], params.head_weights.data.reshape(-1)
        )

    def test_unknown_tensor_name(self, tmp_path):
        import struct

        path = tmp_path / "weird.ckpt"
        name = b"conv0.kernels"
        rec = struct.pack("<I", len(name)) + name
        rec += struct.pack("<5I", 4, 1, 1, 3, 3) + b"\x00" * (9 * 8)
        bogus = b"foo.bar"
        rec2 = struct.pack("<I", len(bogus)) + bogus + struct.pack("<2I", 1, 2) + b"\x00" * 16
        path.write_bytes(b"MASKHEAD1" + rec + rec2)
        with pytest.raises(CheckpointError, match="foo.bar"):
            load_checkpoint(path)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_corrupted_file_returns_or_raises_declared_error(self, fuzz_path, data):
        # a small model, so record headers are a large share of the bytes
        config = EncoderConfig(input_size=(4, 4, 3), block_channels=(1,), n_classes=2)
        save_checkpoint(init_model_params(config, SplitMix64(13), masked=True), fuzz_path)
        fuzz_path.write_bytes(data.draw(corrupted_bytes(fuzz_path.read_bytes())))
        try:
            load_checkpoint(fuzz_path)
        except ScenemaskError:
            pass
