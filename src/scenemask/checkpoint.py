"""Bit-exact model persistence.

File layout: the magic bytes ``MASKHEAD1``, then one record per tensor until
end of file.  Each record is name length + name + rank + dims (all 32-bit
little-endian unsigned) followed by the tensor's raw 64-bit little-endian
floats in row-major order.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import CheckpointError
from .masking import MaskParams
from .model import ModelParams
from .tensor import Tensor

MAGIC = b"MASKHEAD1"


def save_checkpoint(params: ModelParams, path) -> None:
    with open(path, "wb") as f:
        f.write(MAGIC)
        for name, t in params.named_tensors().items():
            encoded = name.encode("ascii")
            f.write(struct.pack("<I", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<I", t.data.ndim))
            f.write(struct.pack(f"<{t.data.ndim}I", *t.data.shape))
            f.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())


def _read_exact(f, n: int, what: str) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise CheckpointError(f"truncated tensor data while reading {what}")
    return buf


def _read_records(path) -> dict:
    tensors = {}
    with open(path, "rb") as f:
        magic = f.read(len(MAGIC))
        if magic != MAGIC:
            raise CheckpointError("bad magic")
        while True:
            head = f.read(4)
            if not head:
                break
            if len(head) != 4:
                raise CheckpointError("truncated tensor header")
            (name_len,) = struct.unpack("<I", head)
            name = _read_exact(f, name_len, "tensor name").decode("ascii")
            (rank,) = struct.unpack("<I", _read_exact(f, 4, f"rank of {name}"))
            dims = struct.unpack(f"<{rank}I", _read_exact(f, 4 * rank, f"dims of {name}"))
            count = int(np.prod(dims, dtype=np.int64)) if rank else 1
            raw = _read_exact(f, 8 * count, name)
            tensors[name] = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(dims)
    return tensors


def load_checkpoint(path, variant: str | None = None) -> ModelParams:
    """Rebuild ModelParams from a checkpoint file.

    ``variant`` ("baseline" or "masked"), when given, is enforced against the
    stored tensor set; a masked checkpoint opened for baseline use fails,
    naming the unexpected tensor.
    """
    tensors = _read_records(path)

    has_mask = "mask.logits" in tensors
    if variant == "baseline" and has_mask:
        raise CheckpointError('unexpected tensor "mask.logits" for baseline model')
    if variant == "masked" and not has_mask:
        raise CheckpointError('missing tensor "mask.logits" for masked model')

    blocks = 0
    while f"conv{blocks}.kernels" in tensors:
        blocks += 1
    if blocks == 0:
        raise CheckpointError('missing tensor "conv0.kernels"')

    expected = set()
    for i in range(blocks):
        expected.update({f"conv{i}.kernels", f"conv{i}.bias"})
    expected.update({"head.weights", "head.bias"})
    if has_mask:
        expected.add("mask.logits")
    for name in tensors:
        if name not in expected:
            raise CheckpointError(f'unknown tensor name "{name}"')
    for name in expected:
        if name not in tensors:
            raise CheckpointError(f'missing tensor "{name}"')

    kernels, biases = [], []
    for i in range(blocks):
        k = tensors[f"conv{i}.kernels"]
        b = tensors[f"conv{i}.bias"]
        if k.ndim != 4 or k.shape[2:] != (3, 3) or b.shape != (k.shape[0],):
            raise CheckpointError(f'inconsistent shapes for "conv{i}"')
        kernels.append(Tensor(k))
        biases.append(Tensor(b))
    hw, hb = tensors["head.weights"], tensors["head.bias"]
    if hw.ndim != 2 or hb.shape != (hw.shape[0],) or hw.shape[1] != kernels[-1].shape[0]:
        raise CheckpointError('inconsistent shapes for "head"')
    mask = MaskParams(Tensor(tensors["mask.logits"])) if has_mask else None
    return ModelParams(
        kernels=kernels, biases=biases, head_weights=Tensor(hw), head_bias=Tensor(hb), mask=mask
    )
