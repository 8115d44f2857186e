"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph of :class:`Tensor` nodes built during a forward pass *is* the tape:
each operation records its parents and an adjoint closure, and
:func:`backward` replays them in reverse topological order, accumulating
per-node gradients.  The tape is rebuilt on every forward pass
(define-by-run); a node's ``grad`` always has the same shape as its value
and is allocated on first read, so nodes that no backward pass reaches cost
no gradient buffer.

Image-shaped ops take one image as (C, H, W) or a batch as (C, N, H, W), the
batch axis right after the channel axis: im2col's product is then already
(c_out, N*oh*ow), so no transpose copy sits between conv blocks.  A rank-3
input runs the same code as a batch of one.

All values are 64-bit floats stored row-major (C-contiguous numpy arrays),
which keeps finite-difference gradient checks tight and checkpoints
bit-exact.  ``conv2d`` and ``linear`` reduce through ``@`` (BLAS GEMM), so
runs repeat bitwise on one machine with a fixed numpy/BLAS build and thread
count; equal results at other thread counts were seen at 1 and 2 OpenBLAS
threads at this package's shapes, and are not promised.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, ShapeError


class Tensor:
    """A node on the tape: value, gradient accumulator, and adjoint closure."""

    __slots__ = ("data", "_grad", "_parents", "_backward_fn")

    def __init__(
        self,
        data,
        _parents: Sequence["Tensor"] = (),
        _backward_fn: Optional[Callable[[np.ndarray], None]] = None,
    ):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim and not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self._grad = None
        self._parents = tuple(_parents)
        self._backward_fn = _backward_fn

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.data)
        return self._grad

    @grad.setter
    def grad(self, value: np.ndarray) -> None:
        self._grad = value

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


def backward(loss: Tensor) -> None:
    """Reverse-accumulate gradients of ``loss`` over every reachable node.

    Gradients of all reachable nodes are reset before accumulation, so
    calling this twice on the same tape state is bitwise idempotent.
    Nodes not reachable from ``loss`` keep their (zero) gradients.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward() needs a scalar loss, got shape {loss.shape}")

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    for node in topo:
        node._grad = None
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward_fn is not None:
            node._backward_fn(node.grad)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def conv2d(x: Tensor, kernels: Tensor, bias: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation with 3x3 kernels and per-channel bias.

    ``x`` is (c_in, h, w) or a batch (c_in, n, h, w), ``kernels`` (c_out, c_in, 3, 3),
    ``bias`` (c_out,); the output keeps the input's rank.
    Output spatial size is floor((h + 2*padding - 3)/stride) + 1 per axis.
    """
    if x.data.ndim not in (3, 4):
        raise ShapeError(f"conv2d input must be (c, h, w) or (c, n, h, w), got {x.shape}")
    if kernels.data.ndim != 4 or kernels.shape[2:] != (3, 3):
        raise ConfigError(f"kernels must be (c_out, c_in, 3, 3), got {kernels.shape}")
    xd = x.data if x.data.ndim == 4 else x.data[:, None]
    c_in, n, h, w = xd.shape
    c_out = kernels.shape[0]
    if kernels.shape[1] != c_in:
        raise ConfigError(
            f"kernel input channels {kernels.shape[1]} do not match input channels {c_in}"
        )
    if bias.shape != (c_out,):
        raise ConfigError(f"bias must be ({c_out},), got {bias.shape}")
    if stride < 1 or padding < 0:
        raise ConfigError("stride must be >= 1 and padding >= 0")
    oh = (h + 2 * padding - 3) // stride + 1
    ow = (w + 2 * padding - 3) // stride + 1
    if h + 2 * padding < 3 or w + 2 * padding < 3 or oh < 1 or ow < 1:
        raise ConfigError(f"non-positive conv output for input {x.shape}")

    # im2col: gather the 9 kernel taps into a (c_in*9, n*oh*ow) matrix so the
    # convolution and both of its adjoints are single matrix products
    if padding:
        xp = np.zeros((c_in, n, h + 2 * padding, w + 2 * padding))
        xp[:, :, padding : padding + h, padding : padding + w] = xd
    else:
        xp = xd
    cols = np.empty((c_in, 3, 3, n, oh, ow))
    for u in range(3):
        for v in range(3):
            cols[:, u, v] = xp[:, :, u : u + stride * oh : stride, v : v + stride * ow : stride]
    cols_mat = cols.reshape(c_in * 9, n * oh * ow)
    kmat = kernels.data.reshape(c_out, c_in * 9)
    out_data = (kmat @ cols_mat).reshape(c_out, n, oh, ow) + bias.data[:, None, None, None]

    def _bw(g: np.ndarray) -> None:
        g2 = g.reshape(c_out, n * oh * ow)
        bias.grad += g2.sum(axis=1)
        kernels.grad += (g2 @ cols_mat.T).reshape(kernels.data.shape)
        taps = (kmat.T @ g2).reshape(c_in, 3, 3, n, oh, ow)
        gxp = np.zeros_like(xp)
        for u in range(3):
            for v in range(3):
                gxp[:, :, u : u + stride * oh : stride, v : v + stride * ow : stride] += taps[
                    :, u, v
                ]
        x.grad += gxp[:, :, padding : padding + h, padding : padding + w].reshape(x.shape)

    return Tensor(out_data.reshape(c_out, *x.shape[1:-2], oh, ow), (x, kernels, bias), _bw)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(x, 0); subgradient at 0 is 0."""
    mask = x.data > 0

    def _bw(g):
        x.grad += g * mask

    return Tensor(np.maximum(x.data, 0.0), (x,), _bw)


def sigmoid(x: Tensor) -> Tensor:
    """Elementwise logistic function, computed branch-wise for stability."""
    out_data = _sigmoid_values(x.data)

    def _bw(g):
        x.grad += g * out_data * (1.0 - out_data)

    return Tensor(out_data, (x,), _bw)


def _sigmoid_values(v: np.ndarray) -> np.ndarray:
    pos = v >= 0
    out = np.empty_like(v)
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def gap(x: Tensor) -> Tensor:
    """Global average pooling over the last two (spatial) axes: (c[, n], d, k) -> (c[, n])."""
    if x.data.ndim not in (3, 4):
        raise ShapeError(f"gap input must be (c, d, k) or (c, n, d, k), got {x.shape}")
    d, k = x.shape[-2:]
    n = d * k

    def _bw(g):
        x.grad += g[..., None, None] / n

    return Tensor(x.data.mean(axis=(-2, -1)), (x,), _bw)


def linear(x: Tensor, weights: Tensor, bias: Tensor) -> Tensor:
    """Affine map weights @ x + bias: (c,) -> (k,), or column-wise (c, n) -> (k, n)."""
    if x.data.ndim not in (1, 2) or weights.data.ndim != 2 or weights.shape[1] != x.shape[0]:
        raise ShapeError(f"linear mismatch: input {x.shape}, weights {weights.shape}")
    if bias.shape != (weights.shape[0],):
        raise ShapeError(f"linear bias {bias.shape} does not match weights {weights.shape}")
    k, c = weights.shape
    column = (k,) + (1,) * (x.data.ndim - 1)
    out_data = weights.data @ x.data + bias.data.reshape(column)

    def _bw(g):
        x.grad += weights.data.T @ g
        weights.grad += g.reshape(k, -1) @ x.data.reshape(c, -1).T
        bias.grad += g.reshape(k, -1).sum(axis=1)

    return Tensor(out_data, (x, weights, bias), _bw)


def softmax_values(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax of a raw logits vector."""
    z = logits - logits.max()
    e = np.exp(z)
    return e / e.sum()


def softmax_cross_entropy(logits: Tensor, label) -> Tensor:
    """-log softmax(logits)[label], max-subtracted for stability.

    ``logits`` is (k,) with an int ``label``, or (k, n) with ``n`` labels; a
    batch gives the mean over its columns.
    """
    if logits.data.ndim not in (1, 2):
        raise ShapeError(f"logits must be (k,) or (k, n), got {logits.shape}")
    # one row per sample, so each reduction runs over one contiguous row
    rows = logits.data[None, :] if logits.data.ndim == 1 else np.ascontiguousarray(logits.data.T)
    n, k = rows.shape
    labels = np.atleast_1d(np.asarray(label))
    if labels.shape != (n,) or labels.dtype.kind not in "iu":
        raise ConfigError(f"need {n} integer labels for logits {logits.shape}, got {label!r}")
    if labels.min() < 0 or labels.max() >= k:
        raise ConfigError(f"label {label} out of range for {k} classes")
    m = rows.max(axis=1, keepdims=True)
    e = np.exp(rows - m)
    total = e.sum(axis=1, keepdims=True)
    picked = np.arange(n), labels
    losses = (m + np.log(total))[:, 0] - rows[picked]

    def _bw(g):
        adj = e / total
        adj[picked] -= 1.0
        logits.grad += (g / n * adj).T.reshape(logits.shape)

    return Tensor(np.float64(losses.mean()), (logits,), _bw)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"add shape mismatch: {a.shape} vs {b.shape}")

    def _bw(g):
        a.grad += g
        b.grad += g

    return Tensor(a.data + b.data, (a, b), _bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"mul shape mismatch: {a.shape} vs {b.shape}")

    def _bw(g):
        a.grad += g * b.data
        b.grad += g * a.data

    return Tensor(a.data * b.data, (a, b), _bw)


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a plain (non-differentiated) scalar constant."""

    def _bw(g):
        x.grad += g * c

    return Tensor(x.data * c, (x,), _bw)


def tsum(x: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor."""

    def _bw(g):
        x.grad += g

    return Tensor(np.float64(x.data.sum()), (x,), _bw)
