"""Span tracing of scenemask's public functions, installed from outside.

:class:`Tracer` replaces each traced function on every scenemask module
attribute (and module-level dict value) that holds it, so a call made through
any import path is recorded.  Each call becomes a span with a name, a start,
an end and the index of the span that was open when it began.  Spans are kept
in flat arrays and aggregated when the run ends: a span's self time is its
duration minus the durations of its direct children.

Uninstalling restores every replaced reference, so untraced rounds run the
program exactly as shipped.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

# (module, functions) whose calls become spans, named "<module>.<function>".
TRACED_FUNCTIONS = (
    ("tensor", ("conv2d", "relu", "gap", "linear", "softmax_cross_entropy", "backward")),
    ("masking", ("mask_from_logits", "apply_mask", "total_loss")),
    ("model", ("encode", "predict")),
    ("train", ("train", "adam_step", "evaluate_pixels")),
    (
        "data",
        (
            "generate_dataset",
            "render_image",
            "load_split_pixels",
            "add_gaussian_noise",
            "add_salt_pepper_noise",
        ),
    ),
    ("netpbm", ("write_ppm", "read_pixels", "read_image")),
    ("checkpoint", ("load_checkpoint",)),
    ("explain", ("grad_cam", "robustness_sweep")),
)
TRACED_METHODS = (("rng", "SplitMix64", "shuffle"),)
CONV_BLOCKS = 2  # encoder depth of the default EncoderConfig

# conv2d spans are split by their position inside the enclosing span (the
# encoder calls it once per block), so the per-block cost is visible.
SPAN_NAMES = tuple(
    [f"tensor.conv2d.block{i}" for i in range(CONV_BLOCKS)]
    + [f"{mod}.{fn}" for mod, fns in TRACED_FUNCTIONS for fn in fns if fn != "conv2d"]
    + [f"{mod}.{cls}.{fn}" for mod, cls, fn in TRACED_METHODS]
)
# Validation share of training: model.predict spans whose parent is train.train.
VALIDATION = "train.validation"
LAYER_NAMES = SPAN_NAMES + (VALIDATION,)


def _program_modules():
    return [m for name, m in sys.modules.items() if name == "scenemask" or name.startswith("scenemask.")]


class Tracer:
    """Records spans of traced calls while installed; see the module docstring."""

    def __init__(self):
        self._name_ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list = []  # open spans as [span index, conv2d children so far]
        self._restore: list = []  # (setter, key, original) to undo on uninstall
        self.nodes = 0  # Tensor objects built while installed

    # -- recording ----------------------------------------------------------

    def _open(self, name_id: int) -> int:
        i = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._stack[-1][0] if self._stack else -1)
        self._start.append(0.0)
        self._end.append(0.0)
        self._stack.append([i, 0])
        return i

    def _wrap(self, fn, name: str):
        if name == "tensor.conv2d":
            block_ids = [self._name_ids[f"{name}.block{b}"] for b in range(CONV_BLOCKS)]

            def span_id() -> int:
                block = 0
                if self._stack:
                    block = self._stack[-1][1]
                    self._stack[-1][1] += 1
                return block_ids[min(block, CONV_BLOCKS - 1)]

        else:
            name_id = self._name_ids[name]

            def span_id() -> int:
                return name_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(span_id())
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._end[i] = perf_counter()
                self._start[i] = start
                self._stack.pop()

        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Replace every reference to a traced function with its wrapper."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for mod_name, fns in TRACED_FUNCTIONS:
            module = sys.modules[f"scenemask.{mod_name}"]
            for fn_name in fns:
                original = vars(module)[fn_name]
                wrappers[id(original)] = (original, self._wrap(original, f"{mod_name}.{fn_name}"))

        for module in _program_modules():
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(namespace, attr, hit[1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        hit = wrappers.get(id(item))
                        if hit is not None and hit[0] is item:
                            self._patch(value, key, hit[1])

        for mod_name, cls_name, fn_name in TRACED_METHODS:
            cls = getattr(sys.modules[f"scenemask.{mod_name}"], cls_name)
            wrapper = self._wrap(vars(cls)[fn_name], f"{mod_name}.{cls_name}.{fn_name}")
            self._patch_attr(cls, fn_name, wrapper)

        tensor_cls = sys.modules["scenemask.tensor"].Tensor
        original_init = tensor_cls.__init__

        @functools.wraps(original_init)
        def counting_init(node, *args, **kwargs):
            self.nodes += 1
            original_init(node, *args, **kwargs)

        self._patch_attr(tensor_cls, "__init__", counting_init)

    def _patch(self, mapping: dict, key, replacement) -> None:
        self._restore.append((mapping.__setitem__, key, mapping[key]))
        mapping[key] = replacement

    def _patch_attr(self, obj, name: str, replacement) -> None:
        self._restore.append((functools.partial(setattr, obj), name, vars(obj)[name]))
        setattr(obj, name, replacement)

    def uninstall(self) -> None:
        for setter, key, original in reversed(self._restore):
            setter(key, original)
        self._restore.clear()

    # -- aggregation --------------------------------------------------------

    @property
    def n_spans(self) -> int:
        return len(self._start)

    def layer_totals(self, lo: int = 0, hi: int | None = None) -> dict:
        """Per span name: (calls, self seconds) over spans lo..hi-1.

        A span's children never leave the range their parent belongs to, as
        long as the range boundaries fall between top-level calls.
        """
        hi = self.n_spans if hi is None else hi
        name = np.frombuffer(self._name, dtype=np.int32)[lo:hi]
        parent = np.frombuffer(self._parent, dtype=np.int32)[lo:hi]
        dur = (np.frombuffer(self._end)[lo:hi] - np.frombuffer(self._start)[lo:hi]).copy()
        has_parent = parent >= 0
        local_parent = parent[has_parent] - lo
        if local_parent.size and local_parent.min() < 0:
            raise ValueError("span range splits a parent from its children")
        children = np.zeros_like(dur)
        np.add.at(children, local_parent, dur[has_parent])
        self_time = dur - children
        out = {}
        for name_id, span_name in enumerate(SPAN_NAMES):
            sel = name == name_id
            out[span_name] = (int(sel.sum()), float(self_time[sel].sum()))
        predict_id = self._name_ids["model.predict"]
        train_id = self._name_ids["train.train"]
        parent_name = np.full_like(name, -1)
        parent_name[has_parent] = name[local_parent]
        sel = (name == predict_id) & (parent_name == train_id)
        out[VALIDATION] = (int(sel.sum()), float(dur[sel].sum()))
        return out

    def save(self, path) -> None:
        """Write the raw spans (names, parents, starts, ends) as a .npz file."""
        np.savez_compressed(
            path,
            names=np.array(SPAN_NAMES),
            name=np.frombuffer(self._name, dtype=np.int32),
            parent=np.frombuffer(self._parent, dtype=np.int32),
            start=np.frombuffer(self._start),
            end=np.frombuffer(self._end),
        )
