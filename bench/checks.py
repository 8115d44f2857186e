"""Reference computations made apart from scenemask, used to check its outputs.

Nothing here calls the program's math: images and checkpoints are parsed
with their own readers, the forward pass is a direct 9-tap convolution in
plain numpy (the program uses im2col), Grad-CAM is computed in closed form,
and gradients come from central differences of the reference objective.
Each ``check_*`` function returns a list of failure messages; empty means
the property held.
"""

from __future__ import annotations

import hashlib
import math
import struct

import numpy as np

LOGIT_TOL = 1e-9  # reference vs program logits, scaled by max(1, |logit|)
GRADCAM_TOL = 1e-12  # closed-form vs program heatmap grid and confidence
GRAD_STEP = 1e-6  # central-difference step
GRAD_ONE_SIDED_STEP = 1e-7  # step when a ReLU kink lies inside the central step
GRAD_ATOL, GRAD_RTOL = 1e-6, 1e-4  # |analytic - numeric| <= atol + rtol * |numeric|
GAUSSIAN_VAR_RTOL = 0.01  # empirical variance vs level + 1/12 (rounding to integers)
ROBUSTNESS_MARGIN = -0.01  # masked minus baseline accuracy, every noise level
CUE_WIN_SHARE = 0.8  # share of test heatmaps whose cue window beats the background


# ---------------------------------------------------------------------------
# independent readers
# ---------------------------------------------------------------------------


def read_ppm(path) -> np.ndarray:
    """(h, w, 3) uint8 pixels of a binary P6 file without header comments."""
    with open(path, "rb") as f:
        buf = f.read()
    fields = buf.split(maxsplit=4)
    if fields[0] != b"P6" or fields[3] != b"255":
        raise ValueError(f"{path}: not an 8-bit P6 file")
    w, h = int(fields[1]), int(fields[2])
    return np.frombuffer(buf[len(buf) - 3 * w * h :], dtype=np.uint8).reshape(h, w, 3)


def read_checkpoint(path) -> dict:
    """Name -> float64 array for a MASKHEAD1 checkpoint."""
    with open(path, "rb") as f:
        buf = f.read()
    if not buf.startswith(b"MASKHEAD1"):
        raise ValueError(f"{path}: bad magic")
    pos, out = 9, {}
    while pos < len(buf):
        (n,) = struct.unpack_from("<I", buf, pos)
        name = buf[pos + 4 : pos + 4 + n].decode("ascii")
        pos += 4 + n
        (rank,) = struct.unpack_from("<I", buf, pos)
        dims = struct.unpack_from(f"<{rank}I", buf, pos + 4)
        pos += 4 + 4 * rank
        count = math.prod(dims)
        out[name] = np.frombuffer(buf, dtype="<f8", count=count, offset=pos).reshape(dims).copy()
        pos += 8 * count
    return out


def sha256(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def to_input(pixels: np.ndarray) -> np.ndarray:
    return pixels.transpose(2, 0, 1) / 255.0


# ---------------------------------------------------------------------------
# reference model
# ---------------------------------------------------------------------------


def conv3x3_s2(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Stride-2, padding-1 cross-correlation as a sum of nine shifted taps."""
    _, h, w = x.shape
    oh, ow = (h - 1) // 2 + 1, (w - 1) // 2 + 1
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    out = np.broadcast_to(bias[:, None, None], (kernels.shape[0], oh, ow)).copy()
    for u in range(3):
        for v in range(3):
            tap = xp[:, u : u + 2 * oh : 2, v : v + 2 * ow : 2]
            out += np.tensordot(kernels[:, :, u, v], tap, axes=(1, 0))
    return out


def mask_values(logits: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * logits))


def forward(p: dict, x: np.ndarray):
    """(logits, pooled feature map, ReLU on/off pattern per block)."""
    a, pattern = x, []
    block = 0
    while f"conv{block}.kernels" in p:
        z = conv3x3_s2(a, p[f"conv{block}.kernels"], p[f"conv{block}.bias"])
        pattern.append(z > 0)
        a = np.where(z > 0, z, 0.0)
        block += 1
    if "mask.logits" in p:
        a = a * mask_values(p["mask.logits"])[None]
    pooled = a.sum(axis=(1, 2)) / (a.shape[1] * a.shape[2])
    return p["head.weights"] @ pooled + p["head.bias"], a, pattern


def objective(p: dict, x: np.ndarray, label: int, lam: float):
    """Cross entropy plus lam * L1(mask) (masked models); with ReLU pattern."""
    logits, _, pattern = forward(p, x)
    top = logits.max()
    loss = top + math.log(np.exp(logits - top).sum()) - logits[label]
    if "mask.logits" in p:
        loss += lam * np.abs(mask_values(p["mask.logits"])).sum()
    return loss, pattern


def softmax(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max())
    return e / e.sum()


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_forward(label: str, p: dict, inputs: list, program_logits: list, program_accuracy: float) -> list:
    """Reference logits within LOGIT_TOL; reference accuracy equals the program's."""
    failures, worst, correct = [], 0.0, 0
    for (x, y), got in zip(inputs, program_logits):
        want, _, _ = forward(p, x)
        err = float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))
        worst = max(worst, err)
        correct += int(np.argmax(want)) == y
    if worst > LOGIT_TOL:
        failures.append(f"{label}: logits differ from the reference by {worst:.3g}")
    accuracy = correct / len(inputs)
    if accuracy != program_accuracy:
        failures.append(f"{label}: reference accuracy {accuracy} != program {program_accuracy}")
    return failures


def check_gradient(p: dict, x: np.ndarray, label: int, lam: float, program_grads: dict) -> tuple:
    """Central differences of the reference objective against the program's
    backward() for every parameter.  Where a ReLU kink lies inside the central
    step (the on/off pattern changes), the one-sided difference on the side
    that keeps the pattern is used instead.  Returns (failures, detail)."""
    p = {name: arr.copy() for name, arr in p.items()}
    f0, base = objective(p, x, label, lam)

    def same(pattern):
        return all(np.array_equal(a, b) for a, b in zip(pattern, base))

    failures, checked, one_sided, worst = [], 0, 0, 0.0
    for name, arr in p.items():
        flat = arr.reshape(-1)
        analytic = program_grads[name].reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + GRAD_STEP
            up, up_pattern = objective(p, x, label, lam)
            flat[j] = orig - GRAD_STEP
            down, down_pattern = objective(p, x, label, lam)
            numeric = (up - down) / (2 * GRAD_STEP)
            if not (same(up_pattern) and same(down_pattern)):
                one_sided += 1
                numeric = None
                for sign in (1.0, -1.0):
                    flat[j] = orig + sign * GRAD_ONE_SIDED_STEP
                    value, pattern = objective(p, x, label, lam)
                    if same(pattern):
                        numeric = sign * (value - f0) / GRAD_ONE_SIDED_STEP
                        break
            flat[j] = orig
            checked += 1
            if numeric is None:
                failures.append(f"gradient {name}[{j}]: ReLU kink on both sides of the step")
                continue
            excess = abs(analytic[j] - numeric) / (GRAD_ATOL + GRAD_RTOL * abs(numeric))
            worst = max(worst, excess)
            if excess > 1.0 and len(failures) < 5:
                failures.append(
                    f"gradient {name}[{j}]: backward {analytic[j]:.6g} vs central difference {numeric:.6g}"
                )
    detail = f"{checked} parameters, {one_sided} one-sided, worst error {worst:.3g} of tolerance"
    return failures, detail


def check_gradcam(label: str, p: dict, items: list) -> list:
    """Closed form: logits = W @ gap(tap) + b, so the channel weights are
    W[c] / (d*k) and the grid is ReLU(sum_c weight_c * tap_c) over its max.
    ``items`` holds (input, target, program Heatmap)."""
    worst_grid = worst_conf = 0.0
    failures = []
    for x, target, heat in items:
        logits, tap, _ = forward(p, x)
        weights = p["head.weights"][target] / (tap.shape[1] * tap.shape[2])
        grid = np.maximum(np.tensordot(weights, tap, axes=(0, 0)), 0.0)
        if grid.max() > 0:
            grid = grid / grid.max()
        worst_grid = max(worst_grid, float(np.max(np.abs(grid - heat.grid))))
        worst_conf = max(worst_conf, abs(float(softmax(logits)[target]) - heat.confidence))
        ry, rx = x.shape[1] // grid.shape[0], x.shape[2] // grid.shape[1]
        upsampled = np.clip(np.floor(np.kron(heat.grid, np.ones((ry, rx))) * 255.0 + 0.5), 0, 255)
        if not np.array_equal(upsampled, heat.upsampled):
            failures.append(f"{label}: upsampled heatmap is not the grid at input resolution")
            break
    if worst_grid > GRADCAM_TOL:
        failures.append(f"{label}: heatmap grid differs from the closed form by {worst_grid:.3g}")
    if worst_conf > GRADCAM_TOL:
        failures.append(f"{label}: confidence differs from the reference softmax by {worst_conf:.3g}")
    return failures


def cue_mass_wins(items: list, cue_size: int) -> float:
    """Share of heatmaps whose cue window holds more mass than the mean
    background window.  ``items`` holds (upsampled heatmap, cue_row, cue_col)."""
    wins = 0
    for up, row, col in items:
        h, w = up.shape
        integral = np.zeros((h + 1, w + 1))
        integral[1:, 1:] = up.astype(np.float64).cumsum(0).cumsum(1)
        cs = cue_size
        sums = integral[cs:, cs:] - integral[:-cs, cs:] - integral[cs:, :-cs] + integral[:-cs, :-cs]
        r = np.arange(h - cs + 1)[:, None]
        c = np.arange(w - cs + 1)[None, :]
        background = (np.abs(r - row) >= cs) | (np.abs(c - col) >= cs)
        wins += sums[row, col] > sums[background].mean()
    return wins / len(items)


def check_salt_pepper(pixels: np.ndarray, ratio: float, out: np.ndarray) -> list:
    h, w = pixels.shape[:2]
    changed = np.any(out != pixels, axis=2)
    want = int(math.floor(ratio * h * w + 0.5))
    failures = []
    if int(changed.sum()) != want:
        failures.append(f"salt-and-pepper {ratio}: {int(changed.sum())} pixels changed, expected {want}")
    hits = out[changed]
    if not np.all((hits == 0).all(axis=1) | (hits == 255).all(axis=1)):
        failures.append(f"salt-and-pepper {ratio}: a changed pixel is not full black or white")
    return failures


def check_gaussian(level: float, deltas: list) -> list:
    """Pooled (noisy - clean) differences: mean ~ 0, variance ~ level + 1/12."""
    d = np.concatenate([x.reshape(-1) for x in deltas]).astype(np.float64)
    var, want = float(d.var()), level + 1.0 / 12.0
    if abs(var - want) > GAUSSIAN_VAR_RTOL * want:
        return [f"gaussian {level}: empirical variance {var:.4f}, expected {want:.4f} within {GAUSSIAN_VAR_RTOL:.0%}"]
    return []


def check_robustness(kind: str, rows: list) -> list:
    """Masked minus baseline mean accuracy is at least ROBUSTNESS_MARGIN per level."""
    by_level: dict = {}
    for _, variant, _, level, _, accuracy in rows:
        by_level.setdefault((variant, level), []).append(accuracy)
    failures = []
    for level in sorted({level for _, level in by_level}):
        adv = float(np.mean(by_level[("masked", level)]) - np.mean(by_level[("baseline", level)]))
        if adv < ROBUSTNESS_MARGIN:
            failures.append(f"{kind} level {level}: masked minus baseline accuracy {adv:+.4f}")
    return failures
