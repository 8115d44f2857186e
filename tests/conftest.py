import numpy as np
import pytest
from hypothesis import strategies as st

from scenemask import SceneSpec, SplitMix64, Tensor, generate_dataset, load_manifest


def central_difference(fn, arrays, step=1e-5):
    """Gradient oracle: central finite differences of a scalar-valued ``fn``
    with respect to each array in ``arrays`` (perturbed in place)."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = fn()
            flat[i] = orig - step
            down = fn()
            flat[i] = orig
            gflat[i] = (up - down) / (2 * step)
        grads.append(g)
    return grads


def max_relative_error(analytic, numeric, floor=1e-8):
    analytic = np.asarray(analytic).reshape(-1)
    numeric = np.asarray(numeric).reshape(-1)
    denom = np.maximum(np.abs(numeric), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def random_tensor(shape, seed, low=-2.0, high=2.0):
    rng = SplitMix64(seed)
    n = int(np.prod(shape))
    return Tensor(rng.uniforms(n).reshape(shape) * (high - low) + low)


def corrupted_bytes(valid: bytes):
    """Hypothesis strategy: ``valid`` with a few bytes overwritten, cut short,
    or extended by a random tail."""
    n = len(valid)

    def overwrite(edits):
        buf = bytearray(valid)
        for at, value in edits:
            buf[at] = value
        return bytes(buf)

    edits = st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 255)), min_size=1, max_size=8)
    return st.one_of(
        edits.map(overwrite),
        st.integers(0, n - 1).map(lambda cut: valid[:cut]),
        st.binary(min_size=1, max_size=64).map(lambda tail: valid + tail),
    )


@pytest.fixture(scope="session")
def tiny_dataset(tmp_path_factory):
    """Small but trainable dataset shared across training-path tests."""
    out = tmp_path_factory.mktemp("tinydata")
    spec = SceneSpec(n_classes=3, images_per_class=12, seed=5)
    manifest = generate_dataset(spec, out)
    return spec, manifest, out


@pytest.fixture(scope="session")
def tiny_manifest(tiny_dataset):
    _, manifest, _ = tiny_dataset
    return manifest


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    """One file path per test module, rewritten by every fuzz example."""
    return tmp_path_factory.mktemp("fuzz") / "input"
