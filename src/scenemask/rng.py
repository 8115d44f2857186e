"""Seeded random number generation with cross-platform bitwise reproducibility.

Every stochastic step in this package (parameter init, epoch shuffling,
dataset synthesis, noise injection) draws from :class:`SplitMix64`, a
counter-style 64-bit generator.  The state advance is a single 64-bit add,
so the i-th raw output is a pure function of (seed, i); ``fill_u64`` exploits
this to produce the exact same stream vectorized.  No global RNG state is
ever touched.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def derive_seed(base: int, *parts: int) -> int:
    """Fold integer tags into a base seed, e.g. per-image or per-run streams.

    Deterministic and order-sensitive: ``derive_seed(s, a, b)`` differs from
    ``derive_seed(s, b, a)``.  Used wherever work fans out per item so that
    results do not depend on scheduling.
    """
    state = base & _MASK64
    for p in parts:
        state = _mix64((state + _GOLDEN + (p & _MASK64)) & _MASK64)
    return state


class SplitMix64:
    """SplitMix64 generator: state += golden gamma, output = mix(state)."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        return _mix64(self.state)

    def fill_u64(self, n: int) -> np.ndarray:
        """Next ``n`` raw outputs as uint64, bitwise equal to ``n`` calls of
        :meth:`next_u64`.  Computed from the counter form in one vector pass.
        """
        base = np.uint64(self.state)
        idx = np.arange(1, n + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            z = base + idx * np.uint64(_GOLDEN)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
            z = z ^ (z >> np.uint64(31))
        self.state = (self.state + n * _GOLDEN) & _MASK64
        return z

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` float64 samples strictly inside (0, 1)."""
        bits = self.fill_u64(n)
        return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53

    def uniform(self) -> float:
        """One sample strictly inside (0, 1), bitwise equal to ``uniforms(1)[0]``."""
        return ((self.next_u64() >> 11) + 0.5) * 2.0**-53

    def normals(self, n: int, std: float = 1.0) -> np.ndarray:
        """``n`` zero-mean Gaussian samples via Box-Muller (consumes 2*ceil(n/2) draws)."""
        pairs = (n + 1) // 2
        u = self.uniforms(2 * pairs)
        u1, u2 = u[:pairs], u[pairs:]
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * math.pi * u2
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        return std * z

    def below(self, n: int) -> int:
        """Integer in [0, n). Modulo reduction; bias is negligible for n << 2^64."""
        if n <= 0:
            raise ConfigError(f"below() needs a positive bound, got {n}")
        return self.next_u64() % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
