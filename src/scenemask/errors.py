"""Exception types shared across the package.

Every error the package raises on purpose derives from :class:`ScenemaskError`,
so a caller can catch them all at once; each also keeps a builtin base.
"""


class ScenemaskError(Exception):
    """Base of every declared scenemask error."""


class ShapeError(ScenemaskError, ValueError):
    """Tensor arguments whose shapes cannot be combined."""


class ConfigError(ScenemaskError, ValueError):
    """Invalid configuration values (sizes, rates, splits, variants)."""


class CheckpointError(ScenemaskError, ValueError):
    """Malformed or mismatched checkpoint file."""


class NetpbmError(ScenemaskError, ValueError):
    """Malformed netpbm image; the message ends with the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class TrainingFailure(ScenemaskError, RuntimeError):
    """Training aborted, e.g. a non-finite loss; message carries epoch/batch."""
