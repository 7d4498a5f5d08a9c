"""Deterministic random streams.

Every run owns exactly one stream, keyed by a (seed, stream) pair fed to
a counter-based Philox generator, so the same key reproduces the same
draw sequence on any platform. Streams with distinct keys are
statistically independent and safe to consume concurrently.
"""

import numpy as np

from .errors import InvalidParameterError

_MASK64 = (1 << 64) - 1


def check_seed(seed: int, name: str = "seed") -> None:
    """Refuse a seed that is not one 64-bit word of a Philox key: an int or
    numpy integer (not a bool) in [0, 2**64)."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise InvalidParameterError(f"{name} must be an integer, got {seed!r}")
    if not 0 <= seed < 2**64:
        raise InvalidParameterError(f"{name} must be in [0, 2**64), got {seed}")


def mix64(*parts: int) -> int:
    """Mix integers into one 64-bit stream id (splitmix64 finalizer)."""
    h = 0x9E3779B97F4A7C15
    for p in parts:
        h = (h ^ (int(p) & _MASK64)) * 0xBF58476D1CE4E5B9 & _MASK64
        h ^= h >> 27
        h = h * 0x94D049BB133111EB & _MASK64
        h ^= h >> 31
    return h


class RngStream:
    """A stateful draw sequence identified by (seed, stream).

    Two instances built from the same key produce bit-identical draws.
    A single instance must not be shared across concurrent callers.
    """

    __slots__ = ("seed", "stream", "gen")

    def __init__(self, seed: int, stream: int = 0):
        check_seed(seed)
        check_seed(stream, "stream")
        self.seed, self.stream = int(seed), int(stream)
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        self.gen = np.random.Generator(np.random.Philox(key=key))

    def unit_open(self, size=None) -> np.ndarray | float:
        """Uniform draws on the open interval (0, 1).

        numpy's ``random`` covers [0, 1); exact zeros are redrawn so
        callers can take logs and divide by cos without guards.
        """
        u = self.gen.random(size)
        if size is None:
            while u <= 0.0:
                u = self.gen.random()
            return u
        zero = u <= 0.0
        while zero.any():
            u[zero] = self.gen.random(int(zero.sum()))
            zero = u <= 0.0
        return u

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream(seed={self.seed}, stream={self.stream})"
