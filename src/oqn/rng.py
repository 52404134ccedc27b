"""Counted random stream: one 64-bit seed, replayable draw indices."""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgument


def check_seed(seed, key: str = "seed") -> None:
    """A seed, named ``key`` in the message, is a nonnegative integer."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvalidArgument(f"{key} must be a nonnegative integer, got {seed!r}")


class RngStream:
    """Wraps a PCG64 generator and counts draws for replay logging.

    Every randomized oracle call consumes draws from a stream like this one;
    (seed, draw index) pairs pinpoint any draw for replay.
    """

    def __init__(self, seed: int):
        check_seed(seed)
        self.seed = int(seed)
        self.draws = 0
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def unit_vector(self, dim: int) -> np.ndarray:
        """Uniform draw from the unit sphere (normalized Gaussian)."""
        self.draws += 1
        v = self._gen.standard_normal(dim)
        n = np.linalg.norm(v)
        while n == 0.0:  # probability-zero guard
            self.draws += 1
            v = self._gen.standard_normal(dim)
            n = np.linalg.norm(v)
        return v / n

    def state(self) -> tuple[int, int]:
        return (self.seed, self.draws)
