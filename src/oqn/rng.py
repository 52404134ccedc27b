"""Counted random stream: one 64-bit seed, replayable draw indices."""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.blas import ddot

from .errors import check_int_at_least


class RngStream:
    """Wraps a PCG64 generator and counts draws for replay logging.

    Every randomized oracle call consumes draws from a stream like this one;
    (seed, draw index) pairs pinpoint any draw for replay.
    """

    def __init__(self, seed: int):
        check_int_at_least("seed", seed, 0)
        self.seed = int(seed)
        self.draws = 0
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def unit_vector(self, dim: int) -> np.ndarray:
        """Uniform draw from the unit sphere (normalized Gaussian)."""
        self.draws += 1
        v = self._gen.standard_normal(dim)
        n = math.sqrt(ddot(v, v))
        while n == 0.0:  # probability-zero guard
            self.draws += 1
            v = self._gen.standard_normal(dim)
            n = math.sqrt(ddot(v, v))
        return v / n

    def state(self) -> tuple[int, int]:
        return (self.seed, self.draws)
