"""Seedable uniform random stream with draw accounting.

Backed by numpy's PCG64 bit generator (period 2^128, published reference
implementation), so a 64-bit seed pins the entire uniform sequence bit-exactly
across runs and platforms.  ``take(n)`` hands out the next n draws as one
float64 array, which is how the simulation kernel takes its whole budget up
front; ``uniform()`` hands out one draw.  Nothing is buffered: each call reads
the generator directly, and numpy produces the same values however the
stream is split into calls, so mixing the two never changes the stream.

The consumed-draw counter exists so simulations can prove they use a fixed,
path-independent number of draws.
"""

from __future__ import annotations

import operator

import numpy as np


class RngStream:
    """Counted stream of uniforms in [0, 1) from a 64-bit seed."""

    __slots__ = ("seed", "n_draws", "_gen")

    def __init__(self, seed: int):
        try:  # any integer type, numpy's too, but not bool; kept as an int
            index = operator.index(seed)
        except TypeError:
            index = None
        if index is None or isinstance(seed, bool):
            raise ValueError(f"seed must be an integer (got {seed!r})")
        if not 0 <= index < 2**64:
            raise ValueError(f"seed must fit in 64 unsigned bits (got {index})")
        self.seed = index
        self.n_draws = 0
        self._gen = np.random.Generator(np.random.PCG64(index))

    def uniform(self) -> float:
        """Next uniform draw in [0, 1); advances the stream by exactly one."""
        self.n_draws += 1
        return self._gen.random()

    def take(self, n: int) -> np.ndarray:
        """The next n draws as a float64 array, equal to n calls of
        ``uniform()``; advances by n."""
        if n < 0:
            raise ValueError(f"take requires n >= 0 (got n={n})")
        self.n_draws += n
        return self._gen.random(n)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, n_draws={self.n_draws})"
