"""Seedable uniform random stream with draw accounting.

Backed by numpy's PCG64 bit generator (period 2^128, published reference
implementation), so a 64-bit seed pins the entire uniform sequence bit-exactly
across runs and platforms.  ``uniform()`` hands out one draw at a time from
buffered blocks; ``take(n)`` hands out the next n draws as one float64 array,
which is how the simulation kernel takes its whole budget up front.  numpy
produces the same values whether the stream is read in blocks, in one array,
or one draw at a time, so neither buffering nor ``take`` ever changes the
stream.

The consumed-draw counter exists so simulations can prove they use a fixed,
path-independent number of draws.
"""

from __future__ import annotations

import numpy as np

_BLOCK = 4096


class RngStream:
    """Counted stream of uniforms in [0, 1) from a 64-bit seed."""

    __slots__ = ("seed", "n_draws", "_gen", "_buf", "_pos")

    def __init__(self, seed: int):
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ValueError(f"seed must be an integer (got {seed!r})")
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must fit in 64 unsigned bits (got {seed})")
        self.seed = seed
        self.n_draws = 0
        self._gen = np.random.Generator(np.random.PCG64(seed))
        self._buf: list[float] = []
        self._pos = 0

    def uniform(self) -> float:
        """Next uniform draw in [0, 1); advances the stream by exactly one."""
        if self._pos >= len(self._buf):
            self._buf = self._gen.random(_BLOCK).tolist()
            self._pos = 0
        u = self._buf[self._pos]
        self._pos += 1
        self.n_draws += 1
        return u

    def take(self, n: int) -> np.ndarray:
        """The next n draws as a float64 array, equal to n calls of
        ``uniform()``; advances by n."""
        if n < 0:
            raise ValueError(f"take requires n >= 0 (got n={n})")
        buffered = self._buf[self._pos:self._pos + n]
        self._pos += len(buffered)
        draws = self._gen.random(n - len(buffered))
        if buffered:  # the rest of a block that uniform() opened comes first
            draws = np.concatenate((buffered, draws))
        self.n_draws += n
        return draws

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, n_draws={self.n_draws})"
