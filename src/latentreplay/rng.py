"""Seeded, platform-independent random number generation.

The generator is counter-based splitmix64: draw k is the splitmix64
finalizer applied to ``seed + (k+1) * 0x9E3779B97F4A7C15`` (mod 2^64).
The 64-bit integer stream is therefore bit-identical on every platform;
derived floats use only IEEE-754 arithmetic (uniforms take the top 53
bits, normals come from Box-Muller). Sampling without replacement draws
one u64 key per element and returns the k smallest in key order, so a
draw of k items always consumes exactly n integers regardless of k.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)


def _splitmix64(x):
    """splitmix64 finalizer over uint64 arrays, whose arithmetic wraps silently."""
    z = x.astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


class SeededRng:
    """Deterministic PRNG; equal seeds give equal draw sequences."""

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._counter = 0

    def next_u64(self, n: int = 1) -> np.ndarray:
        """Next ``n`` raw 64-bit draws."""
        if n < 0:
            raise ValueError(f"cannot draw {n} values")
        idx = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        return _splitmix64(np.uint64(self.seed) + idx * _GOLDEN)

    def uniform(self, shape) -> np.ndarray:
        """Uniform draws in [0, 1) (float64; 53 random bits each)."""
        n = int(np.prod(shape))
        u = (self.next_u64(n) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
        return u.reshape(shape)

    def normal(self, shape, dtype=np.float32) -> np.ndarray:
        """Standard normal draws via Box-Muller."""
        return self.normal_rows(1, shape, dtype).reshape(shape)

    def normal_rows(self, k: int, shape, dtype=np.float32) -> np.ndarray:
        """``k`` consecutive ``normal(shape)`` draws as one ``[k, *shape]``
        array: row j pairs its own 2m integers as draw j would, the first
        m as Box-Muller radii and the last m as angles."""
        shape = tuple(shape) if np.iterable(shape) else (shape,)
        n = int(np.prod(shape))
        m = (n + 1) // 2
        bits = (self.next_u64(k * 2 * m) >> np.uint64(11)).reshape(k, 2, m)
        u1, u2 = bits.transpose(1, 0, 2).astype(np.float64, order="C") * (2.0 ** -53)
        r = np.sqrt(-2.0 * np.log(1.0 - u1))
        theta = 2.0 * np.pi * u2
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)], axis=1)[:, :n]
        return z.reshape((k,) + shape).astype(dtype)

    def randint(self, lo: int, hi: int, n: int = 1) -> np.ndarray:
        """Integers in [lo, hi); multiply-shift mapping of one draw each."""
        if hi <= lo:
            raise ValueError("empty range")
        span = hi - lo
        u = (self.next_u64(n) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
        return lo + np.minimum((u * span).astype(np.int64), span - 1)

    def choice(self, n: int, k: int, replace: bool = False) -> np.ndarray:
        """Sample k indices from range(n), uniformly, without replacement
        by default. Always consumes exactly n draws when replace=False."""
        return self.choice_rows(1, n, k, replace)[0]

    def choice_rows(self, rows: int, n: int, k: int, replace: bool = False) -> np.ndarray:
        """``rows`` consecutive ``choice(n, k, replace)`` draws as one
        ``[rows, k]`` array: row j reads the integers draw j would."""
        if k < 0:
            raise ValueError(f"cannot draw {k} indices")
        if replace:
            return self.randint(0, n, rows * k).reshape(rows, k)
        if k > n:
            raise ValueError(f"cannot draw {k} from {n} without replacement")
        keys = self.next_u64(rows * n).reshape(rows, n)
        if k == n:
            return np.argsort(keys, axis=1, kind="stable")
        # a row's n keys are distinct (distinct counters, and the finalizer
        # is a bijection on u64), so its k smallest in order are the sort's prefix
        smallest = np.argpartition(keys, k, axis=1)[:, :k]
        row = np.arange(rows)[:, None]
        return smallest[row, np.argsort(keys[row, smallest], axis=1)]

    def permutation(self, n: int) -> np.ndarray:
        return self.choice(n, n)

    def spawn(self, tag: int) -> "SeededRng":
        """Independent child stream derived from (seed, tag)."""
        with np.errstate(over="ignore"):
            child = _splitmix64(
                np.array([np.uint64(self.seed) ^ (np.uint64(tag) * _MIX1)], dtype=np.uint64)
            )[0]
        return SeededRng(int(child))
