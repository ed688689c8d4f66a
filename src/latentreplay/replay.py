"""Bounded rehearsal memory and its supporting machinery.

The memory keeps one float32 payload row per item, whatever rows an
update hands it (raw patterns, or tap activations when the trainer's lower
net is pinned), and never reads it. Each training batch contributes
``h = min(capacity // i, |B_i|)`` randomly chosen items; once the memory
is full an equal number of randomly chosen old items makes room, so the
long-run contribution of every batch stays nearly balanced. No class
balancing is enforced.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ConfigError, ShapeError, StateError
from .rng import SeededRng


class ReplayMemory:
    """External memory of (payload, label, origin batch) items, one row
    each in parallel arrays, oldest first: ``payloads`` (float32),
    ``labels`` and ``origins`` (int64). Survivors of a replacement keep
    their order, so sampled indices (and the RNG stream) mean what they
    meant for a list of items."""

    def __init__(self, capacity: int, rng: SeededRng):
        if capacity < 0:
            raise ConfigError("capacity must be >= 0")
        self.capacity = int(capacity)
        self.rng = rng
        self.payloads = np.zeros(0, dtype=np.float32)
        self.labels = np.zeros(0, dtype=np.int64)
        self.origins = np.zeros(0, dtype=np.int64)
        self._last_i = 0

    def __len__(self) -> int:
        return len(self.labels)

    def update(self, rows: np.ndarray, labels, i: int):
        """Fold training batch ``i`` into the memory: the chosen ``rows``,
        one per label, are stored as they are. Returns the number of items
        (added, replaced).
        """
        if i < 1 or i <= self._last_i:
            raise StateError(f"batch index must increase strictly, got {i} after {self._last_i}")
        labels = np.asarray(labels)
        if len(labels) != len(rows):
            raise ShapeError(f"{len(labels)} labels for {len(rows)} rows")
        self._last_i = i
        if len(labels) == 0:
            warnings.warn("ReplayMemory.update called with an empty batch; ignored")
            return 0, 0
        h = min(self.capacity // i, len(labels))
        if h <= 0:
            return 0, 0
        n = len(self)
        replace_n = min(n, max(0, n + h - self.capacity))
        keep = np.ones(n, dtype=bool)
        if replace_n:
            keep[self.rng.choice(n, replace_n)] = False
        add_idx = np.sort(self.rng.choice(len(labels), h))
        payloads = rows[add_idx]
        if n and payloads.shape[1:] != self.payloads.shape[1:]:
            raise ShapeError("payload shape differs from items already stored")
        self.payloads = _keep_then_append(self.payloads, keep, payloads)
        self.labels = _keep_then_append(self.labels, keep, labels[add_idx])
        self.origins = _keep_then_append(self.origins, keep, np.full(h, i))
        if len(self) > self.capacity:
            raise StateError("replay memory exceeded capacity")  # pragma: no cover
        return h, replace_n

    def sample(self, k: int, rng: SeededRng, rows: int):
        """``rows`` consecutive draws of k distinct item indices from ``rng``
        as one ``[rows, k]`` array, each row uniform without replacement;
        ``ValueError`` when k exceeds the memory."""
        return rng.choice_rows(rows, len(self), k)

    def stacked(self, indices) -> tuple[np.ndarray, np.ndarray]:
        return self.payloads[indices], self.labels[indices]


def _keep_then_append(stored: np.ndarray, keep: np.ndarray, rows) -> np.ndarray:
    """The kept rows of ``stored`` in order, then ``rows`` in ``stored``'s dtype."""
    rows = np.array(rows, dtype=stored.dtype)
    return np.concatenate([stored[keep], rows]) if len(stored) else rows


def compose_minibatch(rm: ReplayMemory, batch_size: int, mb: int):
    """Split a step of at most ``mb`` rows between the batch's B native rows
    and the memory's items in proportion to their sizes:
    m = min(mb, B + |rm|), n_native = max(1, round(m * B / (B + |rm|))),
    n_replay = m - n_native. So 1 <= n_native <= B and n_replay <= |rm|;
    an empty memory gives (min(mb, B), 0). Draws nothing. Returns
    (n_native, n_replay)."""
    if mb < 1 or batch_size < 1:
        raise ConfigError("mini-batch and batch sizes must be >= 1")
    pool = batch_size + len(rm)
    m = min(mb, pool)
    n_native = max(1, round(m * batch_size / pool))
    return n_native, m - n_native


def l1_activation_penalty(acts: np.ndarray, alpha: float):
    """alpha * sum |a| and its (sub)gradient alpha * sign(a)."""
    if alpha < 0:
        raise ConfigError("alpha must be >= 0")
    penalty = float(alpha * np.abs(acts.astype(np.float64)).sum())
    return penalty, (alpha * np.sign(acts)).astype(np.float32)


def sparsity_stats(acts: np.ndarray) -> float:
    """Fraction of strictly non-zero entries."""
    if acts.size == 0:
        return 0.0
    return float(np.count_nonzero(acts) / acts.size)
