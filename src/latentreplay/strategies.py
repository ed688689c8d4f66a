"""Continual-learning strategies and the per-batch training orchestrator.

Each strategy name (naive, CWR*, AR1*, AR1*free and the DSLDA streaming
baseline) is one row of ``_PRESETS``: its head, whether Synaptic
Intelligence protects the weights below the head, and whether only the
head trains after batch 1. Any SGD strategy can be combined with a native
or latent rehearsal memory; a latent memory pins the lower net from batch 2.
A run without replay holds an empty memory of capacity 0.
SI guards only the below-head layers that can train after batch 1: those
above the tap when the lower net is pinned, else all of them.

A fixed lower net (pinned once batch 1 has trained it, or DSLDA's, which
never trains) sees each native row once per batch and the test set once per
run: the trainer keeps their tap activations, and every step, DSLDA's
update and the memory read them. A pinned trainer's memory therefore
stores tap activations, whatever its replay kind, and its rows join the
native ones at the tap.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError, StateError, require_finite, require_int
from .kernels import softmax_xent
from .layers import Brn
from .network import Network
from .replay import ReplayMemory, compose_minibatch, l1_activation_penalty
from .rng import SeededRng

# Random keys per batched replay draw: a block of steps reads at most this
# many (8 bytes each), so an epoch's draws need not fit in memory at once.
_DRAW_KEYS = 1 << 16

# head "plain", "cwr" (double memory) or "dslda" (LDA on the tap features);
# si: SI guards the lower weights; head_only: only the head trains after batch 1
_Preset = namedtuple("_Preset", "head si head_only")
_PRESETS = {
    "naive": _Preset("plain", si=False, head_only=False),
    "cwr*": _Preset("cwr", si=False, head_only=True),
    "ar1*": _Preset("cwr", si=True, head_only=False),
    "ar1*free": _Preset("cwr", si=False, head_only=False),
    "dslda": _Preset("dslda", si=False, head_only=False),
}


class CwrHead:
    """Consolidated ('cw') copy of the output head, fused with the live
    temporary head ('tw') after every batch. ``preinit`` and
    ``consolidate`` take the pool's per-class pattern counts (one entry
    per class); the classes with a non-zero count are the ones the head
    manages. Columns of classes never seen stay exactly zero."""

    def __init__(self, in_features: int, classes: int):
        self.cw_w = np.zeros((in_features, classes), dtype=np.float32)
        self.cw_b = np.zeros(classes, dtype=np.float32)
        self.past = np.zeros(classes, dtype=np.float64)

    def preinit(self, head, counts: np.ndarray) -> None:
        """tw_j <- cw_j for the counted classes, zero elsewhere."""
        present = counts > 0
        if not present.any():
            raise ConfigError("empty class set for CWR pre-init")
        w, b = head.params["w"], head.params["b"]
        w[...] = 0.0
        b[...] = 0.0
        w[:, present] = self.cw_w[:, present]
        b[present] = self.cw_b[present]

    def consolidate(self, head, counts: np.ndarray) -> None:
        """Fuse tw into cw with sqrt(past/count) weighting, mean-shifted
        over the counted classes; columns of the others are untouched."""
        j = np.flatnonzero(counts)
        tw_w, tw_b = head.params["w"], head.params["b"]
        mean_w = tw_w[:, j].astype(np.float64).mean(axis=1, keepdims=True)
        mean_b = float(tw_b[j].astype(np.float64).mean())  # keeps tw_b - mean_b float32
        wpast = np.sqrt(self.past[j] / counts[j])
        self.cw_w[:, j] = ((self.cw_w[:, j] * wpast + (tw_w[:, j] - mean_w))
                           / (wpast + 1.0)).astype(np.float32)
        self.cw_b[j] = ((self.cw_b[j] * wpast + (tw_b[j] - mean_b))
                        / (wpast + 1.0)).astype(np.float32)
        self.past[j] += counts[j]

    def install(self, head) -> None:
        """Copy the consolidated head into the live layer (for evaluation)."""
        head.params["w"][...] = self.cw_w
        head.params["b"][...] = self.cw_b


class SiState:
    """Synaptic-Intelligence importance bookkeeping for the parameters of
    ``layers`` below the head (default: every below-head layer; BRN
    gamma/beta included). Each step's delta_theta is taken against a float64
    copy of those parameters kept from the previous step."""

    def __init__(self, net: Network, layers=None, lam: float = 1.0, xi: float = 1e-7,
                 w1: float = 0.5, wi: float = 0.5, max_f: float = 0.001):
        if xi <= 0:
            raise ConfigError("SI damping xi must be > 0")
        self.lam, self.xi = float(lam), float(xi)
        self.w1, self.wi, self.max_f = float(w1), float(wi), float(max_f)
        self.keys = [(l.name, pn) for l in net.layers if l.name != net.head_name
                     and (layers is None or l.name in layers) for pn in l.params]
        self.theta_ref = self._snapshot(net)
        self._theta = dict(self.theta_ref)  # the parameters after the last step
        self.omega = {k: np.zeros_like(v) for k, v in self.theta_ref.items()}
        self.importance = {k: np.zeros_like(v) for k, v in self.theta_ref.items()}

    def _snapshot(self, net: Network) -> dict:
        return {(ln, pn): net.layer(ln).params[pn].astype(np.float64)
                for ln, pn in self.keys}

    def accumulate(self, net: Network, grads: dict) -> None:
        """omega += -g * delta_theta for the step ``grads`` just took
        (positive when it reduced loss); a parameter without a gradient
        did not move."""
        for key in self.keys:
            ln, pn = key
            g = grads.get(ln, {}).get(pn)
            if g is None:
                continue
            theta = net.layer(ln).params[pn].astype(np.float64)
            self.omega[key] += -g.astype(np.float64) * (theta - self._theta[key])
            self._theta[key] = theta

    def consolidate(self, net: Network, is_first_batch: bool) -> None:
        w = self.w1 if is_first_batch else self.wi
        now = self._snapshot(net)
        for key in self.keys:
            dsq = (now[key] - self.theta_ref[key]) ** 2
            contrib = w * np.maximum(self.omega[key], 0.0) / (dsq + self.xi)
            self.importance[key] = np.clip(self.importance[key] + contrib, 0.0, self.max_f)
            self.omega[key][...] = 0.0
        self.theta_ref, self._theta = now, dict(now)

    def penalty(self, net: Network):
        """(loss, gradient dict) of lambda * sum F (theta - theta_ref)^2."""
        loss = 0.0
        grads: dict = {}
        if self.lam == 0.0:
            return 0.0, grads
        for ln, pn in self.keys:
            theta = net.layer(ln).params[pn].astype(np.float64)
            diff = theta - self.theta_ref[(ln, pn)]
            f = self.importance[(ln, pn)]
            loss += float(self.lam * (f * diff * diff).sum())
            grads.setdefault(ln, {})[pn] = (2.0 * self.lam * f * diff).astype(np.float32)
        return loss, grads


class DsldaState:
    """Streaming LDA: per-class running means and a shared plastic
    covariance accumulated with the per-class Welford recurrence."""

    def __init__(self, dim: int, classes: int, shrink: float = 1e-4):
        self.dim, self.classes = int(dim), int(classes)
        self.shrink = float(shrink)
        self.mu = np.zeros((classes, dim), dtype=np.float64)
        self.n_c = np.zeros(classes, dtype=np.float64)
        self.scatter = np.zeros((dim, dim), dtype=np.float64)

    def update(self, feature: np.ndarray, label: int) -> None:
        f = np.asarray(feature, dtype=np.float64).ravel()
        if f.shape != (self.dim,):
            raise ShapeError(f"feature dim {f.shape} != ({self.dim},)")
        j = int(label)
        mu_pre = self.mu[j].copy()
        self.n_c[j] += 1
        self.mu[j] += (f - mu_pre) / self.n_c[j]
        self.scatter += np.outer(f - mu_pre, f - self.mu[j])

    def sigma(self) -> np.ndarray:
        return self.scatter / max(self.n_c.sum(), 1)

    def _discriminants(self):
        if not self.n_c.any():
            raise StateError("no samples observed yet")
        s = self.shrink
        lam = np.linalg.inv((1.0 - s) * self.sigma() + s * np.eye(self.dim))
        w = self.mu @ lam.T                       # per-class Lambda mu
        bias = -0.5 * (w * self.mu).sum(axis=1)   # -1/2 mu . Lambda mu
        return w, bias

    def predict_batch(self, features: np.ndarray) -> np.ndarray:
        w, bias = self._discriminants()
        feats = np.asarray(features, dtype=np.float64).reshape(len(features), -1)
        scores = feats @ w.T + bias
        scores[:, self.n_c == 0] = -np.inf  # argmax ties resolve to lowest id
        return scores.argmax(axis=1)


@dataclass
class StrategyConfig:
    strategy: str = "naive"
    # None | "native" | "latent"; "latent" pins the lower net from batch 2,
    # and a pinned net's memory holds tap activations
    replay_kind: str | None = None
    rm_capacity: int = 0
    epochs: int = 4
    mb: int = 32
    lr_first: float = 0.001
    lr_head: float = 0.003
    lr_other: float = 0.0003
    sparsifier_alpha: float = 0.0       # L1 weight on the tap activations, batch 1 only

    @property
    def preset(self) -> _Preset:
        """The strategy name's row of ``_PRESETS``."""
        if not isinstance(self.strategy, str) or self.strategy not in _PRESETS:
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        return _PRESETS[self.strategy]

    def validate(self, net: Network) -> None:
        if self.replay_kind not in (None, "native", "latent"):
            raise ConfigError(f"unknown replay kind {self.replay_kind!r}")
        if self.preset.head == "dslda" and self.replay_kind is not None:
            raise ConfigError("dslda streams features; it takes no replay memory")
        above = [l.name for l in net.layers[net.tap_index + 1:] if l.params]
        if self.preset.head_only and above != [net.head_name]:
            raise ConfigError(f"{self.strategy} trains the head only: the tap must sit "
                              f"directly below the output layer (found {above} above it)")
        if self.replay_kind == "latent" and not above:
            raise ConfigError(f"a latent memory pins every layer up to the tap {net.tap!r} "
                              "from batch 2, and no layer above it has weights to train")
        require_int("epochs", self.epochs, 1)
        require_int("mb", self.mb, 1)
        require_int("rm_capacity", self.rm_capacity, 0)
        if self.rm_capacity > 0 and self.replay_kind is None:
            raise ConfigError(f"rm_capacity {self.rm_capacity} needs a replay_kind")
        for name in ("lr_first", "lr_head", "lr_other", "sparsifier_alpha"):
            require_finite(name, getattr(self, name))


@dataclass
class BatchReport:
    batch_index: int
    steps: int
    mean_loss: float
    loss_trace: list
    train_ms: float


class ContinualTrainer:
    """Owns the network, the rehearsal memory and all strategy state for
    one continual run; ``train_batch`` consumes the stream batch by batch."""

    def __init__(self, net: Network, cfg: StrategyConfig, seed: int = 0):
        cfg.validate(net)
        self.net = net
        self.cfg = cfg
        self.rng = SeededRng(seed).spawn(0x5A)
        self.batch_count = 0
        self.rm = ReplayMemory(cfg.rm_capacity, SeededRng(seed).spawn(0x2E))
        # a latent memory's rows stay valid only while the lower net is pinned
        row = cfg.preset
        self.pin_lower = row.head_only or cfg.replay_kind == "latent"
        head = net.layer(net.head_name)
        self.cwr = CwrHead(head.in_features, head.units) if row.head == "cwr" else None
        # SI guards the below-head layers that can train after batch 1
        trains_later = net.layers[net.tap_index + 1:] if self.pin_lower else net.layers
        self.si = SiState(net, [l.name for l in trains_later]) if row.si else None
        self.dslda = (DsldaState(int(np.prod(net.tap_shape)), net.class_count)
                      if row.head == "dslda" else None)
        self._eval_taps = None  # (private copy of the last evaluated x, its tap activations)

    @property
    def lower_fixed(self) -> bool:
        """The layers up to the tap will not train again: DSLDA never trains
        them, and a pinned lower net trains in batch 1 alone."""
        return self.dslda is not None or (self.pin_lower and self.batch_count >= 1)

    def state(self) -> dict:
        """Everything the run carries from one batch to the next, and nothing
        else, as an ordered name -> array dict of the trainer's own arrays.
        ``counters`` is the batch count and the trainer's RNG draws, then the
        memory's RNG draws and last batch index; a run without replay holds
        an empty memory, so its ``rm.*`` arrays are empty. Left out: SI's
        ``_theta``, which consolidate sets from the snapshot that sets
        ``theta_ref``, so the two are equal between batches; ``net.lr_mult``,
        which ``_configure_batch`` rewrites at the start of each batch; and
        the eval cache, which only saves work."""
        out = {}

        def add(prefix, obj, names):
            out.update((f"{prefix}.{k}", np.asarray(getattr(obj, k))) for k in names)

        for layer in self.net.layers:
            out.update((f"{layer.name}.{k}", layer.params[k]) for k in sorted(layer.params))
            if isinstance(layer, Brn):
                add(layer.name, layer, ("mu_mov", "sigma_mov"))
        add("rm", self.rm, ("payloads", "labels", "origins"))
        out["counters"] = np.asarray([self.batch_count, self.rng._counter,
                                      self.rm.rng._counter, self.rm._last_i], dtype=np.int64)
        if self.cwr is not None:
            add("cwr", self.cwr, ("cw_w", "cw_b", "past"))
        if self.si is not None:
            for kind in ("theta_ref", "omega", "importance"):
                table = getattr(self.si, kind)
                out.update((f"si.{kind}.{ln}.{pn}", table[(ln, pn)]) for ln, pn in self.si.keys)
        if self.dslda is not None:
            add("dslda", self.dslda, ("mu", "n_c", "scatter"))
        return out

    # -- phases ----------------------------------------------------------

    def _configure_batch(self, i: int) -> None:
        """Write batch i's per-layer learning rates into ``net.lr_mult``."""
        net, cfg = self.net, self.cfg
        if i == 1:
            net.lr_mult.update(dict.fromkeys(net.lr_mult, cfg.lr_first))
            return
        net.lr_mult.update(dict.fromkeys(net.lr_mult, cfg.lr_other))
        net.lr_mult[net.head_name] = cfg.lr_head
        if self.pin_lower:
            net.freeze_below_tap()

    # a diverging run overflows before its loss or logits read non-finite,
    # and is reported once, as a StateError
    @np.errstate(over="ignore", invalid="ignore")
    def train_batch(self, x: np.ndarray, y: np.ndarray) -> BatchReport:
        i, fixed = self.batch_count + 1, self.lower_fixed  # fixed before this batch
        y = np.asarray(y, dtype=np.int64)
        if len(x) == 0:
            raise ConfigError("empty training batch")
        if len(y) != len(x):
            raise ShapeError(f"{len(y)} labels for {len(x)} rows")
        if y.min() < 0 or y.max() >= self.net.class_count:
            raise ShapeError(f"labels must lie in [0, {self.net.class_count}), "
                             f"got {y.min()}..{y.max()}")
        self.batch_count = i
        net, cfg = self.net, self.cfg
        t0 = time.perf_counter()
        # a fixed lower net runs once per native row; every step enters at the tap
        taps = net.tap_activations(x) if fixed else None
        if self.dslda is not None:
            for f, label in zip(taps, y):
                self.dslda.update(f, int(label))
            return BatchReport(i, steps=0, mean_loss=float("nan"), loss_trace=[],
                               train_ms=(time.perf_counter() - t0) * 1000.0)

        self._configure_batch(i)
        if self.cwr is not None:
            # the batch trained on is B_i u RM, so the double-memory head manages
            # the classes of the joint pool, not just the native session's
            pool_counts = np.bincount(np.concatenate([y, self.rm.labels]),
                                      minlength=net.class_count)
            self.cwr.preinit(net.layer(net.head_name), pool_counts)
            absent = pool_counts == 0

        B = len(x)
        n_nat, n_rep = compose_minibatch(self.rm, B, cfg.mb)
        iterations = -(-B // n_nat)
        sparsify = cfg.sparsifier_alpha != 0.0 and i == 1

        trace = []
        steps = np.arange(iterations)[:, None] * n_nat + np.arange(n_nat)
        for _ in range(cfg.epochs):
            # each step reads its row of the epoch's native index matrix and
            # of its replay draws, which consume the integers per-step draws would
            nat = self.rng.permutation(B)[steps % B]
            reps = self._replay_draws(n_rep, iterations) if n_rep else [None] * iterations
            for nat_idx, rep_idx in zip(nat, reps):
                # memory rows are stored where the native rows enter: at the
                # tap when the lower net is fixed, else at the input
                rows = x[nat_idx] if taps is None else taps[nat_idx]
                y_joint = y[nat_idx]
                if n_rep:
                    pay, y_rep = self.rm.stacked(rep_idx)
                    y_joint = np.concatenate([y_joint, y_rep])
                    rows = np.concatenate([rows, pay])
                if taps is None:
                    logits, tapped = net.forward(rows)
                else:
                    logits, tapped = net.forward_concat(x[:0], rows)
                loss, dlogits = softmax_xent(logits, y_joint)
                tap_extra = None
                if sparsify:
                    pen, dacts = l1_activation_penalty(tapped, cfg.sparsifier_alpha)
                    loss += pen
                    tap_extra = dacts
                grads = net.backward(dlogits, tap_grad_extra=tap_extra)
                head_g = grads.get(net.head_name) if self.cwr is not None else None
                if head_g:  # the double-memory head trains the pool's classes alone
                    head_g["w"][:, absent] = 0.0
                    head_g["b"][absent] = 0.0
                if self.si is not None:
                    si_loss, si_grads = self.si.penalty(net)
                    loss += si_loss
                    for ln, pg in si_grads.items():
                        if ln in grads:
                            for pn, g in pg.items():
                                grads[ln][pn] = grads[ln][pn] + g
                if not math.isfinite(loss):
                    raise StateError(f"non-finite loss {loss} at batch {i}, step "
                                     f"{len(trace) + 1}: the run diverged")
                net.sgd_step(grads)
                if self.si is not None:
                    self.si.accumulate(net, grads)
                trace.append(loss)

        if self.si is not None:
            self.si.consolidate(net, is_first_batch=(i == 1))
        if self.cwr is not None:
            self.cwr.consolidate(net.layer(net.head_name), pool_counts)
            self.cwr.install(net.layer(net.head_name))

        if self.rm.capacity:
            if taps is None and self.lower_fixed:  # batch 1 has trained a pinned lower net
                taps = net.tap_activations(x)
            self.rm.update(x if taps is None else taps, y, i)

        # last: freed any earlier, its blocks go to the memory's new arrays and the next
        # batch's steps page-fault fresh ones
        net._ctx = None  # between batches only state() and the eval cache stay alive
        ms = (time.perf_counter() - t0) * 1000.0
        mean_loss = float(np.mean(trace)) if trace else float("nan")
        return BatchReport(i, steps=len(trace), mean_loss=mean_loss,
                           loss_trace=trace, train_ms=ms)

    def _replay_draws(self, k: int, steps: int):
        """Replay indices for ``steps`` consecutive draws of k items from
        ``self.rng``, one row per step, in blocks of at most ``_DRAW_KEYS`` keys."""
        block = max(1, _DRAW_KEYS // len(self.rm))  # a row reads |rm| keys
        for lo in range(0, steps, block):
            yield from self.rm.sample(k, self.rng, rows=min(block, steps - lo))

    # -- prediction --------------------------------------------------------

    def _eval_tap_activations(self, x: np.ndarray) -> np.ndarray:
        """The tap activations of ``x`` under a fixed lower net, kept for
        the next call on the same content. The key is a private copy of
        the last ``x``, compared with the new one bit for bit: shape, dtype,
        then the raw bits, so -0.0 is not 0.0 and an edit the caller makes
        to its array after a call is seen."""
        kept, n = self._eval_taps, x.dtype.itemsize
        bits = f"u{n}" if n in (1, 2, 4, 8) else (np.uint8, n)  # unsigned: raw bits
        if (kept is None or kept[0].shape != x.shape or kept[0].dtype != x.dtype
                or not np.array_equal(kept[0].view(bits), x.view(bits))):
            self._eval_taps = (x.copy(), self.net.tap_activations(x))
        return self._eval_taps[1]

    def predict_logits(self, x: np.ndarray) -> np.ndarray:
        """Eval-mode logits of ``x``; a fixed lower net's pass starts from
        the kept tap activations, with the bits of ``net.predict``."""
        if not self.lower_fixed:
            return self.net.predict(x)
        return self.net.forward_from(self._eval_tap_activations(x))

    def predict_labels(self, x: np.ndarray) -> np.ndarray:
        """Top-1 labels, scored over all classes."""
        if self.dslda is not None:
            feats = self._eval_tap_activations(x).reshape(len(x), -1)
            return self.dslda.predict_batch(feats)
        with np.errstate(over="ignore", invalid="ignore"):
            logits = self.predict_logits(x)
        if not np.isfinite(logits).all():
            raise StateError(f"non-finite logits after batch {self.batch_count}: "
                             "the run diverged")
        return logits.argmax(axis=1)

    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        return float((self.predict_labels(x) == np.asarray(y)).mean())
