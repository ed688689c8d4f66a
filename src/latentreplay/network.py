"""Sequential network with a latent tap point.

The tap layer splits the net into a lower part (input .. tap, inclusive)
and an upper part (everything strictly after the tap). Latent replay
concatenates stored tap activations with the native sub-batch at that
boundary; backward stops at the boundary for replay rows, and skips the
lower part entirely when it is frozen.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeError, StateError, require_finite, require_int, require_shape
from .layers import Brn, Conv, Dense, DwConv, Flatten, GlobalAvgPool, Layer, Relu, EVAL, TRAIN
from .rng import SeededRng

Gradients = dict  # layer name -> {param name -> gradient array}

# Rows per eval-mode pass. A row's result does not depend on how many rows
# share its pass, so this bounds the scratch memory of evaluation and of
# tap extraction without changing a bit of their output.
_EVAL_ROWS = 64

# a layer spec's integer fields and the least value of each
_INT_FIELDS = {"units": 1, "out_channels": 1, "kernel": 1, "stride": 1, "pad": 0, "groups": 1}


class Network:
    _ctx = None  # the last training pass's record for backward; see _forward

    def __init__(self, layers: list[Layer], input_shape: tuple, tap: str,
                 head_name: str | None = None):
        names = [l.name for l in layers]
        if len(set(names)) != len(names):
            raise ConfigError("layer names must be unique")
        self.layers = layers
        self.input_shape = tuple(input_shape)
        if tap not in names:
            raise ConfigError(f"tap layer {tap!r} not in network")
        self.tap = tap
        self.tap_index = names.index(tap)
        self._by_name = dict(zip(names, layers))
        self.head_name = head_name or names[-1]
        if self.head_name not in names:
            raise ConfigError(f"head layer {self.head_name!r} not in network")
        # per-layer learning rates, which sgd_step applies as given (absolute
        # rates despite the name); a rate of 0 freezes the layer
        self.lr_mult = {n: 1.0 for n in names}
        self._shapes, cur = {}, self.input_shape  # layer name -> its output shape
        for layer in layers:
            cur = self._shapes[layer.name] = layer.out_shape(cur)

    # -- shape bookkeeping -------------------------------------------------

    @property
    def tap_shape(self) -> tuple:
        return self._shapes[self.tap]

    @property
    def class_count(self) -> int:
        return self._shapes[self.layers[-1].name][-1]

    def layer(self, name: str) -> Layer:
        return self._by_name[name]

    def out_shape_of(self, name: str) -> tuple:
        return self._shapes[name]

    # -- freezing ----------------------------------------------------------

    @property
    def frozen_below_tap(self) -> bool:
        """Every layer at or below the tap has rate 0."""
        return all(self.lr_mult[l.name] == 0.0 for l in self.layers[:self.tap_index + 1])

    def freeze_below_tap(self) -> None:
        """Set the rate of every layer at or below the tap to 0: the lower
        net is fixed, and every pass runs it in eval mode (see _forward)."""
        for layer in self.layers[:self.tap_index + 1]:
            self.lr_mult[layer.name] = 0.0

    # -- forward ---------------------------------------------------------------

    def _run(self, layers, x, mode, caches=None):
        for layer in layers:
            x, cache = layer.forward(x, mode)
            if caches is not None:
                caches.append((layer, cache))
        return x

    def _forward(self, x, latent):
        """Native rows ``x`` through the whole net, ``latent`` rows joined
        at the tap after them; either may be None. Returns (logits over the
        joint batch, copy of the native tap activations).

        The pass records exactly what backward walks: the upper part's
        caches always, the lower part's only when there are native rows and
        the lower part trains; else the lower part runs in eval mode, as in
        ``tap_activations``, and its BRN moments stay put. It first drops the
        last pass's record: its caches are freed before this pass builds its
        own, and a pass that raises leaves none.
        """
        self._ctx = None
        n_native = 0 if x is None else len(x)
        n_rows = n_native + (0 if latent is None else len(latent))
        if n_rows == 0:
            raise ShapeError("empty batch: no native and no replay rows")
        if x is not None:
            self._check_input(x)
        if latent is not None:
            self._check_latent(latent)
        ti = self.tap_index
        below = [] if n_native and not self.frozen_below_tap else None
        above = []
        tapped = np.zeros((0,) + self.tap_shape, dtype=np.float32)
        joint = latent
        if n_native:
            out = self._run(self.layers[:ti + 1], x, EVAL if below is None else TRAIN, below)
            tapped = out.copy()
            joint = np.concatenate([out, latent], axis=0) if n_rows > n_native else out
        logits = self._run(self.layers[ti + 1:], joint, TRAIN, above)
        self._ctx = {"below": below or [], "above": above, "n_native": n_native,
                     "n_rows": n_rows}
        return logits, tapped

    def forward(self, x: np.ndarray):
        """Training pass of the whole net; returns (logits, copy of tap activations)."""
        return self._forward(x, None)

    def forward_concat(self, x_native: np.ndarray | None, latent_replay: np.ndarray):
        """Training pass of native rows through the whole net, replay rows
        joined after them at the tap; ``x_native`` None, or with no rows,
        trains from the tap up. Returns (logits over the joint batch, copy of
        the native tap activations)."""
        return self._forward(x_native, latent_replay)

    def forward_from(self, latent: np.ndarray) -> np.ndarray:
        """Eval-mode logits of tap activations: only the layers strictly
        above the tap run, in chunks, as ``predict`` runs the whole net."""
        return self._chunked(self.layers[self.tap_index + 1:], latent, self._check_latent)

    def tap_activations(self, x: np.ndarray) -> np.ndarray:
        """Eval-mode activations at the tap (no caches, no moment updates)."""
        return self._chunked(self.layers[:self.tap_index + 1], x, self._check_input)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Eval-mode logits, computed in chunks."""
        return self._chunked(self.layers, x, self._check_input)

    def _chunked(self, layers, x, check):
        """Eval-mode output of ``layers`` (consecutive layers of the net)
        for rows ``x``, which ``check`` validates, run in passes of at most
        ``_EVAL_ROWS`` rows that each fill their slice of one float32 output."""
        if len(x) == 0:
            raise ShapeError("empty batch: no rows to evaluate")
        check(x)
        shape = self._shapes[layers[-1].name] if layers else x.shape[1:]  # a tap at the head
        out = np.empty((len(x),) + shape, dtype=np.float32)
        for lo in range(0, len(x), _EVAL_ROWS):
            out[lo:lo + _EVAL_ROWS] = self._run(layers, x[lo:lo + _EVAL_ROWS], EVAL)
        return out

    def _check_input(self, x):
        if x.shape[1:] != self.input_shape:
            raise ShapeError(f"input shape {x.shape[1:]} != {self.input_shape}")

    def _check_latent(self, latent):
        if latent.shape[1:] != self.tap_shape:
            raise ShapeError(f"latent shape {latent.shape[1:]} != tap {self.tap_shape}")

    # -- backward / update ---------------------------------------------------

    def backward(self, dlogits: np.ndarray,
                 tap_grad_extra: np.ndarray | None = None) -> Gradients:
        """Backprop from dlogits through the last training pass (``forward``
        or ``forward_concat``), walking the caches that pass recorded.

        Replay rows stop at the tap boundary: only the native rows of the
        tap gradient continue into the lower part, and backward stops at
        the tap when forward recorded no lower part (no native rows, or
        the lower part frozen). ``tap_grad_extra`` is added to the native
        tap gradient (auxiliary losses on the tap activations, e.g. the L1
        sparsifier).

        A layer computes its input gradient only when a layer below it
        reads it: the network's first layer never does, and the lowest
        layer above the tap does not when backward stops at the tap.
        """
        if self._ctx is None:
            raise StateError("backward called without a preceding training pass")
        ctx = self._ctx
        if len(dlogits) != ctx["n_rows"]:
            raise ShapeError(f"dlogits has {len(dlogits)} rows, forward had {ctx['n_rows']}")
        grads: Gradients = {}
        above, below = ctx["above"], ctx["below"]
        d = dlogits
        for layer, cache in reversed(above):
            d, g = layer.backward(d, cache, need_dx=bool(below) or layer is not above[0][0])
            if g:
                grads[layer.name] = g
        if not below:
            return grads
        n_native = ctx["n_native"]
        d = d[:n_native]
        if tap_grad_extra is not None:
            d = d + tap_grad_extra[:n_native]
        for layer, cache in reversed(below):
            # nothing reads the gradient with respect to the network input
            d, g = layer.backward(d, cache, need_dx=layer is not below[0][0])
            if g:
                grads[layer.name] = g
        return grads

    def sgd_step(self, grads: Gradients) -> None:
        """theta <- theta - lr_mult(layer) * g for each layer in ``grads``;
        rate 0 skips the layer. Layers update independently of each other."""
        for name, g in grads.items():
            lr = self.lr_mult[name]
            if not g or lr == 0.0:
                continue
            params = self._by_name[name].params
            for key, grad in g.items():
                params[key] -= (lr * grad.astype(np.float64)).astype(np.float32)

    # -- serialization -------------------------------------------------------

    @staticmethod
    def from_spec(doc: dict, seed: int = 0) -> "Network":
        rng = SeededRng(seed).spawn(0xA11C)
        input_shape = require_shape("input_shape", doc["input_shape"])
        cur = input_shape
        layers: list[Layer] = []
        for item in doc["layers"]:
            kind, name = item["kind"], item["name"]
            for key in item:
                if key in _INT_FIELDS:
                    require_int(f"{name}.{key}", item[key], _INT_FIELDS[key])
            if kind == "dense":
                layers.append(Dense(name, cur[0], item["units"], rng=rng))
            elif kind == "conv":
                out, groups = item["out_channels"], item.get("groups", 1)
                if cur[0] % groups or out % groups:
                    raise ConfigError(f"{name}.groups {groups} must divide its {cur[0]} "
                                      f"in and {out} out channels")
                layers.append(Conv(name, cur[0], out, item["kernel"], item.get("stride", 1),
                                   item.get("pad", 0), groups, rng=rng))
            elif kind == "dwconv":
                layers.append(DwConv(name, cur[0], item["kernel"],
                                     item.get("stride", 1), item.get("pad", 0), rng=rng))
            elif kind == "relu":
                layers.append(Relu(name))
            elif kind == "brn":
                r_max, d_max, avg_rate = (item.get("r_max", 1.25), item.get("d_max", 0.5),
                                          item.get("avg_rate", 0.99995))
                require_finite(f"{name}.r_max", r_max, minimum=1)
                require_finite(f"{name}.d_max", d_max)
                require_finite(f"{name}.avg_rate", avg_rate, maximum=1)
                layers.append(Brn(name, cur[0], r_max, d_max, avg_rate))
            elif kind == "avgpool":
                layers.append(GlobalAvgPool(name))
            elif kind == "flatten":
                layers.append(Flatten(name))
            else:
                raise ConfigError(f"unknown layer kind {kind!r}")
            try:
                cur = layers[-1].out_shape(cur)
            except (ShapeError, ValueError) as exc:  # ValueError: a rank that does not unpack
                raise ConfigError(f"{name} does not fit its input {cur}: {exc}") from exc
        return Network(layers, input_shape, doc["tap"], doc.get("head"))
