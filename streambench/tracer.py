"""Instrumentation of latentreplay from outside the package.

``Patcher`` replaces module functions and class methods of the package
with wrappers and puts every original attribute back on exit. ``Tracer``
builds on it: each wrapped call records one span (name, start, end,
parent) in memory, and hooks add counts at the same boundaries. Nothing
inside ``src/`` changes, so the benchmark code is identical on every
commit it measures.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

TRAIN_ROOT = "strategies.train_batch"
EVAL_ROOT = "strategies.accuracy"


def bindings(func) -> list:
    """Every (module, attribute) of the package that holds ``func``.

    ``from .kernels import softmax_xent`` copies the function into the
    importing module, so wrapping a kernel means patching each copy.
    """
    out = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "latentreplay" or name.startswith("latentreplay.")):
            continue
        for attr, value in vars(mod).items():
            if value is func:
                out.append((mod, attr))
    return out


class Patcher:
    """Installs wrappers and restores the originals, last in first out."""

    def __init__(self):
        self._saved: list = []

    def patch(self, owner, attr: str, make_wrapper) -> None:
        """Replace ``owner.attr`` with ``make_wrapper(original)``.

        For a class the attribute must be defined on the class itself,
        so restoring never shadows an inherited method.
        """
        orig = vars(owner)[attr]
        wrapper = make_wrapper(orig)
        wrapper.__wrapped__ = orig
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def patch_function(self, func, make_wrapper) -> None:
        """Patch every binding of a module-level package function."""
        targets = bindings(func)
        if not targets:
            raise LookupError(f"{func.__qualname__} is bound nowhere in latentreplay")
        wrapper = make_wrapper(func)
        wrapper.__wrapped__ = func
        for owner, attr in targets:
            self._saved.append((owner, attr, func))
            setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


# -- computed kernel costs -----------------------------------------------------


def conv2d_cost(x, kern, stride=1, pad=0, groups=1) -> tuple[int, int]:
    """(flop, bytes) of ``kernels.conv2d``, computed from shapes.

    Two flop per multiply-accumulate; bytes are one read of the input and
    the kernel and one write of the output at the input's item size. The
    implementation moves more (it widens windows to float64), so these
    are the algorithm's minimum, not a measurement.
    """
    n, c, h, w = x.shape
    f, c_g, kh, kw = kern.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    out = n * f * ho * wo
    return 2 * out * c_g * kh * kw, x.nbytes + kern.nbytes + out * x.itemsize


def conv2d_backward_cost(x, kern, dy, stride=1, pad=0, groups=1) -> tuple[int, int]:
    """(flop, bytes) of ``kernels.conv2d_backward``, computed from shapes.

    dx and dkern each take one multiply-accumulate per forward one; bytes
    are reads of x, kernel and dy plus writes of dx and dkern.
    """
    n, f, ho, wo = dy.shape
    _, c_g, kh, kw = kern.shape
    return (4 * n * f * ho * wo * c_g * kh * kw,
            2 * x.nbytes + 2 * kern.nbytes + dy.nbytes)


# -- span tracer -------------------------------------------------------------------


class Tracer(Patcher):
    """One span per wrapped call, kept in memory; counts beside them."""

    def __init__(self):
        super().__init__()
        self.spans: list = []          # (name, t0, t1, parent index)
        self.counts: dict = defaultdict(float)
        self._stack: list = []

    def _wrapper(self, name, hook=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def make(orig):
            def wrapper(*args, **kwargs):
                label = name(args) if callable(name) else name
                idx = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(idx)
                t0 = clock()
                try:
                    result = orig(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    spans[idx] = (label, t0, t1, parent)
                if hook is not None:
                    hook(result, *args, **kwargs)
                return result
            return wrapper
        return make

    def method(self, cls, attr, name, hook=None) -> None:
        self.patch(cls, attr, self._wrapper(name, hook))

    def function(self, func, name, hook=None) -> None:
        self.patch_function(func, self._wrapper(name, hook))

    # -- aggregation ---------------------------------------------------------

    def analyse(self) -> "SpanSummary":
        return SpanSummary(self.spans)


class SpanSummary:
    """Totals over a finished trace.

    Each span gets a phase from its nearest training or evaluation
    ancestor, and training spans the 1-based session of that ancestor.
    """

    def __init__(self, spans):
        if any(s is None for s in spans):
            raise RuntimeError("trace summarised while a span is still open")
        n = len(spans)
        self.spans = spans
        self.dur = [s[2] - s[1] for s in spans]
        self.child = [0.0] * n
        self.phase = [None] * n
        self.session = [0] * n
        self.total_s: dict = defaultdict(float)
        self.count: dict = defaultdict(int)
        sessions = 0
        for i, (name, _, _, parent) in enumerate(spans):
            self.total_s[name] += self.dur[i]
            self.count[name] += 1
            if parent >= 0:
                self.child[parent] += self.dur[i]
                self.phase[i] = self.phase[parent]
                self.session[i] = self.session[parent]
            if name == TRAIN_ROOT:
                sessions += 1
                self.phase[i], self.session[i] = "train", sessions
            elif name == EVAL_ROOT:
                self.phase[i] = "eval"

    def ms(self, name: str) -> float:
        return 1e3 * self.total_s.get(name, 0.0)

    def calls(self, name: str) -> int:
        return self.count.get(name, 0)

    def group_ms(self, prefix: str) -> float:
        """Time in spans named ``prefix*``, counting nested ones once."""
        total = 0.0
        for (name, _, _, parent), d in zip(self.spans, self.dur):
            if name.startswith(prefix) and not (
                    parent >= 0 and self.spans[parent][0].startswith(prefix)):
                total += d
        return 1e3 * total

    def self_ms(self, name: str) -> float:
        """Span time not covered by the span's direct children."""
        return 1e3 * sum(d - self.child[i] for i, (s, d) in
                         enumerate(zip(self.spans, self.dur)) if s[0] == name)

    def layer_ms(self, session: int | None = None) -> dict:
        """{layer: {"fwd", "bwd", "eval": ms}}; forward spans under test
        evaluation count as eval. ``session`` keeps one training session."""
        out: dict = defaultdict(lambda: {"fwd": 0.0, "bwd": 0.0, "eval": 0.0})
        for i, (name, _, _, _) in enumerate(self.spans):
            if not name.startswith("layers."):
                continue
            if session is not None and (self.phase[i] != "train"
                                        or self.session[i] != session):
                continue
            _, layer, kind = name.split(".")
            if kind == "fwd" and self.phase[i] == "eval":
                kind = "eval"
            out[layer][kind] += 1e3 * self.dur[i]
        return out


# -- the package's boundaries ----------------------------------------------------


def instrument(tracer: Tracer) -> None:
    """Wrap every package boundary the per-layer metrics read."""
    from latentreplay import kernels, layers, network, replay, rng, scenario, strategies

    counts = tracer.counts

    def conv_hook(result, *args, **kwargs):
        flop, nbytes = conv2d_cost(*args, **kwargs)
        counts["kernels.conv2d.flop"] += flop
        counts["kernels.conv2d.bytes"] += nbytes

    def conv_bwd_hook(result, *args, **kwargs):
        flop, nbytes = conv2d_backward_cost(*args, **kwargs)
        counts["kernels.conv2d_backward.flop"] += flop
        counts["kernels.conv2d_backward.bytes"] += nbytes

    tracer.function(kernels.conv2d, "kernels.conv2d", conv_hook)
    tracer.function(kernels.conv2d_backward, "kernels.conv2d_backward", conv_bwd_hook)
    for fn in ("matmul", "softmax_xent", "global_avg_pool"):
        tracer.function(getattr(kernels, fn), f"kernels.{fn}")

    for cls in (layers.Dense, layers.Conv, layers.Relu, layers.Brn,
                layers.GlobalAvgPool, layers.Flatten):
        tracer.method(cls, "forward", lambda a: f"layers.{a[0].name}.fwd")
        tracer.method(cls, "backward", lambda a: f"layers.{a[0].name}.bwd")

    def rows_hook(result, net, x, mode=layers.TRAIN):
        if mode == layers.TRAIN:
            counts["network.rows_below_tap"] += len(x)
            counts["network.rows_above_tap"] += len(x)

    def concat_rows_hook(result, net, x_native, latent_replay, mode=layers.TRAIN):
        if mode == layers.TRAIN:
            counts["network.rows_below_tap"] += len(x_native)
            counts["network.rows_above_tap"] += len(x_native) + len(latent_replay)

    Net = network.Network
    tracer.method(Net, "forward", "network.forward", rows_hook)
    tracer.method(Net, "forward_concat", "network.forward_concat", concat_rows_hook)
    for attr in ("backward", "sgd_step", "predict", "tap_activations"):
        tracer.method(Net, attr, f"network.{attr}")

    def update_hook(result, *args, **kwargs):
        added, replaced = result
        counts["replay.items_added"] += added
        counts["replay.items_replaced"] += replaced

    def stacked_hook(result, *args, **kwargs):
        counts["replay.payload_elems"] += result[0].size

    Rm = replay.ReplayMemory
    tracer.method(Rm, "sample", "replay.sample")
    tracer.method(Rm, "stacked", "replay.stacked", stacked_hook)
    tracer.method(Rm, "update", "replay.update", update_hook)
    tracer.function(replay.compose_minibatch, "replay.compose_minibatch")

    def draw_hook(result, *args, **kwargs):
        counts["rng.u64_drawn"] += len(result)

    Rng = rng.SeededRng
    tracer.method(Rng, "next_u64", "rng.next_u64", draw_hook)
    for attr in ("uniform", "normal", "randint", "choice", "permutation"):
        tracer.method(Rng, attr, f"rng.{attr}")

    def penalty_hook(result, si, net):
        total = frozen = 0
        for ln, pn in si.keys:
            size = net.layer(ln).params[pn].size
            total += size
            frozen += size if net.lr_mult[ln] == 0.0 else 0
        counts["strategies.si_frozen_param_frac.sum"] += frozen / total if total else 0.0
        counts["strategies.si_penalty.calls"] += 1

    def steps_hook(result, *args, **kwargs):
        counts["strategies.sgd_steps"] += result.steps

    Si, Cwr, Trainer = strategies.SiState, strategies.CwrHead, strategies.ContinualTrainer
    tracer.method(Si, "penalty", "strategies.si_penalty", penalty_hook)
    tracer.method(Si, "accumulate", "strategies.si_accumulate")
    tracer.method(Si, "consolidate", "strategies.si_consolidate")
    for attr in ("preinit", "consolidate", "install"):
        tracer.method(Cwr, attr, f"strategies.cwr.{attr}")
    tracer.method(Trainer, "train_batch", TRAIN_ROOT, steps_hook)
    tracer.method(Trainer, "accuracy", EVAL_ROOT)
    tracer.method(Trainer, "predict_labels", "strategies.predict_labels")

    tracer.function(scenario.generate_tinynic, "scenario.generate_tinynic")
