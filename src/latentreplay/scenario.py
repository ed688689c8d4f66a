"""Non-i.i.d. stream generation (TinyNIC), dataset IO, and the protocol
runner with its cumulative upper-bound baseline.

TinyNIC is a desk-scale analog of video-session class-incremental
streams: every batch after the first holds one short session of a
single object instance, with strongly correlated consecutive frames
(a bounded random walk around the instance's base pattern). The first
batch introduces several classes at once; later batches bring both new
classes and new instances of known ones.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, TensorFormatError, require_finite, require_int, require_shape
from .network import Network
from .rng import SeededRng
from .strategies import ContinualTrainer, StrategyConfig
from .tensorio import load_tensor, save_tensor


@dataclass
class ScenarioParams:
    classes: int = 10
    instances_per_class: int = 5
    frames_per_session: int = 50
    first_batch_classes: int = 4
    first_batch_instances: int = 2
    test_frames_per_instance: int = 20
    pattern_shape: tuple = (1, 16, 16)
    instance_jitter: float = 0.5
    step_sigma: float = 0.08
    walk_bound: float = 0.5

    def validate(self) -> None:
        for name in ("classes", "instances_per_class", "frames_per_session",
                     "first_batch_classes", "first_batch_instances"):
            require_int(name, getattr(self, name), 0)
        require_int("test_frames_per_instance", self.test_frames_per_instance, 1)
        require_shape("pattern_shape", self.pattern_shape)
        for name in ("instance_jitter", "step_sigma", "walk_bound"):
            require_finite(name, getattr(self, name))
        if self.classes < 2:
            raise ConfigError("need at least two classes")
        if not (1 <= self.first_batch_classes <= self.classes):
            raise ConfigError("first_batch_classes out of range")
        if not (1 <= self.first_batch_instances <= self.instances_per_class):
            raise ConfigError("first_batch_instances out of range")
        if self.frames_per_session < 1 or self.instances_per_class < 1:
            raise ConfigError("sessions must be non-empty")

    def n_batches(self) -> int:
        return 1 + (self.classes * self.instances_per_class
                    - self.first_batch_classes * self.first_batch_instances)


@dataclass
class SessionBatch:
    x: np.ndarray  # [n, c, h, w] float32
    y: np.ndarray  # [n] int64


@dataclass
class NicScenario:
    classes: int
    seed: int
    batches: list
    test_x: np.ndarray
    test_y: np.ndarray

    def union(self):
        x = np.concatenate([b.x for b in self.batches])
        y = np.concatenate([b.y for b in self.batches])
        return x, y


def _walk_session(rng: SeededRng, base: np.ndarray, frames: int,
                  step: float, bound: float) -> np.ndarray:
    """``frames`` frames of ``base`` plus a random walk whose offset is
    clipped to +-``bound`` after each ``step``-scaled normal step."""
    walk = step * rng.normal_rows(frames, base.shape, dtype=np.float64)
    w = np.zeros(base.shape, dtype=np.float64)
    for t in range(frames):
        w = np.clip(w + walk[t], -bound, bound)
        walk[t] = w
    return (base + walk).astype(np.float32)


def generate_tinynic(params: ScenarioParams, seed: int) -> NicScenario:
    """Deterministic TinyNIC scenario for a given (params, seed)."""
    params.validate()
    rng = SeededRng(seed).spawn(0x711C)
    shape = tuple(params.pattern_shape)
    protos = rng.normal_rows(params.classes, shape, dtype=np.float64)

    train_sessions: dict[tuple, np.ndarray] = {}
    test_sessions: dict[tuple, np.ndarray] = {}
    for c in range(params.classes):
        for inst in range(params.instances_per_class):
            base = protos[c] + params.instance_jitter * rng.normal(shape, dtype=np.float64)
            train_sessions[(c, inst)] = _walk_session(
                rng, base, params.frames_per_session, params.step_sigma, params.walk_bound)
            test_sessions[(c, inst)] = _walk_session(
                rng, base, params.test_frames_per_instance, params.step_sigma,
                params.walk_bound)

    first_keys = [(c, inst) for inst in range(params.first_batch_instances)
                  for c in range(params.first_batch_classes)]
    batches = [SessionBatch(
        x=np.concatenate([train_sessions[k] for k in first_keys]),
        y=np.concatenate([np.full(params.frames_per_session, k[0], dtype=np.int64)
                          for k in first_keys]))]
    for inst in range(params.instances_per_class):
        for c in range(params.classes):
            if (c, inst) in first_keys:
                continue
            batches.append(SessionBatch(
                x=train_sessions[(c, inst)],
                y=np.full(params.frames_per_session, c, dtype=np.int64)))

    test_x = np.concatenate([test_sessions[k] for k in sorted(test_sessions)])
    test_y = np.concatenate([np.full(params.test_frames_per_instance, k[0], dtype=np.int64)
                             for k in sorted(test_sessions)])
    return NicScenario(params.classes, seed, batches, test_x, test_y)


# -- protocol ---------------------------------------------------------------


@dataclass
class MetricsRow:
    batch_index: int
    test_accuracy: float
    train_ms: float
    rm_items: int


def run_protocol(net: Network, strategy_cfg: StrategyConfig, scenario: NicScenario,
                 seed: int = 0, eval_every: int = 1,
                 record_timing: bool = True) -> list[MetricsRow]:
    """Train along the stream; evaluate on the fixed test set after each
    batch (or every ``eval_every`` batches). One row per evaluation."""
    if net.class_count < scenario.classes:
        raise ConfigError(f"network scores {net.class_count} classes, "
                          f"scenario has {scenario.classes}")
    if scenario.test_x.shape[1:] != net.input_shape:
        raise ConfigError(f"network takes {net.input_shape} inputs, scenario "
                          f"patterns are {scenario.test_x.shape[1:]}")
    require_int("eval_every", eval_every, 1)
    trainer = ContinualTrainer(net, strategy_cfg, seed)
    rows = []
    n = len(scenario.batches)
    for k, batch in enumerate(scenario.batches, start=1):
        report = trainer.train_batch(batch.x, batch.y)
        if k % eval_every and k != n:
            continue
        acc = trainer.accuracy(scenario.test_x, scenario.test_y)
        rows.append(MetricsRow(
            batch_index=k, test_accuracy=acc,
            train_ms=report.train_ms if record_timing else 0.0,
            rm_items=len(trainer.rm)))
    return rows


def cumulative_baseline(net: Network, scenario: NicScenario,
                        epochs: int = 8, mb: int = 32, lr: float = 0.001,
                        seed: int = 0) -> MetricsRow:
    """Upper bound: one joint training on the shuffled union of all batches."""
    x, y = scenario.union()
    perm = SeededRng(seed).spawn(0xC0).permutation(len(x))
    cfg = StrategyConfig(strategy="naive", epochs=epochs, mb=mb, lr_first=lr)
    trainer = ContinualTrainer(net, cfg, seed)
    report = trainer.train_batch(x[perm], y[perm])
    acc = trainer.accuracy(scenario.test_x, scenario.test_y)
    return MetricsRow(batch_index=len(scenario.batches), test_accuracy=acc,
                      train_ms=report.train_ms, rm_items=0)


# -- dataset and metrics IO ---------------------------------------------------


def save_scenario(scenario: NicScenario, directory) -> str:
    """Materialize a scenario as manifest + tensor files; returns the
    manifest path."""
    os.makedirs(directory, exist_ok=True)
    entries = []
    for k, batch in enumerate(scenario.batches):
        fname = f"batch_{k:03d}.lrt"
        save_tensor(os.path.join(directory, fname), batch.x)
        entries.append({"file": fname, "labels": [int(v) for v in batch.y]})
    save_tensor(os.path.join(directory, "test.lrt"), scenario.test_x)
    manifest = {
        "classes": scenario.classes,
        "pattern_shape": list(scenario.batches[0].x.shape[1:]),
        "seed": scenario.seed,
        "batches": entries,
        "test": {"file": "test.lrt", "labels": [int(v) for v in scenario.test_y]},
    }
    path = os.path.join(directory, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh)
    return path


def _labels(values, classes: int, fname: str) -> np.ndarray:
    """The manifest labels of ``fname``; each must be an integer in [0, classes)."""
    if not isinstance(values, list):
        raise TensorFormatError(f"{fname}: labels must be a list, got {values!r}")
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < classes:
            raise TensorFormatError(f"{fname}: label {v!r} is not an integer "
                                    f"in [0, {classes})")
    return np.asarray(values, dtype=np.int64)


def _split(manifest_path, name: str, entry, classes: int, shape: tuple):
    """(patterns, labels) of the manifest's split ``name``, an object
    ``{"file", "labels"}``."""
    if not isinstance(entry, dict):
        raise TensorFormatError(f"{manifest_path}: {name} must be an object, got {entry!r}")
    fname = entry["file"]
    if not isinstance(fname, str):
        raise TensorFormatError(f"{manifest_path}: {name}.file must be a string, "
                                f"got {fname!r}")
    x = load_tensor(os.path.join(os.path.dirname(manifest_path), fname))
    y = _labels(entry["labels"], classes, fname)
    if x.shape[0] != len(y) or x.shape[1:] != shape:
        raise TensorFormatError(f"{fname}: payload shape {x.shape} disagrees with manifest")
    return x, y


def load_dataset(manifest_path) -> NicScenario:
    """Load a materialized scenario; deterministic order per manifest."""
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise TensorFormatError(f"{manifest_path}: the manifest must be an object")
    try:
        shape = require_shape(f"{manifest_path}: pattern_shape", manifest["pattern_shape"],
                              TensorFormatError)
        classes = manifest["classes"]
        require_int("classes", classes, 2)
        entries = manifest["batches"]
        if not isinstance(entries, list):
            raise TensorFormatError(f"{manifest_path}: batches must be a list, got {entries!r}")
        batches = [SessionBatch(*_split(manifest_path, f"batches[{k}]", entry, classes, shape))
                   for k, entry in enumerate(entries)]
        test_x, test_y = _split(manifest_path, "test", manifest["test"], classes, shape)
    except KeyError as exc:
        raise TensorFormatError(f"{manifest_path}: missing key {exc.args[0]!r}") from None
    if not len(test_y):
        raise TensorFormatError(f"{manifest_path}: the test split has no labels")
    return NicScenario(classes, manifest.get("seed", 0), batches, test_x, test_y)


def write_metrics_csv(rows: list[MetricsRow], path) -> None:
    """Fixed-format CSV (byte-stable for identical rows)."""
    with open(path, "w", newline="") as fh:
        fh.write("batch,accuracy,train_ms,rm_items\n")
        for r in rows:
            fh.write(f"{r.batch_index},{r.test_accuracy:.6f},"
                     f"{r.train_ms:.3f},{r.rm_items}\n")
