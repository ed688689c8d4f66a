"""Workloads, stream runs, output checks and metrics of the benchmark.

Imports numpy and latentreplay at the top, so ``run.py`` pins the BLAS
threads and puts the checkout's ``src`` on the path before importing it.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np

from latentreplay import (ContinualTrainer, LayerCostTable, ScenarioParams,
                          StrategyConfig, build_tinynic_network, computation_pct,
                          run_protocol, scenario, strategies)
from timing import PROBE_REF_MS, Probe, tail
from tracer import Patcher, Tracer, instrument

# ``streams``: timed streams per --trace 0 run. ar1-pool-rm1500's sessions
# fall into a few work levels (32 to 160 SGD steps as its memory grows),
# and with 33 samples the tail percentile sits on a level boundary; its
# streams are the shortest, so it times two.
WORKLOADS = {
    "latent-relu3-rm500": {"tap": "relu3", "strategy": "ar1*free",
                           "replay_kind": "latent", "rm_capacity": 500, "streams": 1},
    "native-rm500": {"tap": "relu3", "strategy": "ar1*free",
                     "replay_kind": "native", "rm_capacity": 500, "streams": 1},
    "ar1-pool-rm1500": {"tap": "pool", "strategy": "ar1*",
                        "replay_kind": "latent", "rm_capacity": 1500, "streams": 2},
}
STREAM = ScenarioParams(classes=10, instances_per_class=4, frames_per_session=40,
                        first_batch_classes=4, first_batch_instances=2,
                        test_frames_per_instance=20)
LRS = {"lr_first": 0.03, "lr_head": 0.09, "lr_other": 0.009, "mb": 48}
NET_SEED = 1
TAPS = ("relu1", "relu2", "relu3", "relu4", "relu5", "pool")
SETUP_REPS = 7
# Sessions replayed by the determinism check of an untraced invocation:
# session 1 trains every layer, and the rm500 memories start replacing
# items in session 6.
CHECK_SESSIONS = 6


def build_network(workload: dict):
    return build_tinynic_network(classes=STREAM.classes, seed=NET_SEED,
                                 tap=workload["tap"])


def strategy_config(workload: dict) -> StrategyConfig:
    return StrategyConfig(strategy=workload["strategy"],
                          replay_kind=workload["replay_kind"],
                          rm_capacity=workload["rm_capacity"], **LRS)


# -- one stream ---------------------------------------------------------------------


def session_problem(trainer, report) -> str | None:
    """Why a finished session's outputs are wrong, or None."""
    if not all(math.isfinite(v) for v in [*report.loss_trace, report.mean_loss]):
        return "non-finite loss"
    for layer in trainer.net.layers:
        arrays = list(layer.params.values())
        arrays += [getattr(layer, m) for m in ("mu_mov", "sigma_mov") if hasattr(layer, m)]
        if not all(np.isfinite(a).all() for a in arrays):
            return f"non-finite parameter or BRN moment in {layer.name}"
    rm = trainer.rm
    if rm is not None and len(rm) > rm.capacity:
        return f"replay memory holds {len(rm)} items, capacity {rm.capacity}"
    return None


class SessionClock:
    """Times each session of a ``run_protocol`` call from outside.

    Wraps ``ContinualTrainer.train_batch`` and ``.accuracy`` (the test
    evaluation) with timers, runs the host-speed probe just before each
    session, checks each session's outputs, and counts SGD rows at the
    loss. Probe and check time is kept apart so it can be taken out of
    the stream's wall time.
    """

    def __init__(self, probe: Probe):
        self.probe = probe
        self.probes: list = []
        self.train_ms: list = []
        self.eval_ms: list = []
        self.rows = 0
        self.own_s = 0.0
        self.bad: dict = {}            # session -> problem

    def install(self, patcher: Patcher) -> None:
        trainer_cls = strategies.ContinualTrainer
        patcher.patch(trainer_cls, "train_batch", self._wrap_train)
        patcher.patch(trainer_cls, "accuracy", self._wrap_eval)
        patcher.patch_function(strategies.softmax_xent, self._wrap_loss)

    def _wrap_train(self, orig):
        def train_batch(trainer, *args, **kwargs):
            t = time.perf_counter()
            self.probes.append(self.probe())
            session = len(self.probes)
            t0 = time.perf_counter()
            try:
                report = orig(trainer, *args, **kwargs)
            except Exception as exc:
                self.bad[session] = f"raised {exc!r}"
                raise
            t1 = time.perf_counter()
            self.train_ms.append(1e3 * (t1 - t0))
            problem = session_problem(trainer, report)
            if problem:
                self.bad[session] = problem
            self.own_s += (t0 - t) + (time.perf_counter() - t1)
            return report
        return train_batch

    def _wrap_eval(self, orig):
        def accuracy(*args, **kwargs):
            t0 = time.perf_counter()
            acc = orig(*args, **kwargs)
            self.eval_ms.append(1e3 * (time.perf_counter() - t0))
            return acc
        return accuracy

    def _wrap_loss(self, orig):
        def softmax_xent(logits, labels):
            self.rows += len(logits)
            return orig(logits, labels)
        return softmax_xent


class StreamRun:
    """Timings, accuracies and failed sessions of one ``run_protocol`` call.

    Each session's times are normalised by the mean of the probes before
    and after it: ms x PROBE_REF_MS / probe ms, i.e. milliseconds at the
    reference host speed. ``wall_s`` stays raw.
    """

    def __init__(self, clock: SessionClock, accs: list, wall_s: float,
                 sessions: int, tracer: Tracer | None):
        self.clock, self.accs, self.tracer = clock, accs, tracer
        self.sessions = sessions
        self.bad = dict(clock.bad)
        for k in range(len(accs) + 1, sessions + 1):
            self.bad.setdefault(k, "no metrics row")
        self.wall_s = wall_s
        p = clock.probes
        factor = [2 * PROBE_REF_MS / (a + b) for a, b in zip(p, p[1:])]
        self.train_ms = [t * f for t, f in zip(clock.train_ms, factor)]
        self.eval_ms = [t * f for t, f in zip(clock.eval_ms, factor)]
        busy_s = (sum(clock.train_ms) + sum(clock.eval_ms)) / 1e3
        rest_s = max(wall_s - busy_s, 0.0)
        mean_f = statistics.fmean(factor) if factor else 1.0
        self.stream_s = (sum(self.train_ms) + sum(self.eval_ms)) / 1e3 + rest_s * mean_f


def run_stream(stream, workload: dict, probe: Probe, traced: bool = False) -> StreamRun:
    """One closed-loop stream: each session starts after the previous
    session's training and evaluation have returned."""
    net = build_network(workload)
    cfg = strategy_config(workload)
    clock = SessionClock(probe)
    tracer = Tracer() if traced else None
    accs = []
    # the clock is installed last, so its probe runs outside traced spans
    with tracer or nullcontext(), Patcher() as patcher:
        if tracer is not None:
            instrument(tracer)
        clock.install(patcher)
        t0 = time.perf_counter()
        try:
            rows = run_protocol(net, cfg, stream, seed=NET_SEED)
            accs = [r.test_accuracy for r in rows]
        except Exception:  # the clock has recorded the failed session
            pass
        wall_s = time.perf_counter() - t0 - clock.own_s
    clock.probes.append(probe())
    return StreamRun(clock, accs, wall_s, len(stream.batches), tracer)


def setup(seed: int, workload: dict, probe: Probe) -> tuple:
    """Generate the stream, build the network and construct a trainer,
    ``SETUP_REPS`` times; returns (stream, normalised seconds per rep)."""
    times, stream = [], None
    for _ in range(SETUP_REPS):
        before = probe()
        t0 = time.perf_counter()
        stream = scenario.generate_tinynic(STREAM, seed=seed)
        ContinualTrainer(build_network(workload), strategy_config(workload), seed=NET_SEED)
        raw = time.perf_counter() - t0
        times.append(raw * 2 * PROBE_REF_MS / (before + probe()))
    return stream, times


def check_determinism(runs: list) -> None:
    """Streams of one invocation share every seed, so their per-session
    accuracies must agree bit for bit, traced or not, over the sessions
    both ran."""
    reference = runs[0].accs
    for run in runs[1:]:
        for k, (a, b) in enumerate(zip(run.accs, reference), start=1):
            if a != b:
                run.bad.setdefault(k, f"accuracy {a!r} differs from first stream's {b!r}")


# -- metrics ------------------------------------------------------------------------


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end_metrics(runs: list, setup_s: list, notes: list) -> dict:
    train = [t for r in runs for t in r.train_ms]
    evals = [t for r in runs for t in r.eval_ms]
    rows = sum(r.clock.rows for r in runs)
    p_train, train_tail, n_train = tail(train)
    p_eval, eval_tail, n_eval = tail(evals)
    notes.append(f"session_ms_tail is p{p_train:g} of {n_train} sessions; "
                 f"eval_ms_tail is p{p_eval:g} of {n_eval} evaluations")
    notes.append(f"stream_wall_s {statistics.median(r.wall_s for r in runs):.6f} s "
                 "(raw wall time of one run_protocol call, median over timed streams)")
    return {
        "setup_s": metric(statistics.median(setup_s), "s"),
        "stream_s": metric(statistics.median(r.stream_s for r in runs), "s"),
        "session_ms_p50": metric(statistics.median(train), "ms"),
        "session_ms_tail": metric(train_tail, "ms"),
        "eval_ms_p50": metric(statistics.median(evals), "ms"),
        "eval_ms_tail": metric(eval_tail, "ms"),
        "train_rows_per_s": metric(rows / (sum(train) / 1e3), "rows/s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                              "MB"),
    }


def per_layer_metrics(plain: StreamRun, traced: StreamRun, generate_ms: float,
                      net) -> dict:
    s = traced.tracer.analyse()
    counts = traced.tracer.counts
    out = {}
    for k in ("conv2d", "conv2d_backward"):
        name = f"kernels.{k}"
        ms = s.ms(name)
        mflop = counts[f"{name}.flop"] / 1e6
        out[f"{name}.calls"] = metric(s.calls(name), "count")
        out[f"{name}.ms"] = metric(ms, "ms")
        out[f"{name}.mflop"] = metric(mflop, "Mflop")
        out[f"{name}.mbytes"] = metric(counts[f"{name}.bytes"] / 1e6, "MB")
        out[f"{name}.mflop_per_s"] = metric(mflop / (ms / 1e3) if ms else 0.0, "Mflop/s")
    out["kernels.matmul.calls"] = metric(s.calls("kernels.matmul"), "count")
    for k in ("matmul", "softmax_xent", "global_avg_pool"):
        out[f"kernels.{k}.ms"] = metric(s.ms(f"kernels.{k}"), "ms")

    layer_ms = s.layer_ms()
    for layer in net.layers:
        ms = layer_ms[layer.name]
        out[f"layers.{layer.name}.fwd_ms"] = metric(ms["fwd"], "ms")
        out[f"layers.{layer.name}.bwd_ms"] = metric(ms["bwd"], "ms")
        if layer.params and layer.kind != "brn":
            out[f"layers.{layer.name}.eval_ms"] = metric(ms["eval"], "ms")

    for k in ("forward", "forward_concat", "backward", "sgd_step", "predict",
              "tap_activations"):
        out[f"network.{k}.ms"] = metric(s.ms(f"network.{k}"), "ms")
    below, above = counts["network.rows_below_tap"], counts["network.rows_above_tap"]
    out["network.rows_below_tap"] = metric(below, "count")
    out["network.rows_above_tap"] = metric(above, "count")
    out["network.replay_row_share"] = metric((above - below) / above, "fraction")

    for k in ("sample", "stacked", "update", "compose_minibatch"):
        out[f"replay.{k}.ms"] = metric(s.ms(f"replay.{k}"), "ms")
    for k in ("items_added", "items_replaced", "payload_elems"):
        out[f"replay.{k}"] = metric(counts[f"replay.{k}"], "count")

    out["rng.u64_drawn"] = metric(counts["rng.u64_drawn"], "count")
    out["rng.ms"] = metric(s.group_ms("rng."), "ms")

    for k in ("si_penalty", "si_accumulate", "si_consolidate", "predict_labels"):
        out[f"strategies.{k}.ms"] = metric(s.ms(f"strategies.{k}"), "ms")
    out["strategies.cwr.ms"] = metric(s.group_ms("strategies.cwr."), "ms")
    out["strategies.train_batch.self_ms"] = metric(s.self_ms("strategies.train_batch"), "ms")
    out["strategies.sgd_steps"] = metric(counts["strategies.sgd_steps"], "count")
    calls = counts["strategies.si_penalty.calls"]
    frac = counts["strategies.si_frozen_param_frac.sum"] / calls if calls else 0.0
    out["strategies.si_frozen_param_frac"] = metric(frac, "fraction")

    out["scenario.generate_tinynic.ms"] = metric(generate_ms, "ms")

    # session 1 trains every layer on every row, so its per-layer split
    # is the measured cost of a row that enters above each tap
    first = s.layer_ms(session=1)
    names = [layer.name for layer in net.layers]
    cost = [first[n]["fwd"] + first[n]["bwd"] for n in names]
    table = LayerCostTable.from_network(net)
    for tap in TAPS:
        out[f"accounting.computation_pct.{tap}"] = metric(computation_pct(table, tap), "%")
        out[f"accounting.measured_replay_cost_pct.{tap}"] = metric(
            100.0 * sum(cost[names.index(tap) + 1:]) / sum(cost), "%")

    out["quality.final_acc"] = metric(plain.accs[-1], "fraction")
    out["quality.mean_acc"] = metric(statistics.fmean(plain.accs), "fraction")
    out["trace.overhead_pct"] = metric(100.0 * (traced.stream_s / plain.stream_s - 1.0), "%")
    return out


# -- environment --------------------------------------------------------------------


def blas_threads() -> str:
    """Threads the loaded OpenBLAS reports, read from the library itself."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return "unknown"
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def src_hash(pkg: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in pkg.rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(pkg: Path) -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"python={platform.python_version()} numpy={np.__version__} "
            f"blas={blas.get('name')}-{blas.get('version')} blas_threads={blas_threads()} "
            f"nproc={len(os.sched_getaffinity(0))} "
            f"os_threads={len(os.listdir('/proc/self/task'))} "
            f"latentreplay_sha256={src_hash(pkg)}")


# -- one invocation -----------------------------------------------------------------


def run(workload_name: str, seed: int, seconds: float, trace: bool, pkg: Path) -> int:
    workload = WORKLOADS[workload_name]
    probe = Probe()
    probe()  # the first call pays numpy's lazy set-up
    notes = [f"env {environment(pkg)}"]
    stream, setup_s = setup(seed, workload, probe)

    if trace:
        with Tracer() as gen_tracer:
            instrument(gen_tracer)
            scenario.generate_tinynic(STREAM, seed=seed)
        generate_ms = gen_tracer.analyse().ms("scenario.generate_tinynic")
        timed = [run_stream(stream, workload, probe),
                 run_stream(stream, workload, probe, traced=True)]
        runs = timed
    else:
        timed, t0 = [], time.perf_counter()
        while len(timed) < workload["streams"] or time.perf_counter() - t0 < seconds:
            timed.append(run_stream(stream, workload, probe))
        prefix = replace(stream, batches=stream.batches[:CHECK_SESSIONS])
        runs = timed + [run_stream(prefix, workload, probe)]
    check_determinism(runs)
    attempted = sum(r.sessions for r in runs)
    failed = sum(len(r.bad) for r in runs)
    complete = failed == 0

    notes.append(f"workload {workload_name} seed {seed} trace {int(trace)}: "
                 f"{len(timed)} timed streams; {len(runs)} streams, {attempted} sessions, "
                 f"{failed} failed")
    if not complete:
        metrics = {}
    elif trace:
        metrics = per_layer_metrics(timed[0], timed[1], generate_ms, build_network(workload))
        notes.append("kernels.*.mflop and .mbytes are computed from shapes, not measured")
    else:
        metrics = end_to_end_metrics(timed, setup_s, notes)
    if runs[0].accs:
        accs = runs[0].accs
        notes.append(f"final_acc {accs[-1]:.6f} mean_acc {statistics.fmean(accs):.6f} "
                     "(fraction; deterministic for a seed)")
    for k, run_ in enumerate(runs, start=1):
        notes += [f"problem: stream {k} session {s}: {why}" for s, why in sorted(run_.bad.items())]
    for line in notes:
        print(line)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": complete, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0
