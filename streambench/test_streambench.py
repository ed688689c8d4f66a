"""Tests of the benchmark's own helpers.

Run from the repository root with ``PYTHONPATH=src python -m pytest
streambench``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import latentreplay  # noqa: E402
from latentreplay import (ScenarioParams, build_tinynic_network,  # noqa: E402
                          generate_tinynic, run_protocol)

import bench  # noqa: E402
from timing import Probe, tail, tail_percentile  # noqa: E402
from tracer import (Tracer, conv2d_backward_cost, conv2d_cost,  # noqa: E402
                    instrument)

SHORT = ScenarioParams(classes=4, instances_per_class=2, frames_per_session=24,
                       first_batch_classes=2, first_batch_instances=1,
                       test_frames_per_instance=4)


@pytest.mark.parametrize("n, p", [(1, 50.0), (19, 50.0), (20, 50.0), (33, 69.6),
                                  (66, 84.8), (100, 90.0), (1000, 99.0),
                                  (10000, 99.9), (10**6, 99.9)])
def test_tail_percentile_leaves_ten_samples_beyond(n, p):
    assert tail_percentile(n) == p


@pytest.mark.parametrize("n", [20, 33, 34, 66, 99, 100, 101, 1000, 10000])
def test_tail_value_has_ten_samples_beyond_it(n):
    values = [float(v) for v in range(n)]
    p, value, count = tail(values)
    assert (p, count) == (tail_percentile(n), n)
    assert sum(v > value for v in values) >= 10


def test_conv2d_cost_hand_sized():
    x = np.zeros((2, 3, 5, 5), dtype=np.float32)        # 150 elements
    kern = np.zeros((4, 3, 3, 3), dtype=np.float32)     # 108 elements
    # output [2, 4, 5, 5] = 200 elements; 27 MACs each
    assert conv2d_cost(x, kern, 1, 1) == (2 * 200 * 27, 4 * (150 + 108 + 200))
    dy = np.zeros((2, 4, 5, 5), dtype=np.float32)
    assert conv2d_backward_cost(x, kern, dy, 1, 1) == (
        4 * 200 * 27, 4 * (2 * 150 + 2 * 108 + 200))


def test_conv2d_cost_depthwise_strided():
    x = np.zeros((1, 2, 4, 4), dtype=np.float32)        # 32 elements
    kern = np.zeros((2, 1, 4, 4), dtype=np.float32)     # 32 elements
    # (4 + 2 - 4) / 2 + 1 = 2, so output [1, 2, 2, 2]; 16 MACs each
    assert conv2d_cost(x, kern, stride=2, pad=1, groups=2) == (2 * 8 * 16, 4 * 72)
    dy = np.zeros((1, 2, 2, 2), dtype=np.float32)
    assert conv2d_backward_cost(x, kern, dy, 2, 1, 2) == (4 * 8 * 16, 4 * 136)


def _package_attributes():
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "latentreplay" or name.startswith("latentreplay."):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for cattr, cvalue in vars(value).items():
                        out[(name, attr, cattr)] = cvalue
    return out


def test_tracer_restores_every_wrapped_attribute():
    before = _package_attributes()
    with Tracer() as tracer:
        instrument(tracer)
        assert tracer._saved
        wrapped = {(owner, attr) for owner, attr, _ in tracer._saved}
        assert all(getattr(o, a).__wrapped__ is not None for o, a in wrapped)
    after = _package_attributes()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def _short_stream(traced: bool):
    scenario = generate_tinynic(SHORT, seed=3)
    net = build_tinynic_network(classes=SHORT.classes, seed=1, tap="relu3")
    cfg = latentreplay.StrategyConfig(strategy="ar1*", replay_kind="latent",
                                      rm_capacity=50, mb=8, epochs=1,
                                      lr_first=0.03, lr_head=0.09, lr_other=0.009)
    if not traced:
        return [r.test_accuracy for r in run_protocol(net, cfg, scenario, seed=1)], None
    with Tracer() as tracer:
        instrument(tracer)
        rows = run_protocol(net, cfg, scenario, seed=1)
    return [r.test_accuracy for r in rows], tracer


def test_tracer_leaves_accuracies_bit_identical():
    plain, _ = _short_stream(traced=False)
    traced, tracer = _short_stream(traced=True)
    assert traced == plain
    summary = tracer.analyse()
    assert summary.calls("strategies.train_batch") == len(plain)
    assert tracer.counts["network.rows_above_tap"] > tracer.counts["network.rows_below_tap"] > 0
    assert summary.self_ms("strategies.train_batch") < summary.ms("strategies.train_batch")
    first = summary.layer_ms(session=1)
    assert all(first[layer]["fwd"] > 0 for layer in ("conv1", "fc"))


def test_stream_runs_agree_and_yield_every_declared_metric():
    workload = dict(bench.WORKLOADS["latent-relu3-rm500"], rm_capacity=50)
    scenario = generate_tinynic(SHORT, seed=3)
    probe = Probe(reps=1)
    runs = [bench.run_stream(scenario, workload, probe),
            bench.run_stream(scenario, workload, probe, traced=True)]
    bench.check_determinism(runs)
    assert [r.bad for r in runs] == [{}, {}]
    assert runs[0].accs == runs[1].accs and len(runs[0].accs) == len(scenario.batches)
    metrics = bench.per_layer_metrics(runs[0], runs[1], 1.0, bench.build_network(workload))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == [
        (k, m["unit"]) for k, m in metrics.items()]
    e2e = bench.end_to_end_metrics(runs, [0.1], [])
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == [
        (k, m["unit"]) for k, m in e2e.items()]
    assert all(m["value"] > 0 for m in e2e.values())
    assert metrics["network.rows_below_tap"]["value"] < metrics["network.rows_above_tap"]["value"]
    for tap in bench.TAPS:
        assert 0 < metrics[f"accounting.measured_replay_cost_pct.{tap}"]["value"] < 100


def test_session_checks_flag_non_finite_state_and_overfull_memory():
    workload = bench.WORKLOADS["latent-relu3-rm500"]
    trainer = latentreplay.ContinualTrainer(bench.build_network(workload),
                                            bench.strategy_config(workload), seed=1)
    ok = latentreplay.BatchReport(1, steps=1, mean_loss=0.5, loss_trace=[0.5], train_ms=1.0)
    assert bench.session_problem(trainer, ok) is None
    nan = latentreplay.BatchReport(1, steps=1, mean_loss=float("nan"),
                                   loss_trace=[float("nan")], train_ms=1.0)
    assert bench.session_problem(trainer, nan) == "non-finite loss"
    trainer.net.layer("brn2").mu_mov[0] = np.inf
    assert "brn2" in bench.session_problem(trainer, ok)
    trainer.net.layer("brn2").mu_mov[0] = 0.0
    trainer.rm.capacity = -1
    assert "capacity" in bench.session_problem(trainer, ok)


def test_determinism_check_flags_each_differing_session():
    class Run:
        def __init__(self, accs):
            self.accs, self.bad = accs, {}
    runs = [Run([0.1, 0.2, 0.3]), Run([0.1, 0.25, 0.3]), Run([0.1, 0.2])]
    bench.check_determinism(runs)
    assert [sorted(r.bad) for r in runs] == [[], [2], []]
