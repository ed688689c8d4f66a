"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The heavyweight
behavioral criterion (9) trains ~20 desk-scale runs and dominates the
runtime; everything else completes in seconds.
"""

import json
import time

import numpy as np
import pytest

from latentreplay.accounting import bundled_cost_table, memory_footprint, format_mb
from latentreplay.cli import main
from latentreplay.kernels import softmax_xent
from latentreplay.layers import Brn, Conv, Dense, DwConv, Relu
from latentreplay.network import Network
from latentreplay.presets import build_tinynic_network
from latentreplay.replay import (ReplayMemory, compose_minibatch, l1_activation_penalty,
                                 sparsity_stats)
from latentreplay.rng import SeededRng
from latentreplay.scenario import (ScenarioParams, cumulative_baseline,
                                   generate_tinynic, run_protocol)
from latentreplay.strategies import ContinualTrainer, SiState, StrategyConfig

from conftest import check_grad_tensor

REFERENCE_PARAMS = ScenarioParams(classes=10, instances_per_class=4,
                                  frames_per_session=40, first_batch_classes=4,
                                  first_batch_instances=2,
                                  test_frames_per_instance=20)
REFERENCE_SCENARIO_SEED = 2024
REFERENCE_SEEDS = (1, 2, 3)
REFERENCE_LRS = dict(lr_first=0.03, lr_head=0.09, lr_other=0.009, mb=48)

TABLE1_PCT = {
    "Images": 100.00, "conv5_1/dw": 59.261, "conv5_2/dw": 50.101,
    "conv5_3/dw": 40.941, "conv5_4/dw": 31.781, "conv5_5/dw": 22.621,
    "conv5_6/dw": 13.592, "conv6/dw": 9.012, "pool6": 0.027,
}
TABLE1_SIZE = {
    "Images": 49152, "conv5_1/dw": 32768, "conv5_2/dw": 32768,
    "conv5_3/dw": 32768, "conv5_4/dw": 32768, "conv5_5/dw": 32768,
    "conv5_6/dw": 8192, "conv6/dw": 16384, "pool6": 1024,
}


def _report(n, text):
    print(f"PASS criterion {n}: {text}")


# -- 1: trade-off table reproduction -------------------------------------------


def test_criterion_1_tradeoff_reproduction(capsys):
    t0 = time.perf_counter()
    rc = main(["tradeoff", "--rm-size", "1500",
               "--candidates", ",".join(TABLE1_PCT)])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    out = capsys.readouterr().out
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 9
    for layer, pct, size, *_ in rows:
        assert abs(float(pct) - TABLE1_PCT[layer]) < 0.01, layer
        assert int(size) == TABLE1_SIZE[layer], layer
    assert elapsed < 1.0
    with capsys.disabled():
        _report(1, f"nine computation percentages within 0.01 pp, "
                   f"pattern sizes exact ({elapsed * 1e3:.0f} ms)")


# -- 2: footprint arithmetic -----------------------------------------------------


def test_criterion_2_footprint_arithmetic():
    nbytes = memory_footprint(1500, 32768, bytes_per_elem=1)
    assert nbytes == 1500 * 32768 == 49_152_000
    # display convention documented in accounting.format_mb: KB=1024 B,
    # MB=1000 KB, under which 49,152,000 B renders as exactly 48 MB
    assert format_mb(nbytes) == "48 MB"
    _report(2, "1500 x 32768 x 1B = 49,152,000 bytes, rendered '48 MB'")


# -- 3: replay proportions --------------------------------------------------------


def test_criterion_3_replay_proportions():
    rm = ReplayMemory(1500, SeededRng(0))
    rm.update(np.zeros((1600, 1), dtype=np.float32), np.zeros(1600), 1)
    assert compose_minibatch(rm, 300, 128) == (21, 107)

    rm = ReplayMemory(500, SeededRng(2))
    rm.update(np.zeros((600, 1), dtype=np.float32), np.zeros(600), 1)
    assert compose_minibatch(rm, 100, 120) == (20, 100)
    _report(3, "(128,300,1500)->(21,107) and (120,100,500)->(20,100) exact")


# -- 4: latent replay == input-fed replay in the frozen limit ---------------------


def _three_layer_toy(seed):
    r = SeededRng(seed)
    layers = [Dense("lower", 6, 8, rng=r), Relu("tap_relu"), Brn("brn_up", 8),
              Dense("head", 8, 4, rng=r)]
    return Network(layers, input_shape=(6,), tap="tap_relu", head_name="head")


def test_criterion_4_latent_native_equivalence():
    t0 = time.perf_counter()
    pool = SeededRng(40).normal((60, 6))
    pool_y = np.arange(60) % 4
    rep_x = SeededRng(41).normal((20, 6))
    rep_y = np.arange(20) % 4

    net_lat = _three_layer_toy(seed=42)
    net_nat = _three_layer_toy(seed=42)
    for net in (net_lat, net_nat):
        net.freeze_below_tap()
        net.lr_mult.update(brn_up=0.05, head=0.05)
    latents = net_lat.tap_activations(rep_x)

    draws = SeededRng(43)
    for _ in range(50):
        ni = draws.choice(60, 6)
        ri = draws.choice(20, 10)
        y_joint = np.concatenate([pool_y[ni], rep_y[ri]])

        logits, _ = net_lat.forward_concat(pool[ni], latents[ri])
        _, dl = softmax_xent(logits, y_joint)
        net_lat.sgd_step(net_lat.backward(dl))

        logits2, _ = net_nat.forward(np.concatenate([pool[ni], rep_x[ri]]))
        _, dl2 = softmax_xent(logits2, y_joint)
        net_nat.sgd_step(net_nat.backward(dl2))

    worst = 0.0
    for lname in ("brn_up", "head"):
        for pname, arr in net_lat.layer(lname).params.items():
            worst = max(worst, float(np.abs(
                arr - net_nat.layer(lname).params[pname]).max()))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-5
    assert elapsed < 10.0
    _report(4, f"50 steps, above-tap params max |delta| = {worst:g} "
               f"({elapsed:.1f} s)")


# -- 5: gradient suite -------------------------------------------------------------


def test_criterion_5_gradient_suite(rng):
    t0 = time.perf_counter()

    def probe(layer, x, tag, mode="train"):
        def loss():
            y, _ = layer.forward(x, mode)
            dy = SeededRng(50).normal(y.shape).astype(np.float64)
            return float((y.astype(np.float64) * dy).sum())

        y, cache = layer.forward(x, mode)
        dy = SeededRng(50).normal(y.shape)
        dx, grads = layer.backward(dy, cache)
        check_grad_tensor(loss, x, dx, rng, n_coords=10, label=f"{tag} x")
        for pname, g in grads.items():
            check_grad_tensor(loss, layer.params[pname], g, rng, n_coords=10,
                              label=f"{tag} {pname}")

    r = SeededRng(51)
    probe(Dense("d", 5, 4, rng=r), r.normal((3, 5)), "dense")
    probe(Conv("c", 3, 4, 3, stride=2, pad=1, rng=r), r.normal((2, 3, 5, 5)), "conv")
    probe(DwConv("dw", 4, 3, pad=1, rng=r), r.normal((2, 4, 4, 4)), "dwconv")
    x_relu = r.normal((3, 8))
    x_relu[np.abs(x_relu) < 0.05] = 0.5
    probe(Relu("r"), x_relu, "relu")

    brn = Brn("b", 3)
    brn.mu_mov = np.full(3, -10.0)           # saturate both clips: r, d are
    brn.sigma_mov = np.full(3, 0.01)         # then locally constant
    x_brn = r.normal((8, 3, 2, 2))
    mu0, sig0 = brn.mu_mov.copy(), brn.sigma_mov.copy()
    y, cache = brn.forward(x_brn, "train")
    dy = SeededRng(50).normal(y.shape)
    dx, grads = brn.backward(dy, cache)

    def brn_loss():
        brn.mu_mov, brn.sigma_mov = mu0.copy(), sig0.copy()
        y, _ = brn.forward(x_brn, "train")
        dyp = SeededRng(50).normal(y.shape).astype(np.float64)
        return float((y.astype(np.float64) * dyp).sum())

    check_grad_tensor(brn_loss, x_brn, dx, rng, n_coords=10, label="brn x")
    check_grad_tensor(brn_loss, brn.params["gamma"], grads["gamma"], rng,
                      n_coords=10, label="brn gamma")
    check_grad_tensor(brn_loss, brn.params["beta"], grads["beta"], rng,
                      n_coords=10, label="brn beta")

    # auxiliary losses
    net = build_tinynic_network(classes=4, seed=52, width=4)
    si = SiState(net, lam=0.8)
    key = si.keys[0]
    arr = net.layer(key[0]).params[key[1]]
    si.importance[key][...] = SeededRng(53).uniform(arr.shape) * 0.001
    si.theta_ref[key] = arr.astype(np.float64) + 0.05

    def si_loss():
        return si.penalty(net)[0]

    _, si_grads = si.penalty(net)
    check_grad_tensor(si_loss, arr, si_grads[key[0]][key[1]], rng,
                      n_coords=10, h=1e-3, label="si penalty")

    acts = SeededRng(54).normal((4, 6))
    acts[np.abs(acts) < 0.1] = 0.4

    def l1_loss():
        return l1_activation_penalty(acts, 0.25)[0]

    _, dacts = l1_activation_penalty(acts, 0.25)
    check_grad_tensor(l1_loss, acts, dacts, rng, n_coords=10, h=1e-3,
                      label="l1 sparsifier")

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(5, f"dense/conv/dwconv/relu/brn + SI + L1 all pass fd checks "
               f"at rel err < 1e-3 ({elapsed:.1f} s)")


# -- 6: Algorithm-1 memory properties ----------------------------------------------


def test_criterion_6_replay_memory_properties():
    capacity, n_batches, batch_size = 600, 20, 650
    per_origin = np.zeros(n_batches)
    runs = 100
    for run in range(runs):
        rm = ReplayMemory(capacity, SeededRng(6000 + run))
        for i in range(1, n_batches + 1):
            x = np.zeros((batch_size, 1), dtype=np.float32)
            added, replaced = rm.update(x, np.zeros(batch_size), i)
            assert len(rm) <= capacity
            assert (replaced == 0) == (i == 1)          # R_replace empty iff i=1
            assert added == capacity // i               # h unclamped here
        per_origin += np.bincount(rm.origins, minlength=n_batches + 1)[1:]
    per_origin /= runs
    target = capacity / n_batches
    assert np.all(per_origin >= 0.8 * target)
    assert np.all(per_origin <= 1.2 * target)
    _report(6, f"100 sims x 20 batches: |RM| <= cap, replace iff i>1, "
               f"h = floor(cap/i), occupancy {per_origin.min():.1f}.."
               f"{per_origin.max():.1f} vs target {target:.1f} +/-20%")


# -- 7: DSLDA vs batch LDA oracle ----------------------------------------------------


def test_criterion_7_dslda_oracle():
    from latentreplay.strategies import DsldaState
    dim, n_per = 8, 200
    r = SeededRng(70)
    chol_l = r.normal((dim, dim), dtype=np.float64) * 0.2
    cov = chol_l @ chol_l.T + np.eye(dim)
    chol = np.linalg.cholesky(cov)
    mu1 = np.full(dim, 1.2)
    x0 = r.normal((n_per, dim), dtype=np.float64) @ chol.T
    x1 = r.normal((n_per, dim), dtype=np.float64) @ chol.T + mu1
    x = np.concatenate([x0, x1])
    y = np.concatenate([np.zeros(n_per, dtype=int), np.ones(n_per, dtype=int)])
    perm = r.permutation(2 * n_per)
    x, y = x[perm], y[perm]

    st = DsldaState(dim, classes=2, shrink=1e-4)
    for f, label in zip(x, y):
        st.update(f, int(label))

    mu_batch = np.stack([x[y == c].mean(axis=0) for c in (0, 1)])
    scatter = np.zeros((dim, dim))
    for c in (0, 1):
        d = x[y == c] - mu_batch[c]
        scatter += d.T @ d
    sigma_batch = scatter / len(x)
    lam = np.linalg.inv((1 - 1e-4) * sigma_batch + 1e-4 * np.eye(dim))
    w = mu_batch @ lam.T
    bias = -0.5 * (w * mu_batch).sum(axis=1)

    assert np.abs(st.mu[:2] - mu_batch).max() < 1e-4
    assert np.abs(st.sigma() - sigma_batch).max() < 1e-4

    held = SeededRng(71)
    hx0 = held.normal((300, dim), dtype=np.float64) @ chol.T
    hx1 = held.normal((300, dim), dtype=np.float64) @ chol.T + mu1
    hx = np.concatenate([hx0, hx1])
    oracle_pred = (hx @ w.T + bias).argmax(axis=1)
    agreement = float((st.predict_batch(hx) == oracle_pred).mean())
    assert agreement >= 0.99
    _report(7, f"streaming fit on 400 samples: means/cov within 1e-4, "
               f"held-out agreement {agreement:.3f}")


# -- 8: CWR* isolation + F bounds ------------------------------------------------------


def test_criterion_8_cwr_isolation_and_f_bounds():
    net = build_tinynic_network(classes=8, seed=80, tap="pool")
    cfg = StrategyConfig(strategy="ar1*", replay_kind="latent", rm_capacity=60,
                         **REFERENCE_LRS)
    trainer = ContinualTrainer(net, cfg, seed=81)
    r = SeededRng(82)
    checked_isolation = 0
    for i in range(8):
        k = 1 + int(r.randint(0, 3)[0])
        classes = sorted(set(r.randint(0, 8, k).tolist()))
        n = 20
        x = r.normal((n, 1, 16, 16))
        y = np.array([classes[int(j)] for j in r.randint(0, len(classes), n)])
        pool_classes = set(y.tolist()) | set(trainer.rm.labels.tolist())
        before_w = trainer.cwr.cw_w.copy()
        before_b = trainer.cwr.cw_b.copy()
        trainer.train_batch(x, y)
        for c in range(8):
            if c in pool_classes:
                continue
            assert np.array_equal(trainer.cwr.cw_w[:, c], before_w[:, c])
            assert trainer.cwr.cw_b[c] == before_b[c]
            checked_isolation += 1
        for key in trainer.si.keys:
            f = trainer.si.importance[key]
            assert np.all(f >= 0.0) and np.all(f <= 0.001)
    assert checked_isolation > 0
    _report(8, f"{checked_isolation} absent-class rows bit-identical; "
               f"F within [0, 0.001] throughout")


# -- 9: desk-scale behavioral reproduction ----------------------------------------------


@pytest.fixture(scope="module")
def reference_scenario():
    return generate_tinynic(REFERENCE_PARAMS, seed=REFERENCE_SCENARIO_SEED)


def _final_accuracy(scenario, strategy, seed, tap="relu3", **kw):
    net = build_tinynic_network(classes=10, seed=seed, tap=tap)
    cfg = StrategyConfig(strategy=strategy, **REFERENCE_LRS, **kw)
    rows = run_protocol(net, cfg, scenario, seed=seed, eval_every=len(scenario.batches))
    return rows[-1].test_accuracy


def test_criterion_9_behavioral_reproduction(reference_scenario):
    t0 = time.perf_counter()
    scen = reference_scenario
    seeds = REFERENCE_SEEDS

    sweep = {}
    for cap in (0, 100, 250, 500):
        sweep[cap] = float(np.mean([
            _final_accuracy(scen, "ar1*free", s, replay_kind="latent",
                            rm_capacity=cap) for s in seeds]))
    naive = float(np.mean([_final_accuracy(scen, "naive", s) for s in seeds]))
    low_tap = float(np.mean([
        _final_accuracy(scen, "ar1*free", s, tap="relu2", replay_kind="latent",
                        rm_capacity=500) for s in seeds]))
    cumulative = float(np.mean([
        cumulative_baseline(build_tinynic_network(classes=10, seed=s), scen,
                            epochs=8, mb=32, lr=0.03, seed=s).test_accuracy
        for s in seeds]))
    elapsed = time.perf_counter() - t0

    # (a) latent replay beats naive by >= 10 points
    assert sweep[500] - naive >= 0.10, (sweep[500], naive)
    # (b) accuracy non-decreasing in memory size, within 2 points of noise
    caps = [0, 100, 250, 500]
    for lo, hi in zip(caps, caps[1:]):
        assert sweep[hi] >= sweep[lo] - 0.02, (lo, hi, sweep)
    # (c) moving the tap one layer lower costs at most 2 points
    assert low_tap >= sweep[500] - 0.02, (low_tap, sweep[500])
    # (d) the cumulative upper bound dominates every strategy
    for acc in list(sweep.values()) + [naive, low_tap]:
        assert cumulative >= acc, (cumulative, acc)
    assert elapsed < 600.0
    _report(9, f"naive {naive:.3f}; RM sweep "
               f"{[f'{sweep[c]:.3f}' for c in caps]}; lower tap {low_tap:.3f}; "
               f"cumulative {cumulative:.3f} ({elapsed:.0f} s)")


# -- 10: sparsification trend --------------------------------------------------------


def test_criterion_10_sparsification_trend(reference_scenario):
    b1 = reference_scenario.batches[0]
    fractions = []
    for alpha in (0.0, 1e-3, 2e-3, 4e-3):
        net = build_tinynic_network(classes=10, seed=101)
        cfg = StrategyConfig(strategy="ar1*free", replay_kind="latent",
                             rm_capacity=500, **REFERENCE_LRS,
                             sparsifier_alpha=alpha)
        trainer = ContinualTrainer(net, cfg, seed=101)
        trainer.train_batch(b1.x, b1.y)
        fractions.append(sparsity_stats(net.tap_activations(b1.x)))
    assert 0.4 <= fractions[0] <= 0.6
    for a, b in zip(fractions, fractions[1:]):
        assert b <= a + 1e-12, fractions
    _report(10, "non-zero tap fraction over alpha {0,1e-3,2e-3,4e-3}: "
                + ", ".join(f"{f:.3f}" for f in fractions))


# -- 11: end-to-end determinism -------------------------------------------------------


def test_criterion_11_cmd_run_determinism(tmp_path):
    doc = {
        "scenario": {"generator": {"classes": 4, "instances_per_class": 2,
                                   "frames_per_session": 10,
                                   "first_batch_classes": 2,
                                   "first_batch_instances": 1,
                                   "test_frames_per_instance": 5, "seed": 7}},
        "network": {"builtin": "tinynic", "width": 4},
        "strategies": [{"name": "ar1f", "strategy": "ar1*free",
                        "replay_kind": "latent", "rm_capacity": 30,
                        "epochs": 2, "mb": 16, "lr_first": 0.03,
                        "lr_head": 0.09, "lr_other": 0.009}],
        "seeds": [3],
        "record_timing": False,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out_b)]) == 0
    bytes_a = (out_a / "metrics.csv").read_bytes()
    bytes_b = (out_b / "metrics.csv").read_bytes()
    assert bytes_a == bytes_b
    _report(11, f"two cmd_run executions byte-identical "
                f"({len(bytes_a)} bytes of metrics.csv)")
