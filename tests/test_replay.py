import json

import numpy as np
import pytest

from latentreplay.accounting import memory_footprint
from latentreplay.errors import ConfigError, ShapeError, StateError
from latentreplay.layers import Brn
from latentreplay.presets import build_tinynic_network
from latentreplay.replay import (ReplayMemory, SparsifierConfig, aging_drift,
                                 compose_minibatch, l1_activation_penalty,
                                 precompute_latents, sparsity_stats)
from latentreplay.rng import SeededRng
from latentreplay.tensorio import save_tensor

from conftest import check_grad_tensor


def make_batch(n, label_base=0, dim=4, seed=0):
    x = SeededRng(seed).normal((n, dim))
    y = (np.arange(n) + label_base) % 10
    return x, y


def fill_memory(capacity, batch_sizes, seed=0):
    rm = ReplayMemory(capacity, SeededRng(seed))
    stats = []
    for i, n in enumerate(batch_sizes, start=1):
        x, y = make_batch(n, seed=seed + i)
        stats.append(rm.update(x, y, i))
    return rm, stats


# -- update_memory -------------------------------------------------------------


def test_update_h_formula_when_full():
    # capacity 1500, batches large enough: i=1 fills, i=2 replaces 750
    rm, stats = fill_memory(1500, [1600, 1600])
    assert stats[0] == (1500, 0)
    assert stats[1] == (750, 750)
    assert len(rm) == 1500


def test_first_batch_never_replaces():
    rm, stats = fill_memory(100, [500])
    assert stats[0][1] == 0


def test_h_clamped_to_batch_size():
    rm, stats = fill_memory(1500, [300])
    assert stats[0] == (300, 0)
    assert len(rm) == 300


def test_memory_grows_to_capacity_with_small_batches():
    sizes = [50] * 20
    rm, stats = fill_memory(500, sizes)
    lengths = np.cumsum([s[0] for s in stats]) - np.cumsum([s[1] for s in stats])
    assert lengths.max() <= 500
    assert all(b >= a for a, b in zip(lengths, lengths[1:]))  # non-decreasing
    assert len(rm) == 500


def test_capacity_never_exceeded_random_sizes():
    r = SeededRng(55)
    for trial in range(20):
        sizes = [int(v) for v in r.randint(1, 400, 15)]
        rm, _ = fill_memory(200, sizes, seed=trial)
        assert len(rm) <= 200


def test_batch_index_must_strictly_increase():
    rm = ReplayMemory(10, SeededRng(1))
    x, y = make_batch(5)
    rm.update(x, y, 1)
    with pytest.raises(StateError):
        rm.update(x, y, 1)


def test_empty_batch_warns_and_is_noop():
    rm = ReplayMemory(10, SeededRng(2))
    with pytest.warns(UserWarning):
        added, replaced = rm.update(np.zeros((0, 4), dtype=np.float32),
                                    np.zeros(0, dtype=np.int64), 1)
    assert (added, replaced) == (0, 0)
    assert len(rm) == 0


def test_origin_batch_occupancy_roughly_balanced():
    # large batches, 20 of them: each origin ends near capacity/20
    n_runs, n_batches, capacity = 30, 20, 600
    per_origin = np.zeros(n_batches)
    for run in range(n_runs):
        rm, _ = fill_memory(capacity, [650] * n_batches, seed=run)
        occ = rm.occupancy_by_origin()
        for i in range(n_batches):
            per_origin[i] += occ.get(i + 1, 0)
    per_origin /= n_runs
    target = capacity / n_batches
    assert np.all(per_origin > 0.8 * target)
    assert np.all(per_origin < 1.2 * target)


def test_latent_payloads_via_payload_fn():
    rm = ReplayMemory(8, SeededRng(3), kind="latent", tap="relu3")
    x, y = make_batch(10)
    calls = {}

    def payload_fn(idxs):
        calls["idxs"] = np.array(idxs)
        return np.stack([x[j] * 2.0 for j in idxs])

    rm.update(x, y, 1, payload_fn=payload_fn)
    assert len(rm) == 8
    for payload, label, origin, j in zip(rm.payloads, rm.labels, rm.origins, calls["idxs"]):
        assert np.array_equal(payload, x[j] * 2.0)
        assert label == y[j]
        assert origin == 1


def test_payload_footprint():
    rm = ReplayMemory(6, SeededRng(4), kind="latent", tap="t")
    x = SeededRng(5).normal((9, 2, 3))
    rm.update(x, np.arange(9), 1)
    assert rm.payloads.size == len(rm) * 6
    assert rm.payloads.nbytes == memory_footprint(len(rm), 6, bytes_per_elem=4)


def test_memory_checkpoint_round_trip(tmp_path):
    rm, _ = fill_memory(50, [60, 60, 60], seed=9)
    rm.save(tmp_path / "rm")
    back = ReplayMemory.load(tmp_path / "rm", SeededRng(0))
    assert back.capacity == rm.capacity
    assert len(back) == len(rm)
    for a, b in zip(zip(rm.payloads, rm.labels, rm.origins),
                    zip(back.payloads, back.labels, back.origins)):
        assert np.array_equal(a[0], b[0])
        assert a[1] == b[1] and a[2] == b[2]


@pytest.mark.parametrize("tamper", ["short_labels", "short_origins", "over_capacity",
                                    "short_payloads"])
def test_memory_load_rejects_manifest_that_disagrees(tmp_path, tamper):
    rm, _ = fill_memory(50, [60, 60], seed=9)
    rm.save(tmp_path / "rm")
    path = tmp_path / "rm" / "manifest.json"
    manifest = json.loads(path.read_text())
    if tamper == "short_labels":
        manifest["labels"].pop()
    elif tamper == "short_origins":
        manifest["origin_batches"].pop()
    elif tamper == "over_capacity":
        manifest["capacity"] = manifest["count"] - 1
    else:
        save_tensor(tmp_path / "rm" / "payloads.lrt", rm.payloads[:-1])
    path.write_text(json.dumps(manifest))
    with pytest.raises(ShapeError):
        ReplayMemory.load(tmp_path / "rm", SeededRng(0))


class ListMemory:
    """The list-of-items memory the parallel arrays replaced: the reference."""

    def __init__(self, capacity, rng, store_patterns):
        self.capacity, self.rng, self.store_patterns, self.items = capacity, rng, store_patterns, []

    def update(self, patterns, labels, i, payload_fn=None):
        h = min(self.capacity // i, len(labels))
        replace_n = 0
        if i > 1 and h > 0:
            replace_n = min(len(self.items), max(0, len(self.items) + h - self.capacity))
        if replace_n:
            drop = set(self.rng.choice(len(self.items), replace_n).tolist())
            self.items = [it for j, it in enumerate(self.items) if j not in drop]
        if h > 0:
            add_idx = np.sort(self.rng.choice(len(labels), h))
            payloads = payload_fn(add_idx) if payload_fn is not None else patterns[add_idx]
            for j, idx in enumerate(add_idx):
                pattern = np.array(patterns[idx], dtype=np.float32) if self.store_patterns else None
                self.items.append((np.array(payloads[j], dtype=np.float32), int(labels[idx]), i,
                                   pattern))
        return h, replace_n

    def stacked(self, indices):
        return (np.stack([self.items[j][0] for j in indices]),
                np.array([self.items[j][1] for j in indices], dtype=np.int64))


@pytest.mark.parametrize("latent", [False, True])
@pytest.mark.parametrize("store_patterns", [False, True])
def test_arrays_match_list_reference(latent, store_patterns):
    for seed in range(4):
        sizes = SeededRng(100 + seed).randint(1, 90, 12)
        capacity = 40 + 20 * seed
        ref = ListMemory(capacity, SeededRng(seed), store_patterns)
        rm = ReplayMemory(capacity, SeededRng(seed), kind="latent" if latent else "native",
                          tap="t", store_patterns=store_patterns)
        for i, n in enumerate(sizes, start=1):
            x, y = make_batch(int(n), label_base=i, dim=3, seed=10 * seed + i)
            payload_fn = (lambda idxs, x=x: x[idxs] * 2.0 - 1.0) if latent else None
            assert rm.update(x, y, i, payload_fn) == ref.update(x, y, i, payload_fn)
            assert len(rm) == len(ref.items)
            assert np.array_equal(rm.payloads, np.stack([it[0] for it in ref.items]))
            assert rm.labels.tolist() == [it[1] for it in ref.items]
            assert rm.origins.tolist() == [it[2] for it in ref.items]
            if store_patterns:
                assert np.array_equal(rm.patterns, np.stack([it[3] for it in ref.items]))
            else:
                assert rm.patterns is None
            idx = rm.sample(min(len(rm), 16), SeededRng(1000 + i))
            got, want = rm.stacked(idx), ref.stacked(idx)
            assert got[0].dtype == want[0].dtype and got[1].dtype == want[1].dtype
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


# -- compose_minibatch -----------------------------------------------------------


def _memory_with(n):
    rm = ReplayMemory(max(n, 1), SeededRng(10))
    if n:
        x = np.zeros((n, 2), dtype=np.float32)
        rm.update(x, np.zeros(n, dtype=np.int64), 1)
    return rm


def test_compose_paper_proportions():
    rm = _memory_with(1500)
    n_nat, n_rep, idx = compose_minibatch(rm, 300, 128, SeededRng(11))
    assert (n_nat, n_rep) == (21, 107)
    assert len(idx) == 107 and len(set(idx.tolist())) == 107

    rm = _memory_with(500)
    n_nat, n_rep, _ = compose_minibatch(rm, 100, 120, SeededRng(12))
    assert (n_nat, n_rep) == (20, 100)


def test_compose_empty_memory():
    rm = _memory_with(0)
    n_nat, n_rep, idx = compose_minibatch(rm, 300, 64, SeededRng(13))
    assert (n_nat, n_rep) == (64, 0)
    assert len(idx) == 0


def test_compose_counts_invariants():
    r = SeededRng(14)
    for _ in range(50):
        rm_n = int(r.randint(1, 800)[0])
        rm = _memory_with(rm_n)
        B = int(r.randint(1, 500)[0])
        mb = int(r.randint(1, min(B + rm_n, 256) + 1)[0])
        n_nat, n_rep, idx = compose_minibatch(rm, B, mb, r)
        assert n_nat + n_rep == mb
        assert n_nat >= 0 and n_rep >= 0
        assert n_rep <= rm_n
        assert len(set(idx.tolist())) == len(idx)


def test_compose_with_replacement_fallback_warns():
    rm = _memory_with(5)
    with pytest.warns(UserWarning):
        n_nat, n_rep, idx = compose_minibatch(rm, 2, 64, SeededRng(15))
    assert n_nat + n_rep == 64
    assert len(idx) == n_rep


# -- precompute_latents ----------------------------------------------------------


def test_precompute_latents_matches_forward_tap():
    net = build_tinynic_network(classes=10, seed=16)
    net.freeze_below_tap()
    frames = SeededRng(17).normal((7, 1, 16, 16))
    lats = precompute_latents(net, frames)
    assert len(lats) == 7
    want = net.tap_activations(frames)
    for got, ref in zip(lats, want):
        assert np.array_equal(got, ref)


def test_precompute_latents_order_and_determinism():
    net = build_tinynic_network(classes=10, seed=18)
    net.freeze_below_tap()
    frame = SeededRng(19).normal((1, 16, 16))
    lats = precompute_latents(net, [frame, frame, frame])
    assert np.array_equal(lats[0], lats[1])
    assert np.array_equal(lats[1], lats[2])


def test_precompute_latents_requires_frozen_lower():
    net = build_tinynic_network(classes=10, seed=20)
    frames = SeededRng(21).normal((2, 1, 16, 16))
    with pytest.raises(StateError):
        precompute_latents(net, frames)


def test_precompute_worker_thread_feeds_head_training():
    # frozen lower sub-network shared read-only with an extraction worker
    # while the head trains on completed latents
    import queue
    import threading

    from latentreplay.kernels import softmax_xent

    net = build_tinynic_network(classes=10, seed=35, tap="pool")
    net.freeze_below_tap()
    frames = SeededRng(36).normal((40, 1, 16, 16))
    labels = np.arange(40) % 10
    q: queue.Queue = queue.Queue()

    def worker():
        for lat in precompute_latents(net, frames):
            q.put(lat)
        q.put(None)

    t = threading.Thread(target=worker)
    net.lr_mult["fc"] = 0.01
    t.start()
    got = []
    while True:
        item = q.get()
        if item is None:
            break
        got.append(item)
        if len(got) % 10 == 0:  # train the head on what has arrived so far
            lat = np.stack(got[-10:])
            y = labels[len(got) - 10:len(got)]
            logits = net.forward_from(lat)
            _, dl = softmax_xent(logits, y)
            net.sgd_step(net.backward(dl))
    t.join()
    assert len(got) == 40
    # lower part untouched by the interleaved head updates
    ref = build_tinynic_network(classes=10, seed=35, tap="pool")
    ref.freeze_below_tap()
    want = ref.tap_activations(frames)
    assert np.array_equal(np.stack(got), want)


# -- sparsifier -------------------------------------------------------------------


def test_l1_penalty_zero_alpha():
    acts = SeededRng(22).normal((3, 4))
    pen, d = l1_activation_penalty(acts, 0.0)
    assert pen == 0.0
    assert np.all(d == 0)


def test_l1_penalty_worked_example():
    acts = np.array([1.0, -2.0, 0.0], dtype=np.float32)
    pen, d = l1_activation_penalty(acts, 0.5)
    assert pen == pytest.approx(1.5)
    assert np.allclose(d, [0.5, -0.5, 0.0])


def test_l1_penalty_gradient_matches_fd(rng):
    acts = SeededRng(23).normal((4, 5))
    acts[np.abs(acts) < 0.1] = 0.5  # keep coordinates away from the kink at 0
    alpha = 0.3

    def loss():
        return l1_activation_penalty(acts, alpha)[0]

    _, d = l1_activation_penalty(acts, alpha)
    check_grad_tensor(loss, acts, d, rng, h=1e-3, label="l1")


def test_sparsifier_config_gating():
    cfg = SparsifierConfig(alpha=1e-3, first_batch_only=True)
    assert cfg.active(1) and not cfg.active(2)
    always = SparsifierConfig(alpha=1e-3, first_batch_only=False)
    assert always.active(5)
    assert not SparsifierConfig(alpha=0.0).active(1)
    with pytest.raises(ConfigError):
        SparsifierConfig(alpha=-1.0)


def test_sparsity_stats():
    assert sparsity_stats(np.zeros((3, 3), dtype=np.float32)) == 0.0
    post_relu = np.maximum(SeededRng(24).normal((10_000,)), 0.0)
    frac = sparsity_stats(post_relu)
    assert 0.45 < frac < 0.55
    assert sparsity_stats(np.ones((2, 2), dtype=np.float32)) == 1.0


# -- aging drift ------------------------------------------------------------------


def _latent_memory_with_refs(net, n=12, seed=25):
    rm = ReplayMemory(n, SeededRng(seed), kind="latent", tap=net.tap,
                      store_patterns=True)
    x = SeededRng(seed + 1).normal((n, 1, 16, 16))
    rm.update(x, np.arange(n) % 10, 1,
              payload_fn=lambda idxs: net.tap_activations(x[idxs]))
    return rm, x


def test_drift_zero_when_fully_frozen():
    net = build_tinynic_network(classes=10, seed=26)
    net.freeze_below_tap()
    rm, _ = _latent_memory_with_refs(net)
    assert aging_drift(rm, net) == 0.0


def test_drift_zero_for_just_stored_items():
    net = build_tinynic_network(classes=10, seed=27)
    rm, _ = _latent_memory_with_refs(net)
    assert aging_drift(rm, net) == 0.0


def test_drift_positive_after_lower_layer_movement():
    net = build_tinynic_network(classes=10, seed=28)
    rm, _ = _latent_memory_with_refs(net)
    # one train-mode pass with live moments ages the stored activations
    x = SeededRng(29).normal((32, 1, 16, 16))
    net.forward(x, mode="train")
    drift = aging_drift(rm, net)
    assert drift > 0.0


def test_drift_requires_debug_refs():
    net = build_tinynic_network(classes=10, seed=30)
    rm = ReplayMemory(4, SeededRng(31), kind="latent", tap=net.tap)
    x = SeededRng(32).normal((4, 1, 16, 16))
    rm.update(x, np.arange(4), 1,
              payload_fn=lambda idxs: net.tap_activations(x[idxs]))
    with pytest.raises(StateError):
        aging_drift(rm, net)


def test_drift_native_memory_unsupported():
    net = build_tinynic_network(classes=10, seed=33)
    rm = ReplayMemory(4, SeededRng(34))
    with pytest.raises(StateError):
        aging_drift(rm, net)
