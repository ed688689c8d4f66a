import numpy as np
import pytest

from latentreplay import strategies
from latentreplay.accounting import memory_footprint
from latentreplay.errors import ConfigError, ShapeError, StateError
from latentreplay.presets import build_tinynic_network
from latentreplay.replay import (ReplayMemory, compose_minibatch,
                                 l1_activation_penalty, sparsity_stats)
from latentreplay.rng import SeededRng
from latentreplay.scenario import ScenarioParams, generate_tinynic
from latentreplay.strategies import ContinualTrainer, StrategyConfig

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


@pytest.mark.parametrize("n_labels", [7, 12])
def test_label_count_must_match_row_count(n_labels):
    rm = ReplayMemory(8, SeededRng(3))
    x, _ = make_batch(10)
    with pytest.raises(ShapeError):
        rm.update(x, np.arange(n_labels) % 10, 1)
    assert len(rm) == 0
    rm.update(x, np.arange(10) % 10, 1)  # the failed update consumed no batch index
    assert len(rm) == 8


def test_empty_batch_warns_and_is_noop():
    rm = ReplayMemory(10, SeededRng(2))
    with pytest.warns(UserWarning, match="ReplayMemory.update called with an empty batch"):
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
        per_origin += np.bincount(rm.origins, minlength=n_batches + 1)[1:]
    per_origin /= n_runs
    target = capacity / n_batches
    assert np.all(per_origin > 0.8 * target)
    assert np.all(per_origin < 1.2 * target)


def test_payload_footprint():
    rm = ReplayMemory(6, SeededRng(4))
    x = SeededRng(5).normal((9, 2, 3))
    rm.update(x, np.arange(9), 1)
    assert rm.payloads.size == len(rm) * 6
    assert rm.payloads.nbytes == memory_footprint(len(rm), 6, bytes_per_elem=4)


class ListMemory:
    """The list-of-items memory the parallel arrays replaced: the reference."""

    def __init__(self, capacity, rng):
        self.capacity, self.rng, self.items = capacity, rng, []

    def update(self, rows, labels, i):
        h = min(self.capacity // i, len(labels))
        replace_n = 0
        if i > 1 and h > 0:
            replace_n = min(len(self.items), max(0, len(self.items) + h - self.capacity))
        if replace_n:
            drop = set(self.rng.choice(len(self.items), replace_n).tolist())
            self.items = [it for j, it in enumerate(self.items) if j not in drop]
        if h > 0:
            add_idx = np.sort(self.rng.choice(len(labels), h))
            for idx in add_idx:
                self.items.append((np.array(rows[idx], dtype=np.float32), int(labels[idx]), i))
        return h, replace_n

    def stacked(self, indices):
        return (np.stack([self.items[j][0] for j in indices]),
                np.array([self.items[j][1] for j in indices], dtype=np.int64))


@pytest.mark.parametrize("latent", [False, True])
def test_arrays_match_list_reference(latent):
    # latent=True stores rows shaped like a tap's activations: non-negative
    # feature maps rather than flat pattern vectors.
    for seed in range(4):
        sizes = SeededRng(100 + seed).randint(1, 90, 12)
        capacity = 40 + 20 * seed
        ref = ListMemory(capacity, SeededRng(seed))
        rm = ReplayMemory(capacity, SeededRng(seed))
        for i, n in enumerate(sizes, start=1):
            x, y = make_batch(int(n), label_base=i, dim=12 if latent else 3, seed=10 * seed + i)
            if latent:
                x = np.maximum(x.reshape(int(n), 3, 2, 2), 0.0)
            assert rm.update(x, y, i) == ref.update(x, y, i)
            assert len(rm) == len(ref.items)
            assert np.array_equal(rm.payloads, np.stack([it[0] for it in ref.items]))
            assert rm.labels.tolist() == [it[1] for it in ref.items]
            assert rm.origins.tolist() == [it[2] for it in ref.items]
            idx = rm.sample(min(len(rm), 16), SeededRng(1000 + i), rows=1)[0]
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
    assert compose_minibatch(_memory_with(1500), 300, 128) == (21, 107)
    assert compose_minibatch(_memory_with(500), 100, 120) == (20, 100)


def test_compose_empty_memory():
    # a run without replay holds a capacity-0 memory
    for rm in (ReplayMemory(0, SeededRng(10)), _memory_with(0)):
        assert compose_minibatch(rm, 300, 64) == (64, 0)
        assert compose_minibatch(rm, 20, 64) == (20, 0)


def test_compose_counts_invariants():
    # a step takes at most B + |RM| rows: no native row twice, no replay item twice
    for rm_n, B, mb, split in ((5, 6, 64, (6, 5)), (60, 1, 8, (1, 7))):
        assert compose_minibatch(_memory_with(rm_n), B, mb) == split
    r = SeededRng(14)
    for _ in range(80):
        rm_n = int(r.randint(0, 800)[0])
        rm = _memory_with(rm_n)
        B = int(r.randint(1, 500)[0])
        mb = int(r.randint(1, 1400)[0])
        n_nat, n_rep = compose_minibatch(rm, B, mb)
        assert 1 <= n_nat <= B
        assert 0 <= n_rep <= rm_n
        assert n_nat + n_rep == min(mb, B + rm_n)


@pytest.mark.parametrize("B, mb", [(0, 8), (4, 0)])
def test_compose_rejects_an_empty_batch_or_step(B, mb):
    with pytest.raises(ConfigError):
        compose_minibatch(_memory_with(0), B, mb)


def test_compose_leaves_every_rng_counter_where_it_was():
    net = build_tinynic_network(classes=6, seed=3, width=4, tap="pool")
    trainer = ContinualTrainer(net, StrategyConfig(
        strategy="ar1*free", replay_kind="latent", rm_capacity=20, epochs=1, mb=8), seed=4)
    trainer.train_batch(SeededRng(5).normal((12, 1, 16, 16)), np.arange(12) % 6)
    counters = trainer.state()["counters"]
    assert len(trainer.rm) == 12 and len(counters) == 4
    assert compose_minibatch(trainer.rm, 3, 64) == (3, 12)
    assert np.array_equal(trainer.state()["counters"], counters)


def test_sample_negative_count_raises():
    with pytest.raises(ValueError):
        _memory_with(10).sample(-2, SeededRng(0), rows=1)


@pytest.mark.parametrize("rows", [1, 3])
def test_sample_more_items_than_the_memory_holds_raises(rows):
    rm = _memory_with(5)
    for n in (6, 12):
        with pytest.raises(ValueError):
            rm.sample(n, SeededRng(15), rows=rows)
    idx = rm.sample(5, SeededRng(15), rows=rows)
    assert idx.shape == (rows, 5)
    assert all(sorted(r) == list(range(5)) for r in idx.tolist())


# -- pre-caching latents while frames arrive -------------------------------------


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
        for frame in frames:
            q.put(net.tap_activations(frame[None])[0])
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
            logits, _ = net.forward_concat(None, lat)
            _, dl = softmax_xent(logits, y)
            net.sgd_step(net.backward(dl))
    t.join()
    assert len(got) == 40
    # lower part untouched by the interleaved head updates
    ref = build_tinynic_network(classes=10, seed=35, tap="pool")
    ref.freeze_below_tap()
    want = ref.tap_activations(frames)
    assert np.array_equal(np.stack(got), want)


@pytest.mark.parametrize("strategy, tap", [("ar1*", "relu3"), ("ar1*", "pool"),
                                           ("cwr*", "pool")])
def test_stored_latents_are_todays_lower_net_output(strategy, tap):
    """Freezing below the tap keeps every stored latent valid: after a whole
    stream, each one is, bit for bit, what the lower net gives its pattern
    now. A native memory fed the same updates picks the same items, since
    the memory's draws do not depend on payloads, and so holds the patterns."""
    scen = generate_tinynic(ScenarioParams(classes=6, instances_per_class=2,
                                           frames_per_session=20, first_batch_classes=3,
                                           first_batch_instances=1,
                                           test_frames_per_instance=1), seed=37)
    net = build_tinynic_network(classes=6, seed=38, tap=tap, width=4)
    trainer = ContinualTrainer(net, StrategyConfig(
        strategy=strategy, replay_kind="latent", rm_capacity=60, epochs=1, mb=16), seed=39)
    ref = ReplayMemory(60, SeededRng(39).spawn(0x2E))
    for i, batch in enumerate(scen.batches, start=1):
        trainer.train_batch(batch.x, batch.y)
        ref.update(batch.x, batch.y, i)
    assert len(ref) == 60 and len(set(ref.origins.tolist())) > 2
    assert np.array_equal(trainer.rm.labels, ref.labels)
    assert np.array_equal(trainer.rm.origins, ref.origins)
    assert np.array_equal(net.tap_activations(ref.payloads).view(np.uint32),
                          trainer.rm.payloads.view(np.uint32))


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


def test_sparsifier_config_gating(monkeypatch):
    """The L1 term joins every step of batch 1, no step after it, and no
    step at all at alpha 0."""
    calls = []

    def counted(acts, alpha):
        calls.append(alpha)
        return l1_activation_penalty(acts, alpha)

    monkeypatch.setattr(strategies, "l1_activation_penalty", counted)
    r = SeededRng(25)
    batches = [(r.normal((20, 1, 16, 16)), r.randint(0, 4, 20)) for _ in range(2)]
    for alpha in (1e-3, 0.0):
        calls.clear()
        trainer = ContinualTrainer(
            build_tinynic_network(classes=4, seed=26, width=4),
            StrategyConfig(strategy="ar1*free", replay_kind="latent", rm_capacity=20,
                           epochs=2, mb=8, sparsifier_alpha=alpha), seed=1)
        first = trainer.train_batch(*batches[0])
        steps = first.steps if alpha else 0
        assert len(calls) == steps
        trainer.train_batch(*batches[1])
        assert calls == [alpha] * steps


def test_sparsity_stats():
    assert sparsity_stats(np.zeros((3, 3), dtype=np.float32)) == 0.0
    post_relu = np.maximum(SeededRng(24).normal((10_000,)), 0.0)
    frac = sparsity_stats(post_relu)
    assert 0.45 < frac < 0.55
    assert sparsity_stats(np.ones((2, 2), dtype=np.float32)) == 1.0
