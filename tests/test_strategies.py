import dataclasses
import warnings

import numpy as np
import pytest

from latentreplay import strategies
from latentreplay.errors import ConfigError, ShapeError, StateError
from latentreplay.kernels import softmax_xent
from latentreplay.layers import Brn, Dense
from latentreplay.presets import build_tinynic_network
from latentreplay.rng import SeededRng
from latentreplay.scenario import ScenarioParams, generate_tinynic
from latentreplay.strategies import (ContinualTrainer, CwrHead, DsldaState,
                                     SiState, StrategyConfig)

from conftest import brn_moment_bits, check_grad_tensor


def head_layer(in_features=4, classes=6, seed=0):
    layer = Dense("fc", in_features, classes, rng=SeededRng(seed))
    return layer


# -- CWR* head -----------------------------------------------------------------


def pool_counts(per_class: dict, classes=6):
    """The per-class count array of a pool holding ``{class: count}``."""
    counts = np.zeros(classes, dtype=np.int64)
    counts[list(per_class)] = list(per_class.values())
    return counts


def test_preinit_first_batch_all_zero():
    head = head_layer()
    cwr = CwrHead(4, 6)
    cwr.preinit(head, pool_counts({0: 1, 2: 1}))
    assert np.all(head.params["w"] == 0)
    assert np.all(head.params["b"] == 0)


def test_preinit_copies_cw_for_batch_classes_only():
    head = head_layer()
    cwr = CwrHead(4, 6)
    cwr.cw_w[:, 1] = 0.2
    cwr.cw_w[:, 3] = -0.7
    cwr.cw_b[1] = 0.5
    cwr.preinit(head, pool_counts({1: 1}))
    assert np.allclose(head.params["w"][:, 1], 0.2)
    assert head.params["b"][1] == pytest.approx(0.5)
    assert np.all(head.params["w"][:, 3] == 0)  # class 3 not in batch


def test_preinit_empty_class_set_errors():
    with pytest.raises(ConfigError):
        CwrHead(4, 6).preinit(head_layer(), pool_counts({}))


def test_consolidate_first_time_is_mean_shifted_tw():
    head = head_layer()
    cwr = CwrHead(4, 6)
    cwr.preinit(head, pool_counts({0: 10, 1: 10}))
    tw = SeededRng(1).normal((4, 6))
    head.params["w"][...] = tw
    head.params["b"][...] = 0.0
    cwr.consolidate(head, pool_counts({0: 10, 1: 10}))
    mean = tw[:, [0, 1]].mean(axis=1)
    assert np.allclose(cwr.cw_w[:, 0], tw[:, 0] - mean, atol=1e-6)
    assert np.allclose(cwr.cw_w[:, 1], tw[:, 1] - mean, atol=1e-6)
    assert cwr.past[0] == 10 and cwr.past[1] == 10


def test_consolidate_absent_class_rows_untouched():
    head = head_layer()
    cwr = CwrHead(4, 6)
    cwr.cw_w[:, 5] = 0.33
    before = cwr.cw_w[:, 5].copy()
    cwr.preinit(head, pool_counts({0: 5}))
    head.params["w"][:, 0] = 1.0
    cwr.consolidate(head, pool_counts({0: 5}))
    assert np.array_equal(cwr.cw_w[:, 5], before)


def test_consolidate_equal_past_and_cur_averages():
    head = head_layer()
    cwr = CwrHead(4, 6)
    cw0 = SeededRng(2).normal((4,))
    cwr.cw_w[:, 2] = cw0
    cwr.past[2] = 7
    tw = SeededRng(3).normal((4, 6))
    head.params["w"][...] = tw
    head.params["b"][...] = 0.0
    cwr.consolidate(head, pool_counts({2: 7}))  # wpast = 1
    want = (cw0 + (tw[:, 2] - tw[:, [2]].mean(axis=1))) / 2.0
    assert np.allclose(cwr.cw_w[:, 2], want, atol=1e-6)
    assert cwr.past[2] == 14


class CwrLoopReference:
    """The CWR head as one column per class: sorted class list, a
    ``{class: count}`` dict and scalar arithmetic for each column."""

    def __init__(self, in_features, classes):
        self.cw_w = np.zeros((in_features, classes), dtype=np.float32)
        self.cw_b = np.zeros(classes, dtype=np.float32)
        self.past = np.zeros(classes, dtype=np.float64)

    def preinit(self, head, classes):
        w, b = head.params["w"], head.params["b"]
        w[...] = 0.0
        b[...] = 0.0
        for j in classes:
            w[:, j] = self.cw_w[:, j]
            b[j] = self.cw_b[j]

    def consolidate(self, head, classes, cur_counts):
        tw_w, tw_b = head.params["w"], head.params["b"]
        mean_w = tw_w[:, classes].astype(np.float64).mean(axis=1)
        mean_b = float(tw_b[classes].astype(np.float64).mean())
        for j in classes:
            wpast = np.sqrt(self.past[j] / cur_counts[j])
            self.cw_w[:, j] = ((self.cw_w[:, j] * wpast
                                + (tw_w[:, j] - mean_w)) / (wpast + 1.0)).astype(np.float32)
            self.cw_b[j] = np.float32((self.cw_b[j] * wpast + (tw_b[j] - mean_b))
                                      / (wpast + 1.0))
            self.past[j] += cur_counts[j]

    def install(self, head):
        head.params["w"][...] = self.cw_w
        head.params["b"][...] = self.cw_b


# consecutive pools over 6 classes: several classes with some absent, one new
# class alone, seen classes (past > 0) with a new one, every class, one seen
# class alone
CWR_POOLS = [{0: 12, 1: 9, 2: 3, 3: 7}, {4: 10}, {1: 5, 4: 2, 5: 8},
             {0: 1, 1: 2, 2: 3, 3: 4, 4: 5, 5: 6}, {2: 3}, {5: 40, 0: 1}]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cwr_head_matches_per_column_loops_bitwise(seed):
    """The array form gives the bits of the per-column loops in cw_w,
    cw_b, past and the live head, batch after batch."""
    def assert_same_bits(*pairs):
        for got, want in pairs:
            assert got.dtype == want.dtype
            assert np.array_equal(got.view(np.uint8), want.view(np.uint8))

    heads = [head_layer(in_features=7, seed=seed) for _ in range(2)]
    cwr, ref = CwrHead(7, 6), CwrLoopReference(7, 6)
    rng = np.random.default_rng(seed)
    for per_class in CWR_POOLS:
        counts = pool_counts(per_class)
        classes = np.flatnonzero(counts).tolist()
        cwr.preinit(heads[0], counts)
        ref.preinit(heads[1], classes)
        assert_same_bits(*zip(heads[0].params.values(), heads[1].params.values()))
        # training moves the counted columns only
        step_w = rng.normal(size=(7, 6)).astype(np.float32) * (counts > 0)
        step_b = rng.normal(size=6).astype(np.float32) * (counts > 0)
        for head in heads:
            head.params["w"] += step_w
            head.params["b"] += step_b
        cwr.consolidate(heads[0], counts)
        ref.consolidate(heads[1], classes, {j: int(counts[j]) for j in classes})
        cwr.install(heads[0])
        ref.install(heads[1])
        assert_same_bits((cwr.cw_w, ref.cw_w), (cwr.cw_b, ref.cw_b), (cwr.past, ref.past),
                         *zip(heads[0].params.values(), heads[1].params.values()))
    assert np.all(cwr.past > 0) and np.any(cwr.cw_w != 0)


# -- synaptic intelligence --------------------------------------------------------


def si_for(net=None, **kw):
    net = net or build_tinynic_network(classes=4, seed=1, width=4)
    return net, SiState(net, **kw)


def ones_step(net, key, lr):
    """One SGD step of ``key``'s layer at rate ``lr`` along an all-ones
    gradient; returns the gradients."""
    grads = {key[0]: {key[1]: np.ones_like(net.layer(key[0]).params[key[1]])}}
    net.lr_mult[key[0]] = lr
    net.sgd_step(grads)
    return grads


def test_si_accumulate_zero_step():
    net, si = si_for()
    key = si.keys[0]
    before = si.omega[key].copy()
    si.accumulate(net, ones_step(net, key, 0.0))
    assert np.array_equal(si.omega[key], before)


def test_si_accumulate_sign_convention():
    net, si = si_for()
    key = si.keys[0]
    si.accumulate(net, ones_step(net, key, 0.1))
    assert np.allclose(si.omega[key], 0.1)


def test_si_accumulate_takes_each_step_from_the_last():
    """delta_theta is the step's own, also after a consolidate and after a
    move outside SGD that consolidate saw."""
    net, si = si_for()
    key = si.keys[0]
    arr = net.layer(key[0]).params[key[1]]
    want = np.zeros_like(si.omega[key])
    for lr in (0.1, 0.2):
        theta = arr.astype(np.float64)
        grads = ones_step(net, key, lr)
        si.accumulate(net, grads)
        want += -(arr.astype(np.float64) - theta)
        assert np.array_equal(si.omega[key], want), lr
    arr += 1.0
    si.consolidate(net, is_first_batch=True)
    theta = arr.astype(np.float64)
    si.accumulate(net, ones_step(net, key, 0.3))
    assert np.array_equal(si.omega[key], theta - arr.astype(np.float64))


def test_si_trajectory_tracks_loss_drop_on_quadratic():
    # L(theta) = 1/2 sum a_i (theta_i - t_i)^2 under plain SGD:
    # omega accumulates lr*g^2 per step, which sums to the loss decrease
    # up to O(a*lr); closed form checks Sigma omega against L0 - L_end.
    rng = SeededRng(4)
    a = 0.5 + rng.uniform((20,))
    target = rng.normal((20,), dtype=np.float64)
    theta = rng.normal((20,), dtype=np.float64)
    lr = 0.05
    omega = np.zeros(20)

    def loss(th):
        return 0.5 * float((a * (th - target) ** 2).sum())

    l0 = loss(theta)
    for _ in range(200):
        g = a * (theta - target)
        step = -lr * g
        omega += -g * step
        theta = theta + step
    drop = l0 - loss(theta)
    assert abs(omega.sum() - drop) / drop < 0.10


def test_si_consolidate_clips_at_max_f():
    net, si = si_for()
    key = si.keys[0]
    si.omega[key][...] = 1e9
    si.consolidate(net, is_first_batch=True)
    assert np.all(si.importance[key] == 0.001)


def test_si_consolidate_negative_omega_leaves_f():
    net, si = si_for()
    for key in si.keys:
        si.omega[key][...] = -1.0
    si.consolidate(net, is_first_batch=True)
    for key in si.keys:
        assert np.all(si.importance[key] == 0.0)


def test_si_consolidate_formula_value():
    # w*max(omega,0)/(dtheta^2 + xi) = 0.5*1e-4/(1e-4+1e-7) ~ 0.4995 -> clip 0.001
    net, si = si_for()
    key = si.keys[0]
    si.omega[key][...] = 1e-4
    arr = net.layer(key[0]).params[key[1]]
    si.theta_ref[key] = arr.astype(np.float64) - 1e-2  # dtheta^2 = 1e-4
    si.consolidate(net, is_first_batch=True)
    assert np.all(si.importance[key] == pytest.approx(0.001))


def test_si_consolidate_resets_omega_and_ref():
    net, si = si_for()
    key = si.keys[0]
    si.omega[key][...] = 5.0
    net.layer(key[0]).params[key[1]] += 1.0
    si.consolidate(net, is_first_batch=False)
    assert np.all(si.omega[key] == 0.0)
    assert np.allclose(si.theta_ref[key], net.layer(key[0]).params[key[1]])


def test_si_penalty_zero_at_reference():
    net, si = si_for()
    loss, grads = si.penalty(net)
    assert loss == 0.0
    for pg in grads.values():
        for g in pg.values():
            assert np.all(g == 0)


def test_si_penalty_zero_when_f_zero_or_lambda_zero():
    net, si = si_for(lam=0.0)
    net.layer(si.keys[0][0]).params[si.keys[0][1]] += 1.0
    loss, grads = si.penalty(net)
    assert loss == 0.0 and grads == {}


def test_si_penalty_worked_example():
    net, si = si_for(lam=1.0)
    key = si.keys[0]
    arr = net.layer(key[0]).params[key[1]]
    si.importance[key][...] = 0.001
    si.theta_ref[key] = arr.astype(np.float64) - 2.0
    loss, grads = si.penalty(net)
    n = arr.size
    total = sum(si.importance[k].size for k in si.keys)
    assert loss == pytest.approx(0.004 * n, rel=1e-5)
    assert np.allclose(grads[key[0]][key[1]], 0.004)


def test_si_penalty_gradient_matches_fd(rng):
    net, si = si_for(lam=0.7)
    key = si.keys[2] if len(si.keys) > 2 else si.keys[0]
    arr = net.layer(key[0]).params[key[1]]
    si.importance[key][...] = SeededRng(5).uniform(arr.shape) * 0.001
    si.theta_ref[key] = arr.astype(np.float64) + SeededRng(6).normal(
        arr.shape, dtype=np.float64) * 0.05

    def loss():
        return si.penalty(net)[0]

    _, grads = si.penalty(net)
    check_grad_tensor(loss, arr, grads[key[0]][key[1]], rng, h=1e-3,
                      label="si penalty")


def test_f_nondecreasing_and_bounded_across_batches():
    net, si = si_for()
    r = SeededRng(7)
    prev = {k: si.importance[k].copy() for k in si.keys}
    for b in range(4):
        for k in si.keys:
            si.omega[k][...] = r.normal(si.omega[k].shape, dtype=np.float64) * 1e-5
            net.layer(k[0]).params[k[1]] += r.normal(
                net.layer(k[0]).params[k[1]].shape) * 0.01
        si.consolidate(net, is_first_batch=(b == 0))
        for k in si.keys:
            f = si.importance[k]
            assert np.all(f >= prev[k] - 1e-12)
            assert np.all(f <= 0.001)
            prev[k] = f.copy()


def assert_same_state(a, b):
    """Every ``state()`` entry trainers ``a`` and ``b`` both carry agrees
    bit for bit."""
    sa, sb = a.state(), b.state()
    shared = [k for k in sa if k in sb]
    assert "counters" in shared and "fc.w" in shared
    for key in shared:
        va, vb = sa[key], sb[key]
        assert va.dtype == vb.dtype and va.shape == vb.shape, key
        assert va.tobytes() == vb.tobytes(), key
    return shared


def penalty_all_keys(si, net):
    """The SI penalty summed over every key, frozen layers included."""
    loss, grads = 0.0, {}
    if si.lam == 0.0:
        return 0.0, grads
    for ln, pn in si.keys:
        diff = net.layer(ln).params[pn].astype(np.float64) - si.theta_ref[(ln, pn)]
        f = si.importance[(ln, pn)]
        loss += float(si.lam * (f * diff * diff).sum())
        grads.setdefault(ln, {})[pn] = (2.0 * si.lam * f * diff).astype(np.float32)
    return loss, grads


SMALL_STREAM = ScenarioParams(classes=4, instances_per_class=2, frames_per_session=10,
                              first_batch_classes=2, first_batch_instances=1,
                              test_frames_per_instance=5)


def train_ar1_latent(tap, guard_all=False, after_batch=lambda trainer: None):
    """ar1* with a latent memory over SMALL_STREAM; ``guard_all`` swaps in an
    SI that guards every below-head key and penalises them all."""
    net = build_tinynic_network(classes=4, seed=1, width=4, tap=tap)
    cfg = StrategyConfig(strategy="ar1*", replay_kind="latent", rm_capacity=30,
                         epochs=1, mb=16, lr_first=0.03, lr_head=0.09, lr_other=0.009)
    trainer = ContinualTrainer(net, cfg, seed=1)
    if guard_all:
        si = trainer.si = SiState(net)

        def penalty(net):
            for ln, pn in si.keys:  # a layer at rate 0 has not left theta_ref
                if net.lr_mult[ln] == 0.0:
                    theta = net.layer(ln).params[pn].astype(np.float64)
                    assert np.all(theta - si.theta_ref[(ln, pn)] == 0.0), (ln, pn)
            return penalty_all_keys(si, net)
        si.penalty = penalty
    trace = []
    for batch in generate_tinynic(SMALL_STREAM, seed=3).batches:
        trace += trainer.train_batch(batch.x, batch.y).loss_trace
        after_batch(trainer)
    return trainer, np.array(trace)


@pytest.mark.parametrize("tap", ["pool", "relu3"])
def test_si_guarding_every_below_head_layer_gives_the_same_run(tap):
    """Guarding the pinned lower net too changes no bit: its importance
    is learned in batch 1 and never used, as it cannot move again."""
    trainer, trace = train_ar1_latent(tap)
    every, every_trace = train_ar1_latent(tap, guard_all=True)
    assert np.array_equal(trace.view(np.uint64), every_trace.view(np.uint64))
    shared = assert_same_state(trainer, every)
    assert all(f"si.importance.{ln}.{pn}" in shared for ln, pn in trainer.si.keys)
    unguarded = set(every.si.keys) - set(trainer.si.keys)
    assert unguarded and any(every.si.importance[k].any() for k in unguarded)


def test_si_importance_above_the_tap_stays_within_max_f():
    """Criterion 8's F bound, after every batch, where SI guards a strict,
    non-empty subset."""
    def check(trainer):
        for f in trainer.si.importance.values():
            assert np.all(f >= 0.0) and np.all(f <= trainer.si.max_f)

    si = train_ar1_latent("relu3", after_batch=check)[0].si
    assert si.keys
    assert any(f.any() for f in si.importance.values())


@pytest.mark.parametrize("kw, where", [
    ({"strategy": "naive"}, "batch 3, step 1"),
    ({"strategy": "ar1*", "replay_kind": "latent", "rm_capacity": 20}, "batch 2, step 1"),
    ({"strategy": "ar1*free", "replay_kind": "latent", "rm_capacity": 20},
     "batch 2, step 1")], ids=["naive", "ar1*", "ar1*free"])
def test_diverging_run_stops_with_state_error(kw, where):
    scen = generate_tinynic(SMALL_STREAM, seed=3)
    net = build_tinynic_network(classes=4, seed=0, width=4)
    cfg = StrategyConfig(epochs=1, mb=16, lr_first=1e6, lr_head=1e6, lr_other=1e6, **kw)
    trainer = ContinualTrainer(net, cfg, seed=0)
    with warnings.catch_warnings(), \
            pytest.raises(StateError, match=f"non-finite loss .* {where}:"):
        warnings.simplefilter("error")  # the StateError is the only report
        for batch in scen.batches:
            trainer.train_batch(batch.x, batch.y)


# -- DSLDA ------------------------------------------------------------------------


def gaussian_two_class(n_per, dim=8, seed=0, sep=3.0):
    r = SeededRng(seed)
    cov_l = r.normal((dim, dim), dtype=np.float64) * 0.25
    cov = cov_l @ cov_l.T + np.eye(dim)
    chol = np.linalg.cholesky(cov)
    mu0 = np.zeros(dim)
    mu1 = np.full(dim, sep / np.sqrt(dim))
    x0 = r.normal((n_per, dim), dtype=np.float64) @ chol.T + mu0
    x1 = r.normal((n_per, dim), dtype=np.float64) @ chol.T + mu1
    x = np.concatenate([x0, x1])
    y = np.concatenate([np.zeros(n_per, dtype=np.int64),
                        np.ones(n_per, dtype=np.int64)])
    perm = r.permutation(2 * n_per)
    return x[perm], y[perm]


def batch_lda_oracle(x, y, shrink):
    """Closed-form batch LDA with pooled (MLE) covariance, regularised as
    (1 - shrink) * sigma + shrink * I. Returns the class means, sigma and
    the discriminants' weights [classes, dim] and biases."""
    classes = np.unique(y)
    mu = np.stack([x[y == c].mean(axis=0) for c in classes])
    scatter = np.zeros((x.shape[1], x.shape[1]))
    for c, m in zip(classes, mu):
        d = x[y == c] - m
        scatter += d.T @ d
    sigma = scatter / len(x)
    lam = np.linalg.inv((1 - shrink) * sigma + shrink * np.eye(x.shape[1]))
    w = mu @ lam.T
    bias = -0.5 * (w * mu).sum(axis=1)
    return mu, sigma, w, bias


def test_dslda_first_sample_sets_mean():
    st = DsldaState(3, classes=4)
    f = np.array([1.0, 2.0, 3.0])
    st.update(f, 2)
    assert np.allclose(st.mu[2], f)
    assert st.n_c[2] == 1


def test_dslda_two_samples_average():
    st = DsldaState(2, classes=3)
    st.update(np.array([1.0, 0.0]), 0)
    st.update(np.array([3.0, 2.0]), 0)
    assert np.allclose(st.mu[0], [2.0, 1.0])


def test_dslda_streaming_matches_batch_statistics():
    x, y = gaussian_two_class(100, seed=8)
    st = DsldaState(8, classes=2)
    for f, label in zip(x, y):
        st.update(f, int(label))
    mu, sigma, _, _ = batch_lda_oracle(x, y, 1e-4)
    assert np.abs(st.mu[:2] - mu).max() < 1e-4
    assert np.abs(st.sigma() - sigma).max() < 1e-4


def test_dslda_statistics_are_order_invariant():
    x, y = gaussian_two_class(60, seed=9)
    st1, st2 = DsldaState(8, classes=2), DsldaState(8, classes=2)
    for f, label in zip(x, y):
        st1.update(f, int(label))
    perm = SeededRng(10).permutation(len(x))
    for f, label in zip(x[perm], y[perm]):
        st2.update(f, int(label))
    assert np.abs(st1.mu - st2.mu).max() < 1e-8
    assert np.abs(st1.sigma() - st2.sigma()).max() < 1e-4


def test_dslda_single_class_predicts_it():
    st = DsldaState(4, classes=5)
    st.update(np.array([1.0, -1.0, 0.5, 2.0]), 3)
    assert st.predict_batch(np.array([[100.0, 100.0, 100.0, 100.0]])).tolist() == [3]


def test_dslda_full_shrinkage_is_nearest_mean():
    st = DsldaState(3, classes=2, shrink=1.0)
    st.update(np.array([1.0, 0.0, 0.0]), 0)
    st.update(np.array([0.0, 1.0, 0.0]), 1)
    # score_c = mu_c.x - 0.5 |mu_c|^2 with Lambda = I
    probe = np.array([0.9, 0.2, 0.0])
    scores = probe @ st.mu.T - 0.5 * (st.mu ** 2).sum(axis=1)
    assert st.predict_batch(probe[None]).tolist() == [int(np.argmax(scores))] == [0]


@pytest.mark.parametrize("shrink", [1e-4, 0.5])
def test_dslda_agrees_with_batch_lda_oracle(shrink):
    """The streamed discriminants are the batch oracle's to rounding, so
    the shrinkage mix is checked, not only the decisions it leads to: at
    shrink 1e-4, sigma + shrink * I moves them by about 1e-4 relative."""
    x_all, y_all = gaussian_two_class(225, seed=11)
    x, y = x_all[:200], y_all[:200]
    x_test, y_test = x_all[200:], y_all[200:]
    st = DsldaState(8, classes=2, shrink=shrink)
    for f, label in zip(x, y):
        st.update(f, int(label))
    _, _, w_ref, bias_ref = batch_lda_oracle(x, y, shrink)
    w, bias = st._discriminants()
    np.testing.assert_allclose(w, w_ref, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(bias, bias_ref, rtol=1e-10, atol=1e-12)
    oracle = (x_test @ w_ref.T + bias_ref).argmax(axis=1)
    assert (st.predict_batch(x_test) == oracle).mean() >= 0.99
    assert (st.predict_batch(x_test) == y_test).mean() > 0.9


def test_dslda_dim_mismatch():
    st = DsldaState(4, classes=2)
    with pytest.raises(Exception):
        st.update(np.zeros(5), 0)


# -- trainer orchestration ----------------------------------------------------------


def tinynic_batches(n_batches=3, per_batch=30, classes=6, seed=13):
    r = SeededRng(seed)
    out = []
    for i in range(n_batches):
        x = r.normal((per_batch, 1, 16, 16))
        y = r.randint(0, classes, per_batch)
        out.append((x, y))
    return out


def test_dslda_strategy_never_touches_network():
    net = build_tinynic_network(classes=6, seed=14, tap="pool")
    before = {l.name: {k: v.copy() for k, v in l.params.items()} for l in net.layers}
    trainer = ContinualTrainer(net, StrategyConfig(strategy="dslda"), seed=0)
    for x, y in tinynic_batches():
        report = trainer.train_batch(x, y)
        assert report.steps == 0
    for l in net.layers:
        for k, v in l.params.items():
            assert np.array_equal(v, before[l.name][k])
    preds = trainer.predict_labels(SeededRng(15).normal((8, 1, 16, 16)))
    assert preds.shape == (8,)


@pytest.mark.parametrize("strategy, tap", [("naive", "relu3"), ("cwr*", "pool"),
                                           ("ar1*", "relu3")])
def test_zero_capacity_replay_reduces_to_no_replay(strategy, tap):
    """A run without replay holds a capacity-0 memory: with ``replay_kind``
    None or "native" at capacity 0, the same run gives the same loss
    traces, logits and ``state()``, keys and bits."""
    test_x = SeededRng(18).normal((10, 1, 16, 16))
    runs, states = [], []
    for memory in ({}, dict(replay_kind="native", rm_capacity=0)):
        net = build_tinynic_network(classes=6, seed=17, width=4, tap=tap)
        trainer = ContinualTrainer(net, StrategyConfig(strategy=strategy, epochs=1, mb=16,
                                                       **memory), seed=3)
        run = []
        for x, y in tinynic_batches(seed=16):
            run.append(trainer.train_batch(x, y).loss_trace)
            run.append(trainer.predict_logits(test_x).tobytes())
        runs.append(run)
        states.append({k: (v.dtype.str, v.shape, v.tobytes())
                       for k, v in trainer.state().items()})
    assert runs[0] == runs[1]
    assert list(states[0]) == list(states[1])
    for key, entry in states[0].items():
        assert entry == states[1][key], key


def test_ar1free_equals_ar1_with_lambda_zero():
    batches = tinynic_batches(4, seed=19)
    net_a = build_tinynic_network(classes=6, seed=20)
    net_b = build_tinynic_network(classes=6, seed=20)
    a = ContinualTrainer(net_a, StrategyConfig(
        strategy="ar1*free", replay_kind="latent", rm_capacity=50), seed=5)
    b = ContinualTrainer(net_b, StrategyConfig(
        strategy="ar1*", replay_kind="latent", rm_capacity=50), seed=5)
    b.si.lam = 0.0
    for x, y in batches:
        a.train_batch(x, y)
        b.train_batch(x, y)
    assert_same_state(a, b)


@pytest.mark.parametrize("strategy, memory", [("ar1*", "latent"), ("naive", "native")])
def test_no_step_record_outlives_its_batch_and_evaluation_keeps_state(strategy, memory):
    """Between batches the network keeps no step record, and scoring the
    test set leaves every ``state()`` bit as it was."""
    scen = generate_tinynic(SMALL_STREAM, seed=5)
    net = build_tinynic_network(classes=4, seed=1, width=4, tap="relu3")
    trainer = ContinualTrainer(net, StrategyConfig(
        strategy=strategy, replay_kind=memory, rm_capacity=30, epochs=1, mb=16), seed=2)
    for batch in scen.batches[:3]:
        trainer.train_batch(batch.x, batch.y)
        assert net._ctx is None
        before = {k: v.copy() for k, v in trainer.state().items()}
        trainer.accuracy(scen.test_x, scen.test_y)
        after = trainer.state()
        assert list(after) == list(before)
        for key, arr in before.items():
            assert arr.dtype == after[key].dtype and arr.tobytes() == after[key].tobytes(), key


def test_cwr_isolation_bitwise():
    net = build_tinynic_network(classes=8, seed=21, tap="pool")
    cfg = StrategyConfig(strategy="cwr*", replay_kind="latent", rm_capacity=40)
    trainer = ContinualTrainer(net, cfg, seed=6)
    head = net.layer(net.head_name)
    live_absent = []  # per batch, the live head's absent-class columns at consolidation
    fuse = trainer.cwr.consolidate

    def consolidate(layer, counts):
        live_absent.append((layer.params["w"][:, counts == 0].copy(),
                            layer.params["b"][counts == 0].copy()))
        fuse(layer, counts)

    trainer.cwr.consolidate = consolidate
    r = SeededRng(22)
    for i in range(5):
        classes = sorted(set(r.randint(0, 8, 3).tolist()))
        n = 24
        x = r.normal((n, 1, 16, 16))
        y = np.array([classes[int(j)] for j in r.randint(0, len(classes), n)])
        # the head manages the classes of B_i u RM
        pool_classes = set(y.tolist()) | set(trainer.rm.labels.tolist())
        before_w = trainer.cwr.cw_w.copy()
        before_b = trainer.cwr.cw_b.copy()
        trainer.train_batch(x, y)
        absent = [c for c in range(8) if c not in pool_classes]
        assert i > 0 or absent  # the property is vacuous if every class occurs
        for c in absent:
            assert np.array_equal(trainer.cwr.cw_w[:, c], before_w[:, c])
            assert trainer.cwr.cw_b[c] == before_b[c]
        # preinit zeroes them and the gradient mask keeps them at 0 through
        # every step, so the live head never trains an absent class
        live_w, live_b = live_absent[i]
        assert live_w.shape == (head.in_features, len(absent))
        assert not live_w.any() and not live_b.any()


def bits(arr):
    arr = np.ascontiguousarray(arr)
    return arr.view(np.uint64 if arr.dtype == np.float64 else np.uint32)


def test_cwr_latent_equals_native_when_frozen():
    batches = tinynic_batches(4, per_batch=24, classes=6, seed=23)
    test_x = SeededRng(40).normal((20, 1, 16, 16))
    net_a = build_tinynic_network(classes=6, seed=24, tap="pool")
    net_b = build_tinynic_network(classes=6, seed=24, tap="pool")
    common = dict(strategy="cwr*", rm_capacity=30)
    a = ContinualTrainer(net_a, StrategyConfig(replay_kind="latent", **common), seed=7)
    b = ContinualTrainer(net_b, StrategyConfig(replay_kind="native", **common), seed=7)
    for x, y in batches:
        loss_a = a.train_batch(x, y).loss_trace
        loss_b = b.train_batch(x, y).loss_trace
        assert np.array_equal(bits(np.array(loss_a)), bits(np.array(loss_b)))
    assert list(a.state()) == list(b.state())
    assert_same_state(a, b)
    assert np.array_equal(bits(a.predict_logits(test_x)), bits(b.predict_logits(test_x)))
    # the pinned lower net's memory holds tap activations, whatever its kind
    assert b.rm.payloads.shape == (len(b.rm),) + net_b.tap_shape


@pytest.mark.parametrize("seed", [3, 4])
def test_cwr_heads_at_pool_with_a_latent_memory_train_one_run(seed):
    """Only the head sits above the pool tap, and a latent memory pins the
    lower net from batch 2 on, so cwr*, ar1* and ar1*free train the same
    head: SI guards no layer that still trains."""
    scen = generate_tinynic(SMALL_STREAM, seed=seed)
    runs = {}
    for strategy in ("cwr*", "ar1*", "ar1*free"):
        net = build_tinynic_network(classes=4, seed=1, width=4, tap="pool")
        cfg = StrategyConfig(strategy=strategy, replay_kind="latent", rm_capacity=30,
                             epochs=2, mb=16, lr_first=0.03, lr_head=0.09, lr_other=0.009)
        trainer = ContinualTrainer(net, cfg, seed=2)
        losses = [loss for b in scen.batches
                  for loss in trainer.train_batch(b.x, b.y).loss_trace]
        runs[strategy] = (bits(np.array(losses)), bits(trainer.predict_logits(scen.test_x)))
    assert len(scen.batches) > 2
    for strategy in ("ar1*", "ar1*free"):
        assert np.array_equal(runs[strategy][0], runs["cwr*"][0]), strategy
        assert np.array_equal(runs[strategy][1], runs["cwr*"][1]), strategy


def test_head_lr_ratio_configured():
    net = build_tinynic_network(classes=6, seed=25)
    cfg = StrategyConfig(strategy="ar1*free", replay_kind="latent", rm_capacity=10)
    trainer = ContinualTrainer(net, cfg, seed=8)
    batches = tinynic_batches(2, seed=26)
    trainer.train_batch(*batches[0])
    trainer.train_batch(*batches[1])
    assert net.lr_mult["fc"] == 0.003  # lr_head
    assert net.lr_mult["conv1"] == 0.0 and net.frozen_below_tap
    assert net.lr_mult["conv3_dw"] == 0.0003  # lr_other


def test_lr_other_zero_trains_only_the_head():
    net = build_tinynic_network(classes=6, seed=28, width=4)
    cfg = StrategyConfig(strategy="naive", epochs=1, mb=16, lr_first=0.03, lr_head=0.09,
                         lr_other=0)
    trainer = ContinualTrainer(net, cfg, seed=9)
    (x1, y1), (x2, y2) = tinynic_batches(2, seed=29)
    trainer.train_batch(x1, y1)
    before = {(l.name, k): v.copy() for l in net.layers for k, v in l.params.items()}
    trainer.train_batch(x2, y2)
    for l in net.layers:
        for k, v in l.params.items():
            same = np.array_equal(v.view(np.uint32), before[(l.name, k)].view(np.uint32))
            assert same == (l.name != "fc"), (l.name, k)


def test_all_lower_rates_zero_keep_the_lower_brn_moments_unpinned():
    """An unpinned net whose rates at and below the tap are all 0 runs its
    lower part in eval mode: from batch 2 on the BRN moments there stay
    put, and those above the tap still move."""
    net = build_tinynic_network(classes=6, seed=28, width=4, tap="relu3")
    cfg = StrategyConfig(strategy="naive", epochs=1, mb=16, lr_other=0)
    trainer = ContinualTrainer(net, cfg, seed=9)
    assert not trainer.pin_lower
    brns = [l for l in net.layers if isinstance(l, Brn)]
    batches = tinynic_batches(3, seed=29)
    trainer.train_batch(*batches[0])
    for x, y in batches[1:]:
        before = [brn_moment_bits([l]) for l in brns]
        trainer.train_batch(x, y)
        assert net.frozen_below_tap
        kept = {l.name: np.array_equal(brn_moment_bits([l]), b) for l, b in zip(brns, before)}
        assert kept == {"brn1": True, "brn2": True, "brn3": True,
                        "brn4": False, "brn5": False}


def test_head_steps_at_exactly_lr_head():
    # the ratio form lr_other * (lr_head / lr_other) gives 0.08999999999999998 here
    net = build_tinynic_network(classes=6, seed=28, width=4)
    cfg = StrategyConfig(strategy="naive", epochs=1, mb=16, lr_head=0.09, lr_other=1e-5)
    trainer = ContinualTrainer(net, cfg, seed=9)
    (x1, y1), (x2, y2) = tinynic_batches(2, seed=29)
    trainer.train_batch(x1, y1)
    trainer._configure_batch(2)
    assert net.lr_mult["fc"] == 0.09 and net.lr_mult["conv1"] == 1e-5
    logits, _ = net.forward(x2[:16])
    _, dl = softmax_xent(logits, y2[:16])
    grads = net.backward(dl)
    head = net.layer("fc")
    for arr in head.params.values():  # from 0 the new value is the step exactly
        arr[...] = 0.0
    net.sgd_step(grads)
    for k, g in grads["fc"].items():
        want = -(0.09 * g.astype(np.float64)).astype(np.float32)
        assert np.array_equal(head.params[k].view(np.uint32), want.view(np.uint32)), k


# strategy: (CWR head, SI, DSLDA, only the head trains after batch 1)
PRESETS = {
    "naive": (False, False, False, False),
    "cwr*": (True, False, False, True),
    "ar1*": (True, True, False, False),
    "ar1*free": (True, False, False, False),
    "dslda": (False, False, True, False),
}


@pytest.mark.parametrize("strategy, latent", [
    (s, latent) for s in PRESETS for latent in (False, True)
    if not (s == "dslda" and latent)])
def test_strategy_presets_build_their_parts_and_pin_the_lower_net(strategy, latent):
    cwr, si, dslda, head_only = PRESETS[strategy]
    net = build_tinynic_network(classes=6, seed=32, width=4,
                                tap="pool" if head_only or dslda else "relu3")
    memory = dict(replay_kind="latent", rm_capacity=20) if latent else {}
    trainer = ContinualTrainer(net, StrategyConfig(strategy=strategy, epochs=1, mb=16,
                                                   **memory), seed=10)
    brns = [l for l in net.layers[:net.tap_index + 1] if isinstance(l, Brn)]
    moments = []  # the lower BRN moments before batch 2 and after it
    for x, y in tinynic_batches(2, per_batch=16, seed=33):
        trainer.train_batch(x, y)
        moments.append([brn_moment_bits([l]) for l in brns])
    built = (trainer.cwr is not None, trainer.si is not None, trainer.dslda is not None)
    assert built == (cwr, si, dslda)
    pinned = head_only or latent
    assert net.frozen_below_tap == pinned
    # DSLDA's lower net never trains, so it keeps its moments unpinned
    kept = [np.array_equal(a, b) for a, b in zip(*moments)]
    assert brns and kept == [pinned or dslda] * len(brns)


# case: (strategy config, tap)
FIXED_LOWER_CASES = {
    "ar1*free-latent-relu3": (dict(strategy="ar1*free", replay_kind="latent",
                                   rm_capacity=40), "relu3"),
    "ar1*-latent-pool": (dict(strategy="ar1*", replay_kind="latent", rm_capacity=40), "pool"),
    "cwr*": (dict(strategy="cwr*"), "pool"),
    "cwr*-native": (dict(strategy="cwr*", replay_kind="native", rm_capacity=40), "pool"),
    "dslda": (dict(strategy="dslda"), "pool"),
}


@pytest.mark.parametrize("case", FIXED_LOWER_CASES)
def test_fixed_lower_net_sees_native_rows_once_per_batch_and_test_set_once(case):
    """Rows entering the first layer: from batch 2 on (DSLDA's lower net
    never trains) each native row once per batch, since a pinned net's
    memory, native or latent, holds tap activations, and the test set only
    at its first evaluation, after batch 1, which is the last batch to
    train a pinned lower net."""
    kw, tap = FIXED_LOWER_CASES[case]
    net = build_tinynic_network(classes=6, seed=34, width=4, tap=tap)
    trainer = ContinualTrainer(net, StrategyConfig(epochs=2, mb=8, **kw), seed=11)
    rows, replayed = [], []
    first = net.layers[0]
    forward = first.forward
    first.forward = lambda x, mode: rows.append(len(x)) or forward(x, mode)
    if kw.get("replay_kind") == "native":
        stacked = trainer.rm.stacked
        trainer.rm.stacked = lambda idx: replayed.append(len(idx)) or stacked(idx)
    test_x = SeededRng(35).normal((20, 1, 16, 16))
    test_y = np.arange(20) % 6
    evals = []
    for i, (x, y) in enumerate(tinynic_batches(4, per_batch=16, seed=36), start=1):
        rows.clear()
        replayed.clear()
        trainer.train_batch(x, y)
        if i >= 2:
            assert sum(rows) == len(x), i
        rows.clear()
        trainer.accuracy(test_x, test_y)
        evals.append(sum(rows))
    assert evals == [20, 0, 0, 0]
    assert case != "cwr*-native" or replayed


@pytest.mark.parametrize("case", ["ar1*free-latent-relu3", "cwr*-native"])
def test_cached_evaluation_has_predicts_bits_and_follows_content(case):
    kw, tap = FIXED_LOWER_CASES[case]
    scen = generate_tinynic(SMALL_STREAM, seed=4)
    net = build_tinynic_network(classes=4, seed=1, width=4, tap=tap)
    cfg = StrategyConfig(epochs=1, mb=16, lr_first=0.03, lr_head=0.09, lr_other=0.009, **kw)
    trainer = ContinualTrainer(net, cfg, seed=2)
    test_x = np.concatenate([scen.test_x] * 3)  # more rows than one eval chunk
    test_x[7, 0, 0, 0] = 0.0
    first, rows = net.layers[0], []
    forward = first.forward
    first.forward = lambda x, mode: rows.append(len(x)) or forward(x, mode)

    def rows_below_tap(x):
        """Rows the trainer's evaluation of ``x`` runs through the first layer."""
        rows.clear()
        trainer.predict_logits(x)
        return sum(rows)

    def check(x):
        want = net.predict(x)
        assert np.array_equal(trainer.predict_logits(x).view(np.uint32), want.view(np.uint32))
        assert np.array_equal(trainer.predict_labels(x), want.argmax(axis=1))
        return want

    for batch in scen.batches:
        trainer.train_batch(batch.x, batch.y)
        before = check(test_x)
    assert trainer.lower_fixed and len(scen.batches) > 2
    other = SeededRng(38).normal(test_x.shape)
    assert not np.array_equal(check(other), before)
    check(test_x)
    assert rows_below_tap(test_x) == 0
    test_x[5] = other[5]  # in place: the kept copy is the trainer's own
    assert rows_below_tap(test_x) == len(test_x)
    after = check(test_x)
    assert not np.array_equal(after[5], before[5])
    assert np.array_equal(np.delete(after, 5, axis=0), np.delete(before, 5, axis=0))
    assert rows_below_tap(test_x) == 0
    test_x[7, 0, 0, 0] = -0.0  # equal to 0.0 as a float, not as bits
    assert rows_below_tap(test_x) == len(test_x)
    check(test_x)


# case: (tap, replay kind, the layers SI guards; None: every below-head layer)
SI_GUARDS = {
    "latent-relu3": ("relu3", "latent", ["conv3_dw", "brn4", "conv3_sep", "brn5"]),
    "latent-pool": ("pool", "latent", []),
    "native-relu3": ("relu3", "native", None),
}


@pytest.mark.parametrize("case", SI_GUARDS)
def test_si_guards_the_layers_that_train_after_batch_1(case):
    """ar1*: a latent memory pins every layer up to the tap, so SI guards
    the below-head layers above it (none at pool); a native memory pins
    nothing. Each guarded layer moves after batch 1, and each other
    below-head layer does not."""
    tap, kind, layers = SI_GUARDS[case]
    net = build_tinynic_network(classes=6, seed=34, width=4, tap=tap)
    cfg = StrategyConfig(strategy="ar1*", replay_kind=kind, rm_capacity=40, epochs=2, mb=8,
                         lr_first=0.03, lr_head=0.09, lr_other=0.009)
    trainer = ContinualTrainer(net, cfg, seed=11)
    if layers is None:
        layers = [l.name for l in net.layers if l.name != net.head_name]
    below_head = [(l.name, k) for l in net.layers if l.name != net.head_name for k in l.params]
    assert trainer.si.keys == [key for key in below_head if key[0] in layers]
    batches = tinynic_batches(3, per_batch=16, seed=36)
    trainer.train_batch(*batches[0])
    after_1 = {(ln, k): net.layer(ln).params[k].copy() for ln, k in below_head}
    for x, y in batches[1:]:
        trainer.train_batch(x, y)
    moved = {ln for ln, k in below_head
             if not np.array_equal(net.layer(ln).params[k], after_1[(ln, k)])}
    assert moved == {ln for ln, _ in trainer.si.keys}


@pytest.mark.parametrize("memory", [{}, dict(replay_kind="latent", rm_capacity=20),
                                    dict(replay_kind="native", rm_capacity=20)])
def test_label_count_must_match_row_count(memory):
    strategy = "ar1*free" if memory else "naive"
    net = build_tinynic_network(classes=6, seed=41, width=4)
    trainer = ContinualTrainer(net, StrategyConfig(strategy=strategy, epochs=1, mb=8,
                                                   **memory), seed=12)
    (x, y), = tinynic_batches(1, per_batch=12, seed=42)
    with pytest.raises(ShapeError):
        trainer.train_batch(x[:10], y)
    with pytest.raises(ShapeError):
        trainer.train_batch(x, y[:10])
    assert trainer.batch_count == 0


@pytest.mark.parametrize("strategy", sorted(strategies._PRESETS))
@pytest.mark.parametrize("bad", [-1, 6])
def test_out_of_range_labels_are_rejected_before_state_moves(strategy, bad):
    """A label outside [0, classes) is a ShapeError, raised before the batch
    count or any other state moves; dslda would otherwise train -1 as the
    last class, and the SGD presets fail deep inside the step."""
    net = build_tinynic_network(classes=6, seed=43, width=4, tap="pool")
    trainer = ContinualTrainer(net, StrategyConfig(strategy=strategy, epochs=1, mb=8), seed=14)
    (x1, y1), (x2, y2) = tinynic_batches(2, per_batch=6, seed=44)
    trainer.train_batch(x1, y1)
    before = {k: v.copy() for k, v in trainer.state().items()}
    y2 = y2.copy()
    y2[[1, 4]] = bad
    with pytest.raises(ShapeError, match="labels must lie in"):
        trainer.train_batch(x2, y2)
    after = trainer.state()
    assert list(after) == list(before)
    for key, arr in before.items():
        assert arr.dtype == after[key].dtype and arr.tobytes() == after[key].tobytes(), key


def test_config_errors():
    net = build_tinynic_network(classes=6, seed=27)
    with pytest.raises(ConfigError):
        ContinualTrainer(net, StrategyConfig(strategy="nope"))
    with pytest.raises(ConfigError):
        ContinualTrainer(net, StrategyConfig(strategy="dslda", replay_kind="native"))
    with pytest.raises(ConfigError):
        ContinualTrainer(net, StrategyConfig(strategy="cwr*"))  # tap not penultimate


@pytest.mark.parametrize("field,value", [
    ("epochs", "4"), ("mb", "8"), ("rm_capacity", "30"), ("epochs", True), ("mb", 8.0),
    ("lr_first", float("nan")), ("lr_first", -0.1),
    ("lr_head", float("inf")), ("lr_other", -0.1), ("lr_other", "0.01"),
    ("sparsifier_alpha", "x"), ("sparsifier_alpha", float("inf")), ("sparsifier_alpha", -1.0),
    ("rm_capacity", 500),  # a capacity with no replay_kind would never hold an item
])
def test_config_rejects_bad_types_and_ranges(field, value):
    net = build_tinynic_network(classes=6, seed=27)
    with pytest.raises(ConfigError, match=field):
        ContinualTrainer(net, StrategyConfig(**{field: value}))


def test_predict_labels_stops_on_non_finite_logits_without_warnings():
    net = build_tinynic_network(classes=6, seed=30, width=4)
    trainer = ContinualTrainer(net, StrategyConfig(strategy="naive"))
    net.layer("fc").params["w"][...] = 3e38  # the float32 cast of the logits overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StateError, match="non-finite logits after batch 0"):
            trainer.predict_labels(SeededRng(31).normal((3, 1, 16, 16)))


def test_config_defaults_match_reference_tables():
    cfg = StrategyConfig()
    assert cfg.lr_first == 0.001        # B_1 learning rate
    assert cfg.lr_head == 0.003         # later batches, output layer
    assert cfg.lr_other == 0.0003       # later batches, lower layers (10:1)
    assert cfg.epochs == 4
    si = SiState(build_tinynic_network(classes=6, seed=27))
    assert si.lam == 1.0 and si.xi == 1e-7
    assert si.w1 == si.wi == 0.5
    assert si.max_f == 0.001
    assert DsldaState(3, 2).shrink == 1e-4

    from latentreplay.layers import Brn
    brn = Brn("b", 1)
    assert brn.r_max == 1.25 and brn.d_max == 0.5
    assert brn.avg_rate == 0.99995      # latent-replay moment window
    assert brn.eps == 1e-5


def test_first_batch_lr_then_later_lr():
    net = build_tinynic_network(classes=6, seed=28)
    cfg = StrategyConfig(strategy="naive")
    trainer = ContinualTrainer(net, cfg, seed=9)
    x, y = tinynic_batches(1, seed=29)[0]
    trainer.train_batch(x, y)
    assert all(m == 0.001 for m in net.lr_mult.values())  # lr_first
    trainer.train_batch(x + 1, y)
    assert net.lr_mult["fc"] == 0.003  # lr_head
    assert net.lr_mult["conv1"] == 0.0003 and not net.frozen_below_tap  # lr_other


# -- per-epoch replay draws ------------------------------------------------------------


def replay_keys_per_batch(trainer, B):
    """Integers the trainer's RNG should consume over one batch of B rows,
    given the memory as it stands: per epoch the permutation and one draw
    per step."""
    m, mb = len(trainer.rm), trainer.cfg.mb
    n_nat = max(round(mb * B / (B + m)), 1)
    per_draw = max(m, mb - n_nat)  # m keys, or one per index with replacement
    return trainer.cfg.epochs * (B + -(-B // n_nat) * per_draw)


@pytest.mark.parametrize("draw_keys, blocks", [(None, 1), (70, 3)],
                         ids=["one-block", "several-blocks"])
def test_replay_draws_consume_one_key_per_item_per_step(draw_keys, blocks, monkeypatch):
    """Drawing an epoch's replay rows in blocks reads the integers per-step
    draws would: the RNG counter grows by the expected count, and the run
    does not depend on the block size."""
    def run():
        net = build_tinynic_network(classes=6, seed=40, width=4, tap="pool")
        cfg = StrategyConfig(strategy="ar1*free", replay_kind="latent", rm_capacity=40,
                             epochs=2, mb=8)
        trainer = ContinualTrainer(net, cfg, seed=12)
        draws = []
        sample = trainer.rm.sample
        trainer.rm.sample = lambda *a, **kw: draws.append(kw.get("rows")) or sample(*a, **kw)
        trace = []
        for x, y in tinynic_batches(3, per_batch=16, seed=41):
            counter, expected = trainer.rng._counter, None
            if len(trainer.rm):
                expected = replay_keys_per_batch(trainer, len(x))
            draws.clear()
            trace += trainer.train_batch(x, y).loss_trace
            if expected is not None:
                assert trainer.rng._counter - counter == expected
        return trace, draws, net

    ref_trace, _, ref_net = run()
    if draw_keys is not None:
        monkeypatch.setattr(strategies, "_DRAW_KEYS", draw_keys)
    trace, draws, net = run()
    # batch 3: 32 items and 3 native rows per step, so 6 steps per epoch, 2 per
    # block of at most 70 keys
    assert draws == [6 // blocks] * blocks * 2
    assert np.array_equal(np.array(trace).view(np.uint64), np.array(ref_trace).view(np.uint64))
    for la, lb in zip(net.layers, ref_net.layers):
        for k in la.params:
            assert np.array_equal(la.params[k].view(np.uint32), lb.params[k].view(np.uint32))


def test_replay_with_replacement_warns_once_per_draw():
    """mb > B + |rm|: every draw falls back to sampling with replacement
    and warns once: each epoch's, which is one step long since the native
    rows then cover the batch."""
    net = build_tinynic_network(classes=6, seed=42, width=4, tap="pool")
    cfg = StrategyConfig(strategy="ar1*free", replay_kind="latent", rm_capacity=5,
                         epochs=3, mb=64)
    trainer = ContinualTrainer(net, cfg, seed=13)
    (x1, y1), (x2, y2) = tinynic_batches(2, per_batch=6, seed=43)
    trainer.train_batch(x1, y1)
    counter, expected = trainer.rng._counter, replay_keys_per_batch(trainer, len(x2))
    with pytest.warns(UserWarning, match="with replacement") as caught:
        report = trainer.train_batch(x2, y2)
    assert len([w for w in caught if "with replacement" in str(w.message)]) == cfg.epochs
    assert trainer.rng._counter - counter == expected
    assert np.isfinite(report.loss_trace).all()
