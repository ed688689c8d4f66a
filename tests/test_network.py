import tracemalloc
import weakref

import numpy as np
import pytest

from latentreplay.errors import ConfigError, ShapeError, StateError
from latentreplay.kernels import softmax_xent
from latentreplay.layers import TRAIN, Brn, Dense, Relu
from latentreplay.network import Network
from latentreplay.presets import TINYNIC_TAPS, build_tinynic_network, tinynic_network_spec
from latentreplay.rng import SeededRng
from latentreplay.scenario import ScenarioParams, generate_tinynic

from conftest import brn_moment_bits, check_grad_tensor


def identity_dense_net(n=3):
    layer = Dense("fc", n, n, rng=SeededRng(0))
    layer.params["w"] = np.eye(n, dtype=np.float32)
    net = Network([layer], input_shape=(n,), tap="fc")
    return net


def net_at_rate(avg_rate, tap="relu3", classes=6, width=4, seed=5):
    """The TinyNIC net with every BRN moving its moments at ``avg_rate``."""
    spec = tinynic_network_spec(classes=classes, tap=tap, width=width)
    for item in spec["layers"]:
        if item["kind"] == "brn":
            item["avg_rate"] = avg_rate
    return Network.from_spec(spec, seed=seed)


def toy_net(seed=0, tap="relu1"):
    """dense -> relu (tap) -> brn -> dense head."""
    r = SeededRng(seed)
    layers = [Dense("d1", 6, 8, rng=r), Relu("relu1"), Brn("brn2", 8),
              Dense("head", 8, 4, rng=r)]
    return Network(layers, input_shape=(6,), tap=tap, head_name="head")


def test_identity_net_logits_equal_tap_equal_input():
    net = identity_dense_net()
    x = SeededRng(1).normal((4, 3))
    logits, tapped = net.forward(x)
    assert np.array_equal(logits, x)
    assert np.array_equal(tapped, x)


def test_eval_forward_is_deterministic():
    net = build_tinynic_network(classes=10, seed=3)
    x = SeededRng(2).normal((5, 1, 16, 16))
    a = net.predict(x)
    b = net.predict(x)
    assert a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def ref_test_x():
    """The reference stream's 800-row test set."""
    return generate_tinynic(
        ScenarioParams(classes=10, instances_per_class=4, frames_per_session=40,
                       first_batch_classes=4, first_batch_instances=2,
                       test_frames_per_instance=20), seed=2024).test_x


def traced_peak(fn, *args):
    """(result, peak bytes numpy and Python allocated while ``fn`` ran)."""
    fn(*args)  # warm up anything allocated once per process
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_predict_scratch_is_bounded(ref_test_x):
    net = build_tinynic_network(classes=10, seed=1)
    logits, peak = traced_peak(net.predict, ref_test_x)
    assert logits.shape == (800, 10)
    assert peak <= 4 * 2**20


def test_tap_activations_scratch_is_output_plus_bounded(ref_test_x):
    net = build_tinynic_network(classes=10, seed=1)
    x = np.concatenate([ref_test_x] * 4)
    acts, peak = traced_peak(net.tap_activations, x)
    assert acts.shape == (3200,) + net.tap_shape
    assert peak <= acts.nbytes + 4 * 2**20


def test_predict_bits_do_not_depend_on_rows_per_call(ref_test_x):
    net = build_tinynic_network(classes=10, seed=1)
    whole = net.predict(ref_test_x)
    bounds = np.cumsum([0, 1, 63, 64, 65, 607])
    assert bounds[-1] == len(ref_test_x)
    parts = [net.predict(ref_test_x[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    assert np.concatenate(parts).tobytes() == whole.tobytes()
    assert whole.dtype == np.float32


@pytest.mark.parametrize("entry", ["predict", "tap_activations"])
def test_eval_of_no_rows_errors(entry):
    net = toy_net()
    with pytest.raises(ShapeError, match="empty batch"):
        getattr(net, entry)(np.zeros((0, 6), dtype=np.float32))


def test_forward_from_reproduces_logits():
    net = toy_net()
    x = SeededRng(4).normal((5, 6))
    assert np.array_equal(net.forward_from(net.tap_activations(x)), net.predict(x))


@pytest.mark.parametrize("tap", TINYNIC_TAPS)
def test_stored_latent_equals_input_fed_when_frozen(tap):
    """Logits from stored tap activations carry the bits of a full eval
    pass, over more rows than one eval chunk: a trainer may keep the test
    set's activations once the lower net is fixed."""
    net = build_tinynic_network(classes=10, seed=5, tap=tap)
    x = SeededRng(6).normal((70, 1, 16, 16))
    net.freeze_below_tap()
    stored = net.tap_activations(x)
    direct = net.predict(x)
    via_latent = net.forward_from(stored)
    assert np.array_equal(via_latent.view(np.uint32), direct.view(np.uint32))


def test_net_tapped_at_its_head_evaluates_from_its_tap_activations():
    """With the tap at the output layer no layer sits above it: the pass
    from the tap hands the activations through, with predict's bits."""
    net = Network.from_spec(dict(tinynic_network_spec(classes=4, width=4), tap="fc"), seed=5)
    x = SeededRng(6).normal((70, 1, 16, 16))
    direct = net.predict(x)
    assert np.array_equal(net.forward_from(net.tap_activations(x)).view(np.uint32),
                          direct.view(np.uint32))


@pytest.mark.parametrize("tap", TINYNIC_TAPS)
def test_frozen_train_forward_taps_the_bits_of_eval(tap):
    """Once frozen, the lower net is one fixed function: a train-mode pass
    reaches the tap with the bits of an eval-mode one, so stored latents
    are what the native rows would give today."""
    net = net_at_rate(0.9, tap=tap)
    r = SeededRng(11)
    for _ in range(3):
        net.forward(r.normal((8,) + net.input_shape))
    assert not np.array_equal(net.layer("brn1").mu_mov, 0.0)
    net.freeze_below_tap()
    lower = net.layers[:net.tap_index + 1]
    before = brn_moment_bits(lower)
    x = r.normal((8,) + net.input_shape)
    trained = net.forward(x)[1]
    assert net._ctx["below"] == []
    assert np.array_equal(brn_moment_bits(lower), before)
    assert np.array_equal(trained.view(np.uint32), net.tap_activations(x).view(np.uint32))


def test_zero_latent_through_relu_dense_gives_bias():
    # tap below a relu + dense(bias) head: relu(0) = 0, so logits = bias
    r = SeededRng(7)
    layers = [Dense("d1", 4, 4, rng=r), Relu("act"), Dense("head", 4, 3, rng=r)]
    net = Network(layers, input_shape=(4,), tap="d1")
    net.layer("head").params["b"] = np.array([0.1, -0.2, 0.3], dtype=np.float32)
    zero = np.zeros((2, 4), dtype=np.float32)
    logits = net.forward_from(zero)
    assert np.allclose(logits, net.layer("head").params["b"])


def test_forward_concat_degenerate_cases():
    """No replay rows is forward's pass; no native rows, or None, is the
    pass from the tap up. Each pass runs on a fresh net, as a training
    pass moves the BRN moments above the tap."""
    x = SeededRng(8).normal((3, 6))
    plain, tapped_plain = toy_net().forward(x)
    joint, tapped = toy_net().forward_concat(x, np.zeros((0, 8), dtype=np.float32))
    assert np.array_equal(joint, plain)
    assert np.array_equal(tapped, tapped_plain)
    assert np.array_equal(tapped, toy_net().tap_activations(x))  # no BRN below the tap

    lat = SeededRng(9).normal((4, 8))
    only_replay, tapped0 = toy_net().forward_concat(np.zeros((0, 6), dtype=np.float32), lat)
    assert np.array_equal(only_replay, toy_net().forward_concat(None, lat)[0])
    assert tapped0.shape == (0, 8)


def test_forward_concat_batch_counts_match_worked_example():
    net = build_tinynic_network(classes=10, seed=10)
    x = SeededRng(11).normal((21, 1, 16, 16))
    lat = SeededRng(12).normal((107,) + net.tap_shape)
    logits, tapped = net.forward_concat(x, lat)
    assert logits.shape == (128, 10)
    assert tapped.shape == (21,) + net.tap_shape


def test_forward_concat_empty_batch_errors():
    net = toy_net()
    with pytest.raises(ShapeError):
        net.forward_concat(np.zeros((0, 6), dtype=np.float32),
                           np.zeros((0, 8), dtype=np.float32))


@pytest.mark.parametrize("entry, width", [("forward", 6), ("forward_from", 8)])
def test_forward_and_forward_from_empty_batch_errors(entry, width):
    with pytest.raises(ShapeError, match="empty batch"):
        getattr(toy_net(), entry)(np.zeros((0, width), dtype=np.float32))


def test_frozen_lower_part_records_only_what_backward_walks():
    """A fixed lower net runs in eval mode and is not recorded: native and
    replay rows give the bits of the same net's upper-only pass from the
    native rows' tap activations, and the lower BRN moments stay put."""
    nets = [net_at_rate(0.9) for _ in range(2)]
    r = SeededRng(10)
    x, lat = r.normal((3,) + nets[0].input_shape), r.normal((5,) + nets[0].tap_shape)
    lower = nets[0].layers[:nets[0].tap_index + 1]
    before = brn_moment_bits(lower)
    grads = []
    for net, native, latent in ((nets[0], x, lat), (nets[1], x[:0], None)):
        net.freeze_below_tap()
        if latent is None:
            latent = np.concatenate([net.tap_activations(x), lat])
        logits, _ = net.forward_concat(native, latent)
        assert net._ctx["below"] == []
        _, dl = softmax_xent(logits, np.arange(8) % 6)
        grads.append(net.backward(dl))
    assert np.array_equal(brn_moment_bits(lower), before)
    above = {l.name for l in nets[0].layers[nets[0].tap_index + 1:] if l.params}
    assert set(grads[0]) == above
    assert_same_grads(*grads)


def test_backward_without_forward_errors():
    net = toy_net()
    with pytest.raises(StateError):
        net.backward(np.zeros((2, 4), dtype=np.float32))


def test_backward_after_a_failed_train_forward_errors():
    """A train-mode pass that raises leaves no record, so backward cannot
    return the gradients of the pass before it."""
    net = toy_net()
    net.forward(SeededRng(3).normal((2, 6)))
    with pytest.raises(ShapeError):
        net.forward(np.zeros((2, 5), dtype=np.float32))
    with pytest.raises(StateError):
        net.backward(np.zeros((2, 4), dtype=np.float32))


def test_train_forward_frees_the_last_pass_caches_first():
    """Only one step's caches are alive at the peak: the im2col matrix that
    conv3_dw kept for the last step is gone when the next train-mode pass
    reaches conv3_dw."""
    net = build_tinynic_network(classes=4, width=4, seed=5)
    x, labels = SeededRng(6).normal((8, 1, 16, 16)), np.arange(8) % 4
    conv = net.layer("conv3_dw")
    net.backward(softmax_xent(net.forward(x)[0], labels)[1])
    kept = weakref.ref(next(c for l, c in net._ctx["above"] if l is conv)[0])
    forward, reached = conv.forward, []

    def checked(x, mode):
        if mode == TRAIN:
            assert kept() is None, "the last pass's kept matrix is still alive"
            reached.append(mode)
        return forward(x, mode)

    conv.forward = checked
    net.forward(x)
    assert reached == [TRAIN]


def test_backward_replay_rows_stop_at_tap():
    r = SeededRng(13)
    layers = [Dense("below", 5, 6, rng=r), Dense("head", 6, 3, rng=r)]
    net = Network(layers, input_shape=(5,), tap="below")
    x_nat = r.normal((2, 5))
    lat = r.normal((3, 6))
    logits, tapped = net.forward_concat(x_nat, lat)
    dl = r.normal(logits.shape)
    grads = net.backward(dl)

    joint = np.concatenate([tapped, lat])
    w_head = net.layer("head").params["w"].astype(np.float64)
    dW_head = joint.astype(np.float64).T @ dl.astype(np.float64)
    assert np.allclose(grads["head"]["w"], dW_head, atol=1e-5)

    d_tap = (dl.astype(np.float64) @ w_head.T)[:2]  # native rows only
    dW_below = x_nat.astype(np.float64).T @ d_tap
    assert np.allclose(grads["below"]["w"], dW_below, atol=1e-5)
    assert np.allclose(grads["below"]["b"], d_tap.sum(axis=0), atol=1e-5)


def test_backward_full_native_matches_any_tap_position():
    x = SeededRng(14).normal((4, 6))
    labels = np.array([0, 1, 2, 3])
    grads_by_tap = []
    for tap in ("d1", "relu1", "brn2"):
        net = toy_net(seed=15, tap=tap)
        logits, _ = net.forward(x)
        _, dl = softmax_xent(logits, labels)
        grads_by_tap.append(net.backward(dl))
    ref = grads_by_tap[0]
    for other in grads_by_tap[1:]:
        assert set(other) == set(ref)
        for lname in ref:
            for pname in ref[lname]:
                assert np.array_equal(ref[lname][pname], other[lname][pname]), \
                    (lname, pname)


def test_frozen_below_tap_skips_lower_gradients():
    net = toy_net(seed=16)
    assert not net.frozen_below_tap
    net.freeze_below_tap()
    assert net.lr_mult["d1"] == net.lr_mult["relu1"] == 0.0 and net.frozen_below_tap
    x = SeededRng(17).normal((3, 6))
    logits, _ = net.forward(x)
    _, dl = softmax_xent(logits, np.array([0, 1, 2]))
    grads = net.backward(dl)
    assert "d1" not in grads
    assert "head" in grads


def record_need_dx(layer):
    """Wrap ``layer.backward`` to log the need_dx of each call; ``del
    layer.backward`` restores it."""
    asked, backward = [], layer.backward
    layer.backward = lambda dy, cache, need_dx=True: (
        asked.append(need_dx) or backward(dy, cache, need_dx))
    return asked


def assert_same_grads(grads, ref):
    assert grads.keys() == ref.keys()
    for name, g in ref.items():
        for key, arr in g.items():
            assert np.array_equal(grads[name][key].view(np.uint32), arr.view(np.uint32)), \
                (name, key)


@pytest.mark.parametrize("how", ["concat_frozen", "from"])
@pytest.mark.parametrize("tap, lowest", [("relu3", "conv3_dw"), ("pool", "fc")])
def test_backward_stopping_at_tap_skips_tap_grad_with_same_param_grads(tap, lowest, how):
    net = build_tinynic_network(classes=6, seed=5, width=4, tap=tap)
    r = SeededRng(8)
    latent = r.normal((7,) + net.tap_shape)
    if how == "concat_frozen":
        net.freeze_below_tap()
        logits, _ = net.forward_concat(r.normal((3,) + net.input_shape), latent)
    else:
        logits, _ = net.forward_concat(None, latent)
    _, dl = softmax_xent(logits, np.arange(len(logits)) % 6)
    above = net._ctx["above"]
    assert above[0][0] is net.layer(lowest)
    asked = record_need_dx(net.layer(lowest))
    grads = net.backward(dl)
    del net.layer(lowest).backward
    assert asked == [False]
    # the same upper chain with every input gradient computed
    full, d = {}, dl
    for layer, cache in reversed(above):
        d, g = layer.backward(d, cache)
        if g:
            full[layer.name] = g
    assert d.shape == (len(logits),) + net.tap_shape
    assert_same_grads(grads, full)


@pytest.mark.parametrize("tap, lowest", [("relu3", "conv3_dw"), ("pool", "fc")])
def test_backward_into_trainable_lower_part_keeps_tap_grad(tap, lowest):
    net = build_tinynic_network(classes=6, seed=5, width=4, tap=tap)
    r = SeededRng(9)
    logits, _ = net.forward_concat(r.normal((3,) + net.input_shape),
                                   r.normal((7,) + net.tap_shape))
    _, dl = softmax_xent(logits, np.arange(len(logits)) % 6)
    asked = record_need_dx(net.layer(lowest))
    grads = net.backward(dl)
    del net.layer(lowest).backward
    assert asked == [True]
    assert "conv1" in grads


@pytest.mark.parametrize("make", [lambda: build_tinynic_network(classes=6, seed=5, width=4),
                                  lambda: toy_net(seed=6)], ids=["tinynic", "dense"])
def test_backward_skips_network_input_grad_with_same_param_grads(make):
    net = make()
    x = SeededRng(7).normal((10,) + net.input_shape)
    logits, _ = net.forward(x)
    _, dl = softmax_xent(logits, np.arange(10) % 4)
    first = net.layers[0]
    asked = record_need_dx(first)
    grads = net.backward(dl)
    del first.backward
    assert asked == [False]
    # the same chain with every input gradient computed
    full, d = {}, dl
    for layer, cache in reversed(net._ctx["below"] + net._ctx["above"]):
        dy, (d, g) = d, layer.backward(d, cache)
        if g:
            full[layer.name] = g
    assert d.shape == x.shape
    assert first.backward(dy, net._ctx["below"][0][1], need_dx=False)[0] is None
    assert_same_grads(grads, full)


def test_sgd_step_definition_and_freeze():
    layer = Dense("w1", 1, 1, rng=SeededRng(0))
    layer.params["w"] = np.array([[1.0]], dtype=np.float32)
    net = Network([layer], input_shape=(1,), tap="w1")
    net.lr_mult["w1"] = 0.1
    net.sgd_step({"w1": {"w": np.array([[1.0]], dtype=np.float32)}})
    assert np.allclose(net.layer("w1").params["w"], 0.9)
    net.lr_mult["w1"] = 0.0
    net.sgd_step({"w1": {"w": np.array([[5.0]], dtype=np.float32)}})
    assert np.allclose(net.layer("w1").params["w"], 0.9)


def test_sgd_step_moves_each_layer_by_its_rate_bitwise():
    """Each param with a gradient moves by float32(lr * g) in float32
    arithmetic; params of a layer at rate 0 stay bit-equal, gradient or not."""
    net = build_tinynic_network(classes=5, seed=40, width=4, tap="relu2")
    x = SeededRng(41).normal((6, 1, 16, 16))
    net.lr_mult.update(dict.fromkeys(net.lr_mult, 0.05), fc=0.15)
    for frozen in (False, True):
        if frozen:
            net.freeze_below_tap()
        logits, _ = net.forward(x)
        _, dl = softmax_xent(logits, np.arange(6) % 5)
        grads = net.backward(dl)
        if frozen:  # gradients for frozen layers must still leave them unmoved
            grads.update({l.name: {k: np.ones_like(v) for k, v in l.params.items()}
                          for l in net.layers[:net.tap_index + 1] if l.params})
        before = {(l.name, k): v.copy() for l in net.layers for k, v in l.params.items()}
        assert net.sgd_step(grads) is None
        moved = 0
        for l in net.layers:
            lr = net.lr_mult[l.name]
            for k, v in l.params.items():
                want = before[(l.name, k)]
                if lr != 0.0:
                    want = want - (lr * grads[l.name][k].astype(np.float64)).astype(np.float32)
                    moved += 1
                assert np.array_equal(v.view(np.uint32), want.view(np.uint32)), (l.name, k)
        assert moved == sum(len(g) for ln, g in grads.items() if net.lr_mult[ln] != 0.0)
        assert moved and (frozen or moved == len(before))
    assert net.lr_mult["conv1"] == 0.0


def test_lr_mult_zero_everywhere_keeps_parameters():
    net = toy_net(seed=18)
    for name in net.lr_mult:
        net.lr_mult[name] = 0.0
    x = SeededRng(19).normal((3, 6))
    before = {l.name: {k: v.copy() for k, v in l.params.items()} for l in net.layers}
    logits, _ = net.forward(x)
    _, dl = softmax_xent(logits, np.array([0, 1, 2]))
    net.sgd_step(net.backward(dl))
    for l in net.layers:
        for k, v in l.params.items():
            assert np.array_equal(v, before[l.name][k])


def _net_loss(net, x, labels):
    brns = [l for l in net.layers if isinstance(l, Brn)]

    def loss():
        saved = [(b.mu_mov.copy(), b.sigma_mov.copy()) for b in brns]
        logits, _ = net.forward(x)
        val, _ = softmax_xent(logits, labels)
        for b, (m, s) in zip(brns, saved):
            b.mu_mov, b.sigma_mov = m, s
        return val
    return loss


def probe_net(seed=20):
    """Small every-layer-kind net on 8x8 inputs; few units per channel so
    finite differences rarely cross relu kinks."""
    doc = {
        "input_shape": [1, 8, 8], "tap": "relu2", "head": "fc",
        "layers": [
            {"name": "conv1", "kind": "conv", "out_channels": 4, "kernel": 4,
             "stride": 2, "pad": 1},
            {"name": "brn1", "kind": "brn"},
            {"name": "relu1", "kind": "relu"},
            {"name": "dw2", "kind": "dwconv", "kernel": 3, "stride": 1, "pad": 1},
            {"name": "brn2", "kind": "brn"},
            {"name": "relu2", "kind": "relu"},
            {"name": "sep3", "kind": "conv", "out_channels": 8, "kernel": 1},
            {"name": "brn3", "kind": "brn"},
            {"name": "relu3", "kind": "relu"},
            {"name": "pool", "kind": "avgpool"},
            {"name": "fc", "kind": "dense", "units": 6},
        ],
    }
    return Network.from_spec(doc, seed=seed)


def test_every_layer_backward_matches_finite_differences(rng):
    net = probe_net(seed=20)
    # saturate every BRN so r, d are locally constant
    for layer in net.layers:
        if isinstance(layer, Brn):
            layer.mu_mov = np.full(layer.channels, -10.0)
            layer.sigma_mov = np.full(layer.channels, 0.01)
    x = SeededRng(21).normal((4, 1, 8, 8))
    labels = np.array([0, 1, 2, 3])
    loss_fn = _net_loss(net, x, labels)

    logits, _ = net.forward(x)
    _, dl = softmax_xent(logits, labels)
    grads = net.backward(dl)
    for layer in net.layers:
        if isinstance(layer, Brn):
            layer.mu_mov = np.full(layer.channels, -10.0)
            layer.sigma_mov = np.full(layer.channels, 0.01)

    for lname, pgrads in grads.items():
        layer = net.layer(lname)
        for pname, g in pgrads.items():
            check_grad_tensor(loss_fn, layer.params[pname], g, rng,
                              n_coords=10, h=2e-3, skip_kinks=True,
                              label=f"{lname}.{pname}")


def test_duplicate_layer_names_rejected():
    with pytest.raises(ConfigError):
        r = SeededRng(0)
        Network([Dense("a", 2, 2, rng=r), Dense("a", 2, 2, rng=r)], input_shape=(2,),
                tap="a")


def test_unknown_tap_rejected():
    with pytest.raises(ConfigError):
        Network([Dense("a", 2, 2, rng=SeededRng(0))], input_shape=(2,), tap="zzz")


def test_brn_on_a_rank_2_input_normalizes_its_first_axis():
    """A [c, length] input has c channels, the axis BRN's forward
    normalizes; a spec starting with a BRN on [4, 6] builds and trains."""
    net = Network.from_spec({
        "input_shape": [4, 6], "tap": "b",
        "layers": [{"name": "b", "kind": "brn"}, {"name": "flat", "kind": "flatten"},
                   {"name": "fc", "kind": "dense", "units": 3}],
    }, seed=1)
    assert net.layer("b").channels == 4
    x = SeededRng(2).normal((5, 4, 6))
    logits, _ = net.forward(x)
    _, dl = softmax_xent(logits, np.array([0, 1, 2, 0, 1]))
    before = net.layer("b").params["gamma"].copy()
    net.sgd_step(net.backward(dl))
    assert logits.shape == (5, 3)
    assert not np.array_equal(net.layer("b").params["gamma"], before)
    with pytest.raises(ShapeError, match="expected 6 channels, got 4"):
        Brn("b", 6).out_shape((4, 6))


@pytest.mark.parametrize("avg_rate", ["x", 1.5, -0.1, float("nan")])
def test_tinynic_avg_rate_outside_unit_interval_rejected(avg_rate):
    with pytest.raises(ConfigError, match="avg_rate"):
        net_at_rate(avg_rate, classes=4, width=8, seed=0)


def test_input_shape_mismatch_raises():
    net = toy_net()
    with pytest.raises(ShapeError):
        net.forward(np.zeros((2, 5), dtype=np.float32))
    with pytest.raises(ShapeError):
        net.forward_from(np.zeros((2, 7), dtype=np.float32))


def test_short_latent_equivalence():
    """10 steps of latent vs input-fed replay training with the lower part
    frozen: above-tap parameters stay bit-identical."""
    pool_rng = SeededRng(26)
    patterns = pool_rng.normal((30, 6))
    labels = np.arange(30) % 4
    replay_pat = pool_rng.normal((12, 6))
    replay_lab = np.arange(12) % 4

    net_a = toy_net(seed=27)
    net_b = toy_net(seed=27)
    for net in (net_a, net_b):
        net.freeze_below_tap()
        net.lr_mult.update(brn2=0.05, head=0.05)
    latents = net_a.tap_activations(replay_pat)

    draw_a, draw_b = SeededRng(28), SeededRng(28)
    for _ in range(10):
        na = draw_a.choice(30, 4)
        ra = draw_a.choice(12, 5)
        nb = draw_b.choice(30, 4)
        rb = draw_b.choice(12, 5)
        assert np.array_equal(na, nb) and np.array_equal(ra, rb)
        y_joint = np.concatenate([labels[na], replay_lab[ra]])

        logits_a, _ = net_a.forward_concat(patterns[na], latents[ra])
        _, dla = softmax_xent(logits_a, y_joint)
        net_a.sgd_step(net_a.backward(dla))

        logits_b, _ = net_b.forward(np.concatenate([patterns[nb], replay_pat[rb]]))
        _, dlb = softmax_xent(logits_b, y_joint)
        net_b.sgd_step(net_b.backward(dlb))

    for lname in ("brn2", "head"):
        for pname, arr in net_a.layer(lname).params.items():
            assert np.array_equal(arr, net_b.layer(lname).params[pname]), \
                (lname, pname)
