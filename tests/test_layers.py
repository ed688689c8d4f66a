import numpy as np
import pytest

from latentreplay import kernels
from latentreplay.layers import (Brn, Conv, Dense, DwConv, Flatten,
                                 GlobalAvgPool, Relu, TRAIN, _csum)
from latentreplay.presets import build_tinynic_network
from latentreplay.rng import SeededRng

from conftest import CONV_SHAPES, check_grad_tensor, same_bits


def saturating_brn(channels, rng_seed=0):
    """BRN whose r and d clips are pinned at their bounds, so the
    stop-gradient backward is the true local derivative."""
    layer = Brn("brn", channels)
    layer.mu_mov = np.full(channels, -10.0)
    layer.sigma_mov = np.full(channels, 0.01)
    r = SeededRng(rng_seed)
    layer.params["gamma"] = (0.5 + r.uniform((channels,))).astype(np.float32)
    layer.params["beta"] = r.normal((channels,)) * 0.1
    return layer


def layer_loss(layer, x, dy_seed=0, mode="train"):
    """Scalar probe loss sum(dy * layer(x)) with fixed random dy."""
    def loss():
        y, _ = layer.forward(x, mode)
        dy = SeededRng(dy_seed).normal(y.shape).astype(np.float64)
        return float((y.astype(np.float64) * dy).sum())
    return loss


def layer_grads(layer, x, dy_seed=0, mode="train"):
    y, cache = layer.forward(x, mode)
    dy = SeededRng(dy_seed).normal(y.shape)
    dx, grads = layer.backward(dy, cache)
    return dx, grads


# -- dense --------------------------------------------------------------------


def test_dense_forward_manual():
    layer = Dense("fc", 3, 2, rng=SeededRng(20))
    layer.params["w"] = np.array([[1, 2], [3, 4], [5, 6]], dtype=np.float32)
    layer.params["b"] = np.array([0.5, -0.5], dtype=np.float32)
    y, _ = layer.forward(np.array([[1, 1, 1]], dtype=np.float32), "eval")
    assert np.allclose(y, [[9.5, 11.5]])


def test_dense_gradients(rng):
    layer = Dense("fc", 5, 4, rng=SeededRng(21))
    x = SeededRng(22).normal((3, 5))
    dx, grads = layer_grads(layer, x)
    # BRN-free layers keep their moments out of the picture; frozen dy probe
    check_grad_tensor(layer_loss(layer, x), layer.params["w"], grads["w"], rng,
                      label="dense w")
    check_grad_tensor(layer_loss(layer, x), layer.params["b"], grads["b"], rng,
                      label="dense b")
    check_grad_tensor(layer_loss(layer, x), x, dx, rng, label="dense x")


# -- conv / dwconv --------------------------------------------------------------


def test_conv_layer_gradients(rng):
    layer = Conv("c", 3, 4, kernel=3, stride=2, pad=1, rng=SeededRng(23))
    x = SeededRng(24).normal((2, 3, 5, 5))
    dx, grads = layer_grads(layer, x)
    check_grad_tensor(layer_loss(layer, x), layer.params["w"], grads["w"], rng,
                      n_coords=12, label="conv w")
    check_grad_tensor(layer_loss(layer, x), x, dx, rng, n_coords=12, label="conv x")


def test_dwconv_layer_gradients(rng):
    layer = DwConv("dw", 4, kernel=3, stride=1, pad=1, rng=SeededRng(25))
    x = SeededRng(26).normal((2, 4, 4, 4))
    dx, grads = layer_grads(layer, x)
    check_grad_tensor(layer_loss(layer, x), layer.params["w"], grads["w"], rng,
                      n_coords=12, label="dwconv w")
    check_grad_tensor(layer_loss(layer, x), x, dx, rng, n_coords=12, label="dwconv x")


def test_dwconv_is_conv_with_channel_groups():
    layer = DwConv("dw", 3, kernel=3, pad=1, rng=SeededRng(27))
    assert layer.groups == 3 and layer.out_channels == 3
    assert layer.params["w"].shape == (3, 1, 3, 3)


@pytest.mark.parametrize("need_dx", [True, False])
@pytest.mark.parametrize("name", list(CONV_SHAPES))
def test_conv_backward_from_kept_matrix(name, need_dx):
    """Train mode keeps the input's float64 im2col matrix instead of the
    input; eval mode keeps nothing. Backward from the matrix gives the
    bits of kernels.conv2d_backward."""
    c, hw, f, k, stride, pad, groups = CONV_SHAPES[name]
    layer = Conv(name, c, f, k, stride, pad, groups, rng=SeededRng(28))
    x = SeededRng(29).normal((48, c, hw, hw))
    y, cache = layer.forward(x, TRAIN)
    cols, x_shape = cache
    _, _, ho, wo = y.shape
    assert x_shape == x.shape
    assert cols.dtype == np.float64 and cols.size == 48 * ho * wo * c * k * k
    assert layer.forward(x, "eval")[1] is None
    w = layer.params["w"]
    assert same_bits(y, kernels.conv2d(x, w, stride, pad, groups))
    dy = SeededRng(30).normal(y.shape)
    dx, grads = layer.backward(dy, cache, need_dx=need_dx)
    dx_ref, dw_ref = kernels.conv2d_backward(x, w, dy, stride, pad, groups)
    assert same_bits(grads["w"], dw_ref)
    assert same_bits(dx, dx_ref) if need_dx else dx is None


# -- relu / pool / flatten -------------------------------------------------------


def test_relu_forward_and_gradient(rng):
    layer = Relu("r")
    x = SeededRng(28).normal((3, 6)) + 0.05  # keep coords off the kink
    x[np.abs(x) < 0.02] = 0.5
    y, _ = layer.forward(x, "train")
    assert np.all(y >= 0)
    dx, _ = layer_grads(layer, x)
    check_grad_tensor(layer_loss(layer, x), x, dx, rng, h=1e-3, label="relu x")


def test_relu_matches_reference_bitwise():
    """Forward and backward equal the float32 casts of numpy's maximum and
    masked product, signed zeros included."""
    layer = Relu("r")
    r = SeededRng(41)
    for dtype in (np.float32, np.float64):
        x = r.normal((48, 8, 8, 8)).astype(dtype)
        x[0, 0, 0, :4] = [0.0, -0.0, 0.0, -0.0]
        dy = r.normal(x.shape).astype(dtype)
        y, mask = layer.forward(x, "train")
        dx, _ = layer.backward(dy, mask)
        assert y.dtype == dx.dtype == np.float32
        assert np.array_equal(y.view(np.uint32),
                              np.maximum(x, 0.0).astype(np.float32).view(np.uint32))
        assert np.array_equal(dx.view(np.uint32),
                              (dy * (x > 0)).astype(np.float32).view(np.uint32))


def test_pool_gradient(rng):
    layer = GlobalAvgPool("p")
    x = SeededRng(29).normal((2, 3, 4, 4))
    dx, _ = layer_grads(layer, x)
    check_grad_tensor(layer_loss(layer, x), x, dx, rng, label="pool x")


def test_flatten_round_trip():
    layer = Flatten("f")
    x = SeededRng(30).normal((2, 3, 2, 2))
    y, cache = layer.forward(x, "train")
    assert y.shape == (2, 12)
    dx, _ = layer.backward(y, cache)
    assert np.array_equal(dx, x)


# -- batch renormalization --------------------------------------------------------


def test_brn_reduces_to_batchnorm_when_moments_match():
    rng = SeededRng(31)
    x = rng.normal((64, 3))
    layer = Brn("b", 3)
    xf = x.astype(np.float64)
    mu = xf.mean(axis=0)
    sigma = np.sqrt(xf.var(axis=0) + layer.eps)
    layer.mu_mov = mu.copy()
    layer.sigma_mov = sigma.copy()
    y, cache = layer.forward(x, "train")
    assert np.allclose(cache[2], 1.0)  # r
    assert np.allclose(cache[3], 0.0, atol=1e-12)  # d
    plain_bn = (xf - mu) / sigma
    assert np.abs(y - plain_bn).max() < 1e-6


def test_brn_r_clips_at_r_max():
    rng = SeededRng(32)
    x = rng.normal((256, 2)) * 2.0  # batch sigma ~ 2x moving sigma
    layer = Brn("b", 2)
    y, cache = layer.forward(x, "train")
    assert np.allclose(cache[2], 1.25)


def test_brn_d_clips_at_d_max():
    rng = SeededRng(33)
    x = rng.normal((256, 2)) + 5.0
    layer = Brn("b", 2)
    _, cache = layer.forward(x, "train")
    assert np.allclose(cache[3], 0.5)


def test_brn_train_mode_batch_moments_property():
    # per-channel mean d*gamma+beta and std r*gamma, up to eps
    rng = SeededRng(34)
    x = rng.normal((512, 4)) * 1.7 + 0.3
    layer = Brn("b", 4)
    layer.params["gamma"] = np.array([1.0, 2.0, 0.5, 1.5], dtype=np.float32)
    layer.params["beta"] = np.array([0.0, 1.0, -1.0, 0.25], dtype=np.float32)
    y, cache = layer.forward(x, "train")
    _, _, r, d = cache
    gamma = layer.params["gamma"].astype(np.float64)
    beta = layer.params["beta"].astype(np.float64)
    assert np.abs(y.mean(axis=0) - (d * gamma + beta)).max() < 1e-3
    assert np.abs(y.std(axis=0) - r * gamma).max() < 2e-3


def test_brn_moving_moment_update_rule():
    rng = SeededRng(35)
    x = rng.normal((128, 2)) * 3.0 + 1.0
    layer = Brn("b", 2, avg_rate=0.9)
    mu0, sig0 = layer.mu_mov.copy(), layer.sigma_mov.copy()
    xf = x.astype(np.float64)
    mu_b = xf.mean(axis=0)
    sigma_b = np.sqrt(xf.var(axis=0) + layer.eps)
    layer.forward(x, "train")
    assert np.allclose(layer.mu_mov, 0.9 * mu0 + 0.1 * mu_b)
    assert np.allclose(layer.sigma_mov, 0.9 * sig0 + 0.1 * sigma_b)
    assert np.all(layer.sigma_mov > 0)


def test_brn_eval_mode_uses_moving_moments():
    layer = Brn("b", 2)
    layer.mu_mov = np.array([1.0, -1.0])
    layer.sigma_mov = np.array([2.0, 0.5])
    layer.params["gamma"] = np.array([1.5, 1.0], dtype=np.float32)
    layer.params["beta"] = np.array([0.0, 0.5], dtype=np.float32)
    x = np.array([[3.0, 0.0]], dtype=np.float32)
    y, cache = layer.forward(x, "eval")
    assert np.allclose(y, [[1.5 * (3 - 1) / 2, 1.0 * (0 + 1) / 0.5 + 0.5]])
    # an eval-mode pass is never backpropagated, and moves no moment
    assert cache is None
    assert np.array_equal(layer.mu_mov, [1.0, -1.0])
    assert np.array_equal(layer.sigma_mov, [2.0, 0.5])


def test_brn_gradients_match_finite_differences(rng):
    # moments chosen so both clips saturate: r, d locally constant, which
    # makes the stop-gradient backward the true derivative
    x = SeededRng(38).normal((8, 3, 2, 2))
    probe = saturating_brn(3, rng_seed=37)
    dx, grads = layer_grads(probe, x, mode="train")
    shared = saturating_brn(3, rng_seed=37)  # its params get perturbed in place

    def loss():
        lay = saturating_brn(3, rng_seed=37)  # fresh moments every evaluation
        lay.params["gamma"] = shared.params["gamma"]
        lay.params["beta"] = shared.params["beta"]
        y, _ = lay.forward(x, "train")
        dy = SeededRng(0).normal(y.shape).astype(np.float64)
        return float((y.astype(np.float64) * dy).sum())

    check_grad_tensor(loss, x, dx, rng, n_coords=12, label="brn x")
    check_grad_tensor(loss, shared.params["gamma"], grads["gamma"], rng,
                      label="brn gamma")
    check_grad_tensor(loss, shared.params["beta"], grads["beta"], rng,
                      label="brn beta")


def test_brn_4d_channel_axis():
    rng = SeededRng(40)
    x = rng.normal((4, 3, 5, 5))
    layer = Brn("b", 3)
    y, _ = layer.forward(x, "train")
    assert y.shape == x.shape
    with pytest.raises(Exception):
        layer.out_shape((2, 5, 5))


# -- bitwise oracle for the in-place BRN ------------------------------------------


class BrnReference(Brn):
    """The folded BRN formulas written out on fresh float64 temporaries:
    per-channel sums are ``einsum`` over [n, c, h*w] planes, r and d are
    ``clip``ped, and the train cache keeps the centred input. Bitwise
    reference for the layer."""

    def forward(self, x, mode):
        xf = x.astype(np.float64).reshape(len(x), x.shape[1], -1)
        gamma = self.params["gamma"].astype(np.float64)
        beta = self.params["beta"].astype(np.float64)
        if mode != TRAIN:
            a = gamma / self.sigma_mov
            y = xf * a[:, None] + (beta - self.mu_mov * a)[:, None]
            return y.reshape(x.shape).astype(np.float32), None
        m = xf.shape[0] * xf.shape[2]
        mu_b = np.einsum("ncs->c", xf) / m
        cen = xf - mu_b[:, None]
        sigma_b = np.sqrt(np.einsum("ncs,ncs->c", cen, cen) / m + self.eps)
        r = np.clip(sigma_b / self.sigma_mov, 1.0 / self.r_max, self.r_max)
        d = np.clip((mu_b - self.mu_mov) / self.sigma_mov, -self.d_max, self.d_max)
        y = cen * (gamma * r / sigma_b)[:, None] + (gamma * d + beta)[:, None]
        self.mu_mov = self.avg_rate * self.mu_mov + (1 - self.avg_rate) * mu_b
        self.sigma_mov = self.avg_rate * self.sigma_mov + (1 - self.avg_rate) * sigma_b
        return y.reshape(x.shape).astype(np.float32), (cen, sigma_b, r, d)

    def backward(self, dy, cache, need_dx=True):
        cen, sigma_b, r, d = cache
        gamma = self.params["gamma"].astype(np.float64)
        dyf = dy.astype(np.float64).reshape(len(dy), dy.shape[1], -1)
        s1 = np.einsum("ncs->c", dyf)
        m = dyf.shape[0] * dyf.shape[2]
        s2 = np.einsum("ncs,ncs->c", dyf, cen)
        a = gamma * r / sigma_b
        dgamma = r / sigma_b * s2 + d * s1
        dx = (dyf * a[:, None] - (a * s1 / m)[:, None]
              - cen * (a * s2 / (m * sigma_b ** 2))[:, None])
        return dx.reshape(dy.shape).astype(np.float32), {"gamma": dgamma.astype(np.float32),
                                                         "beta": s1.astype(np.float32)}


class BrnTextbook(Brn):
    """Ioffe 2017's BRN as the layer computed it before the fold: numpy's
    mean/var/clip over axes (0, 2, 3), xhat, then y = gamma*(xhat*r + d)
    + beta, and the textbook batch-norm backward through xhat. Reference
    within rounding for the folded layer."""

    def _bview(self, per_channel, ndim):
        if ndim == 4:
            return per_channel.reshape(1, -1, 1, 1)
        return per_channel.reshape(1, -1)

    def forward(self, x, mode):
        axes = (0, 2, 3) if x.ndim == 4 else (0,)
        gamma = self._bview(self.params["gamma"].astype(np.float64), x.ndim)
        beta = self._bview(self.params["beta"].astype(np.float64), x.ndim)
        if mode == TRAIN:
            xf = x.astype(np.float64)
            mu_b = xf.mean(axis=axes)
            sigma_b = np.sqrt(xf.var(axis=axes) + self.eps)
            r = np.clip(sigma_b / self.sigma_mov, 1.0 / self.r_max, self.r_max)
            d = np.clip((mu_b - self.mu_mov) / self.sigma_mov, -self.d_max, self.d_max)
            xhat = (xf - self._bview(mu_b, x.ndim)) / self._bview(sigma_b, x.ndim)
            y = gamma * (xhat * self._bview(r, x.ndim) + self._bview(d, x.ndim)) + beta
            self.mu_mov = self.avg_rate * self.mu_mov + (1 - self.avg_rate) * mu_b
            self.sigma_mov = self.avg_rate * self.sigma_mov + (1 - self.avg_rate) * sigma_b
            return y.astype(np.float32), (xhat, sigma_b, r, d)
        xf = x.astype(np.float64)
        xhat = (xf - self._bview(self.mu_mov, x.ndim)) / self._bview(self.sigma_mov, x.ndim)
        y = gamma * xhat + beta
        return y.astype(np.float32), None

    def backward(self, dy, cache, need_dx=True):
        gamma = self._bview(self.params["gamma"].astype(np.float64), dy.ndim)
        axes = (0, 2, 3) if dy.ndim == 4 else (0,)
        dyf = dy.astype(np.float64)
        xhat, sigma_b, r, d = cache
        rb, db = self._bview(r, dy.ndim), self._bview(d, dy.ndim)
        dgamma = (dyf * (xhat * rb + db)).sum(axis=axes)
        dbeta = dyf.sum(axis=axes)
        dxhat = dyf * gamma * rb
        m_d = dxhat.mean(axis=axes)
        m_dx = (dxhat * xhat).mean(axis=axes)
        dx = (dxhat - self._bview(m_d, dy.ndim)
              - xhat * self._bview(m_dx, dy.ndim)) / self._bview(sigma_b, dy.ndim)
        return dx.astype(np.float32), {"gamma": dgamma.astype(np.float32),
                                       "beta": dbeta.astype(np.float32)}


_TINYNIC = build_tinynic_network()
# the TinyNIC BRN input shapes (brn1 and brn2 share one), plus a [n, c]
# input for the 2-D path
BRN_SHAPES = sorted({_TINYNIC.out_shape_of(l.name) for l in _TINYNIC.layers
                     if isinstance(l, Brn)}) + [(32,)]


def brn_two_steps(cls, shape, n, mode, zero_gamma=False):
    """Two forwards of a seeded ``cls`` layer, then, in train mode,
    backward from each cache: the first cache feeds backward after the
    second forward has moved the moments. Eval mode returns no cache and
    is not backpropagated. Moving moments are wide enough that r and d
    clip on some channels and not on others; ``zero_gamma`` sets gamma to
    0 on channel 0. Returns (outputs, train caches): y of each forward,
    dx, dgamma and dbeta of each backward, then the moving moments."""
    c = shape[0]
    r = SeededRng(1000 * n + int(np.prod(shape)))
    gamma = (0.5 + r.uniform((c,))).astype(np.float32)
    if zero_gamma:
        gamma[0] = 0.0
    beta = (0.1 * r.normal((c,))).astype(np.float32)
    mu, sigma = 0.5 * r.normal((c,)).astype(np.float64), 0.4 + 3.0 * r.uniform((c,))
    xs = [(1.7 * r.normal((n,) + shape) + 0.4).astype(np.float32) for _ in range(2)]
    dys = [r.normal((n,) + shape) for _ in range(2)]
    layer = cls("b", c, avg_rate=0.9)
    layer.params["gamma"], layer.params["beta"] = gamma, beta
    layer.mu_mov, layer.sigma_mov = mu, sigma
    fwd = [layer.forward(x, mode) for x in xs]
    out = [y for y, _ in fwd]
    if mode != TRAIN:
        assert all(cache is None for _, cache in fwd)
        return out + [layer.mu_mov, layer.sigma_mov], []
    for (_, cache), dy in zip(fwd, dys):
        dx, g = layer.backward(dy, cache)
        out += [dx, g["gamma"], g["beta"]]
    caches = [a for _, cache in fwd for a in cache]
    return out + [layer.mu_mov, layer.sigma_mov], caches


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("n", [1, 4, 48, 256])
@pytest.mark.parametrize("shape", BRN_SHAPES, ids=str)
def test_brn_matches_reference_bitwise(shape, n, mode):
    """The in-place layer gives the bits of the folded formulas. The
    float64 batch caches (centred input, sigma_b, r, d) are compared too,
    because a one-ulp float64 change rarely survives the float32 cast of
    y."""
    new, ref = (sum(brn_two_steps(cls, shape, n, mode), [])
                for cls in (Brn, BrnReference))
    assert len(new) == len(ref) == (18 if mode == "train" else 4)
    for i, (a, b) in enumerate(zip(new, ref)):
        assert same_bits(a, b), f"output {i} differs"


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("n", [1, 4, 48, 256])
@pytest.mark.parametrize("shape", BRN_SHAPES, ids=str)
def test_brn_matches_textbook_within_rounding(shape, n, mode):
    """The fold computes the textbook chain through xhat: y, dx, dgamma,
    dbeta and the moving moments agree to rounding, also where r or d
    clip and on a channel whose gamma is 0."""
    (new, _), (book, caches) = (brn_two_steps(cls, shape, n, mode, zero_gamma=True)
                                for cls in (Brn, BrnTextbook))
    if mode == "train":
        r, d = caches[2], caches[3]
        assert np.any((r == 1.25) | (r == 0.8) | (np.abs(d) == 0.5))
    for i, (a, b) in enumerate(zip(new, book)):
        tol = 1e-12 if a.dtype == np.float64 else 1e-6
        np.testing.assert_allclose(a, b, rtol=tol, atol=tol, err_msg=f"output {i}")


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("shape", BRN_SHAPES, ids=str)
def test_brn_input_layout_does_not_change_bits(shape, mode):
    """Brn works on C-ordered float64 copies of x and dy, so a
    Fortran-ordered or a transposed-view x and dy give the bits of their
    C-contiguous copies: y, the moving moments and, in train mode, dx,
    dgamma and dbeta."""
    c = shape[0]
    r = SeededRng(2000 + int(np.prod(shape)))
    mu, sigma = 0.5 * r.normal((c,)).astype(np.float64), 0.4 + 3.0 * r.uniform((c,))
    x = (1.7 * r.normal((48,) + shape) + 0.4).astype(np.float32)
    dy = r.normal((48,) + shape)

    def run(x, dy):
        layer = Brn("b", c, avg_rate=0.9)
        layer.mu_mov, layer.sigma_mov = mu.copy(), sigma.copy()
        y, cache = layer.forward(x, mode)
        if mode != TRAIN:
            return [y, layer.mu_mov, layer.sigma_mov]
        dx, g = layer.backward(dy, cache)
        return [y, dx, g["gamma"], g["beta"], layer.mu_mov, layer.sigma_mov]

    ref = run(x, dy)
    perm = (0, 2, 3, 1) if len(shape) == 3 else (1, 0)
    back = tuple(np.argsort(perm))
    for layout in (np.asfortranarray,
                   lambda a: np.ascontiguousarray(a.transpose(perm)).transpose(back)):
        xl, dyl = layout(x), layout(dy)
        assert not xl.flags.c_contiguous and not dyl.flags.c_contiguous
        got = run(xl, dyl)
        for i, (a, b) in enumerate(zip(got, ref)):
            assert same_bits(a, b), f"output {i} differs"


@pytest.mark.parametrize("shape", BRN_SHAPES, ids=str)
def test_brn_channel_sums_do_not_depend_on_alignment(shape):
    """Brn sums its own float64 copies, which land wherever the allocator
    puts them: both channel sums give the same bits at every 8-byte
    offset within 64 bytes."""
    r = SeededRng(3000 + int(np.prod(shape)))
    a, b = (r.normal((48, shape[0], int(np.prod(shape[1:])))).astype(np.float64)
            for _ in range(2))
    ref = [_csum(a), _csum(a, b)]
    for off in range(1, 8):
        buf = np.empty((2, a.size + 8))
        va = buf[0, off:off + a.size].reshape(a.shape)
        vb = buf[1, 8 - off:8 - off + a.size].reshape(a.shape)
        va[...], vb[...] = a, b
        assert same_bits(_csum(va), ref[0]) and same_bits(_csum(va, vb), ref[1])
