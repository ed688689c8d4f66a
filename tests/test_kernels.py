import itertools
import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from latentreplay import kernels
from latentreplay.errors import ShapeError
from latentreplay.rng import SeededRng

from conftest import CONV_SHAPES, check_grad_tensor, same_bits


def matmul_reference(a, b):
    """Triple-loop oracle."""
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += float(a[i, t]) * float(b[t, j])
            out[i, j] = acc
    return out.astype(np.float32)


def conv2d_reference(x, kern, stride=1, pad=0, groups=1):
    """Direct six-loop convolution oracle."""
    n, c, h, w = x.shape
    f, c_g, kh, kw = kern.shape
    f_g = f // groups
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((n, f, ho, wo), dtype=np.float64)
    for b in range(n):
        for fi in range(f):
            g = fi // f_g
            for oi in range(ho):
                for oj in range(wo):
                    acc = 0.0
                    for ci in range(c_g):
                        for ki in range(kh):
                            for kj in range(kw):
                                acc += float(xp[b, g * c_g + ci,
                                                oi * stride + ki,
                                                oj * stride + kj]) \
                                       * float(kern[fi, ci, ki, kj])
                    out[b, fi, oi, oj] = acc
    return out.astype(np.float32)


def conv2d_einsum(x, kern, stride=1, pad=0, groups=1):
    """The 7-D window einsum that conv2d replaced; bitwise reference."""
    n, c, h, w = x.shape
    f, c_g, kh, kw = kern.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    win = win.reshape(n, groups, c_g, ho, wo, kh, kw).astype(np.float64)
    kg = kern.reshape(groups, f // groups, c_g, kh, kw).astype(np.float64)
    out = np.einsum("ngchwij,gfcij->ngfhw", win, kg)
    return out.reshape(n, f, ho, wo).astype(np.float32)


def conv2d_backward_einsum(x, kern, dy, stride=1, pad=0, groups=1):
    """The einsum (dx, dkern) that conv2d_backward replaced; bitwise reference."""
    n, c, h, w = x.shape
    f, c_g, kh, kw = kern.shape
    f_g = f // groups
    _, _, ho, wo = dy.shape
    dyg = dy.reshape(n, groups, f_g, ho, wo).astype(np.float64)
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    win = win.reshape(n, groups, c_g, ho, wo, kh, kw).astype(np.float64)
    dkern = np.einsum("ngchwij,ngfhw->gfcij", win, dyg).reshape(f, c_g, kh, kw)
    kg = kern.reshape(groups, f_g, c_g, kh, kw).astype(np.float64)
    dxp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=np.float64)
    for i in range(kh):
        for j in range(kw):
            contrib = np.einsum("ngfhw,gfc->ngchw", dyg, kg[:, :, :, i, j])
            dxp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += (
                contrib.reshape(n, c, ho, wo)
            )
    dx = dxp[:, :, pad:pad + h, pad:pad + w] if pad else dxp
    return dx.astype(np.float32), dkern.astype(np.float32)


# -- matmul -------------------------------------------------------------------


def test_matmul_identity():
    a = SeededRng(1).normal((2, 2))
    assert np.allclose(kernels.matmul(a, np.eye(2, dtype=np.float32)), a)


def test_matmul_zeros():
    b = SeededRng(2).normal((4, 2))
    out = kernels.matmul(np.zeros((3, 4), dtype=np.float32), b)
    assert out.shape == (3, 2)
    assert np.all(out == 0)


def test_matmul_worked_example():
    a = np.array([[1, 2], [3, 4]], dtype=np.float32)
    b = np.array([[5, 6], [7, 8]], dtype=np.float32)
    expected = matmul_reference(a, b)
    assert np.array_equal(expected, np.array([[19, 22], [43, 50]], dtype=np.float32))
    assert np.array_equal(kernels.matmul(a, b), expected)


def test_matmul_random_vs_oracle():
    rng = SeededRng(3)
    a, b = rng.normal((5, 7)), rng.normal((7, 4))
    assert np.allclose(kernels.matmul(a, b), matmul_reference(a, b), atol=1e-5)


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        kernels.matmul(np.zeros((2, 3), dtype=np.float32),
                       np.zeros((4, 2), dtype=np.float32))


# -- conv2d -------------------------------------------------------------------


def test_conv_identity_1x1():
    x = SeededRng(4).normal((2, 1, 4, 4))
    k = np.ones((1, 1, 1, 1), dtype=np.float32)
    assert np.array_equal(kernels.conv2d(x, k), x)


def test_conv_constant_input_allones_kernel():
    c = 0.7
    x = np.full((1, 1, 5, 5), c, dtype=np.float32)
    k = np.ones((1, 1, 3, 3), dtype=np.float32)
    out = kernels.conv2d(x, k, stride=1, pad=0)
    assert np.allclose(out, 9 * c, atol=1e-6)


def test_conv_random_vs_oracle():
    rng = SeededRng(5)
    x = rng.normal((1, 2, 4, 4))
    k = rng.normal((3, 2, 3, 3))
    out = kernels.conv2d(x, k)
    assert out.shape == (1, 3, 2, 2)
    assert np.allclose(out, conv2d_reference(x, k), atol=1e-5)


def test_conv_exhaustive_small_shapes():
    rng = SeededRng(6)
    cases = itertools.product([1, 2], [1, 2, 4], [3, 6], [4, 6],
                              [1, 2, 3], [1, 2], [0, 1])
    for n, c, h, w, k, stride, pad in cases:
        if (h + 2 * pad - k) < 0 or (h + 2 * pad - k) % stride:
            continue
        if (w + 2 * pad - k) < 0 or (w + 2 * pad - k) % stride:
            continue
        x = rng.normal((n, c, h, w))
        kern = rng.normal((2, c, k, k))
        got = kernels.conv2d(x, kern, stride, pad)
        want = conv2d_reference(x, kern, stride, pad)
        assert np.abs(got - want).max() < 1e-5, (n, c, h, w, k, stride, pad)


def test_depthwise_matches_oracle():
    rng = SeededRng(7)
    x = rng.normal((2, 4, 6, 6))
    k = rng.normal((4, 1, 3, 3))
    got = kernels.conv2d(x, k, stride=1, pad=1, groups=4)
    want = conv2d_reference(x, k, stride=1, pad=1, groups=4)
    assert np.abs(got - want).max() < 1e-5


def test_grouped_conv_matches_oracle():
    rng = SeededRng(8)
    x = rng.normal((2, 4, 5, 5))
    k = rng.normal((6, 2, 3, 3))
    got = kernels.conv2d(x, k, groups=2)
    want = conv2d_reference(x, k, groups=2)
    assert np.abs(got - want).max() < 1e-5


def test_conv_nonintegral_extent_raises():
    x = np.zeros((1, 1, 5, 5), dtype=np.float32)
    k = np.zeros((1, 1, 2, 2), dtype=np.float32)
    with pytest.raises(ShapeError):
        kernels.conv2d(x, k, stride=2, pad=0)


def test_conv_group_mismatch_raises():
    x = np.zeros((1, 3, 4, 4), dtype=np.float32)
    k = np.zeros((2, 1, 3, 3), dtype=np.float32)
    with pytest.raises(ShapeError):
        kernels.conv2d(x, k, groups=2)


def test_conv_backward_matches_finite_differences(rng):
    r = SeededRng(9)
    x = r.normal((2, 2, 5, 5))
    k = r.normal((4, 2, 3, 3))
    dy = r.normal((2, 4, 3, 3))

    def loss():
        out = kernels.conv2d(x, k, stride=2, pad=1)
        return float((out.astype(np.float64) * dy).sum())

    dx, dk = kernels.conv2d_backward(x, k, dy, stride=2, pad=1)
    check_grad_tensor(loss, x, dx, rng, n_coords=12, label="conv dx")
    check_grad_tensor(loss, k, dk, rng, n_coords=12, label="conv dk")


def test_conv_outputs_bit_identical_across_calls():
    rng = SeededRng(10)
    x = rng.normal((2, 3, 6, 6))
    k = rng.normal((4, 3, 3, 3))
    a = kernels.conv2d(x, k, pad=1)
    b = kernels.conv2d(x, k, pad=1)
    assert a.tobytes() == b.tobytes()


def test_kernel_outputs_finite():
    rng = SeededRng(11)
    x = rng.normal((2, 3, 6, 6)) * 100
    k = rng.normal((4, 3, 3, 3)) * 100
    assert np.isfinite(kernels.conv2d(x, k, pad=1)).all()
    assert np.isfinite(kernels.matmul(x.reshape(2, -1), rng.normal((108, 4)))).all()


@pytest.mark.parametrize("n", [1, 48, 256])
@pytest.mark.parametrize("name", list(CONV_SHAPES))
def test_conv_bit_identical_to_einsum(name, n):
    c, hw, f, k, stride, pad, groups = CONV_SHAPES[name]
    r = SeededRng(13)
    x = r.normal((n, c, hw, hw))
    kern = r.normal((f, c // groups, k, k))
    y = kernels.conv2d(x, kern, stride, pad, groups)
    assert y.flags.c_contiguous
    assert same_bits(y, conv2d_einsum(x, kern, stride, pad, groups))
    dy = r.normal(y.shape)
    dx, dk = kernels.conv2d_backward(x, kern, dy, stride, pad, groups)
    dx_ref, dk_ref = conv2d_backward_einsum(x, kern, dy, stride, pad, groups)
    assert same_bits(dx, dx_ref)
    assert same_bits(dk, dk_ref)
    cols = kernels.im2col(x, k, k, stride, pad, groups)
    _, dk_only = kernels.conv2d_backward_from_cols(cols, x.shape, kern, dy, stride, pad,
                                                   need_dx=False)
    assert same_bits(dk_only, dk_ref)


@pytest.mark.parametrize("pad", [0, 1])
def test_conv_input_layout_does_not_change_bits(pad):
    """im2col gathers from a copy of x that it lays out itself, so the
    layout of x changes neither the matrix nor what is computed from it."""
    r = SeededRng(15)
    x = r.normal((3, 4, 6, 6))
    kern = r.normal((6, 4, 3, 3))
    ref = kernels.conv2d(x, kern, 1, pad)
    for layout in ((0, 1, 3, 2), (3, 2, 1, 0), (1, 0, 2, 3)):
        back = np.argsort(layout)
        xl = np.ascontiguousarray(x.transpose(layout)).transpose(back)
        assert not xl.flags.c_contiguous
        assert same_bits(kernels.conv2d(xl, kern, 1, pad), ref)
        assert same_bits(kernels.im2col(xl, 3, 3, 1, pad), kernels.im2col(x, 3, 3, 1, pad))
        assert all(same_bits(a, b) for a, b in zip(kernels.conv2d_backward(xl, kern, ref, 1, pad),
                                                   kernels.conv2d_backward(x, kern, ref, 1, pad)))


@pytest.mark.parametrize("n", [1, 3, 48])
@pytest.mark.parametrize("stride, pad", [(1, 0), (1, 1), (2, 0), (2, 1)])
def test_depthwise_dx_of_negative_zero_taps_is_positive_zero(stride, pad, n):
    """Where every tap that reaches an input pixel gives -0.0 (a zero
    kernel tap against a negative dy, or a dy of -0.0), dx reads +0.0, as
    the einsum's zero-started sum does. An accumulator that started from
    the first tap's plane would keep its -0.0."""
    c, hw, k = 4, 7, 3
    r = SeededRng(18)
    x = r.normal((n, c, hw, hw))
    ho = kernels.conv_out_extent(hw, k, stride, pad)
    neg_dy = -np.abs(r.normal((n, c, ho, ho))) - np.float32(1)
    # kernel rows 0..pad are the only ones that reach input row 0
    zero_top = np.abs(r.normal((c, 1, k, k))) + np.float32(0.5)
    zero_top[:, :, :pad + 1] = 0
    cases = [(np.zeros((c, 1, k, k), dtype=np.float32), neg_dy, slice(None)),
             (zero_top, neg_dy, slice(0, 1)),
             (np.abs(r.normal((c, 1, k, k))), np.full_like(neg_dy, -0.0), slice(None))]
    for i, (kern, dy, rows) in enumerate(cases):
        dx, _ = kernels.conv2d_backward(x, kern, dy, stride, pad, c)
        dx_ref, _ = conv2d_backward_einsum(x, kern, dy, stride, pad, c)
        assert same_bits(dx, dx_ref), f"case {i}"
        zero = dx[:, :, rows]
        assert not zero.any() and not np.signbit(zero).any(), f"case {i}"


def im2col_reference(x, kh, kw, stride, pad, groups):
    """im2col from a sliding_window_view of np.pad's padded copy."""
    n, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    _, _, ho, wo, _, _ = win.shape
    win = win.reshape(n, groups, c // groups, ho, wo, kh, kw).transpose(1, 0, 3, 4, 2, 5, 6)
    return win.reshape(groups, n * ho * wo, -1)


@pytest.mark.parametrize("n", [1, 48, 256])
@pytest.mark.parametrize("name", list(CONV_SHAPES))
def test_im2col_bit_identical_to_sliding_window(name, n):
    c, hw, _, k, stride, pad, groups = CONV_SHAPES[name]
    x = SeededRng(14).normal((n, c, hw, hw))
    ref = im2col_reference(x, k, k, stride, pad, groups)
    for xin in (x, np.asfortranarray(x), np.repeat(x, 2, axis=3)[..., ::2]):
        cols = kernels.im2col(xin, k, k, stride, pad, groups)
        assert cols.flags.c_contiguous
        assert cols.dtype == np.float64 and same_bits(cols, ref.astype(np.float64, order="C"))


def im2col_gather(x, kh, kw, stride, pad, groups):
    """im2col through the gather index, the path every conv but a plain 1x1 takes."""
    n, c, h, w = x.shape
    c_g = c // groups
    rows = np.zeros((groups, n, c_g * h * w + 1), dtype=x.dtype)
    rows[..., :-1] = x.reshape(n, groups, -1).swapaxes(0, 1)
    idx = kernels._gather_index(c_g, h, w, kh, kw, stride, pad)
    return np.take(rows.reshape(groups * n, -1), idx, 1).reshape(groups, -1, c_g * kh * kw)


@pytest.mark.parametrize("n", [1, 48, 256])
@pytest.mark.parametrize("c, hw, groups", [(8, 8, 1), (16, 4, 1), (8, 5, 4), (6, 3, 6)])
def test_im2col_1x1_transpose_bit_identical_to_gather(c, hw, groups, n):
    x = SeededRng(16).normal((n, c, hw, hw))
    ref = im2col_gather(x, 1, 1, 1, 0, groups)
    for xin in (x, np.asfortranarray(x), np.repeat(x, 2, axis=3)[..., ::2]):
        cols = kernels.im2col(xin, 1, 1, 1, 0, groups)
        assert cols.flags.c_contiguous
        assert cols.dtype == np.float64 and same_bits(cols, ref.astype(np.float64, order="C"))


def test_depthwise_backward_rejects_short_dy():
    r = SeededRng(17)
    x, kern = r.normal((2, 4, 8, 8)), r.normal((4, 1, 3, 3))
    with pytest.raises(ShapeError, match="dy shape"):
        kernels.conv2d_backward(x, kern, r.normal((2, 4, 7, 7)), 1, 1, 4)


@pytest.mark.parametrize("kind", ["conv2d_backward", "from_cols"])
@pytest.mark.parametrize("name", ["conv2_dw", "conv3_dw", "conv2_sep", "grouped"])
def test_conv_backward_rejects_wrong_dy_shape(name, kind):
    c, hw, f, k, stride, pad, groups = CONV_SHAPES[name]
    r = SeededRng(16)
    x = r.normal((2, c, hw, hw))
    kern = r.normal((f, c // groups, k, k))
    _, _, ho, wo = kernels.conv2d(x, kern, stride, pad, groups).shape
    for shape in ((2, f, ho - 1, wo - 1), (2, f, ho, wo + 1), (3, f, ho, wo), (2, 2 * f, ho, wo)):
        dy = r.normal(shape)
        with pytest.raises(ShapeError, match="dy shape"):
            if kind == "conv2d_backward":
                kernels.conv2d_backward(x, kern, dy, stride, pad, groups)
            else:
                cols = kernels.im2col(x, k, k, stride, pad, groups)
                kernels.conv2d_backward_from_cols(cols, x.shape, kern, dy, stride, pad,
                                                  need_dx=False)

# -- pooling ------------------------------------------------------------------


def test_pool_constant():
    x = np.full((2, 3, 4, 4), 2.5, dtype=np.float32)
    assert np.allclose(kernels.global_avg_pool(x), 2.5)


def test_pool_worked_example():
    x = np.array([[[[1, 3], [5, 7]]]], dtype=np.float32)
    assert np.allclose(kernels.global_avg_pool(x), 4.0)


def test_pool_zeros():
    x = np.zeros((1, 2, 3, 3), dtype=np.float32)
    assert np.all(kernels.global_avg_pool(x) == 0)


def test_pool_backward_spreads_uniformly():
    dy = np.array([[1.0, 2.0]], dtype=np.float32)
    dx = kernels.global_avg_pool_backward(dy, 2, 2)
    assert dx.shape == (1, 2, 2, 2)
    assert np.allclose(dx[0, 0], 0.25)
    assert np.allclose(dx[0, 1], 0.5)


# -- softmax cross-entropy -----------------------------------------------------


def test_xent_uniform_logits():
    for c in (2, 5, 10):
        logits = np.zeros((3, c), dtype=np.float32)
        loss, _ = kernels.softmax_xent(logits, np.zeros(3, dtype=np.int64))
        assert abs(loss - math.log(c)) < 1e-12


def test_xent_uniform_gradient_two_classes():
    logits = np.zeros((2, 2), dtype=np.float32)
    _, d = kernels.softmax_xent(logits, np.array([0, 0]))
    assert np.allclose(d[0], [-0.25, 0.25])
    assert np.allclose(d[1], [-0.25, 0.25])


def test_xent_gradient_matches_finite_differences(rng):
    r = SeededRng(12)
    logits = r.normal((4, 6))
    labels = np.array([0, 2, 5, 3])

    def loss():
        return kernels.softmax_xent(logits, labels)[0]

    _, d = kernels.softmax_xent(logits, labels)
    check_grad_tensor(loss, logits, d, rng, n_coords=15, h=1e-3, label="dlogits")


def test_xent_label_out_of_range():
    logits = np.zeros((2, 3), dtype=np.float32)
    with pytest.raises(IndexError):
        kernels.softmax_xent(logits, np.array([0, 3]))


def test_xent_stable_for_large_logits():
    logits = np.array([[1000.0, 0.0], [-1000.0, 0.0]], dtype=np.float32)
    loss, d = kernels.softmax_xent(logits, np.array([0, 1]))
    assert np.isfinite(loss)
    assert np.isfinite(d).all()


def softmax_xent_reference(logits, labels):
    """The plain formula softmax_xent's in-place form must reproduce bit for bit."""
    n = len(logits)
    z = logits.astype(np.float64)
    z = z - z.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    loss = float(-logp[np.arange(n), labels].mean())
    d = np.exp(logp)
    d[np.arange(n), labels] -= 1.0
    return loss, (d / n).astype(np.float32)


@pytest.mark.parametrize("spread", [80.0, 0.0])
@pytest.mark.parametrize("c", [2, 10])
@pytest.mark.parametrize("n", [1, 48, 256])
def test_xent_bit_identical_to_reference(n, c, spread):
    r = SeededRng(n * 100 + c)
    # spread 0 ties every logit of a row; else they reach +-80
    logits = (r.uniform((n, c)) * 2.0 - 1.0).astype(np.float32) * np.float32(spread)
    logits[0, -1] = logits[0, 0]  # a tie in the first row either way
    labels = r.randint(0, c, n)
    loss, d = kernels.softmax_xent(logits, labels)
    ref_loss, ref_d = softmax_xent_reference(logits, labels)
    assert np.float64(loss).view(np.uint64) == np.float64(ref_loss).view(np.uint64)
    assert d.dtype == np.float32 and same_bits(d, ref_d)


def test_xent_shape_errors():
    with pytest.raises(ShapeError):
        kernels.softmax_xent(np.zeros(3, dtype=np.float32), np.zeros(3, dtype=np.int64))
    with pytest.raises(ShapeError):
        kernels.softmax_xent(np.zeros((2, 3), dtype=np.float32), np.zeros(3, dtype=np.int64))
    with pytest.raises(IndexError):
        kernels.softmax_xent(np.zeros((2, 3), dtype=np.float32), np.array([-1, 0]))
