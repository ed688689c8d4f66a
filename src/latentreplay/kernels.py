"""Dense-tensor kernels.

All kernels take and return float32 arrays but accumulate contractions
in float64, so finite-difference gradient checks at 1e-3 relative
tolerance stay meaningful. Reduction order is fixed by the shapes alone,
so outputs are bit-identical across repeated calls.

Convolutions are GEMMs on the float64 im2col matrix ``[groups,
n*ho*wo, c_g*kh*kw]`` of the input (Chellapilla et al. 2006, "High
Performance Convolutional Neural Networks for Document Processing"): one
``np.take`` from a float64 ``[groups, n, c_g*h*w + 1]`` copy of x, whose
last column is the zero that padding reads, through a cached per-sample
index; a 1x1, stride-1, unpadded conv's matrix is a transposed float64
copy of x. Float32 widens to float64 exactly inside that copy, so the
matrix holds x's values. conv2d is ``cols @ kern^T`` and dkern ``dy^T @
cols``, with dy laid out once as float64 ``[groups, n*ho*wo, f/groups]``:
each is one batched float64 matmul, which runs one GEMM per group, for
every conv kind. dx adds each kernel tap's plane, in (i, j) order, into a
zeroed, padded ``[h+2p, w+2p, c*n]`` float64 buffer: dy, transposed once
to ``[ho, wo, c*n]``, times the tap's weights as one ``[c*n]`` row, into
one reused plane, for a depthwise conv (one channel in, one filter per
group), else the tap's slice of ``dy @ kern`` in the same layout. The
zero start keeps a sum of ``-0.0`` planes at ``+0.0``.

conv2d returns a C-contiguous array. Batch Renormalization sums its
moments over a C-ordered float64 copy of its input, so the layout it is
given does not change its bits.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ShapeError


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product [m,k] x [k,n] -> [m,n], float64 accumulation."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects rank-2 operands, got {a.shape} x {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner extents differ: {a.shape} x {b.shape}")
    return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.float32)


def conv_out_extent(size: int, k: int, stride: int, pad: int) -> int:
    span = size + 2 * pad - k
    if span < 0 or span % stride != 0:
        raise ShapeError(f"non-integral output extent: size={size} kernel={k} "
                         f"stride={stride} pad={pad}")
    return span // stride + 1


def _conv_extents(x_shape, kern_shape, stride, pad, groups) -> tuple[int, int]:
    """(ho, wo) of conv2d for these shapes; ShapeError if they do not fit."""
    (n, c, h, w), (f, c_g, kh, kw) = x_shape, kern_shape
    if c % groups or f % groups or c_g * groups != c:
        raise ShapeError(f"kernel {kern_shape} does not fit input {x_shape} in {groups} groups")
    return conv_out_extent(h, kh, stride, pad), conv_out_extent(w, kw, stride, pad)


@functools.cache
def _gather_index(c_g, h, w, kh, kw, stride, pad) -> np.ndarray:
    """Where one sample's (ho, wo, c, i, j) entries sit in its inputs + a trailing zero."""
    ho, wo = conv_out_extent(h, kh, stride, pad), conv_out_extent(w, kw, stride, pad)
    oi, oj, ch, i, j = np.ix_(range(ho), range(wo), range(c_g), range(kh), range(kw))
    y, x = oi * stride + i - pad, oj * stride + j - pad
    inside = (0 <= y) & (y < h) & (0 <= x) & (x < w)
    return np.where(inside, (ch * h + y) * w + x, c_g * h * w).reshape(-1)


def im2col(x: np.ndarray, kh: int, kw: int, stride: int = 1, pad: int = 0,
           groups: int = 1) -> np.ndarray:
    """[n, c, h, w] -> C-contiguous float64 [groups, n*ho*wo, c_g*kh*kw],
    rows in (n, ho, wo) order and columns in (c, i, j) order."""
    n, c, h, w = x.shape
    c_g = c // groups
    if kh == kw == 1 and stride == 1 and pad == 0:  # each column is one input plane
        cols = x.reshape(n, groups, c_g, h * w).transpose(1, 0, 3, 2)
        return cols.astype(np.float64, order="C").reshape(groups, -1, c_g)
    rows = np.zeros((groups, n, c_g * h * w + 1))
    rows[..., :-1] = x.reshape(n, groups, -1).swapaxes(0, 1)
    cols = np.take(rows.reshape(groups * n, -1), _gather_index(c_g, h, w, kh, kw, stride, pad), 1)
    return cols.reshape(groups, -1, c_g * kh * kw)


def conv2d(x: np.ndarray, kern: np.ndarray, stride: int = 1, pad: int = 0,
           groups: int = 1) -> np.ndarray:
    """Grouped 2-D cross-correlation as an im2col GEMM.

    x: [n, c, h, w]; kern: [f, c/groups, kh, kw]. groups == c with a
    single-channel kernel gives a depthwise convolution. Returns a
    C-contiguous [n, f, ho, wo] array.
    """
    ho, wo = _conv_extents(x.shape, kern.shape, stride, pad, groups)
    return conv2d_from_cols(im2col(x, *kern.shape[2:], stride, pad, groups), kern, ho, wo)


def conv2d_from_cols(cols: np.ndarray, kern: np.ndarray, ho: int, wo: int) -> np.ndarray:
    """conv2d's output from the im2col matrix of its input."""
    groups, f = len(cols), len(kern)
    kg = kern.reshape(groups, f // groups, -1).astype(np.float64)
    out = (cols @ kg.swapaxes(1, 2)).reshape(groups, -1, ho * wo, f // groups)
    return np.ascontiguousarray(out.transpose(1, 0, 3, 2), dtype=np.float32).reshape(-1, f, ho, wo)


def conv2d_backward(x: np.ndarray, kern: np.ndarray, dy: np.ndarray,
                    stride: int = 1, pad: int = 0, groups: int = 1):
    """Gradients (dx, dkern) of conv2d for upstream gradient dy."""
    _conv_extents(x.shape, kern.shape, stride, pad, groups)
    cols = im2col(x, *kern.shape[2:], stride, pad, groups)
    return conv2d_backward_from_cols(cols, x.shape, kern, dy, stride, pad)


def conv2d_backward_from_cols(cols: np.ndarray, x_shape: tuple, kern: np.ndarray,
                              dy: np.ndarray, stride: int = 1, pad: int = 0,
                              need_dx: bool = True):
    """(dx, dkern) of conv2d from x's shape and im2col matrix; dx is None unless need_dx."""
    (n, c, h, w), (f, c_g, kh, kw), groups = x_shape, kern.shape, len(cols)
    ho, wo = _conv_extents(x_shape, kern.shape, stride, pad, groups)
    if dy.shape != (n, f, ho, wo):
        raise ShapeError(f"dy shape {dy.shape} != conv2d output shape {(n, f, ho, wo)}")
    dyg = dy.reshape(n, groups, -1, ho * wo).transpose(1, 0, 3, 2)
    dyg = dyg.astype(np.float64, order="C").reshape(groups, n * ho * wo, -1)
    dkern = (dyg.swapaxes(1, 2) @ cols).reshape(f, c_g, kh, kw).astype(np.float32)
    if not need_dx:
        return None, dkern
    if c_g == 1 and f == groups:
        dyt = np.ascontiguousarray(dy.transpose(2, 3, 1, 0), dtype=np.float64)
        dyt = dyt.reshape(ho, wo, c * n)
        plane = np.empty_like(dyt)
        taps = kern.reshape(c, kh * kw).T.astype(np.float64).repeat(n, axis=1)
        planes = (np.multiply(dyt, k, out=plane) for k in taps)
    else:
        dcols = dyg @ kern.reshape(groups, -1, c_g * kh * kw).astype(np.float64)
        dcols = dcols.reshape(groups, n, ho, wo, c_g, kh * kw).transpose(5, 2, 3, 0, 4, 1)
        planes = (d.reshape(ho, wo, c * n) for d in dcols)
    dxp = np.zeros((h + 2 * pad, w + 2 * pad, c * n))
    for (i, j), plane in zip(np.ndindex(kh, kw), planes):
        dxp[i:i + stride * ho:stride, j:j + stride * wo:stride] += plane
    dx = dxp[pad:pad + h, pad:pad + w].reshape(h, w, c, n).transpose(3, 2, 0, 1)
    return np.ascontiguousarray(dx, dtype=np.float32), dkern


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    """[n, c, h, w] -> [n, c] per-channel spatial mean."""
    if x.ndim != 4:
        raise ShapeError(f"expected [n,c,h,w], got {x.shape}")
    return x.astype(np.float64).mean(axis=(2, 3)).astype(np.float32)


def global_avg_pool_backward(dy: np.ndarray, h: int, w: int) -> np.ndarray:
    n, c = dy.shape
    g = dy.astype(np.float64) / (h * w)
    return np.broadcast_to(g[:, :, None, None], (n, c, h, w)).astype(np.float32)


def softmax_xent(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over the batch with max-stabilized softmax.

    Returns (loss, dlogits) with dlogits = (softmax - onehot) / n.
    """
    if logits.ndim != 2:
        raise ShapeError(f"expected [n, classes] logits, got {logits.shape}")
    n, c = logits.shape
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n,):
        raise ShapeError(f"expected {n} labels, got shape {labels.shape}")
    if labels.min(initial=0) < 0 or (n and labels.max() >= c):
        raise IndexError(f"label out of range for {c} classes")
    # in place on one float64 copy; the ufuncs and their order are mean()'s
    # and the plain formula's, so the loss and dlogits keep their bits
    z = logits.astype(np.float64)
    z -= z.max(axis=1, keepdims=True)
    z -= np.log(np.exp(z).sum(axis=1, keepdims=True))  # log-softmax
    rows = np.arange(n)
    loss = float(np.add.reduce(z[rows, labels]) / -n)
    d = np.exp(z, out=z)
    d[rows, labels] -= 1.0
    d /= n
    return loss, d.astype(np.float32)
