"""Dense-tensor kernels.

All kernels take and return float32 arrays but accumulate contractions
in float64, so finite-difference gradient checks at 1e-3 relative
tolerance stay meaningful. Reduction order is fixed by the shapes alone,
so outputs are bit-identical across repeated calls:

- conv2d is one batched GEMM of a float64 im2col matrix
  ``[groups, n*ho*wo, c_g*kh*kw]`` with the kernel (Chellapilla et al.
  2006, "High Performance Convolutional Neural Networks for Document
  Processing"). The matrix is one reshape copy of a strided window view
  of the padded input.
- conv2d_backward takes one of two paths, picked by the kernel's shape.
  Dense and grouped convs get dkern as ``dy^T @ cols`` and dx as
  ``dy @ kern``, scatter-added over the kh*kw taps in (i, j) order.
  Depthwise convs (one channel in and one filter per group) loop over
  the taps on the padded float64 input: a per-channel sum for dkern and
  a channel-wise product added into dx.

conv2d returns a C-contiguous array. Batch Renormalization reduces its
float64 moments over axes (0, 2, 3) in memory order, so the same values
in another layout give different moving moments.
"""

from __future__ import annotations

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
        raise ShapeError(
            f"non-integral output extent: size={size} kernel={k} stride={stride} pad={pad}"
        )
    return span // stride + 1


def _padded64(x: np.ndarray, pad: int) -> np.ndarray:
    if not pad:
        return x.astype(np.float64, order="C")
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad))
    xp[:, :, pad:pad + h, pad:pad + w] = x
    return xp


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int, groups: int) -> np.ndarray:
    """C-contiguous [n, c, hp, wp] -> [groups, n*ho*wo, c_g*kh*kw], rows in
    (n, ho, wo) order and columns in (c, i, j) order."""
    n, c, hp, wp = xp.shape
    c_g = c // groups
    ho, wo = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    s0, s1, s2, s3 = xp.strides
    win = np.ndarray((groups, n, ho, wo, c_g, kh, kw), xp.dtype, buffer=xp,
                     strides=(s1 * c_g, s0, s2 * stride, s3 * stride, s1, s2, s3))
    return win.reshape(groups, n * ho * wo, -1)


def conv2d(x: np.ndarray, kern: np.ndarray, stride: int = 1, pad: int = 0,
           groups: int = 1) -> np.ndarray:
    """Grouped 2-D cross-correlation as one batched im2col GEMM.

    x: [n, c, h, w]; kern: [f, c/groups, kh, kw]. groups == c with a
    single-channel kernel gives a depthwise convolution. Returns a
    C-contiguous [n, f, ho, wo] array.
    """
    n, c, h, w = x.shape
    f, c_g, kh, kw = kern.shape
    if c % groups or f % groups:
        raise ShapeError(f"groups={groups} must divide channels c={c} and filters f={f}")
    if c_g != c // groups:
        raise ShapeError(f"kernel expects {c_g} channels/group, input has {c // groups}")
    ho = conv_out_extent(h, kh, stride, pad)
    wo = conv_out_extent(w, kw, stride, pad)
    cols = _im2col(_padded64(x, pad), kh, kw, stride, groups)
    kg = kern.reshape(groups, f // groups, -1).astype(np.float64)
    out = (cols @ kg.transpose(0, 2, 1)).reshape(groups, n, ho, wo, f // groups)
    return np.ascontiguousarray(out.transpose(1, 0, 4, 2, 3).reshape(n, f, ho, wo),
                                dtype=np.float32)


def conv2d_backward(x: np.ndarray, kern: np.ndarray, dy: np.ndarray,
                    stride: int = 1, pad: int = 0, groups: int = 1):
    """Gradients (dx, dkern) of conv2d for upstream gradient dy."""
    return _conv2d_grads(x, kern, dy, stride, pad, groups, need_dx=True)


def conv2d_weight_grad(x: np.ndarray, kern: np.ndarray, dy: np.ndarray,
                       stride: int = 1, pad: int = 0, groups: int = 1) -> np.ndarray:
    """dkern of conv2d alone, for a layer whose input gradient is unused."""
    return _conv2d_grads(x, kern, dy, stride, pad, groups, need_dx=False)[1]


def _conv2d_grads(x, kern, dy, stride, pad, groups, need_dx):
    n, c, h, w = x.shape
    f, c_g, kh, kw = kern.shape
    f_g = f // groups
    _, _, ho, wo = dy.shape
    xp = _padded64(x, pad)
    dxp = np.zeros_like(xp) if need_dx else None

    def tap(i, j):
        """The strided [n, c, ho, wo] plane of xp that kernel tap (i, j) reads."""
        return (slice(None), slice(None), slice(i, i + stride * ho, stride),
                slice(j, j + stride * wo, stride))

    if c_g == f_g == 1:
        dy64 = dy.astype(np.float64)
        k64 = kern.reshape(1, f, kh, kw).astype(np.float64)
        dkern = np.empty((f, kh, kw), dtype=np.float64)
        for i in range(kh):
            for j in range(kw):
                dkern[:, i, j] = np.einsum("nchw,nchw->c", xp[tap(i, j)], dy64)
                if need_dx:
                    dxp[tap(i, j)] += dy64 * k64[:, :, i, j, None, None]
    else:
        dyg = dy.reshape(n, groups, f_g, ho * wo).astype(np.float64)
        dyg = dyg.transpose(1, 0, 3, 2).reshape(groups, n * ho * wo, f_g)
        dkern = dyg.transpose(0, 2, 1) @ _im2col(xp, kh, kw, stride, groups)
        if need_dx:
            kg = kern.reshape(groups, f_g, -1).astype(np.float64)
            dcols = (dyg @ kg).reshape(groups, n, ho, wo, c_g, kh, kw)
            for i in range(kh):
                for j in range(kw):
                    plane = dcols[..., i, j].transpose(1, 0, 4, 2, 3)
                    dxp[tap(i, j)] += plane.reshape(n, c, ho, wo)
    dkern = dkern.reshape(f, c_g, kh, kw).astype(np.float32)
    if not need_dx:
        return None, dkern
    dx = dxp[:, :, pad:pad + h, pad:pad + w] if pad else dxp
    return dx.astype(np.float32), dkern


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
    z = logits.astype(np.float64)
    z = z - z.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    loss = float(-logp[np.arange(n), labels].mean())
    d = np.exp(logp)
    d[np.arange(n), labels] -= 1.0
    return loss, (d / n).astype(np.float32)
