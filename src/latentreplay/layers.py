"""Network layers with hand-written forward/backward passes.

Each layer is stateless across calls except for its parameters (and the
Batch Renormalization moving moments): forward returns an opaque cache
that backward consumes, so the same layer can serve several concurrent
partial passes (e.g. the native sub-batch below the tap and the joint
batch above it).
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .errors import ShapeError

TRAIN, EVAL = "train", "eval"


class Layer:
    kind = "base"

    def __init__(self, name: str):
        self.name = name
        self.params: dict[str, np.ndarray] = {}

    def out_shape(self, in_shape: tuple) -> tuple:
        raise NotImplementedError

    def forward(self, x: np.ndarray, mode: str):
        raise NotImplementedError

    def backward(self, dy: np.ndarray, cache, need_dx: bool = True):
        """Returns (dx, param_grads) from the cache of a train-mode forward
        (an eval-mode pass is never backpropagated). With ``need_dx`` false
        the caller does not read dx, and a layer may return None for it."""
        raise NotImplementedError


class Dense(Layer):
    kind = "dense"

    def __init__(self, name, in_features, units, rng):
        super().__init__(name)
        self.in_features, self.units = in_features, units
        w = rng.normal((in_features, units)) * np.sqrt(2.0 / in_features)
        self.params = {"w": w.astype(np.float32), "b": np.zeros(units, dtype=np.float32)}

    def out_shape(self, in_shape):
        if len(in_shape) != 1 or in_shape[0] != self.in_features:
            raise ShapeError(f"{self.name}: expected ({self.in_features},), got {in_shape}")
        return (self.units,)

    def forward(self, x, mode):
        y = kernels.matmul(x, self.params["w"]) + self.params["b"]
        return y, x

    def backward(self, dy, cache, need_dx=True):
        x, dyf = cache, dy.astype(np.float64)
        dw = (x.astype(np.float64).T @ dyf).astype(np.float32)
        db = dyf.sum(axis=0).astype(np.float32)
        if not need_dx:
            return None, {"w": dw, "b": db}
        dx = (dyf @ self.params["w"].astype(np.float64).T).astype(np.float32)
        return dx, {"w": dw, "b": db}


class Conv(Layer):
    """Grouped 2-D convolution, kind 'conv' whatever its groups; the
    depthwise ``DwConv`` (groups == in_channels) is kind 'dwconv'."""

    kind = "conv"

    def __init__(self, name, in_channels, out_channels, kernel, stride=1, pad=0,
                 groups=1, *, rng):
        super().__init__(name)
        self.in_channels, self.out_channels = in_channels, out_channels
        self.kernel, self.stride, self.pad, self.groups = kernel, stride, pad, groups
        c_g = in_channels // groups
        fan_in = c_g * kernel * kernel
        shape = (out_channels, c_g, kernel, kernel)
        self.params = {"w": (rng.normal(shape) * np.sqrt(2.0 / fan_in)).astype(np.float32)}

    def out_shape(self, in_shape):
        c, h, w = in_shape
        if c != self.in_channels:
            raise ShapeError(f"{self.name}: expected {self.in_channels} channels, got {c}")
        ho = kernels.conv_out_extent(h, self.kernel, self.stride, self.pad)
        wo = kernels.conv_out_extent(w, self.kernel, self.stride, self.pad)
        return (self.out_channels, ho, wo)

    def forward(self, x, mode):
        """A train-mode pass keeps the im2col matrix of x for backward."""
        if mode != TRAIN:
            return kernels.conv2d(x, self.params["w"], self.stride, self.pad, self.groups), None
        _, ho, wo = self.out_shape(x.shape[1:])
        cols = kernels.im2col(x, self.kernel, self.kernel, self.stride, self.pad, self.groups)
        return kernels.conv2d_from_cols(cols, self.params["w"], ho, wo), (cols, x.shape)

    def backward(self, dy, cache, need_dx=True):
        dx, dw = kernels.conv2d_backward_from_cols(*cache, self.params["w"], dy, self.stride,
                                                   self.pad, need_dx)
        return dx, {"w": dw}


class DwConv(Conv):
    kind = "dwconv"

    def __init__(self, name, channels, kernel, stride=1, pad=0, *, rng):
        super().__init__(name, channels, channels, kernel, stride, pad,
                         groups=channels, rng=rng)


class Relu(Layer):
    kind = "relu"

    def out_shape(self, in_shape):
        return in_shape

    def forward(self, x, mode):
        return np.maximum(x, np.float32(0)).astype(np.float32, copy=False), x > 0

    def backward(self, dy, cache, need_dx=True):
        return (dy * cache).astype(np.float32, copy=False), {}


def _planes(a):
    """A new C-ordered float64 copy of [n, c, ...] a, viewed as [n, c, h*w]."""
    return a.astype(np.float64, order="C").reshape(len(a), a.shape[1], -1)


def _csum(a, b=None):
    """Per-channel sum of a (or of a*b) over [n, c, h*w] planes.

    On C-ordered operands, ``einsum`` without ``optimize`` adds in an
    order fixed by the shapes alone, whatever their alignment, and never
    hands the sum to BLAS.
    """
    return np.einsum("ncs->c", a) if b is None else np.einsum("ncs,ncs->c", a, b)


class Brn(Layer):
    """Batch Renormalization (Ioffe 2017, arXiv 1702.03275).

    Train mode normalizes with batch moments corrected by r, d clipped
    against the moving moments, and moves the moving moments; eval mode
    uses the moving moments and leaves them as they are. r and d are
    constants in backward, which takes a train-mode pass's cache only:
    eval mode returns no cache, as the network never backpropagates it.

    Both modes fold the layer into one per-channel scale and shift over
    a C-ordered float64 copy of x, so a pass makes two channel sums
    (``_csum``) and a few elementwise sweeps. With m = n*h*w and
    cen = x - mu_b, train mode is y = cen*a + b, a = gamma*r/sigma_b,
    b = gamma*d + beta, and its backward reads S1 = sum(dy) and
    S2 = sum(dy*cen): dbeta = S1, dgamma = r/sigma_b*S2 + d*S1 and
    dx = a*dy - a*S1/m - cen*(a*S2/(m*sigma_b^2)). Eval mode is
    y = x*a + b, a = gamma/sigma_mov, b = beta - mu_mov*a.
    r and d are clipped with ``minimum(maximum(.))``, which equals
    ``clip`` except for the sign of a zero d when ``d_max`` is 0.
    """

    kind = "brn"

    def __init__(self, name, channels, r_max=1.25, d_max=0.5, avg_rate=0.99995,
                 eps=1e-5):
        super().__init__(name)
        self.channels = channels
        self.r_max, self.d_max = float(r_max), float(d_max)
        self.avg_rate, self.eps = float(avg_rate), float(eps)
        self.params = {
            "gamma": np.ones(channels, dtype=np.float32),
            "beta": np.zeros(channels, dtype=np.float32),
        }
        self.mu_mov = np.zeros(channels, dtype=np.float64)
        self.sigma_mov = np.ones(channels, dtype=np.float64)

    def out_shape(self, in_shape):
        c = in_shape[0]  # forward normalizes axis 1 of [n, *in_shape]
        if c != self.channels:
            raise ShapeError(f"{self.name}: expected {self.channels} channels, got {c}")
        return in_shape

    def forward(self, x, mode):
        gamma = self.params["gamma"].astype(np.float64)
        beta = self.params["beta"].astype(np.float64)
        v = _planes(x)
        if mode != TRAIN:
            a = gamma / self.sigma_mov
            v *= a[:, None]
            v += (beta - self.mu_mov * a)[:, None]
            return v.reshape(x.shape).astype(np.float32), None
        m = v.shape[0] * v.shape[2]
        mu_b = _csum(v) / m
        v -= mu_b[:, None]
        sigma_b = np.sqrt(_csum(v, v) / m + self.eps)
        r = np.minimum(np.maximum(sigma_b / self.sigma_mov, 1.0 / self.r_max), self.r_max)
        d = np.minimum(np.maximum((mu_b - self.mu_mov) / self.sigma_mov, -self.d_max),
                       self.d_max)
        self.mu_mov = self.avg_rate * self.mu_mov + (1 - self.avg_rate) * mu_b
        self.sigma_mov = self.avg_rate * self.sigma_mov + (1 - self.avg_rate) * sigma_b
        y = v * (gamma * r / sigma_b)[:, None]
        y += (gamma * d + beta)[:, None]
        return y.reshape(x.shape).astype(np.float32), (v, sigma_b, r, d)

    def backward(self, dy, cache, need_dx=True):
        cen, sigma_b, r, d = cache
        g = _planes(dy)
        s1, s2 = _csum(g), _csum(g, cen)
        dgamma = r / sigma_b * s2 + d * s1
        m = g.shape[0] * g.shape[2]
        a = self.params["gamma"].astype(np.float64) * r / sigma_b
        g *= a[:, None]
        g -= (a * s1 / m)[:, None]
        g -= cen * (a * s2 / (m * sigma_b ** 2))[:, None]
        return g.reshape(dy.shape).astype(np.float32), {"gamma": dgamma.astype(np.float32),
                                                         "beta": s1.astype(np.float32)}


class GlobalAvgPool(Layer):
    kind = "avgpool"

    def out_shape(self, in_shape):
        c, h, w = in_shape
        return (c,)

    def forward(self, x, mode):
        return kernels.global_avg_pool(x), x.shape

    def backward(self, dy, cache, need_dx=True):
        _, _, h, w = cache
        return kernels.global_avg_pool_backward(dy, h, w), {}


class Flatten(Layer):
    kind = "flatten"

    def out_shape(self, in_shape):
        return (int(np.prod(in_shape)),)

    def forward(self, x, mode):
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, dy, cache, need_dx=True):
        return dy.reshape(cache), {}
