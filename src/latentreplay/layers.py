"""Network layers with hand-written forward/backward passes.

Each layer is stateless across calls except for its parameters (and the
Batch Renormalization moving moments): forward returns an opaque cache
that backward consumes, so the same layer can serve several concurrent
partial passes (e.g. the native sub-batch below the tap and the joint
batch above it).
"""

from __future__ import annotations

import math

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
        """Returns (dx, param_grads). With ``need_dx`` false the caller
        does not read dx, and a layer may return None for it."""
        raise NotImplementedError


class Dense(Layer):
    kind = "dense"

    def __init__(self, name, in_features, units, rng=None):
        super().__init__(name)
        self.in_features, self.units = in_features, units
        scale = np.sqrt(2.0 / in_features)
        w = rng.normal((in_features, units)) * scale if rng is not None else \
            np.zeros((in_features, units), dtype=np.float32)
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
    """Grouped 2-D convolution; groups == in_channels gives kind 'dwconv'."""

    kind = "conv"

    def __init__(self, name, in_channels, out_channels, kernel, stride=1, pad=0,
                 groups=1, rng=None):
        super().__init__(name)
        self.in_channels, self.out_channels = in_channels, out_channels
        self.kernel, self.stride, self.pad, self.groups = kernel, stride, pad, groups
        c_g = in_channels // groups
        fan_in = c_g * kernel * kernel
        shape = (out_channels, c_g, kernel, kernel)
        w = rng.normal(shape) * np.sqrt(2.0 / fan_in) if rng is not None else \
            np.zeros(shape, dtype=np.float32)
        self.params = {"w": w.astype(np.float32)}

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

    def __init__(self, name, channels, kernel, stride=1, pad=0, rng=None):
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


def _rows(a):
    """C-ordered [n, c, ...] a as its [n, c*h*w] view, and h*w.

    ``v.repeat(h*w)`` lays a per-channel vector v out as one row of the
    view, so broadcasting it runs one c*h*w-long inner loop per sample
    where a [1, c, 1, 1] view over [n, c, h, w] runs one per plane.
    """
    hw = math.prod(a.shape[2:])
    return a.reshape(len(a), a.shape[1] * hw), hw


class Brn(Layer):
    """Batch Renormalization.

    Train mode normalizes with batch moments corrected by r, d clipped
    against the moving moments, and moves the moving moments; eval mode
    uses the moving moments and leaves them as they are.

    r and d are treated as constants in backward. A moving-moment cache
    keeps the input, and backward recomputes xhat from it with the
    moments it reads for dx, the ones current at backward time.

    Forward and backward work in place on one C-ordered float64 copy of
    x (and of dy), whatever x's layout, but apply the ufuncs of the plain
    formulas in the same order to the same values, so the bits are
    theirs: batch moments are ``add.reduce`` over axes (0, 2, 3) of the
    4-D copy ``/ count``, as ``mean`` and ``var`` compute them; the
    centred input ``x - mu_b`` serves both the variance and xhat, as in
    ``var``; and y = ``gamma * (xhat * r + d) + beta`` is built as
    ``xhat*r, +d, *gamma, +beta`` in the buffer that held the square.
    Per-channel vectors are broadcast as planes over the copy's
    [n, c*h*w] view (``_rows``). r and d are clipped with
    ``minimum(maximum(.))``, which equals ``clip`` except for the sign of
    a zero d when ``d_max`` is 0.
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
        c = in_shape[0] if len(in_shape) == 3 else in_shape[-1]
        if c != self.channels:
            raise ShapeError(f"{self.name}: expected {self.channels} channels, got {c}")
        return in_shape

    def _moving_xhat(self, x):
        """(x - mu_mov) / sigma_mov as a new float64 array, its [n, c*h*w] view and h*w."""
        xhat = x.astype(np.float64, order="C")
        flat, hw = _rows(xhat)
        flat -= self.mu_mov.repeat(hw)
        flat /= self.sigma_mov.repeat(hw)
        return xhat, flat, hw

    def forward(self, x, mode):
        axes = (0, 2, 3) if x.ndim == 4 else (0,)
        if mode == TRAIN:
            count = x.size // x.shape[1]
            xhat = x.astype(np.float64, order="C")
            flat, hw = _rows(xhat)
            mu_b = np.add.reduce(xhat, axis=axes) / count
            flat -= mu_b.repeat(hw)
            y = np.multiply(xhat, xhat)
            sigma_b = np.sqrt(np.add.reduce(y, axis=axes) / count + self.eps)
            flat /= sigma_b.repeat(hw)
            r = np.minimum(np.maximum(sigma_b / self.sigma_mov, 1.0 / self.r_max), self.r_max)
            d = np.minimum(np.maximum((mu_b - self.mu_mov) / self.sigma_mov, -self.d_max),
                           self.d_max)
            yflat = np.multiply(flat, r.repeat(hw), out=_rows(y)[0])
            yflat += d.repeat(hw)
            self.mu_mov = self.avg_rate * self.mu_mov + (1 - self.avg_rate) * mu_b
            self.sigma_mov = self.avg_rate * self.sigma_mov + (1 - self.avg_rate) * sigma_b
            cache = ("batch", xhat, sigma_b, r, d)
        else:
            y, yflat, hw = self._moving_xhat(x)
            cache = ("moving", x)
        yflat *= self.params["gamma"].astype(np.float64).repeat(hw)
        yflat += self.params["beta"].astype(np.float64).repeat(hw)
        return y.astype(np.float32), cache

    def backward(self, dy, cache, need_dx=True):
        axes = (0, 2, 3) if dy.ndim == 4 else (0,)
        dyf = dy.astype(np.float64, order="C")
        flat, hw = _rows(dyf)
        dbeta = np.add.reduce(dyf, axis=axes)
        if cache[0] == "batch":
            _, xhat, sigma_b, r, d = cache
            count = dy.size // dy.shape[1]
            rp, xflat = r.repeat(hw), _rows(xhat)[0]
            tflat = np.multiply(xflat, rp)
            t = tflat.reshape(dyf.shape)
            tflat += d.repeat(hw)
            tflat *= flat
            dgamma = np.add.reduce(t, axis=axes)
            flat *= self.params["gamma"].astype(np.float64).repeat(hw)
            flat *= rp  # dxhat
            m_d = np.add.reduce(dyf, axis=axes) / count
            np.multiply(flat, xflat, out=tflat)
            m_dx = np.add.reduce(t, axis=axes) / count
            flat -= m_d.repeat(hw)
            np.multiply(xflat, m_dx.repeat(hw), out=tflat)
            flat -= tflat
            flat /= sigma_b.repeat(hw)
        else:
            t, tflat, _ = self._moving_xhat(cache[1])
            tflat *= flat
            dgamma = np.add.reduce(t, axis=axes)
            flat *= self.params["gamma"].astype(np.float64).repeat(hw)
            flat /= self.sigma_mov.repeat(hw)
        return dyf.astype(np.float32), {"gamma": dgamma.astype(np.float32),
                                        "beta": dbeta.astype(np.float32)}


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
