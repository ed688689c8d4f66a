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
        x = cache
        dw = (x.astype(np.float64).T @ dy.astype(np.float64)).astype(np.float32)
        db = dy.astype(np.float64).sum(axis=0).astype(np.float32)
        if not need_dx:
            return None, {"w": dw, "b": db}
        dx = (dy.astype(np.float64) @ self.params["w"].astype(np.float64).T).astype(np.float32)
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


class Brn(Layer):
    """Batch Renormalization.

    Train mode normalizes with batch moments corrected by r, d clipped
    against the moving moments; eval mode uses the moving moments. When
    ``moments_frozen`` is set the layer is a fixed affine normalizer:
    it applies the eval formula in both modes and never updates moments,
    which keeps stored latent activations exactly reproducible.
    ``Network.freeze_below_tap`` sets it on every BRN at or below the tap.

    r and d are treated as constants in backward. A moving-moment cache
    keeps the input, and backward recomputes xhat from it with the
    moments it reads for dx, the ones current at backward time.

    Forward and backward work in place on one float64 copy, but apply the
    ufuncs of the plain formulas in the same order to the same values,
    so the bits are theirs: batch moments are ``add.reduce / count``, as
    ``mean`` and ``var`` compute them; the centred input ``x - mu_b``
    serves both the variance and xhat, as in ``var``; and
    y = ``gamma * (xhat * r + d) + beta`` is built as
    ``xhat*r, +d, *gamma, +beta``. r and d are clipped with
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
        self.moments_frozen = False
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

    def _bview(self, per_channel, ndim):
        if ndim == 4:
            return per_channel.reshape(1, -1, 1, 1)
        return per_channel.reshape(1, -1)

    def _moving_xhat(self, x):
        """(x - mu_mov) / sigma_mov as a new float64 array."""
        xhat = x.astype(np.float64)
        xhat -= self._bview(self.mu_mov, x.ndim)
        xhat /= self._bview(self.sigma_mov, x.ndim)
        return xhat

    def forward(self, x, mode):
        axes = (0, 2, 3) if x.ndim == 4 else (0,)
        gamma = self._bview(self.params["gamma"].astype(np.float64), x.ndim)
        beta = self._bview(self.params["beta"].astype(np.float64), x.ndim)
        if mode == TRAIN and not self.moments_frozen:
            count = x.size // x.shape[1]
            xhat = x.astype(np.float64)
            mu_b = np.add.reduce(xhat, axis=axes) / count
            xhat -= self._bview(mu_b, x.ndim)
            sigma_b = np.sqrt(np.add.reduce(xhat * xhat, axis=axes) / count + self.eps)
            xhat /= self._bview(sigma_b, x.ndim)
            r = np.minimum(np.maximum(sigma_b / self.sigma_mov, 1.0 / self.r_max), self.r_max)
            d = np.minimum(np.maximum((mu_b - self.mu_mov) / self.sigma_mov, -self.d_max),
                           self.d_max)
            y = xhat * self._bview(r, x.ndim)
            y += self._bview(d, x.ndim)
            self.mu_mov = self.avg_rate * self.mu_mov + (1 - self.avg_rate) * mu_b
            self.sigma_mov = self.avg_rate * self.sigma_mov + (1 - self.avg_rate) * sigma_b
            cache = ("batch", xhat, sigma_b, r, d)
        else:
            y = self._moving_xhat(x)
            cache = ("moving", x)
        y *= gamma
        y += beta
        return y.astype(np.float32), cache

    def backward(self, dy, cache, need_dx=True):
        gamma = self._bview(self.params["gamma"].astype(np.float64), dy.ndim)
        axes = (0, 2, 3) if dy.ndim == 4 else (0,)
        dyf = dy.astype(np.float64)
        dbeta = np.add.reduce(dyf, axis=axes)
        if cache[0] == "batch":
            _, xhat, sigma_b, r, d = cache
            count = dy.size // dy.shape[1]
            rb = self._bview(r, dy.ndim)
            t = xhat * rb
            t += self._bview(d, dy.ndim)
            t *= dyf
            dgamma = np.add.reduce(t, axis=axes)
            dyf *= gamma
            dyf *= rb  # dxhat
            m_d = np.add.reduce(dyf, axis=axes) / count
            np.multiply(dyf, xhat, out=t)
            m_dx = np.add.reduce(t, axis=axes) / count
            dyf -= self._bview(m_d, dy.ndim)
            np.multiply(xhat, self._bview(m_dx, dy.ndim), out=t)
            dyf -= t
            dyf /= self._bview(sigma_b, dy.ndim)
        else:
            t = self._moving_xhat(cache[1])
            t *= dyf
            dgamma = np.add.reduce(t, axis=axes)
            dyf *= gamma
            dyf /= self._bview(self.sigma_mov, dy.ndim)
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
