"""Shared test helpers: finite-difference gradient checking, the conv
shapes and bitwise comparison the kernel and layer tests share, the bits
of BRN moving moments, and bad values for a saved scenario's manifest."""

import numpy as np
import pytest

from latentreplay.layers import Brn
from latentreplay.rng import SeededRng


# (c, hw, f, kernel, stride, pad, groups): the five TinyNIC convs at width 8,
# then one grouped conv with 1 < groups < c
CONV_SHAPES = {
    "conv1": (1, 16, 8, 4, 2, 1, 1),
    "conv2_dw": (8, 8, 8, 3, 1, 1, 8),
    "conv2_sep": (8, 8, 16, 1, 1, 0, 1),
    "conv3_dw": (16, 8, 16, 4, 2, 1, 16),
    "conv3_sep": (16, 4, 32, 1, 1, 0, 1),
    "grouped": (8, 8, 12, 3, 1, 1, 4),
}


def same_bits(a, b):
    """Equal dtype, shape and bits (so -0.0 differs from 0.0 and a NaN
    equals the same NaN)."""
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    return np.array_equal(a.view(np.uint64 if a.dtype == np.float64 else np.uint32),
                          b.view(np.uint64 if b.dtype == np.float64 else np.uint32))


def brn_moment_bits(layers):
    """The moving moments of the BRN layers among ``layers``, copied into
    one uint64 array of their bits."""
    return np.concatenate([m for l in layers if isinstance(l, Brn)
                           for m in (l.mu_mov, l.sigma_mov)]).view(np.uint64)


def numeric_grad(loss_fn, arr, flat_index, h):
    """Central difference of loss_fn wrt one coordinate of arr (in place).

    Divides by the effective step after float32 rounding so the check is
    exact about the perturbation actually applied.
    """
    flat = arr.reshape(-1)
    orig = flat[flat_index].item()
    flat[flat_index] = orig + h
    xp = flat[flat_index].item()
    fp = loss_fn()
    flat[flat_index] = orig - h
    xm = flat[flat_index].item()
    fm = loss_fn()
    flat[flat_index] = orig
    return (fp - fm) / (xp - xm)


def grad_mismatch(analytic, numeric, rtol=1e-3, atol=1e-5):
    """Relative error guard: passes when |a-n| <= rtol*max(|a|,|n|) + atol.

    atol absorbs coordinates whose true gradient sits at the float32
    noise floor, where a relative criterion is meaningless.
    """
    return abs(analytic - numeric) > rtol * max(abs(analytic), abs(numeric)) + atol


def check_grad_tensor(loss_fn, arr, analytic, rng: SeededRng, n_coords=10,
                      h=1e-2, rtol=1e-3, label="", skip_kinks=False):
    """Compare analytic gradients with central differences at random coords.

    With ``skip_kinks`` the estimate is recomputed at h/2 and coordinates
    where the two disagree are discarded: there the perturbation crosses a
    relu kink, so no finite-difference estimate of the derivative exists.
    Enough extra candidates are drawn to still check ``n_coords`` smooth
    coordinates.
    """
    flat_g = np.asarray(analytic).reshape(-1)
    size = flat_g.size
    want = min(n_coords, size)
    idxs = rng.choice(size, min(4 * want if skip_kinks else want, size))
    checked = 0
    for i in idxs:
        if checked >= want:
            break
        num = numeric_grad(loss_fn, arr, int(i), h)
        if skip_kinks:
            num_half = numeric_grad(loss_fn, arr, int(i), h / 2)
            if abs(num - num_half) > 0.5 * rtol * max(abs(num), abs(num_half)) + 2e-5:
                continue
        ana = float(flat_g[int(i)])
        assert not grad_mismatch(ana, num, rtol=rtol), (
            f"{label}[{int(i)}]: analytic {ana:.6g} vs numeric {num:.6g}")
        checked += 1
    assert checked >= max(1, want // 2), f"{label}: too few smooth coordinates"


@pytest.fixture
def rng():
    return SeededRng(1234)


# (manifest key, bad value, the message's tail); labels stay valid
BAD_MANIFEST_VALUES = [
    ("pattern_shape", 5, "pattern_shape must be a non-empty list of integers >= 1, got 5"),
    ("pattern_shape", [], "pattern_shape must be a non-empty list of integers >= 1, got []"),
    ("pattern_shape", [1, 0, 16],
     "pattern_shape must be a non-empty list of integers >= 1, got [1, 0, 16]"),
    ("pattern_shape", [1, True, 16],
     "pattern_shape must be a non-empty list of integers >= 1, got [1, True, 16]"),
    ("batches", 5, "batches must be a list, got 5"),
    ("batches", [5], "batches[0] must be an object, got 5"),
    ("test", 5, "test must be an object, got 5"),
    ("test", {"file": 5, "labels": []}, "test.file must be a string, got 5"),
    ("batches.file", 5, "batches[1].file must be a string, got 5"),
]


def tamper_manifest(doc, key, value):
    """``doc`` with ``key`` set to ``value``; ``batches.file`` is the
    second batch's file name."""
    if key == "batches.file":
        doc["batches"][1]["file"] = value
    else:
        doc[key] = value
    return doc
