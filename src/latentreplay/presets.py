"""Built-in toy architectures sized for desk-scale experiments."""

from __future__ import annotations

from .errors import ConfigError, require_int
from .network import Network

TINYNIC_TAPS = ("relu1", "relu2", "relu3", "relu4", "relu5", "pool")


def tinynic_network_spec(classes: int = 10, tap: str = "relu3", width: int = 8) -> dict:
    """Small depthwise-separable convnet for 16x16x1 TinyNIC patterns.

    ``tap`` picks the latent replay layer; "pool" (the penultimate
    features) is the head-only setting used by cwr*/dslda.
    """
    if tap not in TINYNIC_TAPS:
        raise ConfigError(f"tap must be one of {TINYNIC_TAPS}, got {tap!r}")
    require_int("width", width, 1)
    w = width
    layers = [
        {"name": "conv1", "kind": "conv", "out_channels": w, "kernel": 4,
         "stride": 2, "pad": 1},
        {"name": "brn1", "kind": "brn", "avg_rate": 0.99},
        {"name": "relu1", "kind": "relu"},
        {"name": "conv2_dw", "kind": "dwconv", "kernel": 3, "stride": 1, "pad": 1},
        {"name": "brn2", "kind": "brn", "avg_rate": 0.99},
        {"name": "relu2", "kind": "relu"},
        {"name": "conv2_sep", "kind": "conv", "out_channels": 2 * w, "kernel": 1},
        {"name": "brn3", "kind": "brn", "avg_rate": 0.99},
        {"name": "relu3", "kind": "relu"},
        {"name": "conv3_dw", "kind": "dwconv", "kernel": 4, "stride": 2, "pad": 1},
        {"name": "brn4", "kind": "brn", "avg_rate": 0.99},
        {"name": "relu4", "kind": "relu"},
        {"name": "conv3_sep", "kind": "conv", "out_channels": 4 * w, "kernel": 1},
        {"name": "brn5", "kind": "brn", "avg_rate": 0.99},
        {"name": "relu5", "kind": "relu"},
        {"name": "pool", "kind": "avgpool"},
        {"name": "fc", "kind": "dense", "units": classes},
    ]
    return {"input_shape": [1, 16, 16], "tap": tap, "head": "fc", "layers": layers}


def build_tinynic_network(classes: int = 10, tap: str = "relu3", seed: int = 0,
                          width: int = 8) -> Network:
    return Network.from_spec(tinynic_network_spec(classes, tap, width), seed=seed)
