"""Analytic computation/storage model for choosing the replay layer.

Given a per-layer cost table (neurons, ops, weights), the partial
forward "from the replay layer on" costs the suffix sum of ops strictly
after that layer; relative to the total it tells how much cheaper latent
replay is than feeding stored patterns from the input. Pattern size is
the replay layer's neuron count, and the memory footprint is simply
items x elements x bytes.

A cost table for a 128x128x3-input MobileNetV1 (the reference
edge-vision architecture) ships as a bundled CSV fixture; tables for the
package's own networks are derived from layer shapes.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import ConfigError
from .layers import Brn, Conv, Dense, GlobalAvgPool, Relu
from .network import Network

INPUT_ROW = "Images"


@dataclass(frozen=True)
class CostRow:
    name: str
    neurons: int
    ops: int
    weights: int


class LayerCostTable:
    """Ordered per-layer (neurons, ops, weights) rows."""

    def __init__(self, rows: list[CostRow]):
        names = [r.name for r in rows]
        if len(set(names)) != len(names):
            raise ConfigError("cost table layer names must be unique")
        for r in rows:
            if min(r.neurons, r.ops, r.weights) < 0:
                raise ConfigError(f"negative cost entry in row {r.name!r}")
        self.rows = list(rows)
        self._index = {r.name: i for i, r in enumerate(rows)}
        self.total_ops = sum(r.ops for r in rows)

    def names(self):
        return [r.name for r in self.rows]

    def row(self, name: str) -> CostRow:
        return self.rows[self._index[name]]

    def ops_above(self, name: str) -> int:
        """Ops of the rows strictly after ``name``."""
        return sum(r.ops for r in self.rows[self._index[name] + 1:])

    # -- IO -------------------------------------------------------------

    @staticmethod
    def from_csv_text(text: str) -> "LayerCostTable":
        rows = []
        for rec in csv.DictReader(io.StringIO(text)):
            try:
                rows.append(CostRow(rec["name"], int(rec["neurons"]),
                                    int(rec["ops"]), int(rec["weights"])))
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"malformed cost table row {rec!r}") from exc
        if not rows:
            raise ConfigError("cost table has no rows")
        return LayerCostTable(rows)

    @staticmethod
    def from_csv(path) -> "LayerCostTable":
        with open(path) as fh:
            return LayerCostTable.from_csv_text(fh.read())

    @staticmethod
    def from_network(net: Network) -> "LayerCostTable":
        """Derive a table from layer shapes.

        Convention: convs count pure multiply-accumulates, dense layers
        add the bias, BRN counts scale+shift, ReLU one op per element,
        pooling one per input element.
        """
        cur = net.input_shape
        rows = [CostRow(INPUT_ROW, int(np.prod(cur)), 0, 0)]
        for layer in net.layers:
            out = net.out_shape_of(layer.name)
            neurons = int(np.prod(out))
            if isinstance(layer, Conv):
                c_g = layer.in_channels // layer.groups
                ops = neurons * c_g * layer.kernel * layer.kernel
                weights = layer.out_channels * c_g * layer.kernel * layer.kernel
            elif isinstance(layer, Dense):
                ops = neurons * (layer.in_features + 1)
                weights = layer.in_features * layer.units + layer.units
            elif isinstance(layer, Brn):
                ops = 2 * neurons
                weights = 2 * layer.channels
            elif isinstance(layer, Relu):
                ops, weights = neurons, 0
            elif isinstance(layer, GlobalAvgPool):
                ops, weights = int(np.prod(cur)), 0
            else:
                ops, weights = 0, 0
            rows.append(CostRow(layer.name, neurons, ops, weights))
            cur = out
        return LayerCostTable(rows)


def bundled_cost_table() -> LayerCostTable:
    """The packaged MobileNetV1 (128x128x3 input, 50 classes) fixture."""
    text = resources.files("latentreplay.fixtures").joinpath(
        "mobilenet_v1_128.csv").read_text()
    return LayerCostTable.from_csv_text(text)


BUNDLED_REPLAY_CANDIDATES = [
    "Images", "conv5_1/dw", "conv5_2/dw", "conv5_3/dw", "conv5_4/dw",
    "conv5_5/dw", "conv5_6/dw", "conv6/dw", "pool6",
]


def computation_pct(table: LayerCostTable, replay_layer: str) -> float:
    """Partial-forward cost from the replay layer on, as a percentage of
    a full forward pass."""
    if table.total_ops == 0:
        raise ConfigError("cost table ops sum to 0: no computation share is defined")
    return 100.0 * table.ops_above(replay_layer) / table.total_ops


def pattern_size(table: LayerCostTable, layer: str) -> int:
    """Elements stored per replay pattern at this layer."""
    return table.row(layer).neurons


def memory_footprint(rm_size: int, pattern_elems: int, bytes_per_elem: int = 1) -> int:
    """Replay storage in bytes. Defaults to 1 byte/element (the compact
    deployed representation); pass 4 for raw float32."""
    if rm_size < 0 or pattern_elems < 0 or bytes_per_elem <= 0:
        raise ConfigError("footprint factors must be non-negative (bytes > 0)")
    return rm_size * pattern_elems * bytes_per_elem


def format_mb(nbytes: int) -> str:
    """Render bytes as 'MB' with KB = 1024 B and MB = 1000 KB.

    That mixed convention is what makes 1500 x 32768 B come out as
    exactly '48 MB'; it is documented here and used only for display.
    """
    return f"{nbytes / (1024 * 1000):g} MB"


def tradeoff_table(table: LayerCostTable, candidates, rm_size: int,
                   bytes_per_elem: int = 1):
    """Rows of (layer, computation %, pattern size, footprint bytes)."""
    unknown = [name for name in candidates if name not in table.names()]
    if unknown:
        raise ConfigError(f"unknown candidate layer(s) {unknown}; the table has {table.names()}")
    out = []
    for name in candidates:
        elems = pattern_size(table, name)
        out.append({
            "layer": name,
            "computation_pct": computation_pct(table, name),
            "pattern_size": elems,
            "footprint_bytes": memory_footprint(rm_size, elems, bytes_per_elem),
        })
    return out


def tradeoff_csv(rows) -> str:
    out = ["layer,computation_pct,pattern_size,footprint_bytes,footprint_mb"]
    for r in rows:
        out.append(f"{r['layer']},{r['computation_pct']:.3f},{r['pattern_size']},"
                   f"{r['footprint_bytes']},{format_mb(r['footprint_bytes'])}")
    return "\n".join(out) + "\n"
