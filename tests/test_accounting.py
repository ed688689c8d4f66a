import numpy as np
import pytest

from latentreplay import accounting
from latentreplay.accounting import (BUNDLED_REPLAY_CANDIDATES, LayerCostTable,
                                     bundled_cost_table, computation_pct,
                                     format_mb, memory_footprint, pattern_size,
                                     tradeoff_csv, tradeoff_table)
from latentreplay.errors import ConfigError
from latentreplay.presets import build_tinynic_network
from latentreplay.replay import ReplayMemory
from latentreplay.rng import SeededRng

REFERENCE_PCT = {
    "Images": 100.00,
    "conv5_1/dw": 59.261,
    "conv5_2/dw": 50.101,
    "conv5_3/dw": 40.941,
    "conv5_4/dw": 31.781,
    "conv5_5/dw": 22.621,
    "conv5_6/dw": 13.592,
    "conv6/dw": 9.012,
    "pool6": 0.027,
}

REFERENCE_SIZE = {
    "Images": 49152,
    "conv5_1/dw": 32768,
    "conv5_2/dw": 32768,
    "conv5_3/dw": 32768,
    "conv5_4/dw": 32768,
    "conv5_5/dw": 32768,
    "conv5_6/dw": 8192,
    "conv6/dw": 16384,
    "pool6": 1024,
}


def test_reference_percentages_within_hundredth_of_point():
    table = bundled_cost_table()
    for layer, want in REFERENCE_PCT.items():
        got = computation_pct(table, layer)
        assert abs(got - want) < 0.01, (layer, got, want)


def test_reference_pattern_sizes_exact():
    table = bundled_cost_table()
    for layer, want in REFERENCE_SIZE.items():
        assert pattern_size(table, layer) == want


def test_total_ops_consistency():
    table = bundled_cost_table()
    # printed rounded total is 187.09M
    assert round(table.total_ops / 1e6, 2) == 187.09


def test_pct_monotone_non_increasing_along_network():
    table = bundled_cost_table()
    pcts = [computation_pct(table, name) for name in table.names()]
    assert all(a >= b - 1e-12 for a, b in zip(pcts, pcts[1:]))


def test_footprint_examples():
    assert memory_footprint(1500, 32768, 1) == 49_152_000
    assert memory_footprint(1500, 32768, 4) == 4 * 49_152_000
    assert memory_footprint(0, 32768, 1) == 0
    with pytest.raises(ConfigError):
        memory_footprint(1, 1, 0)


def test_format_mb_convention():
    # KB = 1024 B, MB = 1000 KB: 49,152,000 B -> exactly 48 MB
    assert format_mb(49_152_000) == "48 MB"


def test_tradeoff_rows_and_csv():
    table = bundled_cost_table()
    rows = tradeoff_table(table, BUNDLED_REPLAY_CANDIDATES, rm_size=1500)
    assert len(rows) == 9
    by_layer = {r["layer"]: r for r in rows}
    assert by_layer["conv5_4/dw"]["footprint_bytes"] == 49_152_000
    text = tradeoff_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "layer,computation_pct,pattern_size,footprint_bytes,footprint_mb"
    assert len(lines) == 10
    assert "conv5_4/dw,31.781,32768,49152000,48 MB" in lines


def test_single_candidate_input_row():
    table = bundled_cost_table()
    rows = tradeoff_table(table, ["Images"], rm_size=10)
    assert len(rows) == 1
    assert rows[0]["computation_pct"] == pytest.approx(100.0)


def test_unknown_layer_is_lookup_error():
    table = bundled_cost_table()
    with pytest.raises(KeyError):
        computation_pct(table, "nope")
    with pytest.raises(KeyError):
        pattern_size(table, "nope")


def test_tradeoff_table_rejects_unknown_candidates_and_zero_ops():
    with pytest.raises(ConfigError, match=r"unknown candidate layer\(s\) \['nope'\]"):
        tradeoff_table(bundled_cost_table(), ["Images", "nope"], rm_size=10)
    zero = LayerCostTable.from_csv_text("name,neurons,ops,weights\nIn,10,0,0\nout,2,0,3\n")
    with pytest.raises(ConfigError, match="ops sum to 0"):
        tradeoff_table(zero, ["In"], rm_size=10)
    assert tradeoff_table(zero, [], rm_size=10) == []


def test_malformed_csv_rejected():
    with pytest.raises(ConfigError):
        LayerCostTable.from_csv_text("name,neurons\nfoo,1\n")
    with pytest.raises(ConfigError):
        LayerCostTable.from_csv_text("name,neurons,ops,weights\nfoo,a,b,c\n")
    with pytest.raises(ConfigError):
        LayerCostTable.from_csv_text("name,neurons,ops,weights\n")


def test_duplicate_names_rejected():
    text = "name,neurons,ops,weights\nx,1,1,1\nx,2,2,2\n"
    with pytest.raises(ConfigError):
        LayerCostTable.from_csv_text(text)


def test_derived_tinynic_table_strictly_decreasing():
    net = build_tinynic_network(classes=10, seed=1)
    table = LayerCostTable.from_network(net)
    names = table.names()
    assert names[0] == "Images"
    pcts = [computation_pct(table, n) for n in names[:-1]]
    assert all(a > b for a, b in zip(pcts, pcts[1:])), pcts


def test_derived_table_matches_layer_shapes():
    net = build_tinynic_network(classes=10, seed=2)
    table = LayerCostTable.from_network(net)
    assert pattern_size(table, "Images") == 16 * 16
    assert pattern_size(table, net.tap) == int(np.prod(net.tap_shape))
    assert pattern_size(table, "fc") == 10


def test_tap_pattern_size_matches_stored_latents():
    net = build_tinynic_network(classes=10, seed=3)
    table = LayerCostTable.from_network(net)
    rm = ReplayMemory(8, SeededRng(4))
    x = SeededRng(5).normal((10, 1, 16, 16))
    rm.update(net.tap_activations(x), np.arange(10) % 10, 1)
    assert rm.payloads.size == len(rm) * pattern_size(table, net.tap)
