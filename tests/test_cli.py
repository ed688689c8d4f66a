import json
import os
import subprocess
import sys

import numpy as np
import pytest

from latentreplay import cli
from latentreplay.cli import main
from latentreplay.presets import tinynic_network_spec
from latentreplay.scenario import generate_tinynic, load_dataset, ScenarioParams
from latentreplay.tensorio import save_tensor

from conftest import BAD_MANIFEST_VALUES, tamper_manifest

SMALL_GEN = {
    "classes": 4, "instances_per_class": 2, "frames_per_session": 10,
    "first_batch_classes": 2, "first_batch_instances": 1,
    "test_frames_per_instance": 5, "seed": 3,
}


def run_config(tmp_path, **overrides):
    doc = {
        "scenario": {"generator": dict(SMALL_GEN)},
        "network": {"builtin": "tinynic", "width": 4},
        "strategies": [{"name": "naive", "strategy": "naive",
                        "epochs": 1, "mb": 16}],
        "seeds": [0],
        "record_timing": False,
    }
    doc.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return path


# -- tradeoff ----------------------------------------------------------------


def test_tradeoff_default_fixture(capsys):
    assert main(["tradeoff", "--rm-size", "1500"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].startswith("layer,computation_pct")
    assert len(lines) == 10  # header + nine candidate rows
    assert "conv5_4/dw,31.781,32768,49152000,48 MB" in lines
    assert "pool6,0.027,1024,1536000,1.5 MB" in lines


def test_tradeoff_empty_candidates_header_only(capsys):
    assert main(["tradeoff", "--candidates", ""]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "layer,computation_pct,pattern_size,footprint_bytes,footprint_mb"]


def test_tradeoff_explicit_candidates(capsys):
    assert main(["tradeoff", "--candidates", "Images,pool6", "--rm-size", "10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("Images,100.000,49152")


def test_tradeoff_missing_fixture_is_config_error(capsys):
    assert main(["tradeoff", "--fixture", "/nonexistent.csv"]) == 1
    assert "error" in capsys.readouterr().err


def test_tradeoff_malformed_fixture(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("layer,foo\nx,1\n")
    assert main(["tradeoff", "--fixture", str(bad)]) == 1
    assert capsys.readouterr().err


def test_tradeoff_custom_fixture(tmp_path, capsys):
    fix = tmp_path / "c.csv"
    fix.write_text("name,neurons,ops,weights\nIn,10,0,0\nmid,8,100,5\nout,2,50,3\n")
    assert main(["tradeoff", "--fixture", str(fix), "--rm-size", "2",
                 "--bytes-per-elem", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split(",")[:4] == ["In", "100.000", "10", "80"]
    assert lines[2].split(",")[:4] == ["mid", "33.333", "8", "64"]


@pytest.mark.parametrize("args, message", [
    (["--candidates", "Images,nope"], "unknown candidate layer(s) ['nope']"),
    (["--fixture", "zero.csv"], "cost table ops sum to 0: no computation share is defined")],
    ids=["candidate", "zero_ops"])
def test_tradeoff_bad_input_exits_1(tmp_path, capsys, monkeypatch, args, message):
    (tmp_path / "zero.csv").write_text("name,neurons,ops,weights\nIn,10,0,0\nout,2,0,3\n")
    monkeypatch.chdir(tmp_path)
    assert main(["tradeoff"] + args) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {message}")


# -- scenario -----------------------------------------------------------------


def test_scenario_round_trip(tmp_path, capsys):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps(SMALL_GEN))
    out_dir = tmp_path / "ds"
    assert main(["scenario", "--config", str(cfg), "--out", str(out_dir)]) == 0
    manifest = capsys.readouterr().out.strip()
    back = load_dataset(manifest)
    params = ScenarioParams(**{k: v for k, v in SMALL_GEN.items() if k != "seed"})
    direct = generate_tinynic(params, seed=SMALL_GEN["seed"])
    assert len(back.batches) == len(direct.batches)
    for a, b in zip(back.batches, direct.batches):
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)


def test_scenario_seed_changes_payload(tmp_path, capsys):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps(SMALL_GEN))
    assert main(["scenario", "--config", str(cfg), "--seed", "1",
                 "--out", str(tmp_path / "a")]) == 0
    assert main(["scenario", "--config", str(cfg), "--seed", "2",
                 "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "batch_000.lrt").read_bytes()
    b = (tmp_path / "b" / "batch_000.lrt").read_bytes()
    assert a != b


def test_scenario_manifest_counts(tmp_path, capsys):
    gen = dict(SMALL_GEN)
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps(gen))
    assert main(["scenario", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 0
    doc = json.loads((tmp_path / "d" / "manifest.json").read_text())
    params = ScenarioParams(**{k: v for k, v in gen.items() if k != "seed"})
    assert len(doc["batches"]) == params.n_batches()
    assert "test" in doc


# -- run ------------------------------------------------------------------------


def test_run_writes_metrics_and_summary(tmp_path, capsys):
    cfg = run_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "metrics.csv").read_text().splitlines()
    params = ScenarioParams(**{k: v for k, v in SMALL_GEN.items() if k != "seed"})
    assert len(rows) == 1 + params.n_batches()
    summary = json.loads((out / "summary.json").read_text())
    assert "naive" in summary["strategies"]


def test_run_two_strategies_two_files(tmp_path):
    cfg = run_config(tmp_path, strategies=[
        {"name": "naive", "strategy": "naive", "epochs": 1, "mb": 16},
        {"name": "cwr", "strategy": "cwr*", "tap": "pool", "epochs": 1, "mb": 16},
    ])
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "metrics_naive_s0.csv").exists()
    assert (out / "metrics_cwr_s0.csv").exists()
    assert not (out / "metrics.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["strategies"]) == {"naive", "cwr"}


@pytest.mark.parametrize("names", [("ar1*", "ar1_"), ("naive", "naive")],
                         ids=["one-slug", "one-name"])
def test_run_rejects_names_that_share_a_metrics_file(tmp_path, capsys, names):
    """Each block writes metrics_<slug>_s<seed>.csv; two names with one
    slug would write one file, so the config is rejected before anything
    is written."""
    cfg = run_config(tmp_path, strategies=[
        {"name": n, "strategy": "naive", "epochs": 1, "mb": 16} for n in names])
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: strategy names")
    assert not out.exists()


def test_readme_reference_config_passes_every_check():
    """The README runs the bundled reference config: it loads, and every
    block builds its network and passes its checks, without training."""
    path = os.path.join(os.path.dirname(cli.__file__), "fixtures", "tinynic_reference.json")
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        assert "src/latentreplay/fixtures/tinynic_reference.json" in fh.read()
    with open(path) as fh:
        cfg = cli.ExperimentConfig(json.load(fh), base_dir=os.path.dirname(path))
    scenario = cfg.load_scenario()
    assert cfg.strategies and cfg.seeds
    for _, tap, strat in cfg.strategies:
        for seed in cfg.seeds:
            net = cli._prepare(cfg, scenario, tap, strat, seed)
            assert net.class_count == scenario.classes


def test_run_determinism_byte_identical(tmp_path):
    cfg = run_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out_b)]) == 0
    assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
    assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()


def test_run_with_cumulative_gap(tmp_path):
    cfg = run_config(tmp_path, include_cumulative=True, cumulative_epochs=1)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert "cumulative" in summary
    assert "gap_vs_cumulative" in summary["strategies"]["naive"]


def test_run_unknown_config_key_rejected(tmp_path, capsys):
    cfg = run_config(tmp_path, bogus_key=1)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "bogus_key" in err


def test_run_unknown_strategy_key_rejected(tmp_path):
    cfg = run_config(tmp_path, strategies=[
        {"name": "x", "strategy": "naive", "learning_rate": 1.0}])
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


def test_run_missing_config_file(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "none.json"),
                 "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err


def test_run_invalid_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("bad", [{"lr_other": -0.1}, {"epochs": "4"}, {"iterations": 0},
                                 {"sparsifier_alpha": "x"},
                                 {"config": {"seeds": ["a"]}}, {"config": {"seeds": [1.5]}},
                                 {"config": {"seeds": []}},
                                 {"config": {"cumulative_epochs": "x"}},
                                 {"config": {"cumulative_lr": "x"}},
                                 {"config": {"eval_every": "2"}},
                                 {"config": {"scenario": {"generator": dict(SMALL_GEN,
                                                                            classes="4")}}},
                                 {"config": {"scenario": {"generator": dict(SMALL_GEN,
                                                                            seed="x")}}},
                                 {"config": {"seeds": [3, 3]}},
                                 {"config": {"network": {"builtin": "tinynic",
                                                         "width": "x"}}},
                                 {"config": {"record_timing": "false"}},
                                 {"config": {"include_cumulative": "true"}},
                                 {"config": {"scenario": 5}}, {"config": {"network": 5}},
                                 {"config": {"strategies": 5}},
                                 {"config": {"strategies": [5]}},
                                 {"config": {"network": {"spec_path": 5}}},
                                 {"config": {"scenario": {"manifest": 5}}},
                                 {"config": {"output_dir": 5}},
                                 {"config": {"scenario": {"generator": dict(
                                     SMALL_GEN, pattern_shape="ab")}}},
                                 {"config": {"scenario": {"generator": dict(
                                     SMALL_GEN, pattern_shape=[1, 8, 8])}}},
                                 {"sparsifier_alpha": -1.0}, {"name": 5},
                                 {"name": {"a": 1}}, {"tap": ""}, {"tap": 0}, {"tap": []},
                                 {"rm_capacity": 500}])
def test_run_bad_strategy_value_exits_1_without_traceback(tmp_path, bad):
    """A bad strategy-block value, or a bad top-level one under "config"."""
    bad = dict(bad)
    top = bad.pop("config", {})
    cfg = run_config(tmp_path, **dict(
        {"strategies": [dict({"name": "x", "strategy": "naive"}, **bad)]}, **top))
    proc = subprocess.run(
        [sys.executable, "-m", "latentreplay", "run", "--config", str(cfg),
         "--out", str(tmp_path / "o")], capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("key, where", [
    ("freeze_below_tap_moments", "strategy block"), ("store_patterns", "strategy block"),
    ("si_lambda", "strategy block"), ("si_xi", "strategy block"),
    ("si_w1", "strategy block"), ("si_wi", "strategy block"),
    ("si_max_f", "strategy block"), ("dslda_shrink", "strategy block"),
    ("sparsifier", "strategy block"), ("track_drift", "config"),
    ("cumulative_mb", "config"), ("tap", "network"), ("avg_rate", "network")],
    ids=["freeze_below_tap_moments", "store_patterns", "si_lambda", "si_xi", "si_w1", "si_wi",
         "si_max_f", "dslda_shrink", "sparsifier", "track_drift", "cumulative_mb", "tap",
         "avg_rate"])
def test_run_config_with_removed_key_exits_1(tmp_path, key, where):
    """Keys whose mechanism is gone are unknown keys, not silently ignored:
    freezing below the tap always pins the BRN moments, aging drift and the
    patterns it kept are deleted, the strategy name alone says whether SI
    protects the lower weights, the SI and DSLDA constants, the cumulative
    mini-batch and the builtin network's tap and BRN moment rate are their
    defaults, and the sparsifier is one value, ``sparsifier_alpha``."""
    block = {"name": "x", "strategy": "ar1*free", "replay_kind": "latent", "rm_capacity": 20,
             "epochs": 1, "mb": 16}
    top = {}
    if where == "strategy block":
        block[key] = True
    elif where == "network":
        top["network"] = {"builtin": "tinynic", "width": 4, key: "relu3"}
    else:
        top[key] = True
    cfg = run_config(tmp_path, strategies=[block], **top)
    proc = subprocess.run(
        [sys.executable, "-m", "latentreplay", "run", "--config", str(cfg),
         "--out", str(tmp_path / "o")], capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [f"error: unknown key(s) in {where}: [{key!r}]"]


def _saved_manifest(tmp_path, capsys):
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps(SMALL_GEN))
    assert main(["scenario", "--config", str(gen), "--out", str(tmp_path / "ds")]) == 0
    capsys.readouterr()
    manifest = tmp_path / "ds" / "manifest.json"
    return manifest, json.loads(manifest.read_text())


@pytest.mark.parametrize("split, label", [("batches", 4), ("test", -1)])
def test_run_manifest_label_out_of_range_exits_1(tmp_path, capsys, split, label):
    manifest, doc = _saved_manifest(tmp_path, capsys)
    entry = doc["batches"][1] if split == "batches" else doc["test"]
    entry["labels"][3] = label
    manifest.write_text(json.dumps(doc))
    cfg = run_config(tmp_path, scenario={"manifest": str(manifest)})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {entry['file']}: label {label} is not an integer in [0, 4)"]


@pytest.mark.parametrize("source", ["generator", "manifest"])
def test_run_empty_test_split_exits_1(tmp_path, capsys, source):
    if source == "generator":
        scenario = {"generator": dict(SMALL_GEN, test_frames_per_instance=0)}
        message = "error: test_frames_per_instance must be an integer >= 1, got 0"
    else:
        manifest, doc = _saved_manifest(tmp_path, capsys)
        save_tensor(str(tmp_path / "ds" / doc["test"]["file"]),
                    np.zeros((0, 1, 16, 16), dtype=np.float32))
        doc["test"]["labels"] = []
        manifest.write_text(json.dumps(doc))
        scenario = {"manifest": str(manifest)}
        message = f"error: {manifest}: the test split has no labels"
    cfg = run_config(tmp_path, scenario=scenario)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.splitlines() == [message]


def test_run_manifest_missing_key_exits_1(tmp_path, capsys):
    manifest, doc = _saved_manifest(tmp_path, capsys)
    del doc["batches"][1]["labels"]
    manifest.write_text(json.dumps(doc))
    cfg = run_config(tmp_path, scenario={"manifest": str(manifest)})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {manifest}: missing key 'labels'"]


@pytest.mark.parametrize("key, value, message", BAD_MANIFEST_VALUES)
def test_run_manifest_value_of_wrong_type_exits_1(tmp_path, capsys, key, value, message):
    manifest, doc = _saved_manifest(tmp_path, capsys)
    manifest.write_text(json.dumps(tamper_manifest(doc, key, value)))
    cfg = run_config(tmp_path, scenario={"manifest": str(manifest)})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {manifest}: {message}"]


def test_run_spec_missing_key_exits_1(tmp_path, capsys):
    spec = tinynic_network_spec(classes=4, width=4)
    del spec["layers"][1]["kind"]
    (tmp_path / "net.json").write_text(json.dumps(spec))
    cfg = run_config(tmp_path, network={"spec_path": "net.json"})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {tmp_path / 'net.json'}: missing key 'kind'"]


@pytest.mark.parametrize("field, value, message", [
    ("r_max", 0, "brn1.r_max must be a finite number >= 1, got 0"),
    ("d_max", -1, "brn1.d_max must be a finite number >= 0, got -1"),
    ("avg_rate", "x", "brn1.avg_rate must be a finite number in [0, 1], got 'x'")],
    ids=["r_max", "d_max", "avg_rate"])
def test_run_spec_bad_brn_field_exits_1(tmp_path, capsys, field, value, message):
    spec = tinynic_network_spec(classes=4, width=4)
    spec["layers"][1][field] = value
    (tmp_path / "net.json").write_text(json.dumps(spec))
    cfg = run_config(tmp_path, network={"spec_path": "net.json"})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("layer, field, value, message", [
    ("conv1", "kernel", 0, "conv1.kernel must be an integer >= 1, got 0"),
    ("conv1", "kernel", "x", "conv1.kernel must be an integer >= 1, got 'x'"),
    ("conv1", "stride", 0, "conv1.stride must be an integer >= 1, got 0"),
    ("conv1", "stride", 3, "conv1 does not fit its input (1, 16, 16): "
     "non-integral output extent: size=16 kernel=4 stride=3 pad=1"),
    ("conv1", "pad", -1, "conv1.pad must be an integer >= 0, got -1"),
    ("conv1", "out_channels", -2, "conv1.out_channels must be an integer >= 1, got -2"),
    ("conv1", "groups", 3, "conv1.groups 3 must divide its 1 in and 4 out channels"),
    ("conv2_dw", "stride", 0, "conv2_dw.stride must be an integer >= 1, got 0"),
    ("fc", "units", "x", "fc.units must be an integer >= 1, got 'x'"),
    (None, "input_shape", 5, "input_shape must be a non-empty list of integers >= 1, got 5"),
    (None, "input_shape", [1, 0, 16],
     "input_shape must be a non-empty list of integers >= 1, got [1, 0, 16]")],
    ids=["kernel", "kernel_type", "stride", "stride_extent", "pad", "out_channels", "groups",
         "dw_stride", "units", "input_shape", "input_extent"])
def test_run_spec_bad_layer_field_exits_1(tmp_path, capsys, layer, field, value, message):
    spec = tinynic_network_spec(classes=4, width=4)
    target = spec if layer is None else next(l for l in spec["layers"] if l["name"] == layer)
    target[field] = value
    (tmp_path / "net.json").write_text(json.dumps(spec))
    cfg = run_config(tmp_path, network={"spec_path": "net.json"})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("first, message", [
    ({"name": "d0", "kind": "dense", "units": 8},
     "d0 does not fit its input (1, 16, 16): d0: expected (1,), got (1, 16, 16)"),
    ({"name": "p0", "kind": "avgpool"},
     "conv1 does not fit its input (1,): not enough values to unpack (expected 3, got 1)")],
    ids=["dense", "avgpool"])
def test_run_spec_layer_inserted_before_conv1_exits_1(tmp_path, capsys, first, message):
    """A spec whose layer shapes do not chain is a config error, found
    before anything runs."""
    spec = tinynic_network_spec(classes=4, width=4)
    spec["layers"].insert(0, first)
    (tmp_path / "net.json").write_text(json.dumps(spec))
    cfg = run_config(tmp_path, network={"spec_path": "net.json"})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("extra", [{"width": 64},
                                   {"width": 64, "builtin": "nope"}],
                         ids=["width", "all"])
def test_run_spec_path_with_builtin_keys_exits_1(tmp_path, capsys, extra):
    """A spec_path network is the spec's; the builtin's keys would be ignored."""
    (tmp_path / "net.json").write_text(json.dumps(tinynic_network_spec(classes=4, width=4)))
    cfg = run_config(tmp_path, network=dict({"spec_path": "net.json"}, **extra))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: network keys {sorted(extra)} do not apply to a spec_path network"]


def test_run_spec_path_matches_builtin_and_honours_block_tap(tmp_path):
    (tmp_path / "net.json").write_text(json.dumps(tinynic_network_spec(classes=4, width=4)))
    blocks = [{"name": "relu3", "strategy": "ar1*free", "replay_kind": "latent",
               "rm_capacity": 20, "epochs": 1, "mb": 16},
              {"name": "pool", "strategy": "ar1*free", "replay_kind": "latent",
               "tap": "pool", "rm_capacity": 20, "epochs": 1, "mb": 16}]
    outs = {}
    for kind, network in (("builtin", {"builtin": "tinynic", "width": 4}),
                          ("spec", {"spec_path": "net.json"})):
        cfg = run_config(tmp_path, network=network, strategies=blocks)
        outs[kind] = tmp_path / kind
        assert main(["run", "--config", str(cfg), "--out", str(outs[kind])]) == 0
    for name in ("metrics_relu3_s0.csv", "metrics_pool_s0.csv", "summary.json"):
        assert (outs["spec"] / name).read_bytes() == (outs["builtin"] / name).read_bytes()
    cfg = cli.ExperimentConfig(json.loads(cfg.read_text()), base_dir=str(tmp_path))
    scenario = cfg.load_scenario()
    taps = [cli._prepare(cfg, scenario, tap, strat, 0).tap
            for _, tap, strat in cfg.strategies]
    assert taps == ["relu3", "pool"]


@pytest.mark.parametrize("strategy", ["ar1*free", "naive"])
def test_run_spec_path_latent_memory_tapped_at_head_is_config_error(tmp_path, capsys, strategy):
    """A latent memory pins every layer up to the tap from batch 2; tapped
    at the output layer, nothing would train again."""
    (tmp_path / "net.json").write_text(json.dumps(tinynic_network_spec(classes=4, width=4)))
    cfg = run_config(tmp_path, network={"spec_path": "net.json"},
                     strategies=[{"name": "fc", "strategy": strategy, "replay_kind": "latent",
                                  "tap": "fc", "rm_capacity": 20, "epochs": 1, "mb": 16}])
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: a latent memory pins every layer up to the tap 'fc' from batch 2, "
        "and no layer above it has weights to train"]
    assert not (tmp_path / "o" / "metrics.csv").exists()


def test_run_spec_path_unpinned_tapped_at_head_trains_and_evaluates(tmp_path, capsys):
    """An unpinned run may tap the output layer: with a native memory every
    layer keeps training."""
    (tmp_path / "net.json").write_text(json.dumps(tinynic_network_spec(classes=4, width=4)))
    cfg = run_config(tmp_path, network={"spec_path": "net.json"},
                     strategies=[{"name": "fc", "strategy": "ar1*free", "replay_kind": "native",
                                  "tap": "fc", "rm_capacity": 20, "epochs": 1, "mb": 16}])
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""
    rows = (tmp_path / "o" / "metrics.csv").read_text().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == [str(i) for i in range(1, 8)]


def test_run_diverging_stops_with_one_runtime_error_line(tmp_path):
    cfg = run_config(tmp_path, strategies=[{"name": "x", "strategy": "naive", "epochs": 1,
                                            "mb": 16, "lr_first": 1e6, "lr_head": 1e6,
                                            "lr_other": 1e6}])
    proc = subprocess.run(
        [sys.executable, "-m", "latentreplay", "run", "--config", str(cfg),
         "--out", str(tmp_path / "o")], capture_output=True, text=True)
    assert proc.returncode == 2
    # batch 1's last step leaves no finite test logit; its evaluation stops the run
    assert proc.stderr.splitlines() == ["runtime error: non-finite logits after batch 1: "
                                        "the run diverged"]


@pytest.mark.parametrize("key, overrides", [
    ("eval_every", {"eval_every": 0}),
    ("width", {"network": {"builtin": "tinynic", "width": 0}})])
def test_run_zero_divisor_is_config_error(tmp_path, capsys, key, overrides):
    cfg = run_config(tmp_path, **overrides)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key} must be an integer >= 1")


@pytest.mark.parametrize("bad", [
    {"strategy": "naive", "lr_other": -0.1}, {"strategy": "cwr*", "tap": "relu3"},
    {"strategy": "dslda", "replay_kind": "native"}],
    ids=["lr_other", "cwr-relu3", "dslda-replay"])
def test_run_checks_every_block_before_training(tmp_path, monkeypatch, bad):
    calls = []
    monkeypatch.setattr(cli, "run_protocol", lambda *a, **k: calls.append(a))
    cfg = run_config(tmp_path, strategies=[
        {"name": "good", "strategy": "naive", "epochs": 1, "mb": 16},
        dict({"name": "bad"}, **bad)])
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert calls == []
    assert not out.exists()


def test_run_seed_override(tmp_path):
    cfg = run_config(tmp_path, seeds=[5, 6])
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--seed", "5",
                 "--out", str(out)]) == 0
    assert (out / "metrics.csv").exists()  # single combo after override


@pytest.mark.parametrize("seed", ["-3", "-1"])
def test_run_and_scenario_seed_flags_are_checked_like_config_seeds(tmp_path, capsys, seed):
    cfg = run_config(tmp_path)
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--seed", seed, "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: --seed must be an integer >= 0, got {seed}"]
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps(SMALL_GEN))
    assert main(["scenario", "--config", str(gen), "--seed", seed, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: --seed must be an integer >= 0")
    assert not out.exists()


def test_run_multiseed_files(tmp_path):
    cfg = run_config(tmp_path, seeds=[1, 2])
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "metrics_naive_s1.csv").exists()
    assert (out / "metrics_naive_s2.csv").exists()


def test_run_pooled_jobs_match_single_runs(tmp_path):
    blocks = [{"name": "naive", "strategy": "naive", "epochs": 1, "mb": 16},
              {"name": "latent", "strategy": "ar1*free", "replay_kind": "latent",
               "rm_capacity": 20, "epochs": 1, "mb": 16}]
    cfg = run_config(tmp_path, strategies=blocks, seeds=[1, 2])
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "all")]) == 0
    for block in blocks:
        one = run_config(tmp_path, strategies=[block], seeds=[1, 2])
        for seed in (1, 2):
            out = tmp_path / f"{block['name']}{seed}"
            assert main(["run", "--config", str(one), "--seed", str(seed),
                         "--out", str(out)]) == 0
            pooled = tmp_path / "all" / f"metrics_{block['name']}_s{seed}.csv"
            assert pooled.read_bytes() == (out / "metrics.csv").read_bytes()


def test_run_first_failure_cancels_jobs_not_started(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)
    started = []

    def run_protocol(net, strat, *args, **kwargs):
        started.append(strat.lr_first)
        return real(net, strat, *args, **kwargs)

    real = cli.run_protocol
    monkeypatch.setattr(cli, "run_protocol", run_protocol)
    cfg = run_config(tmp_path, strategies=[
        {"name": "diverges", "strategy": "naive", "epochs": 1, "mb": 16,
         "lr_first": 1e6, "lr_head": 1e6, "lr_other": 1e6},
        {"name": "second", "strategy": "naive", "epochs": 1, "mb": 16, "lr_first": 2e-3},
        {"name": "third", "strategy": "naive", "epochs": 1, "mb": 16, "lr_first": 3e-3}])
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "runtime error: non-finite logits after batch 1: the run diverged"]
    assert list(out.iterdir()) == []
    assert started[0] == 1e6 and 3e-3 not in started


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "latentreplay", "tradeoff", "--candidates", "pool6"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1].startswith("pool6,0.027")
    assert proc.stderr == ""
