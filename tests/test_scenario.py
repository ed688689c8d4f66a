import json
import os

import numpy as np
import pytest

from latentreplay.errors import ConfigError, TensorFormatError
from latentreplay.presets import build_tinynic_network
from latentreplay.rng import SeededRng
from latentreplay.scenario import (MetricsRow, ScenarioParams,
                                   cumulative_baseline, generate_tinynic,
                                   load_dataset, run_protocol, save_scenario,
                                   write_metrics_csv)
from latentreplay.strategies import ContinualTrainer, StrategyConfig

from conftest import BAD_MANIFEST_VALUES, tamper_manifest

SMALL = ScenarioParams(classes=4, instances_per_class=2, frames_per_session=12,
                       first_batch_classes=2, first_batch_instances=1,
                       test_frames_per_instance=6)


def test_generation_is_deterministic_bitwise():
    a = generate_tinynic(SMALL, seed=5)
    b = generate_tinynic(SMALL, seed=5)
    assert len(a.batches) == len(b.batches)
    for ba, bb in zip(a.batches, b.batches):
        assert ba.x.tobytes() == bb.x.tobytes()
        assert np.array_equal(ba.y, bb.y)
    assert a.test_x.tobytes() == b.test_x.tobytes()


def _reference_normal(rng, shape):
    """One ``SeededRng.normal(shape, float64)`` draw, Box-Muller written out:
    m = ceil(n/2) integers give the radii, the next m the angles."""
    n = int(np.prod(shape))
    m = (n + 1) // 2
    u1 = 1.0 - (rng.next_u64(m) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
    u2 = (rng.next_u64(m) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n].reshape(shape)


def _reference_tinynic(params, seed):
    """TinyNIC drawn one frame at a time: (training batches, test set)."""
    rng = SeededRng(seed).spawn(0x711C)
    shape = tuple(params.pattern_shape)

    def walk(base, frames):
        out = np.empty((frames,) + shape, dtype=np.float32)
        w = np.zeros(shape)
        for t in range(frames):
            w = np.clip(w + params.step_sigma * _reference_normal(rng, shape),
                        -params.walk_bound, params.walk_bound)
            out[t] = (base + w).astype(np.float32)
        return out

    protos = [_reference_normal(rng, shape) for _ in range(params.classes)]
    train, test = {}, {}
    for c in range(params.classes):
        for inst in range(params.instances_per_class):
            base = protos[c] + params.instance_jitter * _reference_normal(rng, shape)
            train[(c, inst)] = walk(base, params.frames_per_session)
            test[(c, inst)] = walk(base, params.test_frames_per_instance)
    first = [(c, inst) for inst in range(params.first_batch_instances)
             for c in range(params.first_batch_classes)]
    batches = [np.concatenate([train[k] for k in first])]
    batches += [train[(c, inst)] for inst in range(params.instances_per_class)
                for c in range(params.classes) if (c, inst) not in first]
    return batches, np.concatenate([test[k] for k in sorted(test)])


@pytest.mark.parametrize("shape", [(1, 16, 16), (1, 3, 5), (2, 4, 4)])
@pytest.mark.parametrize("seed", [2024, 7])
def test_generation_equals_frame_by_frame_reference(shape, seed):
    params = ScenarioParams(classes=4, instances_per_class=2, frames_per_session=12,
                            first_batch_classes=2, first_batch_instances=1,
                            test_frames_per_instance=6, pattern_shape=shape)
    scen = generate_tinynic(params, seed)
    batches, test_x = _reference_tinynic(params, seed)
    assert len(scen.batches) == len(batches)
    for got, want in zip(scen.batches, batches):
        assert got.x.dtype == np.float32 and got.x.tobytes() == want.tobytes()
    assert scen.test_x.tobytes() == test_x.tobytes()


def test_different_seed_differs():
    a = generate_tinynic(SMALL, seed=5)
    b = generate_tinynic(SMALL, seed=6)
    assert a.batches[0].x.tobytes() != b.batches[0].x.tobytes()


def test_batch_structure():
    params = ScenarioParams()
    scen = generate_tinynic(params, seed=1)
    assert len(scen.batches) == params.n_batches() == 43
    # first batch: first_batch_classes x first_batch_instances sessions
    first = scen.batches[0]
    assert len(first.x) == params.first_batch_classes * \
        params.first_batch_instances * params.frames_per_session
    assert set(first.y.tolist()) == set(range(params.first_batch_classes))
    # later batches: one single-class session each
    for b in scen.batches[1:]:
        assert len(b.x) == params.frames_per_session
        assert len(set(b.y.tolist())) == 1


def test_later_batches_bring_new_classes_and_new_instances():
    params = ScenarioParams()
    scen = generate_tinynic(params, seed=2)
    seen = set(scen.batches[0].y.tolist())
    new_class_batches = 0
    known_class_batches = 0
    for b in scen.batches[1:]:
        c = int(b.y[0])
        if c in seen:
            known_class_batches += 1
        else:
            new_class_batches += 1
            seen.add(c)
    assert new_class_batches == params.classes - params.first_batch_classes
    assert known_class_batches > 0


def test_paper_scale_session_length():
    params = ScenarioParams(classes=3, instances_per_class=2,
                            frames_per_session=300, first_batch_classes=2,
                            first_batch_instances=1, test_frames_per_instance=5)
    scen = generate_tinynic(params, seed=3)
    for b in scen.batches[1:]:
        assert len(b.x) == 300


def _pearson(a, b):
    a = a.ravel().astype(np.float64)
    b = b.ravel().astype(np.float64)
    a = a - a.mean()
    b = b - b.mean()
    return float((a * b).sum() / np.sqrt((a * a).sum() * (b * b).sum()))


def test_session_frame_correlation_structure():
    scen = generate_tinynic(ScenarioParams(), seed=4)
    consecutive = []
    for b in scen.batches[1:11]:
        for t in range(len(b.x) - 1):
            consecutive.append(_pearson(b.x[t], b.x[t + 1]))
    assert np.mean(consecutive) > 0.95

    r = SeededRng(9)
    cross = []
    for _ in range(200):
        b1, b2 = r.randint(1, len(scen.batches), 2)
        if scen.batches[int(b1)].y[0] == scen.batches[int(b2)].y[0]:
            continue
        f1 = scen.batches[int(b1)].x[int(r.randint(0, 50)[0])]
        f2 = scen.batches[int(b2)].x[int(r.randint(0, 50)[0])]
        cross.append(_pearson(f1, f2))
    assert np.mean(np.abs(cross)) < 0.5


def test_test_set_is_disjoint_from_training():
    scen = generate_tinynic(SMALL, seed=7)
    train_rows = {b.x[i].tobytes() for b in scen.batches for i in range(len(b.x))}
    for i in range(len(scen.test_x)):
        assert scen.test_x[i].tobytes() not in train_rows


def test_invalid_params_rejected():
    with pytest.raises(ConfigError):
        generate_tinynic(ScenarioParams(classes=1), seed=0)
    with pytest.raises(ConfigError):
        generate_tinynic(ScenarioParams(first_batch_classes=99), seed=0)
    for bad in ({"classes": "4"}, {"frames_per_session": 2.5}, {"step_sigma": "x"},
                {"test_frames_per_instance": 0}, {"pattern_shape": "ab"},
                {"pattern_shape": []}, {"pattern_shape": [1, 0, 8]}):
        with pytest.raises(ConfigError):
            generate_tinynic(ScenarioParams(**bad), seed=0)


# -- protocol ----------------------------------------------------------------


def test_run_protocol_row_count_and_order():
    scen = generate_tinynic(SMALL, seed=8)
    net = build_tinynic_network(classes=4, seed=1)
    cfg = StrategyConfig(strategy="naive", epochs=1, mb=16)
    rows = run_protocol(net, cfg, scen, seed=0)
    assert len(rows) == len(scen.batches)
    assert [r.batch_index for r in rows] == list(range(1, len(scen.batches) + 1))
    for r in rows:
        assert 0.0 <= r.test_accuracy <= 1.0


def test_run_protocol_eval_every():
    scen = generate_tinynic(SMALL, seed=9)
    net = build_tinynic_network(classes=4, seed=2)
    cfg = StrategyConfig(strategy="naive", epochs=1, mb=16)
    rows = run_protocol(net, cfg, scen, seed=0, eval_every=3)
    assert rows[-1].batch_index == len(scen.batches)
    assert all(r.batch_index % 3 == 0 or r.batch_index == len(scen.batches)
               for r in rows)
    with pytest.raises(ConfigError, match="eval_every"):
        run_protocol(net, cfg, scen, seed=0, eval_every=0)


def test_run_protocol_rejects_scenario_of_other_input_shape():
    scen = generate_tinynic(ScenarioParams(classes=4, first_batch_classes=2,
                                           pattern_shape=(1, 8, 8)), seed=9)
    net = build_tinynic_network(classes=4, seed=2)
    with pytest.raises(ConfigError, match=r"takes \(1, 16, 16\) inputs"):
        run_protocol(net, StrategyConfig(strategy="naive"), scen, seed=0)


def test_one_batch_scenario_equals_direct_training():
    params = ScenarioParams(classes=3, instances_per_class=1,
                            frames_per_session=30, first_batch_classes=3,
                            first_batch_instances=1, test_frames_per_instance=5)
    scen = generate_tinynic(params, seed=10)
    assert len(scen.batches) == 1

    cfg = StrategyConfig(strategy="naive", epochs=2, mb=16)
    net_a = build_tinynic_network(classes=3, seed=3)
    rows = run_protocol(net_a, cfg, scen, seed=4)

    net_b = build_tinynic_network(classes=3, seed=3)
    trainer = ContinualTrainer(net_b, cfg, seed=4)
    trainer.train_batch(scen.batches[0].x, scen.batches[0].y)
    direct = trainer.accuracy(scen.test_x, scen.test_y)
    assert rows[0].test_accuracy == direct


def test_cumulative_on_one_batch_scenario_is_that_batch():
    params = ScenarioParams(classes=3, instances_per_class=1,
                            frames_per_session=24, first_batch_classes=3,
                            first_batch_instances=1, test_frames_per_instance=5)
    scen = generate_tinynic(params, seed=11)
    x, y = scen.union()
    assert np.array_equal(x, scen.batches[0].x)
    assert np.array_equal(y, scen.batches[0].y)
    net = build_tinynic_network(classes=3, seed=5)
    row = cumulative_baseline(net, scen, epochs=2, mb=16, seed=6)
    assert isinstance(row, MetricsRow)
    assert 0.0 <= row.test_accuracy <= 1.0


def test_accuracy_history_not_retroactively_mutated():
    scen = generate_tinynic(SMALL, seed=12)
    net = build_tinynic_network(classes=4, seed=7)
    cfg = StrategyConfig(strategy="naive", epochs=1, mb=16)
    rows_full = run_protocol(net, cfg, scen, seed=8)

    one = generate_tinynic(SMALL, seed=12)
    one.batches = one.batches[:1]
    net2 = build_tinynic_network(classes=4, seed=7)
    rows_one = run_protocol(net2, cfg, one, seed=8)
    assert rows_full[0].test_accuracy == rows_one[0].test_accuracy


# -- dataset io ----------------------------------------------------------------


def test_scenario_save_load_round_trip(tmp_path):
    scen = generate_tinynic(SMALL, seed=13)
    manifest = save_scenario(scen, tmp_path / "ds")
    back = load_dataset(manifest)
    assert len(back.batches) == len(scen.batches)
    for a, b in zip(scen.batches, back.batches):
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)
    assert np.array_equal(back.test_x, scen.test_x)
    assert np.array_equal(back.test_y, scen.test_y)


def test_manifest_counts(tmp_path):
    scen = generate_tinynic(SMALL, seed=14)
    manifest = save_scenario(scen, tmp_path / "ds")
    doc = json.loads(open(manifest).read())
    assert len(doc["batches"]) == SMALL.n_batches()
    assert doc["test"]["file"] == "test.lrt"


def test_missing_payload_file_errors(tmp_path):
    scen = generate_tinynic(SMALL, seed=15)
    manifest = save_scenario(scen, tmp_path / "ds")
    os.remove(tmp_path / "ds" / "batch_001.lrt")
    with pytest.raises(FileNotFoundError):
        load_dataset(manifest)


def test_corrupted_magic_is_format_error_not_crash(tmp_path):
    scen = generate_tinynic(SMALL, seed=16)
    manifest = save_scenario(scen, tmp_path / "ds")
    path = tmp_path / "ds" / "batch_001.lrt"
    raw = bytearray(path.read_bytes())
    raw[:4] = b"JUNK"
    path.write_bytes(bytes(raw))
    with pytest.raises(TensorFormatError):
        load_dataset(manifest)


def test_manifest_shape_mismatch_errors(tmp_path):
    scen = generate_tinynic(SMALL, seed=17)
    manifest = save_scenario(scen, tmp_path / "ds")
    doc = json.loads(open(manifest).read())
    doc["batches"][0]["labels"] = doc["batches"][0]["labels"][:-1]
    with open(manifest, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(TensorFormatError):
        load_dataset(manifest)


def test_manifest_without_test_labels_errors(tmp_path):
    scen = generate_tinynic(SMALL, seed=18)
    scen.test_x, scen.test_y = scen.test_x[:0], scen.test_y[:0]
    manifest = save_scenario(scen, tmp_path / "ds")
    with pytest.raises(TensorFormatError, match="test split has no labels"):
        load_dataset(manifest)


@pytest.mark.parametrize("key, value, message", BAD_MANIFEST_VALUES)
def test_manifest_value_of_wrong_type_errors(tmp_path, key, value, message):
    manifest = save_scenario(generate_tinynic(SMALL, seed=19), tmp_path / "ds")
    doc = tamper_manifest(json.loads(open(manifest).read()), key, value)
    with open(manifest, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(TensorFormatError) as info:
        load_dataset(manifest)
    assert str(info.value) == f"{manifest}: {message}"


def test_manifest_not_an_object_errors(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text("[]")
    with pytest.raises(TensorFormatError, match="the manifest must be an object"):
        load_dataset(str(manifest))


def test_manifest_labels_not_a_list_errors(tmp_path):
    manifest = save_scenario(generate_tinynic(SMALL, seed=20), tmp_path / "ds")
    doc = json.loads(open(manifest).read())
    doc["test"]["labels"] = 5
    with open(manifest, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(TensorFormatError, match="test.lrt: labels must be a list, got 5"):
        load_dataset(manifest)


def test_metrics_csv_format(tmp_path):
    rows = [MetricsRow(1, 0.5, 12.345, 100),
            MetricsRow(2, 0.75, 13.0, 200)]
    path = tmp_path / "m.csv"
    write_metrics_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "batch,accuracy,train_ms,rm_items"
    assert lines[1] == "1,0.500000,12.345,100"
    assert lines[2] == "2,0.750000,13.000,200"
