import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("accuracy_record",
                                               ROOT / "tools" / "accuracy_record.py")
accuracy_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(accuracy_record)

ACC_28 = json.loads((ROOT / "ACC_28.json").read_text())
ACC_30 = json.loads((ROOT / "ACC_30.json").read_text())
PAIRED_KEYS = ["diffs", "diff_mean", "diff_min", "diff_max", "up", "down", "tie",
               "sign_p", "null_sd"]


def test_rebuilds_the_first_records_blocks_from_its_summaries():
    blocks = accuracy_record.blocks(ACC_28["parent_summary"], ACC_28["change_summary"])
    assert blocks == ACC_28["blocks"]
    assert list(blocks) == list(ACC_28["blocks"])  # strategies, then cumulative


def test_writes_the_first_record_byte_for_byte(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "summary.json").write_text(json.dumps(ACC_28[f"{side}_summary"]))
    args = ["--label", "28", "--parent", ACC_28["parent"], "--parent-dir",
            str(tmp_path / "parent"), "--change-dir", str(tmp_path / "change"),
            "--out", str(tmp_path / "ACC.json")]
    for note in ACC_28["notes"]:
        args += ["--note", note]
    assert accuracy_record.main(args) == 0
    doc = json.loads((tmp_path / "ACC.json").read_text())
    # the paired fields follow the first record's, which keep their values and order
    for name, block in doc["blocks"].items():
        old = list(ACC_28["blocks"][name])
        assert list(block) == old + PAIRED_KEYS
        doc["blocks"][name] = {k: block[k] for k in old}
    assert json.dumps(doc, indent=1) == (ROOT / "ACC_28.json").read_text()


def test_a_change_mean_outside_the_parents_range_is_flagged():
    change = copy.deepcopy(ACC_28["change_summary"])
    naive = change["strategies"]["naive"]
    naive["final_accuracy_mean"] = ACC_28["blocks"]["naive"]["parent_max"] + 0.01
    blocks = accuracy_record.blocks(ACC_28["parent_summary"], change)
    assert blocks["naive"]["change_mean_within_parent_range"] is False
    assert blocks["dslda"]["change_mean_within_parent_range"] is True


def test_runs_of_different_blocks_are_refused():
    change = copy.deepcopy(ACC_28["change_summary"])
    del change["strategies"]["naive"]
    with pytest.raises(ValueError, match="different blocks"):
        accuracy_record.blocks(ACC_28["parent_summary"], change)


def test_paired_differences_and_sign_test_against_the_measured_null():
    blocks = accuracy_record.record(30, ACC_30["parent"], ACC_30["parent_summary"],
                                    ACC_30["change_summary"])["blocks"]
    rm100 = blocks["ar1free-latent-relu3-rm100"]
    assert rm100["diff_mean"] == pytest.approx(-0.0115, abs=5e-5)
    assert (rm100["up"], rm100["down"], rm100["tie"]) == (3, 6, 1)
    assert rm100["sign_p"] == pytest.approx(0.508, abs=5e-4)
    assert rm100["null_sd"] == pytest.approx(0.0210, abs=5e-5)
    assert rm100["diff_min"] == min(rm100["diffs"].values()) == pytest.approx(-0.065)
    assert rm100["diff_max"] == max(rm100["diffs"].values()) == pytest.approx(0.00625)
    for name in ("naive", "cwr", "dslda", "ar1free-latent-relu3-rm0", "cumulative"):
        assert (blocks[name]["up"], blocks[name]["down"]) == (0, 0), name
        assert blocks[name]["sign_p"] == 1.0 and blocks[name]["null_sd"] == 0.0, name


@pytest.mark.parametrize("up, down, p", [(0, 0, 1.0), (9, 0, 2 / 512), (3, 6, 260 / 512),
                                         (5, 5, 1.0)])
def test_sign_test_p_is_the_exact_binomial_tail(up, down, p):
    assert accuracy_record.sign_test_p(up, down) == pytest.approx(p, rel=1e-12)
