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
    assert (tmp_path / "ACC.json").read_text() == (ROOT / "ACC_28.json").read_text()


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
