"""Write an accuracy record, ``ACC_<label>.json``, from two run outputs.

Each side of a change runs the accuracy blocks from its own checkout:

    PYTHONPATH=src python3 -m latentreplay run \\
        --config tools/accuracy_blocks.json --out <dir>

Then, from the root of the change's checkout:

    python3 tools/accuracy_record.py --label <label> --parent <commit> \\
        --parent-dir <dir> --change-dir <dir> [--note <text> ...]

The record keeps both ``summary.json`` files as written and, per block
(every strategy block, then ``cumulative``) and per side, the mean final
accuracy rounded to 4 decimals and the raw per-seed minimum and maximum,
plus whether the change's mean lies within the parent's per-seed range.
Then, per block, the paired per-seed differences (change - parent) with
their mean, min, max and up/down/tie counts, an exact two-sided sign-test
p over the seeds that moved, and ``null_sd``: the sd of the block's paired
differences in ``ACC_30.json``. That change moved the trainer's RNG stream
and nothing else, so its differences measure the spread a change that only
reshuffles the draws gives; a memory-free block, whose bits it kept, reads
0 there.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

WHAT = ("Final test accuracy over net seeds 1-10 for every block of "
        "tools/accuracy_blocks.json, parent and change, with each side's "
        "summary.json as written.")
COMMAND = ("PYTHONPATH=src python3 -m latentreplay run "
           "--config tools/accuracy_blocks.json --out <dir>")
NULL_RECORD = Path(__file__).resolve().parent.parent / "ACC_30.json"


def _side(entry: dict) -> tuple[float, float, float]:
    """(mean, min, max) final accuracy of one block of one summary."""
    finals = [seed["final_accuracy"] for seed in entry["per_seed"].values()]
    return entry["final_accuracy_mean"], min(finals), max(finals)


def _entries(parent_summary: dict, change_summary: dict) -> tuple[dict, dict]:
    """Each summary's blocks by name (strategies, then ``cumulative``)."""
    def entries(summary):
        out = dict(summary["strategies"])
        if "cumulative" in summary:
            out["cumulative"] = summary["cumulative"]
        return out

    parent, change = entries(parent_summary), entries(change_summary)
    if list(parent) != list(change):
        raise ValueError(f"the two runs hold different blocks: {list(parent)} "
                         f"against {list(change)}")
    return parent, change


def _diffs(parent: dict, change: dict) -> dict:
    """Seed -> change - parent final accuracy of one block."""
    if list(parent["per_seed"]) != list(change["per_seed"]):
        raise ValueError("the two runs hold different seeds")
    return {seed: change["per_seed"][seed]["final_accuracy"] - row["final_accuracy"]
            for seed, row in parent["per_seed"].items()}


def sign_test_p(up: int, down: int) -> float:
    """Exact two-sided sign-test p of ``up`` rises against ``down`` falls."""
    n = up + down
    tail = sum(math.comb(n, i) for i in range(min(up, down) + 1))
    return min(1.0, 2 * tail / 2 ** n)


def null_sds(null_record: dict) -> dict:
    """Block -> sample sd of its paired per-seed differences in a record."""
    parent, change = _entries(null_record["parent_summary"], null_record["change_summary"])
    return {name: statistics.stdev(_diffs(parent[name], change[name]).values())
            for name in parent}


def paired(parent_summary: dict, change_summary: dict, null_sd: dict) -> dict:
    """Per-block paired per-seed differences, their summary and sign test;
    ``null_sd`` is None for a block the null record does not hold."""
    parent, change = _entries(parent_summary, change_summary)
    out = {}
    for name in parent:
        d = _diffs(parent[name], change[name])
        up, down = sum(v > 0 for v in d.values()), sum(v < 0 for v in d.values())
        sd = null_sd.get(name)
        out[name] = {
            "diffs": {seed: round(v, 6) for seed, v in d.items()},
            "diff_mean": round(statistics.fmean(d.values()), 6),
            "diff_min": round(min(d.values()), 6), "diff_max": round(max(d.values()), 6),
            "up": up, "down": down, "tie": len(d) - up - down,
            "sign_p": round(sign_test_p(up, down), 4),
            "null_sd": None if sd is None else round(sd, 6),
        }
    return out


def blocks(parent_summary: dict, change_summary: dict) -> dict:
    """Per-block comparison of two ``summary.json`` documents."""
    parent, change = _entries(parent_summary, change_summary)
    out = {}
    for name in parent:
        p_mean, p_min, p_max = _side(parent[name])
        c_mean, c_min, c_max = _side(change[name])
        out[name] = {
            "parent_mean": round(p_mean, 4), "parent_min": p_min, "parent_max": p_max,
            "change_mean": round(c_mean, 4), "change_min": c_min, "change_max": c_max,
            "change_mean_within_parent_range": p_min <= c_mean <= p_max,
        }
    return out


def record(label, parent: str, parent_summary: dict, change_summary: dict,
           notes=()) -> dict:
    null_sd = null_sds(json.loads(NULL_RECORD.read_text()))
    pairs = paired(parent_summary, change_summary, null_sd)
    return {
        "label": label,
        "what": WHAT,
        "command": COMMAND,
        "parent": parent,
        "change": "the commit that adds this file",
        "notes": list(notes),
        "blocks": {name: {**old, **pairs[name]}
                   for name, old in blocks(parent_summary, change_summary).items()},
        "parent_summary": parent_summary,
        "change_summary": change_summary,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="the record's label, as in ACC_<label>")
    ap.add_argument("--parent", required=True, help="the parent commit")
    ap.add_argument("--parent-dir", required=True, help="the parent's output directory")
    ap.add_argument("--change-dir", required=True, help="the change's output directory")
    ap.add_argument("--note", action="append", default=[], help="a note line (repeatable)")
    ap.add_argument("--out", default=None, help="default: ACC_<label>.json")
    args = ap.parse_args(argv)
    label = int(args.label) if args.label.isdigit() else args.label
    summaries = [json.loads((Path(d) / "summary.json").read_text())
                 for d in (args.parent_dir, args.change_dir)]
    doc = record(label, args.parent, *summaries, notes=args.note)
    out = Path(args.out or f"ACC_{args.label}.json")
    out.write_text(json.dumps(doc, indent=1))
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
