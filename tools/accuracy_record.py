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
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

WHAT = ("Final test accuracy over net seeds 1-10 for every block of "
        "tools/accuracy_blocks.json, parent and change, with each side's "
        "summary.json as written.")
COMMAND = ("PYTHONPATH=src python3 -m latentreplay run "
           "--config tools/accuracy_blocks.json --out <dir>")


def _side(entry: dict) -> tuple[float, float, float]:
    """(mean, min, max) final accuracy of one block of one summary."""
    finals = [seed["final_accuracy"] for seed in entry["per_seed"].values()]
    return entry["final_accuracy_mean"], min(finals), max(finals)


def blocks(parent_summary: dict, change_summary: dict) -> dict:
    """Per-block comparison of two ``summary.json`` documents."""
    def entries(summary):
        out = dict(summary["strategies"])
        if "cumulative" in summary:
            out["cumulative"] = summary["cumulative"]
        return out

    parent, change = entries(parent_summary), entries(change_summary)
    if list(parent) != list(change):
        raise ValueError(f"the two runs hold different blocks: {list(parent)} "
                         f"against {list(change)}")
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
    return {
        "label": label,
        "what": WHAT,
        "command": COMMAND,
        "parent": parent,
        "change": "the commit that adds this file",
        "notes": list(notes),
        "blocks": blocks(parent_summary, change_summary),
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
