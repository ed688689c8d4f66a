"""Command-line front end.

Subcommands:
  run       execute a continual-learning experiment from a JSON config
  scenario  materialize a TinyNIC scenario as manifest + tensor files
  tradeoff  print the computation/storage trade-off table for a cost CSV

stdout carries data, stderr carries diagnostics. Exit codes: 0 success,
1 config error, 2 runtime error. Jobs run on one thread per CPU. A block's
"tap" picks its network's tap.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import json
import os
import sys

import numpy as np

from . import accounting
from .errors import (ConfigError, ShapeError, StateError, TensorFormatError, require_bool,
                     require_finite, require_int, require_str)
from .network import Network
from .presets import build_tinynic_network
from .scenario import (MetricsRow, NicScenario, ScenarioParams, cumulative_baseline,
                       generate_tinynic, load_dataset, run_protocol, save_scenario,
                       write_metrics_csv)
from .strategies import StrategyConfig

_RUN_KEYS = {"scenario", "network", "strategies", "seeds", "include_cumulative",
             "cumulative_epochs", "cumulative_lr", "eval_every", "record_timing",
             "output_dir"}
_SCENARIO_KEYS = {"generator", "manifest"}
_NETWORK_KEYS = {"builtin", "width", "spec_path"}
_STRATEGY_EXTRA = {"name", "tap"}


def _check_keys(block: dict, allowed: set, where: str) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a JSON object, got {block!r}")
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")


def _scenario_params_from(block: dict) -> tuple[ScenarioParams, int]:
    fields = {f.name for f in dataclasses.fields(ScenarioParams)}
    _check_keys(block, fields | {"seed"}, "scenario.generator")
    seed = block.get("seed", 0)
    require_int("seed", seed, 0)
    kwargs = {k: v for k, v in block.items() if k in fields}
    params = ScenarioParams(**kwargs)
    params.validate()
    return params, seed


def _strategy_from(block: dict) -> tuple[str, str | None, StrategyConfig]:
    fields = {f.name for f in dataclasses.fields(StrategyConfig)}
    _check_keys(block, fields | _STRATEGY_EXTRA, "strategy block")
    name = require_str("name", block.get("name", "")) or block.get("strategy", "naive")
    tap = require_str("tap", block["tap"]) if "tap" in block else None
    kwargs = {k: v for k, v in block.items() if k in fields}
    return str(name), tap, StrategyConfig(**kwargs)


def _slug(name: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "-_" else "_" for ch in name)


class ExperimentConfig:
    """Validated experiment description (unknown keys rejected)."""

    def __init__(self, doc: dict, base_dir: str = "."):
        _check_keys(doc, _RUN_KEYS, "config")
        if "scenario" not in doc or "strategies" not in doc:
            raise ConfigError("config needs 'scenario' and 'strategies'")
        self.base_dir = base_dir

        block = doc["scenario"]
        _check_keys(block, _SCENARIO_KEYS, "scenario")
        self.scenario_manifest = None
        self.scenario_params = self.scenario_seed = None
        if "manifest" in block:
            self.scenario_manifest = os.path.join(
                base_dir, require_str("scenario.manifest", block["manifest"]))
        elif "generator" in block:
            self.scenario_params, self.scenario_seed = _scenario_params_from(
                block["generator"])
        else:
            raise ConfigError("scenario needs 'generator' or 'manifest'")

        net_block = doc.get("network", {"builtin": "tinynic"})
        _check_keys(net_block, _NETWORK_KEYS, "network")
        ignored = sorted(set(net_block) - {"spec_path"}) if "spec_path" in net_block else []
        if ignored:
            raise ConfigError(f"network keys {ignored} do not apply to a spec_path network")
        self.network_block = net_block

        if not isinstance(doc["strategies"], list):
            raise ConfigError(f"strategies must be a list, got {doc['strategies']!r}")
        self.strategies = [_strategy_from(b) for b in doc["strategies"]]
        # a block's metrics file is named after its slug, so two names
        # with one slug would write one file
        seen: dict[str, str] = {}
        for name, _, _ in self.strategies:
            slug = _slug(name)
            if slug in seen:
                raise ConfigError(f"strategy names {seen[slug]!r} and {name!r} would share "
                                  f"the metrics file metrics_{slug}_s<seed>.csv")
            seen[slug] = name
        self.seeds = doc.get("seeds", [0])
        if not isinstance(self.seeds, list) or not self.seeds:
            raise ConfigError("seeds must be a non-empty list")
        for seed in self.seeds:
            require_int("seeds[]", seed, 0)
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be unique")
        self.include_cumulative = doc.get("include_cumulative", False)
        self.cumulative_epochs = doc.get("cumulative_epochs", 8)
        self.cumulative_lr = doc.get("cumulative_lr", 0.001)
        self.eval_every = doc.get("eval_every", 1)
        require_int("cumulative_epochs", self.cumulative_epochs, 1)
        require_finite("cumulative_lr", self.cumulative_lr)
        require_int("eval_every", self.eval_every, 1)
        self.record_timing = doc.get("record_timing", True)
        for name in ("include_cumulative", "record_timing"):
            require_bool(name, getattr(self, name))
        self.output_dir = doc.get("output_dir")
        if self.output_dir is not None:
            require_str("output_dir", self.output_dir)

    def load_scenario(self) -> NicScenario:
        if self.scenario_manifest is not None:
            return load_dataset(self.scenario_manifest)
        return generate_tinynic(self.scenario_params, self.scenario_seed)

    def build_network(self, classes: int, seed: int, tap: str | None = None) -> Network:
        """The configured network, tapped at ``tap``, else at its spec's or
        builtin's own."""
        block = self.network_block
        if "spec_path" in block:
            path = os.path.join(self.base_dir,
                                require_str("network.spec_path", block["spec_path"]))
            with open(path) as fh:
                doc = json.load(fh)
            try:
                return Network.from_spec(doc if tap is None else dict(doc, tap=tap),
                                         seed=seed)
            except KeyError as exc:
                raise ConfigError(f"{path}: missing key {exc.args[0]!r}") from None
        if block.get("builtin", "tinynic") != "tinynic":
            raise ConfigError(f"unknown builtin network {block.get('builtin')!r}")
        return build_tinynic_network(
            classes=classes, tap="relu3" if tap is None else tap, seed=seed,
            width=block.get("width", 8))


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


# -- subcommands --------------------------------------------------------------


def _prepare(cfg: ExperimentConfig, scenario: NicScenario, tap: str | None,
             strat: StrategyConfig, seed: int) -> Network:
    """Build a block's network, tapped at ``tap``, and check the block against it."""
    if tap is None and (strat.preset.head_only or strat.preset.head == "dslda"):
        tap = "pool"  # the head reads the pooled features
    net = cfg.build_network(scenario.classes, seed, tap=tap)
    strat.validate(net)
    return net


def cmd_run(args) -> int:
    doc = _load_json(args.config)
    cfg = ExperimentConfig(doc, base_dir=os.path.dirname(os.path.abspath(args.config)))
    if args.seed is not None:
        require_int("--seed", args.seed, 0)
    seeds = [args.seed] if args.seed is not None else cfg.seeds
    out_dir = args.out or cfg.output_dir
    if not out_dir:
        raise ConfigError("no output directory (set output_dir or pass --out)")

    scenario = cfg.load_scenario()
    # every block is checked before the first one trains or anything is written
    jobs = {(name, seed): (_prepare(cfg, scenario, tap, strat, seed), strat)
            for name, tap, strat in cfg.strategies for seed in seeds}
    os.makedirs(out_dir, exist_ok=True)
    workers = max(1, min(len(jobs), os.cpu_count() or 1))
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        futs = {pool.submit(run_protocol, net, strat, scenario, seed=key[1],
                            eval_every=cfg.eval_every, record_timing=cfg.record_timing): key
                for key, (net, strat) in jobs.items()}
        for fut in concurrent.futures.as_completed(futs):
            if fut.exception() is not None:  # the first failure ends the run
                pool.shutdown(cancel_futures=True)
                raise fut.exception()
        results = {key: fut.result() for fut, key in futs.items()}

    cumulative: dict[int, MetricsRow] = {}
    if cfg.include_cumulative:
        for seed in seeds:
            net = cfg.build_network(scenario.classes, seed)
            cumulative[seed] = cumulative_baseline(
                net, scenario, epochs=cfg.cumulative_epochs, lr=cfg.cumulative_lr, seed=seed)

    single = len(cfg.strategies) == 1 and len(seeds) == 1
    summary: dict = {"strategies": {}, "seeds": seeds}
    for name, _, _ in cfg.strategies:
        per_seed = {}
        for seed in seeds:
            rows = results[(name, seed)]
            fname = "metrics.csv" if single else f"metrics_{_slug(name)}_s{seed}.csv"
            write_metrics_csv(rows, os.path.join(out_dir, fname))
            per_seed[str(seed)] = {
                "final_accuracy": rows[-1].test_accuracy,
                "mean_accuracy": float(np.mean([r.test_accuracy for r in rows])),
                "metrics_file": fname,
            }
        finals = [per_seed[str(s)]["final_accuracy"] for s in seeds]
        summary["strategies"][name] = {
            "per_seed": per_seed,
            "final_accuracy_mean": float(np.mean(finals)),
        }
    if cumulative:
        cum_finals = [cumulative[s].test_accuracy for s in seeds]
        summary["cumulative"] = {
            "per_seed": {str(s): {"final_accuracy": cumulative[s].test_accuracy}
                         for s in seeds},
            "final_accuracy_mean": float(np.mean(cum_finals)),
        }
        for name, _, _ in cfg.strategies:
            entry = summary["strategies"][name]
            entry["gap_vs_cumulative"] = (summary["cumulative"]["final_accuracy_mean"]
                                          - entry["final_accuracy_mean"])
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    print(os.path.join(out_dir, "summary.json"))
    return 0


def cmd_scenario(args) -> int:
    block = _load_json(args.config) if args.config else {}
    params, seed = _scenario_params_from(block)
    if args.seed is not None:
        require_int("--seed", args.seed, 0)
        seed = args.seed
    scenario = generate_tinynic(params, seed)
    path = save_scenario(scenario, args.out)
    print(path)
    return 0


def cmd_tradeoff(args) -> int:
    if args.fixture:
        table = accounting.LayerCostTable.from_csv(args.fixture)
        candidates = table.names()
    else:
        table = accounting.bundled_cost_table()
        candidates = list(accounting.BUNDLED_REPLAY_CANDIDATES)
    if args.candidates is not None:
        candidates = [c for c in args.candidates.split(",") if c]
    rows = accounting.tradeoff_table(table, candidates, args.rm_size,
                                     args.bytes_per_elem)
    sys.stdout.write(accounting.tradeoff_csv(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="latentreplay", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="run an experiment config")
    pr.add_argument("--config", required=True)
    pr.add_argument("--seed", type=int, default=None, help="override the seeds list")
    pr.add_argument("--out", default=None)
    pr.set_defaults(func=cmd_run)

    ps = sub.add_parser("scenario", help="materialize a TinyNIC scenario")
    ps.add_argument("--config", default=None, help="generator params JSON")
    ps.add_argument("--seed", type=int, default=None)
    ps.add_argument("--out", required=True)
    ps.set_defaults(func=cmd_scenario)

    pt = sub.add_parser("tradeoff", help="emit the replay-layer trade-off CSV")
    pt.add_argument("--fixture", default=None, help="cost table CSV (default: bundled)")
    pt.add_argument("--rm-size", type=int, default=1500)
    pt.add_argument("--bytes-per-elem", type=int, default=1)
    pt.add_argument("--candidates", default=None,
                    help="comma-separated layer names ('' for header only)")
    pt.set_defaults(func=cmd_tradeoff)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, TensorFormatError, FileNotFoundError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ShapeError, StateError, ValueError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
