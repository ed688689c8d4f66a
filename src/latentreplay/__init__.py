"""Continual learning with bounded rehearsal memories and latent replay.

The package provides deterministic numpy kernels and layers, a sequential
network with a latent tap point, the random-replacement rehearsal memory,
the CWR*/AR1*/AR1*free/DSLDA strategy family, a synthetic non-i.i.d.
scenario generator (TinyNIC), and an analytic computation/storage
accounting model for choosing the replay layer. The strategies are fixed
recipes: a run picks a strategy name, a replay memory, learning rates and
the tap sparsifier's weight, and SI and DSLDA keep their own constants.
"""

from .accounting import (LayerCostTable, bundled_cost_table, computation_pct,
                         memory_footprint, pattern_size, tradeoff_table)
from .errors import ConfigError, ShapeError, StateError, TensorFormatError
from .kernels import conv2d, global_avg_pool, matmul, softmax_xent
from .network import Network
from .presets import build_tinynic_network, tinynic_network_spec
from .replay import (ReplayMemory, compose_minibatch, l1_activation_penalty,
                     sparsity_stats)
from .rng import SeededRng
from .scenario import (MetricsRow, NicScenario, ScenarioParams,
                       cumulative_baseline, generate_tinynic, load_dataset,
                       run_protocol, save_scenario, write_metrics_csv)
from .strategies import (BatchReport, ContinualTrainer, CwrHead, DsldaState,
                         SiState, StrategyConfig)
from .tensorio import load_tensor, save_tensor

__version__ = "0.1.0"

__all__ = [
    "BatchReport", "ConfigError", "ContinualTrainer", "CwrHead", "DsldaState",
    "LayerCostTable", "MetricsRow", "Network", "NicScenario", "ReplayMemory",
    "ScenarioParams", "SeededRng", "ShapeError", "SiState", "StateError",
    "StrategyConfig", "TensorFormatError", "build_tinynic_network",
    "bundled_cost_table", "compose_minibatch", "computation_pct", "conv2d",
    "cumulative_baseline", "generate_tinynic", "global_avg_pool",
    "l1_activation_penalty", "load_dataset", "load_tensor", "matmul",
    "memory_footprint", "pattern_size", "run_protocol", "save_scenario",
    "save_tensor", "softmax_xent", "sparsity_stats", "tinynic_network_spec",
    "tradeoff_table", "write_metrics_csv",
]
