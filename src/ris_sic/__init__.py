"""Simulator and optimizer suite for switch-controlled reflective
self-interference cancellation in full-duplex radios.

The package splits into a frozen frequency-domain channel (:mod:`.channel`),
an evaluation backend abstraction (:mod:`.backend`), stochastic and exact
search algorithms (:mod:`.search`), multi-run experiment drivers
(:mod:`.experiment`), and file formats (:mod:`.sceneio`).
"""

from __future__ import annotations

__version__ = "0.1.0"

from .backend import EvaluationBackend, SimulatedBackend
from .budget import fspl_db, leaked_power_dbm, received_power_dbm, residual_si_dbm
from .channel import (
    Scene,
    SceneParams,
    build_scene,
    default_scene_params,
)
from .experiment import (
    CampaignResult,
    CampaignSpec,
    bandwidth_sweep,
    run_campaign,
    transfer_snapshot,
)
from .model import FrequencyGrid, LinkBudget, RisConfig, SiReading
from .search import (
    ConvergenceTrace,
    EvaluationError,
    GreedyOptimizer,
    exhaustive_search,
    greedy_optimize,
    random_search,
    sample_config,
    weighted_activation_ratio,
)
from .units import db_to_linear, linear_to_db

__all__ = [
    "__version__",
    "EvaluationBackend",
    "SimulatedBackend",
    "fspl_db",
    "leaked_power_dbm",
    "received_power_dbm",
    "residual_si_dbm",
    "Scene",
    "SceneParams",
    "build_scene",
    "default_scene_params",
    "CampaignResult",
    "CampaignSpec",
    "bandwidth_sweep",
    "run_campaign",
    "transfer_snapshot",
    "FrequencyGrid",
    "LinkBudget",
    "RisConfig",
    "SiReading",
    "ConvergenceTrace",
    "EvaluationError",
    "GreedyOptimizer",
    "exhaustive_search",
    "greedy_optimize",
    "random_search",
    "sample_config",
    "weighted_activation_ratio",
    "db_to_linear",
    "linear_to_db",
]
