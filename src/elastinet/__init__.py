"""Item-level price elasticity from monthly transactions.

A monotonicity-constrained demand network is trained on lead/lag month
pairs and queried with counterfactual prices; the weight-sign construction
guarantees non-positive elasticities.
"""

from .data import PairTable, Transactions, build_inference_set, build_pairs, ingest, split
from .elasticity import arc_elasticity, evaluate_elasticities, loglog_baseline, mae_elasticity, wmape
from .model import ArchConfig, DemandModel, load_model, save_model
from .scenario import run_scenario
from .synth import SyntheticWorld, generate
from .training import TrainConfig, TrainReport, fit_stats, prepare_model, train

__version__ = "0.1.0"

__all__ = [
    "ArchConfig",
    "DemandModel",
    "PairTable",
    "SyntheticWorld",
    "TrainConfig",
    "TrainReport",
    "Transactions",
    "arc_elasticity",
    "build_inference_set",
    "build_pairs",
    "evaluate_elasticities",
    "fit_stats",
    "generate",
    "ingest",
    "load_model",
    "loglog_baseline",
    "mae_elasticity",
    "prepare_model",
    "run_scenario",
    "save_model",
    "split",
    "train",
    "wmape",
]
