"""Finite-horizon risk-sensitive zero-sum games on piecewise deterministic
Markov processes.

Solves the multiplicative-scale optimality (Shapley) equation backward in
time, certifies the solution by Monte Carlo (Feynman-Kac), best-response
exploitability, contraction fixed points and truncation ladders.
"""

__version__ = "0.1.0"

from .model import (
    FiniteStates,
    GameModel,
    GridFlowStates,
    LyapunovData,
    ModelFormatError,
    ModelValidationError,
    load_model,
)
from .matrix_game import GameSolution, MatrixGame, solve
from .shapley import (
    SolverConfig,
    StrategyField,
    TimeGrid,
    ValueField,
    backward_solve,
    best_response_solve,
    picard_solve,
    policy_evaluate,
    terminal_field,
    to_risk_value,
)
from .simulate import MCEstimate, SimConfig, Trajectory, estimate_J, simulate_path

__all__ = [
    "FiniteStates",
    "GameModel",
    "GameSolution",
    "GridFlowStates",
    "LyapunovData",
    "MatrixGame",
    "MCEstimate",
    "ModelFormatError",
    "ModelValidationError",
    "SimConfig",
    "SolverConfig",
    "StrategyField",
    "TimeGrid",
    "Trajectory",
    "ValueField",
    "backward_solve",
    "best_response_solve",
    "estimate_J",
    "load_model",
    "picard_solve",
    "policy_evaluate",
    "simulate_path",
    "solve",
    "terminal_field",
    "to_risk_value",
]
