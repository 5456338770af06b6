"""Dual-band RIS satellite QKD link simulator and QUBO phase optimizer."""

__version__ = "0.1.0"

from .channels import ComplexGain, OpticalParams, RfParams
from .geometry import GeometryParams, LinkGeometry, link_geometry
from .metrics import Calibration, CostWeights, Metrics
from .ris import ChannelState, PhaseConfig, RisConfig
from .qubo import ExactObjective, QuboModel, build_qubo, eval_quadratic
from .solvers import SolverConfig, SolverResult
from .experiments import (
    CalibrationAnchors,
    RunConfig,
    SweepRow,
    SweepSpec,
    calibrate,
    phase_histogram,
    sweep_elevation,
)

__all__ = [
    "Calibration",
    "CalibrationAnchors",
    "ChannelState",
    "ComplexGain",
    "CostWeights",
    "ExactObjective",
    "GeometryParams",
    "LinkGeometry",
    "Metrics",
    "OpticalParams",
    "PhaseConfig",
    "QuboModel",
    "RfParams",
    "RisConfig",
    "RunConfig",
    "SolverConfig",
    "SolverResult",
    "SweepRow",
    "SweepSpec",
    "build_qubo",
    "calibrate",
    "eval_quadratic",
    "link_geometry",
    "phase_histogram",
    "sweep_elevation",
]
