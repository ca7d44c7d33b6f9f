"""Deterministic round-based simulator for clustered wireless sensor networks
with type-1 and interval type-2 fuzzy cluster-head election.

The package root exports the run API; everything else is imported from its
module (``fuzzcluster.fis2``, ``fuzzcluster.network``, ...)."""

from .simulator import RoundMetrics, SimConfig, SimResult, run_simulation

__all__ = ["RoundMetrics", "SimConfig", "SimResult", "run_simulation", "__version__"]

__version__ = "0.1.0"
