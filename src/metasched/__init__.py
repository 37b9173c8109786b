"""Project scheduling optimization toolkit: critical path analysis,
resource-constrained scheduling, discrete time-cost trade-offs, and three
interchangeable metaheuristics with a reproducible benchmark harness.

The top level carries the names of the README quick start; everything else
is imported from its module."""

from .cpm import compute_cpm
from .instances import load_network
from .problems import rcpsp_problem
from .search import GaConfig, run_ga

__version__ = "0.1.0"
