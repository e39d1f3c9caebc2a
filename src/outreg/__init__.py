"""Output-regulation toolkit with a Duffing-oscillator benchmark.

Builds internal-model filters from companion/Sylvester structure, recovers
the exosystem coefficients algebraically from Hankel matrices of the filter
state, and closes the loop with robust or adaptive laws in a deterministic
fixed-step simulator (compiled kernel with a bit-identical pure-python
fallback).
"""

__version__ = "0.1.0"

from .backend import BACKEND
from .scenario import (
    ScenarioConfig,
    ScenarioError,
    load_scenario,
    with_overrides,
)
from .simulate import (
    DivergenceError,
    SimLog,
    metrics,
    run,
)

__all__ = [
    "BACKEND",
    "ScenarioConfig",
    "ScenarioError",
    "load_scenario",
    "with_overrides",
    "DivergenceError",
    "SimLog",
    "metrics",
    "run",
    "__version__",
]
