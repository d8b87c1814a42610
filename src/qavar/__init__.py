"""Quantum Allan variance: instability floors for atomic clocks under
correlated local-oscillator noise, with probe-state optimization and a
stochastic Ramsey-servo simulator to check the bounds from above.
"""

__version__ = "0.1.0"

from .clock import (
    EnsembleAvar,
    FrequencyTrace,
    ServoConfig,
    SimConfig,
    avar_series,
    ensemble_avar,
    simulate_clock,
)
from .core import (
    BoundWorkspace,
    JointProbe,
    ProductProbe,
    QavarResult,
    Scenario,
    qavar,
)
from .hilbert import (
    SymmetricState,
    coherent_step_state,
    ghz_step_state,
    multi_index_table,
    plus_step_state,
    product_pure,
)
from .noise import (
    KernelSet,
    NoiseParams,
    block_kernel,
    free_lo_avar,
    kernel_set,
    lo_phases,
)
from .optimize import (
    InterrogationScan,
    KEvaluation,
    OptimizeReport,
    PlateauFit,
    bound_curve,
    cost_operator,
    extrapolate_long_term,
    optimize_joint_state,
    optimize_product_state,
)

__all__ = [
    "__version__",
    # noise
    "NoiseParams", "KernelSet", "block_kernel", "free_lo_avar", "kernel_set",
    "lo_phases",
    # hilbert
    "SymmetricState", "multi_index_table", "product_pure", "plus_step_state",
    "coherent_step_state", "ghz_step_state",
    # core
    "ProductProbe", "JointProbe", "Scenario", "QavarResult", "BoundWorkspace",
    "qavar",
    # optimize
    "OptimizeReport", "KEvaluation", "InterrogationScan",
    "PlateauFit", "cost_operator", "optimize_joint_state",
    "optimize_product_state", "bound_curve", "extrapolate_long_term",
    # clock
    "ServoConfig", "SimConfig", "FrequencyTrace", "EnsembleAvar",
    "simulate_clock", "avar_series", "ensemble_avar",
]
