"""Quantum Allan variance: instability floors for atomic clocks under
correlated local-oscillator noise, with probe-state optimization and a
stochastic Ramsey-servo simulator to check the bounds from above.
"""

__version__ = "0.1.0"

from .clock import (
    AvarEstimate,
    BoundCheckReport,
    BoundCheckRow,
    FrequencyTrace,
    ServoConfig,
    SimConfig,
    avar_estimate,
    avar_series,
    bound_check,
    simulate_clock,
)
from .core import (
    BoundWorkspace,
    JointProbe,
    McOracleResult,
    ProductProbe,
    QavarResult,
    Scenario,
    dephasing_weights,
    mc_oracle,
    qavar,
)
from .hilbert import (
    SymmetricState,
    coherent_step_state,
    from_linear,
    ghz_step_state,
    multi_index_table,
    partial_trace,
    plus_step_state,
    product_pure,
    to_linear,
)
from .noise import (
    KernelSet,
    NoiseParams,
    autocorrelation,
    block_kernel,
    cross_kernel,
    free_lo_avar,
    gen_trace,
    kernel_set,
    sample_joint,
)
from .optimize import (
    DimensionCapError,
    InterrogationScan,
    KEvaluation,
    OptimizeReport,
    PlateauFit,
    bound_curve,
    cost_operator,
    extrapolate_long_term,
    optimize_interrogation,
    optimize_joint_state,
    optimize_product_state,
)

__all__ = [
    "__version__",
    # noise
    "NoiseParams", "KernelSet", "autocorrelation", "block_kernel",
    "cross_kernel", "free_lo_avar", "kernel_set", "sample_joint", "gen_trace",
    # hilbert
    "SymmetricState", "multi_index_table", "to_linear", "from_linear",
    "product_pure", "plus_step_state", "coherent_step_state",
    "ghz_step_state", "partial_trace",
    # core
    "ProductProbe", "JointProbe", "Scenario", "QavarResult", "McOracleResult",
    "BoundWorkspace", "dephasing_weights", "qavar", "mc_oracle",
    # optimize
    "DimensionCapError", "OptimizeReport", "KEvaluation", "InterrogationScan",
    "PlateauFit", "cost_operator", "optimize_joint_state",
    "optimize_product_state", "optimize_interrogation", "bound_curve",
    "extrapolate_long_term",
    # clock
    "ServoConfig", "SimConfig", "FrequencyTrace", "AvarEstimate",
    "BoundCheckRow", "BoundCheckReport", "simulate_clock", "avar_series",
    "avar_estimate", "bound_check",
]
