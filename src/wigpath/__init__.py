"""wigpath: Wigner functions of radially squeezed bosonic states, computed
three independent ways -- exact closed forms, direct quadrature of the circle
path integral, and saddle-point asymptotics -- with cross-validation tooling.
"""

from .action import (
    ActionValue,
    CirclePath,
    chord_midpoint,
    end_action,
    path_action,
    total_action,
)
from .integrate import (
    BudgetError,
    MidpointGrid,
    MonteCarloSpec,
    QuadratureSpec,
    RealnessError,
    SignProblemError,
    midpoint_histogram,
    smoothed_wigner_from_histogram,
    wigner_montecarlo,
    wigner_quadrature,
)
from .phase_space import (
    coherent_overlap,
    displaced_parity_element,
    log_coherent_overlap,
    log_displaced_parity_element,
)
from .saddle import (
    RegionError,
    SaddleSolution,
    hessian_log_det,
    solve_saddle,
    wigner_saddle,
)
from .special import log_bessel_i0, log_factorial
from .states import (
    FamilyParams,
    WignerSample,
    gaussian_convolve_p1,
    wigner_number,
    wigner_poisson,
    wigner_spectral,
)

__version__ = "0.1.0"

__all__ = [
    "ActionValue",
    "BudgetError",
    "CirclePath",
    "FamilyParams",
    "MidpointGrid",
    "MonteCarloSpec",
    "QuadratureSpec",
    "RealnessError",
    "RegionError",
    "SaddleSolution",
    "SignProblemError",
    "WignerSample",
    "chord_midpoint",
    "coherent_overlap",
    "displaced_parity_element",
    "end_action",
    "gaussian_convolve_p1",
    "hessian_log_det",
    "log_bessel_i0",
    "log_coherent_overlap",
    "log_displaced_parity_element",
    "log_factorial",
    "midpoint_histogram",
    "path_action",
    "smoothed_wigner_from_histogram",
    "solve_saddle",
    "total_action",
    "wigner_montecarlo",
    "wigner_number",
    "wigner_poisson",
    "wigner_quadrature",
    "wigner_saddle",
    "wigner_spectral",
]
