"""wigpath: Wigner functions of radially squeezed bosonic states, computed
three independent ways -- exact closed forms, direct quadrature of the circle
path integral, and saddle-point asymptotics -- with cross-validation tooling.
"""

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
    "BudgetError",
    "FamilyParams",
    "MidpointGrid",
    "MonteCarloSpec",
    "QuadratureSpec",
    "RealnessError",
    "RegionError",
    "SaddleSolution",
    "SignProblemError",
    "WignerSample",
    "gaussian_convolve_p1",
    "hessian_log_det",
    "log_bessel_i0",
    "log_factorial",
    "midpoint_histogram",
    "smoothed_wigner_from_histogram",
    "solve_saddle",
    "wigner_montecarlo",
    "wigner_number",
    "wigner_poisson",
    "wigner_quadrature",
    "wigner_saddle",
    "wigner_spectral",
]
