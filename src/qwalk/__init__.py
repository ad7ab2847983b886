"""Discrete-time coined quantum walks on the line and circle.

Three independent routes to the same dynamics — the direct two-term
recurrence, the exact Fourier-domain (spectral) solution, and
stationary-phase asymptotics — plus moment/mixing statistics and
unbiasedness diagnostics, for any U(2) coin.
"""

__version__ = "0.1.0"

from .asymptotics import (
    asymptotic_wavefunction,
    density,
    density_moment,
    p_asymptotic,
)
from .core import (
    Circle,
    CoinOperator,
    DomainError,
    Line,
    ProbabilityDistribution,
    WaveFunction,
    hadamard_coin,
    initial_state,
    theta_coin,
)
from .evolve import (
    distribution,
    evolve_circle,
    evolve_line,
)
from .spectral import evolve_spectral
from .stats import (
    MixingReport,
    WalkSpec,
    cesaro_average,
    classical_walk,
    interval_mass,
    mixing_time,
    moment,
    tv_distance,
)
from .symmetry import (
    SymmetrizerReport,
    symmetric_initial,
    verify_symmetrizer,
)

# written out by hand, a line or two per module, so that the submodules
# imported above are no public names
__all__ = [
    "asymptotic_wavefunction", "density", "density_moment", "p_asymptotic",
    "Circle", "CoinOperator", "DomainError", "Line", "WaveFunction",
    "hadamard_coin", "initial_state", "theta_coin",
    "ProbabilityDistribution", "distribution", "evolve_circle", "evolve_line",
    "evolve_spectral",
    "MixingReport", "WalkSpec", "cesaro_average", "classical_walk", "interval_mass",
    "mixing_time", "moment", "tv_distance",
    "SymmetrizerReport", "symmetric_initial", "verify_symmetrizer",
]
