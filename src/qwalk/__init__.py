"""Discrete-time coined quantum walks on the line and circle.

Three independent routes to the same dynamics — the direct two-term
recurrence, the exact Fourier-domain (spectral) solution, and
stationary-phase asymptotics — plus moment/mixing statistics and
unbiasedness diagnostics, for any U(2) coin.
"""

__version__ = "0.1.0"

from .asymptotics import (
    StationaryPointData,
    asymptotic_wavefunction,
    density,
    density_integral,
    density_moment,
    frontier_peak,
    p_asymptotic,
    stationary_point,
)
from .core import (
    Circle,
    CoinOperator,
    DomainError,
    Line,
    StepMatrices,
    WaveFunction,
    hadamard_coin,
    initial_state,
    step_matrices,
    theta_coin,
)
from .evolve import (
    ProbabilityDistribution,
    distribution,
    evolve_circle,
    evolve_line,
)
from .spectral import (
    evolve_spectral,
    fourier_amplitudes,
    transfer_matrix,
)
from .stats import (
    MixingReport,
    MomentReport,
    WalkSpec,
    analytic_moment,
    cesaro_average,
    classical_walk,
    interval_mass,
    mixing_time,
    moment,
    total_variation,
    tv_distance,
)
from .symmetry import (
    SymmetrizerReport,
    find_symmetrizer,
    symmetric_initial,
    verify_symmetrizer,
)

__all__ = [name for name in dir() if not name.startswith("_")]
