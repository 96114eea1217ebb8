"""Compromise dynamics for games and distributed energy minimization.

Agents iterate expectations of Boltzmann-weighted objectives against each
other's action distributions; the continuous-time dissipative counterpart
drives unit wavefunctions to eigenvectors of their effective operators.
Certification utilities measure epsilon-approximate equilibria and match
stationary states against a self-contained eigensolver.
"""

from .bundled import bundled_path
from .continuous import (
    StationaryReport,
    StationaryState,
    WaveState,
    build_grid_hamiltonian,
    default_step,
    effective_hamiltonian,
    evolve_coupled,
    evolve_linear,
    lowest_states,
    match_eigenvalue,
    stationarity_check,
)
from .discrete import (
    ExpectedReturnField,
    FixedPointResult,
    IterationTrace,
    expected_return_update,
    expected_return_update_factorized,
    iterate_to_fixed_point,
    normalize_policy,
    random_profile,
)
from .equilibrium import (
    EpsilonCertificate,
    SweepReport,
    alpha_sweep,
    enumerate_pure_nash,
    epsilon_of_profile,
    expected_payoff,
    social_welfare,
)
from .model import (
    Agent,
    DenseEnergy,
    DenseUtility,
    DomainSpec,
    GameModel,
    PairwiseEnergy,
    StrategyProfile,
    ValidationError,
    densify,
    energy_to_utility,
    to_utility_model,
    validate,
)
from .numerics import (
    DenseSymmetric,
    Diagonal,
    EigenDecomposition,
    jacobi_eigen,
    rk4_step,
)

__version__ = "0.1.0"
