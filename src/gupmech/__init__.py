"""Classical particle mechanics on a minimal-length deformed phase space.

The deformed bracket {X, P} = 1 + beta P^2 (and its 3D counterpart)
reshapes everything downstream: Hamiltonians pick up momentum-dependent
velocity maps, the Legendre transform grows quartic velocity terms, and
the symmetry group of free motion becomes a Euclidean rotation in
(ut, x) with an emergent velocity scale u instead of a light cone.
This package implements those layers numerically with the matching
invariant checks.
"""

from .algebra import (
    BRACKET_STEP,
    DeformationParameters,
    DomainError,
    NESTED_BRACKET_STEP,
    PhaseState,
    bracket_xp_1d,
    bracket_xp_3d,
    coordinate_function,
    jacobi_residual,
    momentum_function_1d,
    momentum_function_3d,
    momentum_map_1d,
    momentum_map_3d,
    numerical_bracket,
)
from .checks import DEFAULT_SEED, CheckResult, SUITE_NAMES, run_suite
from .config import ConfigError, ScenarioConfig, parse_config, render_config
from .constants import (
    CODATA,
    EffectiveScales,
    GEOMETRY_ONE_D,
    GEOMETRY_THREE_D,
    PhysicalConstants,
    effective_light_speed,
    effective_light_speed_extended,
    effective_velocity_u,
    gamma_from_planck_length,
    geometry_alpha,
    light_speed_deviation,
)
from .csvio import (
    CsvFormatError,
    TrajectoryTable,
    read_events,
    read_trajectory,
    write_events,
    write_trajectory,
)
from .dynamics import (
    ALL_MODELS,
    EFFECTIVE_SQRT,
    EXACT_1D,
    EXACT_3D,
    FIRST_ORDER_1D,
    FIRST_ORDER_3D,
    Hamiltonian,
    Potential,
    REL_FIRST_ORDER_1D,
    Trajectory,
    energy_drift,
    hamilton_rhs,
    hamilton_rhs_fd,
    hamiltonian_value,
    integrate,
    momentum_limit,
    monotone_momentum_limit,
    relativistic_quartic_coefficient,
    speed_limit,
)
from .frames import (
    GALILEAN_EXACT,
    GALILEAN_FIRST_ORDER,
    GALILEAN_ORDINARY,
    GalileanBoost,
    LorentzBoost,
    covariance_residual,
    euclidean_interval,
    galilean_apply,
    galilean_compose,
    galilean_inverse,
    interval_residual,
    lorentz_apply,
    minkowski_interval,
    velocity_compose,
)
from .legendre import (
    Lagrangian,
    PathSample,
    action_along_path,
    lagrangian_from_hamiltonian,
    lagrangian_value,
    legendre_roundtrip_residual,
    momentum_from_velocity_exact,
    momentum_from_velocity_first_order,
)

__version__ = "0.1.0"
