"""Work statistics for quantum systems on worldlines with time dilation.

A numerical engine for the two-point-measurement work protocol on static
weak-field spacetimes: exact operator algebra, Gibbs ensembles, Kraus
channels, proper-time propagators, and the fluctuation relations (flat,
non-unital-corrected, and time-dilated) verified against analytic oracles.
"""

__version__ = "0.1.0"

from .channels import (
    PropagatorSchedule,
    QuantumChannel,
    amplitude_damping_channel,
    depolarizing_channel,
    identity_channel,
    time_ordered_propagator,
    unitality_deviation,
    unitary_channel,
)
from .operators import (
    DensityOperator,
    HermitianOperator,
    Spectrum,
    matrix_from_pairs,
    random_hermitian,
    random_unitary,
    spectral_decompose,
)
from .protocol import (
    AppendixRun,
    DilatedRun,
    FlatRun,
    ProtocolReport,
    WorkDistribution,
    conditional_probabilities,
    entropy_production,
    generalized_jarzynski_rhs,
    jarzynski_lhs,
    run_protocol,
    sample_outcomes,
    work_distribution_dilated,
    work_distribution_flat,
)
from .scenarios import (
    ScenarioConfig,
    ScenarioValidationError,
    build_scenario,
    harmonic_hamiltonian,
    levels_for_tail,
    oscillator_delta_F_analytic,
    oscillator_mean_work_analytic,
    run_scenario,
    two_level_hamiltonian,
)
from .spacetime import (
    DilationProfile,
    StaticSpacetime,
    WeakFieldViolationError,
    Worldline,
    comoving_worldline,
    cruise_worldline,
    dilation_factor,
    dilation_profile,
    point_mass_worldline,
    uniform_gravity_worldline,
)
from .thermo import (
    ThermalEnsemble,
    free_energy_difference,
    thermal_state,
)

__all__ = [name for name in dir() if not name.startswith("_")]
