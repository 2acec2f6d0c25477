"""Phase-space quantum mechanics in ħ = 2 units, with a contraction lab
that exhibits the classical limit numerically."""

from ._poly import PhasePolynomial
from .analytic_oracle import (
    oracle_coherent_overlap,
    oracle_contracted_overlap,
    oracle_polynomial_star,
    oracle_quadratic_flow,
)
from .contraction_lab import (
    SweepSpec,
    SweepTable,
    bracket_convergence,
    contracted_coherent_state,
    contracted_inner,
    contracted_overlap,
    contracted_overlap_numeric,
    fit_loglog,
    left_operator_limit,
    left_operator_sweep,
    overlap_decay_sweep,
    product_commutativization,
    theta_decoupling_scan,
)
from .dynamics import (
    EvolutionConfig,
    HamiltonianGenerator,
    Trajectory,
    classical_heisenberg_evolve,
    classical_liouville_evolve,
    export_trajectory_csv,
    free_generator,
    free_particle_tilde_generator,
    harmonic_generator,
    heisenberg_evolve,
    liouville_evolve,
    schrodinger_evolve,
    tilde_apply,
)
from .errors import AccuracyError, ValidationError, WWGMError
from .heisenberg_group import (
    ContractionParam,
    CosetAlgebraParams,
    GroupElement,
    compose,
    config_coset_flow,
    contract_coordinates,
    identity,
    inverse,
    phase_space_coset_flow,
)
from .phase_space import (
    CoherentLabel,
    PhaseFunction,
    PhaseGrid,
    apply_PL,
    apply_XL,
    coherent_state,
    export_csv,
    inner,
    load_phase_function,
    save_phase_function,
    translate,
)
from .star_algebra import (
    HBAR,
    StarMethod,
    moyal_bracket,
    poisson_bracket,
    scaled_moyal_bracket,
    star,
    star_series_report,
    trace_pair,
    wigner,
)

__version__ = "0.1.0"
