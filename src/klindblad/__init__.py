"""Spectra of Lindblad generators with random k-local Pauli dissipation.

The package builds dense real superoperators in the Pauli string basis for
generators of the form alpha * L_U + L_D (or L_U + beta * L_D), where L_D
couples all Pauli strings up to a cutoff weight through a random positive
coupling matrix, and analyzes the resulting non-Hermitian spectra: cluster
structure and its perturbative predictions, spacing-ratio statistics,
eigenmode operator content, commutants, persistence across coupling sweeps,
and spectral densities.
"""

from .errors import (
    ConfigError,
    DegenerateWeightError,
    EigensolverError,
    NonPositiveKossakowskiError,
    NumericalError,
    ResourceLimitError,
    SpectralAnalysisError,
)
from .pauli import (
    PauliBasis,
    PauliString,
    PhasedPauli,
    commutator,
    commutes,
    enumerate_basis,
    multiply,
    sector_dimension,
    to_dense,
)
from .ensemble import (
    HamiltonianSpec,
    KossakowskiSample,
    dense_hamiltonian,
    haar_unitary,
    heisenberg_hamiltonian,
    kossakowski_dimension,
    sample_kossakowski,
    sample_random_hamiltonian,
    substream,
)
from .liouvillian import (
    Superoperator,
    assemble,
    assemble_weak,
    build_dissipator,
    build_unitary_part,
    jump_operator_set,
    lambda0,
    lambda0_fraction,
    unitary_pauli_matrix,
)
from .perturbation import (
    FirstOrderBlock,
    PerturbationPrediction,
    WeightGroup,
    consecutive_degenerate_pair,
    degenerate_groups,
    first_order_block,
    h_count,
    predict,
    second_order_exact,
    second_order_mean,
)
from .spectral import (
    ClusterReport,
    CptpReport,
    CsrHistogram,
    Density2D,
    PersistenceReport,
    Spectrum,
    cluster_by_centers,
    commutant_basis,
    complex_spacing_ratios,
    cptp_checks,
    csr_reference_ginibre,
    csr_reference_poisson,
    density_total_variation,
    diagonalize,
    evolve_expectation,
    mode_weight_profile,
    operator_overlap,
    persistent_modes,
    random_weight_operator,
    spectral_density,
    unitary_eigenvalues,
)

__version__ = "0.1.0"
