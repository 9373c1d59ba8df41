"""Spectra of Lindblad generators with random k-local Pauli dissipation.

The package builds, in the Pauli string basis, a sparse L_U and a compact
factor of L_D, writes from them generators alpha * L_U + L_D (or L_U +
beta * L_D), where L_D couples all Pauli strings up to a cutoff weight
through a random positive coupling matrix, and analyzes the resulting
non-Hermitian spectra: cluster structure and its perturbative predictions,
spacing-ratio statistics, eigenmode operator content, commutants,
persistence across coupling sweeps, and spectral densities.
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
    enumerate_basis,
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
    DissipatorFactor,
    SparseSuperoperator,
    Superoperator,
    assemble,
    build_dissipator,
    build_unitary_part,
    dissipator_factor,
    jump_operator_set,
    lambda0,
    lambda0_fraction,
    unitary_pauli_matrix,
)
from .perturbation import (
    PerturbationPrediction,
    h_count,
    predict,
)
from .spectral import (
    ClusterReport,
    CsrHistogram,
    Density2D,
    Spectrum,
    cluster_by_centers,
    commutant_basis,
    complex_spacing_ratios,
    csr_reference_ginibre,
    csr_reference_poisson,
    density_total_variation,
    diagonalize,
    ks_statistic,
    persistent_modes,
    random_weight_operator,
    spectral_density,
    unitary_eigenvalues,
    weight_profiles,
    window_counts,
)

__version__ = "0.1.0"
