"""Field-truncated quartic oscillators and 1+1D lattices.

Spectra, exact perturbative series, complex-coupling singularity maps, and
real-time evolution by exact, projector, Dyson and Trotter methods.
"""

__version__ = "0.1.0"

from .oscillator import (
    TruncationSpec,
    OperatorMatrix,
    build_ladder,
    build_field_ops,
    harmonic_hamiltonian,
)
from .hamiltonian import (
    LatticeSpec,
    SparseOperator,
    affine_operator,
    single_site_hamiltonian,
    lattice_hamiltonian,
    anharmonic_family,
    strong_coupling_family,
)
from .spectral import (
    SpectrumResult,
    dense_spectrum,
    lanczos_lowest,
    lattice_ground_energies,
    exact_amplitude,
)
from .series import (
    PowerSeries,
    weak_series,
    weak_series_charpoly,
    strong_series,
    radius_estimate,
)
from .projector import ProjectorSeries, perturbed_projector, evolve_projector_method
from .dyson import PhasePolynomial, DysonAmplitude, dyson_series
from .singularities import (
    GapGrid,
    ResultantPolynomial,
    gap_scan,
    refine_exceptional_point,
    sylvester_discriminant,
    riemann_export,
)
from .pauli import (
    PauliTerm,
    PauliDecomposition,
    TrotterPlan,
    ResourceEstimate,
    pauli_decompose,
    count_resources,
    build_trotter_plan,
    trotter_step_unitary,
    simulate_trotter,
)
