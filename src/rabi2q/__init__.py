"""Two-qubit quantum Rabi model: spectra, eigenstates, and dynamics."""

__version__ = "0.1.0"

from .dynamics import (ParityDecomposedState, QuarticCoefficients,
                       Trajectory, concurrence, decompose_initial_state,
                       evolve_parity, evolve_rwa_closed_form,
                       mean_photon_number, population_inversion,
                       quartic_coefficients, quartic_roots,
                       reduced_density_matrix, von_neumann_entropy)
from .eigenstates import (BargmannCoefficients, RecurrenceState,
                          bargmann_coefficients,
                          bargmann_identical_coefficients,
                          recurrence_eigenstate_la, residual)
from .hamiltonian import (RwaExcitationBlock, build_full, build_parity_band,
                          build_parity_matrix, build_rwa_band,
                          build_rwa_excitation_block, expand_dense)
from .model import ModelParams, Parity, QubitLevel, TruncationConfig
from .numerics import (EigenDecomposition, displacement_element, eigh,
                       laguerre_assoc, propagate_spectral)
from .spectra import (CrossingKind, CrossingRecord, PerturbativeSpectrum,
                      RwaErrorReport, SpectrumSweep, detect_crossings,
                      dsc_perturbative_spectrum, rwa_relative_error,
                      sweep_spectrum)

__all__ = [
    "__version__",
    "BargmannCoefficients", "CrossingKind",
    "CrossingRecord", "EigenDecomposition", "ModelParams", "Parity",
    "ParityDecomposedState", "PerturbativeSpectrum",
    "QuarticCoefficients", "QubitLevel", "RecurrenceState",
    "RwaErrorReport", "RwaExcitationBlock", "SpectrumSweep", "Trajectory",
    "TruncationConfig",
    "bargmann_coefficients", "bargmann_identical_coefficients",
    "build_full", "build_parity_band", "build_parity_matrix",
    "build_rwa_band", "build_rwa_excitation_block",
    "concurrence",
    "decompose_initial_state", "detect_crossings", "displacement_element",
    "dsc_perturbative_spectrum", "eigh", "evolve_parity",
    "evolve_rwa_closed_form", "expand_dense", "laguerre_assoc",
    "mean_photon_number", "population_inversion",
    "propagate_spectral", "quartic_coefficients", "quartic_roots",
    "recurrence_eigenstate_la", "reduced_density_matrix", "residual",
    "rwa_relative_error", "sweep_spectrum", "von_neumann_entropy",
]
