"""Two-qubit quantum Rabi model: spectra, eigenstates, and dynamics."""

__version__ = "0.1.0"

from .dynamics import (ParityDecomposedState, QuarticCoefficients,
                       Trajectory, concurrence, decompose_initial_state,
                       evolve_parity, evolve_rwa_closed_form,
                       mean_photon_number, population_inversion,
                       quartic_coefficients, quartic_roots,
                       reduced_density_matrix, von_neumann_entropy)
from .eigenstates import (RecurrenceState, bargmann_identical_coefficients,
                          recurrence_eigenstate_la, residual)
from .hamiltonian import (RwaExcitationBlock, build_parity_band,
                          build_rwa_band, build_rwa_excitation_block)
from .model import ModelParams, Parity, QubitLevel, TruncationConfig
from .numerics import EigenDecomposition, eigh, expand_dense, laguerre_assoc
from .spectra import (CrossingKind, CrossingRecord, PerturbativeSpectrum,
                      RwaErrorReport, SpectrumSweep, detect_crossings,
                      dsc_perturbative_spectrum, rwa_relative_error,
                      sweep_spectrum)

__all__ = [
    "__version__",
    "CrossingKind", "CrossingRecord", "EigenDecomposition", "ModelParams",
    "Parity", "ParityDecomposedState", "PerturbativeSpectrum",
    "QuarticCoefficients", "QubitLevel", "RecurrenceState",
    "RwaErrorReport", "RwaExcitationBlock", "SpectrumSweep", "Trajectory",
    "TruncationConfig",
    "bargmann_identical_coefficients",
    "build_parity_band", "build_rwa_band", "build_rwa_excitation_block",
    "concurrence",
    "decompose_initial_state", "detect_crossings",
    "dsc_perturbative_spectrum", "eigh", "evolve_parity",
    "evolve_rwa_closed_form", "expand_dense", "laguerre_assoc",
    "mean_photon_number", "population_inversion",
    "quartic_coefficients", "quartic_roots",
    "recurrence_eigenstate_la", "reduced_density_matrix", "residual",
    "rwa_relative_error", "sweep_spectrum", "von_neumann_entropy",
]
