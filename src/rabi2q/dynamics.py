"""Time evolution and entanglement observables.

Two propagation routes: numerically exact evolution of the two parity chains
(one eigendecomposition per chain, shared across all output times) and the
closed-form RWA evolution assembled from excitation-sector blocks.  The
observables of interest are the mean photon number, the population inversion,
the two-qubit reduced density matrix and the entanglement measures derived
from it (von Neumann entropy, Wootters concurrence).  A state may hold one
column of amplitudes per output time, and every observable broadcasts over
that axis, so a trajectory takes one call per observable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DegenerateResolvent, InvalidDensityMatrix,
                     TruncationInsufficient)
from .hamiltonian import (build_parity_band, build_parity_matrix,
                          build_rwa_band, build_rwa_excitation_block)
from .model import (PAIR_ORDER, ModelParams, Parity, QubitLevel,
                    TruncationConfig, basis_table)
from .numerics import band_matvec, eigh, propagate_spectral

EDGE_WEIGHT_TOL = 1e-6
COHERENT_LEAKAGE_TOL = 1e-12


@dataclass(frozen=True)
class ParityDecomposedState:
    """Pure system state as complex amplitudes over the two parity chains.

    The amplitudes have shape (chain_dim,) for one state, or (chain_dim, T)
    for T states held one column per time.  Every property below and every
    observable of this module broadcasts over that trailing axis: a single
    state gives scalars, a stack gives one value per column.
    """

    c_even: np.ndarray
    c_odd: np.ndarray
    trunc: TruncationConfig

    def __post_init__(self):
        if (self.c_even.shape != self.c_odd.shape
                or self.c_even.shape[0] != self.trunc.chain_dim):
            raise ValueError("chain amplitude length does not match trunc")

    def chain(self, parity: Parity) -> np.ndarray:
        return self.c_even if parity is Parity.EVEN else self.c_odd

    @property
    def norm(self):
        return np.hypot(np.linalg.norm(self.c_even, axis=0),
                        np.linalg.norm(self.c_odd, axis=0))

    def parity_weights(self):
        return (np.sum(np.abs(self.c_even) ** 2, axis=0),
                np.sum(np.abs(self.c_odd) ** 2, axis=0))

    def edge_weight(self):
        """Probability on the top two photon levels (last 4 chain slots)."""
        return (np.sum(np.abs(self.c_even[-4:]) ** 2, axis=0)
                + np.sum(np.abs(self.c_odd[-4:]) ** 2, axis=0))

    def to_full(self) -> np.ndarray:
        """Amplitudes in the product basis |n>|q1>|q2>."""
        out = np.zeros((self.trunc.full_dim,) + self.c_even.shape[1:],
                       dtype=complex)
        full_index = basis_table(self.trunc).full_index
        out[full_index[Parity.EVEN]] = self.c_even
        out[full_index[Parity.ODD]] = self.c_odd
        return out


def state_from_full(psi: np.ndarray, trunc: TruncationConfig
                    ) -> ParityDecomposedState:
    """Inverse of to_full; psi has shape (full_dim,) or (full_dim, T)."""
    psi = np.asarray(psi, dtype=complex)
    full_index = basis_table(trunc).full_index
    return ParityDecomposedState(psi[full_index[Parity.EVEN]],
                                 psi[full_index[Parity.ODD]], trunc)


def coherent_amplitudes(alpha: complex, n_max: int) -> np.ndarray:
    """Fock amplitudes <n|alpha> for n = 0..n_max, evaluated in log space."""
    if alpha == 0:
        out = np.zeros(n_max + 1, dtype=complex)
        out[0] = 1.0
        return out
    n = np.arange(n_max + 1)
    # past |alpha| = 1e150 every amplitude underflows to 0 anyway; the cap
    # keeps the square finite, so such a state shows leakage 1
    log_mag = (n * math.log(abs(alpha)) - min(abs(alpha), 1e150) ** 2 / 2.0
               - 0.5 * np.array([math.lgamma(k + 1) for k in n]))
    phase = np.exp(1j * np.angle(alpha) * n)
    return np.exp(log_mag) * phase


def decompose_initial_state(field, q1: QubitLevel, q2: QubitLevel,
                            trunc: TruncationConfig) -> ParityDecomposedState:
    """Route a product state |field, q1, q2> onto the parity chains.

    field is either an integer Fock occupation or a complex coherent
    amplitude given as ("coherent", alpha).  Coherent states must fit the
    cutoff: truncation leakage above 1e-12 raises TruncationInsufficient.
    The state is renormalized after truncation.
    """
    if isinstance(field, tuple):
        kind, value = field
        if kind != "coherent":
            raise ValueError(f"unknown field specification {kind!r}")
        amps = coherent_amplitudes(complex(value), trunc.n_max)
        leakage = 1.0 - float(np.sum(np.abs(amps) ** 2))
        if leakage > COHERENT_LEAKAGE_TOL:
            raise TruncationInsufficient(
                f"coherent state leaks {leakage:.2e} beyond n_max="
                f"{trunc.n_max}")
    else:
        n_fock = int(field)
        if n_fock < 0:
            raise ConfigError(f"Fock level must be >= 0, got {n_fock}")
        if n_fock > trunc.n_max:
            raise TruncationInsufficient(
                f"Fock level {n_fock} above n_max={trunc.n_max}")
        amps = np.zeros(trunc.n_max + 1, dtype=complex)
        amps[n_fock] = 1.0
    psi = np.zeros((trunc.n_max + 1, len(PAIR_ORDER)), dtype=complex)
    psi[:, PAIR_ORDER.index((q1, q2))] = amps
    state = state_from_full(psi.ravel(), trunc)
    norm = math.hypot(np.linalg.norm(state.c_even),
                      np.linalg.norm(state.c_odd))
    return ParityDecomposedState(state.c_even / norm, state.c_odd / norm,
                                 trunc)


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------

def _chain_sum(state: ParityDecomposedState, values: dict):
    """sum_j values[parity][j] |c_j|^2 over both chains, for each column.

    Each column is reduced by one (1 x n)(n x 1) product of contiguous rows,
    the dot product a single state takes, so a stack gives the values of
    its columns bit for bit.
    """
    total = 0.0
    for parity in (Parity.EVEN, Parity.ODD):
        prob = np.abs(state.chain(parity).T, order="C") ** 2
        total += (prob[..., None, :] @ values[parity][:, None])[..., 0, 0]
    return total


def mean_photon_number(state: ParityDecomposedState):
    return _chain_sum(state, basis_table(state.trunc).photon)


def population_inversion(state: ParityDecomposedState):
    table = basis_table(state.trunc)
    return _chain_sum(state, {p: 0.5 * (table.sz1[p] + table.sz2[p])
                              for p in Parity})


def reduced_density_matrix(state: ParityDecomposedState) -> np.ndarray:
    """Two-qubit reduced density matrix, basis order (ee, eg, ge, gg).

    The partial trace over the field, rho_ij = sum_n psi_ni psi_nj^*, of the
    full-basis amplitudes reshaped to (n_max+1, 4, ...).  The real and
    imaginary parts enter separately, so no conjugate copy is made.  A
    stack of states gives a stack of shape (T, 4, 4).
    """
    psi = state.to_full().reshape((state.trunc.n_max + 1, 4)
                                  + state.c_even.shape[1:])
    re, im = psi.real, psi.imag

    def trace(a, b):
        return np.einsum("ni...,nj...->...ij", a, b)

    cross = trace(im, re)
    return (trace(re, re) + trace(im, im)
            + 1j * (cross - np.swapaxes(cross, -1, -2)))


def _check_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Clipped eigenvalues of each matrix; raises if one is below -1e-8."""
    evals = np.linalg.eigvalsh(0.5 * (rho + np.swapaxes(rho.conj(), -1, -2)))
    low = np.min(evals, axis=-1)
    bad = low[low < -1e-8]
    if bad.size:
        raise InvalidDensityMatrix(
            f"density matrix has eigenvalue {bad[0]:.3e}")
    return np.clip(evals, 0.0, None)


def von_neumann_entropy(rho: np.ndarray):
    """Entropy -sum l ln l in nats, with 0 ln 0 = 0, of each matrix."""
    evals = _check_density_matrix(rho)
    return -np.sum(evals * np.log(np.where(evals > 0, evals, 1.0)), axis=-1)


_SPIN_FLIP = np.zeros((4, 4))
_SPIN_FLIP[0, 3] = _SPIN_FLIP[3, 0] = -1.0
_SPIN_FLIP[1, 2] = _SPIN_FLIP[2, 1] = 1.0


def concurrence(rho: np.ndarray):
    """Wootters concurrence in the fixed (ee, eg, ge, gg) basis, of each
    matrix of a (..., 4, 4) stack."""
    _check_density_matrix(rho)
    rho_tilde = _SPIN_FLIP @ rho.conj() @ _SPIN_FLIP
    evals = np.linalg.eigvals(rho @ rho_tilde)
    lam = np.sqrt(np.clip(np.sort(evals.real, axis=-1)[..., ::-1], 0.0,
                          None))
    return np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2]
                      - lam[..., 3])


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Trajectory:
    """Observables along an evolution, and the evolved state.

    state holds the chain amplitudes at every output time, one column per
    time.  energy, norms and parity weights are retained as conservation
    diagnostics; max_edge_weight records the largest truncation-edge
    probability seen at any output time.
    """

    times: np.ndarray
    mean_n: np.ndarray
    s_z: np.ndarray
    entropy: np.ndarray
    concurrence: np.ndarray
    energy: np.ndarray
    norms: np.ndarray
    weight_even: np.ndarray
    weight_odd: np.ndarray
    max_edge_weight: float
    state: ParityDecomposedState


def _energy(state: ParityDecomposedState, params: ModelParams,
            build_band) -> np.ndarray:
    """<psi|H|psi> of every column, H applied on each chain's band.

    H is real symmetric, so the real and imaginary parts of psi contribute
    separately and no complex copy of H is needed.
    """
    total = 0.0
    for parity in (Parity.EVEN, Parity.ODD):
        band = build_band(params, parity, state.trunc)
        psi = state.chain(parity)
        for part in (psi.real, psi.imag):
            total += np.sum(part * band_matvec(band, part), axis=0)
    return total


def _trajectory(state: ParityDecomposedState, times: np.ndarray,
                energies: np.ndarray, on_guard: str) -> Trajectory:
    """Observables of a state held one column per output time."""
    edge = state.edge_weight()
    over = np.flatnonzero(edge > EDGE_WEIGHT_TOL)
    if over.size and on_guard == "raise":
        i = over[0]
        raise TruncationInsufficient(
            f"weight {edge[i]:.2e} on the top two photon levels at "
            f"t={times[i]:g}; raise n_max")
    rho = reduced_density_matrix(state)
    w_even, w_odd = state.parity_weights()
    return Trajectory(times, mean_photon_number(state),
                      population_inversion(state), von_neumann_entropy(rho),
                      concurrence(rho), energies, state.norm, w_even, w_odd,
                      float(np.max(edge)), state)


def evolve_parity(state: ParityDecomposedState, params: ModelParams, times,
                  on_guard: str = "raise") -> Trajectory:
    """Exact evolution of both parity chains by spectral decomposition.

    One eigendecomposition per chain serves every output time.  If the
    state weight on the top two photon levels exceeds EDGE_WEIGHT_TOL at
    any output time the run raises TruncationInsufficient, naming the first
    such time (on_guard="raise"), or completes and records the violation in
    max_edge_weight (on_guard="record").  The energy is <psi(t)|H|psi(t)>
    with the chain bands applied directly, so it does not rely on the
    decomposition that propagated the state.
    """
    if on_guard not in ("raise", "record"):
        raise ValueError("on_guard must be 'raise' or 'record'")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    trunc = state.trunc
    evolved = {parity: propagate_spectral(
                   eigh(build_parity_matrix(params, parity, trunc)),
                   state.chain(parity), times)
               for parity in (Parity.EVEN, Parity.ODD)}
    out = ParityDecomposedState(evolved[Parity.EVEN], evolved[Parity.ODD],
                                trunc)
    return _trajectory(out, times, _energy(out, params, build_parity_band),
                       on_guard)


# ---------------------------------------------------------------------------
# closed-form RWA evolution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuarticCoefficients:
    """Depressed quartic x^4 + c2 x^2 + c1 x + c0 for one excitation sector."""

    c0: float
    c1: float
    c2: float
    sector: int


def quartic_coefficients(params: ModelParams, n: int) -> QuarticCoefficients:
    """Printed closed-form characteristic coefficients of the 4x4 sector."""
    if n < 2:
        raise ValueError("the full 4x4 sector requires n >= 2")
    d1 = 0.5 * (params.omega_1 - params.omega_f)
    d2 = 0.5 * (params.omega_2 - params.omega_f)
    g1sq, g2sq = params.g_1 ** 2, params.g_2 ** 2
    c0 = ((n * (g1sq - g2sq) + d1 ** 2 - d2 ** 2)
          * ((n - 1) * (g1sq - g2sq) + d1 ** 2 - d2 ** 2))
    c1 = 2.0 * (g2sq * d1 + g1sq * d2)
    c2 = (1 - 2 * n) * (g1sq + g2sq) - 2.0 * (d1 ** 2 + d2 ** 2)
    return QuarticCoefficients(c0, c1, c2, n)


def quartic_roots(qc: QuarticCoefficients) -> np.ndarray:
    """Closed-form real roots of the depressed quartic, ascending.

    Uses the resolvent-cubic parametrization; complex intermediates are
    inevitable for four real roots (casus irreducibilis) but the roots come
    out real.  Falls back to the biquadratic form when c1 = 0 and raises
    DegenerateResolvent when the resolvent parameter p underflows with
    c1 != 0.
    """
    c0, c1, c2 = qc.c0, qc.c1, qc.c2
    scale = max(1.0, abs(c0), abs(c1), abs(c2))
    if abs(c1) <= 1e-14 * scale:
        disc = max(c2 * c2 - 4.0 * c0, 0.0)
        y_hi = 0.5 * (-c2 + math.sqrt(disc))
        y_lo = 0.5 * (-c2 - math.sqrt(disc))
        roots = []
        for y in (max(y_hi, 0.0), max(y_lo, 0.0)):
            roots.extend([math.sqrt(y), -math.sqrt(y)])
        return np.sort(np.array(roots))
    big_a = 27.0 * c1 * c1 - 72.0 * c0 * c2 + 2.0 * c2 ** 3
    big_b = 12.0 * c0 + c2 * c2
    q = np.sqrt(complex(big_a * big_a - 4.0 * big_b ** 3))
    cube = ((big_a + q) / 2.0) ** (1.0 / 3.0)
    if abs(cube) < 1e-150:
        raise DegenerateResolvent("resolvent cube root vanished")
    p_sq = (12.0 * c0 + (c2 - cube) ** 2) / (3.0 * cube)
    p = np.sqrt(p_sq)
    if abs(p) < 1e-9 * math.sqrt(scale):
        raise DegenerateResolvent("resolvent parameter p underflowed with "
                                  "c1 != 0; use the eigensolver path")
    r12 = np.sqrt(-p * p - 2.0 * c2 - 2.0 * c1 / p)
    r34 = np.sqrt(-p * p - 2.0 * c2 + 2.0 * c1 / p)
    lam = np.array([(p + r12) / 2.0, (p - r12) / 2.0,
                    (-p + r34) / 2.0, (-p - r34) / 2.0])
    return np.sort(lam.real)


def evolve_rwa_closed_form(state: ParityDecomposedState, params: ModelParams,
                           times) -> Trajectory:
    """Closed-form RWA evolution assembled from excitation sectors.

    The RWA Hamiltonian is block diagonal in the excitation number; each
    occupied sector block is diagonalized once and the lab-frame phase
    exp(-i omega_f (N-1) t) is restored when reassembling.  The energy is
    <psi(t)|H_RWA|psi(t)> on the RWA chain bands, not on the sector blocks
    that propagated the state.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    trunc = state.trunc
    psi0 = state.to_full()

    sectors = sorted(set(
        basis_table(trunc).excitation[np.abs(psi0) > 0].tolist()))
    # photon range needed to close every occupied sector
    needed_nmax = max(sectors, default=0)
    out_trunc = (trunc if needed_nmax <= trunc.n_max
                 else TruncationConfig(needed_nmax))
    table = basis_table(out_trunc)
    psi0 = np.pad(psi0, (0, out_trunc.full_dim - trunc.full_dim))

    evolved = np.zeros((out_trunc.full_dim, len(times)), dtype=complex)
    for sector in sectors:
        block = build_rwa_excitation_block(params, sector)
        # the sector's full-basis rows, ascending, are the block.basis order
        idx = np.flatnonzero(table.excitation == sector)
        amps0 = psi0[idx]
        vals, vecs = eigh(block.matrix)
        proj = vecs.T @ amps0
        frame = np.exp(-1j * params.omega_f * (sector - 1) * times)
        phases = np.exp(-1j * np.outer(vals, times)) * proj[:, None]
        evolved[idx] += (vecs @ phases) * frame[None, :]

    out = state_from_full(evolved, out_trunc)
    del evolved  # free the full-basis copy before the energy's temporaries
    return _trajectory(out, times, _energy(out, params, build_rwa_band),
                       "record")
