"""Time evolution and entanglement observables.

Both engines take one route: one eigendecomposition per parity chain,
shared across all output times, one spectral propagation per chain, and
the same energy and observables.  The full engine solves each chain by
dense ``eigh``, the RWA engine sector by sector, since every RWA
excitation sector is a run of at most four chain slots.  The observables
are the mean photon number, the population inversion, the two-qubit
reduced density matrix and the entanglement measures derived from it (von
Neumann entropy, Wootters concurrence).  A state may hold one column of
amplitudes per output time, and every observable broadcasts over that
axis, so a trajectory takes one call per observable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DegenerateResolvent, InvalidDensityMatrix,
                     TruncationInsufficient)
from .hamiltonian import (build_parity_band, build_parity_matrix,
                          build_rwa_band)
from .model import (PAIR_ORDER, ModelParams, Parity, QubitLevel,
                    TruncationConfig, basis_table)
from .numerics import EigenDecomposition, band_matvec, eigh, propagate_spectral

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
    c_even, c_odd = (psi.ravel()[basis_table(trunc).full_index[parity]]
                     for parity in (Parity.EVEN, Parity.ODD))
    norm = math.hypot(np.linalg.norm(c_even), np.linalg.norm(c_odd))
    return ParityDecomposedState(c_even / norm, c_odd / norm, trunc)


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


def _check_density_matrix(rho: np.ndarray):
    """Clipped eigenvalues and the eigenvectors of each matrix; raises if an
    eigenvalue is below -1e-8."""
    evals, evecs = np.linalg.eigh(
        0.5 * (rho + np.swapaxes(rho.conj(), -1, -2)))
    low = np.min(evals, axis=-1)
    bad = low[low < -1e-8]
    if bad.size:
        raise InvalidDensityMatrix(
            f"density matrix has eigenvalue {bad[0]:.3e}")
    return np.clip(evals, 0.0, None), evecs


def von_neumann_entropy(rho: np.ndarray):
    """Entropy -sum l ln l in nats, with 0 ln 0 = 0, of each matrix."""
    evals, _ = _check_density_matrix(rho)
    return -np.sum(evals * np.log(np.where(evals > 0, evals, 1.0)), axis=-1)


_SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
_SPIN_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y).real


def concurrence(rho: np.ndarray):
    """Wootters concurrence in the fixed (ee, eg, ge, gg) basis, of each
    matrix of a (..., 4, 4) stack.

    The lambda_i are the singular values of Phi^T (sigma_y x sigma_y) Phi,
    rho = Phi Phi^dagger with Phi = U sqrt(Lambda) (Wootters, PRL 80, 2245
    (1998)): accurate to about eps, where square roots of the eigenvalues
    of rho rho~ would turn an eps near 0 into sqrt(eps).
    """
    evals, evecs = _check_density_matrix(rho)
    phi = evecs * np.sqrt(evals)[..., None, :]
    tau = np.swapaxes(phi, -1, -2) @ _SPIN_FLIP @ phi
    lam = np.linalg.svd(tau, compute_uv=False)
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


def _evolve(state: ParityDecomposedState, params: ModelParams, times,
            decompose, build_band, on_guard: str) -> Trajectory:
    """The route of both engines: decompose(params, parity, trunc) gives a
    chain's EigenDecomposition, freed once the chain is propagated, and the
    energy is taken on build_band, the same Hamiltonian's chain band."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    evolved = {parity: propagate_spectral(
                   decompose(params, parity, state.trunc),
                   state.chain(parity), times)
               for parity in (Parity.EVEN, Parity.ODD)}
    state = ParityDecomposedState(evolved[Parity.EVEN], evolved[Parity.ODD],
                                  state.trunc)
    edge = state.edge_weight()
    over = np.flatnonzero(edge > EDGE_WEIGHT_TOL)
    if over.size and on_guard == "raise":
        raise TruncationInsufficient(
            f"weight {edge[over[0]]:.2e} on the top two photon levels at "
            f"t={times[over[0]]:g}; raise n_max")
    # <psi|H|psi> on the chain bands; H is real symmetric, so the real and
    # imaginary parts of psi enter apart and no complex copy of H is made
    energy = 0.0
    for parity in (Parity.EVEN, Parity.ODD):
        band = build_band(params, parity, state.trunc)
        for part in (state.chain(parity).real, state.chain(parity).imag):
            energy += np.sum(part * band_matvec(band, part), axis=0)
    rho = reduced_density_matrix(state)
    w_even, w_odd = state.parity_weights()
    return Trajectory(times, mean_photon_number(state),
                      population_inversion(state), von_neumann_entropy(rho),
                      concurrence(rho), energy, state.norm, w_even, w_odd,
                      float(np.max(edge)), state)


def evolve_parity(state: ParityDecomposedState, params: ModelParams, times,
                  on_guard: str = "raise") -> Trajectory:
    """Exact evolution of both parity chains, one dense eigendecomposition
    per chain for every output time.

    If the weight on the top two photon levels exceeds EDGE_WEIGHT_TOL at
    an output time the run raises TruncationInsufficient naming the first
    such time (on_guard="raise"), or records it in max_edge_weight
    (on_guard="record").  The energy <psi(t)|H|psi(t)> is taken on the
    chain bands, so it does not rely on the decomposition.
    """
    if on_guard not in ("raise", "record"):
        raise ValueError("on_guard must be 'raise' or 'record'")
    return _evolve(state, params, times,
                   lambda *chain: eigh(build_parity_matrix(*chain)),
                   build_parity_band, on_guard)


# ---------------------------------------------------------------------------
# RWA evolution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuarticCoefficients:
    """Depressed quartic x^4 + c2 x^2 + c1 x + c0 for one excitation sector."""

    c0: float
    c1: float
    c2: float


def quartic_coefficients(params: ModelParams, n: int) -> QuarticCoefficients:
    """Printed closed-form characteristic coefficients of the 4x4 sector."""
    if n < 2:
        raise ValueError("the full 4x4 sector requires n >= 2")
    d1 = 0.5 * (params.omega_1 - 1.0)
    d2 = 0.5 * (params.omega_2 - 1.0)
    g1sq, g2sq = params.g_1 ** 2, params.g_2 ** 2
    c0 = ((n * (g1sq - g2sq) + d1 ** 2 - d2 ** 2)
          * ((n - 1) * (g1sq - g2sq) + d1 ** 2 - d2 ** 2))
    c1 = 2.0 * (g2sq * d1 + g1sq * d2)
    c2 = (1 - 2 * n) * (g1sq + g2sq) - 2.0 * (d1 ** 2 + d2 ** 2)
    return QuarticCoefficients(c0, c1, c2)


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


def _rwa_chain_eigh(params: ModelParams, parity: Parity,
                    trunc: TruncationConfig) -> EigenDecomposition:
    """Eigenpairs of one RWA chain, levels in chain-slot order.

    Each excitation sector is a diagonal block of at most four chain slots
    (even chain 1, 4, 4, ...; odd chain 3, 4, 4, ...; the top one cut by
    n_max); the blocks of each size are solved by one stacked eigh.
    """
    band = build_rwa_band(params, parity, trunc)
    table = basis_table(trunc)
    n_exc = table.excitation[table.full_index[parity]]
    dim = trunc.chain_dim
    starts = np.flatnonzero(np.diff(n_exc, prepend=-1))
    sizes = np.diff(starts, append=dim)
    values, vectors = np.empty(dim), np.zeros((dim, dim))
    for m in np.unique(sizes):
        a = np.arange(m)
        rows = starts[sizes == m, None, None] + a[:, None]   # (k, m, 1)
        cols = np.swapaxes(rows, -1, -2)                      # (k, 1, m)
        # band[d, c] = H[c + d, c]
        vals, vecs = eigh(band[np.abs(a[:, None] - a),
                               np.minimum(rows, cols)])
        values[cols[:, 0]] = vals
        vectors[rows, cols] = vecs
    return EigenDecomposition(values, vectors)


def evolve_rwa_closed_form(state: ParityDecomposedState, params: ModelParams,
                           times) -> Trajectory:
    """Evolution under the RWA Hamiltonian on the route of evolve_parity.

    Each chain is solved sector by sector, its top sector cut by n_max as
    the full chains are, and the run raises TruncationInsufficient past
    EDGE_WEIGHT_TOL.  The energy is taken on the RWA chain bands, not on
    the sector blocks that propagated the state.
    """
    return _evolve(state, params, times, _rwa_chain_eigh, build_rwa_band,
                   "raise")
