"""Time evolution and entanglement observables.

Both engines take one route: one eigendecomposition per parity chain,
shared across all output times, one spectral propagation per chain, and
the same energy and observables; only the chain band, full or RWA,
differs.  Each chain is solved by dense ``eigh`` of a leading photon
window on the ladder ``numerics.photon_windows`` from the state's highest
photon, certified by its zero-padded residuals against the whole chain,
or of the whole chain when no window up to half of it holds the state;
an empty chain is not solved.
Projections and propagation are real GEMMs on the float view of the
complex amplitudes, and the energy is a(t)^dagger (V^T H V) a(t) on the
K propagated levels.  The observables are the mean photon number, the
population inversion, the two-qubit reduced density matrix and the
entanglement measures derived from it (von Neumann entropy, Wootters
concurrence).  A state may hold one column of amplitudes per output time,
and every observable broadcasts over that axis.  A trajectory keeps only
each chain's propagated levels and takes each block of TIME_BLOCK output
times in one pass: its amplitudes give every observable and are freed,
so a run holds only its scalar columns per output time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (ConfigError, DegenerateResolvent, InvalidDensityMatrix,
                     TruncationInsufficient)
from .hamiltonian import build_parity_band, build_rwa_band
from .model import (PAIR_ORDER, ModelParams, Parity, QubitLevel,
                    TruncationConfig, basis_table)
from .numerics import (RESIDUAL_TOL, band_matvec, band_norm, eigh,
                       expand_dense, padded_residuals, phase_coefficients,
                       photon_windows, spectral_levels)

EDGE_WEIGHT_TOL = 1e-6
COHERENT_LEAKAGE_TOL = 1e-12


@dataclass(frozen=True)
class ParityDecomposedState:
    """Pure system state as complex amplitudes over the two parity chains.

    The amplitudes have shape (chain_dim,) for one state, or (chain_dim, T)
    for T states held one column per time.  to_full and every observable
    of this module broadcast over that trailing axis: a single state gives
    scalars, a stack gives one value per column.
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

    def to_full(self) -> np.ndarray:
        """Amplitudes in the product basis |n>|q1>|q2>."""
        # the two chains fill every row
        out = np.empty((self.trunc.full_dim,) + self.c_even.shape[1:],
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

def _probabilities(state: ParityDecomposedState) -> dict:
    """|c_j|^2 of each chain, one C-ordered row per column of the state."""
    probs = {}
    for parity in (Parity.EVEN, Parity.ODD):
        prob = np.abs(state.chain(parity).T, order="C")
        probs[parity] = np.multiply(prob, prob, out=prob)
    return probs


def _chain_sum(probs: dict, values: dict):
    """sum_j values[parity][j] |c_j|^2 over both chains, for each column.

    Each column is reduced by one (1 x n)(n x 1) product of contiguous rows,
    the dot product a single state takes, so a stack gives the values of
    its columns bit for bit.
    """
    return sum((prob[..., None, :] @ values[parity][:, None])[..., 0, 0]
               for parity, prob in probs.items())


def _inversion(table) -> dict:
    return {p: 0.5 * (table.sz1[p] + table.sz2[p]) for p in Parity}


def mean_photon_number(state: ParityDecomposedState):
    return _chain_sum(_probabilities(state), basis_table(state.trunc).photon)


def population_inversion(state: ParityDecomposedState):
    return _chain_sum(_probabilities(state),
                      _inversion(basis_table(state.trunc)))


def reduced_density_matrix(state: ParityDecomposedState) -> np.ndarray:
    """Two-qubit reduced density matrix, basis order (ee, eg, ge, gg).

    The partial trace over the field, rho_ij = sum_n psi_ni psi_nj^*, of the
    full-basis amplitudes reshaped to (n_max+1, 4).  A stack of states gives
    a stack of shape (T, 4, 4), and every column sums over n in order, as a
    single state does.  The real and imaginary parts enter separately, so
    no conjugate copy is made.
    """
    trunc = state.trunc
    psi = state.to_full().reshape(trunc.n_max + 1, 4, -1)

    def trace(a, b):
        return np.einsum("ni...,nj...->...ij", a, b)

    re, im = psi.real, psi.imag
    cross = trace(im, re)
    rho = (trace(re, re) + trace(im, im)
           + 1j * (cross - np.swapaxes(cross, -1, -2)))
    return rho.reshape(state.c_even.shape[1:] + (4, 4))


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


def _entropy(evals: np.ndarray):
    return -np.sum(evals * np.log(np.where(evals > 0, evals, 1.0)), axis=-1)


def von_neumann_entropy(rho: np.ndarray):
    """Entropy -sum l ln l in nats, with 0 ln 0 = 0, of each matrix."""
    return _entropy(_check_density_matrix(rho)[0])


_SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
_SPIN_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y).real


def concurrence(rho: np.ndarray):
    """Wootters concurrence in the fixed (ee, eg, ge, gg) basis, of each
    matrix of a (..., 4, 4) stack.

    The lambda_i are the singular values of Phi^T (sigma_y x sigma_y) Phi,
    rho = Phi Phi^dagger with Phi = U sqrt(Lambda), Lambda below 64 eps
    max Lambda set to 0 (Wootters, PRL 80, 2245 (1998)): about eps off, or
    1e-11 near a pure state, where roots of rho rho~ would give sqrt(eps).
    """
    return _concurrence(*_check_density_matrix(rho))


def _concurrence(evals: np.ndarray, evecs: np.ndarray):
    evals = np.where(evals < 64 * np.finfo(float).eps
                     * evals.max(axis=-1, keepdims=True), 0.0, evals)
    phi = evecs * np.sqrt(evals)[..., None, :]
    tau = np.swapaxes(phi, -1, -2) @ _SPIN_FLIP @ phi
    lam = np.linalg.svd(tau, compute_uv=False)
    return np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2]
                      - lam[..., 3])


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

class ChainLevels(NamedTuple):
    """The propagated levels of one parity chain: eigenvalues E, the rows
    of their (window) vectors V, their projections V^T c0 on the initial
    chain amplitudes, and V^T H V on the chain band."""

    values: np.ndarray
    vectors: np.ndarray
    proj: np.ndarray
    h_proj: np.ndarray


# output times per block of a trajectory: the chain amplitudes, |c|^2,
# product-basis amplitudes and rho of one block are all of the state held.
# Each block's GEMM packs the level vectors anew, which at 64 times made the
# Fig. 3 GEMMs (682 rows x 311 levels) about a third slower than one GEMM
# over all 1,001 times
TIME_BLOCK = 128


def _time_blocks(n_times: int):
    """Slices of up to TIME_BLOCK consecutive output times, in order."""
    return (slice(start, start + TIME_BLOCK)
            for start in range(0, n_times, TIME_BLOCK))


def _propagate(levels: dict, trunc: TruncationConfig, times: np.ndarray):
    """The state at each of the 1-d times, one column per time, from the
    ChainLevels of each solved chain (a chain missing from levels stays
    zero), and per solved chain the float view of its level amplitudes
    a(t) = exp(-i E t) V^T c0.  V a(t) is one real GEMM into the chain's
    leading rows."""
    chains, amps = {}, {}
    for parity in (Parity.EVEN, Parity.ODD):
        out = np.empty((trunc.chain_dim, len(times)), dtype=complex)
        chains[parity], rows = out, 0
        if parity in levels:
            values, vectors, proj, _ = levels[parity]
            rows = vectors.shape[0]
            amps[parity] = phase_coefficients(values, proj, times).view(float)
            np.matmul(vectors, amps[parity], out=out[:rows].view(float))
        out[rows:] = 0.0
    return (ParityDecomposedState(chains[Parity.EVEN], chains[Parity.ODD],
                                  trunc), amps)


@dataclass(frozen=True)
class Trajectory:
    """Observables along an evolution, and the levels that evolved it.

    The evolved amplitudes are not held: state forms them from levels on
    each access.  energy, norms and parity weights are retained as
    conservation diagnostics; max_edge_weight records the largest
    truncation-edge probability seen at any output time.  levels maps each
    parity chain the initial state does not leave empty to its ChainLevels.
    Per parity chain, photons[parity] is the number of leading photon
    levels whose eigenpairs propagated it, in either engine: a certified
    window's n_w + 1 (n_w >= n_s, the state's highest photon), n_max + 1
    for the whole chain, 0 for a chain the state leaves empty.
    dropped_weight[parity] is the weight of the initial state on the levels
    left out (past the window, rejected by the window's certificate, or
    negligible); the dropped part evolves in its own invariant subspace, so
    the chain's amplitudes are off by exactly its square root at every
    time.
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
    photons: dict
    dropped_weight: dict
    levels: dict
    trunc: TruncationConfig

    @property
    def state(self) -> ParityDecomposedState:
        """The chain amplitudes at every output time, one column per time.

        Formed on each access from the kept levels, block by block as the
        observables were, so its columns are the amplitudes they were taken
        from bit for bit; it takes the chain_dim x T complex amplitudes per
        chain that the trajectory itself never holds."""
        chains = {parity: np.empty((self.trunc.chain_dim, len(self.times)),
                                   dtype=complex) for parity in Parity}
        for cols in _time_blocks(len(self.times)):
            block = _propagate(self.levels, self.trunc, self.times[cols])[0]
            for parity, out in chains.items():
                out[:, cols] = block.chain(parity)
        return ParityDecomposedState(chains[Parity.EVEN], chains[Parity.ODD],
                                     self.trunc)


def _window_levels(band: np.ndarray, c0: np.ndarray):
    """The ``spectral_levels`` that propagate one chain band from c0, and
    their photon count.

    Tries the windows of ``photon_windows`` from n_w = n_s, the highest
    photon holding more than 1e-32 of the state's weight: the least window
    that can hold the state.  A window level is certified when its
    zero-padded residual against the whole chain band is at most
    RESIDUAL_TOL ||H||_inf (Parlett, The Symmetric Eigenvalue Problem),
    and the window is accepted when the state's weight past it and on its
    uncertified levels is at most DROP_WEIGHT ||c0||^2.  When no window up
    to half the chain is accepted, dense eigh of the whole chain answers.
    """
    weight = np.abs(c0) ** 2
    n_window = int(np.flatnonzero(weight[0::2] + weight[1::2]
                                  > 1e-32 * np.sum(weight))[-1])
    tol = RESIDUAL_TOL * band_norm(band)
    # windows past half the chain would only add rejected solves: none
    # from n_w = 150 to 330 holds the Fig. 3 state
    half = band.shape[1] // 2
    for rows, decomp in photon_windows(band, n_window, half):
        certified = padded_residuals(band, *decomp) <= tol
        levels = spectral_levels(decomp, c0, certified,
                                 float(np.sum(weight[rows:])))
        if levels is not None:
            return levels, rows // 2
        # the rejected window is freed before the next, larger solve
        del decomp
    return spectral_levels(eigh(expand_dense(band)), c0), band.shape[1] // 2


def _evolve(state: ParityDecomposedState, params: ModelParams, times,
            build_band, on_guard: str) -> Trajectory:
    """The route of both engines: build_band(params, parity, trunc) gives
    each chain band that ``_window_levels`` solves, a chain where the state
    has zero weight is not solved, and only the ChainLevels of each chain
    are kept.  The output times are then taken TIME_BLOCK at a time, in one
    pass: each block's amplitudes give its energy, edge and parity weights,
    mean_n, s_z, and the entropy and concurrence of its checked rho, and
    are freed before the next block.  ConfigError when a phase E t of a
    level is not finite; InvalidDensityMatrix at the first block with an
    invalid rho; on_guard="raise" raises at the first block whose edge
    weight passes EDGE_WEIGHT_TOL, naming the first such time."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.ndim != 1 or not times.size or not np.isfinite(times).all():
        raise ConfigError("times must be finite, 1-d and not empty")
    t_max = float(np.max(np.abs(times)))
    trunc = state.trunc
    levels, photons, dropped = {}, {}, {}
    for parity in (Parity.EVEN, Parity.ODD):
        c0 = state.chain(parity)
        photons[parity], dropped[parity] = 0, 0.0
        # amplitudes whose squares underflow leave nothing to propagate
        if not np.vdot(c0, c0).real:
            continue
        band = build_band(params, parity, trunc)
        (values, vectors, proj, dropped[parity]), photons[parity] = (
            _window_levels(band, c0))
        # E t past the float range would turn every phase into nan
        e_max = float(np.max(np.abs(values)))
        if not math.isfinite(e_max * t_max):
            raise ConfigError(f"phases E t pass the float range: levels up "
                              f"to |E| = {e_max:.3g} at times up to "
                              f"{t_max:.3g}")
        # <psi|H|psi> = a^dagger (V^T H V) a with H V on the chain band, so
        # wrong eigenvectors leave V^T H V off diagonal and show as drift
        h_proj = vectors.T @ band_matvec(band[:, :vectors.shape[0]], vectors)
        levels[parity] = ChainLevels(values, vectors, proj, h_proj)
    table = basis_table(trunc)
    inversion = _inversion(table)
    n_t = len(times)
    (energy, edge, w_even, w_odd, mean_n, s_z, entropy,
     concurrence_) = (np.zeros(n_t) for _ in range(8))
    # each block array is dropped once read, so the peak holds one of them
    for cols in _time_blocks(n_t):
        block, amps = _propagate(levels, trunc, times[cols])
        for parity, a in amps.items():
            energy[cols] += np.sum(a * (levels[parity].h_proj @ a),
                                   axis=0).reshape(-1, 2).sum(axis=1)
        del amps
        probs = _probabilities(block)
        edge[cols] = sum(prob[:, -4:].sum(axis=1) for prob in probs.values())
        over = np.flatnonzero(edge[cols] > EDGE_WEIGHT_TOL)
        if over.size and on_guard == "raise":
            first = cols.start + int(over[0])
            raise TruncationInsufficient(
                f"weight {edge[first]:.2e} on the top two photon levels at "
                f"t={times[first]:g}; raise n_max")
        w_even[cols], w_odd[cols] = (probs[parity].sum(axis=1)
                                     for parity in Parity)
        mean_n[cols] = _chain_sum(probs, table.photon)
        s_z[cols] = _chain_sum(probs, inversion)
        del probs
        evals, evecs = _check_density_matrix(reduced_density_matrix(block))
        del block
        entropy[cols] = _entropy(evals)
        concurrence_[cols] = _concurrence(evals, evecs)
    return Trajectory(times, mean_n, s_z, entropy, concurrence_, energy,
                      np.sqrt(w_even + w_odd), w_even, w_odd,
                      float(np.max(edge)), photons, dropped, levels, trunc)


def evolve_parity(state: ParityDecomposedState, params: ModelParams, times,
                  on_guard: str = "raise") -> Trajectory:
    """Exact evolution of both parity chains, one eigendecomposition per
    chain for every output time.

    Each chain is solved on a certified photon window (``_window_levels``)
    unless the state leaves it empty.  If the weight on the top two photon
    levels exceeds EDGE_WEIGHT_TOL at an output time the run raises
    TruncationInsufficient naming the first such time (on_guard="raise"),
    or records it in max_edge_weight (on_guard="record").  The energy
    a(t)^dagger (V^T H V) a(t) takes H V on the chain band, so
    eigenvectors that do not solve H show as drift.
    """
    if on_guard not in ("raise", "record"):
        raise ValueError("on_guard must be 'raise' or 'record'")
    return _evolve(state, params, times, build_parity_band, on_guard)


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


def evolve_rwa_closed_form(state: ParityDecomposedState, params: ModelParams,
                           times) -> Trajectory:
    """Evolution under the RWA Hamiltonian on the route of evolve_parity.

    Each RWA chain band, its top excitation sector cut by n_max as the full
    chains are, is solved on a certified photon window as in evolve_parity,
    and the run raises TruncationInsufficient past EDGE_WEIGHT_TOL.  The
    energy is taken on the RWA chain bands.
    """
    return _evolve(state, params, times, build_rwa_band, "raise")
