"""Time evolution and entanglement observables.

Two propagation routes: numerically exact evolution of the two parity chains
(one eigendecomposition per chain, shared across all output times) and the
closed-form RWA evolution assembled from excitation-sector blocks.  The
observables of interest are the mean photon number, the population inversion,
the two-qubit reduced density matrix and the entanglement measures derived
from it (von Neumann entropy, Wootters concurrence).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateResolvent, InvalidDensityMatrix,
                     TruncationInsufficient)
from .hamiltonian import (build_parity_matrix, build_rwa_excitation_block,
                          build_rwa_full)
from .model import (ModelParams, Parity, QubitLevel, TruncationConfig,
                    basis_table)
from .numerics import eigh, propagate_spectral

EDGE_WEIGHT_TOL = 1e-6
COHERENT_LEAKAGE_TOL = 1e-12


@dataclass(frozen=True)
class ParityDecomposedState:
    """Pure system state as complex amplitudes over the two parity chains."""

    c_even: np.ndarray
    c_odd: np.ndarray
    trunc: TruncationConfig

    def __post_init__(self):
        if (self.c_even.shape[0] != self.trunc.chain_dim
                or self.c_odd.shape[0] != self.trunc.chain_dim):
            raise ValueError("chain amplitude length does not match trunc")

    def chain(self, parity: Parity) -> np.ndarray:
        return self.c_even if parity is Parity.EVEN else self.c_odd

    @property
    def norm(self) -> float:
        return math.hypot(np.linalg.norm(self.c_even),
                          np.linalg.norm(self.c_odd))

    def parity_weights(self) -> tuple[float, float]:
        return (float(np.sum(np.abs(self.c_even) ** 2)),
                float(np.sum(np.abs(self.c_odd) ** 2)))

    def edge_weight(self) -> float:
        """Probability on the top two photon levels (last 4 chain slots)."""
        return float(np.sum(np.abs(self.c_even[-4:]) ** 2)
                     + np.sum(np.abs(self.c_odd[-4:]) ** 2))

    def to_full(self) -> np.ndarray:
        """Amplitudes in the product basis |n>|q1>|q2>."""
        out = np.zeros(self.trunc.full_dim, dtype=complex)
        full_index = basis_table(self.trunc).full_index
        out[full_index[Parity.EVEN]] = self.c_even
        out[full_index[Parity.ODD]] = self.c_odd
        return out


def state_from_full(psi: np.ndarray, trunc: TruncationConfig
                    ) -> ParityDecomposedState:
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
    log_mag = (n * math.log(abs(alpha)) - abs(alpha) ** 2 / 2.0
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
        if n_fock > trunc.n_max:
            raise TruncationInsufficient(
                f"Fock level {n_fock} above n_max={trunc.n_max}")
        amps = np.zeros(trunc.n_max + 1, dtype=complex)
        amps[n_fock] = 1.0
    table = basis_table(trunc)
    c = {}
    for parity in (Parity.EVEN, Parity.ODD):
        c[parity] = np.zeros(trunc.chain_dim, dtype=complex)
        slots = ((table.sz1[parity] == q1.sz)
                 & (table.sz2[parity] == q2.sz))
        c[parity][slots] = amps[table.photon[parity][slots]]
    norm = math.hypot(np.linalg.norm(c[Parity.EVEN]),
                      np.linalg.norm(c[Parity.ODD]))
    return ParityDecomposedState(c[Parity.EVEN] / norm, c[Parity.ODD] / norm,
                                 trunc)


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------

def mean_photon_number(state: ParityDecomposedState) -> float:
    n = basis_table(state.trunc).photon
    return float(n[Parity.EVEN] @ np.abs(state.c_even) ** 2
                 + n[Parity.ODD] @ np.abs(state.c_odd) ** 2)


def population_inversion(state: ParityDecomposedState) -> float:
    table = basis_table(state.trunc)
    total = 0.0
    for parity in (Parity.EVEN, Parity.ODD):
        sz = 0.5 * (table.sz1[parity] + table.sz2[parity])
        total += sz @ np.abs(state.chain(parity)) ** 2
    return float(total)


def _padded_quads(c: np.ndarray) -> np.ndarray:
    """Chain amplitudes grouped in fours, zero-padded at the tail."""
    pad = (-len(c)) % 4
    if pad:
        c = np.concatenate([c, np.zeros(pad, dtype=complex)])
    return c.reshape(-1, 4)


def reduced_density_matrix(state: ParityDecomposedState) -> np.ndarray:
    """Two-qubit reduced density matrix, basis order (ee, eg, ge, gg).

    Assembled directly from the parity-chain amplitudes: within each group
    of four chain slots the even chain holds (gg, ee) at photon 2n and
    (eg, ge) at photon 2n+1, the odd chain (eg, ge) then (gg, ee), which
    fixes which amplitude products feed each matrix entry.
    """
    p = _padded_quads(state.c_even)
    m = _padded_quads(state.c_odd)
    n_blocks = max(p.shape[0], m.shape[0])
    if p.shape[0] < n_blocks:
        p = np.vstack([p, np.zeros((n_blocks - p.shape[0], 4), complex)])
    if m.shape[0] < n_blocks:
        m = np.vstack([m, np.zeros((n_blocks - m.shape[0], 4), complex)])
    p0, p1, p2, p3 = p.T
    m0, m1, m2, m3 = m.T

    def dot(a, b):
        return np.sum(a * np.conj(b))

    rho = np.empty((4, 4), dtype=complex)
    rho[0, 0] = dot(p1, p1) + dot(m3, m3)
    rho[0, 1] = dot(p1, m0) + dot(m3, p2)
    rho[0, 2] = dot(p1, m1) + dot(m3, p3)
    rho[0, 3] = dot(p1, p0) + dot(m3, m2)
    rho[1, 1] = dot(p2, p2) + dot(m0, m0)
    rho[1, 2] = dot(p2, p3) + dot(m0, m1)
    rho[1, 3] = dot(p2, m2) + dot(m0, p0)
    rho[2, 2] = dot(p3, p3) + dot(m1, m1)
    rho[2, 3] = dot(p3, m2) + dot(m1, p0)
    rho[3, 3] = dot(p0, p0) + dot(m2, m2)
    for i in range(4):
        for j in range(i):
            rho[i, j] = np.conj(rho[j, i])
    return rho


def _check_density_matrix(rho: np.ndarray) -> np.ndarray:
    evals = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    if np.min(evals) < -1e-8:
        raise InvalidDensityMatrix(
            f"density matrix has eigenvalue {np.min(evals):.3e}")
    return np.clip(evals, 0.0, None)


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy -sum l ln l in nats, with 0 ln 0 = 0."""
    evals = _check_density_matrix(rho)
    nz = evals[evals > 0]
    return float(-np.sum(nz * np.log(nz)))


_SPIN_FLIP = np.zeros((4, 4))
_SPIN_FLIP[0, 3] = _SPIN_FLIP[3, 0] = -1.0
_SPIN_FLIP[1, 2] = _SPIN_FLIP[2, 1] = 1.0


def concurrence(rho: np.ndarray) -> float:
    """Wootters concurrence in the fixed (ee, eg, ge, gg) basis."""
    _check_density_matrix(rho)
    rho_tilde = _SPIN_FLIP @ rho.conj() @ _SPIN_FLIP
    evals = np.linalg.eigvals(rho @ rho_tilde)
    lam = np.sqrt(np.clip(np.sort(evals.real)[::-1], 0.0, None))
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Trajectory:
    """Observables along an evolution; optionally the states themselves.

    energy, norms and parity weights are retained as conservation
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
    states: list | None = None


def _expectation(h: np.ndarray, psi_t: np.ndarray) -> np.ndarray:
    """<psi|H|psi> for every column of psi_t, applying H directly.

    H is real symmetric, so the real and imaginary parts of psi contribute
    separately and no complex copy of H is needed.
    """
    return sum(np.sum(part * (h @ part), axis=0)
               for part in (psi_t.real, psi_t.imag))


def _trajectory(c_even_t: np.ndarray, c_odd_t: np.ndarray,
                trunc: TruncationConfig, times: np.ndarray,
                energies: np.ndarray, store_states: int, guard_tol: float,
                on_guard: str) -> Trajectory:
    """Observables of the chain amplitudes held one column per time."""
    n_t = len(times)
    mean_n = np.empty(n_t)
    s_z = np.empty(n_t)
    ent = np.empty(n_t)
    conc = np.empty(n_t)
    norms = np.empty(n_t)
    w_even = np.empty(n_t)
    w_odd = np.empty(n_t)
    max_edge = 0.0
    kept = [] if store_states else None
    for i, t in enumerate(times):
        st = ParityDecomposedState(c_even_t[:, i], c_odd_t[:, i], trunc)
        edge = st.edge_weight()
        max_edge = max(max_edge, edge)
        if edge > guard_tol and on_guard == "raise":
            raise TruncationInsufficient(
                f"weight {edge:.2e} on the top two photon levels at "
                f"t={t:g}; raise n_max")
        mean_n[i] = mean_photon_number(st)
        s_z[i] = population_inversion(st)
        rho = reduced_density_matrix(st)
        ent[i] = von_neumann_entropy(rho)
        conc[i] = concurrence(rho)
        norms[i] = st.norm
        w_even[i], w_odd[i] = st.parity_weights()
        if store_states and i % store_states == 0:
            kept.append((i, st))
    return Trajectory(times, mean_n, s_z, ent, conc, energies, norms,
                      w_even, w_odd, max_edge, kept)


def evolve_parity(state: ParityDecomposedState, params: ModelParams, times,
                  store_states: int = 0, guard_tol: float = EDGE_WEIGHT_TOL,
                  on_guard: str = "raise") -> Trajectory:
    """Exact evolution of both parity chains by spectral decomposition.

    One eigendecomposition per chain serves every output time.  If the
    state weight on the top two photon levels exceeds guard_tol at any
    output time the run raises TruncationInsufficient (on_guard="raise") or
    completes and records the violation in max_edge_weight
    (on_guard="record").  The energy is <psi(t)|H|psi(t)> with the chain
    matrices applied directly, so it does not rely on the decomposition
    that propagated the state.
    """
    if on_guard not in ("raise", "record"):
        raise ValueError("on_guard must be 'raise' or 'record'")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    trunc = state.trunc
    evolved = {}
    energies = np.zeros(len(times))
    for parity in (Parity.EVEN, Parity.ODD):
        h = build_parity_matrix(params, parity, trunc)
        evolved[parity] = propagate_spectral(eigh(h), state.chain(parity),
                                             times)
        energies += _expectation(h, evolved[parity])
    return _trajectory(evolved[Parity.EVEN], evolved[Parity.ODD], trunc,
                       times, energies, store_states, guard_tol, on_guard)


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


def quartic_coefficients_from_block(params: ModelParams,
                                    n: int) -> QuarticCoefficients:
    """Same coefficients recomputed from the sector matrix via trace powers."""
    if n < 2:
        raise ValueError("the full 4x4 sector requires n >= 2")
    h = build_rwa_excitation_block(params, n).matrix
    h2 = h @ h
    p2 = float(np.trace(h2))
    p3 = float(np.trace(h2 @ h))
    p4 = float(np.trace(h2 @ h2))
    c2 = -p2 / 2.0
    c1 = -p3 / 3.0
    c0 = -(p4 + c2 * p2) / 4.0
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
                           times, store_states: int = 0,
                           backend: str = "eigh") -> Trajectory:
    """Closed-form RWA evolution assembled from excitation sectors.

    The RWA Hamiltonian is block diagonal in the excitation number; each
    occupied sector block is diagonalized once (backend "eigh") or through
    the closed-form quartic roots of its characteristic polynomial
    (backend "quartic", full 4x4 sectors only, with eigh handling the
    degenerate cases) and the lab-frame phase exp(-i omega_f (N-1) t) is
    restored when reassembling.
    """
    if backend not in ("eigh", "quartic"):
        raise ValueError("backend must be 'eigh' or 'quartic'")
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
        if backend == "quartic" and block.matrix.shape[0] == 4:
            try:
                # same spectrum, ascending in both routes
                vals = quartic_roots(quartic_coefficients_from_block(
                    params, sector))
            except DegenerateResolvent:
                pass
        proj = vecs.T @ amps0
        frame = np.exp(-1j * params.omega_f * (sector - 1) * times)
        phases = np.exp(-1j * np.outer(vals, times)) * proj[:, None]
        evolved[idx] += (vecs @ phases) * frame[None, :]

    energies = _expectation(build_rwa_full(params, out_trunc), evolved)
    return _trajectory(evolved[table.full_index[Parity.EVEN]],
                       evolved[table.full_index[Parity.ODD]], out_trunc,
                       times, energies, store_states, EDGE_WEIGHT_TOL,
                       "record")
