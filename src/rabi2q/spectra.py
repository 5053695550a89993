"""Parity-resolved spectra: coupling sweeps, crossing detection, the
deep-strong-coupling perturbative branches, and RWA error metrics.

Sweep points are evaluated one after another.  Each parity chain gives its
lowest levels from the chain's band on a photon window 0..n_w of the
chain, starting from a displaced-oscillator estimate.  The window's levels
come from the banded kernel (``numerics.eigh_banded_lowest``); the window
is certified when the residual of its zero-padded vectors against the
whole chain, which past the window is
sqrt(n_w + 1) ||[[g1, g2], [g2, g1]] v_top|| (v_top: the window's last two
entries), is within the banded kernel's own bound, and when an inertia
count shows that the whole chain has no more levels below the window's
top solved level than the window has; otherwise it widens.  A window
solves only the k requested levels and keeps only its own rows of their
vectors.  When no window below n_max certifies, or a window's solve fails
its checks, the point is solved by dense ``eigh`` of the whole chain,
whose reported eigenvalues pass a truncation guard: the eigenvector must
carry less than ``GUARD_TOL`` weight on the top two photon levels,
otherwise the level is considered unconverged at this cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import ConfigError, ConvergenceFailure, TruncationInsufficient
from .hamiltonian import build_parity_band, build_rwa_band, expand_dense
from .model import ModelParams, Parity, TruncationConfig
from .numerics import (RESIDUAL_TOL, TIE_GAP, band_matvec, band_norm,
                       displacement_element, eigh, eigh_banded_lowest,
                       general_band)

GUARD_TOL = 1e-8


def converged_mask(vectors: np.ndarray, edge_dim: int) -> np.ndarray:
    """True for columns with < GUARD_TOL weight on the last edge_dim rows.

    edge_dim is 4 for a parity chain and 8 for the full product basis
    (two qubit pairs per photon level vs four).
    """
    edge_weight = np.sum(vectors[-edge_dim:, :] ** 2, axis=0)
    return edge_weight < GUARD_TOL


# factor by which an uncertified photon window widens
WINDOW_GROWTH = 1.5


def _no_level_below(band: np.ndarray, window_dim: int, x: float) -> bool:
    """True when the chain has no more levels below x than its leading
    window_dim rows and columns A.

    By Haynsworth's inertia additivity, H - x has as many negative
    eigenvalues as A - x plus its Schur complement S = C - x - B^T (A - x)^-1 B
    (C the tail block past the window, B the entries joining the two), so
    this holds when S has a Cholesky factor.  B reaches only the first kd
    rows of the tail, so S is the tail band with its leading kd x kd block
    changed.
    """
    from scipy.linalg.lapack import dgbtrf, dgbtrs, dpbtrf

    kd = band.shape[0] - 1
    tail_dim = band.shape[1] - window_dim
    shifted = general_band(band[:, :window_dim])
    shifted[2 * kd] -= x
    lu, pivots, info = dgbtrf(shifted, kd, kd, overwrite_ab=True)
    if info != 0:
        return False
    reach = min(kd, tail_dim)
    coupling = np.zeros((window_dim, reach))      # B, its nonzero columns
    for j in range(reach):
        for d in range(j + 1, min(kd, window_dim + j) + 1):
            coupling[window_dim + j - d, j] = band[d, window_dim + j - d]
    pull, info = dgbtrs(lu, kd, kd, coupling, pivots)
    pull = coupling.T @ pull
    schur = band[:, window_dim:].copy()
    schur[0] -= x
    for d in range(reach):
        schur[d, :reach - d] -= np.diagonal(pull, -d)
    _, info = dpbtrf(schur, lower=1)
    return info == 0


def _certified_window(band: np.ndarray, count: int, n_window: int):
    """The count lowest pairs of a chain band, solved on photons 0..n_w.

    The window is the leading 2 (n_w + 1) rows and columns of the band with
    the entries that reach past it zeroed; it widens by WINDOW_GROWTH, the
    last step capped at n_max - 1, until its pairs pass the certificate of
    ``converged_parity_eigensystem``.  Returns the values and the window
    rows of the vectors (the rows past the window are zeros), or None when
    no window up to n_max - 1 passes or a banded solve fails its checks
    (such as levels that tie).
    """
    dim = band.shape[1]
    n_max = dim // 2 - 1
    tol = RESIDUAL_TOL * band_norm(band)
    # one row beyond count, so the kernel sees a tie across the cut
    n_window = max(n_window, count // 2)
    while n_window < n_max:
        window_dim = 2 * (n_window + 1)
        window = band[:, :window_dim].copy()
        for d in range(1, band.shape[0]):
            window[d, window_dim - d:] = 0.0
        try:
            values, window_vectors = eigh_banded_lowest(window, count)
        except ConvergenceFailure:
            return None
        # H v vanishes past the rows the window's last column reaches
        rows = min(window_dim + band.shape[0] - 1, dim)
        vectors = np.zeros((rows, count))
        vectors[:window_dim] = window_vectors
        residual = np.linalg.norm(band_matvec(band[:, :rows], vectors)
                                  - vectors * values, axis=0)
        # the kernel's tie check puts the window's next level above x
        margin = 0.5 * TIE_GAP * (band_norm(window) or 1.0)
        if (np.max(residual) <= tol and np.linalg.norm(residual) < margin
                and _no_level_below(band, window_dim, values[-1] + margin)):
            return values, window_vectors
        n_window = (min(int(WINDOW_GROWTH * n_window) + 1, n_max - 1)
                    if n_window < n_max - 1 else n_max)
    return None


def converged_parity_eigensystem(params: ModelParams, parity: Parity,
                                 trunc: TruncationConfig, k: int):
    """k lowest converged eigenpairs of one parity block.

    First solves the k lowest levels theta_i on photons 0..n_w only (the
    leading block A of H), from the window ``_start_window(params, k)``.
    The window is accepted when
    - every vector, zero-padded to the chain dimension, has a residual
      ||H v - theta v|| against the whole chain of at most
      RESIDUAL_TOL * ||H||, the banded kernel's own bound (past the window
      that residual is sqrt(n_w + 1) ||[[g1, g2], [g2, g1]] v_top||, with
      v_top the window's last two entries), and the residuals' joint norm
      is below x - theta_top, for x = theta_top + TIE_GAP * ||A|| / 2;
    - the whole chain has no more levels below x than A has
      (``_no_level_below``).  The kernel's tie check puts A's next level
      above x, so the chain has exactly k levels below x.
    Each residual puts a distinct chain level within the residuals' joint
    norm of its theta (Kahan's bound for orthonormal vectors), all of them
    below x, so these are the chain's lowest levels, and Cauchy
    interlacing keeps each at or below its theta.  A residual alone would
    not do: at g1 = g2 = 0 every window has zero residual, yet its first
    cuts can miss low levels that live at higher photon numbers.
    Otherwise the window widens by WINDOW_GROWTH.  An accepted window
    returns only its own rows of the vectors; the chain rows past them are
    exact zeros.

    When no window below n_max certifies, or a window's banded solve fails
    its checks (such as tied levels at g1 = g2 = 0), solves the whole
    chain by dense ``eigh`` and returns the first k levels of its spectrum
    that pass the guard, with vectors over the whole chain.
    """
    band = build_parity_band(params, parity, trunc)
    solved = _certified_window(band, k, _start_window(params, k))
    if solved is not None:
        return solved
    values, vectors = eigh(expand_dense(band))
    keep = np.flatnonzero(converged_mask(vectors, 4))[:k]
    if len(keep) < k:
        raise TruncationInsufficient(
            f"only {len(keep)} of {k} requested eigenvalues "
            f"converged at n_max={trunc.n_max} ({parity.value} parity)")
    # index the kept columns directly so the result owns only its data
    return values[keep], vectors[:, keep]


def _start_window(params: ModelParams, k: int) -> int:
    """Photon window that about holds the k lowest levels.

    The chain holds two ladders, so those levels fill about k / 2 levels
    of each.  Deep in strong coupling the ladders are oscillators
    displaced by g_pm / omega_f, and level m of one spreads to about
    (sqrt(m) + g_pm / omega_f)^2 photons; the factor 1.5 on the
    displacement and the 1.5 added to the root cover the decay of the
    vectors to the residual bound (fitted to the smallest windows that
    certify 13 to 68 levels, g_pm / omega_f up to 8).  With omega_f = 1
    the displacement is g_pm itself.
    """
    shift = max(abs(params.g_plus), abs(params.g_minus))
    # capped, so a huge coupling gives a window past n_max, not an overflow
    return math.ceil(min(math.sqrt(k / 2) + 1.5 * shift + 1.5, 1e8) ** 2)


@dataclass(frozen=True)
class SpectrumSweep:
    """Converged low-lying spectra along a coupling schedule.

    energies[parity] has shape (n_points, k); vectors[parity] is a list of
    (rows, k) eigenvector sets retained for crossing analysis, each holding
    the leading rows of the chain that its solve covered (the rows past
    them are zeros).
    """

    k: int
    g1_values: np.ndarray
    g2_values: np.ndarray
    energies: dict
    vectors: dict

    @property
    def n_points(self) -> int:
        return len(self.g1_values)

    @property
    def primary_values(self) -> np.ndarray:
        """The coupling axis that actually varies (g1 wins ties)."""
        if self.n_points > 1 and np.ptp(self.g1_values) == 0 \
                and np.ptp(self.g2_values) > 0:
            return self.g2_values
        return self.g1_values


def sweep_spectrum(template: ModelParams, g1_values, g2_values,
                   trunc: TruncationConfig, k: int) -> SpectrumSweep:
    """Diagonalize both parity blocks at every point of a coupling schedule.

    g1_values and g2_values must have equal length; pass a constant array to
    hold one coupling fixed.  Raises TruncationInsufficient if any point
    yields fewer than k converged eigenvalues in either parity.
    """
    g1_values = np.atleast_1d(np.asarray(g1_values, dtype=float))
    g2_values = np.atleast_1d(np.asarray(g2_values, dtype=float))
    if g1_values.shape != g2_values.shape:
        raise ValueError("coupling schedules must have equal length")
    if k < 1 or k > trunc.chain_dim:
        raise ConfigError("k must be in [1, chain dimension]")

    energies, vectors = {}, {}
    for parity in (Parity.EVEN, Parity.ODD):
        energies[parity], vectors[parity] = [], []
        for g1, g2 in zip(g1_values, g2_values):
            params = replace(template, g_1=float(g1), g_2=float(g2))
            values, vecs = converged_parity_eigensystem(params, parity,
                                                        trunc, k)
            energies[parity].append(values)
            vectors[parity].append(vecs)
        energies[parity] = np.array(energies[parity])
    return SpectrumSweep(k, g1_values, g2_values, energies, vectors)


class CrossingKind(Enum):
    CROSSING = "crossing"
    AVOIDED_OR_UNRESOLVED = "avoided_or_unresolved"


@dataclass(frozen=True)
class CrossingRecord:
    parity: Parity
    branch_lo: int
    index_lo: int
    index_hi: int
    g_lo: float
    g_hi: float
    min_gap: float
    kind: CrossingKind


def detect_crossings(sweep: SpectrumSweep, parity: Parity,
                     gap_tol: float = 0.05,
                     overlap_tol: float = 0.2) -> list[CrossingRecord]:
    """Classify every gap minimum below gap_tol between adjacent branches.

    A dip is a Crossing when the eigenvector assignment swaps across it:
    |<v_i(before)|v_{i+1}(after)>| > 1 - overlap_tol while
    |<v_i(before)|v_i(after)>| < overlap_tol.  Anything else (including
    dips at the sweep boundary, which cannot be bracketed) is reported as
    AvoidedOrUnresolved.  The overlaps run over the rows that both vector
    sets hold.
    """
    energies = sweep.energies[parity]
    vectors = sweep.vectors[parity]
    gvals = sweep.primary_values
    n_pts = sweep.n_points
    records = []
    for i in range(sweep.k - 1):
        gap = energies[:, i + 1] - energies[:, i]
        below = gap < gap_tol
        t = 0
        while t < n_pts:
            if not below[t]:
                t += 1
                continue
            end = t
            while end + 1 < n_pts and below[end + 1]:
                end += 1
            t_min = t + int(np.argmin(gap[t:end + 1]))
            if 0 < t_min < n_pts - 1:
                # the shorter set is zero past its rows
                rows = min(len(vectors[t_min - 1]), len(vectors[t_min + 1]))
                before = vectors[t_min - 1][:rows]
                after = vectors[t_min + 1][:rows]
                swap = abs(before[:, i] @ after[:, i + 1])
                stay = abs(before[:, i] @ after[:, i])
                kind = (CrossingKind.CROSSING
                        if swap > 1.0 - overlap_tol and stay < overlap_tol
                        else CrossingKind.AVOIDED_OR_UNRESOLVED)
                lo, hi = t_min - 1, t_min + 1
            else:
                kind = CrossingKind.AVOIDED_OR_UNRESOLVED
                lo, hi = max(t_min - 1, 0), min(t_min + 1, n_pts - 1)
            records.append(CrossingRecord(parity, i, lo, hi,
                                          float(gvals[lo]), float(gvals[hi]),
                                          float(gap[t_min]), kind))
            t = end + 1
    return records


@dataclass(frozen=True)
class PerturbativeSpectrum:
    """Deep-strong-coupling branch energies with second-order shifts.

    Each branch m has zeroth-order energy m - g_pm^2 (omega_f = 1) and a
    second-order shift; entries whose correction sum hits a near-resonant
    denominator are NaN and listed in ``resonant`` as (branch, m, n).
    """

    branch1_zeroth: np.ndarray
    branch1_shift: np.ndarray
    branch2_zeroth: np.ndarray
    branch2_shift: np.ndarray
    resonant: tuple = field(default_factory=tuple)

    @property
    def branch1(self) -> np.ndarray:
        return self.branch1_zeroth - self.branch1_shift

    @property
    def branch2(self) -> np.ndarray:
        return self.branch2_zeroth - self.branch2_shift


SMALL_DENOMINATOR_TOL = 1e-6
TAIL_STOP = 1e-12


def _finite_square(x: float) -> float:
    """x ** 2; ConfigError unless finite and |x| < 1e154."""
    value = x ** 2 if abs(x) < 1e154 else math.inf
    if not math.isfinite(value):
        raise ConfigError(f"frequency or coupling {x:g} is out of range for "
                          f"the perturbative sums (its square is not finite)")
    return value


def _second_order_shift(params: ModelParams, m: int, branch_sign: int,
                        n_cut: int):
    """Second-order shift of displaced-oscillator level m for one branch.

    The intermediate states live on the other displaced ladder, offset by
    4 g1 g2 (omega_f = 1); branch_sign +1 selects the g_plus ladder (the
    denominator then reads (n-m) + 4 g1 g2), -1 the g_minus ladder.
    Summation stops at n_cut or once the tail term drops below TAIL_STOP.
    Returns (shift, resonant_n or None).
    """
    w1_sq, w2_sq = map(_finite_square, (params.omega_1, params.omega_2))
    offset = 4.0 * params.g_1 * params.g_2
    total = 0.0
    small_run = 0
    for n in range(n_cut + 1):
        if n == m:
            continue
        den = n - m + branch_sign * offset
        if abs(den) < SMALL_DENOMINATOR_TOL:
            return np.nan, n
        w = 0.25 * (w1_sq * displacement_element(m, n, params.g_1) ** 2
                    + w2_sq * displacement_element(m, n, params.g_2) ** 2)
        total += w / den
        # displacement elements have isolated Laguerre zeros mid
        # distribution, so one small term is not yet a converged tail
        small_run = small_run + 1 if w / abs(den) < TAIL_STOP else 0
        if n > m + 4 and small_run >= 3:
            break
    return total, None


def dsc_perturbative_spectrum(params: ModelParams, m_max: int,
                              n_cut: int | None = None
                              ) -> PerturbativeSpectrum:
    """Perturbative branch energies for m = 0..m_max.

    Near-resonant corrections (denominator below 1e-6 omega_f) are reported
    as NaN entries rather than silently large numbers.  A squared
    frequency or coupling term, or a shift, that is not finite raises
    ConfigError.
    """
    if m_max < 0:
        raise ConfigError("m_max must be >= 0")
    if n_cut is not None and n_cut < 0:
        raise ConfigError("n_cut must be >= 0")
    m_values = np.arange(m_max + 1)
    z1 = m_values - _finite_square(params.g_plus)
    z2 = m_values - _finite_square(params.g_minus)
    s1 = np.empty(m_max + 1)
    s2 = np.empty(m_max + 1)
    resonant = []
    for m in range(m_max + 1):
        cut = n_cut if n_cut is not None else m + 80
        for sign, out, label in ((+1, s1, 1), (-1, s2, 2)):
            shift, bad_n = _second_order_shift(params, m, sign, cut)
            if bad_n is not None:
                resonant.append((label, m, bad_n))
            elif not math.isfinite(shift):
                raise ConfigError(f"branch {label}, m={m}: the second-order "
                                  f"shift is not finite")
            out[m] = shift
    return PerturbativeSpectrum(z1, s1, z2, s2, tuple(resonant))


@dataclass(frozen=True)
class RwaErrorReport:
    """Per-eigenvalue relative RWA errors after ascending-sort pairing."""

    e_full: np.ndarray
    e_rwa: np.ndarray
    errors: np.ndarray
    mean_error: float
    ground_error: float


def rwa_relative_error(params: ModelParams, trunc: TruncationConfig,
                       k: int) -> RwaErrorReport:
    """|E_RWA,i - E_full,i| / |E_full,i| for the k lowest converged levels.

    Neither Hamiltonian couples the two parities, so each spectrum is the
    merged converged levels of its two chains, each solved by dense eigh.
    """
    if k < 1:
        raise ConfigError("k must be >= 1")
    results = []
    for builder in (build_parity_band, build_rwa_band):
        levels = []
        for parity in (Parity.EVEN, Parity.ODD):
            values, vectors = eigh(expand_dense(builder(params, parity,
                                                        trunc)))
            levels.append(values[converged_mask(vectors, 4)])
        levels = np.sort(np.concatenate(levels))
        if len(levels) < k:
            raise TruncationInsufficient(
                f"only {len(levels)} of {k} eigenvalues converged "
                f"at n_max={trunc.n_max}")
        results.append(levels[:k])
    e_full, e_rwa = results
    diff = np.abs(e_rwa - e_full)
    with np.errstate(divide="ignore", invalid="ignore"):
        errors = np.divide(diff, np.abs(e_full),
                           out=np.zeros_like(diff), where=diff != 0.0)
    return RwaErrorReport(e_full, e_rwa, errors,
                          float(np.mean(errors)), float(errors[0]))
