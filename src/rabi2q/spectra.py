"""Parity-resolved spectra: coupling sweeps, crossing detection, the
deep-strong-coupling perturbative branches, and RWA error metrics.

Sweep points are evaluated one after another.  Each parity chain gives its
lowest levels from the chain's band (``numerics.eigh_banded_lowest``), with
dense ``eigh`` as the fallback when the banded solve fails its checks.
Reported eigenvalues pass a truncation guard: the eigenvector must carry
less than ``GUARD_TOL`` weight on the top two photon levels, otherwise the
level is considered unconverged at this cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import (ConfigError, ConvergenceFailure, SmallDenominator,
                     TruncationInsufficient)
from .hamiltonian import (build_parity_band, build_parity_matrix,
                          build_rwa_band, expand_dense)
from .model import ModelParams, Parity, TruncationConfig
from .numerics import displacement_element, eigh, eigh_banded_lowest

GUARD_TOL = 1e-8


def converged_mask(vectors: np.ndarray, edge_dim: int) -> np.ndarray:
    """True for columns with < GUARD_TOL weight on the last edge_dim rows.

    edge_dim is 4 for a parity chain and 8 for the full product basis
    (two qubit pairs per photon level vs four).
    """
    edge_weight = np.sum(vectors[-edge_dim:, :] ** 2, axis=0)
    return edge_weight < GUARD_TOL


# levels solved beyond the k requested, so that a few unconverged levels
# among the lowest do not force a second solve
LEVEL_MARGIN = 8


def converged_parity_eigensystem(params: ModelParams, parity: Parity,
                                 trunc: TruncationConfig, k: int):
    """k lowest converged eigenpairs of one parity block.

    Solves the k + LEVEL_MARGIN lowest levels from the chain's band and
    doubles that count, up to the chain dimension, while fewer than k of
    them pass the guard, so the result is the first k converged levels of
    the whole spectrum.  A banded solve that fails its checks falls back to
    dense ``eigh`` of the whole chain.
    """
    band = build_parity_band(params, parity, trunc)
    dim = trunc.chain_dim
    count = min(k + LEVEL_MARGIN, dim)
    while True:
        try:
            values, vectors = eigh_banded_lowest(band, count)
        except ConvergenceFailure:
            values, vectors = eigh(build_parity_matrix(params, parity, trunc))
            count = dim
        keep = np.flatnonzero(converged_mask(vectors, 4))[:k]
        if len(keep) == k or count == dim:
            break
        count = min(2 * count, dim)
    if len(keep) < k:
        raise TruncationInsufficient(
            f"only {len(keep)} of {k} requested eigenvalues "
            f"converged at n_max={trunc.n_max} ({parity.value} parity)")
    # index the kept columns directly so the result owns only its data
    return values[keep], vectors[:, keep]


@dataclass(frozen=True)
class SpectrumSweep:
    """Converged low-lying spectra along a coupling schedule.

    energies[parity] has shape (n_points, k); vectors[parity] is a list of
    (dim, k) eigenvector sets retained for crossing analysis.
    """

    params_template: ModelParams
    trunc: TruncationConfig
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
        pairs = [converged_parity_eigensystem(
                     replace(template, g_1=float(g1), g_2=float(g2)),
                     parity, trunc, k)
                 for g1, g2 in zip(g1_values, g2_values)]
        energies[parity] = np.array([values for values, _ in pairs])
        vectors[parity] = [vecs for _, vecs in pairs]
    return SpectrumSweep(template, trunc, k, g1_values, g2_values,
                         energies, vectors)


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
    AvoidedOrUnresolved.
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
                before, after = vectors[t_min - 1], vectors[t_min + 1]
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

    Each branch m has zeroth-order energy m*omega_f - g_pm^2/omega_f and a
    second-order shift; entries whose correction sum hits a near-resonant
    denominator are NaN and listed in ``resonant`` as (branch, m, n).
    """

    params: ModelParams
    m_values: np.ndarray
    branch1_zeroth: np.ndarray
    branch1_shift: np.ndarray
    branch2_zeroth: np.ndarray
    branch2_shift: np.ndarray
    n_cut: int
    resonant: tuple = field(default_factory=tuple)

    @property
    def branch1(self) -> np.ndarray:
        return self.branch1_zeroth - self.branch1_shift

    @property
    def branch2(self) -> np.ndarray:
        return self.branch2_zeroth - self.branch2_shift


SMALL_DENOMINATOR_TOL = 1e-6
TAIL_STOP = 1e-12


def _second_order_shift(params: ModelParams, m: int, branch_sign: int,
                        n_cut: int):
    """Second-order shift of displaced-oscillator level m for one branch.

    The intermediate states live on the other displaced ladder, offset by
    4 g1 g2 / omega_f; branch_sign +1 selects the g_plus ladder (the
    denominator then reads omega_f (n-m) + 4 g1 g2 / omega_f), -1 the
    g_minus ladder.  Summation stops at n_cut or once the tail term drops
    below TAIL_STOP.  Returns (shift, resonant_n or None).
    """
    wf = params.omega_f
    w1, w2 = params.omega_1, params.omega_2
    x1, x2 = params.g_1 / wf, params.g_2 / wf
    offset = 4.0 * params.g_1 * params.g_2 / wf
    total = 0.0
    small_run = 0
    for n in range(n_cut + 1):
        if n == m:
            continue
        den = wf * (n - m) + branch_sign * offset
        if abs(den) < SMALL_DENOMINATOR_TOL * wf:
            return np.nan, n
        w = 0.25 * (w1 ** 2 * displacement_element(m, n, x1) ** 2
                    + w2 ** 2 * displacement_element(m, n, x2) ** 2)
        total += w / den
        # displacement elements have isolated Laguerre zeros mid
        # distribution, so one small term is not yet a converged tail
        small_run = small_run + 1 if w / abs(den) < TAIL_STOP else 0
        if n > m + 4 and small_run >= 3:
            break
    return total, None


def dsc_perturbative_spectrum(params: ModelParams, m_max: int,
                              n_cut: int | None = None,
                              strict: bool = False) -> PerturbativeSpectrum:
    """Perturbative branch energies for m = 0..m_max.

    Near-resonant corrections (denominator below 1e-6 omega_f) are reported
    as NaN entries rather than silently large numbers; with strict=True the
    first one raises SmallDenominator instead.
    """
    if m_max < 0:
        raise ConfigError("m_max must be >= 0")
    if n_cut is not None and n_cut < 0:
        raise ConfigError("n_cut must be >= 0")
    wf = params.omega_f
    m_values = np.arange(m_max + 1)
    z1 = m_values * wf - params.g_plus ** 2 / wf
    z2 = m_values * wf - params.g_minus ** 2 / wf
    s1 = np.empty(m_max + 1)
    s2 = np.empty(m_max + 1)
    resonant = []
    for m in range(m_max + 1):
        cut = n_cut if n_cut is not None else m + 80
        for sign, out, label in ((+1, s1, 1), (-1, s2, 2)):
            shift, bad_n = _second_order_shift(params, m, sign, cut)
            if bad_n is not None:
                if strict:
                    raise SmallDenominator(
                        f"branch {label}, m={m}: denominator vanishes at "
                        f"intermediate level n={bad_n}")
                resonant.append((label, m, bad_n))
            out[m] = shift
    return PerturbativeSpectrum(params, m_values, z1, s1, z2, s2,
                                n_cut if n_cut is not None else m_max + 80,
                                tuple(resonant))


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


def doubling_check(params: ModelParams, parity: Parity,
                   trunc: TruncationConfig, k: int,
                   tol: float = 1e-6) -> np.ndarray:
    """k lowest eigenvalues stable under doubling n_max to within tol.

    Raises TruncationInsufficient when doubling still moves any of the k
    lowest levels by more than tol (in units of omega_f).
    """
    vals, _ = converged_parity_eigensystem(params, parity, trunc, k)
    big = TruncationConfig(2 * trunc.n_max)
    vals2, _ = converged_parity_eigensystem(params, parity, big, k)
    moved = np.abs(vals - vals2) > tol * params.omega_f
    if np.any(moved):
        raise TruncationInsufficient(
            f"{np.count_nonzero(moved)} of {k} branches move more than "
            f"{tol} omega_f when n_max doubles from {trunc.n_max}")
    return vals
