"""Parity-resolved spectra: coupling sweeps, crossing detection, the
deep-strong-coupling perturbative branches, and RWA error metrics.

Each parity chain gives its lowest levels by dense ``eigh`` of a leading
photon window 0..n_w of the chain band, on the window ladder
``numerics.photon_windows`` from a displaced-oscillator estimate.  The
window is certified when the residual of its zero-padded vectors against
the whole chain, which past the window is
sqrt(n_w + 1) ||[[g1, g2], [g2, g1]] v_top|| (v_top: the window's last
two entries), is within ``RESIDUAL_TOL`` ||H||, and when an inertia count
shows that the whole chain has no more levels below the cut, midway to
the window's next level, than the window has; otherwise it widens.  A
sweep climbs the ladders of all its points together, one rung at a time.
The rung's windows are solved and residual-tested on a thread pool sized
to the cores that BLAS leaves idle (one thread, the calling one, when
BLAS threads fill every core), and the levels of every rung's candidate
chains below their cuts are then counted in one batched, numpy only pass
of the 2 x 2 block pivots of the whole chain from photon 0
(``numerics.block_pivots``, the kernel of the recurrence eigenstates
too).  Each window is one LAPACK call whichever thread makes it,
so the results do not depend on the number of threads.  A point keeps
only the k requested levels and its window's rows of their vectors.
When no window short of the whole chain certifies, the point is solved by
dense ``eigh`` of the whole chain, whose reported eigenvalues pass a
truncation guard: the eigenvector must carry less than ``GUARD_TOL``
weight on the top two photon levels, otherwise the level is considered
unconverged at this cutoff.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import ConfigError, TruncationInsufficient
from .hamiltonian import build_parity_band, build_rwa_band
from .model import ModelParams, Parity, TruncationConfig
from .numerics import (RESIDUAL_TOL, band_norm, block_pivots,
                       displacement_element, eigh, expand_dense,
                       padded_residuals, photon_windows, pivot_shift)

GUARD_TOL = 1e-8


def converged_mask(vectors: np.ndarray, edge_dim: int) -> np.ndarray:
    """True for columns with < GUARD_TOL weight on the last edge_dim rows.

    edge_dim is 4 for a parity chain and 8 for the full product basis
    (two qubit pairs per photon level vs four).
    """
    edge_weight = np.sum(vectors[-edge_dim:, :] ** 2, axis=0)
    return edge_weight < GUARD_TOL


def _levels_below(bands: np.ndarray, norms: np.ndarray,
                  x: np.ndarray) -> np.ndarray:
    """The number of levels of each chain band below its cut x.

    bands has shape (points, 4, chain_dim), and norms and x hold one
    ||H|| and one cut per point.  By Sylvester's law of inertia, H - x has
    as many negative eigenvalues as the 2 x 2 pivots of its block LDL^T
    factorization from photon 0 (``numerics.block_pivots``, one lane per
    point, each chain scaled by its ``numerics.pivot_shift`` and its pivots
    floored at (eps ||H||)^2) have.
    """
    shift = np.array([pivot_shift(norm) for norm in norms])
    bands = np.ldexp(bands, -shift[:, None, None])
    x, norms = np.ldexp(x, -shift), np.ldexp(norms, -shift)
    diag = bands[:, 0].T
    a, b = (np.vstack((np.zeros(len(bands)), bands[:, d, 0:-2:2].T))
            for d in (2, 3))
    floor = (np.finfo(float).eps * norms) ** 2
    _, (_, _, inv_b, inv_s), _ = block_pivots(diag[0::2] - x,
                                              diag[1::2] - x, a, b, floor)
    return np.sum(inv_b < 0, axis=0) + np.sum(inv_s < 0, axis=0)


def _pool_workers(points: int) -> int:
    """Threads for the window solves of points sweep points: the cores that
    BLAS leaves idle, max(1, cpus // blas_threads), at most points.

    cpus is the process's CPU affinity (else ``os.cpu_count()``), and
    blas_threads is ``OPENBLAS_NUM_THREADS``, else ``OMP_NUM_THREADS``,
    where set to a positive integer, else cpus, which is OpenBLAS's own
    default.  So with both unset a sweep runs on one thread, as OpenBLAS
    already fills every core.  The settings are only read, never changed.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        cpus = os.cpu_count() or 1
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            blas_threads = int(os.environ[name])
        except (KeyError, ValueError):
            continue
        if blas_threads > 0:
            break
    else:
        blas_threads = cpus
    return max(1, min(cpus // blas_threads, points))


def _certified_windows(bands: np.ndarray, starts, count: int) -> list:
    """The count lowest pairs of each chain band, solved on photons
    0..n_w, or None for a point whose ladder runs out.

    Each point climbs its own ladder of ``photon_windows`` from its start
    window, at least count // 2 so that a window holds the level past the
    cut, up to the last window short of the whole chain, until one passes
    the certificate of ``converged_parity_eigensystem``.  Per rung, the
    pending points' windows are solved on a thread pool made for the call,
    of ``_pool_workers`` threads (numpy's LAPACK releases the GIL, so each
    thread keeps one core busy); with one worker the rung runs on the
    calling thread.  A task solves its point's window and tests its
    residuals, and returns only what the certificate keeps: its count
    values and a copy of their vector columns and its cut x, or a
    rejection; so no more windows are alive than workers.  Then one
    batched ``_levels_below`` on the calling thread counts the levels of
    all of the rung's candidate chains below their cuts, and a candidate
    certifies where that count is count.  Each window is still one LAPACK
    call, and the rung's results are taken in point order, so the output
    does not depend on the number of workers.
    Returns the values and the window rows of the vectors (the rows past
    the window are zeros).
    """
    ladders = [photon_windows(band, max(start, count // 2),
                              band.shape[1] - 1)
               for band, start in zip(bands, starts)]
    norms = np.array([band_norm(band) for band in bands])

    def climb(point):
        """None when point's ladder has run out, False when its next window
        fails the residual test, else (x, pair)."""
        rung = next(ladders[point], None)
        if rung is None:
            return None
        _, (values, vectors) = rung
        residual = padded_residuals(bands[point], values[:count],
                                    vectors[:, :count])
        top = values[count - 1]
        x = 0.5 * (top + values[count])
        if not (np.max(residual) <= RESIDUAL_TOL * norms[point]
                and math.hypot(*residual) < x - top):
            return False
        # copies, so the result owns only the count columns
        return x, (values[:count].copy(), vectors[:, :count].copy())

    solved = [None] * len(bands)
    pending = range(len(bands))
    workers = _pool_workers(len(bands))
    with contextlib.ExitStack() as stack:
        run = map
        if workers > 1:
            # imported here, so that a run that makes no pool does not pay
            # for the import (about 6 ms, logging included)
            from concurrent.futures import ThreadPoolExecutor
            run = stack.enter_context(ThreadPoolExecutor(workers)).map
        while pending:
            widen, found = [], []
            for point, outcome in zip(pending, run(climb, pending)):
                if outcome is False:
                    widen.append(point)
                elif outcome is not None:
                    found.append((point, *outcome))
            if found:
                points, x, pairs = zip(*found)
                points = list(points)
                below = _levels_below(bands[points], norms[points],
                                      np.array(x))
                for point, levels, pair in zip(points, below, pairs):
                    if levels == count:
                        solved[point] = pair
                    else:
                        widen.append(point)
            pending = sorted(widen)
    return solved


def _converged_pairs(points, parity: Parity, trunc: TruncationConfig,
                     k: int) -> list:
    """``converged_parity_eigensystem`` at every ModelParams of points."""
    if not 1 <= k <= trunc.chain_dim:
        raise ConfigError(f"{k} levels per chain is outside [1, "
                          f"{trunc.chain_dim}], the levels of a chain at "
                          f"n_max={trunc.n_max}")
    bands = np.array([build_parity_band(params, parity, trunc)
                      for params in points])
    pairs = _certified_windows(
        bands, [_start_window(params, k) for params in points], k)
    for point, pair in enumerate(pairs):
        if pair is not None:
            continue
        values, vectors = eigh(expand_dense(bands[point]))
        keep = np.flatnonzero(converged_mask(vectors, 4))[:k]
        if len(keep) < k:
            raise TruncationInsufficient(
                f"only {len(keep)} of {k} requested eigenvalues "
                f"converged at n_max={trunc.n_max} ({parity.value} parity)")
        # index the kept columns directly so the result owns only its data
        pairs[point] = values[keep], vectors[:, keep]
    return pairs


def converged_parity_eigensystem(params: ModelParams, parity: Parity,
                                 trunc: TruncationConfig, k: int):
    """k lowest converged eigenpairs of one parity block.

    First solves the lowest levels theta_i of photons 0..n_w only (the
    leading block A of H), from the window ``_start_window(params, k)``.
    The window is accepted when, for the cut x = (theta_k + theta_k+1) / 2
    midway to A's next level,
    - every one of the k vectors, zero-padded to the chain dimension, has a
      residual ||H v - theta v|| against the whole chain of at most
      RESIDUAL_TOL * ||H|| (past the window that residual is
      sqrt(n_w + 1) ||[[g1, g2], [g2, g1]] v_top||, with v_top the
      window's last two entries), and the residuals' joint norm is below
      x - theta_k;
    - the whole chain has no more levels below x than A has, which is k:
      ``_levels_below`` counts them as the negative eigenvalues of the
      2 x 2 block pivots of H - x from photon 0 (Sylvester's law of
      inertia), as bisection codes count levels below a shift.
    Each residual puts a distinct chain level within the residuals' joint
    norm of its theta (Kahan's bound for orthonormal vectors), all of them
    below x, so these are the chain's lowest levels, and Cauchy
    interlacing keeps each at or below its theta.  Levels that tie inside
    the k certify; a tie across the cut leaves no room below x.  A residual
    alone would not do: at g1 = g2 = 0 every window has zero residual, yet
    its first cuts can miss low levels that live at higher photon numbers.
    Otherwise the window widens, up to the last window short of the whole
    chain.  An accepted window returns only its own rows of the vectors;
    the chain rows past them are exact zeros.  This is the one-point call
    of the route that ``sweep_spectrum`` takes for all points at once, and
    it seeds ``eigenstates.eigenstate_recurrences``.

    When no window short of the whole chain certifies, solves the whole
    chain by dense ``eigh`` and returns the first k levels of its spectrum
    that pass the guard, with vectors over the whole chain.  ConfigError
    for k outside [1, chain dimension].
    """
    return _converged_pairs([params], parity, trunc, k)[0]


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
    if not g1_values.size:
        raise ConfigError("the coupling schedule is empty")

    points = [replace(template, g_1=float(g1), g_2=float(g2))
              for g1, g2 in zip(g1_values, g2_values)]
    energies, vectors = {}, {}
    for parity in (Parity.EVEN, Parity.ODD):
        pairs = _converged_pairs(points, parity, trunc, k)
        energies[parity] = np.array([values for values, _ in pairs])
        vectors[parity] = [vecs for _, vecs in pairs]
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


def check_crossing_tolerances(gap_tol: float, overlap_tol: float) -> None:
    """ConfigError unless gap_tol is finite and positive and overlap_tol
    lies in (0, 1), where the swap test of detect_crossings can hold and
    can fail."""
    if not 0 < gap_tol < math.inf:
        raise ConfigError(f"gap tolerance must be positive and finite, got "
                          f"{gap_tol:g}")
    if not 0 < overlap_tol < 1:
        raise ConfigError(f"overlap tolerance must lie in (0, 1), got "
                          f"{overlap_tol:g}")


def detect_crossings(sweep: SpectrumSweep, parity: Parity,
                     gap_tol: float = 0.05,
                     overlap_tol: float = 0.2) -> list[CrossingRecord]:
    """Classify every gap minimum below gap_tol between adjacent branches.

    A dip is a Crossing when the eigenvector assignment swaps across it:
    |<v_i(before)|v_{i+1}(after)>| > 1 - overlap_tol while
    |<v_i(before)|v_i(after)>| < overlap_tol.  Anything else (including
    dips at the sweep boundary, which cannot be bracketed) is reported as
    AvoidedOrUnresolved.  The overlaps run over the rows that both vector
    sets hold.  ConfigError from check_crossing_tolerances.
    """
    check_crossing_tolerances(gap_tol, overlap_tol)
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
    """|E_RWA,i - E_full,i| / |E_full,i| for the k lowest levels.

    Neither Hamiltonian couples the two parities, so each spectrum merges
    the levels of its two chains, each solved by dense eigh.  Each
    model's k lowest merged levels must all pass the truncation guard,
    otherwise TruncationInsufficient: skipping one would pair the levels
    of different states.  ConfigError when k passes the levels of the
    two chains.
    """
    if k < 1:
        raise ConfigError("k must be >= 1")
    if k > 2 * trunc.chain_dim:
        raise ConfigError(f"{k} levels pass the {2 * trunc.chain_dim} "
                          f"levels of the two chains at n_max={trunc.n_max}")
    results = []
    for model, builder in (("full", build_parity_band),
                           ("RWA", build_rwa_band)):
        chains = [eigh(expand_dense(builder(params, parity, trunc)))
                  for parity in (Parity.EVEN, Parity.ODD)]
        values = np.concatenate([vals for vals, _ in chains])
        lowest = np.argsort(values)[:k]
        passed = np.concatenate([converged_mask(vecs, 4)
                                 for _, vecs in chains])[lowest]
        if len(lowest) < k or not passed.all():
            raise TruncationInsufficient(
                f"only {np.sum(passed)} of the {k} lowest {model} "
                f"eigenvalues converged at n_max={trunc.n_max}")
        results.append(values[lowest])
    e_full, e_rwa = results
    diff = np.abs(e_rwa - e_full)
    with np.errstate(divide="ignore", invalid="ignore"):
        errors = np.divide(diff, np.abs(e_full),
                           out=np.zeros_like(diff), where=diff != 0.0)
    return RwaErrorReport(e_full, e_rwa, errors,
                          float(np.mean(errors)), float(errors[0]))
