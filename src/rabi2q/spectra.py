"""Parity-resolved spectra: coupling sweeps, crossing detection, the
deep-strong-coupling perturbative branches, and RWA error metrics.

Each parity chain gives its lowest levels by dense ``eigh`` on one ladder,
the photon windows 0..n_w of ``numerics.photon_windows`` from a
displaced-oscillator estimate up to the last short of the chain, and then
the whole chain.  Every rung passes one certificate, that of
``converged_pairs``, the one public entry to the climb: the window levels
up to the k-th, and those that tie with it, have residuals within
``RESIDUAL_TOL`` ||H|| against the chain one photon longer, and an inertia
count shows that the whole chain has no more levels below the cut past
them.  A chain whose ladder runs out raises ``TruncationInsufficient``.
The chains of a call, both parities of one point or the points of one
parity in a sweep, climb their ladders together, one rung at a time: the
rung's windows are solved and residual-tested on the calling thread, or
on the sweep's thread pool sized to the cores that BLAS leaves idle, and
then counted in one batched, numpy only pass of the 2 x 2 block pivots of
the whole chain from photon 0 (``numerics.block_pivots``, the kernel of
the recurrence eigenstates too), which ends where ``numerics.inert_tail``
proves every chain's rest free of negative pivots.  Each window is one
LAPACK call whichever thread makes it, so the results do not depend on the
number of threads.  A chain keeps only its k levels and its window's
vector rows.  The perturbative sums run over one displacement table per
coupling, as wide as the displaced oscillators reach, whose rows' unit
norm checks it.  The RWA levels are exact, from the excitation sectors.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import ConfigError, TruncationInsufficient
from .hamiltonian import build_parity_band, build_rwa_excitation_block
from .model import ModelParams, Parity, TruncationConfig
from .numerics import (RESIDUAL_TOL, band_norm, block_pivots,
                       displacement_elements, eigh, expand_dense, first_index,
                       inert_tail, padded_residuals, photon_windows,
                       pivot_shift)

def _levels_below(bands: np.ndarray, norms: np.ndarray,
                  x: np.ndarray) -> np.ndarray:
    """The number of levels of each chain band below its cut x.

    bands has shape (points, 4, chain_dim), and norms and x hold one
    ||H|| and one cut per point.  By Sylvester's law of inertia, H - x has
    as many negative eigenvalues as the 2 x 2 pivots of its block LDL^T
    factorization from photon 0 (``numerics.block_pivots``, one lane per
    point, each chain scaled by its ``numerics.pivot_shift`` and its pivots
    floored at (eps ||H||)^2, and stopped by ``numerics.inert_tail``) have.
    """
    start, level, _ = inert_tail(bands, x, norms)
    shift = pivot_shift(norms)
    bands = np.ldexp(bands, -shift[:, None, None])
    x, norms = np.ldexp(x, -shift), np.ldexp(norms, -shift)
    diag = bands[:, 0].T
    a, b = (np.vstack((np.zeros(len(bands)), bands[:, d, 0:-2:2].T))
            for d in (2, 3))
    floor = (np.finfo(float).eps * norms) ** 2
    _, (_, _, inv_b, inv_s), _ = block_pivots(
        diag[0::2] - x, diag[1::2] - x, a, b, floor, (max(start), level))
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


def _ladder(band: np.ndarray, start: int, dim: int):
    """``photon_windows`` of band from photon start up to the last window
    short of its leading dim rows, the whole chain, and then that chain."""
    yield from photon_windows(band, start, dim - 1)
    yield dim, eigh(expand_dense(band[:, :dim]))


# levels within TIE_TOL * RESIDUAL_TOL * ||H|| of the k-th tie with it
TIE_TOL = 4.0


def _certified_windows(bands: np.ndarray, starts, count: int,
                       run=map) -> list:
    """The count lowest pairs of each chain, solved on photons 0..n_w (the
    values, and the vectors' window rows: the rows past them are zeros),
    or None for a chain whose ladder runs out.

    bands holds each chain's band one photon longer, for the residuals
    past the chain; ||H|| and the count are the chain's own.  Each chain
    climbs its own ``_ladder`` from its start window, at least count // 2
    so that a window holds the level past the cut, until a rung passes the
    certificate of ``converged_pairs``.  Per rung, run (a map: the calling
    thread's, or a thread pool's, as numpy's LAPACK releases the GIL)
    solves and residual-tests the pending chains' windows.  A task returns
    only what the certificate keeps, its cut x, the size of its set and a
    copy of its count values and vector columns, or a rejection, so no
    more windows are alive than run has workers.
    Then one batched ``_levels_below`` on the calling thread counts the
    levels of the rung's candidate chains below their cuts, and a
    candidate certifies where that count is its set's size.  The results
    are taken in chain order, so they do not depend on run.
    """
    dim = bands.shape[2] - 2
    chains = bands[..., :dim]
    ladders = [_ladder(band, max(start, count // 2), dim)
               for band, start in zip(bands, starts)]
    norms = np.array([band_norm(chain) for chain in chains])

    def climb(point):
        """None when point's ladder has run out, False when its next window
        fails the residual test, else (x, held, pair)."""
        rung = next(ladders[point], None)
        if rung is None:
            return None
        _, (values, vectors) = rung
        tol = RESIDUAL_TOL * norms[point]
        held = np.searchsorted(values, values[count - 1] + TIE_TOL * tol,
                               side="right")
        if held == len(values):     # no level past the set to cut below
            return False
        residual = padded_residuals(bands[point], values[:held],
                                    vectors[:, :held])
        top = values[held - 1]
        x = 0.5 * (top + values[held])
        if not (np.max(residual) <= tol
                and math.hypot(*residual) < x - top):
            return False
        # copies, so the result owns only the count columns
        return x, held, (values[:count].copy(), vectors[:, :count].copy())

    solved = [None] * len(bands)
    pending = range(len(bands))
    while pending:
        widen, found = [], []
        for point, outcome in zip(pending, run(climb, pending)):
            if outcome is False:
                widen.append(point)
            elif outcome is not None:
                found.append((point, *outcome))
        if found:
            points, x, held, pairs = zip(*found)
            points = list(points)
            below = _levels_below(chains[points], norms[points],
                                  np.array(x))
            for point, levels, size, pair in zip(points, below, held, pairs):
                if levels == size:
                    solved[point] = pair
                else:
                    widen.append(point)
        pending = sorted(widen)
    return solved


def converged_pairs(chains, trunc: TruncationConfig, k: int,
                    run=map) -> list:
    """The k lowest certified eigenpairs of each parity block of chains, a
    list of (ModelParams, Parity), climbed together (``_certified_windows``,
    with run: a sweep's thread pool, else the calling thread).

    A chain solves the lowest levels theta_i of photons 0..n_w (the leading
    block A of H) on the windows from ``_start_window(params, k)`` up to
    the whole chain.  The theta_i within TIE_TOL * RESIDUAL_TOL * ||H|| of
    theta_k join the set, of m >= k levels, and a rung is accepted when,
    for the cut x = (theta_m + theta_m+1) / 2 midway to A's next level,
    - every one of the m vectors, zero-padded, has a residual
      ||H v - theta v|| against the chain one photon longer of at most
      RESIDUAL_TOL * ||H|| (past the window that residual is
      sqrt(n_w + 1) ||[[g1, g2], [g2, g1]] v_top||, with v_top the
      window's last two entries, and it is the same against every longer
      chain), and the residuals' joint norm is below x - theta_m;
    - the whole chain has no more levels below x than A has, which is m:
      ``_levels_below`` counts them as the negative eigenvalues of the
      2 x 2 block pivots of H - x from photon 0 (Sylvester's law of
      inertia), as bisection codes count levels below a shift.
    Each residual puts a distinct chain level within the residuals' joint
    norm of its theta (Kahan's bound for orthonormal vectors), all of them
    below x, so these are the chain's lowest levels, and Cauchy
    interlacing keeps each at or below its theta.  A residual alone would
    not do: at g1 = g2 = 0 every window has zero residual, yet its first
    cuts can miss low levels that live at higher photon numbers.  Returns
    per chain the k lowest of the set, with only the window's own rows of
    the vectors (the chain rows past them are exact zeros).
    TruncationInsufficient when no rung of a chain, the whole chain
    included, certifies; ConfigError for k outside [1, chain dimension].
    """
    if not 1 <= k <= trunc.chain_dim:
        raise ConfigError(f"{k} levels per chain is outside [1, "
                          f"{trunc.chain_dim}], the levels of a chain at "
                          f"n_max={trunc.n_max}")
    longer = TruncationConfig(trunc.n_max + 1)
    bands = np.array([build_parity_band(params, parity, longer)
                      for params, parity in chains])
    pairs = _certified_windows(
        bands, [_start_window(params, k) for params, _ in chains], k, run)
    failed = [parity for (_, parity), got in zip(chains, pairs) if got is None]
    if failed:
        raise TruncationInsufficient(
            f"no photon window up to the whole chain certifies the {k} lowest "
            f"levels at n_max={trunc.n_max} ({failed[0].value} parity)")
    return pairs


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
    """Certified low-lying spectra along a coupling schedule.

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
    hold one coupling fixed.  Raises TruncationInsufficient where no rung
    certifies the k lowest levels of a point in either parity.  Both
    parities' climbs share one pool of ``_pool_workers`` threads, if more
    than one.
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
    with contextlib.ExitStack() as stack:
        run, workers = map, _pool_workers(len(points))
        if workers > 1:
            # imported here, so that a run that makes no pool does not pay
            # for the import (about 6 ms, logging included)
            from concurrent.futures import ThreadPoolExecutor
            run = stack.enter_context(ThreadPoolExecutor(workers)).map
        # one climb per parity: both in one would hold the bands of twice
        # the chains at once
        for parity in (Parity.EVEN, Parity.ODD):
            pairs = converged_pairs([(params, parity) for params in points],
                                    trunc, k, run)
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
    second-order shift, summed over every intermediate level of the
    displacement table; entries whose table holds a near-resonant
    denominator are NaN and listed in ``resonant`` as (branch, m, n), n
    the first such level.
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
# the norm a displacement row may miss past its table, the table's reach
# past the displaced oscillators' spread (in the root), and its most entries
TAIL_STOP, REACH, MAX_TABLE = 1e-12, 4.0, 10 ** 6


def _finite_square(x: float) -> float:
    """x ** 2; ConfigError unless finite and |x| < 1e154."""
    value = x ** 2 if abs(x) < 1e154 else math.inf
    if not math.isfinite(value):
        raise ConfigError(f"frequency or coupling {x:g} is out of range for "
                          f"the perturbative sums (its square is not finite)")
    return value


def dsc_perturbative_spectrum(params: ModelParams,
                              m_max: int) -> PerturbativeSpectrum:
    """Perturbative branch energies for m = 0..m_max.

    The shift of displaced-oscillator level m sums over the levels n != m
    of the other displaced ladder, offset by 4 g1 g2 (omega_f = 1), with
    denominators (n - m) + 4 g1 g2 on branch 1 (the g_plus ladder) and
    (n - m) - 4 g1 g2 on branch 2.  Every (branch, m) lane sums, in order
    of n (one sequential ``np.cumsum``), all n < W = ceil((2 max|g_j| +
    sqrt(m_max) + REACH)^2), the displaced oscillators' reach (as in
    ``_start_window``), of one table of <m|D(2g)|n> per coupling
    (``numerics.displacement_elements``).  D is unitary, so a row that
    misses more of its unit norm than TAIL_STOP and the rounding of its
    entries and sum, 4 eps W ln W, raises TruncationInsufficient.  A
    denominator below SMALL_DENOMINATOR_TOL in the table makes the shift
    NaN, reported rather than silently large.  A squared frequency or
    coupling, or a shift, that is not finite, or a table past MAX_TABLE
    entries, raises ConfigError.
    """
    if m_max < 0:
        raise ConfigError("m_max must be >= 0")
    m = np.arange(m_max + 1)
    z1 = m - _finite_square(params.g_plus)
    z2 = m - _finite_square(params.g_minus)
    w1_sq, w2_sq = map(_finite_square, (params.omega_1, params.omega_2))
    top = max(params.g_1, params.g_2, key=abs)
    reach = (2 * abs(top) + math.sqrt(m_max) + REACH) ** 2
    if (m_max + 1) * reach > MAX_TABLE:
        raise ConfigError(f"coupling {top:g} at m_max={m_max} is out of range "
                          f"for the perturbative sums: its displacement "
                          f"table would pass {MAX_TABLE:.0e} entries")
    width = math.ceil(reach)
    m, n = m[:, None], np.arange(width)
    # squared by Python's float ** (libm pow), which can differ from
    # numpy's square in the last bit
    w1, w2 = (np.array([e ** 2 for e in displacement_elements(
        m, n, g).ravel().tolist()]).reshape(-1, width)
              for g in (params.g_1, params.g_2))
    tol = TAIL_STOP + 4 * np.finfo(float).eps * width * math.log(width)
    short = 1 - np.sum(np.stack((w1, w2)), axis=-1)
    if np.max(short) > tol:
        coupling, lane = np.unravel_index(np.argmax(short), short.shape)
        raise TruncationInsufficient(
            f"row m={lane} of the displacement table of g{coupling + 1} "
            f"misses {short[coupling, lane]:.2g} of its unit norm on "
            f"{width} levels (allowed {tol:.2g})")
    w = 0.25 * (w1_sq * w1 + w2_sq * w2)
    den = n - m + np.array([1, -1])[:, None, None] * (
        4.0 * params.g_1 * params.g_2)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        terms = np.where(n != m, w / den, 0.0)
    # each sum starts from +0.0, which a leading -0.0 term would not keep
    terms[..., 0] += 0.0
    hit = first_index((n != m) & (np.abs(den) < SMALL_DENOMINATOR_TOL))
    shifts = np.where(hit < width, np.nan, np.cumsum(terms, axis=-1)[..., -1])
    # the first lane, by m and then by branch, names the error
    bad = np.argwhere(((hit == width) & ~np.isfinite(shifts)).T).tolist()
    if bad:
        raise ConfigError(f"branch {bad[0][1] + 1}, m={bad[0][0]}: the "
                          f"second-order shift is not finite")
    resonant = tuple((branch + 1, lane, int(hit[branch, lane])) for
                     lane, branch in np.argwhere((hit < width).T).tolist())
    return PerturbativeSpectrum(z1, shifts[0], z2, shifts[1], resonant)


@dataclass(frozen=True)
class RwaErrorReport:
    """Per-eigenvalue relative RWA errors after ascending-sort pairing."""

    e_full: np.ndarray
    e_rwa: np.ndarray
    errors: np.ndarray
    mean_error: float
    ground_error: float


def _rwa_levels(params: ModelParams, k: int) -> np.ndarray:
    """The k lowest RWA levels, exact: N - 1 plus the eigenvalues of
    excitation sector N's ``build_rwa_excitation_block`` (omega_f = 1),
    for N = 0, 1, ... until the sectors hold k levels, N >= c^2 and
    N - 1 - d - 2 c sqrt(N) lies above the k-th.  By Gershgorin that
    bounds every level of sector N from below (d = (|omega_1 - 1| +
    |omega_2 - 1|) / 2, c = |g_1| + |g_2|), and it grows for N >= c^2.
    """
    d = 0.5 * (abs(params.omega_1 - 1.0) + abs(params.omega_2 - 1.0))
    c = abs(params.g_1) + abs(params.g_2)
    levels, n = np.empty(0), 0
    while not (len(levels) == k and n >= c * c
               and n - 1 - d - 2 * c * math.sqrt(n) > levels[-1]):
        levels = np.sort(np.append(levels, n - 1 + np.linalg.eigvalsh(
            build_rwa_excitation_block(params, n).matrix)))[:k]
        n += 1
    return levels


def rwa_relative_error(params: ModelParams, trunc: TruncationConfig,
                       k: int) -> RwaErrorReport:
    """|E_RWA,i - E_full,i| / |E_full,i| for the k lowest levels, paired
    in ascending order.

    The full model's are the min(k, chain dimension) lowest of each parity
    chain that ``converged_pairs`` certifies, both in one climb, merged
    (neither Hamiltonian couples the parities); the RWA's are exact, from
    its excitation sectors (``_rwa_levels``), whatever trunc.
    TruncationInsufficient where the full side fails, ConfigError when k
    passes the levels of the two chains.
    """
    if k < 1:
        raise ConfigError("k must be >= 1")
    if k > 2 * trunc.chain_dim:
        raise ConfigError(f"{k} levels pass the {2 * trunc.chain_dim} "
                          f"levels of the two chains at n_max={trunc.n_max}")
    e_full = np.sort(np.concatenate([values for values, _ in converged_pairs(
        [(params, parity) for parity in (Parity.EVEN, Parity.ODD)], trunc,
        min(k, trunc.chain_dim))]))[:k]
    e_rwa = _rwa_levels(params, k)
    diff = np.abs(e_rwa - e_full)
    with np.errstate(divide="ignore", invalid="ignore"):
        errors = np.divide(diff, np.abs(e_full),
                           out=np.zeros_like(diff), where=diff != 0.0)
    return RwaErrorReport(e_full, e_rwa, errors,
                          float(np.mean(errors)), float(errors[0]))
