"""Eigenstate construction by recurrence relations.

One route per representation: the four-term vector recurrence over the
parity chain blocks, and the five-term recurrence for the power-series
coefficients of the parity-projected Bargmann functions, solved for its
minimal solution by least squares (no forward iteration: minimal solutions
cannot come from forward recursion).  Where alpha_0 vanishes (identical
qubits) the five-term route raises StepSingular; a three-term recurrence
covers that case.

Both recurrences are dominated by growing solutions, so they serve as
verification and structure-exposing tools.  The four-term route takes
its seed pairs from ``spectra.converged_parity_eigensystem``, the certified
photon-window route of spectrum sweeps, with no solve or truncation guard
of its own.  Its achievable residual is limited by the accuracy of the
eigenvalue and seed fed to it (a double-precision eigenpair is amplified
to ~1e-4 within a dozen steps), so both it and ``refine_eigenpair``, which
sharpens a float eigenpair by mixed-precision Newton, run in one fixed-point
model: Python ints at scale 2^-bits (``_fraction_bits``: about DPS +
GUARD_DIGITS digits, finer where g^2 lies below the refiner's tolerance),
reading the chain matrix from the same cached int tables.  Newton runs on
leading photon windows, widened on the ladder of
``numerics.photon_windows``, and stops on the whole chain's test: x is
zero past the window, so its residual over the window and the photon block
past it is the whole chain's.  The recurrence solves each row of (H - xi)
v = 0 for the next block, an exact int sum and one rounded int division
per entry, so it follows exactly the matrix the refiner converged on.  It
ends one block past its cut once a growth bound from the band diagonal
proves that no later block can be smaller (``_growth_start``), else at
n_max: its blocks, cut and float state are those of the run to n_max.
Where the scale does not hold the decaying solution (deep strong
coupling, |g1| near |g2|, g^2 below the refiner's tolerance, xi far from
the spectrum), a state's residual passes ``RECURRENCE_RESIDUAL_TOL``; the
route returns it, and the CLI flags it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import (ConfigError, ConvergenceFailure, OverflowDetected,
                     SingularCoupling, StepSingular)
from .hamiltonian import build_parity_band
from .model import ModelParams, Parity, TruncationConfig, basis_table
from .numerics import (band_matvec, band_norm, general_band,
                       next_photon_window)
from .spectra import converged_parity_eigensystem

# decimal digits of the refined eigenpairs, and so of the fixed-point scale
DPS = 60
OVERFLOW_LIMIT = 1e300
# slack of the recurrence's growth bound past its float rounding
GROWTH_MARGIN = 1e-9
# a squared block norm, in units of the scale, past which the half-unit
# rounding of a step cannot undo a growth of GROWTH_MARGIN
_GROWTH_FLOOR = 1 / (2 * GROWTH_MARGIN ** 2)
# a recurrence state whose relative residual ||(H - xi) v|| / ||v|| passes
# this is not an eigenstate: the scale did not hold the decaying solution
RECURRENCE_RESIDUAL_TOL = 1e-6


# ---------------------------------------------------------------------------
# four-term chain recurrence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RecurrenceState:
    """Candidate eigenstate from the four-term recurrence.

    v is the flattened parity-chain vector of the given parity at energy
    xi (the float nearest the xi the recurrence ran at), normalized; blocks
    past cut_index are zeroed (the recurrence tail is dominated by the
    growing solution beyond the minimum-norm block).  cut_index is the
    first block of least norm over the run to n_max, though the run may
    end one block past it, where its growth bound shows that no later block
    can be smaller.  refine_residual is the residual ||(H - xi) x||_2 of
    the refined pair behind the seed, if there was one.
    """

    parity: Parity
    xi: float
    v: np.ndarray
    cut_index: int
    refine_residual: float | None = None


def _check_couplings(params: ModelParams):
    g1, g2 = abs(params.g_1), abs(params.g_2)
    if abs(g1 - g2) <= 1e-14 * max(g1, g2, 1e-300):
        raise SingularCoupling(
            "|g1| == |g2|: off-diagonal blocks are not invertible; "
            "use the dense eigensolver for this case")


def _growth_start(params: ModelParams, band: np.ndarray, xi: float,
                  n_max: int) -> int:
    """First block i past which every step of the four-term recurrence
    grows the block norm (n_max where the last step does not).

    Step j forms v_j = -f_j G D_j v_{j-1} - s_j v_{j-2}, with
    G = [[g1, -g2], [-g2, g1]], D_j the diagonal block of photon j - 1 less
    xi, f_j = 1 / (sqrt(j) (g1^2 - g2^2)) and s_j = sqrt((j - 1) / j).  So
    sigma_min(f_j G D_j) >= a_j = min |d - xi| / (sqrt(j) (|g1| + |g2|)),
    and ||v_j|| >= (a_j - s_j) ||v_{j-1}|| wherever ||v_{j-2}|| <=
    ||v_{j-1}||.  Every step past i has a_j - s_j >= 1 + GROWTH_MARGIN,
    a_j taken in floats from the band diagonal, lowered by the float error
    of |d - xi| and by 16 eps relative.  Those 16 eps also hold the int
    tables' rounding of H and xi to 2^-bits, which moves a_j and s_j by
    about cond(G) 2^-bits / |g| relative, below 1e-22 (bits >= 229, |g| >
    3e-32 unless bits gain those of 1 / g^2, and cond(G) < 2e14 past
    ``_check_couplings``).  Each step rounds each entry by at most half a
    unit of the scale, so once a block past i is larger than the one
    before it and its squared norm passes 1 / (2 GROWTH_MARGIN^2) units,
    every later block is larger still.
    """
    g1, g2 = abs(params.g_1), abs(params.g_2)
    diag = band[0, :2 * n_max].reshape(n_max, 2)
    j = np.arange(1, n_max + 1)
    eps = np.finfo(float).eps
    # an xi past the float range, or a zero distance, fails the test
    with np.errstate(all="ignore"):
        dist = np.abs(diag - xi)
        err = 4 * eps * (np.abs(diag).max(axis=1) + abs(xi)
                         + abs(params.omega_1) + abs(params.omega_2))
        a = (dist.min(axis=1) - err) / (np.sqrt(j) * (g1 + g2))
        grows = (a * (1 - 16 * eps) - np.sqrt((j - 1) / j)
                 >= 1 + GROWTH_MARGIN)
    fails = np.flatnonzero(~grows)
    return int(fails[-1]) + 1 if len(fails) else 0


def _recurrence_blocks_mp(params: ModelParams, parity: Parity, xi, v0,
                          n_max: int):
    """Fixed-point blocks of the four-term recurrence, up to the block past
    which no block can be smaller.

    Returns (blocks, squares): the int pairs of blocks 0..i at the
    refiner's scale 2^-bits, xi and v0 entering as the nearest ints, and
    their exact squared norms.  Block j solves row j - 1 of (H - xi) v = 0
    on the refiner's tables: an exact int sum over blocks j - 2 and j - 1,
    then one rounded int division per entry by the coupling block [[a, b],
    [b, a]] of O_j.  The run stops after the first block i at or past
    ``_growth_start`` whose squared norm is above block i - 1's and above
    1 / (2 GROWTH_MARGIN^2): every later block is then larger, so the cut,
    the first least block of the run to n_max, is among blocks 0..i - 1,
    and the cut and float state of ``_cut_normalize`` are that run's.
    Where the bound allows no stop, the run goes to n_max.  |g1| = |g2|
    raises SingularCoupling.
    """
    _check_couplings(params)
    band = build_parity_band(params, parity, TruncationConfig(n_max))
    bits = _fraction_bits(params, _newton_tolerance(band_norm(band)))
    diag = _fixed_diagonal(params, parity, n_max, bits)
    a, b = _fixed_coupling_table(params, n_max, bits)
    xi = _fixed(xi, bits)
    start = _growth_start(params, band, xi / (1 << bits), n_max)
    p, q = (_fixed(c, bits) for c in v0[:2])
    blocks, squares, pl, ql = [(p, q)], [p * p + q * q], 0, 0
    for j in range(1, n_max + 1):
        (d0, d1), al, bl, ah, bh = diag[j - 1], a[j - 1], b[j - 1], a[j], b[j]
        r0 = (xi - d0) * p - al * pl - bl * ql
        r1 = (xi - d1) * q - bl * pl - al * ql
        det = ah * ah - bh * bh
        pl, ql, p, q = (p, q, _nearest(ah * r0 - bh * r1, det),
                        _nearest(ah * r1 - bh * r0, det))
        blocks.append((p, q))
        squares.append(p * p + q * q)
        if j >= start and squares[j] > max(squares[j - 1], _GROWTH_FLOOR):
            break
    return blocks, squares


def _cut_normalize(parity: Parity, xi, blocks, squares,
                   n_max: int) -> RecurrenceState:
    """Zero the growing tail past the minimum-norm block and normalize.

    blocks and squares are those of ``_recurrence_blocks_mp``.  The cut is
    the first block of least squared norm, a zero block included (where xi
    is a photon-0 diagonal entry to the last bit and the seed's other
    component is zero, block 1 is zero and the state is the seed block
    alone).  Each kept entry over the kept prefix's norm, math.isqrt of its
    exact squared norm, is one int / int division rounded once to a float,
    though the blocks may lie far outside the float range.
    """
    # a zero seed block makes every block zero
    if not squares[0]:
        raise OverflowDetected("recurrence produced a null vector")
    cut = squares.index(min(squares))
    root = math.isqrt(sum(squares[:cut + 1]))
    out = np.zeros((n_max + 1, 2))
    out[:cut + 1] = [[c / root for c in block] for block in blocks[:cut + 1]]
    flat = out.ravel()
    return RecurrenceState(parity, float(xi),
                           flat / float(np.linalg.norm(flat)), cut)


def recurrence_eigenstate_la(params: ModelParams, parity: Parity, xi, v0,
                             n_max: int) -> RecurrenceState:
    """Run the four-term recurrence from seed block v0 at energy xi.

    xi and the two components of v0 may be floats or exact rationals
    (anything with ``as_integer_ratio``, such as the Fractions of
    ``refine_eigenpair``); each enters as the nearest int at the refiner's
    scale.  The iteration ends one block past its cut where the growth
    bound of ``_growth_start`` allows it.  The residual of the result is
    limited by the accuracy of (xi, v0): feed the pair of refine_eigenpair
    to resolve the decaying solution below double precision.  A seed block
    that rounds to zero raises OverflowDetected.
    """
    blocks, squares = _recurrence_blocks_mp(params, parity, xi, v0, n_max)
    return _cut_normalize(parity, xi, blocks, squares, n_max)


def chain_residual(params: ModelParams, parity: Parity, xi: float,
                   v: np.ndarray) -> float:
    """Relative residual ||(H - xi) v|| / ||v|| on the truncated chain.

    The residual is scaled by its largest entry before the norm, so that
    its squares stay finite when xi is far from the spectrum.
    """
    band = build_parity_band(params, parity, TruncationConfig(len(v) // 2 - 1))
    r = band_matvec(band, v[:, None])[:, 0] - xi * v
    scale = np.max(np.abs(r)) or 1.0
    return float(scale * np.linalg.norm(r / scale) / np.linalg.norm(v))


def residual(params: ModelParams, parity: Parity,
             state: RecurrenceState) -> float:
    return chain_residual(params, parity, state.xi, state.v)


# ---------------------------------------------------------------------------
# eigenpair refinement: mixed-precision Newton on the bordered system
# ---------------------------------------------------------------------------

# Newton steps refine_eigenpair takes at most; each gains about
# log10(gap / (eps ||H||)) digits: 13-15 at the README configuration (14
# steps reach 200 digits there), 4-5 at the criterion-05 crossing.  The
# GUARD_DIGITS past DPS put the stopping tolerance ||H|| 10^-(DPS + 3) well
# above the rounding floor of the residual
NEWTON_STEPS = 16
GUARD_DIGITS = 3
# the refiner's iterate, the recurrence's blocks and their tables are ints
# at scale 2^-FRACTION_BITS: the bits of DPS + GUARD_DIGITS digits and 16
# more, so that rounding an entry or an update to that scale sits far
# below the stopping tolerance
FRACTION_BITS = math.ceil((DPS + GUARD_DIGITS + 1) * math.log2(10)) + 16


def _newton_tolerance(hnorm: float) -> float:
    """The refiner's stopping tolerance ||H|| 10^-(DPS + GUARD_DIGITS)."""
    return hnorm * 10.0 ** -(DPS + GUARD_DIGITS)


def _fraction_bits(params: ModelParams, tol: float) -> int:
    """The fixed-point scale: FRACTION_BITS, and where g^2 = max(g1^2,
    g2^2) lies below tol, the bits of 1 / g^2 more.  The levels then sit
    about g^2 off the diagonal and the eigenvector's other entries are
    about g, which a scale of 2^-FRACTION_BITS alone would round to the
    diagonal and to zero: the recurrence seeded by the pair would then
    lose the decaying solution."""
    g = max(abs(params.g_1), abs(params.g_2))
    if g and g * g < tol:
        return FRACTION_BITS + max(0, -2 * math.frexp(g)[1])
    return FRACTION_BITS


def _nearest(num: int, den: int) -> int:
    """The int nearest num / den (den nonzero), ties to even."""
    if den < 0:
        num, den = -num, -den
    q, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and q & 1):
        q += 1
    return q


def _fixed(value, bits: int) -> int:
    """The int nearest value 2^bits, ties to even, exactly for every finite
    float and every rational with ``as_integer_ratio``; OverflowError or
    ValueError if value is not finite."""
    if type(value) is float:
        try:
            return round(math.ldexp(value, bits))
        except OverflowError:   # value 2^bits is past the float range
            pass
    num, den = value.as_integer_ratio()
    return _nearest(num << bits, den)


@lru_cache(maxsize=8)
def _fixed_diagonal(params: ModelParams, parity: Parity, n_max: int,
                    bits: int):
    """Diagonal blocks (d0, d1) of photon levels 0..n_max of one chain at
    scale 2^-bits: d = n + (s1 w1 + s2 w2) / 2, the exact rational of the
    floats rounded once to the nearest int (ties to even)."""
    (p1, q1), (p2, q2) = (w.as_integer_ratio()
                          for w in (params.omega_1, params.omega_2))
    qubit = {(s1, s2): _nearest((s1 * p1 * q2 + s2 * p2 * q1) << bits,
                                2 * q1 * q2)
             for s1 in (1, -1) for s2 in (1, -1)}
    table = basis_table(TruncationConfig(n_max))
    diag = [(n << bits) + qubit[s1, s2]
            for n, s1, s2 in zip(table.photon[parity].tolist(),
                                 table.sz1[parity].tolist(),
                                 table.sz2[parity].tolist())]
    return tuple(zip(diag[0::2], diag[1::2]))


@lru_cache(maxsize=4)
def _fixed_coupling_table(params: ModelParams, n_max: int, bits: int):
    """Entries g1 sqrt(j) and g2 sqrt(j) of O_j for j = 0..n_max + 1 (zero
    past the chain) at scale 2^-bits, the same for both parities: each the
    int nearest its exact value (ties to even), by math.isqrt."""
    def entries(g: float):
        num, den = abs(g).as_integer_ratio()
        out = []
        for j in range(n_max + 1):
            # z = floor(2 |g| sqrt(j) 2^bits); the nearest int is z // 2,
            # or one more past the half and at an odd exact tie
            four = (num * num * j) << (2 * bits + 2)
            z = math.isqrt(four) // den
            q = z >> 1
            if z & 1 and (q & 1 or four != (z * den) ** 2):
                q += 1
            out.append(-q if g < 0 else q)
        return (*out, 0)

    return entries(params.g_1), entries(params.g_2)


def _fixed_residual(tables, xi: int, x: list, bits: int) -> list:
    """-(H - xi) x over the photon blocks of x, xi, x and the tables at
    scale 2^-bits: each row an exact int sum, rounded once to a float by
    int / int true division (float(int) would overflow where the scaled
    row passes the float range though its value does not).  OverflowError
    if a row's value is past the float range."""
    diag, a, b = tables
    p, q = [0, *x[0::2], 0], [0, *x[1::2], 0]
    out = []
    for (d0, d1), pl, pc, ph, ql, qc, qh, al, ah, bl, bh in zip(
            diag, p, p[1:], p[2:], q, q[1:], q[2:], a, a[1:], b, b[1:]):
        out.append((xi - d0) * pc - al * pl - bl * ql - ah * ph - bh * qh)
        out.append((xi - d1) * qc - bl * pl - al * ql - bh * ph - ah * qh)
    scale = 1 << 2 * bits
    return [r / scale for r in out]


def _band_lu(band: np.ndarray, shift: float, tiny: float):
    """LU with partial pivoting of H - shift, band[d, c] = H[c + d, c].

    LAPACK dgbtf2 in scalar float64 arithmetic: cols[c][2k + i - c] holds
    entry (i, c) of L (below the diagonal) or U (bandwidth 2k).  Where the
    whole pivot column is below tiny in magnitude, the diagonal entry is
    raised to tiny without a row swap, a shift of the matrix by at most
    tiny as in LAPACK dstein.  Returns (k, cols, piv).
    """
    k, n = band.shape[0] - 1, band.shape[1]
    kv = 2 * k
    ab = general_band(band)
    ab[kv] -= shift
    cols, piv = ab.T.tolist(), []
    for j, cj in enumerate(cols):
        below = range(1, min(k, n - 1 - j) + 1)
        jp = max((0, *below), key=lambda t: abs(cj[kv + t]))
        jp = jp if abs(cj[kv + jp]) >= tiny else 0
        piv.append(j + jp)
        right = cols[j:j + kv + 1]
        for c, col in enumerate(right):
            col[kv - c], col[kv + jp - c] = col[kv + jp - c], col[kv - c]
        if abs(cj[kv]) < tiny:
            cj[kv] = math.copysign(tiny, cj[kv])
        for t in below:
            cj[kv + t] /= cj[kv]
        for c, col in enumerate(right[1:], start=1):
            for t in below:
                col[kv + t - c] -= cj[kv + t] * col[kv - c]
    return k, cols, piv


def _band_solve(factors, rhs: np.ndarray) -> np.ndarray:
    """Solve (H - shift) y = rhs with the factors from _band_lu."""
    k, cols, piv = factors
    y, n = rhs.tolist(), len(cols)
    for j, (cj, p) in enumerate(zip(cols, piv)):
        y[j], y[p] = y[p], y[j]
        for t in range(1, min(k, n - 1 - j) + 1):
            y[j + t] -= cj[2 * k + t] * y[j]
    for j in range(n - 1, -1, -1):
        y[j] /= cols[j][2 * k]
        for t in range(1, min(2 * k, j) + 1):
            y[j - t] -= cols[j][2 * k - t] * y[j]
    return np.array(y)


def _newton_window(held: int, n_max: int, rows: int = 0) -> int:
    """The photon window refine_eigenpair starts on for a seed of held
    rows: the leading window that holds them, or the whole chain when they
    are more than half of it; then the first window of its ladder that
    holds rows rows."""
    n_window = (held - 1) // 2 if held <= n_max + 1 else n_max
    while 2 * (n_window + 1) < rows:
        n_window = min(next_photon_window(n_window), n_max)
    return n_window


def _frozen_jacobian(band: np.ndarray, x0: np.ndarray, xi0: float,
                     hnorm: float):
    """Factors of H - xi0 on band, and xw = x0^T w and u = w / xw for
    w = (H - xi0)^-1 x0; past |xw| = 1 / (eps^2 ||H||) the LU moves to
    xi0 + eps ||H||."""
    eps = np.finfo(float).eps
    for shift in (float(xi0), float(xi0) + eps * hnorm):
        factors = _band_lu(band, shift, eps * hnorm)
        w = _band_solve(factors, x0)
        xw = math.fsum(x0 * w)
        if abs(xw) * hnorm * eps ** 2 <= 1:
            break
    if not (xw and math.isfinite(xw)):
        raise ConvergenceFailure("bordered Newton system is singular")
    return factors, xw, w / xw


def refine_eigenpair(params: ModelParams, parity: Parity, xi0: float,
                     vec0: np.ndarray, n_max: int):
    """Sharpen a float eigenpair of the chain matrix far past double
    precision.

    Newton on F(x, xi) = [(H - xi) x; (x^T x - 1)/2] with the Jacobian
    frozen at the start (Dongarra, Moler & Wilkinson, SIAM J. Numer. Anal.
    20 (1983) 23): F exact in fixed point, the correction in float64 from
    one banded LU of H - xi0.  H - xi0 is singular to double precision, so
    the border is eliminated with deflation: the x0 part of F is split off
    before the solve and the near-null direction enters only as u = w /
    (x0^T w), w = (H - xi0)^-1 x0.  Past |x0^T w| = 1 / (eps^2 ||H||), xi0
    sits on a level so far below double precision that u's cancellation in
    the corrections swamps them: the LU moves to xi0 + eps ||H||.  The
    float arithmetic is scalar or elementwise, so no result depends on the
    BLAS thread count.

    vec0 holds the leading rows of the seed, the chain rows past them
    being zeros, as ``spectra.converged_parity_eigensystem`` returns its
    window vectors; more rows than the chain has raise ValueError.  Newton
    runs on the leading photon window 0..n_w that holds those rows, or on
    the whole chain when they are more than half of it.  x is exactly zero
    past the window, so (H - xi) x vanishes past the window's rows and one
    photon block more: F over those rows is F over the whole chain, and
    the stopping test below is the whole chain's.  After a Newton step
    whose residual on that edge block alone exceeds tol, the window widens
    to the next rung of the ladder of ``numerics.photon_windows`` (capped
    at the whole chain), the LU is redone on it and x is zero-padded.

    The iterate (xi, x) is held as Python ints at scale 2^-bits
    (``_fraction_bits``), as are the tables it shares with the four-term
    recurrence, ``_fixed_diagonal`` and ``_fixed_coupling_table``: the
    seeds and each float correction enter as the nearest int, and each row
    of (H - xi) x, and 1 - x^T x, is an exact int sum rounded once to a
    float.

    Returns (xi, x, residual), xi and the list x over the whole chain as
    Fractions, exactly the fixed-point iterate (exact zeros past the
    window), once residual = ||(H - xi) x||_2 and ||H|| |x^T x - 1| / 2 are
    at most tol = ||H||_inf 10^-(DPS + GUARD_DIGITS), ||H|| the whole
    chain's; raises ConvergenceFailure, with the residual reached, if
    NEWTON_STEPS steps do not get there or the iteration leaves the float
    range.
    """
    trunc = TruncationConfig(n_max)
    dim, held = trunc.chain_dim, len(vec0)
    if not 0 < held <= dim:
        raise ValueError(f"seed of {held} rows for a chain of {dim}")
    band = build_parity_band(params, parity, trunc)
    hnorm = band_norm(band)
    x0 = np.pad(np.asarray(vec0, dtype=float), (0, dim - held))
    n_window = _newton_window(held, n_max)
    rows = 2 * (n_window + 1)
    seed = x0[:rows]
    factors, xw, u = _frozen_jacobian(band[:, :rows], seed, xi0, hnorm)
    tol = _newton_tolerance(hnorm)
    bits = _fraction_bits(params, tol)
    tables = (_fixed_diagonal(params, parity, n_max, bits),
              *_fixed_coupling_table(params, n_max, bits))
    one = 1 << 2 * bits
    xi, x = _fixed(float(xi0), bits), [_fixed(c, bits)
                                       for c in seed.tolist()]
    for step in range(NEWTON_STEPS + 1):
        # two zero rows past the window give F on its edge block
        edge = [0, 0] if rows < dim else []
        try:
            f = np.array(_fixed_residual(tables, xi, x + edge, bits))
            # 1 - x^T x summed exactly and rounded once: rounding x^T x
            # first would cost h an ulp of 1, about tol / ||H|| itself
            h = (one - sum(c * c for c in x)) / (2 * one)
        except OverflowError:
            res = math.inf
            break
        res = math.hypot(*f)
        if res <= tol and abs(h) * hnorm <= tol:
            scale = 1 << bits
            return (Fraction(xi, scale), [Fraction(c, scale) for c in x]
                    + [Fraction(0)] * (dim - rows), res)
        if step == NEWTON_STEPS or not math.isfinite(res + h):
            break
        if step and math.hypot(*f[rows:]) > tol:
            n_window = min(next_photon_window(n_window), n_max)
            rows = 2 * (n_window + 1)
            seed = x0[:rows]
            factors, xw, u = _frozen_jacobian(band[:, :rows], seed, xi0,
                                              hnorm)
            x += [0] * (rows - len(x))
            f = np.pad(f, (0, rows - len(f)))
        f = f[:rows]
        c = math.fsum(seed * f)
        z = _band_solve(factors, f - c * seed)
        t = h - math.fsum(seed * z)
        try:
            x = [xk + _fixed(dk, bits)
                 for xk, dk in zip(x, (z + t * u).tolist())]
            xi += _fixed(t / xw - c, bits)
        except (OverflowError, ValueError):     # an inf or nan correction
            break
    raise ConvergenceFailure(
        f"eigenpair refinement stopped at residual {res:.3e} after "
        f"{step} Newton steps (tolerance {tol:.3e})")


def eigenstate_recurrences(params: ModelParams, parity: Parity, count: int,
                           n_max: int) -> list[RecurrenceState]:
    """Recurrence states of the count lowest converged levels of one parity.

    One ``spectra.converged_parity_eigensystem`` call gives the seed pairs;
    each, with the rows of its certified window, is refined by
    ``refine_eigenpair`` and seeds the four-term recurrence with its first
    block, and each state records its refined pair's residual.  Each
    level's Newton starts on the window the level below it ended on: its
    seed is zero-padded to the first window of the ladder that holds every
    nonzero row of the refined x below it (the fixed-point x rounds its
    tail entries to zero), and widens from there as before.  The route
    raises ConfigError for count outside [1, chain dimension],
    TruncationInsufficient when fewer than count levels converge, and
    OverflowDetected where a refined pair's first block is zero.
    """
    trunc = TruncationConfig(n_max)
    _check_couplings(params)
    values, vectors = converged_parity_eigensystem(params, parity, trunc,
                                                   count)
    states, rows = [], 0
    for xi0, vec0 in zip(values, vectors.T):
        seed = np.pad(vec0, (0, max(rows - len(vec0), 0)))
        xi, x, res = refine_eigenpair(params, parity, xi0, seed, n_max)
        nonzero = next(i for i in range(len(x), 0, -1) if x[i - 1])
        rows = 2 * (_newton_window(len(vec0), n_max, nonzero) + 1)
        state = recurrence_eigenstate_la(params, parity, xi, x[:2], n_max)
        states.append(replace(state, refine_residual=res))
    return states


# ---------------------------------------------------------------------------
# Bargmann-representation recurrences
# ---------------------------------------------------------------------------

# The parity label selects the branch of the printed coefficient formulas.
# Under the rotation conventions fixed in bargmann_to_chain (qubit basis
# rotated so couplings become diagonal, reflection symmetry realized as
# sigma_x sigma_x P_z), the even chain pairs with branch sign -1 and the odd
# chain with +1; the pairing is pinned by the reconstruction oracle.
_BRANCH_SIGN = {Parity.EVEN: -1, Parity.ODD: +1}
_SPINOR_SIGN = {Parity.EVEN: +1, Parity.ODD: -1}


def _bargmann_alphas(params: ModelParams, parity: Parity, chi: float,
                     j: np.ndarray) -> np.ndarray:
    """Coefficients alpha_0..alpha_4 (rows) of rows j of the five-term
    recurrence, by the operations of the scalar formulas in their order.
    br_m^2 and (chi - (j - 2))^2 are Python's float ** (libm pow), which
    can differ from numpy's square in the last bit."""
    s = _BRANCH_SIGN[parity]
    w1, w2 = params.omega_1, params.omega_2
    gp, gm = params.g_plus, params.g_minus

    def branch(pj):
        """(br_m, br_p, br_m^2) at (-1)^j = pj."""
        br_m = w1 - s * pj * w2
        return br_m, w1 + s * pj * w2, br_m ** 2

    br_m, br_p, sq_m = (np.where(j % 2 == 1, odd, even)
                        for even, odd in zip(branch(1), branch(-1)))
    sq_c = np.array([(chi - (k - 2)) ** 2 for k in j.tolist()])
    a0 = j * (j - 1) * gp * gm * br_m
    a1 = (j - 1) * (gm * br_m * (j - 1 - chi) + gp * br_p * (chi - (j - 2)))
    a2 = (2 * j - 3) * gp * gm * br_m + br_p * (0.25 * sq_m - sq_c)
    a3 = gp * br_p * (chi - (j - 2)) - gm * br_m * (chi - (j - 3))
    a4 = gp * gm * br_m
    return np.array([a0, a1, a2, a3, a4])


def _alpha0_scale(params: ModelParams, j: np.ndarray) -> np.ndarray:
    return (j * (j - 1) * abs(params.g_plus * params.g_minus)
            * (abs(params.omega_1) + abs(params.omega_2)))


@dataclass(frozen=True)
class BargmannCoefficients:
    """Power-series coefficients of the parity-projected Bargmann functions
    of one parity at energy chi.

    c interleaves the even-power series (slots 0, 2, ...) and the odd-power
    series (slots 1, 3, ...); phi2 holds the companion function derived from
    the same series (bargmann_minimal_coefficients; StepSingular when
    omega_1 = omega_2).
    """

    parity: Parity
    chi: float
    c: np.ndarray
    phi2: np.ndarray


def _phi2_series(params: ModelParams, parity: Parity, chi: float,
                 c: np.ndarray) -> np.ndarray:
    """Companion series from the two first-order relations.

    Power k of the companion is ((k - chi) c_k + g_plus (c_{k-1}
    + (k+1) c_{k+1})) divided by (w2 -+ w1)/2 for even/odd k per branch
    (omega_f = 1).
    """
    s = _BRANCH_SIGN[parity]
    w1, w2 = params.omega_1, params.omega_2
    gp = params.g_plus
    k = np.arange(len(c))
    below = np.concatenate(([0.0], c[:-1]))
    above = np.concatenate((k[1:] * c[1:], [0.0]))
    div = np.where(k % 2 == 0, 0.5 * (w2 - s * w1), 0.5 * (w2 + s * w1))
    return ((k - chi) * c + gp * (below + above)) / div


def _bargmann_rows(params: ModelParams, parity: Parity, chi: float,
                   j_max: int) -> np.ndarray:
    """Rows j = 2..j_max + 4 of the five-term system in c_0..c_j_max, built
    in one pass: alpha_k of row j multiplies c_(j - k), and each row is
    divided by its largest magnitude (rows with none are dropped).  Raises
    StepSingular at the first row whose alpha_0 vanishes."""
    j = np.arange(2, j_max + 5)
    alphas = _bargmann_alphas(params, parity, chi, j)
    vanish = np.flatnonzero(np.abs(alphas[0])
                            <= 1e-14 * _alpha0_scale(params, j))
    if len(vanish):
        raise StepSingular(
            f"alpha_0 vanishes at step j={j[vanish[0]]} "
            f"(omega_1 = -+(-1)^j omega_2 or g_plus g_minus = 0)")
    col = j - np.arange(5)[:, None]
    inside = (col >= 0) & (col <= j_max)
    rows = np.zeros((len(j), j_max + 1))
    rows[np.broadcast_to(j - 2, col.shape)[inside], col[inside]] = (
        alphas[inside])
    scale = np.abs(rows).max(axis=1)
    keep = scale > 0
    return rows[keep] / scale[keep, None]


def bargmann_minimal_coefficients(params: ModelParams, parity: Parity,
                                  chi: float, j_max: int):
    """Decaying solution of the five-term system, via the smallest singular
    vector of the banded row matrix with a zero tail appended.

    Forward evaluation cannot reach the minimal solution in fixed precision
    (growing solutions amplify roundoff by orders of magnitude per step).
    Returns (BargmannCoefficients, smallest_singular_value); the singular
    value is O(1e-15) when chi is an eigenvalue and O(1e-2) away from one.
    Raises StepSingular when alpha_0 vanishes on a row (omega_1 = omega_2,
    where the companion series divides by zero, or g_plus g_minus = 0).
    """
    if j_max < 8:
        raise ConfigError("j_max must be >= 8")
    matrix = _bargmann_rows(params, parity, chi, j_max)
    _, sv, vt = np.linalg.svd(matrix, full_matrices=False)
    c = vt[-1]
    if c[0] < 0:
        c = -c
    phi2 = _phi2_series(params, parity, chi, c)
    return BargmannCoefficients(parity, chi, c, phi2), float(sv[-1])


@dataclass(frozen=True)
class BargmannChainState:
    """Parity-chain vector reconstructed from Bargmann coefficients.

    v is the normalized chain vector of the given parity at energy xi;
    other_chain_weight is the fraction of the reconstructed norm that fell
    on the other parity chain, and cut_index the photon level past which
    the growing tail of the series was dropped.
    """

    parity: Parity
    xi: float
    v: np.ndarray
    other_chain_weight: float
    cut_index: int


# rotated-to-lab weights of the qubit pairs, rows and columns in the
# product-basis pair order (ee, eg, ge, gg) of model.PAIR_ORDER
_ROTATION = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
_PAIR_ROTATION = np.kron(_ROTATION, _ROTATION)


# sqrt(n!) passes the largest float from n = 301 on; amplitudes are formed
# with the factor exp(0.5 lgamma(n + 1) - shift), the shift (zero unless
# the kept levels reach that far) keeping the factor below exp(700)
_LOG_FACTOR_MAX = 700.0


def bargmann_to_chain(coeffs: BargmannCoefficients,
                      n_max: int) -> BargmannChainState:
    """Convert coefficient series to a normalized parity-chain vector.

    Uses z^k <-> sqrt(k!) |k>.  The first function carries the diagonal
    coupling g_plus, the companion g_minus, and the remaining two rotated
    components follow from the reflection symmetry with the
    parity-dependent sign.  The components are rotated back to the lab
    qubit basis, the growing tail past the minimum-magnitude photon level
    is dropped, and each chain is gathered from the product basis before
    normalization.  The minimum is taken over the logarithms of the
    component norms, so levels whose sqrt(k!) overflows a float take part;
    levels whose coefficients are zero or not finite never hold it.
    """
    parity = coeffs.parity
    sigma = _SPINOR_SIGN[parity]
    c, phi2 = coeffs.c, coeffs.phi2
    jm = len(c) - 1
    half_log_fact = [0.5 * math.lgamma(n + 1) for n in range(jm + 1)]
    norm = np.hypot(c, phi2)
    log_norm = np.full(jm + 1, np.inf)
    np.log(norm, out=log_norm, where=(norm > 0) & np.isfinite(norm))
    cut = int(np.argmin(log_norm + half_log_fact))
    keep = min(cut, n_max) + 1
    shift = max(0.0, half_log_fact[keep - 1] - _LOG_FACTOR_MAX)
    sq = np.array([math.exp(h - shift) for h in half_log_fact[:keep]])
    signs = (-1.0) ** np.arange(keep)
    c, phi2 = c[:keep], phi2[:keep]
    rotated = (c * sq, phi2 * sq, sigma * signs * phi2 * sq,
               sigma * signs * c * sq)
    trunc = TruncationConfig(max(n_max, 1))
    full = np.zeros((trunc.n_max + 1, 4))
    full[:keep] = sum(a[:, None] * w
                      for a, w in zip(rotated, _PAIR_ROTATION.T))
    chains = {par: full.ravel()[idx]
              for par, idx in basis_table(trunc).full_index.items()}
    own = np.linalg.norm(chains[parity])
    other = Parity.ODD if parity is Parity.EVEN else Parity.EVEN
    total = math.hypot(own, np.linalg.norm(chains[other]))
    if own == 0.0:
        raise OverflowDetected("reconstruction produced a null vector")
    return BargmannChainState(parity, coeffs.chi, chains[parity] / own,
                              float(np.linalg.norm(chains[other]) / total),
                              cut)


def bargmann_reconstruction_residual(params: ModelParams, parity: Parity,
                                     chi: float, j_max: int = 120,
                                     n_max: int = 200) -> float:
    """Residual of the reconstructed chain state at energy chi.

    Small (<= 1e-4) exactly when chi is an eigenvalue of the given parity
    block; the minimal-solution path is used for numerical stability.
    """
    coeffs, _ = bargmann_minimal_coefficients(params, parity, chi, j_max)
    state = bargmann_to_chain(coeffs, n_max=n_max)
    return chain_residual(params, parity, chi, state.v)


# ---------------------------------------------------------------------------
# identical qubits: three-term reduction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdenticalQubitCoefficients:
    """Three-term recurrence output for identical qubits.

    ratios[j] = alpha_j / alpha_{j+1}, the diagnostic whose limit is 1;
    phi2 is the companion series, identically zero on the parity-forbidden
    power slots.
    """

    parity: Parity
    chi: float
    c: np.ndarray
    alphas: np.ndarray
    ratios: np.ndarray
    phi2: np.ndarray


def bargmann_identical_coefficients(omega0: float, g_plus: float,
                                    parity: Parity, chi: float, j_max: int
                                    ) -> IdenticalQubitCoefficients:
    """Three-term recurrence c_j = (alpha_j c_{j-1} - (1 - d_{1j}) c_{j-2})/j.

    alpha_j = ([chi - (j-1)]^2 - w0^2 [on alternating steps]) /
    (g_plus [chi - (j-1)]), with omega_f = 1; the omega_0 term enters at
    even steps for odd parity and at odd steps for even parity.  Raises
    StepSingular when chi hits the bare ladder level j-1 (the exceptional
    points).
    """
    if j_max < 2:
        raise ConfigError("j_max must be >= 2")
    if g_plus == 0.0:
        raise StepSingular("g_plus = 0: alpha_j undefined")
    omega0_on_even_j = parity is Parity.ODD
    c = np.zeros(j_max + 1)
    alphas = np.zeros(j_max + 2)
    c[0] = 1.0
    for j in range(1, j_max + 2):
        base = chi - (j - 1)
        if abs(base) < 1e-12 * max(abs(chi), j - 1, 1.0):
            raise StepSingular(
                f"chi coincides with the bare ladder level j-1 at j={j}")
        w = omega0 if (j % 2 == 0) == omega0_on_even_j else 0.0
        alphas[j] = (base * base - w * w) / (g_plus * base)
        if j <= j_max:
            c[j] = (alphas[j] * c[j - 1]
                    - (c[j - 2] if j >= 2 else 0.0)) / j
            if abs(c[j]) > OVERFLOW_LIMIT:
                raise OverflowDetected(f"coefficient magnitude exceeded "
                                       f"1e300 at j={j}")
    ratios = np.zeros(j_max + 1)
    ratios[1:] = alphas[1:j_max + 1] / alphas[2:j_max + 2]
    # companion series: omega0 c_k / (k - chi) on the allowed slots
    phi2 = np.zeros(j_max + 1)
    for k in range(j_max + 1):
        if (k % 2 == 0) == omega0_on_even_j:
            continue
        phi2[k] = omega0 * c[k] / (k - chi)
    return IdenticalQubitCoefficients(parity, chi, c, alphas[:j_max + 1],
                                      ratios, phi2)
