"""Eigenstate construction by recurrence relations.

One route per representation: the four-term vector recurrence over the
parity chain blocks, and the five-term recurrence for the power-series
coefficients of the parity-projected Bargmann functions, solved for its
minimal solution by least squares (no forward iteration: minimal solutions
cannot come from forward recursion).  Where alpha_0 vanishes (identical
qubits) the five-term route raises StepSingular; a three-term recurrence
covers that case.

Both recurrences are dominated by growing solutions, so they serve as
verification and structure-exposing tools; the production eigensolvers are
in ``numerics`` (dense diagonalization, and the banded k-lowest solver of the
spectrum sweeps).  The four-term route runs in extended precision (mpmath)
because the achievable residual is limited by the accuracy of the eigenvalue
and seed fed to it: a double-precision eigenpair is amplified to ~1e-4
within a dozen steps.  ``refine_eigenpair`` sharpens a float eigenpair far
past double precision by mixed-precision Newton (residual in mpmath,
corrections in float64) so the recurrence can track the decaying solution
deep into its tail.  The four-term route works at ``DPS`` decimal digits
(the refiner's residual at ``DPS + GUARD_DIGITS``) on raw mpf tuples via
``mpmath.libmp``, the operations, and so the bits, of the mpf operators and
``mp.fdot``, from mp tables built once per chain and precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import mpmath as mp
import numpy as np
from mpmath.libmp import (fone, from_float, from_int, fzero, mpf_abs,
                          mpf_add, mpf_div, mpf_gt, mpf_mul, mpf_neg,
                          mpf_rdiv_int, mpf_sub, mpf_sum, to_float)

from .errors import (ConfigError, ConvergenceFailure, OverflowDetected,
                     SingularCoupling, StepSingular)
from .hamiltonian import build_parity_band, build_parity_matrix
from .model import ModelParams, Parity, TruncationConfig, basis_table
from .numerics import (EigenDecomposition, band_matvec, band_norm, eigh,
                       general_band)

# decimal digits of the mp recurrences and of the refined eigenpairs
DPS = 60
OVERFLOW_LIMIT = 1e300
RESCALE_EVERY = 32
RESCALE_TRIGGER = 1e150


# ---------------------------------------------------------------------------
# four-term chain recurrence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RecurrenceState:
    """Candidate eigenstate from the four-term recurrence.

    v is the flattened parity-chain vector of the given parity at energy
    xi, normalized; blocks past cut_index are zeroed (the recurrence tail is
    dominated by the growing solution beyond the minimum-norm block).
    refine_residual is the mp residual ||(H - xi) x||_2 of the refined pair
    behind the seed, if there was one.
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


@lru_cache(maxsize=8)
def _chain_tables(params: ModelParams, parity: Parity, n_max: int,
                  prec: int):
    """Raw mpf tables of one chain, each entry formed once by the mpf
    operators at prec bits: the diagonal blocks (d0, d1) of photon levels
    0..n_max; the entries g1 sqrt(j) and g2 sqrt(j) of O_j for
    j = 0..n_max + 1 (zero past the chain); per recurrence step
    j = 1..n_max, 1 / (sqrt(j) det) and sqrt((j - 1) / j), det = g1^2 - g2^2
    (no steps when det vanishes); and (g1, g2, -g2)."""
    with mp.workprec(prec):
        w1, w2 = mp.mpf(params.omega_1), mp.mpf(params.omega_2)
        g1, g2 = mp.mpf(params.g_1), mp.mpf(params.g_2)
        det = g1 * g1 - g2 * g2
        table = basis_table(TruncationConfig(max(n_max, 1)))
        diag = [(n + (s1 * w1 + s2 * w2) / 2)._mpf_
                for n, s1, s2 in zip(table.photon[parity].tolist(),
                                     table.sz1[parity].tolist(),
                                     table.sz2[parity].tolist())]
        root = [mp.sqrt(j) for j in range(n_max + 1)] + [mp.mpf(0)]
        step = tuple(((1 / (root[j] * det))._mpf_,
                      mp.sqrt(mp.mpf(j - 1) / j)._mpf_)
                     for j in range(1, n_max + 1)) if det else ()
        return (tuple(zip(diag[0::2], diag[1::2]))[:n_max + 1],
                tuple((r * g1)._mpf_ for r in root),
                tuple((r * g2)._mpf_ for r in root), step,
                (g1._mpf_, g2._mpf_, (-g2)._mpf_))


def _recurrence_blocks_mp(params: ModelParams, parity: Parity, xi, v0,
                          n_max: int):
    """Raw mp block sequence of the four-term recurrence (no cut).

    Each step is the mpf operators' arithmetic at the context's (prec,
    rounding), done on raw mpf tuples.  Blocks are rescaled whenever the
    running maximum grows past RESCALE_TRIGGER (checked every RESCALE_EVERY
    steps), which keeps them inside the float exponent range the overflow
    guard compares against; a block exceeding OVERFLOW_LIMIT between
    rescale checkpoints raises OverflowDetected.  |g1| = |g2| raises
    SingularCoupling.
    """
    _check_couplings(params)
    prec, rnd = mp.mp._prec_rounding
    diag, _, _, steps, (g1, g2, ng2) = _chain_tables(params, parity, n_max,
                                                     prec)
    mul, add, sub = (partial(op, prec=prec, rnd=rnd)
                     for op in (mpf_mul, mpf_add, mpf_sub))
    xi, v = mp.mpf(xi)._mpf_, [tuple(mp.mpf(c)._mpf_ for c in v0[:2])]
    limit, trigger = from_float(OVERFLOW_LIMIT), from_float(RESCALE_TRIGGER)
    run_max = fone
    for j in range(1, n_max + 1):
        (d0, d1), (f, s) = diag[j - 1], steps[j - 1]
        (w0, w1), dp, dm = v[j - 1], sub(d0, xi), sub(d1, xi)
        nxt0 = mpf_neg(mul(f, sub(mul(mul(g1, dp), w0),
                                  mul(mul(g2, dm), w1))), prec, rnd)
        nxt1 = mpf_neg(mul(f, add(mul(mul(ng2, dp), w0),
                                  mul(mul(g1, dm), w1))), prec, rnd)
        if j >= 2:
            u0, u1 = v[j - 2]
            nxt0, nxt1 = sub(nxt0, mul(s, u0)), sub(nxt1, mul(s, u1))
        v.append((nxt0, nxt1))
        a0, a1 = mpf_abs(nxt0), mpf_abs(nxt1)
        mag = a1 if mpf_gt(a1, a0) else a0
        if mpf_gt(mag, limit):
            raise OverflowDetected(
                f"block magnitude exceeded {OVERFLOW_LIMIT:g} at j={j} "
                f"(xi far from the spectrum)")
        if mpf_gt(mag, run_max):
            run_max = mag
        if j % RESCALE_EVERY == 0 and mpf_gt(run_max, trigger):
            inv = mpf_rdiv_int(1, run_max, prec, rnd)
            v = [(mul(b0, inv), mul(b1, inv)) for b0, b1 in v]
            run_max = fone
    return [[mp.make_mpf(b0), mp.make_mpf(b1)] for b0, b1 in v]


def _cut_normalize(parity: Parity, xi, blocks, n_max: int) -> RecurrenceState:
    """Zero the growing tail past the minimum-norm block and normalize.

    Normalization happens in mp arithmetic first: the running rescales may
    have pushed the kept prefix far outside the double-precision exponent
    range even though its shape is perfectly finite.
    """
    with mp.workdps(DPS):
        norms = [mp.sqrt(b[0] ** 2 + b[1] ** 2) for b in blocks]
        positive = [i for i, nm in enumerate(norms) if nm > 0]
        if not positive:
            raise OverflowDetected("recurrence produced a null vector")
        cut = min(positive, key=lambda i: norms[i])
        prefix_norm = mp.sqrt(mp.fsum(blocks[j][0] ** 2 + blocks[j][1] ** 2
                                      for j in range(cut + 1)))
        out = np.zeros((n_max + 1, 2))
        for j in range(cut + 1):
            out[j] = [float(blocks[j][0] / prefix_norm),
                      float(blocks[j][1] / prefix_norm)]
    flat = out.ravel()
    return RecurrenceState(parity, float(xi),
                           flat / float(np.linalg.norm(flat)), cut)


def recurrence_eigenstate_la(params: ModelParams, parity: Parity, xi, v0,
                             n_max: int) -> RecurrenceState:
    """Run the four-term recurrence from seed block v0 at energy xi.

    xi and the two components of v0 may be floats or mpmath values; the
    iteration runs at DPS decimal digits.  The residual of the result is
    limited by the accuracy of (xi, v0): feed values from refine_eigenpair
    to resolve the decaying solution below double precision.
    """
    if float(abs(v0[0])) == 0.0 and float(abs(v0[1])) == 0.0:
        raise ValueError("seed block v0 must be nonzero")
    with mp.workdps(DPS):
        blocks = _recurrence_blocks_mp(params, parity, xi, v0, n_max)
    return _cut_normalize(parity, xi, blocks, n_max)


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


def _mp_residual(tables, xi, x, prec: int, rnd) -> list:
    """-(H - xi) x rounded to floats: per row, the exact products of the
    raw mpf entries summed and rounded once at prec, as mp.fdot does."""
    (diag, a, b, *_), nxi = tables, mpf_neg(xi, prec, rnd)
    p, q = [fzero, *x[0::2], fzero], [fzero, *x[1::2], fzero]
    out = []
    for (d0, d1), pl, pc, ph, ql, qc, qh, al, ah, bl, bh in zip(
            diag, p, p[1:], p[2:], q, q[1:], q[2:], a, a[1:], b, b[1:]):
        out.append(mpf_sum([mpf_mul(d0, pc), mpf_mul(nxi, pc),
                            mpf_mul(al, pl), mpf_mul(bl, ql),
                            mpf_mul(ah, ph), mpf_mul(bh, qh)], prec, rnd))
        out.append(mpf_sum([mpf_mul(d1, qc), mpf_mul(nxi, qc),
                            mpf_mul(bl, pl), mpf_mul(al, ql),
                            mpf_mul(bh, ph), mpf_mul(ah, qh)], prec, rnd))
    return [-to_float(r, rnd=rnd) for r in out]


def refine_eigenpair(params: ModelParams, parity: Parity, xi0: float,
                     vec0: np.ndarray, n_max: int):
    """Sharpen a float eigenpair of the chain matrix to mp precision.

    Newton on F(x, xi) = [(H - xi) x; (x^T x - 1)/2] with the Jacobian
    frozen at the start (Dongarra, Moler & Wilkinson, SIAM J. Numer. Anal.
    20 (1983) 23): F in mp at DPS + GUARD_DIGITS digits, the correction in
    float64 from one banded LU of H - xi0.  H - xi0 is singular to double
    precision, so the border is eliminated with deflation: the x0 part of F
    is split off before the solve and the near-null direction enters only
    as u = w / (x0^T w), w = (H - xi0)^-1 x0.  Past |x0^T w| = 1 / (eps^2
    ||H||), xi0 sits on a level so far below double precision that u's
    cancellation in the corrections swamps them: the LU moves to xi0 +
    eps ||H||.  The float arithmetic is scalar or elementwise, so no result
    depends on the BLAS thread count.

    F runs on raw mpf tuples with the chain's cached ``_chain_tables``:
    each row of (H - xi) x, and x^T x, is an exact dot product rounded
    once at the context's (prec, rounding), bit for bit mp.fdot.

    Returns (xi, x, residual), xi and the list x as mpf, once residual =
    ||(H - xi) x||_2 and ||H|| |x^T x - 1| / 2 are at most
    tol = ||H||_inf 10^-(DPS + GUARD_DIGITS); raises ConvergenceFailure,
    with the residual reached, if NEWTON_STEPS steps do not get there or
    the iteration leaves the float range.
    """
    band = build_parity_band(params, parity, TruncationConfig(n_max))
    x0 = np.asarray(vec0, dtype=float)
    hnorm = band_norm(band)
    eps = np.finfo(float).eps
    for shift in (float(xi0), float(xi0) + eps * hnorm):
        factors = _band_lu(band, shift, eps * hnorm)
        w = _band_solve(factors, x0)
        xw = math.fsum(x0 * w)
        if abs(xw) * hnorm * eps ** 2 <= 1:
            break
    if not (xw and math.isfinite(xw)):
        raise ConvergenceFailure("bordered Newton system is singular")
    u = w / xw
    digits = DPS + GUARD_DIGITS
    tol = hnorm * 10.0 ** -digits
    with mp.workdps(digits):
        prec, rnd = mp.mp._prec_rounding
        tables = _chain_tables(params, parity, n_max, prec)
        xi, x = from_float(float(xi0)), [from_float(c) for c in x0.tolist()]
        for step in range(NEWTON_STEPS + 1):
            f = np.array(_mp_residual(tables, xi, x, prec, rnd))
            xx = mpf_sum([mpf_mul(c, c) for c in x], prec, rnd)
            h = to_float(mpf_div(mpf_sub(fone, xx, prec, rnd), from_int(2),
                                 prec, rnd), rnd=rnd)
            res = math.hypot(*f)
            if res <= tol and abs(h) * hnorm <= tol:
                return mp.make_mpf(xi), [mp.make_mpf(c) for c in x], res
            if step == NEWTON_STEPS or not math.isfinite(res + h):
                break
            c = math.fsum(x0 * f)
            z = _band_solve(factors, f - c * x0)
            t = h - math.fsum(x0 * z)
            x = [mpf_add(xk, from_float(dk), prec, rnd)
                 for xk, dk in zip(x, (z + t * u).tolist())]
            xi = mpf_add(xi, from_float(t / xw - c), prec, rnd)
    raise ConvergenceFailure(
        f"eigenpair refinement stopped at residual {res:.3e} after "
        f"{step} Newton steps (tolerance {tol:.3e})")


def eigenstate_recurrence(params: ModelParams, parity: Parity, index: int,
                          n_max: int,
                          decomp: EigenDecomposition | None = None
                          ) -> RecurrenceState:
    """Recurrence state for the index-th lowest eigenvalue of one parity.

    Convenience pipeline: dense diagonalization, mp refinement of the
    eigenpair, then the four-term recurrence seeded by the refined first
    block; the state records the refined pair's mp residual.  A caller
    that already holds the dense decomposition of this chain at this
    cutoff passes it as decomp and skips the diagonalization.  index must
    lie in [0, chain dimension).
    """
    _check_couplings(params)
    if not 0 <= index < 2 * (n_max + 1):
        raise ConfigError(f"eigenstate index {index} is outside the "
                          f"{2 * (n_max + 1)} levels of the chain")
    if decomp is None:
        decomp = eigh(build_parity_matrix(params, parity,
                                          TruncationConfig(n_max)))
    xi, x, res = refine_eigenpair(params, parity, decomp.values[index],
                                  decomp.vectors[:, index], n_max)
    state = recurrence_eigenstate_la(params, parity, xi, (x[0], x[1]),
                                     n_max)
    return replace(state, refine_residual=res)


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
                     j: int) -> tuple:
    """Coefficients alpha_0..alpha_4 of row j of the five-term recurrence."""
    s = _BRANCH_SIGN[parity]
    w1, w2 = params.omega_1, params.omega_2
    gp, gm = params.g_plus, params.g_minus
    pj = (-1) ** j
    br_m = w1 - s * pj * w2
    br_p = w1 + s * pj * w2
    a0 = j * (j - 1) * gp * gm * br_m
    a1 = (j - 1) * (gm * br_m * (j - 1 - chi) + gp * br_p * (chi - (j - 2)))
    a2 = ((2 * j - 3) * gp * gm * br_m
          + br_p * (0.25 * br_m ** 2 - (chi - (j - 2)) ** 2))
    a3 = gp * br_p * (chi - (j - 2)) - gm * br_m * (chi - (j - 3))
    a4 = gp * gm * br_m
    return a0, a1, a2, a3, a4


def _alpha0_scale(params: ModelParams, j: int) -> float:
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
    rows = []
    for j in range(2, j_max + 5):
        a = _bargmann_alphas(params, parity, chi, j)
        if abs(a[0]) <= 1e-14 * _alpha0_scale(params, j):
            raise StepSingular(
                f"alpha_0 vanishes at step j={j} "
                f"(omega_1 = -+(-1)^j omega_2 or g_plus g_minus = 0)")
        row = np.zeros(j_max + 1)
        for off, val in enumerate(a[:min(5, j + 1)]):
            k = j - off
            if 0 <= k <= j_max:
                row[k] = val
        scale = np.max(np.abs(row))
        if scale > 0:
            rows.append(row / scale)
    matrix = np.array(rows)
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
