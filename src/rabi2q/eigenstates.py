"""Eigenstate construction by recurrence relations.

Two routes are implemented: the four-term vector recurrence over the parity
chain blocks, and the five-term (three-term for identical qubits) recurrence
for the power-series coefficients of the parity-projected Bargmann functions.

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
(the refiner's residual at ``DPS + GUARD_DIGITS``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import mpmath as mp
import numpy as np

from .errors import (ConfigError, ConvergenceFailure, OverflowDetected,
                     SingularCoupling, StepSingular)
from .hamiltonian import build_parity_band, build_parity_matrix
from .model import (ModelParams, Parity, QubitLevel, TruncationConfig,
                    basis_table)
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

    v is the flattened parity-chain vector, normalized; blocks past
    cut_index are zeroed (the recurrence tail is dominated by the growing
    solution beyond the minimum-norm block).  scale_log10 accumulates the
    rescalings applied while iterating.  refine_residual is the mp residual
    ||(H - xi) x||_2 of the refined pair behind the seed, if there was one.
    """

    parity: Parity
    xi: float
    v: np.ndarray
    norm: float
    cut_index: int
    scale_log10: float
    refine_residual: float | None = None


def _check_couplings(params: ModelParams):
    g1, g2 = abs(params.g_1), abs(params.g_2)
    if abs(g1 - g2) <= 1e-14 * max(g1, g2, 1e-300):
        raise SingularCoupling(
            "|g1| == |g2|: off-diagonal blocks are not invertible; "
            "use the dense eigensolver for this case")


def _mp_chain_diagonal(params: ModelParams, parity: Parity, n_max: int):
    """Diagonal block entries computed in mp arithmetic."""
    w1, w2 = mp.mpf(params.omega_1), mp.mpf(params.omega_2)
    wf = mp.mpf(params.omega_f)
    table = basis_table(TruncationConfig(max(n_max, 1)))
    diag = [n * wf + (s1 * w1 + s2 * w2) / 2
            for n, s1, s2 in zip(table.photon[parity].tolist(),
                                 table.sz1[parity].tolist(),
                                 table.sz2[parity].tolist())]
    return [diag[2 * j:2 * j + 2] for j in range(n_max + 1)]


def _recurrence_blocks_mp(params: ModelParams, parity: Parity, xi, v0,
                          n_max: int, rescale: bool = True,
                          overflow_limit: float = OVERFLOW_LIMIT):
    """Raw mp block sequence of the four-term recurrence (no cut).

    Returns (blocks, scale_log10).  Blocks are rescaled whenever the running
    maximum grows past RESCALE_TRIGGER (checked every RESCALE_EVERY steps);
    a block exceeding overflow_limit between rescale checkpoints raises
    OverflowDetected.  rescale=False keeps the sequence a literal solution
    of the recurrence so independent runs can be mixed linearly.
    """
    d = _mp_chain_diagonal(params, parity, n_max)
    g1, g2 = mp.mpf(params.g_1), mp.mpf(params.g_2)
    det = g1 * g1 - g2 * g2
    xi = mp.mpf(xi)
    v = [[mp.mpf(v0[0]), mp.mpf(v0[1])]]
    scale_log10 = 0.0
    run_max = mp.mpf(1)

    def step(j, w):
        dp = d[j - 1][0] - xi
        dm = d[j - 1][1] - xi
        f = 1 / (mp.sqrt(j) * det)
        return [-(f * (g1 * dp * w[0] - g2 * dm * w[1])),
                -(f * (-g2 * dp * w[0] + g1 * dm * w[1]))]

    for j in range(1, n_max + 1):
        nxt = step(j, v[j - 1])
        if j >= 2:
            s = mp.sqrt(mp.mpf(j - 1) / j)
            nxt[0] -= s * v[j - 2][0]
            nxt[1] -= s * v[j - 2][1]
        v.append(nxt)
        mag = max(abs(nxt[0]), abs(nxt[1]))
        if mag > overflow_limit:
            raise OverflowDetected(
                f"block magnitude exceeded {overflow_limit:g} at j={j} "
                f"(xi far from the spectrum)")
        run_max = max(run_max, mag)
        if rescale and j % RESCALE_EVERY == 0 and run_max > RESCALE_TRIGGER:
            inv = 1 / run_max
            for blk in v:
                blk[0] *= inv
                blk[1] *= inv
            scale_log10 += float(mp.log10(run_max))
            run_max = mp.mpf(1)
    return v, scale_log10


def _cut_normalize(parity: Parity, xi, blocks, scale_log10,
                   n_max: int) -> RecurrenceState:
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
    norm = float(np.linalg.norm(flat))
    if norm == 0.0:
        raise OverflowDetected("recurrence produced a null vector")
    return RecurrenceState(parity, float(xi), flat / norm, norm, cut,
                           scale_log10)


def recurrence_eigenstate_la(params: ModelParams, parity: Parity, xi, v0,
                             n_max: int) -> RecurrenceState:
    """Run the four-term recurrence from seed block v0 at energy xi.

    xi and the two components of v0 may be floats or mpmath values; the
    iteration runs at DPS decimal digits.  The residual of the result is
    limited by the accuracy of (xi, v0): feed values from refine_eigenpair
    to resolve the decaying solution below double precision.
    """
    _check_couplings(params)
    if float(abs(v0[0])) == 0.0 and float(abs(v0[1])) == 0.0:
        raise ValueError("seed block v0 must be nonzero")
    with mp.workdps(DPS):
        blocks, scale_log10 = _recurrence_blocks_mp(params, parity, xi, v0,
                                                    n_max)
    return _cut_normalize(parity, xi, blocks, scale_log10, n_max)


def _band_residual(band: np.ndarray, xi: float, v: np.ndarray) -> float:
    """||(H - xi) v|| / ||v|| for H in lower band storage."""
    hv = band_matvec(band, v[:, None])[:, 0]
    return float(np.linalg.norm(hv - xi * v) / np.linalg.norm(v))


def chain_residual(params: ModelParams, parity: Parity, xi: float,
                   v: np.ndarray) -> float:
    """Relative residual ||(H - xi) v|| / ||v|| on the truncated chain."""
    trunc = TruncationConfig(len(v) // 2 - 1)
    return _band_residual(build_parity_band(params, parity, trunc), xi, v)


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


def _mp_residual(d, a, b, xi, x):
    """(H - xi) x in mp, one exact dot product per row; d holds the
    diagonal blocks, a[j] and b[j] the entries of O_j (zero past the ends).
    """
    pad, nxi = [mp.mpf(0)], -xi
    p, q = pad + x[0::2] + pad, pad + x[1::2] + pad
    out = []
    for j, (d0, d1) in enumerate(d):
        lo, hi = (a[j], b[j]), (a[j + 1], b[j + 1])
        near = (p[j], q[j], p[j + 2], q[j + 2])
        out.append(mp.fdot((d0, nxi, *lo, *hi), (p[j + 1], p[j + 1], *near)))
        out.append(mp.fdot((d1, nxi, *lo[::-1], *hi[::-1]),
                           (q[j + 1], q[j + 1], *near)))
    return out


def refine_eigenpair(params: ModelParams, parity: Parity, xi0: float,
                     vec0: np.ndarray, n_max: int):
    """Sharpen a float eigenpair of the chain matrix to mp precision.

    Newton on F(x, xi) = [(H - xi) x; (x^T x - 1)/2] with the Jacobian
    frozen at the start (Dongarra, Moler & Wilkinson, SIAM J. Numer. Anal.
    20 (1983) 23): F in mp at DPS + GUARD_DIGITS digits, the correction in
    float64 from one banded LU of H - xi0.  H - xi0 is singular to double
    precision, so the border is eliminated with deflation: the x0 part of F
    is split off before the solve and the near-null direction enters only
    as u = w / (x0^T w), w = (H - xi0)^-1 x0.  The float arithmetic is
    scalar or elementwise, so no result depends on the BLAS thread count.

    Returns (xi, x, residual), xi and the list x in mp, once residual =
    ||(H - xi) x||_2 and ||H|| |x^T x - 1| / 2 are at most
    tol = ||H||_inf 10^-(DPS + GUARD_DIGITS); raises ConvergenceFailure,
    with the residual reached, if NEWTON_STEPS steps do not get there or
    the iteration leaves the float range.
    """
    band = build_parity_band(params, parity, TruncationConfig(n_max))
    x0 = np.asarray(vec0, dtype=float)
    hnorm = band_norm(band)
    factors = _band_lu(band, float(xi0), np.finfo(float).eps * hnorm)
    w = _band_solve(factors, x0)
    xw = math.fsum(x0 * w)
    if not (xw and math.isfinite(xw)):
        raise ConvergenceFailure("bordered Newton system is singular")
    u = w / xw
    digits = DPS + GUARD_DIGITS
    tol = hnorm * 10.0 ** -digits
    with mp.workdps(digits):
        d = _mp_chain_diagonal(params, parity, n_max)
        s = [mp.sqrt(j) for j in range(n_max + 1)] + [mp.mpf(0)]
        a, b = ([c * mp.mpf(g) for c in s] for g in (params.g_1, params.g_2))
        xi, x = mp.mpf(float(xi0)), [mp.mpf(c) for c in x0.tolist()]
        for step in range(NEWTON_STEPS + 1):
            f = -np.array([float(c) for c in _mp_residual(d, a, b, xi, x)])
            h = float((1 - mp.fdot(x, x)) / 2)
            res = math.hypot(*f)
            if res <= tol and abs(h) * hnorm <= tol:
                return xi, x, res
            if step == NEWTON_STEPS or not math.isfinite(res + h):
                break
            c = math.fsum(x0 * f)
            z = _band_solve(factors, f - c * x0)
            t = h - math.fsum(x0 * z)
            x = [xk + dk for xk, dk in zip(x, (z + t * u).tolist())]
            xi += t / xw - c
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


def best_seed_recurrence_state(params: ModelParams, parity: Parity, xi,
                               n_max: int, seeds=((1.0, 0.0), (0.0, 1.0)),
                               n_coarse: int = 60):
    """Least-residual state over mixtures of two independent seed blocks.

    The recurrence is linear in the seed, so the two basis runs are formed
    once (unrescaled, so mixtures stay literal solutions).  Both runs end
    dominated by the same growing solution, so the mixing angle that kills
    it follows in closed form from the final blocks; at an eigenvalue this
    angle projects out the divergent component to working precision.  A
    coarse angle scan acts as a fallback when the tail heuristic loses
    (e.g. xi far from any eigenvalue).  Returns (state, angle, residual).
    """
    _check_couplings(params)
    band = build_parity_band(params, parity, TruncationConfig(n_max))
    with mp.workdps(DPS):
        runs = []
        for seed in seeds:
            blocks, _ = _recurrence_blocks_mp(params, parity, xi, seed,
                                              n_max, rescale=False,
                                              overflow_limit=1e600)
            runs.append(blocks)

        def state_at(theta):
            ct, st = mp.cos(theta), mp.sin(theta)
            mixed = [[ct * a[0] + st * b[0], ct * a[1] + st * b[1]]
                     for a, b in zip(runs[0], runs[1])]
            return _cut_normalize(parity, xi, mixed, 0.0, n_max)

        def score(theta):
            try:
                return _band_residual(band, float(xi), state_at(theta).v)
            except OverflowDetected:
                return np.inf

        u_end, w_end = runs[0][-1], runs[1][-1]
        comp = 0 if (abs(u_end[0]) + abs(w_end[0])
                     >= abs(u_end[1]) + abs(w_end[1])) else 1
        candidates = []
        if abs(u_end[comp]) > 0 or abs(w_end[comp]) > 0:
            theta0 = mp.atan2(-u_end[comp], w_end[comp])
            if theta0 < 0:
                theta0 += mp.pi
            candidates.append(theta0)
        step = mp.pi / n_coarse
        scan = [k * step for k in range(n_coarse)]
        scan_scores = [score(t) for t in scan]
        candidates.append(scan[int(np.argmin(scan_scores))])
        theta = min(candidates, key=score)
        state = state_at(theta)
    return state, float(theta), residual(params, parity, state)


# ---------------------------------------------------------------------------
# Bargmann-representation recurrences
# ---------------------------------------------------------------------------

# The parity label selects the branch of the printed coefficient formulas.
# Under the rotation conventions fixed in _bargmann_to_spinors (qubit basis
# rotated so couplings become diagonal, reflection symmetry realized as
# sigma_x sigma_x P_z), the even chain pairs with branch sign -1 and the odd
# chain with +1; the pairing is pinned by the reconstruction oracle.
_BRANCH_SIGN = {Parity.EVEN: -1, Parity.ODD: +1}
_SPINOR_SIGN = {Parity.EVEN: +1, Parity.ODD: -1}


def _bargmann_alphas(params: ModelParams, parity: Parity, chi: float,
                     j: int) -> tuple:
    """Coefficients alpha_0..alpha_4 of row j of the five-term recurrence."""
    s = _BRANCH_SIGN[parity]
    w1, w2, wf = params.omega_1, params.omega_2, params.omega_f
    gp, gm = params.g_plus, params.g_minus
    pj = (-1) ** j
    br_m = w1 - s * pj * w2
    br_p = w1 + s * pj * w2
    a0 = j * (j - 1) * gp * gm * br_m
    a1 = (j - 1) * (gm * br_m * ((j - 1) * wf - chi)
                    + gp * br_p * (chi - (j - 2) * wf))
    a2 = ((2 * j - 3) * gp * gm * br_m
          + br_p * (0.25 * br_m ** 2 - (chi - (j - 2) * wf) ** 2))
    a3 = (gp * br_p * (chi - (j - 2) * wf)
          - gm * br_m * (chi - (j - 3) * wf))
    a4 = gp * gm * br_m
    return a0, a1, a2, a3, a4


def _alpha0_scale(params: ModelParams, j: int) -> float:
    return (j * (j - 1) * abs(params.g_plus * params.g_minus)
            * (abs(params.omega_1) + abs(params.omega_2)))


@dataclass(frozen=True)
class BargmannCoefficients:
    """Power-series coefficients of the parity-projected Bargmann functions.

    c interleaves the even-power series (slots 0, 2, ...) and the odd-power
    series (slots 1, 3, ...); phi2 holds the companion function derived from
    the same series.  alpha_table[j] stores the five coefficients used at
    step j (rows 0, 1 are unused).
    """

    parity: Parity
    chi: float
    c: np.ndarray
    alpha_table: np.ndarray
    phi2: np.ndarray
    scale_log10: float


def _phi2_series(params: ModelParams, parity: Parity, chi: float,
                 c: np.ndarray) -> np.ndarray:
    """Companion series from the two first-order relations.

    Power k of the companion is ((k wf - chi) c_k + g_plus (c_{k-1}
    + (k+1) c_{k+1})) divided by (w2 -+ w1)/2 for even/odd k per branch.
    """
    s = _BRANCH_SIGN[parity]
    w1, w2, wf = params.omega_1, params.omega_2, params.omega_f
    gp = params.g_plus
    div_even = 0.5 * (w2 - s * w1)
    div_odd = 0.5 * (w2 + s * w1)
    jm = len(c) - 1
    out = np.empty(jm + 1)
    for k in range(jm + 1):
        t = (k * wf - chi) * c[k] + gp * ((c[k - 1] if k >= 1 else 0.0)
                                          + ((k + 1) * c[k + 1]
                                             if k + 1 <= jm else 0.0))
        div = div_even if k % 2 == 0 else div_odd
        out[k] = t / div if div != 0.0 else np.nan
    return out


def bargmann_coefficients(params: ModelParams, parity: Parity, chi: float,
                          j_max: int, c1: float = 0.0) -> BargmannCoefficients:
    """Forward evaluation of the five-term recurrence with c0 = 1.

    The second seed c1 is a free parameter (the recurrence determines c2, c3
    from the two startup rows and everything beyond from the five-term row).
    The forward iteration is dominated by the growing solutions, so this is
    an identity-exposing tool; use bargmann_minimal_coefficients for a
    reconstructable solution.
    """
    if j_max < 4:
        raise ConfigError("j_max must be >= 4")
    if params.g_plus * params.g_minus == 0.0:
        raise StepSingular("g_plus * g_minus = 0: alpha_0 vanishes "
                           "identically")
    c = np.zeros(j_max + 1)
    c[0], c[1] = 1.0, c1
    table = np.zeros((j_max + 1, 5))
    scale_log10 = 0.0

    def leading(j):
        a = _bargmann_alphas(params, parity, chi, j)
        table[j] = a
        if abs(a[0]) <= 1e-14 * _alpha0_scale(params, j):
            raise StepSingular(
                f"alpha_0 vanishes at step j={j} "
                f"(omega_1 = -+(-1)^j omega_2 or g_plus g_minus = 0)")
        return a

    a = leading(2)
    c[2] = -(a[1] * c[1] + a[2] * c[0]) / a[0]
    a = leading(3)
    c[3] = -(a[1] * c[2] + a[2] * c[1] + a[3] * c[0]) / a[0]
    run_max = 1.0
    for j in range(4, j_max + 1):
        a = leading(j)
        c[j] = -(a[1] * c[j - 1] + a[2] * c[j - 2] + a[3] * c[j - 3]
                 + a[4] * c[j - 4]) / a[0]
        if not np.isfinite(c[j]) or abs(c[j]) > OVERFLOW_LIMIT:
            raise OverflowDetected(f"coefficient magnitude exceeded 1e300 "
                                   f"at j={j}")
        run_max = max(run_max, abs(c[j]))
        if j % RESCALE_EVERY == 0 and run_max > RESCALE_TRIGGER:
            c[:j + 1] /= run_max
            scale_log10 += math.log10(run_max)
            run_max = 1.0
    phi2 = _phi2_series(params, parity, chi, c)
    return BargmannCoefficients(parity, chi, c, table, phi2, scale_log10)


def bargmann_minimal_coefficients(params: ModelParams, parity: Parity,
                                  chi: float, j_max: int):
    """Decaying solution of the five-term system, via the smallest singular
    vector of the banded row matrix with a zero tail appended.

    Forward evaluation cannot reach the minimal solution in fixed precision
    (growing solutions amplify roundoff by orders of magnitude per step);
    the least-squares formulation recovers it directly.  Returns
    (BargmannCoefficients, smallest_singular_value); the singular value is
    O(1e-15) when chi is an eigenvalue and O(1e-2) away from one.
    """
    if j_max < 8:
        raise ConfigError("j_max must be >= 8")
    rows = []
    for j in range(2, j_max + 5):
        a = _bargmann_alphas(params, parity, chi, j)
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
    coeffs = BargmannCoefficients(parity, chi, c,
                                  np.zeros((j_max + 1, 5)), phi2, 0.0)
    return coeffs, float(sv[-1])


@dataclass(frozen=True)
class BargmannChainState:
    """Parity-chain vector reconstructed from Bargmann coefficients."""

    parity: Parity
    chi: float
    v: np.ndarray
    other_chain_weight: float
    cut_index: int

    @property
    def xi(self) -> float:
        return self.chi


_ROTATION = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)


def _bargmann_to_spinors(params: ModelParams, parity: Parity, chi: float,
                         c: np.ndarray, phi2: np.ndarray):
    """Fock-space amplitudes of the four rotated spinor components.

    The first function carries the diagonal coupling g_plus, the companion
    g_minus; the remaining two components follow from the reflection
    symmetry with the parity-dependent sign.
    """
    sigma = _SPINOR_SIGN[parity]
    jm = len(c) - 1
    signs = (-1.0) ** np.arange(jm + 1)
    sq = np.array([math.exp(0.5 * math.lgamma(n + 1)) for n in range(jm + 1)])
    return {
        (0, 0): c * sq,
        (0, 1): phi2 * sq,
        (1, 0): sigma * signs * phi2 * sq,
        (1, 1): sigma * signs * c * sq,
    }


def bargmann_to_chain(params: ModelParams, parity: Parity, chi: float,
                      coeffs: BargmannCoefficients,
                      n_max: int | None = None) -> BargmannChainState:
    """Convert coefficient series to a normalized parity-chain vector.

    Uses z^k <-> sqrt(k!) |k> and rotates the spinor components back to the
    lab qubit basis; the growing tail past the minimum-magnitude photon
    level is dropped before normalization.
    """
    psi = _bargmann_to_spinors(params, parity, chi, coeffs.c, coeffs.phi2)
    jm = len(coeffs.c) - 1
    if n_max is None:
        n_max = jm
    norms = np.sqrt(sum(np.abs(a) ** 2 for a in psi.values()))
    finite = np.where(np.isfinite(norms) & (norms > 0), norms, np.inf)
    cut = int(np.argmin(finite))
    levels = (QubitLevel.E, QubitLevel.G)
    trunc = TruncationConfig(max(n_max, 1))
    table = basis_table(trunc)
    chains = {Parity.EVEN: np.zeros(trunc.chain_dim),
              Parity.ODD: np.zeros(trunc.chain_dim)}
    for (iu, iv), arr in psi.items():
        for ia in range(2):
            for ib in range(2):
                weight = _ROTATION[ia, iu] * _ROTATION[ib, iv]
                if weight == 0.0:
                    continue
                for par, chain in chains.items():
                    n = table.photon[par]
                    slots = ((table.sz1[par] == levels[ia].sz)
                             & (table.sz2[par] == levels[ib].sz)
                             & (n <= min(cut, n_max)))
                    chain[slots] += weight * arr[n[slots]]
    own = np.linalg.norm(chains[parity])
    other = Parity.ODD if parity is Parity.EVEN else Parity.EVEN
    total = math.hypot(own, np.linalg.norm(chains[other]))
    if own == 0.0:
        raise OverflowDetected("reconstruction produced a null vector")
    return BargmannChainState(parity, chi, chains[parity] / own,
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
    state = bargmann_to_chain(params, parity, chi, coeffs, n_max=n_max)
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
                                    parity: Parity, chi: float, j_max: int,
                                    omega_f: float = 1.0
                                    ) -> IdenticalQubitCoefficients:
    """Three-term recurrence c_j = (alpha_j c_{j-1} - (1 - d_{1j}) c_{j-2})/j.

    alpha_j = ([chi - (j-1) wf]^2 - w0^2 [on alternating steps]) /
    (g_plus [chi - (j-1) wf]); the omega_0 term enters at even steps for
    odd parity and at odd steps for even parity.  Raises StepSingular when
    chi hits the bare ladder (j-1) wf (the exceptional points).
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
        base = chi - (j - 1) * omega_f
        if abs(base) < 1e-12 * max(abs(chi), (j - 1) * omega_f, omega_f):
            raise StepSingular(
                f"chi coincides with the bare ladder level (j-1) omega_f "
                f"at j={j}")
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
    # companion series: omega0 c_k / (k wf - chi) on the allowed slots
    phi2 = np.zeros(j_max + 1)
    for k in range(j_max + 1):
        if (k % 2 == 0) == omega0_on_even_j:
            continue
        phi2[k] = omega0 * c[k] / (k * omega_f - chi)
    return IdenticalQubitCoefficients(parity, chi, c, alphas[:j_max + 1],
                                      ratios, phi2)
