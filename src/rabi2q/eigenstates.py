"""Eigenstate construction by recurrence relations.

One route per representation: the block recurrence of the parity chain,
and the five-term recurrence of the parity-projected Bargmann functions,
solved for the Fock amplitudes sqrt(j!) c_j of their power-series
coefficients c_j as the null vector of its banded row matrix, which finds
the minimal solution (forward recursion cannot).  Both run every
requested level of every parity as one lane of numpy arrays, one pass for
all.  Where alpha_0 vanishes on a row (identical qubits, or g_plus g_minus
or omega_1 -+ omega_2 below BARGMANN_FLOOR) a level is StepSingular on the
five-term route; a three-term recurrence covers identical qubits.

The chain's rows O_j x_{j-1} + (D_j - E) x_j + O_{j+1} x_{j+1} = 0 have a
growing solution in each direction, so ``eigenstates_by_parity`` runs
them from both ends, in float64, batched over the levels of the parities,
at the energies E of ``spectra.converged_parity_eigensystem``: the Schur
complements of the chain above and below each block give the ratios x_j =
R_j x_{j-1} of the decaying solution from the top end (the matrix
continued fraction) and x_j = L_j x_{j+1} from photon 0, and the state is
the null vector of the block where the two meet, spread outward with R
and L (the block form of the twisted factorizations of Dhillon & Parlett,
LAA 387, 1 (2004)), up to the block from which ``numerics.tail_cut``
keeps every state below eps^2 (the rows past it are zeros).  A chain past
2^200 in norm is first scaled by a power of two (``numerics.pivot_shift``)
so that the products the route forms stay finite.  Levels closer than
CLUSTER_GAP ||H|| are orthogonalized within their cluster; a member the
route cannot resolve has no vector, and its residual is nan.
``recurrence_eigenstate_la`` runs the recurrence forward from one block
alone, which any error in its inputs defeats within a few dozen blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, OverflowDetected, SingularCoupling,
                     StepSingular)
from .hamiltonian import build_parity_band
from .model import ModelParams, Parity, TruncationConfig, basis_table
from .numerics import (band_norm, block_pivots, inert_tail,
                       padded_residuals, pivot_shift, tail_cut)
from .spectra import _converged_pairs

OVERFLOW_LIMIT = 1e300
# a recurrence state whose relative residual ||(H - xi) v|| / ||v|| passes
# this is not an eigenstate
RECURRENCE_RESIDUAL_TOL = 1e-6
# levels closer than CLUSTER_GAP ||H|| form a cluster whose states are
# orthogonalized, as LAPACK dstein does
CLUSTER_GAP = 1e-3
# blocks, of least smallest singular value, at which each level's twisted
# state is formed; the one of least residual is kept
TWIST_CANDIDATES = 2
# inverse-iteration steps of the Bargmann route's null vector at most
NULL_STEPS = 3
# a Bargmann state is known to about eps / f, where f is the square root of
# alpha_0's share of its row, or omega_1 -+ omega_2 over the row's energy
# |chi| + j (measured); a level with f below this floor is StepSingular
BARGMANN_FLOOR = np.finfo(float).eps / RECURRENCE_RESIDUAL_TOL


# ---------------------------------------------------------------------------
# chain recurrences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RecurrenceState:
    """Eigenstate of one parity chain from its block recurrence.

    v is the normalized chain vector at energy xi.  twist is the photon
    block at which the two-sided route met (``eigenstate_recurrences``),
    and cut the block from which every state of its call is below eps^2;
    both are None for a forward run (``recurrence_eigenstate_la``), whose
    blocks past the first block of least norm are zeroed.
    """

    parity: Parity
    xi: float
    v: np.ndarray
    twist: int | None = None
    cut: int | None = None


def _check_couplings(params: ModelParams):
    g1, g2 = abs(params.g_1), abs(params.g_2)
    if abs(g1 - g2) <= 1e-14 * max(g1, g2, 1e-300):
        raise SingularCoupling(
            "|g1| == |g2|: off-diagonal blocks are not invertible; "
            "use eigenstate_recurrences for this case")


def recurrence_eigenstate_la(params: ModelParams, parity: Parity, xi, v0,
                             n_max: int) -> RecurrenceState:
    """Run the four-term recurrence forward in floats from seed block v0
    at energy xi.

    Block j solves row j - 1 of (H - xi) v = 0 through the inverse of the
    coupling block O_j, so |g1| = |g2| raises SingularCoupling, and every
    step amplifies the error of (xi, v0): a double-precision eigenpair
    loses the decaying solution within a few dozen blocks.  The run stops
    at the first block past OVERFLOW_LIMIT in norm, and the blocks past the
    first block of least norm are zeroed before normalizing.  A zero seed
    block raises OverflowDetected.
    """
    _check_couplings(params)
    band = build_parity_band(params, parity, TruncationConfig(n_max))
    diag = band[0].reshape(-1, 2).tolist()
    g1, g2, xi = params.g_1, params.g_2, float(xi)
    blocks, prev = [(float(v0[0]), float(v0[1]))], (0.0, 0.0)
    for j in range(1, n_max + 1):
        (p, q), (d0, d1), s = blocks[-1], diag[j - 1], math.sqrt(j - 1)
        r0 = (xi - d0) * p - s * (g1 * prev[0] + g2 * prev[1])
        r1 = (xi - d1) * q - s * (g2 * prev[0] + g1 * prev[1])
        det = math.sqrt(j) * (g1 - g2) * (g1 + g2)
        block = ((g1 * r0 - g2 * r1) / det, (g1 * r1 - g2 * r0) / det)
        if not math.hypot(*block) <= OVERFLOW_LIMIT:
            break
        prev = blocks[-1]
        blocks.append(block)
    norms = [math.hypot(*block) for block in blocks]
    if not norms[0]:
        raise OverflowDetected("recurrence produced a null vector")
    cut = norms.index(min(norms))
    v = np.zeros((n_max + 1, 2))
    v[:cut + 1] = blocks[:cut + 1]
    # by the largest kept block first, so that the norm's squares stay
    # finite for a seed near the float range
    v = v.ravel() / max(norms[:cut + 1])
    return RecurrenceState(parity, xi, v / np.linalg.norm(v))


def chain_residual(params: ModelParams, parity: Parity, xi, v: np.ndarray):
    """Relative residual ||(H - xi) v|| / ||v|| on the truncated chain, by
    ``numerics.padded_residuals``, so that it stays finite when xi is far
    from the spectrum; of each column of a 2-d v at its entry of xi."""
    band = build_parity_band(params, parity, TruncationConfig(len(v) // 2 - 1))
    res = padded_residuals(band, xi, v.reshape(len(v), -1)) / np.linalg.norm(
        v, axis=0)
    return res if v.ndim == 2 else float(res[0])


def residual(params: ModelParams, parity: Parity,
             state: RecurrenceState) -> float:
    return chain_residual(params, parity, state.xi, state.v)


def _coupling_lanes(bands: np.ndarray, chains: np.ndarray):
    """The entries a = g1 sqrt(j) and b = g2 sqrt(j) of the coupling
    blocks O_j = [[a, b], [b, a]] of chain bands (c, 4, 2 n), by step s of
    the pivots in ``_twisted_states``, for lanes on the chains ``chains``:
    O_s on the first len(chains) lanes, which run up from photon 0, and
    O_(n - s) on the rest, which run down from the top block n - 1.  O_0
    and O_n are zero."""
    n, pad = bands.shape[-1] // 2, np.zeros((len(bands), 1))
    a, b = (np.hstack((pad, bands[:, d, 0:-2:2], pad)) for d in (2, 3))
    return tuple(np.hstack((x[chains, :n].T, x[chains, n:0:-1].T))
                 for x in (a, b))


def _twisted_states(bands: np.ndarray, energies: np.ndarray, blocks: int):
    """TWIST_CANDIDATES twisted states of each level, zero past the chains'
    first blocks blocks: twist blocks (c, m) and vectors (chain_dim, c, m)
    for c candidates of m levels.

    bands holds one chain band (4, chain_dim) or several (chains, 4,
    chain_dim), and energies the levels of each, (chains, levels); every
    level is one lane, with its own chain's diagonal, couplings and pivot
    floor, the chain's (eps ||H||)^2.  The Schur complements of H - E from
    photon 0 up, T_j = D_j - E - O_j T_(j-1)^-1 O_j, and from the top block
    down, B_j = D_j - E - O_(j+1) B_(j+1)^-1 O_(j+1), of every lane are the
    pivots of one ``numerics.block_pivots`` call, whose downward lanes m..
    hold block n - 1 - s at step s.  G_k = T_k + B_k - (D_k - E) is the
    Schur complement of block k in H - E.  The candidates are the blocks k
    of least smallest singular value |det G_k| / ||G_k||, det G_k summed in
    logs from photon 0 by det G_k = det G_(k-1) det B_k / det T_(k-1), G_0
    = B_0.  The null vector of G_k is spread upward by x_j = -B_j^-1 O_j
    x_(j-1) and downward by x_j = -T_j^-1 O_(j+1) x_(j+1), both in one loop
    whose lanes keep the null vector until their spread starts.
    """
    bands = bands.reshape(-1, *bands.shape[-2:])
    floor = [(np.finfo(float).eps * band_norm(band)) ** 2 for band in bands]
    dim, bands = bands.shape[-1], bands[..., :2 * blocks]
    diag = bands[:, 0].reshape(len(bands), -1, 2)
    chains = np.repeat(np.arange(len(bands)), energies.size // len(bands))
    n, m = diag.shape[1], len(chains)
    d0, d1 = (np.hstack((x, x[::-1])) for x in (
        diag[chains, :, 0].T - energies.ravel(),
        diag[chains, :, 1].T - energies.ravel()))
    (tp, tq, tr), factors, dets = block_pivots(
        d0, d1, *_coupling_lanes(bands, chains),
        np.tile(np.take(floor, chains), 2))
    # block k of the downward complements is on lane m + level of step
    # n - 1 - k
    gp = tp[:, :m] + tp[::-1, m:] - d0[:, :m]
    gq = tq[:, :m] + tq[::-1, m:]
    gr = tr[:, :m] + tr[::-1, m:] - d1[:, :m]
    logs = np.log(np.abs(dets))
    up, down = logs[:, :m], logs[::-1, m:]
    with np.errstate(divide="ignore"):
        size = np.log(np.abs(0.5 * (gp + gr)) + np.hypot(0.5 * (gp - gr), gq))
    smallest = np.minimum(size, np.cumsum(down - up, axis=0) + up - size)
    twist = np.argsort(smallest, axis=0, kind="stable")[:TWIST_CANDIDATES]
    k, lev = twist.ravel(), np.tile(np.arange(m), len(twist))
    # the null vector is normal to the larger row of G_k, a matrix of rank
    # one there: exactly so where the state vanishes past block k, as a dark
    # state of equal couplings does
    p, q, r = gp[k, lev], gq[k, lev], gr[k, lev]
    wide = np.abs(p) >= np.abs(r)
    x0, x1 = np.where(wide, q, -r), np.where(wide, -p, q)
    # where G_k vanishes, every vector is null
    zero = (x0 == 0) & (x1 == 0)
    x0, x1 = np.where(zero, 1.0, x0), np.where(zero, 0.0, x1)
    norm = np.hypot(x0, x1)
    x0, x1 = np.tile(x0 / norm, 2), np.tile(x1 / norm, 2)
    # lanes: the downward spread on the first len(k), the upward one on the
    # rest; step t + 1 moves the downward lanes to block n - 2 - t and the
    # upward ones to block t + 1, through the complements of step n - 2 - t
    # and the coupling of step n - 1 - t
    cos, sin, inv_b, inv_s = (x[n - 2::-1, np.concatenate((lev, m + lev))]
                              for x in factors)
    a, b = (x[n - 1:0:-1] for x in _coupling_lanes(bands, chains[lev]))
    step = np.arange(1, n)[:, None]
    live = np.hstack((n - 1 - step < k, step > k))
    path = np.empty((n, 2, 2 * len(k)))
    path[0] = x0, x1
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(n - 1):
            y0, y1 = a[t] * x0 + b[t] * x1, b[t] * x0 + a[t] * x1
            along = (cos[t] * y0 + sin[t] * y1) * inv_b[t]
            across = (cos[t] * y1 - sin[t] * y0) * inv_s[t]
            x0 = np.where(live[t], sin[t] * across - cos[t] * along, x0)
            x1 = np.where(live[t], -(sin[t] * along + cos[t] * across), x1)
            path[t + 1] = x0, x1
        # block j is the upward lane's step j from k on, the downward
        # lane's step n - 1 - j below k
        chain = np.where((np.arange(n)[:, None] >= k)[:, None],
                         path[:, :, len(k):], path[::-1, :, :len(k)])
        vectors = chain.reshape(2 * n, len(k))
        vectors = np.pad(vectors / np.linalg.norm(vectors, axis=0),
                         ((0, dim - 2 * n), (0, 0)))
    return twist, vectors.reshape(dim, *twist.shape)


def eigenstates_by_parity(params: ModelParams, parities, count: int,
                          n_max: int) -> dict:
    """Recurrence states of the count lowest converged levels of each of
    parities, by parity: the energies that
    ``spectra.converged_parity_eigensystem`` certifies, of all parities in
    one climb of their chains, the twisted states of one
    ``_twisted_states`` call for all levels, on the blocks up to the
    larger of the parities' ``numerics.tail_cut`` (every state's cut), and
    for each level the state of least residual.  Within a cluster
    of levels closer than CLUSTER_GAP ||H|| to a neighbour, each member's
    candidates are first orthogonalized against the states of the members
    below it; a member whose candidates all lie in their span has an
    all-nan vector.
    ConfigError for count outside [1, chain dimension],
    TruncationInsufficient when no rung certifies the count lowest.
    """
    trunc = TruncationConfig(n_max)
    energies = np.array([values for values, _ in _converged_pairs(
        [(params, parity) for parity in parities], trunc, count)])
    bands = np.array([build_parity_band(params, parity, trunc)
                      for parity in parities])
    hnorms = np.array([band_norm(band) for band in bands])
    cut = int(tail_cut(inert_tail(bands, energies[:, -1], hnorms)[2]).max())
    shift = pivot_shift(hnorms)[:, None]
    bands = np.ldexp(bands, -shift[..., None])
    levels = np.ldexp(energies, -shift)
    twist, vectors = _twisted_states(bands, levels, min(cut + 1, n_max + 1))
    found = {}
    for c, parity in enumerate(parities):
        band, level = bands[c], levels[c]
        lanes = slice(c * count, (c + 1) * count)
        twists, vecs = twist[:, lanes], vectors[:, :, lanes]
        res = padded_residuals(band, np.tile(level, len(twists)),
                               vecs.reshape(len(band[0]), -1)
                               ).reshape(twists.shape)
        states, cluster = found.setdefault(parity, []), []
        for i, xi in enumerate(energies[c].tolist()):
            if i and xi - energies[c, i - 1] > CLUSTER_GAP * hnorms[c]:
                cluster = []
            candidates, score = vecs[:, :, i], res[:, i]
            if cluster:
                below, kept = np.column_stack(cluster), []
                for _ in range(2):
                    candidates = candidates - below @ (below.T @ candidates)
                    kept.append(np.linalg.norm(candidates, axis=0))
                with np.errstate(invalid="ignore", divide="ignore"):
                    candidates = candidates / kept[1]
                # Kahan's test, twice is enough: a candidate that loses
                # more than a factor sqrt 2 of its norm to the second pass
                # lies in the span of the members below
                score = np.where(2 * kept[1] ** 2 >= kept[0] ** 2,
                                 padded_residuals(band, level[i], candidates),
                                 np.inf)
            best = int(np.argmin(score))
            v = candidates[:, best]
            if np.isfinite(score[best]):
                cluster.append(v)
            else:
                v = np.full_like(v, np.nan)
            states.append(RecurrenceState(parity, xi, v, int(twists[best, i]),
                                          cut))
    return found


def eigenstate_recurrences(params: ModelParams, parity: Parity, count: int,
                           n_max: int) -> list[RecurrenceState]:
    """Recurrence states of the count lowest converged levels of one
    parity: the one-parity call of ``eigenstates_by_parity``."""
    return eigenstates_by_parity(params, [parity], count, n_max)[parity]


# ---------------------------------------------------------------------------
# Bargmann-representation recurrences
# ---------------------------------------------------------------------------

# The parity label selects the branch of the printed coefficient formulas.
# Under the rotation conventions fixed in _chain_lanes (qubit basis rotated
# so couplings become diagonal, reflection symmetry realized as sigma_x
# sigma_x P_z), the even chain pairs with branch sign -1 and the odd chain
# with +1; the pairing is pinned by the residuals of the reconstructed
# states.
_BRANCH_SIGN = {Parity.EVEN: -1, Parity.ODD: +1}
_SPINOR_SIGN = {Parity.EVEN: +1, Parity.ODD: -1}


def _phi2_series(params: ModelParams, signs: np.ndarray, chi: np.ndarray,
                 v: np.ndarray) -> np.ndarray:
    """Companion amplitudes from the two first-order relations, one column
    per column (lane) of v, each with its branch sign and chi.

    Amplitude k of the companion is ((k - chi) v_k + g_plus (sqrt(k)
    v_{k-1} + sqrt(k+1) v_{k+1})) divided by (w2 -+ w1)/2 for even/odd k
    per branch (omega_f = 1).
    """
    w1, w2 = params.omega_1, params.omega_2
    k = np.arange(len(v))[:, None]
    root, pad = np.sqrt(k), np.zeros((1, v.shape[1]))
    below = np.concatenate((pad, root[1:] * v[:-1]))
    above = np.concatenate((root[1:] * v[1:], pad))
    div = np.where(k % 2 == 0, 0.5 * (w2 - signs * w1),
                   0.5 * (w2 + signs * w1))
    return ((k - chi) * v + params.g_plus * (below + above)) / div


def _bargmann_rows(params: ModelParams, signs: np.ndarray, chi: np.ndarray,
                   j_max: int) -> list:
    """Rows j = 2..j_max + 4 of the five-term system in the amplitudes
    v_0..v_j_max of each lane (branch sign signs, energy chi), all lanes in
    one pass: alpha_k of row j, by the operations of the scalar formulas in
    their order, multiplies v_(j - k) times sqrt(j (j - 1) ... (j - k + 1)),
    and each row is divided by its largest magnitude (rows with none are
    dropped).  br_m^2 and (chi - (j - 2))^2 are Python's float ** (libm
    pow), which can differ from numpy's square in the last bit.  A lane
    gets its matrix, or StepSingular at its first row where alpha_0 = j (j
    - 1) g_plus g_minus br_m is below BARGMANN_FLOOR^2 of the row's largest
    coefficient or br_m below BARGMANN_FLOOR (|chi| + j).
    """
    w1, w2 = params.omega_1, params.omega_2
    gp, gm = params.g_plus, params.g_minus
    j = np.arange(2, j_max + 5)
    r = j[:, None]      # j as a column: one row per j, one column per lane
    sign = np.where(r % 2 == 1, -1, 1) * np.asarray(signs)     # s (-1)^j
    br_m, br_p = w1 - sign * w2, w1 + sign * w2
    sq_m = np.where(sign > 0, (w1 - w2) ** 2, (w1 + w2) ** 2)
    sq_c = np.array([[(c - (k - 2)) ** 2 for k in j.tolist()]
                     for c in chi.tolist()]).T
    alphas = np.array([
        r * (r - 1) * gp * gm * br_m,
        (r - 1) * (gm * br_m * (r - 1 - chi) + gp * br_p * (chi - (r - 2))),
        (2 * r - 3) * gp * gm * br_m + br_p * (0.25 * sq_m - sq_c),
        gp * br_p * (chi - (r - 2)) - gm * br_m * (chi - (r - 3)),
        gp * gm * br_m])
    # j! / (j - k)! for k = 0..4, zero where the column j - k is negative
    falling = np.cumprod([np.ones_like(j)] + [j - i for i in range(4)], 0)
    coefficients = alphas * np.sqrt(falling)[..., None]
    vanish = ((np.abs(alphas[0])
               <= BARGMANN_FLOOR ** 2 * np.abs(coefficients).max(0))
              | (np.abs(br_m) <= BARGMANN_FLOOR * (np.abs(chi) + r)))
    col = j - np.arange(5)[:, None]
    inside = (col >= 0) & (col <= j_max)
    rows = np.zeros((len(chi), len(j), j_max + 1))
    rows[:, np.broadcast_to(j - 2, col.shape)[inside], col[inside]] = (
        coefficients[inside].T)
    scale = np.abs(rows).max(axis=2)
    with np.errstate(invalid="ignore"):
        rows /= scale[..., None]
    return [StepSingular(f"alpha_0 vanishes at step j={j[at]} (omega_1 = "
                         f"-+(-1)^j omega_2 or g_plus g_minus = 0)")
            if hit[at] else lane_rows[keep] for at, hit, lane_rows, keep
            in zip(np.argmax(vanish, axis=0), vanish.T, rows, scale > 0)]


def _null_vectors(matrices):
    """The right singular vectors v (n, lanes), v_0 >= 0, of least singular
    value of tall matrices M (n wide, of bandwidth 2 on each side), one
    lane each, and each ||M v||: inverse iteration on R^T R from the R
    factor of one LAPACK QR per lane, of upper bandwidth 4.  A pivot of R
    below eps ||R|| is raised to it, with its sign.  From v = (1, ..., 1) /
    sqrt(n), each step solves R^T R v' = v by forward and back substitution
    on the pivots and the four entries right of each, one row of every
    live lane at a time; a lane stops when ||M v|| stops falling, after
    NULL_STEPS steps at most.
    """
    n, lanes = matrices[0].shape[1], len(matrices)
    # right[i, d - 1] = R[i, i + d] and above[i, 4 - d] = R[i - d, i]
    pivots, right, above = np.empty((n, lanes)), *np.zeros((2, n, 4, lanes))
    for lane, matrix in enumerate(matrices):
        r = np.linalg.qr(matrix, mode="r")
        floor, pivot = np.finfo(float).eps * np.linalg.norm(r), np.diagonal(r)
        pivots[:, lane] = np.where(np.abs(pivot) < floor,
                                   np.copysign(floor, pivot), pivot)
        for d in range(1, 5):
            right[:n - d, d - 1, lane] = above[d:, 4 - d, lane] = np.diagonal(
                r, d)

    def sizes(v, live):
        return np.array([np.linalg.norm(matrices[lane] @ column)
                         for lane, column in zip(live, v.T)])

    v, live = np.full((n, lanes), 1 / math.sqrt(n)), np.arange(lanes)
    least = sizes(v, live)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(NULL_STEPS):
            # row i of R^T R x = v is x[i + 4], with four zero rows each side
            x, diag = np.zeros((n + 8, len(live))), pivots[:, live]
            x[4:n + 4] = v[:, live]
            for i, terms in enumerate(above[:, :, live]):
                x[i + 4] = (x[i + 4] - (terms * x[i:i + 4]).sum(0)) / diag[i]
            for i, terms in reversed(list(enumerate(right[:, :, live]))):
                x[i + 4] = (x[i + 4] - (terms * x[i + 5:i + 9]).sum(0)
                            ) / diag[i]
            step = x[4:n + 4] / np.linalg.norm(x[4:n + 4], axis=0)
            size = sizes(step, live)
            better = size < least[live]
            live = live[better]
            v[:, live], least[live] = step[:, better], size[better]
            if not len(live):
                break
    return np.where(v[0] < 0, -v, v), least


# rotated-to-lab weights of the qubit pairs, rows and columns in the
# product-basis pair order (ee, eg, ge, gg) of model.PAIR_ORDER
_ROTATION = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
_PAIR_ROTATION = np.kron(_ROTATION, _ROTATION)


def _chain_lanes(c: np.ndarray, phi2: np.ndarray, signs: np.ndarray,
                 n_max: int) -> dict:
    """The two parity chains, unnormalized and by parity, of Bargmann
    amplitudes c and their companion's phi2, one column per lane, each with
    its spinor sign.

    Amplitude k is the weight of the Fock state |k> (z^k <-> sqrt(k!) |k>).
    The first function carries the diagonal coupling g_plus, the companion
    g_minus, and the remaining two rotated components follow from the
    reflection symmetry with the lane's sign.  The components of photon
    levels up to n_max are rotated back to the lab qubit basis, and each
    chain is gathered from the product basis.
    """
    keep = min(len(c), n_max + 1)
    flip = signs * (-1.0) ** np.arange(keep)[:, None]
    c, phi2 = c[:keep], phi2[:keep]
    trunc = TruncationConfig(max(n_max, 1))
    full = np.zeros((trunc.n_max + 1, 4, c.shape[1]))
    full[:keep] = sum(a[:, None] * w[:, None] for a, w in zip(
        (c, phi2, flip * phi2, flip * c), _PAIR_ROTATION.T))
    return {par: full.reshape(-1, c.shape[1])[idx]
            for par, idx in basis_table(trunc).full_index.items()}


def bargmann_residuals(params: ModelParams, levels, j_max: int,
                       n_max: int) -> list:
    """For each (parity, chi) of levels, the residual ||(H - chi) v|| /
    ||v|| on the chain of n_max photons of the state v that its Bargmann
    amplitudes reconstruct, or the Rabi2qError of a level the route cannot
    serve (StepSingular where alpha_0 vanishes on a row, OverflowDetected
    where v vanishes): the lanes of one ``_null_vectors`` call, companion
    series and chain gather, then one ``numerics.padded_residuals`` call
    per parity.  At rounding level at an eigenvalue whose state the j_max +
    1 amplitudes hold, as at max(8, cut) of its recurrence states, which
    ``eigenstate`` takes; about linear in the distance of chi from one.
    ConfigError for j_max < 8.
    """
    if j_max < 8:
        raise ConfigError("j_max must be >= 8")
    signs = np.array([_BRANCH_SIGN[parity] for parity, _ in levels])
    chi = np.array([chi for _, chi in levels], dtype=float)
    found = _bargmann_rows(params, signs, chi, j_max)
    lanes = [i for i, rows in enumerate(found) if isinstance(rows, np.ndarray)]
    if not lanes:
        return found
    parities, chi = [levels[i][0] for i in lanes], chi[lanes]
    v, _ = _null_vectors([found[i] for i in lanes])
    phi2 = _phi2_series(params, signs[lanes], chi, v)
    chains = _chain_lanes(v, phi2, np.array([_SPINOR_SIGN[p]
                                             for p in parities]), n_max)
    trunc = TruncationConfig(max(n_max, 1))
    for parity in dict.fromkeys(parities):
        cols = [col for col, par in enumerate(parities) if par is parity]
        own = chains[parity][:, cols]
        norms = np.hypot.reduce(own, axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            res = padded_residuals(build_parity_band(params, parity, trunc),
                                   chi[cols], own) / norms
        for col, norm, value in zip(cols, norms, res.tolist()):
            found[lanes[col]] = value if norm else OverflowDetected(
                "reconstruction produced a null vector")
    return found


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
