"""Shared numerical kernels.

Dense symmetric eigendecomposition (LAPACK via numpy), the only
eigensolver of the package, also on the ladder of leading photon windows
of a chain band; band matvecs, norms and residuals; the 2 x 2 block
pivots of a chain, which count its levels below a cut and build its
recurrence eigenstates; associated Laguerre polynomials and
displacement-operator matrix elements, a table at a time, and the level
selection, phases and real GEMMs (on the float view of the complex
amplitudes) of spectral-decomposition time propagation; and the hold
``one_blas_thread`` of one OpenBLAS thread.  The rest is pure.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import threading
from ctypes import CDLL, CFUNCTYPE, c_int
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceFailure

_BLAS_HOLD = threading.RLock()      # holds of one thread at a time


class EigenDecomposition(NamedTuple):
    """Eigenvalues and the matching orthonormal column vectors."""

    values: np.ndarray
    vectors: np.ndarray


def eigh(h: np.ndarray) -> EigenDecomposition:
    """Full spectrum of a real symmetric matrix, ascending.

    A stack (..., m, m) is solved matrix by matrix.  Uses the standard
    orthogonal reduction to tridiagonal form with implicitly shifted
    iteration (LAPACK).  Raises ConvergenceFailure if the iteration does
    not converge, which signals pathological input.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim < 2 or h.shape[-2] != h.shape[-1]:
        raise ValueError("expected a square matrix")
    h_t = np.swapaxes(h, -1, -2)
    if not np.array_equal(h, h_t):
        scale = np.max(np.abs(h)) or 1.0
        if np.max(np.abs(h - h_t)) > 1e-12 * scale:
            raise ValueError("matrix is not symmetric")
    try:
        values, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    return EigenDecomposition(values, vectors)


@functools.cache
def _blas_threads():
    """The (get, set) thread-count pair of the OpenBLAS that numpy's LAPACK
    calls, found through its linalg extension, or None (MKL, Accelerate)."""
    lib = CDLL(np.linalg._umath_linalg.__file__)
    for name in "scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads":
        if hasattr(lib, name.format("set")):
            return (CFUNCTYPE(c_int)((name.format("get"), lib)),
                    CFUNCTYPE(None, c_int)((name.format("set"), lib)))


@contextlib.contextmanager
def one_blas_thread():
    """Hold numpy's OpenBLAS at one thread, and then restore the count it
    found.  Yields the threads that may solve at once: the process's
    cores, or 1, changing nothing, where no setter is found.  Holds on
    other threads wait; never hold it in a task of a holder's pool."""
    pair = _blas_threads()
    if pair is None:
        yield 1
        return
    with _BLAS_HOLD, contextlib.ExitStack() as stack:
        stack.callback(pair[1], pair[0]())
        pair[1](1)
        yield (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)


# a window level is certified when its zero-padded residual against the
# chain (one photon longer, for spectra) is at most RESIDUAL_TOL * ||H||_inf
RESIDUAL_TOL = 1e-12
# factor by which a photon window widens
WINDOW_GROWTH = 1.5


def expand_dense(band: np.ndarray) -> np.ndarray:
    """Dense symmetric matrix of a lower band, band[d, c] = H[c + d, c]."""
    dim = band.shape[1]
    h = np.zeros((dim, dim))
    for d in range(band.shape[0]):
        col = np.arange(dim - d)
        h[col + d, col] = h[col, col + d] = band[d, :dim - d]
    return h


def photon_windows(band: np.ndarray, n_start: int, max_rows: int):
    """Dense ``eigh`` of the leading photon windows 0..n_w of a chain band.

    From n_w = n_start, the window widens by WINDOW_GROWTH, and by at least
    one photon, while it holds at most max_rows rows.  Yields (rows,
    decomposition) of the leading rows = 2 (n_w + 1) rows and columns; no
    entry that reaches past them is read.  The ladder keeps no reference to
    a window it has yielded, so a caller that drops a rejected window frees
    it before the next solve.
    """
    n_window = n_start
    while 2 * (n_window + 1) <= max_rows:
        rows = 2 * (n_window + 1)
        yield rows, eigh(expand_dense(band[:, :rows]))
        n_window = int(WINDOW_GROWTH * n_window) + 1


def band_matvec(band: np.ndarray, x: np.ndarray) -> np.ndarray:
    """H @ x for H in LAPACK lower band storage, band[d, c] = H[c + d, c]."""
    dim = band.shape[1]
    y = band[0][:, None] * x
    for d in range(1, min(band.shape[0], dim)):
        diagonal = band[d, :dim - d, None]
        y[d:] += diagonal * x[:dim - d]
        y[:dim - d] += diagonal * x[d:]
    return y


def padded_residuals(band: np.ndarray, values: np.ndarray,
                     vectors: np.ndarray) -> np.ndarray:
    """||H v - theta v|| of each column v of vectors, which hold the leading
    rows of vectors of a band, zero-padded to the band's dimension; inf
    where it is not finite.

    H v vanishes past the rows that the last held row reaches, so only
    those rows are formed.  Each residual is scaled by its largest entry
    before the norm, so that its squares stay finite when theta or H is
    near the float range.
    """
    held, kd = vectors.shape[0], band.shape[0] - 1
    rows = min(held + kd, band.shape[1])
    padded = np.zeros((rows, vectors.shape[1]))
    padded[:held] = vectors
    with np.errstate(over="ignore", invalid="ignore"):
        r = band_matvec(band[:, :rows], padded) - padded * values
        scale = np.max(np.abs(r), axis=0)
        scale[scale == 0] = 1.0
        res = scale * np.linalg.norm(r / scale, axis=0)
    return np.where(np.isfinite(res), res, np.inf)


def band_norm(band: np.ndarray) -> float:
    """||H||_inf, the largest absolute row sum, of a lower band."""
    return float(np.max(band_matvec(np.abs(band),
                                    np.ones((band.shape[1], 1)))))


def pivot_shift(norm):
    """The power of two 2^-shift by which a chain of norm ``norm`` is scaled
    before ``block_pivots``, which multiplies up to four of its entries: a
    chain past 2^200 in norm goes to a norm near 1, which rounds only
    entries some 2^800 below the largest and leaves its states and its
    inertia as they are; any other chain keeps its scale (shift 0)."""
    exponent = np.frexp(norm)[1]
    return np.where(exponent > 200, exponent, 0)


def inert_tail(band: np.ndarray, x, norm):
    """Where the 2 x 2 block pivots of H - x provably stay positive, for
    chain bands (..., 4, chain_dim), each with its cut x and ||H||.

    A band has D_j >= (j - w) I and ||O_j|| <= G sqrt(j), w the largest
    j - d over the diagonal entries d of block j, G the largest (|a_j| +
    |b_j|) / sqrt(j).  For M > G^2 a pivot >= M I (S_(j-1) from photon 0
    or B_(j+1) from the top) makes the next >= nu_j I, nu_j = j - w - x -
    G^2 (j + 1) / M, which grows with j and is >= M from a block j0 on
    (least at M = G (G + sqrt(G^2 + max(w + x, 0) + 1)), formed without
    G^2).  Past j0 the decaying solution at energies up to x has ||x_j||
    <= (G sqrt(j) / nu_j) ||x_(j-1)||.  M and nu_j carry a rounding margin,
    2^10 eps ||H||.  Returns j0, the number of blocks where there is none
    or the band is past 2^200 in norm, M, and those ratios past j0 (1 on
    the other blocks), which ``tail_cut`` reads.
    """
    blocks = np.arange(band.shape[-1] // 2)
    wx = np.max(np.repeat(blocks, 2) - band[..., 0, :], axis=-1) + x
    g = np.max((np.abs(band[..., 2, 0:-2:2]) + np.abs(band[..., 3, 0:-2:2]))
               / np.sqrt(blocks[1:]), axis=-1)
    root = np.hypot(g, np.sqrt(np.maximum(wx, 0) + 1))
    margin = 2 ** 10 * np.finfo(float).eps * np.asarray(norm)
    nu = (blocks - (wx + margin)[..., None]
          - (g / (g + root))[..., None] * (blocks + 1))
    with np.errstate(over="ignore"):
        level = g * (g + root) + margin
    inert = (nu >= level[..., None]) & (pivot_shift(norm) == 0)[..., None]
    ratios = np.ones(nu.shape)
    np.divide(g[..., None] * np.sqrt(blocks), nu, out=ratios, where=inert)
    return first_index(inert), level, ratios


def first_index(mask):
    """The first index along the last axis where mask holds, else its
    length."""
    return np.where(mask.any(axis=-1), np.argmax(mask, axis=-1),
                    mask.shape[-1])


def tail_cut(ratios):
    """The first block from which the product of the ratios of
    ``inert_tail`` from j0 stays below eps^2, else the number of blocks."""
    tail = np.maximum.accumulate(np.cumprod(ratios, axis=-1)[..., ::-1],
                                 axis=-1)[..., ::-1]
    return first_index(tail < np.finfo(float).eps ** 2)


def block_pivots(d0: np.ndarray, d1: np.ndarray, a: np.ndarray,
                 b: np.ndarray, floor, inert=(math.inf, None)):
    """The 2 x 2 pivots S_k = D_k - O_k S_(k-1)^-1 O_k, k = 0, 1, ..., of
    the block LDL^T factorization of symmetric block tridiagonal matrices,
    one matrix per lane, with diagonal blocks D_k = diag(d0[k], d1[k]) and
    couplings O_k = [[a[k], b[k]], [b[k], a[k]]] (a[0] = b[0] = 0); each
    argument is shaped (steps, lanes), and floor is one value or one per
    lane.

    Each pivot S is held as its entries [[p, q], [q, r]] and as
    S = l_b v_b v_b^T + l_s v_s v_s^T, with v_b = (c, s) the eigenvector of
    its eigenvalue l_b of larger magnitude, v_s = (-s, c) and
    l_s = det S / l_b; its inverse is only ever applied in that form.
    det S is carried as d0 d1 - tr(adj(D) C) + det(O)^2 / det(S'),
    C = O S'^-1 O for the pivot S' before it.  From the entries, det S
    would cancel where C is huge or a diagonal entry vanishes, and an
    inverse formed from them would lose its part along v_b.  det S and l_b
    are floored at floor and at its root in magnitude, with their signs
    kept, as LAPACK dstein floors its pivots.  By Sylvester's law of
    inertia, a matrix has as many negative eigenvalues as its pivots have
    negative l_b and l_s.  For inert = (j0, M) of ``inert_tail`` the loop
    ends after the first step k >= j0 - 1 with every lane's l_b, l_s >= M.
    Returns the entries (p, q, r), the inverse factors (c, s, 1 / l_b,
    1 / l_s) and det S, each shaped (steps run, lanes).
    """
    n, lanes = d0.shape
    product, det_o = d0 * d1, ((a - b) * (a + b)) ** 2
    entries, factors = np.empty((3, n, lanes)), np.empty((4, n, lanes))
    dets = np.empty((n, lanes))
    cos, sin = np.ones(lanes), np.zeros(lanes)
    inv_b = inv_s = np.zeros(lanes)
    root = np.sqrt(floor)
    for k in range(n):
        # C = (O v_b)(O v_b)^T / l_b + (O v_s)(O v_s)^T / l_s
        wb0, wb1 = a[k] * cos + b[k] * sin, b[k] * cos + a[k] * sin
        ws0, ws1 = b[k] * cos - a[k] * sin, a[k] * cos - b[k] * sin
        hb, hs = inv_b * wb0, inv_s * ws0
        c00, c01 = hb * wb0 + hs * ws0, hb * wb1 + hs * ws1
        c11 = inv_b * wb1 * wb1 + inv_s * ws1 * ws1
        p, q, r = d0[k] - c00, -c01, d1[k] - c11
        det = (product[k] - d1[k] * c00 - d0[k] * c11
               + det_o[k] * inv_b * inv_s)
        det = np.copysign(np.maximum(np.abs(det), floor), det)
        mean, diff = 0.5 * (p + r), 0.5 * (p - r)
        big = mean + np.copysign(np.hypot(diff, q), mean)
        big = np.copysign(np.maximum(np.abs(big), root), big)
        # (cos, sin) of this angle belongs to the eigenvalue mean + rad
        angle = 0.5 * np.arctan2(q, diff)
        upper = mean >= 0
        cos, sin = (np.where(upper, np.cos(angle), -np.sin(angle)),
                    np.where(upper, np.sin(angle), np.cos(angle)))
        inv_b, inv_s = 1 / big, big / det
        entries[0, k], entries[1, k], entries[2, k] = p, q, r
        factors[0, k], factors[1, k] = cos, sin
        factors[2, k], factors[3, k] = inv_b, inv_s
        dets[k] = det
        if k + 1 >= inert[0] and np.all((big >= inert[1])
                                        & (det >= inert[1] * big)):
            break
    return entries[:, :k + 1], factors[:, :k + 1], dets[:k + 1]


def laguerre_assoc(n, k, z: float):
    """Associated Laguerre polynomials L_n^(k)(z), one per entry of the
    broadcast integer arrays (or ints) n and k, by the three-term
    recurrence in the degree, which is stable for z >= 0 and k >= 0."""
    n, k = np.broadcast_arrays(n, k)
    if np.any(n < 0):
        raise ValueError("degree must be >= 0")
    if np.any(k < 0):
        raise ValueError("order must be >= 0")
    k = k.astype(float)
    prev, cur = 1.0, 1.0 + k - z
    out = np.where(n == 0, 1.0, cur)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, int(n.max(initial=0))):
            prev, cur = cur, ((2 * i + 1 + k - z) * cur
                              - (i + k) * prev) / (i + 1)
            out = np.where(n == i + 1, cur, out)
    return out


def displacement_elements(m, n, x: float) -> np.ndarray:
    """Fock matrix elements <m| D(2x) |n> of a real displacement by 2x, one
    per entry of the broadcast integer arrays (or ints) m and n.

    With low, high = min, max(m, n) and d = high - low, this is
    exp(ln sqrt(low!/high!) - 2x^2 + d ln|2x|) L_low^(d)(4x^2), the whole
    magnitude formed in logs, so that no factor overflows or underflows on
    its own where the element does not, and no finite x raises (d ln|2x|
    is 0 at d = 0 and -inf at x = 0 < d).  The sign is (-1)^d for x < 0,
    and (-1)^d again for m < n, as <m|D|n> = (-1)^(n-m) <n|D|m> for real
    arguments; an entry whose exponential underflows is +0.0 before those
    signs.  Each entry is the formula evaluated in Python floats, bit for
    bit: math.exp per entry (numpy's exp differs from libm in the last bit
    for a few percent of arguments), the rest IEEE operations in the
    formula's order.  The logs cost an entry a relative error of a few eps
    times its largest term, about high ln(high).
    """
    m, n, x = *np.broadcast_arrays(m, n), float(x)
    if np.any(m < 0) or np.any(n < 0):
        raise ValueError("Fock indices must be >= 0")
    low, high = np.minimum(m, n), np.maximum(m, n)
    d = high - low
    lgamma = np.array([math.lgamma(i + 1)
                       for i in range(int(high.max(initial=0)) + 1)])
    # ln 2 apart, so that 2|x| cannot overflow
    log_2x = math.log(2.0) + math.log(abs(x)) if x else -math.inf
    with np.errstate(invalid="ignore"):
        power = np.where(d == 0, 0.0, d * log_2x)
    arg = 0.5 * (lgamma[low] - lgamma[high]) - 2.0 * x * x + power
    mag = np.array([math.exp(t) for t in arg.ravel().tolist()]
                   ).reshape(m.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        value = np.where(mag == 0.0, 0.0,
                         mag * laguerre_assoc(low, d, 4.0 * x * x))
    return np.where((d % 2 == 1) & ((x < 0) != (m < n)), -value, value)


# levels whose projections on a state weigh at most DROP_WEIGHT ||c0||^2
# together are not propagated
DROP_WEIGHT = 1e-30


def real_matmul(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """a @ z for a real matrix a and a complex vector z.

    One real GEMM on the float view of z, where numpy would upcast a to
    complex and do four times the work.
    """
    z = np.ascontiguousarray(z, dtype=complex)
    return (a @ z.view(float).reshape(-1, 2)).view(complex)[:, 0]


def spectral_levels(decomp: EigenDecomposition, c0: np.ndarray,
                    certified: np.ndarray | None = None, past: float = 0.0):
    """The levels of decomp worth propagating from c0: their values,
    vectors and projections on c0, and the weight of c0 left out.

    The vectors may hold only the leading rows of c0's space; past is then
    c0's weight on the other rows, and certified marks the levels fit to
    propagate.  Returns None when past plus c0's weight on uncertified
    levels exceeds DROP_WEIGHT ||c0||^2.  Otherwise the lightest certified
    levels are left out too while the weight dropped in all stays within
    DROP_WEIGHT ||c0||^2: that part evolves in its own invariant subspace,
    so the propagated state is off by at most 1e-15 ||c0|| at every t.
    """
    values, vectors = decomp
    proj = real_matmul(vectors.T, c0[:vectors.shape[0]])
    weight = np.abs(proj) ** 2
    levels = np.arange(len(values))
    if certified is not None:
        past += float(np.sum(weight[~certified]))
        levels = levels[certified]
    budget = DROP_WEIGHT * np.vdot(c0, c0).real
    if past > budget:
        return None
    order = np.argsort(weight[levels], kind="stable")
    dropped = np.cumsum(weight[levels][order])
    n_drop = np.count_nonzero(dropped <= budget - past)
    if n_drop:
        past += float(dropped[n_drop - 1])
    keep = levels[np.sort(order[n_drop:])]
    return values[keep], vectors[:, keep], proj[keep], past


def phase_coefficients(values: np.ndarray, proj: np.ndarray,
                       times: np.ndarray) -> np.ndarray:
    """exp(-i values t) proj: the level amplitudes, one column per time t
    of the 1-d times."""
    return np.exp(-1j * np.multiply.outer(values, times)) * proj[:, None]
