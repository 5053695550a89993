"""Shared numerical kernels.

Dense symmetric eigendecomposition (LAPACK via numpy), the only
eigensolver of the package, also on the ladder of leading photon windows
of a chain band; band matvecs, norms and residuals; associated Laguerre
polynomials, displacement-operator matrix elements, and the level
selection, phases and real GEMMs (on the float view of the complex
amplitudes) of spectral-decomposition time propagation.  Everything here
is pure.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceFailure


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


# a window level is certified when its zero-padded residual against the
# whole chain is at most RESIDUAL_TOL * ||H||_inf
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

    From n_w = n_start, the window widens by WINDOW_GROWTH while it holds
    at most max_rows rows.  Yields (rows, decomposition) of the leading
    rows = 2 (n_w + 1) rows and columns; no entry that reaches past them is
    read.  The ladder keeps no reference to a window it has yielded, so a
    caller that drops a rejected window frees it before the next solve.
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
    rows of eigenvectors of a band, zero-padded to the band's dimension.

    H v vanishes past the rows that the last held row reaches, so only
    those rows are formed.
    """
    held, kd = vectors.shape[0], band.shape[0] - 1
    rows = min(held + kd, band.shape[1])
    padded = np.zeros((rows, vectors.shape[1]))
    padded[:held] = vectors
    return np.linalg.norm(band_matvec(band[:, :rows], padded)
                          - padded * values, axis=0)


def band_norm(band: np.ndarray) -> float:
    """||H||_inf, the largest absolute row sum, of a lower band."""
    return float(np.max(band_matvec(np.abs(band),
                                    np.ones((band.shape[1], 1)))))


def general_band(band: np.ndarray) -> np.ndarray:
    """A lower band in LAPACK general band storage with room for the fill
    of a pivoted LU: H[i, j] at [2 kd + i - j, j], shape (3 kd + 1, dim)."""
    kd, dim = band.shape[0] - 1, band.shape[1]
    full = np.zeros((3 * kd + 1, dim))
    for d in range(min(kd + 1, dim)):
        full[2 * kd + d, :dim - d] = band[d, :dim - d]
        full[2 * kd - d, d:] = band[d, :dim - d]
    return full


def laguerre_assoc(n: int, k: int, z: float) -> float:
    """Associated Laguerre polynomial L_n^(k)(z).

    Evaluated by the three-term recurrence in the degree, which is stable
    for z >= 0 and integer order k >= 0.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    if k < 0:
        raise ValueError("order must be >= 0")
    if n == 0:
        return 1.0
    prev = 1.0
    cur = 1.0 + k - z
    for i in range(1, n):
        prev, cur = cur, ((2 * i + 1 + k - z) * cur - (i + k) * prev) / (i + 1)
    return cur


def displacement_element(m: int, n: int, x: float) -> float:
    """Fock matrix element <m| D(2x) |n> of a real displacement by 2x.

    For m >= n this is sqrt(n!/m!) (2x)^(m-n) exp(-2x^2) L_n^(m-n)(4x^2);
    the m < n case follows from <m|D|n> = (-1)^(n-m) <n|D|m> for real
    arguments.  The factorial ratio is evaluated in log space so the formula
    stays finite well past m, n ~ 85.  Once the Gaussian factor underflows
    the element is 0, and where (2x)^(m-n) alone would overflow it is
    applied in two halves, so no finite x raises.
    """
    if m < 0 or n < 0:
        raise ValueError("Fock indices must be >= 0")
    if m < n:
        return (-1) ** (n - m) * displacement_element(n, m, x)
    d = m - n
    log_ratio = 0.5 * (math.lgamma(n + 1) - math.lgamma(m + 1))
    mag = math.exp(log_ratio - 2.0 * x * x) if abs(x) < 200 else 0.0
    if mag == 0.0:
        return 0.0
    lag = laguerre_assoc(n, d, 4.0 * x * x)
    if d * math.log(2.0 * abs(x) or 1.0) < 700.0:
        return mag * (2.0 * x) ** d * lag
    half = (2.0 * x) ** (d // 2)
    return mag * half * half * (2.0 * x) ** (d % 2) * lag


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
