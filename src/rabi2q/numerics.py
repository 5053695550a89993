"""Shared numerical kernels.

Dense symmetric eigendecomposition (LAPACK via numpy), the lowest eigenpairs
of a banded symmetric matrix (LAPACK via scipy), associated Laguerre
polynomials, displacement-operator matrix elements, and spectral-decomposition
time propagation.  Everything here is pure.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceFailure


class EigenDecomposition(NamedTuple):
    """Eigenvalues ascending and the matching orthonormal column vectors."""

    values: np.ndarray
    vectors: np.ndarray


def eigh(h: np.ndarray) -> EigenDecomposition:
    """Full spectrum of a real symmetric matrix, ascending.

    Uses the standard orthogonal reduction to tridiagonal form with
    implicitly shifted iteration (LAPACK).  Raises ConvergenceFailure if the
    iteration does not converge, which signals pathological input.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.array_equal(h, h.T):
        scale = np.max(np.abs(h)) or 1.0
        if np.max(np.abs(h - h.T)) > 1e-12 * scale:
            raise ValueError("matrix is not symmetric")
    try:
        values, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    return EigenDecomposition(values, vectors)


# inverse-iteration vectors: levels closer than CLUSTER_GAP * ||H|| are
# orthogonalized against each other (the LAPACK dstein choice), levels
# closer than TIE_GAP * ||H|| count as one degenerate level, and the result
# must have residuals below RESIDUAL_TOL * ||H|| and max |V^T V - I| below
# ORTHOGONALITY_TOL
CLUSTER_GAP = 1e-3
TIE_GAP = 1e-10
RESIDUAL_TOL = 1e-12
ORTHOGONALITY_TOL = 1e-10


def band_matvec(band: np.ndarray, x: np.ndarray) -> np.ndarray:
    """H @ x for H in LAPACK lower band storage, band[d, c] = H[c + d, c]."""
    dim = band.shape[1]
    y = band[0][:, None] * x
    for d in range(1, min(band.shape[0], dim)):
        diagonal = band[d, :dim - d, None]
        y[d:] += diagonal * x[:dim - d]
        y[:dim - d] += diagonal * x[d:]
    return y


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


def eigh_banded_lowest(band: np.ndarray, count: int) -> EigenDecomposition:
    """The count lowest eigenpairs of a real symmetric banded matrix.

    band is LAPACK lower band storage, band[d, c] = H[c + d, c].  The
    eigenvalues come from scipy's ``eigvals_banded``, the vectors from two
    steps of inverse iteration with a banded LU, as in LAPACK dstein: each
    shift sits eps ||H|| above its eigenvalue, each level starts from its
    own pseudo-random vector (fixed seed, so runs repeat exactly), and
    levels of one cluster are Gram-Schmidt orthogonalized against each
    other.

    Raises ConvergenceFailure, so the caller can fall back to ``eigh``, when
    two levels tie (their eigenspace has no preferred basis, and inverse
    iteration would return one drawn from its start vectors), when a
    shifted band is exactly singular, or when a residual ||Hv - lambda v||
    or the orthogonality of the vectors misses its bound.  scipy is imported
    here, not at module level, so code that never calls this kernel never
    loads it.
    """
    from scipy.linalg import eigvals_banded
    from scipy.linalg.lapack import dgbtrf, dgbtrs

    band = np.asarray(band, dtype=float)
    kd, dim = band.shape[0] - 1, band.shape[1]
    if not 1 <= count <= dim:
        raise ValueError("count must be in [1, matrix dimension]")
    try:
        # one level more than asked for, to see a tie across the cut
        values = eigvals_banded(band, lower=True, select="i",
                                select_range=(0, min(count, dim - 1)))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    norm = band_norm(band) or 1.0
    ties = np.flatnonzero(np.diff(values) <= TIE_GAP * norm)
    if len(ties):
        raise ConvergenceFailure(
            f"levels {ties[0]} and {ties[0] + 1} tie within "
            f"{TIE_GAP:g} * ||H||")
    values = values[:count]
    eps = np.finfo(float).eps
    full = general_band(band)
    starts = np.random.default_rng(0).uniform(-1.0, 1.0, (count, dim))
    vectors = np.empty((dim, count))
    first = 0                       # first level of the current cluster
    for i, value in enumerate(values):
        if i and value - values[i - 1] >= CLUSTER_GAP * norm:
            first = i
        shifted = full.copy()
        shifted[2 * kd] -= value + eps * norm
        lu, pivots, info = dgbtrf(shifted, kd, kd, overwrite_ab=True)
        if info != 0:
            raise ConvergenceFailure(f"singular shifted band at level {i}")
        x = starts[i, :, None]
        cluster = vectors[:, first:i]
        for _ in range(2):
            x, info = dgbtrs(lu, kd, kd, x, pivots)
            x -= cluster @ (cluster.T @ x)
            x /= np.linalg.norm(x)
        vectors[:, i] = x[:, 0]
    residual = np.linalg.norm(band_matvec(band, vectors) - vectors * values,
                              axis=0)
    if not np.max(residual) <= RESIDUAL_TOL * norm:
        raise ConvergenceFailure(
            f"inverse iteration residual {np.max(residual):.2e} exceeds "
            f"{RESIDUAL_TOL:g} * ||H|| = {RESIDUAL_TOL * norm:.2e}")
    loss = np.max(np.abs(vectors.T @ vectors - np.eye(count)))
    if not loss <= ORTHOGONALITY_TOL:
        raise ConvergenceFailure(
            f"inverse iteration vectors lose orthogonality: max "
            f"|V^T V - I| = {loss:.2e} > {ORTHOGONALITY_TOL:g}")
    return EigenDecomposition(values, vectors)


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
    stays finite well past m, n ~ 85.
    """
    if m < 0 or n < 0:
        raise ValueError("Fock indices must be >= 0")
    if m < n:
        return (-1) ** (n - m) * displacement_element(n, m, x)
    d = m - n
    log_ratio = 0.5 * (math.lgamma(n + 1) - math.lgamma(m + 1))
    mag = math.exp(log_ratio - 2.0 * x * x) if abs(x) < 200 else 0.0
    return mag * (2.0 * x) ** d * laguerre_assoc(n, d, 4.0 * x * x)


def propagate_spectral(decomp: EigenDecomposition, c0: np.ndarray,
                       t: float | np.ndarray) -> np.ndarray:
    """Apply exp(-i H t) to c0 using the eigendecomposition of H.

    t may be a scalar (returns a vector) or a 1-d array of output times
    (returns an array with one column per time).  Exactly unitary on the
    truncated space up to roundoff.
    """
    values, vectors = decomp
    c0 = np.asarray(c0, dtype=complex)
    if c0.shape[0] != values.shape[0]:
        raise ValueError("state dimension does not match decomposition")
    proj = vectors.T.conj() @ c0
    t_arr = np.asarray(t, dtype=float)
    if t_arr.ndim == 0:
        return vectors @ (np.exp(-1j * values * float(t_arr)) * proj)
    phases = np.exp(-1j * np.outer(values, t_arr))
    return vectors @ (phases * proj[:, None])
