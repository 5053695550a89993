"""Hamiltonian construction.

Builds the full truncated Hamiltonian in the product basis, its parity-block
form (block tridiagonal with 2x2 blocks, also as a LAPACK band), the
full-basis RWA Hamiltonian, and the per-excitation-sector RWA blocks.  Matrix
elements are written once, in the parity blocks; the dense chain matrix is
scattered from their band, the full-basis matrices from the chain matrices
through the basis table.  All matrices are real symmetric by
construction (complex arithmetic enters only in dynamics).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (ModelParams, Parity, QubitLevel, TruncationConfig,
                    basis_table)


@dataclass(frozen=True)
class BlockTridiagonal:
    """Parity-block Hamiltonian: diagonal blocks D_j and off blocks O_j.

    d_blocks[j] holds the two diagonal entries of D_j for 0 <= j <= n_max;
    o_blocks[j-1] is the symmetric 2x2 block O_j = sqrt(j)*[[g1,g2],[g2,g1]]
    coupling photon numbers j-1 and j.
    """

    parity: Parity
    d_blocks: np.ndarray
    o_blocks: np.ndarray

    @property
    def n_max(self) -> int:
        return self.d_blocks.shape[0] - 1

    @property
    def dim(self) -> int:
        return 2 * self.d_blocks.shape[0]

    def lower_band(self) -> np.ndarray:
        """The chain matrix in LAPACK lower band storage, shape (4, dim).

        band[d, c] = H[c + d, c].  The transpose of O_j sits in rows
        r + 2, r + 3 and columns r, r + 1 (r = 2j - 2), so the entries
        [0, 0], [0, 1], [1, 0] and [1, 1] of O_j land on diagonals 2, 3, 1
        and 2; the unused tail of each diagonal is zero.
        """
        o = self.o_blocks
        band = np.zeros((4, self.dim))
        band[0] = self.d_blocks.ravel()
        band[2, 0:-2:2] = o[:, 0, 0]
        band[3, 0:-2:2] = o[:, 0, 1]
        band[1, 1:-2:2] = o[:, 1, 0]
        band[2, 1:-2:2] = o[:, 1, 1]
        return band


def build_parity_blocks(params: ModelParams, parity: Parity,
                        trunc: TruncationConfig) -> BlockTridiagonal:
    """Block-tridiagonal form of the Hamiltonian in one parity chain.

    D_j holds the free energies n*omega_f + (sz1*omega_1 + sz2*omega_2)/2
    of its two chain slots.  Every full-basis matrix below is assembled
    from these blocks.
    """
    table = basis_table(trunc)
    d = (table.photon[parity] * params.omega_f
         + 0.5 * (table.sz1[parity] * params.omega_1
                  + table.sz2[parity] * params.omega_2))
    coupling = np.array([[params.g_1, params.g_2], [params.g_2, params.g_1]])
    o = np.sqrt(np.arange(1, trunc.n_max + 1))[:, None, None] * coupling
    return BlockTridiagonal(parity, d.reshape(-1, 2), o)


def expand_dense(blocks: BlockTridiagonal) -> np.ndarray:
    """Dense symmetric matrix with D_j on the diagonal and O_j off it."""
    band = blocks.lower_band()
    dim = blocks.dim
    h = np.zeros((dim, dim))
    for d in range(band.shape[0]):
        col = np.arange(dim - d)
        h[col + d, col] = h[col, col + d] = band[d, :dim - d]
    return h


def build_parity_matrix(params: ModelParams, parity: Parity,
                        trunc: TruncationConfig) -> np.ndarray:
    return expand_dense(build_parity_blocks(params, parity, trunc))


def build_full(params: ModelParams, trunc: TruncationConfig) -> np.ndarray:
    """Hamiltonian in the product basis |n>|q1>|q2>, photon cutoff n_max.

    The two parity-chain matrices scattered to their full-basis rows; no
    element couples the two parities.
    """
    h = np.zeros((trunc.full_dim, trunc.full_dim))
    for parity in (Parity.EVEN, Parity.ODD):
        idx = basis_table(trunc).full_index[parity]
        h[np.ix_(idx, idx)] = build_parity_matrix(params, parity, trunc)
    return h


def build_rwa_full(params: ModelParams, trunc: TruncationConfig) -> np.ndarray:
    """Full-basis Hamiltonian with counter-rotating coupling terms dropped.

    Keeps the free terms and the excitation-conserving couplings
    g_j (a sigma+^j + a+ sigma-^j): the counter-rotating terms are exactly
    the entries of build_full that join rows of different excitation
    number.
    """
    h = build_full(params, trunc)
    n_exc = basis_table(trunc).excitation
    h[n_exc[:, None] != n_exc] = 0.0
    return h


@dataclass(frozen=True)
class RwaExcitationBlock:
    """One excitation sector of the RWA Hamiltonian in the rotating frame.

    Sector N couples {|N-2,ee>, |N-1,eg>, |N-1,ge>, |N,gg>}; rows whose
    photon number would be negative are dropped, so the ground sector is
    1x1 and the one-excitation sector 3x3.  basis lists the surviving
    (photon, q1, q2) labels in row order.
    """

    sector: int
    matrix: np.ndarray
    basis: tuple[tuple[int, QubitLevel, QubitLevel], ...]


def build_rwa_excitation_block(params: ModelParams, n: int) -> RwaExcitationBlock:
    """Excitation-sector block with detunings on the diagonal.

    Diagonal entries are (D1+D2, D1-D2, -D1+D2, -D1-D2) with
    D_j = (omega_j - omega_f)/2; off-diagonal couplings carry sqrt(n-1)
    between the ee row and the single-excited rows and sqrt(n) between the
    single-excited rows and the gg row.
    """
    if n < 0:
        raise ValueError("sector label must be >= 0")
    d1 = 0.5 * (params.omega_1 - params.omega_f)
    d2 = 0.5 * (params.omega_2 - params.omega_f)
    e, g = QubitLevel.E, QubitLevel.G
    full_basis = ((n - 2, e, e), (n - 1, e, g), (n - 1, g, e), (n, g, g))
    diag = (d1 + d2, d1 - d2, -d1 + d2, -d1 - d2)
    keep = [i for i, (ph, _, _) in enumerate(full_basis) if ph >= 0]
    m = np.zeros((4, 4))
    m[np.arange(4), np.arange(4)] = diag
    s = np.sqrt(n - 1.0) if n >= 1 else 0.0
    t = np.sqrt(float(n))
    m[0, 1] = m[1, 0] = params.g_2 * s
    m[0, 2] = m[2, 0] = params.g_1 * s
    m[1, 3] = m[3, 1] = params.g_1 * t
    m[2, 3] = m[3, 2] = params.g_2 * t
    sub = m[np.ix_(keep, keep)]
    basis = tuple(full_basis[i] for i in keep)
    return RwaExcitationBlock(n, sub, basis)
