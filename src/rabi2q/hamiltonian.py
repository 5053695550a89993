"""Hamiltonian construction.

Each parity chain's Hamiltonian is written once, straight into LAPACK lower
band storage (bandwidth 3: the 2x2 diagonal blocks D_j and the coupling
blocks O_j between photon numbers j - 1 and j).  The RWA chain band is that
band with the counter-rotating entries zeroed, block diagonal with one
block of at most four slots per excitation sector.  Every chain matvec runs
on the band; a dense chain matrix is expanded from it only to feed dense
``eigh``.  The sector blocks of the printed quartic are written from their
own printed entries.  All matrices are real symmetric by construction
(complex arithmetic enters only in dynamics).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (ModelParams, Parity, QubitLevel, TruncationConfig,
                    basis_table)


def build_parity_band(params: ModelParams, parity: Parity,
                      trunc: TruncationConfig) -> np.ndarray:
    """One parity chain's Hamiltonian in LAPACK lower band storage.

    band[d, c] = H[c + d, c], shape (4, chain_dim); the unused tail of each
    diagonal is zero.  The diagonal holds the free energies
    n + (sz1*omega_1 + sz2*omega_2)/2 of the chain slots (omega_f = 1).  The
    transpose of O_j = sqrt(j)*[[g1, g2], [g2, g1]] sits in rows r + 2,
    r + 3 and columns r, r + 1 (r = 2j - 2), so the entries [0, 0], [0, 1],
    [1, 0] and [1, 1] of O_j land on diagonals 2, 3, 1 and 2.
    """
    table = basis_table(trunc)
    band = np.zeros((4, trunc.chain_dim))
    band[0] = (table.photon[parity]
               + 0.5 * (table.sz1[parity] * params.omega_1
                        + table.sz2[parity] * params.omega_2))
    root = np.sqrt(np.arange(1, trunc.n_max + 1))
    band[2, 0:-2:2] = band[2, 1:-2:2] = root * params.g_1
    band[3, 0:-2:2] = band[1, 1:-2:2] = root * params.g_2
    return band


def build_rwa_band(params: ModelParams, parity: Parity,
                   trunc: TruncationConfig) -> np.ndarray:
    """The chain band with counter-rotating coupling terms dropped.

    Keeps the free terms and the excitation-conserving couplings
    g_j (a sigma+^j + a+ sigma-^j): the counter-rotating terms are exactly
    the entries that join chain positions of different excitation number.
    """
    band = build_parity_band(params, parity, trunc)
    table = basis_table(trunc)
    n_exc = table.excitation[table.full_index[parity]]
    for d in range(1, band.shape[0]):
        band[d, :-d][n_exc[d:] != n_exc[:-d]] = 0.0
    return band


@dataclass(frozen=True)
class RwaExcitationBlock:
    """One excitation sector of the RWA Hamiltonian in the rotating frame.

    Sector N couples {|N-2,ee>, |N-1,eg>, |N-1,ge>, |N,gg>}; rows whose
    photon number would be negative are dropped, so the ground sector is
    1x1 and the one-excitation sector 3x3.  basis lists the surviving
    (photon, q1, q2) labels in row order.
    """

    matrix: np.ndarray
    basis: tuple[tuple[int, QubitLevel, QubitLevel], ...]


def build_rwa_excitation_block(params: ModelParams, n: int) -> RwaExcitationBlock:
    """Excitation-sector block with detunings on the diagonal.

    Diagonal entries are (D1+D2, D1-D2, -D1+D2, -D1-D2) with
    D_j = (omega_j - 1)/2, the detuning from the field (omega_f = 1);
    off-diagonal couplings carry sqrt(n-1) between the ee row and the
    single-excited rows and sqrt(n) between the single-excited rows and the
    gg row.
    """
    if n < 0:
        raise ValueError("sector label must be >= 0")
    d1 = 0.5 * (params.omega_1 - 1.0)
    d2 = 0.5 * (params.omega_2 - 1.0)
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
    return RwaExcitationBlock(sub, basis)
