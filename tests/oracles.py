"""Reference constructions that only the tests use.

Each one builds its result the slow, generic way, so that the package's
direct assemblies can be checked against it.
"""

from typing import NamedTuple

import mpmath as mp
import numpy as np

from rabi2q.model import Parity, QubitLevel, TruncationConfig, basis_table

# the even-parity crossing of the criterion-05 sweep (omega = 1.3, 0.7,
# g1 = g2, n_max = 300) between branches 3 and 4, located by minimizing the
# gap of dense eigh
G_CROSS = 0.5125573063872774


# ---------------------------------------------------------------------------
# scalar basis maps: one product state at a time, from literal pair tables
# written out here rather than read from the package, so that checks of
# basis_table compare two independent derivations of the layout
# ---------------------------------------------------------------------------

_G, _E = QubitLevel.G, QubitLevel.E

# chain pair order within photon level n, by (parity, n % 2)
CHAIN_PAIRS = {
    (Parity.EVEN, 0): ((_G, _G), (_E, _E)),
    (Parity.EVEN, 1): ((_E, _G), (_G, _E)),
    (Parity.ODD, 0): ((_E, _G), (_G, _E)),
    (Parity.ODD, 1): ((_G, _G), (_E, _E)),
}

# full product basis |n> x |q1> x |q2>, pair order (ee, eg, ge, gg)
FULL_PAIRS = ((_E, _E), (_E, _G), (_G, _E), (_G, _G))


class ParityChainIndex(NamedTuple):
    parity: Parity
    j: int


def chain_state(parity: Parity, j: int) -> tuple[int, QubitLevel, QubitLevel]:
    """Product state (n, q1, q2) at position j of the given parity chain."""
    if j < 0:
        raise ValueError("chain position must be >= 0")
    n = j // 2
    q1, q2 = CHAIN_PAIRS[(parity, n % 2)][j % 2]
    return n, q1, q2


def parity_of_product_state(n: int, q1: QubitLevel, q2: QubitLevel) -> Parity:
    """Parity eigenvalue of |n, q1, q2>: even iff sz1*sz2*(-1)^n = +1."""
    if n < 0:
        raise ValueError("photon number must be >= 0")
    sign = q1.sz * q2.sz * (-1) ** n
    return Parity.EVEN if sign == 1 else Parity.ODD


def chain_index_of(n: int, q1: QubitLevel, q2: QubitLevel) -> ParityChainIndex:
    """Inverse of chain_state: chain position of the product state."""
    parity = parity_of_product_state(n, q1, q2)
    pair = CHAIN_PAIRS[(parity, n % 2)]
    return ParityChainIndex(parity, 2 * n + pair.index((q1, q2)))


def full_basis_index(n: int, q1: QubitLevel, q2: QubitLevel) -> int:
    """Row index of |n, q1, q2> in the full product basis."""
    if n < 0:
        raise ValueError("photon number must be >= 0")
    return 4 * n + FULL_PAIRS.index((q1, q2))


def full_basis_state(i: int) -> tuple[int, QubitLevel, QubitLevel]:
    q1, q2 = FULL_PAIRS[i % 4]
    return i // 4, q1, q2


# ---------------------------------------------------------------------------
# operators and observables
# ---------------------------------------------------------------------------

def build_parity_operator(trunc: TruncationConfig) -> np.ndarray:
    """Diagonal +-1 matrix of sz(1)*sz(2)*(-1)^(a+a) in the product basis."""
    diag = np.empty(trunc.full_dim)
    for parity in (Parity.EVEN, Parity.ODD):
        diag[basis_table(trunc).full_index[parity]] = parity.sign
    return np.diag(diag)


def excitation_number_operator(trunc: TruncationConfig) -> np.ndarray:
    """Diagonal of N = a+a + (sz1+sz2)/2 + 1 in the product basis."""
    return np.diag(basis_table(trunc).excitation.astype(float))


def kronecker_reference(params, trunc, rwa=False):
    """Hamiltonian from Kronecker products of the field and qubit operators.

    Basis |n> x |q1> x |q2> with each qubit ordered (e, g), which gives the
    pair order (ee, eg, ge, gg).  rwa=True keeps only the couplings
    g_j (a sigma+_j + a+ sigma-_j).
    """
    dim_f = trunc.n_max + 1
    a = np.diag(np.sqrt(np.arange(1.0, dim_f)), 1)
    i2 = np.eye(2)
    sz = np.diag([1.0, -1.0])
    sp = np.array([[0.0, 1.0], [0.0, 0.0]])     # |e><g|
    sz1, sz2 = np.kron(sz, i2), np.kron(i2, sz)
    sp1, sp2 = np.kron(sp, i2), np.kron(i2, sp)
    h = params.omega_f * np.kron(a.T @ a, np.eye(4))
    h += 0.5 * np.kron(np.eye(dim_f),
                       params.omega_1 * sz1 + params.omega_2 * sz2)
    for g, s_plus in ((params.g_1, sp1), (params.g_2, sp2)):
        if rwa:
            h += g * (np.kron(a, s_plus) + np.kron(a.T, s_plus.T))
        else:
            h += g * np.kron(a + a.T, s_plus + s_plus.T)
    return h


def reduced_density_matrix_partial_trace(state) -> np.ndarray:
    """Generic partial trace over the field of a single state.

    Each chain amplitude is placed with the scalar maps above, so neither
    the package's table scatter (to_full) nor its einsum is involved.
    """
    psi = np.zeros((state.trunc.n_max + 1, 4), dtype=complex)
    for parity in (Parity.EVEN, Parity.ODD):
        for j, amp in enumerate(state.chain(parity)):
            n, pair = divmod(full_basis_index(*chain_state(parity, j)), 4)
            psi[n, pair] = amp
    return psi.T @ np.conj(psi)


def mp_chain_residual(params, parity, xi, x, n_max, dps=90):
    """||(H - xi) x||_2 from the matrix elements, in dps-digit mp.

    Diagonal n omega_f + (sz1 omega_1 + sz2 omega_2)/2, and the block
    sqrt(j) [[g1, g2], [g2, g1]] between photon numbers j - 1 and j.
    """
    table = basis_table(TruncationConfig(n_max))
    with mp.workdps(dps):
        w1, w2, wf, g1, g2 = (mp.mpf(v) for v in (
            params.omega_1, params.omega_2, params.omega_f, params.g_1,
            params.g_2))
        total = mp.mpf(0)
        for i in range(len(x)):
            row = ((table.photon[parity][i] * wf
                    + (table.sz1[parity][i] * w1
                       + table.sz2[parity][i] * w2) / 2 - xi) * x[i])
            j, k = divmod(i, 2)
            for m in (j - 1, j + 1):
                if 0 <= m <= n_max:
                    row += mp.sqrt(max(j, m)) * (g1 * x[2 * m + k]
                                                 + g2 * x[2 * m + 1 - k])
            total += row * row
        return mp.sqrt(total)
