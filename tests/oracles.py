"""Reference constructions that only the tests use.

Each one builds its result the slow, generic way, so that the package's
direct assemblies can be checked against it.
"""

import mpmath as mp
import numpy as np

from rabi2q.model import Parity, TruncationConfig, basis_table

# the even-parity crossing of the criterion-05 sweep (omega = 1.3, 0.7,
# g1 = g2, n_max = 300) between branches 3 and 4, located by minimizing the
# gap of dense eigh
G_CROSS = 0.5125573063872774


def build_parity_operator(trunc: TruncationConfig) -> np.ndarray:
    """Diagonal +-1 matrix of sz(1)*sz(2)*(-1)^(a+a) in the product basis."""
    diag = np.empty(trunc.full_dim)
    for parity in (Parity.EVEN, Parity.ODD):
        diag[basis_table(trunc).full_index[parity]] = parity.sign
    return np.diag(diag)


def excitation_number_operator(trunc: TruncationConfig) -> np.ndarray:
    """Diagonal of N = a+a + (sz1+sz2)/2 + 1 in the product basis."""
    return np.diag(basis_table(trunc).excitation.astype(float))


def reduced_density_matrix_partial_trace(state) -> np.ndarray:
    """Generic partial trace over the field; oracle for the direct assembly."""
    psi = state.to_full().reshape(-1, 4)
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
