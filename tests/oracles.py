"""Reference constructions that only the tests use.

Each one builds its result the slow, generic way, so that the package's
direct assemblies can be checked against it.
"""

import math
from typing import NamedTuple

import mpmath as mp
import numpy as np

from rabi2q import eigenstates as eig
from rabi2q.dynamics import QuarticCoefficients
from rabi2q.errors import ConvergenceFailure, OverflowDetected
from rabi2q.hamiltonian import build_parity_band, build_rwa_excitation_block
from rabi2q.model import Parity, QubitLevel, TruncationConfig, basis_table
from rabi2q.numerics import band_norm

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
        diag[basis_table(trunc).full_index[parity]] = (
            1 if parity is Parity.EVEN else -1)
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
    h = np.kron(a.T @ a, np.eye(4))
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


# Bargmann spinor rotation: rows are the lab qubit levels in the order
# (e, g), columns the two rotated components
_ROTATION = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
_LEVELS = (_E, _G)


def bargmann_chain_reference(coeffs, n_max):
    """(v, other_chain_weight, cut_index) of bargmann_to_chain, built one
    amplitude at a time.

    The rotated components at photon level n are (c_n, phi2_n) sqrt(n!)
    and f (phi2_n, c_n) sqrt(n!), with f = s (-1)^n and s = +1 for even
    coeffs.parity, -1 for odd.  Qubit pair (a, b) takes sum_uv R[a, u] R[b, v] times
    component (u, v), in the package's term order, up to the level of least
    component norm (capped at n_max); each chain position is then read at
    the row the scalar maps above give it, not through basis_table.
    """
    sigma = 1 if coeffs.parity is Parity.EVEN else -1
    comps, norms = [], []
    # Python floats, so products past the largest float are inf (and 0 inf
    # is nan) without a numpy warning; sqrt(n!) is inf from n = 301 on
    for n, (c, phi2) in enumerate(zip(coeffs.c.tolist(),
                                      coeffs.phi2.tolist())):
        half_log_fact = 0.5 * math.lgamma(n + 1)
        sq = math.exp(half_log_fact) if half_log_fact < 709 else math.inf
        flip = sigma * (-1.0) ** n
        comp = ((c * sq, phi2 * sq), (flip * phi2 * sq, flip * c * sq))
        norm = math.sqrt(sum(x * x for row in comp for x in row))
        comps.append(comp)
        norms.append(norm if math.isfinite(norm) and norm > 0 else math.inf)
    cut = min(range(len(norms)), key=norms.__getitem__)
    trunc = TruncationConfig(max(n_max, 1))
    lab = np.zeros((trunc.n_max + 1, 4))
    for n in range(min(cut, n_max) + 1):
        for pair, (q1, q2) in enumerate(FULL_PAIRS):
            a, b = _LEVELS.index(q1), _LEVELS.index(q2)
            for u in range(2):
                for v in range(2):
                    lab[n, pair] += (_ROTATION[a, u] * _ROTATION[b, v]
                                     * comps[n][u][v])
    chains = {parity: np.array([lab.flat[full_basis_index(
                  *chain_state(parity, j))] for j in range(trunc.chain_dim)])
              for parity in Parity}
    own = np.linalg.norm(chains[coeffs.parity])
    other = np.linalg.norm(chains[Parity.ODD if coeffs.parity is Parity.EVEN
                                  else Parity.EVEN])
    return (chains[coeffs.parity] / own,
            float(other / math.hypot(own, other)), cut)


def mp_chain_residual(params, parity, xi, x, n_max, dps=90):
    """||(H - xi) x||_2 from the matrix elements, in dps-digit mp.

    Diagonal n + (sz1 omega_1 + sz2 omega_2)/2, and the block
    sqrt(j) [[g1, g2], [g2, g1]] between photon numbers j - 1 and j.
    """
    table = basis_table(TruncationConfig(n_max))
    with mp.workdps(dps):
        w1, w2, g1, g2 = (mp.mpf(v) for v in (
            params.omega_1, params.omega_2, params.g_1, params.g_2))
        total = mp.mpf(0)
        for i in range(len(x)):
            row = ((int(table.photon[parity][i])
                    + (table.sz1[parity][i] * w1
                       + table.sz2[parity][i] * w2) / 2 - xi) * x[i])
            j, k = divmod(i, 2)
            for m in (j - 1, j + 1):
                if 0 <= m <= n_max:
                    row += mp.sqrt(max(j, m)) * (g1 * x[2 * m + k]
                                                 + g2 * x[2 * m + 1 - k])
            total += row * row
        return mp.sqrt(total)


# ---------------------------------------------------------------------------
# mp eigenpair refinement and four-term recurrence on mpf objects
# ---------------------------------------------------------------------------
# The package runs both on raw mpf tuples; these are the same computations
# written with the mpf operators and mp.fdot, so the two must agree bit for
# bit in every _mpf_ tuple.

def mp_chain_diagonal(params, parity, n_max):
    """Diagonal blocks [d0, d1] of photon levels 0..n_max, in mpf."""
    w1, w2 = mp.mpf(params.omega_1), mp.mpf(params.omega_2)
    table = basis_table(TruncationConfig(max(n_max, 1)))
    diag = [n + (s1 * w1 + s2 * w2) / 2
            for n, s1, s2 in zip(table.photon[parity].tolist(),
                                 table.sz1[parity].tolist(),
                                 table.sz2[parity].tolist())]
    return [diag[2 * j:2 * j + 2] for j in range(n_max + 1)]


def recurrence_blocks_reference(params, parity, xi, v0, n_max):
    """eigenstates._recurrence_blocks_mp with mpf objects, at the caller's
    mp precision."""
    d = mp_chain_diagonal(params, parity, n_max)
    g1, g2 = mp.mpf(params.g_1), mp.mpf(params.g_2)
    det = g1 * g1 - g2 * g2
    xi = mp.mpf(xi)
    v = [[mp.mpf(v0[0]), mp.mpf(v0[1])]]
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
        if mag > eig.OVERFLOW_LIMIT:
            raise OverflowDetected(
                f"block magnitude exceeded {eig.OVERFLOW_LIMIT:g} at j={j} "
                f"(xi far from the spectrum)")
        run_max = max(run_max, mag)
        if j % eig.RESCALE_EVERY == 0 and run_max > eig.RESCALE_TRIGGER:
            inv = 1 / run_max
            for blk in v:
                blk[0] *= inv
                blk[1] *= inv
            run_max = mp.mpf(1)
    return v


def mp_residual_reference(d, a, b, xi, x):
    """(H - xi) x in mpf, one mp.fdot per row; d holds the diagonal
    blocks, a[j] and b[j] the entries of O_j (zero past the ends)."""
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


def refine_eigenpair_reference(params, parity, xi0, vec0, n_max):
    """eigenstates.refine_eigenpair with the mp side in mpf objects; the
    float side (band LU, solves, sums) is the package's own."""
    band = build_parity_band(params, parity, TruncationConfig(n_max))
    x0 = np.asarray(vec0, dtype=float)
    hnorm = band_norm(band)
    factors = eig._band_lu(band, float(xi0), np.finfo(float).eps * hnorm)
    w = eig._band_solve(factors, x0)
    xw = math.fsum(x0 * w)
    if not (xw and math.isfinite(xw)):
        raise ConvergenceFailure("bordered Newton system is singular")
    u = w / xw
    digits = eig.DPS + eig.GUARD_DIGITS
    tol = hnorm * 10.0 ** -digits
    with mp.workdps(digits):
        d = mp_chain_diagonal(params, parity, n_max)
        s = [mp.sqrt(j) for j in range(n_max + 1)] + [mp.mpf(0)]
        a, b = ([c * mp.mpf(g) for c in s] for g in (params.g_1, params.g_2))
        xi, x = mp.mpf(float(xi0)), [mp.mpf(c) for c in x0.tolist()]
        for step in range(eig.NEWTON_STEPS + 1):
            f = -np.array([float(c)
                           for c in mp_residual_reference(d, a, b, xi, x)])
            h = float((1 - mp.fdot(x, x)) / 2)
            res = math.hypot(*f)
            if res <= tol and abs(h) * hnorm <= tol:
                return xi, x, res
            if step == eig.NEWTON_STEPS or not math.isfinite(res + h):
                break
            c = math.fsum(x0 * f)
            z = eig._band_solve(factors, f - c * x0)
            t = h - math.fsum(x0 * z)
            x = [xk + dk for xk, dk in zip(x, (z + t * u).tolist())]
            xi += t / xw - c
    raise ConvergenceFailure(
        f"eigenpair refinement stopped at residual {res:.3e} after "
        f"{step} Newton steps (tolerance {tol:.3e})")


def quartic_coefficients_from_block(params, n):
    """The coefficients of ``dynamics.quartic_coefficients`` recomputed from
    the RWA sector matrix via trace powers (Newton's identities)."""
    if n < 2:
        raise ValueError("the full 4x4 sector requires n >= 2")
    h = build_rwa_excitation_block(params, n).matrix
    h2 = h @ h
    p2 = float(np.trace(h2))
    p3 = float(np.trace(h2 @ h))
    p4 = float(np.trace(h2 @ h2))
    c2 = -p2 / 2.0
    c1 = -p3 / 3.0
    c0 = -(p4 + c2 * p2) / 4.0
    return QuarticCoefficients(c0, c1, c2, n)
