"""Reference constructions that only the tests use.

Each one builds its result the slow, generic way, so that the package's
direct assemblies can be checked against it.
"""

import math
from dataclasses import replace
from fractions import Fraction
from typing import NamedTuple

import mpmath as mp
import numpy as np

from rabi2q.dynamics import QuarticCoefficients
from rabi2q.eigenstates import NULL_STEPS
from rabi2q.errors import ConfigError, StepSingular
from rabi2q.hamiltonian import build_rwa_excitation_block
from rabi2q.model import (ModelParams, Parity, QubitLevel, TruncationConfig,
                          basis_table)

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


def exchanged(params):
    """The qubits swapped, (omega_1, g_1) <-> (omega_2, g_2), which keeps
    each parity chain's spectrum and the state |gg>."""
    return ModelParams(params.omega_2, params.omega_1, params.g_2, params.g_1)


def g1_flipped(params):
    """g_1 -> -g_1, conjugation by sigma_z of qubit 1, which keeps each
    parity chain's spectrum and the state |gg>."""
    return replace(params, g_1=-params.g_1)


def both_flipped(params):
    """(g_1, g_2) -> (-g_1, -g_2), conjugation by the photon parity (or by
    sigma_z of both qubits), which keeps each parity chain's spectrum."""
    return replace(params, g_1=-params.g_1, g_2=-params.g_2)


# the truncation guard of the dense checks: a level converged when its
# vector carries less than this weight on the top two photon levels
GUARD_TOL = 1e-8


def converged_mask(vectors: np.ndarray, edge_dim: int) -> np.ndarray:
    """True for columns with < GUARD_TOL weight on the last edge_dim rows.

    edge_dim is 4 for a parity chain and 8 for the full product basis
    (two qubit pairs per photon level vs four).
    """
    edge_weight = np.sum(vectors[-edge_dim:, :] ** 2, axis=0)
    return edge_weight < GUARD_TOL


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


def propagate_reference(decomp, c0, t):
    """exp(-i H t) c0 from the eigenpairs (values, vectors) of H.

    Every level is kept, and the projections and the sum run in plain
    complex arithmetic.  t is a scalar (returns a vector) or a 1-d array
    of times (returns one column per time).
    """
    values, vectors = decomp
    vectors = np.asarray(vectors, dtype=complex)
    proj = vectors.conj().T @ np.asarray(c0, dtype=complex)
    t_arr = np.asarray(t, dtype=float)
    out = vectors @ (np.exp(-1j * np.outer(values, t_arr)) * proj[:, None])
    return out if t_arr.ndim else out[:, 0]


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


def mp_concurrence(rho, dps=50) -> float:
    """Wootters concurrence of one 4x4 density matrix in dps-digit arithmetic.

    The textbook route (Wootters, PRL 80, 2245 (1998)): the lambda_i are the
    square roots of the eigenvalues of sqrt(rho) rho~ sqrt(rho), with
    rho~ = (sigma_y x sigma_y) rho^* (sigma_y x sigma_y), in the basis order
    (ee, eg, ge, gg).  At 50 digits the square roots that cost a float
    computation half its digits leave about 25.
    """
    flip = mp.matrix([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0],
                      [-1, 0, 0, 0]])
    with mp.workdps(dps):
        r = mp.matrix([[mp.mpc(complex(x)) for x in row] for row in rho])
        r = (r + r.H) / 2
        evals, evecs = mp.eighe(r)
        root = evecs * mp.diag([mp.sqrt(max(e, 0)) for e in evals]) * evecs.H
        m = root * (flip * r.conjugate() * flip) * root
        mu = mp.eighe((m + m.H) / 2, eigvals_only=True)
        lam = sorted((mp.sqrt(max(mp.re(x), 0)) for x in mu), reverse=True)
        return float(max(lam[0] - lam[1] - lam[2] - lam[3], 0))


def zero_frequency_evolution(g_1, g_2, alpha, times):
    """(mean_n, rho) of |alpha, gg> at omega_1 = omega_2 = 0 (omega_f = 1),
    from coherent states alone: rho is the (T, 4, 4) two-qubit reduced
    density matrix in the basis order (ee, eg, ge, gg).

    In the sigma_x eigenbasis |s1 s2> (s = +-1, |g> = (|+> - |->) / sqrt 2)
    H is a^+ a + x (a + a^+) = (a^+ + x)(a + x) - x^2, x = s1 g1 + s2 g2,
    which carries a coherent state |alpha> to exp(i (x^2 t - x Im alpha
    + x Im gamma)) |gamma - x>, gamma = (alpha + x) e^{-it}.  The field is
    traced out by the overlaps <w|z> = exp(-|w|^2 / 2 - |z|^2 / 2 + w^* z).
    """
    t = np.asarray(times, dtype=float)[:, None]
    signs = np.array([(s1, s2) for s1 in (1, -1) for s2 in (1, -1)])
    x = signs @ np.array([g_1, g_2], dtype=float)
    gamma = (alpha + x) * np.exp(-1j * t)
    z = gamma - x
    amp = (signs[:, 0] * signs[:, 1] / 2.0
           * np.exp(1j * (x * x * t - x * np.imag(alpha)
                          + x * np.imag(gamma))))
    mean_n = np.sum(np.abs(amp * z) ** 2, axis=1)
    sq = np.abs(z) ** 2 / 2
    overlap = np.exp(-sq[:, None, :] - sq[:, :, None]
                     + np.conj(z)[:, None, :] * z[:, :, None])
    rho_x = amp[:, :, None] * np.conj(amp)[:, None, :] * overlap
    to_lab = np.kron(*[np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)]
                     * 2)
    return mean_n, to_lab @ rho_x @ to_lab.T


# Bargmann spinor rotation: rows are the lab qubit levels in the order
# (e, g), columns the two rotated components
_ROTATION = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
_LEVELS = (_E, _G)


def bargmann_rows_reference(params, parity, chi, j_max):
    """The row matrix of ``eigenstates._bargmann_rows`` built one entry at
    a time in Python floats, from the printed coefficient formulas: the
    entry of amplitude v_(j - k) in row j is alpha_k times sqrt(j!/(j -
    k)!), so the rows solve for v_j = sqrt(j!) c_j; raises StepSingular at
    the first row whose alpha_0 vanishes: below (eps / 1e-6)^2 of the row's
    largest coefficient, or with br_m below eps / 1e-6 of |chi| + j."""
    s = -1 if parity is Parity.EVEN else 1
    w1, w2 = params.omega_1, params.omega_2
    gp, gm = params.g_plus, params.g_minus
    rows = []
    for j in range(2, j_max + 5):
        pj = (-1) ** j
        br_m = w1 - s * pj * w2
        br_p = w1 + s * pj * w2
        a = (j * (j - 1) * gp * gm * br_m,
             (j - 1) * (gm * br_m * (j - 1 - chi)
                        + gp * br_p * (chi - (j - 2))),
             ((2 * j - 3) * gp * gm * br_m
              + br_p * (0.25 * br_m ** 2 - (chi - (j - 2)) ** 2)),
             gp * br_p * (chi - (j - 2)) - gm * br_m * (chi - (j - 3)),
             gp * gm * br_m)
        coefficients = [value * math.sqrt(math.prod(range(j - off + 1, j + 1)))
                        for off, value in enumerate(a)]
        floor = np.finfo(float).eps / 1e-6
        if (abs(a[0]) <= floor ** 2 * max(map(abs, coefficients))
                or abs(br_m) <= floor * (abs(chi) + j)):
            raise StepSingular(
                f"alpha_0 vanishes at step j={j} "
                f"(omega_1 = -+(-1)^j omega_2 or g_plus g_minus = 0)")
        row = np.zeros(j_max + 1)
        for off, val in enumerate(a[:min(5, j + 1)]):
            k = j - off
            if 0 <= k <= j_max:
                row[k] = val * math.sqrt(math.prod(range(k + 1, j + 1)))
        scale = np.max(np.abs(row))
        if scale > 0:
            rows.append(row / scale)
    return np.array(rows)


def bargmann_chain_reference(parity, c, phi2, n_max):
    """(v, other_chain_weight) of the Bargmann amplitudes c and companion
    amplitudes phi2 of one level of parity, built one amplitude at a time:
    the normalized chain vector of parity, and the fraction of the norm
    that falls on the other chain.

    The rotated components at photon level n are (c_n, phi2_n) and
    f (phi2_n, c_n), the amplitudes of the Fock state |n>, with
    f = s (-1)^n and s = +1 for even parity, -1 for odd.  Qubit
    pair (a, b) takes sum_uv R[a, u] R[b, v] times component (u, v), in
    the package's term order, up to level min(j_max, n_max); each chain
    position is then read at the row the scalar maps above give it, not
    through basis_table.
    """
    sigma = 1 if parity is Parity.EVEN else -1
    trunc = TruncationConfig(max(n_max, 1))
    lab = np.zeros((trunc.n_max + 1, 4))
    for n, (c_n, phi2_n) in enumerate(zip(c.tolist(), phi2.tolist())):
        if n > n_max:
            break
        flip = sigma * (-1.0) ** n
        comp = ((c_n, phi2_n), (flip * phi2_n, flip * c_n))
        for pair, (q1, q2) in enumerate(FULL_PAIRS):
            a, b = _LEVELS.index(q1), _LEVELS.index(q2)
            for u in range(2):
                for v in range(2):
                    lab[n, pair] += (_ROTATION[a, u] * _ROTATION[b, v]
                                     * comp[u][v])
    chains = {par: np.array([lab.flat[full_basis_index(
                  *chain_state(par, j))] for j in range(trunc.chain_dim)])
              for par in Parity}
    own = np.linalg.norm(chains[parity])
    other = np.linalg.norm(chains[Parity.ODD if parity is Parity.EVEN
                                  else Parity.EVEN])
    return (chains[parity] / own,
            float(other / math.hypot(own, other)))


def least_singular_vector_reference(matrix):
    """The right singular vector of a tall matrix M of least singular value,
    ||M v||, and every iterate formed with its ||M x||, by inverse
    iteration on R^T R from the dense R factor of M, each step two LU
    solves (``numpy.linalg.solve``).

    A pivot of R below eps ||R|| is raised to it, with its sign.  From
    v = (1, ..., 1) / sqrt(n), each step solves R^T R v' = v; the iteration
    stops when ||M v|| stops falling, after NULL_STEPS steps at most.
    """
    r = np.linalg.qr(matrix, mode="r")
    pivots = np.diagonal(r)
    floor = np.finfo(float).eps * np.linalg.norm(r)
    r[np.diag_indices_from(r)] = np.where(np.abs(pivots) < floor,
                                          np.copysign(floor, pivots), pivots)
    v = np.full(r.shape[1], 1 / math.sqrt(r.shape[1]))
    least = np.linalg.norm(matrix @ v)
    tried = [(v, least)]
    for _ in range(NULL_STEPS):
        step = np.linalg.solve(r, np.linalg.solve(r.T, v))
        step /= np.linalg.norm(step)
        size = np.linalg.norm(matrix @ step)
        tried.append((step, size))
        if not size < least:
            break
        v, least = step, size
    return v, float(least), tried


# ---------------------------------------------------------------------------
# displacement elements and the perturbative sums, one scalar at a time
# ---------------------------------------------------------------------------

def laguerre_reference(n, k, z):
    """L_n^(k)(z) by the three-term recurrence in the degree, in Python
    floats."""
    if n == 0:
        return 1.0
    prev, cur = 1.0, 1.0 + k - z
    for i in range(1, n):
        prev, cur = cur, ((2 * i + 1 + k - z) * cur - (i + k) * prev) / (i + 1)
    return cur


def displacement_reference(m, n, x):
    """<m| D(2x) |n> in Python floats: exp(ln sqrt(n!/m!) - 2x^2
    + (m - n) ln|2x|) L_n^(m-n)(4x^2) for m >= n, the whole magnitude in
    logs and ln|2x| as ln 2 + ln|x| (the power's log 0 at m = n and -inf
    at x = 0 < m - n), +0.0 where the exponential underflows, times
    (-1)^(m-n) for x < 0; and (-1)^(n-m) <n|D|m> for m < n."""
    if m < n:
        return (-1) ** (n - m) * displacement_reference(n, m, x)
    d = m - n
    if d == 0:
        power = 0.0
    else:
        power = d * (math.log(2.0) + math.log(abs(x)) if x else -math.inf)
    mag = math.exp(0.5 * (math.lgamma(n + 1) - math.lgamma(m + 1))
                   - 2.0 * x * x + power)
    value = 0.0 if mag == 0.0 else mag * laguerre_reference(n, d, 4.0 * x * x)
    return -value if x < 0 and d % 2 else value


def _square_reference(x):
    value = x ** 2 if abs(x) < 1e154 else math.inf
    if not math.isfinite(value):
        raise ConfigError(f"frequency or coupling {x:g} is out of range for "
                          f"the perturbative sums (its square is not finite)")
    return value


def dsc_width_reference(params, m_max):
    """The intermediate levels n < W of every perturbative sum, W =
    ceil((2 max|g_j| + sqrt(m_max) + 4)^2)."""
    g = max(abs(params.g_1), abs(params.g_2))
    return math.ceil((2 * g + math.sqrt(m_max) + 4.0) ** 2)


def second_order_shift_reference(params, m, branch_sign, width):
    """(shift, resonant n or None) of displaced-oscillator level m on one
    branch, summed one intermediate level n < width at a time: n = m is
    skipped, and a denominator n - m +- 4 g1 g2 below 1e-6 makes the
    shift nan."""
    w1_sq, w2_sq = map(_square_reference, (params.omega_1, params.omega_2))
    offset = 4.0 * params.g_1 * params.g_2
    total = 0.0
    for n in range(width):
        if n == m:
            continue
        den = n - m + branch_sign * offset
        if abs(den) < 1e-6:
            return math.nan, n
        w = 0.25 * (w1_sq * displacement_reference(m, n, params.g_1) ** 2
                    + w2_sq * displacement_reference(m, n, params.g_2) ** 2)
        total += w / den
    return total, None


def dsc_reference(params, m_max):
    """(branch-1 shifts, branch-2 shifts, resonant (branch, m, n) tuples)
    of ``spectra.dsc_perturbative_spectrum`` for m = 0..m_max, one level
    and branch at a time over ``dsc_width_reference``; ConfigError where a
    square or a shift is not finite, in the package's order."""
    _square_reference(params.g_plus)
    _square_reference(params.g_minus)
    width = dsc_width_reference(params, m_max)
    shifts, resonant = ([], []), []
    for m in range(m_max + 1):
        for label, sign in ((1, +1), (2, -1)):
            shift, bad_n = second_order_shift_reference(params, m, sign,
                                                        width)
            if bad_n is not None:
                resonant.append((label, m, bad_n))
            elif not math.isfinite(shift):
                raise ConfigError(f"branch {label}, m={m}: the second-order "
                                  f"shift is not finite")
            shifts[label - 1].append(shift)
    return np.array(shifts[0]), np.array(shifts[1]), tuple(resonant)


# ---------------------------------------------------------------------------
# exact chain residual on integers
# ---------------------------------------------------------------------------
# A float residual of a state at rounding level is itself rounded at that
# level, so it cannot tell how close the state is to an eigenstate.  Here
# the chain's entries are the nearest ints at scale 2^-bits, the diagonal
# from the exact rationals of the floats and g sqrt(j) from an integer
# square root, and every row of (H - xi) x is summed exactly.  From 1075
# bits on, xi and every entry of x are held exactly, so the one error left
# is that of the sqrt(j) entries, below 2^-bits.

def nearest(num, den):
    """The int nearest num / den (den nonzero), ties to even."""
    if den < 0:
        num, den = -num, -den
    q, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and q & 1):
        q += 1
    return q


def fixed_point(value, bits):
    """The int nearest value 2^bits, ties to even, for every finite float
    and every rational with ``as_integer_ratio``."""
    if type(value) is float:
        try:
            return round(math.ldexp(value, bits))
        except OverflowError:   # value 2^bits is past the float range
            pass
    num, den = value.as_integer_ratio()
    return nearest(num << bits, den)


def fixed_coupling(g, j, bits):
    """The int nearest g sqrt(j) 2^bits, ties to even, for a float g."""
    num, den = g.as_integer_ratio()
    root = math.isqrt(j)
    if root * root == j:
        return nearest(root * num << bits, den)
    # 2 |g| sqrt(j) 2^bits is irrational, so no tie can occur and the
    # nearest int is (t + 1) // 2 for its floor t, the floor of the integer
    # square root over den
    t = math.isqrt(j * num * num << (2 * bits + 2)) // den
    return (t + 1) // 2 if num >= 0 else -((t + 1) // 2)


def fixed_chain_rows(params, parity, n_max, bits):
    """Row i of the chain matrix at scale 2^-bits as {column: int}: the
    diagonal n + (sz1 omega_1 + sz2 omega_2)/2 rounded from its exact
    rational, and sqrt(j) [[g1, g2], [g2, g1]] between photon numbers
    j - 1 and j, each entry from ``fixed_coupling``."""
    table = basis_table(TruncationConfig(n_max))
    w1, w2 = Fraction(params.omega_1), Fraction(params.omega_2)
    coupling = {(g, j): fixed_coupling(g, j, bits)
                for g in (params.g_1, params.g_2)
                for j in range(1, n_max + 1)}
    rows = []
    for i in range(TruncationConfig(n_max).chain_dim):
        row = {i: fixed_point(int(table.photon[parity][i])
                              + (int(table.sz1[parity][i]) * w1
                                 + int(table.sz2[parity][i]) * w2) / 2,
                              bits)}
        j, k = divmod(i, 2)
        for m in (j - 1, j + 1):
            if 0 <= m <= n_max:
                c = max(j, m)
                row[2 * m + k] = coupling[params.g_1, c]
                row[2 * m + 1 - k] = coupling[params.g_2, c]
        rows.append(row)
    return rows


def exact_chain_residual(params, parity, xi, x, bits=1200):
    """||(H - xi) x|| / ||x|| of a float xi and float vector x on the chain
    of len(x) // 2 photon levels, H from ``fixed_chain_rows``: each row
    summed exactly, and the ratio's root taken once, in 80-bit mpmath."""
    rows = fixed_chain_rows(params, parity, len(x) // 2 - 1, bits)
    xi = fixed_point(float(xi), bits)
    x = [fixed_point(float(c), bits) for c in x]
    total = sum((xi * x[i] - sum(v * x[c] for c, v in row.items())) ** 2
                for i, row in enumerate(rows))
    norm = sum(c * c for c in x) << (2 * bits)
    with mp.workprec(80):
        return float(mp.sqrt(mp.mpf(total) / mp.mpf(norm)))


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
    return QuarticCoefficients(c0, c1, c2)
