"""Reference constructions that only the tests use.

Each one builds its result the slow, generic way, so that the package's
direct assemblies can be checked against it.
"""

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import mpmath as mp
import numpy as np

from rabi2q import eigenstates as eig
from rabi2q.dynamics import QuarticCoefficients
from rabi2q.errors import ConvergenceFailure, OverflowDetected, StepSingular
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
    the first row whose alpha_0 vanishes."""
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
        if abs(a[0]) <= 1e-14 * (j * (j - 1) * abs(gp * gm)
                                 * (abs(w1) + abs(w2))):
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


def bargmann_chain_reference(coeffs, n_max):
    """(v, other_chain_weight) of bargmann_to_chain, built one amplitude at
    a time.

    The rotated components at photon level n are (c_n, phi2_n) and
    f (phi2_n, c_n), the amplitudes of the Fock state |n>, with
    f = s (-1)^n and s = +1 for even coeffs.parity, -1 for odd.  Qubit
    pair (a, b) takes sum_uv R[a, u] R[b, v] times component (u, v), in
    the package's term order, up to level min(j_max, n_max); each chain
    position is then read at the row the scalar maps above give it, not
    through basis_table.
    """
    sigma = 1 if coeffs.parity is Parity.EVEN else -1
    trunc = TruncationConfig(max(n_max, 1))
    lab = np.zeros((trunc.n_max + 1, 4))
    for n, (c, phi2) in enumerate(zip(coeffs.c.tolist(),
                                      coeffs.phi2.tolist())):
        if n > n_max:
            break
        flip = sigma * (-1.0) ** n
        comp = ((c, phi2), (flip * phi2, flip * c))
        for pair, (q1, q2) in enumerate(FULL_PAIRS):
            a, b = _LEVELS.index(q1), _LEVELS.index(q2)
            for u in range(2):
                for v in range(2):
                    lab[n, pair] += (_ROTATION[a, u] * _ROTATION[b, v]
                                     * comp[u][v])
    chains = {parity: np.array([lab.flat[full_basis_index(
                  *chain_state(parity, j))] for j in range(trunc.chain_dim)])
              for parity in Parity}
    own = np.linalg.norm(chains[coeffs.parity])
    other = np.linalg.norm(chains[Parity.ODD if coeffs.parity is Parity.EVEN
                                  else Parity.EVEN])
    return (chains[coeffs.parity] / own,
            float(other / math.hypot(own, other)))


def to_mpf(value):
    """The mpf of a float or an exact rational, at the context's
    precision."""
    num, den = value.as_integer_ratio()
    return mp.mpf(num) / den


def mp_chain_residual(params, parity, xi, x, n_max, dps=90):
    """||(H - xi) x||_2 from the matrix elements, in dps-digit mp; xi and
    x are floats or exact rationals.

    Diagonal n + (sz1 omega_1 + sz2 omega_2)/2, and the block
    sqrt(j) [[g1, g2], [g2, g1]] between photon numbers j - 1 and j.
    """
    table = basis_table(TruncationConfig(n_max))
    with mp.workdps(dps):
        w1, w2, g1, g2 = (mp.mpf(v) for v in (
            params.omega_1, params.omega_2, params.g_1, params.g_2))
        xi, x = to_mpf(xi), [to_mpf(c) for c in x]
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
# fixed-point eigenpair refinement on exact integers
# ---------------------------------------------------------------------------
# The package holds the Newton iterate and its tables as ints at scale
# 2^-F, F = eigenstates._fraction_bits of the model and tolerance, on
# photon windows; this is the same Newton on the whole chain, from matrix
# rows derived here, with every rounding to the scale done through
# fractions.Fraction.

def fixed_point(value, bits):
    """The int nearest value 2^bits (a float or a Fraction), ties to
    even."""
    return round(Fraction(value) * 2 ** bits)


@lru_cache(maxsize=4096)
def fixed_coupling(g, j, bits):
    """g sqrt(j) at scale 2^-bits: mpmath at bits + 64 bits, then mp.nint
    (ties to even)."""
    with mp.workprec(bits + 64):
        return int(mp.nint(mp.ldexp(mp.sqrt(j) * mp.mpf(g), bits)))


def fixed_chain_rows(params, parity, n_max, bits):
    """Row i of the chain matrix at scale 2^-bits as {column: int}: the
    diagonal n + (sz1 omega_1 + sz2 omega_2)/2 rounded from its exact
    rational, and sqrt(j) [[g1, g2], [g2, g1]] between photon numbers
    j - 1 and j, each entry from ``fixed_coupling``."""
    table = basis_table(TruncationConfig(n_max))
    w1, w2 = Fraction(params.omega_1), Fraction(params.omega_2)
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
                row[2 * m + k] = fixed_coupling(params.g_1, c, bits)
                row[2 * m + 1 - k] = fixed_coupling(params.g_2, c, bits)
        rows.append(row)
    return rows


def refine_eigenpair_reference(params, parity, xi0, vec0, n_max):
    """eigenstates.refine_eigenpair on the whole chain, on exact integers:
    xi and x at scale 2^-F, rounded to it after each update; each row of
    -(H - xi) x, and (1 - x^T x) / 2, summed exactly and rounded once to a
    float through a Fraction.  Returns xi and x as Fractions.  The float
    side (band LU and its shift, solves, sums) is the package's own."""
    band = build_parity_band(params, parity, TruncationConfig(n_max))
    x0 = np.asarray(vec0, dtype=float)
    hnorm = band_norm(band)
    factors, xw, u = eig._frozen_jacobian(band, x0, xi0, hnorm)
    tol = hnorm * 10.0 ** -(eig.DPS + eig.GUARD_DIGITS)
    bits = eig._fraction_bits(params, tol)
    scale = 2 ** bits
    rows = fixed_chain_rows(params, parity, n_max, bits)
    xi, x = (fixed_point(float(xi0), bits),
             [fixed_point(c, bits) for c in x0.tolist()])
    for step in range(eig.NEWTON_STEPS + 1):
        try:
            f = np.array([float(Fraction(xi * x[i] - sum(
                v * x[c] for c, v in row.items()), scale ** 2))
                for i, row in enumerate(rows)])
            h = float(Fraction(scale ** 2 - sum(c * c for c in x),
                               2 * scale ** 2))
        except OverflowError:
            res = math.inf
            break
        res = math.hypot(*f)
        if res <= tol and abs(h) * hnorm <= tol:
            return (Fraction(xi, scale), [Fraction(c, scale) for c in x],
                    res)
        if step == eig.NEWTON_STEPS or not math.isfinite(res + h):
            break
        c = math.fsum(x0 * f)
        z = eig._band_solve(factors, f - c * x0)
        t = h - math.fsum(x0 * z)
        try:
            x = [xk + fixed_point(dk, bits)
                 for xk, dk in zip(x, (z + t * u).tolist())]
            xi += fixed_point(t / xw - c, bits)
        except (OverflowError, ValueError):
            break
    raise ConvergenceFailure(
        f"eigenpair refinement stopped at residual {res:.3e} after "
        f"{step} Newton steps (tolerance {tol:.3e})")


# ---------------------------------------------------------------------------
# four-term recurrence in exact rationals
# ---------------------------------------------------------------------------
# The package solves each chain row for the next block on ints, inverting
# the coupling block by its closed form; this solves the same rows, read
# from fixed_chain_rows, by Cramer's rule in Fractions and rounds each
# block to the scale, so the two must agree bit for bit.

def recurrence_bits(params, parity, n_max):
    """The recurrence's scale: eigenstates._fraction_bits at the refiner's
    tolerance ||H||_inf 10^-(DPS + GUARD_DIGITS) of the chain."""
    band = build_parity_band(params, parity, TruncationConfig(n_max))
    return eig._fraction_bits(
        params, band_norm(band) * 10.0 ** -(eig.DPS + eig.GUARD_DIGITS))


def recurrence_blocks_reference(params, parity, xi, v0, n_max):
    """eigenstates._recurrence_blocks_mp in exact rationals, run to n_max
    without its stop.

    xi and the seed block v0 (floats or Fractions) are rounded to the scale
    2^-F of ``recurrence_bits``.  Block n + 1 solves rows 2n and 2n + 1 of
    (H - xi) v = 0, H from ``fixed_chain_rows``, exactly, and is rounded to
    the scale, ties to even.  Returns the blocks as int pairs at the
    scale.
    """
    bits = recurrence_bits(params, parity, n_max)
    rows = fixed_chain_rows(params, parity, n_max, bits)
    # in units of the scale: matrix entries and v in 2^-F, row sums in
    # 2^-2F, so block n + 1 solves M u = -(row sum over blocks n - 1, n)
    xi = fixed_point(xi, bits)
    v = [fixed_point(c, bits) for c in v0[:2]]
    for n in range(n_max):
        known, coef = [], []
        for i in (2 * n, 2 * n + 1):
            known.append(xi * v[i] - sum(val * v[c]
                                         for c, val in rows[i].items()
                                         if c < 2 * n + 2))
            coef.append((rows[i][2 * n + 2], rows[i][2 * n + 3]))
        (a, b), (c, d) = coef
        det = a * d - b * c
        v += [round(Fraction(known[0] * d - b * known[1], det)),
              round(Fraction(a * known[1] - c * known[0], det))]
    return list(zip(v[0::2], v[1::2]))


def cut_normalize_reference(blocks, n_max):
    """(v, cut_index) of eigenstates._cut_normalize from int blocks: the
    cut at the first block of least squared norm, and each kept entry over
    the integer square root of the kept prefix's squared norm, rounded once
    to a float through a Fraction."""
    squares = [p * p + q * q for p, q in blocks]
    if not any(squares):
        raise OverflowDetected("recurrence produced a null vector")
    cut = min(range(len(squares)), key=lambda i: squares[i])
    root = math.isqrt(sum(squares[:cut + 1]))
    out = np.zeros((n_max + 1, 2))
    for j in range(cut + 1):
        out[j] = [float(Fraction(c, root)) for c in blocks[j]]
    flat = out.ravel()
    return flat / np.linalg.norm(flat), cut


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
