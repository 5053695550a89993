import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rabi2q.hamiltonian import (build_parity_band, build_rwa_band,
                                build_rwa_excitation_block)
from rabi2q.model import (ModelParams, Parity, QubitLevel, TruncationConfig,
                          basis_table)
from rabi2q.numerics import expand_dense

from oracles import (build_parity_operator, chain_index_of,
                     excitation_number_operator, full_basis_index,
                     kronecker_reference)

G, E = QubitLevel.G, QubitLevel.E
P = ModelParams(1.3, 0.7, 0.3, 0.4)
T4 = TruncationConfig(4)


def diag_energy(params, n, q1, q2):
    """Free energy n + (sz1*omega_1 + sz2*omega_2)/2 of one state."""
    return n + 0.5 * (q1.sz * params.omega_1 + q2.sz * params.omega_2)


def printed_d(params, parity, j):
    """Diagonal entries of D_j, d-+ = j -+ [(-1)^j w1 +- w2]/2 (upper
    sign = even parity)."""
    sgn = 1 if parity is Parity.EVEN else -1
    bracket = ((-1) ** j * params.omega_1 + sgn * params.omega_2) / 2
    return [j - sgn * bracket, j + sgn * bracket]


def band_entry(builder, params, a, b):
    """<a|H|b> of two product states (n, q1, q2) of one parity, read from
    that chain's band builder(params, parity, T4)."""
    (parity, i), (other, j) = chain_index_of(*a), chain_index_of(*b)
    assert parity is other
    lo, hi = sorted((i, j))
    return builder(params, parity, T4)[hi - lo, lo]


def o_block(band, j):
    """O_j read back from the band: its entries [0, 0], [0, 1], [1, 0] and
    [1, 1] sit on diagonals 2, 3, 1 and 2 of columns r, r, r + 1, r + 1
    (r = 2j - 2)."""
    r = 2 * (j - 1)
    return np.array([[band[2, r], band[3, r]],
                     [band[1, r + 1], band[2, r + 1]]])


def test_even_j0_block():
    band = build_parity_band(P, Parity.EVEN, T4)
    assert band[0, :2].tolist() == [-1.0, 1.0]


def test_odd_j0_block():
    band = build_parity_band(P, Parity.ODD, T4)
    assert band[0, :2] == pytest.approx([0.3, -0.3], abs=1e-15)


def test_o1_block():
    for parity in Parity:
        band = build_parity_band(P, parity, T4)
        assert o_block(band, 1).tolist() == [[0.3, 0.4], [0.4, 0.3]]
        # O_j = sqrt(j) [[g1,g2],[g2,g1]]
        assert np.allclose(o_block(band, 3),
                           np.sqrt(3) * np.array([[0.3, 0.4], [0.4, 0.3]]))


def test_diagonal_formula_against_printed_form():
    for parity in Parity:
        band = build_parity_band(P, parity, T4)
        for j in range(5):
            assert band[0, 2 * j:2 * j + 2] == pytest.approx(
                printed_d(P, parity, j))


def test_expand_dense_single_block():
    band = np.zeros((4, 2))
    band[0] = [-1.0, 1.0]
    assert expand_dense(band).tolist() == [[-1.0, 0.0], [0.0, 1.0]]


def test_expand_dense_two_blocks():
    band = build_parity_band(P, Parity.EVEN, TruncationConfig(1))
    h = expand_dense(band)
    assert h.shape == (4, 4)
    assert np.array_equal(h[:2, :2], np.diag(band[0, :2]))
    assert np.array_equal(h[2:, 2:], np.diag(band[0, 2:]))
    assert np.array_equal(h[:2, 2:], o_block(band, 1))


@pytest.mark.parametrize("n_max", [0, 1, 4, 9])
def test_lower_band_holds_the_lower_triangle(n_max):
    p = ModelParams(1.3, 0.7, 0.3, -0.4)
    # reference: the printed D_j and O_j written out entry by entry
    h = np.diag(np.concatenate([printed_d(p, Parity.ODD, j)
                                for j in range(n_max + 1)]))
    coupling = np.array([[p.g_1, p.g_2], [p.g_2, p.g_1]])
    for j in range(1, n_max + 1):
        r = 2 * (j - 1)
        h[r:r + 2, r + 2:r + 4] = np.sqrt(j) * coupling
        h[r + 2:r + 4, r:r + 2] = np.sqrt(j) * coupling.T
    if n_max == 0:      # below the smallest cutoff: a hand-made band
        band = np.zeros((4, 2))
        band[0] = np.diagonal(h)
    else:
        band = build_parity_band(p, Parity.ODD, TruncationConfig(n_max))
    dim = h.shape[0]
    assert band.shape == (4, dim)
    for d in range(4):
        assert np.max(np.abs(band[d, :max(dim - d, 0)]
                             - np.diagonal(h, -d)), initial=0.0) <= 1e-15
        assert not np.any(band[d, dim - d:])
    assert not np.any(np.tril(h, -4))
    assert np.max(np.abs(expand_dense(band) - h)) <= 1e-15


def test_expand_dense_exactly_symmetric():
    rng = np.random.default_rng(3)
    for _ in range(5):
        p = ModelParams(rng.uniform(0, 2), rng.uniform(0, 2),
                        rng.uniform(-1, 1), rng.uniform(-1, 1))
        for parity in Parity:
            h = expand_dense(build_parity_band(p, parity, T4))
            assert np.array_equal(h, h.T)


def test_full_decoupled_is_diagonal_ladder():
    p0 = ModelParams(1.3, 0.7, 0.0, 0.0)
    for parity in Parity:
        assert not np.any(build_parity_band(p0, parity, T4)[1:])
    for n in range(5):
        for q1 in (E, G):
            for q2 in (E, G):
                state = (n, q1, q2)
                assert (band_entry(build_parity_band, p0, state, state)
                        == diag_energy(p0, n, q1, q2))


def test_full_single_photon_coupling_element():
    # the coupling flips exactly one qubit while moving one photon:
    # <0,e,g|H|1,e,e> = g2 (sigma_x on qubit 2)
    assert band_entry(build_parity_band, P, (0, E, G), (1, E, E)) == P.g_2
    assert band_entry(build_parity_band, P, (0, E, G), (1, G, G)) == P.g_1
    # equal qubit states one photon apart are parity-forbidden: they sit
    # on different chains
    assert (chain_index_of(0, E, G).parity
            is not chain_index_of(1, E, G).parity)


def test_parity_operator_entries_and_involution():
    pi = build_parity_operator(T4)
    assert pi[full_basis_index(0, G, G), full_basis_index(0, G, G)] == 1.0
    assert pi[full_basis_index(1, G, G), full_basis_index(1, G, G)] == -1.0
    assert np.array_equal(pi @ pi, np.eye(T4.full_dim))


def test_parity_commutes_exactly():
    h = kronecker_reference(P, T4)
    pi = build_parity_operator(T4)
    assert np.max(np.abs(pi @ h - h @ pi)) == 0.0


def test_block_permutation_reproduces_parity_matrices_entrywise():
    # the Kronecker matrix's diagonal sqrt(n)**2 may miss n by an ulp
    h = kronecker_reference(P, T4)
    even_idx = basis_table(T4).full_index[Parity.EVEN]
    odd_idx = basis_table(T4).full_index[Parity.ODD]
    for parity, idx in ((Parity.EVEN, even_idx), (Parity.ODD, odd_idx)):
        chain = expand_dense(build_parity_band(P, parity, T4))
        assert (np.max(np.abs(h[np.ix_(idx, idx)] - chain))
                <= 1e-15 * np.max(np.abs(chain)))
    assert not np.any(h[np.ix_(even_idx, odd_idx)])


def test_rwa_rotating_term_and_counter_rotating_removed():
    h_rwa = kronecker_reference(P, T4, rwa=True)
    h = kronecker_reference(P, T4)
    assert h_rwa[full_basis_index(0, E, G), full_basis_index(1, G, G)] == P.g_1
    # counter-rotating: photon and excitation both raised
    i, j = full_basis_index(1, E, E), full_basis_index(0, E, G)
    assert h_rwa[i, j] == 0.0
    assert h[i, j] == P.g_2
    # the same two entries read from the odd-chain bands
    assert band_entry(build_rwa_band, P, (0, E, G), (1, G, G)) == P.g_1
    assert band_entry(build_rwa_band, P, (1, E, E), (0, E, G)) == 0.0
    assert band_entry(build_parity_band, P, (1, E, E), (0, E, G)) == P.g_2


def test_rwa_equals_full_when_decoupled():
    p0 = ModelParams(1.3, 0.7, 0.0, 0.0)
    assert np.array_equal(kronecker_reference(p0, T4, rwa=True),
                          kronecker_reference(p0, T4))
    for parity in Parity:
        assert np.array_equal(build_rwa_band(p0, parity, T4),
                              build_parity_band(p0, parity, T4))


def test_rwa_conserves_excitation_number_exactly():
    h_rwa = kronecker_reference(P, T4, rwa=True)
    n_op = excitation_number_operator(T4)
    assert np.max(np.abs(h_rwa @ n_op - n_op @ h_rwa)) == 0.0
    # every coupling left in an RWA band joins equal excitation numbers
    table = basis_table(T4)
    for parity in Parity:
        n_exc = table.excitation[table.full_index[parity]]
        band = build_rwa_band(P, parity, T4)
        assert np.any(band[1:])
        for d in range(1, 4):
            kept = np.flatnonzero(band[d, :-d])
            assert np.array_equal(n_exc[kept], n_exc[kept + d])


def test_rwa_block_ground_sector():
    blk = build_rwa_excitation_block(P, 0)
    d1 = 0.5 * (P.omega_1 - 1.0)
    d2 = 0.5 * (P.omega_2 - 1.0)
    assert blk.matrix.shape == (1, 1)
    assert blk.matrix[0, 0] == pytest.approx(-d1 - d2)
    assert blk.basis == ((0, G, G),)


def test_rwa_block_one_excitation_sector_is_3x3():
    blk = build_rwa_excitation_block(P, 1)
    assert blk.matrix.shape == (3, 3)
    assert blk.basis == ((0, E, G), (0, G, E), (1, G, G))


def test_rwa_block_spectrum_symmetric_at_zero_detuning():
    p = ModelParams(1.0, 1.0, 1.0, 1.0)
    blk = build_rwa_excitation_block(p, 2)
    vals = np.linalg.eigvalsh(blk.matrix)
    assert np.trace(blk.matrix) == 0.0
    assert np.allclose(vals, -vals[::-1], atol=1e-12)


def test_rwa_block_matches_full_rwa_sector():
    # restricting the lab-frame RWA matrix to one excitation sector must
    # reproduce the block up to the rotating-frame offset N - 1
    trunc = TruncationConfig(12)
    h_rwa = kronecker_reference(P, trunc, rwa=True)
    for sector in (0, 1, 2, 5, 9):
        blk = build_rwa_excitation_block(P, sector)
        idx = [full_basis_index(*s) for s in blk.basis]
        # the sector's full-basis rows, ascending, are the block.basis order
        assert np.flatnonzero(
            basis_table(trunc).excitation == sector).tolist() == idx
        sub = h_rwa[np.ix_(idx, idx)]
        offset = sector - 1
        assert np.allclose(sub, blk.matrix + offset * np.eye(len(idx)),
                           atol=1e-12)


def test_rwa_block_negative_sector_rejected():
    with pytest.raises(ValueError):
        build_rwa_excitation_block(P, -1)


FREQ = st.one_of(st.just(0.0), st.floats(0.0, 3.0))


@settings(max_examples=40, deadline=None)
@given(n_max=st.integers(1, 12), omega_1=FREQ, omega_2=FREQ,
       g_1=st.floats(-2.0, 2.0), g_2=st.floats(-2.0, 2.0),
       tie=st.sampled_from([None, 1.0, -1.0]))
@example(n_max=6, omega_1=0.0, omega_2=0.9, g_1=0.5, g_2=0.0, tie=-1.0)
@example(n_max=5, omega_1=1.3, omega_2=0.0, g_1=0.3, g_2=0.0, tie=1.0)
def test_full_and_rwa_match_kronecker_reference(n_max, omega_1, omega_2,
                                                g_1, g_2, tie):
    # each chain band, full and RWA, holds the Kronecker matrix restricted
    # to that chain's rows; nothing joins the two chains
    p = ModelParams(omega_1, omega_2, g_1, g_2 if tie is None else tie * g_1)
    trunc = TruncationConfig(n_max)
    full_index = basis_table(trunc).full_index
    cross = np.ix_(full_index[Parity.EVEN], full_index[Parity.ODD])
    for rwa, builder in ((False, build_parity_band), (True, build_rwa_band)):
        kron = kronecker_reference(p, trunc, rwa=rwa)
        assert not np.any(kron[cross])
        for parity in Parity:
            idx = full_index[parity]
            chain = kron[np.ix_(idx, idx)]
            band = builder(p, parity, trunc)
            dim = trunc.chain_dim
            for d in range(4):
                assert np.max(np.abs(band[d, :dim - d]
                                     - np.diagonal(chain, -d))) <= 1e-12
                assert not np.any(band[d, dim - d:])
            assert not np.any(np.tril(chain, -4))
