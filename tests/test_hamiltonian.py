import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rabi2q.hamiltonian import (BlockTridiagonal, build_full,
                                build_parity_blocks, build_parity_matrix,
                                build_rwa_excitation_block, build_rwa_full,
                                expand_dense)
from rabi2q.model import (ModelParams, Parity, QubitLevel, TruncationConfig,
                          basis_table)

from oracles import (build_parity_operator, excitation_number_operator,
                     full_basis_index)

G, E = QubitLevel.G, QubitLevel.E
P = ModelParams(1.3, 0.7, 0.3, 0.4)
T4 = TruncationConfig(4)


def diag_energy(params, n, q1, q2):
    """Free energy n*omega_f + (sz1*omega_1 + sz2*omega_2)/2 of one state."""
    return n * params.omega_f + 0.5 * (q1.sz * params.omega_1
                                       + q2.sz * params.omega_2)


def test_even_j0_block():
    blocks = build_parity_blocks(P, Parity.EVEN, T4)
    assert blocks.d_blocks[0].tolist() == [-1.0, 1.0]


def test_odd_j0_block():
    blocks = build_parity_blocks(P, Parity.ODD, T4)
    assert blocks.d_blocks[0] == pytest.approx([0.3, -0.3], abs=1e-15)


def test_o1_block():
    for parity in Parity:
        blocks = build_parity_blocks(P, parity, T4)
        assert blocks.o_blocks[0].tolist() == [[0.3, 0.4], [0.4, 0.3]]
        # O_j = sqrt(j) [[g1,g2],[g2,g1]]
        assert np.allclose(blocks.o_blocks[2],
                           np.sqrt(3) * np.array([[0.3, 0.4], [0.4, 0.3]]))


def test_diagonal_formula_against_printed_form():
    # d+- = j wf -+ [(-1)^j w1 +- w2]/2 (upper sign = even parity)
    for parity, sgn in ((Parity.EVEN, 1), (Parity.ODD, -1)):
        blocks = build_parity_blocks(P, parity, T4)
        for j in range(5):
            bracket = ((-1) ** j * P.omega_1 + sgn * P.omega_2) / 2
            assert blocks.d_blocks[j, 0] == pytest.approx(j - sgn * bracket)
            assert blocks.d_blocks[j, 1] == pytest.approx(j + sgn * bracket)


def test_expand_dense_single_block():
    single = BlockTridiagonal(Parity.EVEN, np.array([[-1.0, 1.0]]),
                              np.zeros((0, 2, 2)))
    assert expand_dense(single).tolist() == [[-1.0, 0.0], [0.0, 1.0]]


def test_expand_dense_two_blocks():
    t1 = TruncationConfig(1)
    blocks = build_parity_blocks(P, Parity.EVEN, t1)
    h = expand_dense(blocks)
    assert h.shape == (4, 4)
    assert np.array_equal(h[:2, :2], np.diag(blocks.d_blocks[0]))
    assert np.array_equal(h[2:, 2:], np.diag(blocks.d_blocks[1]))
    assert np.array_equal(h[:2, 2:], blocks.o_blocks[0])


@pytest.mark.parametrize("n_max", [0, 1, 4, 9])
def test_lower_band_holds_the_lower_triangle(n_max):
    if n_max == 0:
        blocks = BlockTridiagonal(Parity.ODD, np.array([[-1.0, 1.0]]),
                                  np.zeros((0, 2, 2)))
    else:
        blocks = build_parity_blocks(ModelParams(1.3, 0.7, 0.3, -0.4),
                                     Parity.ODD, TruncationConfig(n_max))
    band = blocks.lower_band()
    dim = blocks.dim
    # reference: the block layout written out entry by entry
    h = np.diag(blocks.d_blocks.ravel())
    for j in range(1, n_max + 1):
        r = 2 * (j - 1)
        h[r:r + 2, r + 2:r + 4] = blocks.o_blocks[j - 1]
        h[r + 2:r + 4, r:r + 2] = blocks.o_blocks[j - 1].T
    assert band.shape == (4, dim)
    for d in range(4):
        assert np.array_equal(band[d, :max(dim - d, 0)], np.diagonal(h, -d))
        assert not np.any(band[d, dim - d:])
    assert not np.any(np.tril(h, -4))
    assert np.array_equal(expand_dense(blocks), h)


def test_expand_dense_exactly_symmetric():
    rng = np.random.default_rng(3)
    for _ in range(5):
        p = ModelParams(rng.uniform(0, 2), rng.uniform(0, 2),
                        rng.uniform(-1, 1), rng.uniform(-1, 1))
        for parity in Parity:
            h = build_parity_matrix(p, parity, T4)
            assert np.array_equal(h, h.T)


def test_full_decoupled_is_diagonal_ladder():
    p0 = ModelParams(1.3, 0.7, 0.0, 0.0)
    h = build_full(p0, T4)
    assert np.count_nonzero(h - np.diag(np.diagonal(h))) == 0
    for n in range(5):
        for q1 in (E, G):
            for q2 in (E, G):
                i = full_basis_index(n, q1, q2)
                assert h[i, i] == diag_energy(p0, n, q1, q2)


def test_full_single_photon_coupling_element():
    # the coupling flips exactly one qubit while moving one photon:
    # <0,e,g|H|1,e,e> = g2 (sigma_x on qubit 2)
    h = build_full(P, T4)
    assert h[full_basis_index(0, E, G), full_basis_index(1, E, E)] == P.g_2
    assert h[full_basis_index(0, E, G), full_basis_index(1, G, G)] == P.g_1
    # equal qubit states one photon apart are parity-forbidden
    assert h[full_basis_index(0, E, G), full_basis_index(1, E, G)] == 0.0


def test_parity_operator_entries_and_involution():
    pi = build_parity_operator(T4)
    assert pi[full_basis_index(0, G, G), full_basis_index(0, G, G)] == 1.0
    assert pi[full_basis_index(1, G, G), full_basis_index(1, G, G)] == -1.0
    assert np.array_equal(pi @ pi, np.eye(T4.full_dim))


def test_parity_commutes_exactly():
    h = build_full(P, T4)
    pi = build_parity_operator(T4)
    assert np.max(np.abs(pi @ h - h @ pi)) == 0.0


def test_block_permutation_reproduces_parity_matrices_entrywise():
    h = build_full(P, T4)
    even_idx = basis_table(T4).full_index[Parity.EVEN]
    odd_idx = basis_table(T4).full_index[Parity.ODD]
    assert np.array_equal(h[np.ix_(even_idx, even_idx)],
                          build_parity_matrix(P, Parity.EVEN, T4))
    assert np.array_equal(h[np.ix_(odd_idx, odd_idx)],
                          build_parity_matrix(P, Parity.ODD, T4))
    assert np.max(np.abs(h[np.ix_(even_idx, odd_idx)])) == 0.0


def test_rwa_rotating_term_and_counter_rotating_removed():
    h_rwa = build_rwa_full(P, T4)
    h = build_full(P, T4)
    assert h_rwa[full_basis_index(0, E, G), full_basis_index(1, G, G)] == P.g_1
    # counter-rotating: photon and excitation both raised
    i, j = full_basis_index(1, E, E), full_basis_index(0, E, G)
    assert h_rwa[i, j] == 0.0
    assert h[i, j] == P.g_2


def test_rwa_equals_full_when_decoupled():
    p0 = ModelParams(1.3, 0.7, 0.0, 0.0)
    assert np.array_equal(build_rwa_full(p0, T4), build_full(p0, T4))


def test_rwa_conserves_excitation_number_exactly():
    h_rwa = build_rwa_full(P, T4)
    n_op = excitation_number_operator(T4)
    assert np.max(np.abs(h_rwa @ n_op - n_op @ h_rwa)) == 0.0


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
    # reproduce the block up to the rotating-frame offset omega_f (N - 1)
    trunc = TruncationConfig(12)
    h_rwa = build_rwa_full(P, trunc)
    for sector in (0, 1, 2, 5, 9):
        blk = build_rwa_excitation_block(P, sector)
        idx = [full_basis_index(*s) for s in blk.basis]
        # the sector's full-basis rows, ascending, are the block.basis order
        assert np.flatnonzero(
            basis_table(trunc).excitation == sector).tolist() == idx
        sub = h_rwa[np.ix_(idx, idx)]
        offset = P.omega_f * (sector - 1)
        assert np.allclose(sub, blk.matrix + offset * np.eye(len(idx)),
                           atol=1e-12)


def test_rwa_block_negative_sector_rejected():
    with pytest.raises(ValueError):
        build_rwa_excitation_block(P, -1)


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


FREQ = st.one_of(st.just(0.0), st.floats(0.0, 3.0))


@settings(max_examples=40, deadline=None)
@given(n_max=st.integers(1, 12), omega_1=FREQ, omega_2=FREQ,
       g_1=st.floats(-2.0, 2.0), g_2=st.floats(-2.0, 2.0),
       tie=st.sampled_from([None, 1.0, -1.0]),
       omega_f=st.one_of(st.just(1.0), st.floats(0.25, 4.0)))
@example(n_max=6, omega_1=0.0, omega_2=0.9, g_1=0.5, g_2=0.0, tie=-1.0,
         omega_f=1.7)
@example(n_max=5, omega_1=1.3, omega_2=0.0, g_1=0.3, g_2=0.0, tie=1.0,
         omega_f=1.0)
def test_full_and_rwa_match_kronecker_reference(n_max, omega_1, omega_2,
                                                g_1, g_2, tie, omega_f):
    p = ModelParams(omega_1, omega_2, g_1, g_2 if tie is None else tie * g_1,
                    omega_f)
    trunc = TruncationConfig(n_max)
    assert np.max(np.abs(build_full(p, trunc)
                         - kronecker_reference(p, trunc))) <= 1e-12
    assert np.max(np.abs(build_rwa_full(p, trunc)
                         - kronecker_reference(p, trunc, rwa=True))) <= 1e-12
