import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm

from rabi2q import numerics
from rabi2q.hamiltonian import build_parity_band
from rabi2q.model import ModelParams, Parity, TruncationConfig
from rabi2q.numerics import (EigenDecomposition, band_matvec, band_norm,
                             displacement_elements,
                             eigh, expand_dense, laguerre_assoc,
                             photon_windows, spectral_levels)

from oracles import displacement_reference


def test_eigh_diagonal():
    vals, _ = eigh(np.diag([3.0, 1.0, 2.0]))
    assert vals.tolist() == [1.0, 2.0, 3.0]


def test_eigh_pauli_x():
    vals, vecs = eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(vals, [-1.0, 1.0])
    s = 1 / np.sqrt(2)
    for col, ref in ((vecs[:, 0], np.array([s, -s])),
                     (vecs[:, 1], np.array([s, s]))):
        assert min(np.max(np.abs(col - ref)),
                   np.max(np.abs(col + ref))) < 1e-12


def test_eigh_decoupled_chain_contains_ground():
    h = expand_dense(build_parity_band(ModelParams(1.3, 0.7, 0.0, 0.0),
                                       Parity.EVEN, TruncationConfig(2)))
    vals, _ = eigh(h)
    assert np.min(np.abs(vals - (-1.0))) < 1e-14


@pytest.mark.parametrize("order", [12, 150, 1600])
def test_eigh_reconstruction_and_orthonormality(order):
    rng = np.random.default_rng(order)
    a = rng.normal(size=(order, order))
    h = a + a.T
    vals, vecs = eigh(h)
    scale = np.max(np.abs(h))
    assert np.max(np.abs(vecs @ np.diag(vals) @ vecs.T - h)) <= 1e-10 * scale
    assert np.max(np.abs(vecs.T @ vecs - np.eye(order))) <= 1e-12
    assert np.all(np.diff(vals) >= 0)


def test_eigh_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def random_band(rng, dim, kd=3):
    band = rng.normal(size=(kd + 1, dim))
    for d in range(1, kd + 1):
        band[d, dim - d:] = 0.0
    return band


def dense_from_band(band):
    dim = band.shape[1]
    h = np.zeros((dim, dim))
    for d in range(band.shape[0]):
        for c in range(dim - d):
            h[c + d, c] = h[c, c + d] = band[d, c]
    return h


def test_band_matvec_matches_dense():
    rng = np.random.default_rng(5)
    band = random_band(rng, 9)
    x = rng.normal(size=(9, 3))
    assert np.allclose(band_matvec(band, x), dense_from_band(band) @ x,
                       atol=1e-14)


@pytest.mark.parametrize("dim", [1, 2, 9])
def test_band_norm_and_general_band_match_dense(dim):
    # a general lower band of three off-diagonals, not the chain's pattern,
    # narrower than, as wide as and wider than its band: its norm and its
    # dense expansion against the matrix built entry by entry
    rng = np.random.default_rng(dim)
    band = random_band(rng, dim)
    h = dense_from_band(band)
    assert band_norm(band) == pytest.approx(np.max(np.abs(h).sum(axis=1)),
                                            rel=1e-15)
    assert np.array_equal(expand_dense(band), h)


def test_photon_windows_solve_leading_blocks_up_to_the_callers_limit():
    # 50 rows: from 3 photons the ladder widens to 5, 8, 13 and 20 photons;
    # with half the chain as the limit it stops before 13, whose 28 rows
    # would pass it, and with the last window short of the whole chain
    # before 31, whose 64 rows would pass the chain itself
    band = random_band(np.random.default_rng(7), 50)
    h = dense_from_band(band)
    for limit, dims in ((25, [8, 12, 18]), (49, [8, 12, 18, 28, 42])):
        windows = list(photon_windows(band, 3, limit))
        assert [rows for rows, _ in windows] == dims
        for rows, (vals, vecs) in windows:
            ref = eigh(h[:rows, :rows])
            assert np.array_equal(vals, ref.values)
            assert np.array_equal(vecs, ref.vectors)
    assert list(photon_windows(band, 12, 25)) == []
    assert [rows for rows, _ in photon_windows(band, 12, 49)] == [26, 40]


def test_photon_windows_free_a_dropped_window_before_the_next_solve(
        monkeypatch):
    band = random_band(np.random.default_rng(3), 40)
    held, alive = [], []

    def spy(h):
        alive.append(any(ref() is not None for ref in held))
        return eigh(h)

    monkeypatch.setattr(numerics, "eigh", spy)
    for _, decomp in photon_windows(band, 0, 20):
        held.append(weakref.ref(decomp.vectors))
        del decomp
    assert len(alive) == 5 and not any(alive)


def laguerre_sum(n, k, z):
    """Explicit polynomial sum in exact rational arithmetic.

    The alternating sum cancels catastrophically in floats for large z, so
    the oracle works on Fraction(z) (binary floats are exact rationals).
    """
    from fractions import Fraction
    zf = Fraction(z)
    total = sum(Fraction((-1) ** i * math.comb(n + k, n - i),
                         math.factorial(i)) * zf ** i
                for i in range(n + 1))
    return float(total)


def test_laguerre_base_cases():
    for k in (0, 1, 7):
        for z in (0.0, 0.3, 2.5):
            assert laguerre_assoc(0, k, z) == 1.0
    for z in (0.0, 0.4, 1.9):
        assert laguerre_assoc(1, 0, z) == pytest.approx(1.0 - z)


def test_laguerre_matches_polynomial_sum():
    for n in range(31):
        for k in (0, 1, 3, 10):
            for z in (0.0, 0.5, 1.7, 8.0):
                ref = laguerre_sum(n, k, z)
                got = laguerre_assoc(n, k, z)
                assert got == pytest.approx(ref, rel=1e-10, abs=1e-300)


def test_laguerre_l2_1_value():
    assert laguerre_assoc(2, 1, 0.5) == pytest.approx(laguerre_sum(2, 1, 0.5))


def test_displacement_simple_values():
    # <0|D(2x)|0> = exp(-2 x^2) and <1|D(2x)|0> = 2x exp(-2 x^2)
    for x in (-1.2, 0.0, 0.5, 2.0):
        table = displacement_elements(np.arange(2)[:, None], np.arange(2), x)
        assert table[0, 0] == pytest.approx(math.exp(-2 * x * x))
        assert table[1, 0] == pytest.approx(2 * x * math.exp(-2 * x * x))


def test_displacement_against_operator_exponential():
    # each table <m|exp(2x(adag - a))|n>, m, n up to the case's indices,
    # against truncated matrix exponentiation
    a = np.diag(np.sqrt(np.arange(1.0, 200)), 1)
    for m, n, x in ((0, 0, 0.7), (1, 0, -0.4), (5, 2, 1.1), (2, 9, -1.8),
                    (12, 12, 2.2), (20, 15, 0.3)):
        table = displacement_elements(np.arange(m + 1)[:, None],
                                      np.arange(n + 1), x)
        want = expm(2.0 * x * (a.T - a))[:m + 1, :n + 1]
        assert np.max(np.abs(table - want)) <= 1e-10


def test_displacement_unitarity_row():
    # summed to m = n + 40 the row mass closes to 1e-6 for |x| <= 1; for
    # larger displacements the exact operator itself carries real weight
    # past that cutoff, so the wide-range check uses a deeper sum
    for n in (0, 3, 11):
        for x in (0.4, -0.9, 1.0):
            column = displacement_elements(np.arange(n + 41), n, x)
            assert np.sum(column ** 2) == pytest.approx(1.0, abs=1e-6)
        for x in (-1.3, 2.0):
            column = displacement_elements(np.arange(300), n, x)
            assert np.sum(column ** 2) == pytest.approx(1.0, abs=1e-9)
    # far out, rows m <= 20 on the levels of a perturbative table, n < W =
    # ceil((2|x| + sqrt(20) + 4)^2), hold their unit norm to the table's
    # check, 1e-12 and 4 eps W ln W of rounding: with (2x)^(m-n) outside
    # the logs, row 11 summed to 0.766 at x = 7
    for x in (7.0, -9.5, 13.0, -16.25, 20.0):
        width = math.ceil((2 * abs(x) + math.sqrt(20) + 4) ** 2)
        rows = displacement_elements(np.arange(21)[:, None],
                                     np.arange(width), x)
        tol = 1e-12 + 4 * np.finfo(float).eps * width * math.log(width)
        assert np.max(np.abs(1 - np.sum(rows ** 2, axis=1))) <= tol


def test_displacement_large_indices_finite():
    table = displacement_elements(np.arange(121)[:, None], np.arange(101),
                                  1.5)
    assert np.isfinite(table).all()


def test_displacement_far_displacement_is_zero():
    # at x = 1e200 the Gaussian factor is 0 and (2x)^(m - n) would overflow,
    # and at x = 1.7e308 so would 2x
    rows, cols = np.array([3, 1, 81, 0]), np.array([1, 3, 0, 0])
    for x in (1e200, -1e200, 1.7e308, -1.7e308):
        assert displacement_elements(rows, cols, x).tolist() == [0.0] * 4


def test_displacement_large_power_with_live_gaussian():
    # (2x)^245 passes the float range on its own, while the element, a
    # matrix element of a unitary, stays below 1
    table = displacement_elements(np.array([[245], [0]]), np.array([0, 245]),
                                  9.38)
    value = table[0, 0]
    assert math.isfinite(value) and 0.0 < abs(value) <= 1.0
    assert table[1, 1] == -value


@settings(max_examples=40, deadline=None)
@given(x=st.one_of(st.floats(-25.0, 25.0),
                   st.sampled_from([0.0, 200.0, -250.0, 1e200, 9.38])),
       rows=st.lists(st.integers(0, 300), min_size=1, max_size=10),
       cols=st.lists(st.integers(0, 300), min_size=1, max_size=30))
# (2x)^245 past the float range, both ways round, next to small indices
@example(x=9.38, rows=[245, 0, 3], cols=[0, 245, 1, 2])
@example(x=-9.38, rows=[0, 244, 245], cols=[245, 0, 1])
def test_displacement_table_is_the_scalar_formula_bit_for_bit(x, rows,
                                                              cols):
    # every entry of a table equals the scalar formula in Python floats,
    # signed zeros included: the exponential of the logs comes from libm as
    # there
    got = displacement_elements(np.array(rows)[:, None], np.array(cols), x)
    want = np.array([[displacement_reference(m, n, x) for n in cols]
                     for m in rows])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("seed", range(4))
def test_propagate_skips_only_negligible_levels(seed):
    # levels whose projections weigh at most 1e-30 ||c0||^2 together are
    # not propagated; the result stays within 1e-15 ||c0|| of propagating
    # every level, for a state spread over weights 1e-40..1 and for a
    # state on one level
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(60, 60))
    dec = eigh(h + h.T)
    times = np.linspace(0.0, 50.0, 11)
    coeff = 10.0 ** rng.uniform(-20.0, 0.0, size=60) * np.exp(
        2j * np.pi * rng.uniform(size=60))
    single = np.zeros(60, dtype=complex)
    single[seed] = 3.0
    for c in (coeff, single):
        c0 = dec.vectors @ c
        proj = dec.vectors.T @ c0
        every = dec.vectors @ (np.exp(-1j * np.outer(dec.values, times))
                               * proj[:, None])
        bound = 1e-15 * np.linalg.norm(c0) + 1e-13
        values, vectors, kept, _ = spectral_levels(dec, c0)
        assert len(values) < 60
        got = vectors @ (np.exp(-1j * np.outer(values, times))
                         * kept[:, None])
        assert np.max(np.linalg.norm(got - every, axis=0)) <= bound


def test_spectral_levels_budget_is_inclusive():
    # weight exactly at DROP_WEIGHT ||c0||^2 is within the budget: past at
    # the budget still propagates, and a level of zero weight is then still
    # dropped; one ulp more past weight returns None
    dec = eigh(np.diag([0.0, 1.0]))
    c0 = np.array([1.0, 0.0], dtype=complex)
    certified = np.array([True, True])
    values, _, _, past = spectral_levels(dec, c0, certified,
                                         numerics.DROP_WEIGHT)
    assert values.tolist() == [0.0] and past == numerics.DROP_WEIGHT
    assert spectral_levels(dec, c0, certified,
                           np.nextafter(numerics.DROP_WEIGHT, 1.0)) is None


def test_eigh_solves_a_stack():
    rng = np.random.default_rng(4)
    h = rng.normal(size=(5, 3, 3))
    h = h + np.swapaxes(h, -1, -2)
    vals, vecs = eigh(h)
    assert vals.shape == (5, 3) and vecs.shape == (5, 3, 3)
    for k in range(5):
        single = eigh(h[k])
        assert np.array_equal(vals[k], single.values)
        assert np.array_equal(vecs[k], single.vectors)
    h[2, 0, 1] += 1.0
    with pytest.raises(ValueError, match="not symmetric"):
        eigh(h)
    with pytest.raises(ValueError, match="square"):
        eigh(np.zeros((2, 3)))


def test_eigen_decomposition_is_named():
    dec = eigh(np.eye(3))
    assert isinstance(dec, EigenDecomposition)
    assert dec.values.shape == (3,)
