import math

import numpy as np
import pytest
from scipy.linalg import expm

from rabi2q import numerics
from rabi2q.errors import ConvergenceFailure
from rabi2q.hamiltonian import build_parity_band, build_parity_matrix
from rabi2q.model import ModelParams, Parity, TruncationConfig
from rabi2q.numerics import (EigenDecomposition, band_matvec, band_norm,
                             displacement_element, eigh, eigh_banded_lowest,
                             general_band, laguerre_assoc, propagate_spectral)


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
    h = build_parity_matrix(ModelParams(1.3, 0.7, 0.0, 0.0),
                            Parity.EVEN, TruncationConfig(2))
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
    rng = np.random.default_rng(dim)
    band = random_band(rng, dim)
    h = dense_from_band(band)
    assert band_norm(band) == pytest.approx(np.max(np.abs(h).sum(axis=1)),
                                            rel=1e-15)
    full = general_band(band)
    assert full.shape == (10, dim)
    for i in range(dim):
        for j in range(max(i - 3, 0), min(i + 4, dim)):
            assert full[6 + i - j, j] == h[i, j]
            full[6 + i - j, j] = 0.0
    # everything else, the three fill rows included, is zero
    assert not np.any(full)


@pytest.mark.parametrize("dim,count", [(1, 1), (7, 3), (7, 7), (300, 28)])
def test_banded_lowest_matches_dense_on_random_bands(dim, count):
    rng = np.random.default_rng(dim)
    band = random_band(rng, dim)
    vals, vecs = eigh_banded_lowest(band, count)
    ref = eigh(dense_from_band(band))
    norm = np.max(np.abs(ref.values))
    assert vecs.shape == (dim, count)
    assert np.max(np.abs(vals - ref.values[:count])) <= 1e-12 * norm
    overlaps = np.abs(np.sum(vecs * ref.vectors[:, :count], axis=0))
    assert np.all(overlaps > 1 - 1e-10)


def test_banded_lowest_resolves_a_close_pair():
    # two levels 1e-7 apart: one cluster, but not a tie, so each level
    # keeps a vector of its own; without the Gram-Schmidt step their
    # overlap comes out near 2e-10 and fails the orthogonality check
    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    h = q @ np.diag([0.0, 1e-7, 1.0, 2.0, 3.0, 4.0]) @ q.T
    band = np.zeros((6, 6))
    for d in range(6):
        band[d, :6 - d] = np.diagonal(h, -d)
    vals, vecs = eigh_banded_lowest(band, 3)
    assert np.allclose(vals, [0.0, 1e-7, 1.0], atol=1e-13)
    assert np.max(np.abs(vecs.T @ vecs - np.eye(3))) < 1e-10
    pair = q[:, :2]
    assert np.max(np.abs(vecs[:, :2] @ vecs[:, :2].T - pair @ pair.T)) < 1e-8


def test_banded_lowest_rejects_tied_levels():
    band = np.zeros((4, 6))
    band[0] = [3.0, 1.0, 2.0, 1.0, 5.0, 4.0]
    # a tie with the first level above the requested ones counts too
    for count in (1, 3):
        with pytest.raises(ConvergenceFailure, match="tie"):
            eigh_banded_lowest(band, count)
    band[0, 3] = 1.5
    assert np.allclose(eigh_banded_lowest(band, 1).values, [1.0], atol=1e-15)


def test_banded_lowest_checks_can_fail(monkeypatch):
    band = build_parity_band(ModelParams(1.3, 0.7, 0.3, 0.4), Parity.EVEN,
                             TruncationConfig(30))
    eigh_banded_lowest(band, 10)
    with monkeypatch.context() as m:
        m.setattr(numerics, "RESIDUAL_TOL", 0.0)
        with pytest.raises(ConvergenceFailure, match="residual"):
            eigh_banded_lowest(band, 10)
    with monkeypatch.context() as m:
        m.setattr(numerics, "ORTHOGONALITY_TOL", 0.0)
        with pytest.raises(ConvergenceFailure, match="orthogonality"):
            eigh_banded_lowest(band, 10)


def test_banded_lowest_repeats_exactly():
    band = build_parity_band(ModelParams(1.3, 0.7, 0.3, 0.4), Parity.ODD,
                             TruncationConfig(40))
    a, b = eigh_banded_lowest(band, 12), eigh_banded_lowest(band, 12)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.vectors, b.vectors)


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
    for x in (-1.2, 0.0, 0.5, 2.0):
        assert displacement_element(0, 0, x) == pytest.approx(
            math.exp(-2 * x * x))
    assert displacement_element(1, 0, 0.5) == pytest.approx(math.exp(-0.5))


def displacement_oracle(dim=200):
    """<m| exp(2x(adag - a)) |n> by truncated matrix exponentiation."""
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)

    def element(m, n, x):
        return expm(2.0 * x * (a.T - a))[m, n]

    return element


def test_displacement_against_operator_exponential():
    oracle = displacement_oracle()
    for m, n, x in ((0, 0, 0.7), (1, 0, -0.4), (5, 2, 1.1), (2, 9, -1.8),
                    (12, 12, 2.2), (20, 15, 0.3)):
        assert displacement_element(m, n, x) == pytest.approx(
            oracle(m, n, x), abs=1e-10)


def test_displacement_unitarity_row():
    # summed to m = n + 40 the row mass closes to 1e-6 for |x| <= 1; for
    # larger displacements the exact operator itself carries real weight
    # past that cutoff, so the wide-range check uses a deeper sum
    for n in (0, 3, 11):
        for x in (0.4, -0.9, 1.0):
            total = sum(displacement_element(m, n, x) ** 2
                        for m in range(n + 41))
            assert total == pytest.approx(1.0, abs=1e-6)
        for x in (-1.3, 2.0):
            total = sum(displacement_element(m, n, x) ** 2
                        for m in range(300))
            assert total == pytest.approx(1.0, abs=1e-9)


def test_displacement_large_indices_finite():
    assert math.isfinite(displacement_element(120, 100, 1.5))


def test_propagate_identity_at_t0():
    rng = np.random.default_rng(0)
    h = rng.normal(size=(6, 6))
    h = h + h.T
    dec = eigh(h)
    c0 = rng.normal(size=6) + 1j * rng.normal(size=6)
    assert np.allclose(propagate_spectral(dec, c0, 0.0), c0, atol=1e-14)


def test_propagate_diagonal_phases():
    omega = np.array([0.3, 1.1, 2.4])
    dec = eigh(np.diag(omega))
    for k in range(3):
        c0 = np.zeros(3, dtype=complex)
        c0[k] = 1.0
        out = propagate_spectral(dec, c0, 1.7)
        assert out[k] == pytest.approx(np.exp(-1j * omega[k] * 1.7))


def test_propagate_unitarity_and_composition():
    rng = np.random.default_rng(5)
    h = rng.normal(size=(40, 40))
    h = h + h.T
    dec = eigh(h)
    c0 = rng.normal(size=40) + 1j * rng.normal(size=40)
    c0 /= np.linalg.norm(c0)
    for t in (0.3, 2.0, 17.5):
        assert np.linalg.norm(propagate_spectral(dec, c0, t)) == pytest.approx(
            1.0, abs=1e-10)
    ab = propagate_spectral(dec, propagate_spectral(dec, c0, 1.3), 0.9)
    assert np.linalg.norm(ab - propagate_spectral(dec, c0, 2.2)) < 1e-9


def test_propagate_time_array():
    rng = np.random.default_rng(9)
    h = rng.normal(size=(8, 8))
    h = h + h.T
    dec = eigh(h)
    c0 = rng.normal(size=8) + 0j
    times = np.array([0.0, 0.5, 1.5])
    batch = propagate_spectral(dec, c0, times)
    for i, t in enumerate(times):
        assert np.allclose(batch[:, i], propagate_spectral(dec, c0, t))


def test_eigen_decomposition_is_named():
    dec = eigh(np.eye(3))
    assert isinstance(dec, EigenDecomposition)
    assert dec.values.shape == (3,)
