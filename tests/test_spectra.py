import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rabi2q import spectra
from rabi2q.errors import SmallDenominator, TruncationInsufficient
from rabi2q.hamiltonian import build_parity_matrix
from rabi2q.model import ModelParams, Parity, TruncationConfig
from rabi2q.numerics import eigh, eigh_banded_lowest
from rabi2q.spectra import (CrossingKind, SpectrumSweep,
                            converged_parity_eigensystem, detect_crossings,
                            doubling_check, dsc_perturbative_spectrum,
                            rwa_relative_error, sweep_spectrum)

from oracles import G_CROSS, chain_state

TEMPLATE = ModelParams(1.3, 0.7, 0.0, 0.0)


def test_single_point_matches_direct_diagonalization():
    trunc = TruncationConfig(60)
    sweep = sweep_spectrum(TEMPLATE, [0.3], [0.4], trunc, k=8)
    p = ModelParams(1.3, 0.7, 0.3, 0.4)
    for parity in Parity:
        vals, _ = eigh(build_parity_matrix(p, parity, trunc))
        assert np.allclose(sweep.energies[parity][0], vals[:8], atol=1e-12)


def test_decoupled_point_gives_bare_ladder_by_parity():
    trunc = TruncationConfig(40)
    sweep = sweep_spectrum(TEMPLATE, [0.0], [0.0], trunc, k=6)
    expected = {Parity.EVEN: [], Parity.ODD: []}
    for parity in Parity:
        for j in range(trunc.chain_dim):
            n, q1, q2 = chain_state(parity, j)
            expected[parity].append(n + (q1.sz * 1.3 + q2.sz * 0.7) / 2)
    for parity in Parity:
        ref = np.sort(expected[parity])[:6]
        assert np.allclose(sweep.energies[parity][0], ref, atol=1e-12)


def test_sweep_continuity():
    trunc = TruncationConfig(80)
    gs = np.arange(0.3, 0.4001, 0.01)
    sweep = sweep_spectrum(TEMPLATE, gs, gs, trunc, k=10)
    for parity in Parity:
        e = sweep.energies[parity]
        jumps = np.abs(np.diff(e, axis=0))
        slope = np.max(jumps) / 0.01
        assert np.max(jumps) <= 10 * 0.01 * max(slope, 1e-12)


def test_sweep_raises_when_unconverged():
    with pytest.raises(TruncationInsufficient):
        sweep_spectrum(TEMPLATE, [3.0], [3.0], TruncationConfig(10), k=10)


def _toy_sweep(delta):
    """Two-level model [[g, delta], [delta, -g]] swept through g = 0."""
    gs = np.linspace(-0.5, 0.5, 21)
    energies, vectors = [], []
    for g in gs:
        vals, vecs = np.linalg.eigh(np.array([[g, delta], [delta, -g]]))
        energies.append(vals)
        vectors.append(vecs)
    return SpectrumSweep(TEMPLATE, TruncationConfig(1), 2, gs, gs,
                         {Parity.EVEN: np.array(energies),
                          Parity.ODD: np.array(energies)},
                         {Parity.EVEN: vectors, Parity.ODD: vectors})


def test_avoided_crossing_classified():
    sweep = _toy_sweep(delta=0.08)
    records = detect_crossings(sweep, Parity.EVEN, gap_tol=0.2,
                               overlap_tol=0.1)
    assert len(records) == 1
    assert records[0].kind is CrossingKind.AVOIDED_OR_UNRESOLVED


def test_true_crossing_classified():
    # vanishing coupling: the two levels pass through each other
    sweep = _toy_sweep(delta=1e-9)
    records = detect_crossings(sweep, Parity.EVEN, gap_tol=0.2,
                               overlap_tol=0.1)
    assert len(records) == 1
    assert records[0].kind is CrossingKind.CROSSING
    assert records[0].g_lo < 0 < records[0].g_hi


def test_no_crossing_reported_for_identity_continuation():
    # parallel branches: gap dips nowhere near tol
    sweep = _toy_sweep(delta=0.5)
    assert detect_crossings(sweep, Parity.EVEN, gap_tol=0.2,
                            overlap_tol=0.1) == []


def test_identical_qubit_exchange_crossings():
    """Exchange-antisymmetric states decouple for identical qubits, pinning
    branches at n * omega_f (odd n) that truly cross the coupled branches."""
    template = ModelParams(1.0, 1.0, 0.0, 0.0)
    trunc = TruncationConfig(80)
    gs = np.arange(0.30, 0.60001, 0.01)
    sweep = sweep_spectrum(template, gs, gs, trunc, k=8)
    records = detect_crossings(sweep, Parity.EVEN)
    crossings = [r for r in records if r.kind is CrossingKind.CROSSING]
    assert crossings
    # symmetry-resolved oracle: one branch of each crossing sits on the
    # decoupled antisymmetric level (an odd multiple of omega_f)
    for rec in crossings:
        i_mid = (rec.index_lo + rec.index_hi) // 2
        pair = sweep.energies[Parity.EVEN][i_mid,
                                           rec.branch_lo:rec.branch_lo + 2]
        off_ladder = np.abs(pair - np.round(pair))
        on = np.argmin(off_ladder)
        assert off_ladder[on] < 1e-9
        assert int(round(pair[on])) % 2 == 1


def test_perturbative_zero_qubit_frequencies_exact():
    p = ModelParams(0.0, 0.0, 1.1, 0.6)
    spec = dsc_perturbative_spectrum(p, 5)
    assert np.allclose(spec.branch1_shift, 0.0)
    assert np.allclose(spec.branch2_shift, 0.0)
    m = np.arange(6)
    assert np.allclose(spec.branch1, m - p.g_plus ** 2)
    assert np.allclose(spec.branch2, m - p.g_minus ** 2)


def test_perturbative_shift_decreases_with_coupling():
    shifts = []
    for g in (2.0, 3.0, 4.0, 6.0):
        p = ModelParams(1.3, 0.7, g, g)
        spec = dsc_perturbative_spectrum(p, 0)
        shifts.append(abs(spec.branch1_shift[0]))
    assert all(a > b for a, b in zip(shifts, shifts[1:]))


def test_perturbative_resonances_reported_not_silent():
    # 4 g1 g2 / wf integer: the g_minus ladder is resonant with the g_plus
    p = ModelParams(1.3, 0.7, 2.0, 2.0)
    spec = dsc_perturbative_spectrum(p, 2)
    assert np.all(np.isfinite(spec.branch1))
    assert np.all(np.isnan(spec.branch2_shift))
    assert {(b, m) for b, m, _ in spec.resonant} == {(2, 0), (2, 1), (2, 2)}
    with pytest.raises(SmallDenominator):
        dsc_perturbative_spectrum(p, 2, strict=True)


def test_perturbative_matches_numeric_at_moderate_coupling():
    # non-resonant point: corrections improve on zeroth order
    p = ModelParams(1.3, 0.7, 1.2, 1.3)
    spec = dsc_perturbative_spectrum(p, 2)
    trunc = TruncationConfig(250)
    vals = np.sort(np.concatenate(
        [eigh(build_parity_matrix(p, par, trunc)).values[:6]
         for par in Parity]))
    for m in range(3):
        pair = 0.5 * (vals[2 * m] + vals[2 * m + 1])
        assert abs(spec.branch1[m] - pair) < 0.02
        assert abs(spec.branch1[m] - pair) < abs(spec.branch1_zeroth[m] - pair)


def test_rwa_error_zero_at_zero_coupling():
    report = rwa_relative_error(ModelParams(1.3, 0.7, 0.0, 0.0),
                                TruncationConfig(30), k=12)
    assert np.max(report.errors) == 0.0
    assert report.mean_error == 0.0
    assert report.ground_error == 0.0


def test_rwa_error_raises_when_unconverged():
    with pytest.raises(TruncationInsufficient):
        rwa_relative_error(ModelParams(1.0, 1.0, 2.5, 2.5),
                           TruncationConfig(8), k=16)


def test_doubling_check_accepts_converged_branches():
    p = ModelParams(1.3, 0.7, 0.3, 0.4)
    vals = doubling_check(p, Parity.EVEN, TruncationConfig(60), k=6)
    direct, _ = eigh(build_parity_matrix(p, Parity.EVEN,
                                         TruncationConfig(60)))
    assert np.allclose(vals, direct[:6], atol=1e-12)


def test_doubling_check_rejects_underresolved():
    p = ModelParams(1.3, 0.7, 1.8, 1.8)
    with pytest.raises(TruncationInsufficient):
        doubling_check(p, Parity.EVEN, TruncationConfig(14), k=12)


def test_doubling_check_counts_against_scaled_tolerance(monkeypatch):
    # with omega_f = 4 the bound is 4e-6: the 5e-6 drift moves, the 2e-6
    # drift (above tol, below tol * omega_f) does not
    drifts = iter([np.zeros(3), np.array([0.0, 2e-6, 5e-6])])
    monkeypatch.setattr(spectra, "converged_parity_eigensystem",
                        lambda *args, **kwargs: (next(drifts), None))
    p = ModelParams(1.3, 0.7, 0.3, 0.4, omega_f=4.0)
    with pytest.raises(TruncationInsufficient, match=r"^1 of 3 branches"):
        doubling_check(p, Parity.EVEN, TruncationConfig(10), k=3, tol=1e-6)


def test_converged_eigenvectors_own_only_their_columns():
    p = ModelParams(1.3, 0.7, 0.3, 0.4)
    trunc = TruncationConfig(60)
    vals, vecs = converged_parity_eigensystem(p, Parity.EVEN, trunc, 5)
    assert vecs.shape == (trunc.chain_dim, 5)
    assert vecs.base is None or vecs.base.nbytes == vecs.nbytes
    _assert_matches_dense(vals, vecs, p, Parity.EVEN, trunc, 5)


# levels of the dense spectrum closer than this (times ||H||) are compared
# as one degenerate cluster, by their subspace projector
CLUSTER_TOL = 1e-8


def _assert_matches_dense(vals, vecs, params, parity, trunc, k):
    """The k converged pairs agree with dense eigh of the whole chain."""
    dense = eigh(build_parity_matrix(params, parity, trunc))
    keep = np.flatnonzero(spectra.converged_mask(dense.vectors, 4))[:k]
    assert len(keep) == k
    norm = np.max(np.abs(dense.values))
    assert np.max(np.abs(vals - dense.values[keep])) <= 1e-12 * norm
    cluster = np.concatenate(
        [[0], np.cumsum(np.diff(dense.values) > CLUSTER_TOL * norm)])
    for label in np.unique(cluster[keep]):
        members = np.flatnonzero(cluster == label)
        mine = vecs[:, cluster[keep] == label]
        ref = dense.vectors[:, members]
        if len(members) == 1:
            assert abs(mine[:, 0] @ ref[:, 0]) > 1 - 1e-10
        elif mine.shape[1] == len(members):
            assert np.max(np.abs(mine @ mine.T - ref @ ref.T)) <= 1e-10
        else:       # a cluster cut by the k-th level or by the guard
            assert np.max(np.abs(mine - ref @ (ref.T @ mine))) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(omega_1=st.floats(0.0, 2.0), omega_2=st.floats(0.0, 2.0),
       g_1=st.floats(-1.5, 1.5), g_2=st.floats(-1.5, 1.5),
       parity=st.sampled_from(Parity), n_max=st.integers(1, 120),
       k=st.integers(1, 24))
@example(omega_1=1.3, omega_2=0.7, g_1=0.0, g_2=0.0, parity=Parity.EVEN,
         n_max=40, k=20)
@example(omega_1=1.0, omega_2=1.0, g_1=0.0, g_2=0.0, parity=Parity.ODD,
         n_max=6, k=10)
@example(omega_1=1.3, omega_2=0.7, g_1=0.45, g_2=0.45, parity=Parity.EVEN,
         n_max=80, k=20)
@example(omega_1=1.3, omega_2=0.7, g_1=0.45, g_2=-0.45, parity=Parity.ODD,
         n_max=80, k=20)
@example(omega_1=0.0, omega_2=0.7, g_1=0.3, g_2=0.4, parity=Parity.EVEN,
         n_max=60, k=12)
@example(omega_1=0.0, omega_2=0.0, g_1=0.5, g_2=0.5, parity=Parity.EVEN,
         n_max=60, k=16)
@example(omega_1=1.3, omega_2=0.7, g_1=0.51, g_2=0.51, parity=Parity.EVEN,
         n_max=300, k=20)
@example(omega_1=1.3, omega_2=0.7, g_1=G_CROSS, g_2=G_CROSS,
         parity=Parity.EVEN, n_max=300, k=20)
@example(omega_1=1.3, omega_2=0.7, g_1=G_CROSS + 1e-6, g_2=G_CROSS + 1e-6,
         parity=Parity.EVEN, n_max=300, k=20)
@example(omega_1=1.3, omega_2=0.7, g_1=G_CROSS + 1e-5, g_2=G_CROSS + 1e-5,
         parity=Parity.EVEN, n_max=300, k=20)
@example(omega_1=1.3, omega_2=0.7, g_1=1.5, g_2=1.5, parity=Parity.EVEN,
         n_max=24, k=1)
@example(omega_1=1.3, omega_2=0.7, g_1=1.5, g_2=1.5, parity=Parity.EVEN,
         n_max=24, k=2)
def test_banded_path_matches_dense(omega_1, omega_2, g_1, g_2, parity,
                                   n_max, k):
    params = ModelParams(omega_1, omega_2, g_1, g_2)
    trunc = TruncationConfig(n_max)
    k = min(k, trunc.chain_dim)
    dense = eigh(build_parity_matrix(params, parity, trunc))
    if np.count_nonzero(spectra.converged_mask(dense.vectors, 4)) < k:
        with pytest.raises(TruncationInsufficient):
            converged_parity_eigensystem(params, parity, trunc, k)
        return
    vals, vecs = converged_parity_eigensystem(params, parity, trunc, k)
    assert vecs.base is None or vecs.base.nbytes == vecs.nbytes
    _assert_matches_dense(vals, vecs, params, parity, trunc, k)


def test_widening_reaches_chain_dimension(monkeypatch):
    # for g1 = g2 and omega_1 + omega_2 = 2 the level E = 1 decouples and
    # passes the guard, while at n_max = 24 the nine levels below it fail it
    counts = []

    def spy(band, count):
        counts.append(count)
        return eigh_banded_lowest(band, count)

    monkeypatch.setattr(spectra, "eigh_banded_lowest", spy)
    p = ModelParams(1.3, 0.7, 1.5, 1.5)
    trunc = TruncationConfig(24)
    vals, vecs = converged_parity_eigensystem(p, Parity.EVEN, trunc, 1)
    assert counts == [9, 18]
    assert vals[0] == pytest.approx(1.0, abs=1e-12)
    _assert_matches_dense(vals, vecs, p, Parity.EVEN, trunc, 1)
    counts.clear()
    with pytest.raises(TruncationInsufficient, match=r"^only 1 of 2"):
        converged_parity_eigensystem(p, Parity.EVEN, trunc, 2)
    assert counts == [10, 20, 40, trunc.chain_dim]


def test_tied_levels_fall_back_to_dense(monkeypatch):
    # at zero coupling the chain is diagonal with exactly degenerate pairs;
    # the result is then dense eigh's, bit for bit
    calls = []
    monkeypatch.setattr(spectra, "eigh",
                        lambda h: calls.append(h.shape) or eigh(h))
    p = ModelParams(1.3, 0.7, 0.0, 0.0)
    trunc = TruncationConfig(40)
    vals, vecs = converged_parity_eigensystem(p, Parity.EVEN, trunc, 10)
    assert calls == [(trunc.chain_dim, trunc.chain_dim)]
    direct = eigh(build_parity_matrix(p, Parity.EVEN, trunc))
    assert np.array_equal(vals, direct.values[:10])
    assert np.array_equal(vecs, direct.vectors[:, :10])
    calls.clear()
    converged_parity_eigensystem(ModelParams(1.3, 0.7, 0.3, 0.4),
                                 Parity.EVEN, trunc, 10)
    assert calls == []
