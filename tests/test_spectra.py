import os
import sys
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rabi2q import spectra
from rabi2q.errors import ConfigError, TruncationInsufficient
from rabi2q.hamiltonian import build_parity_band
from rabi2q.model import ModelParams, Parity, TruncationConfig, basis_table
from rabi2q.numerics import (band_norm, displacement_element, eigh,
                             expand_dense)
from rabi2q.spectra import (CrossingKind, SpectrumSweep,
                            converged_parity_eigensystem, detect_crossings,
                            dsc_perturbative_spectrum, rwa_relative_error,
                            sweep_spectrum)

from oracles import G_CROSS, chain_state, kronecker_reference

TEMPLATE = ModelParams(1.3, 0.7, 0.0, 0.0)


def test_single_point_matches_direct_diagonalization():
    trunc = TruncationConfig(60)
    sweep = sweep_spectrum(TEMPLATE, [0.3], [0.4], trunc, k=8)
    p = ModelParams(1.3, 0.7, 0.3, 0.4)
    for parity in Parity:
        vals, _ = eigh(expand_dense(build_parity_band(p, parity, trunc)))
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


def test_empty_coupling_schedule_is_rejected():
    # an empty sweep would hand detect_crossings (0,)-shaped energies
    with pytest.raises(ConfigError, match="empty"):
        sweep_spectrum(TEMPLATE, [], [], TruncationConfig(10), k=3)


def _toy_sweep(delta):
    """Two-level model [[g, delta], [delta, -g]] swept through g = 0."""
    gs = np.linspace(-0.5, 0.5, 21)
    energies, vectors = [], []
    for g in gs:
        vals, vecs = np.linalg.eigh(np.array([[g, delta], [delta, -g]]))
        energies.append(vals)
        vectors.append(vecs)
    return SpectrumSweep(2, gs, gs, {Parity.EVEN: np.array(energies),
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


@pytest.mark.parametrize("gap_tol, overlap_tol", [
    (float("nan"), 0.1), (-1.0, 0.1), (0.0, 0.1), (float("inf"), 0.1),
    (0.2, float("nan")), (0.2, 0.0), (0.2, 1.0), (0.2, 1.5)])
def test_crossing_tolerances_outside_their_range_raise(gap_tol, overlap_tol):
    # a gap tolerance that no gap is below, or an overlap tolerance at
    # which the swap test always or never holds, would hide the true
    # crossing of this sweep behind an empty or all-avoided table
    with pytest.raises(ConfigError, match="tolerance"):
        detect_crossings(_toy_sweep(delta=1e-9), Parity.EVEN, gap_tol,
                         overlap_tol)


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
    # 4 g1 g2 integer: the g_minus ladder is resonant with the g_plus
    p = ModelParams(1.3, 0.7, 2.0, 2.0)
    spec = dsc_perturbative_spectrum(p, 2)
    assert np.all(np.isfinite(spec.branch1))
    assert np.all(np.isnan(spec.branch2_shift))
    assert {(b, m) for b, m, _ in spec.resonant} == {(2, 0), (2, 1), (2, 2)}


@pytest.mark.parametrize("params", [
    ModelParams(1.3, 0.7, 1e200, 1.0),      # (g1 + g2)^2 overflows
    ModelParams(1.3, 0.7, 1e160, -1e160),   # (g1 - g2)^2 overflows
    ModelParams(1e200, 0.7, 1.0, 2.0),      # omega_1^2 overflows
])
def test_perturbative_out_of_float_range_is_a_config_error(params):
    with pytest.raises(ConfigError, match="not finite"):
        dsc_perturbative_spectrum(params, 1)


def test_perturbative_huge_equal_couplings_stay_finite():
    # g = 1e150: the squares fit, and every displacement element is 0
    spec = dsc_perturbative_spectrum(ModelParams(1.3, 0.7, 1e150, 1e150), 1)
    for values in (spec.branch1, spec.branch2):
        assert np.all(np.isfinite(values))
    assert not spec.resonant


def test_perturbative_matches_numeric_at_moderate_coupling():
    # non-resonant point: corrections improve on zeroth order
    p = ModelParams(1.3, 0.7, 1.2, 1.3)
    spec = dsc_perturbative_spectrum(p, 2)
    trunc = TruncationConfig(250)
    vals = np.sort(np.concatenate(
        [eigh(expand_dense(build_parity_band(p, par, trunc))).values[:6]
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
    # k = 44 asks for every level of the two n_max 10 chains: a truncation
    # failure, not a configuration error
    with pytest.raises(TruncationInsufficient):
        rwa_relative_error(ModelParams(0.9, 1.1, 0.2, 0.2),
                           TruncationConfig(10), k=44)


def test_out_of_range_inputs_raise_value_error():
    p = ModelParams(1.3, 0.7, 0.3, 0.4)
    with pytest.raises(ValueError, match="k must be >= 1"):
        rwa_relative_error(p, TruncationConfig(10), k=0)
    with pytest.raises(ConfigError, match="45 levels pass the 44 levels"):
        rwa_relative_error(p, TruncationConfig(10), k=45)
    with pytest.raises(ValueError, match="n_cut must be >= 0"):
        dsc_perturbative_spectrum(p, 2, n_cut=-5)
    # at n_cut = 0 the only intermediate level of m = 0 is m itself
    spec = dsc_perturbative_spectrum(p, 2, n_cut=0)
    assert spec.branch1_shift[0] == spec.branch2_shift[0] == 0.0


def rwa_levels_full_basis(params, trunc, k):
    """Of the k lowest levels of the full and of the RWA Hamiltonian, from
    dense eigh of the Kronecker matrices, those that pass the 8-row edge
    mask of the product basis (two photon levels of four qubit pairs)."""
    out = []
    for rwa in (False, True):
        vals, vecs = np.linalg.eigh(kronecker_reference(params, trunc, rwa))
        out.append(vals[:k][np.sum(vecs[-8:, :k] ** 2, axis=0)
                            < spectra.GUARD_TOL])
    return out


FREQ = st.one_of(st.just(0.0), st.floats(0.0, 3.0))


@settings(max_examples=30, deadline=None)
@given(omega_1=FREQ, omega_2=FREQ, g_1=st.floats(-1.0, 1.0),
       g_2=st.floats(-1.0, 1.0), tie=st.sampled_from([None, 1.0, -1.0]),
       n_max=st.integers(16, 40), k=st.integers(1, 10))
@example(omega_1=1.3, omega_2=0.7, g_1=0.0, g_2=0.0, tie=None,
         n_max=20, k=10)                                # cross-parity ties
@example(omega_1=1.0, omega_2=1.0, g_1=0.0, g_2=0.0, tie=None,
         n_max=16, k=10)
@example(omega_1=0.9, omega_2=1.1, g_1=0.4, g_2=0.0, tie=1.0,
         n_max=30, k=10)                                # g2 = g1
@example(omega_1=0.9, omega_2=1.1, g_1=0.4, g_2=0.0, tie=-1.0,
         n_max=30, k=10)                                # g2 = -g1
@example(omega_1=0.0, omega_2=0.8, g_1=0.3, g_2=0.5, tie=None,
         n_max=30, k=8)                                 # omega_1 = 0
@example(omega_1=1.0, omega_2=1.0, g_1=0.2 / 1.7, g_2=0.6 / 1.7, tie=None,
         n_max=30, k=8)                                 # omega_j = omega_f
# the full model's 8 lowest levels hold one that fails the guard and the
# RWA's do not: pairing the levels that pass would cross states
@example(omega_1=1.7051046158124996, omega_2=0.6062301963992849,
         g_1=-0.49969881222248347, g_2=0.5633258863243058, tie=None,
         n_max=16, k=8)
def test_rwa_error_matches_full_basis_oracle(omega_1, omega_2, g_1, g_2,
                                             tie, n_max, k):
    p = ModelParams(omega_1, omega_2, g_1, g_2 if tie is None else tie * g_1)
    trunc = TruncationConfig(n_max)
    e_full, e_rwa = rwa_levels_full_basis(p, trunc, k)
    if min(len(e_full), len(e_rwa)) < k:
        with pytest.raises(TruncationInsufficient):
            rwa_relative_error(p, trunc, k)
        return
    report = rwa_relative_error(p, trunc, k)
    scale = max(1.0, float(np.max(np.abs(e_full))))
    assert np.max(np.abs(report.e_full - e_full)) <= 1e-12 * scale
    assert np.max(np.abs(report.e_rwa - e_rwa)) <= 1e-12 * scale
    with np.errstate(divide="ignore", invalid="ignore"):
        ref = np.abs(e_rwa - e_full) / np.abs(e_full)
    sure = np.abs(e_full) > 1e-3 * scale
    assert np.max(np.abs(report.errors - ref)[sure], initial=0.0) <= 1e-8
    assert report.ground_error == report.errors[0]


def test_converged_eigenvectors_own_only_their_columns():
    # g = 0.3/0.4 certifies a window of 28 photons, g = 0, whose tie lies
    # inside the five levels, one of 10 photons (the whole-chain route is
    # checked in test_tie_across_the_cut_falls_back_to_dense)
    trunc = TruncationConfig(60)
    for p, rows in ((ModelParams(1.3, 0.7, 0.3, 0.4), 58),
                    (ModelParams(1.3, 0.7, 0.0, 0.0), 22)):
        vals, vecs = converged_parity_eigensystem(p, Parity.EVEN, trunc, 5)
        assert vecs.shape == (rows, 5)
        assert vecs.base is None or vecs.base.nbytes == vecs.nbytes
        _assert_matches_dense(vals, vecs, p, Parity.EVEN, trunc, 5)


# levels of the dense spectrum closer than this (times ||H||) are compared
# as one degenerate cluster, by their subspace projector
CLUSTER_TOL = 1e-8


def _dense_converged(params, parity, trunc, k):
    """The first k guard-passing pairs of dense eigh of the whole chain."""
    dense = eigh(expand_dense(build_parity_band(params, parity, trunc)))
    keep = np.flatnonzero(spectra.converged_mask(dense.vectors, 4))[:k]
    return dense, keep


def _assert_matches_dense(vals, vecs, params, parity, trunc, k):
    """The k converged pairs agree with dense eigh of the whole chain."""
    dense, keep = _dense_converged(params, parity, trunc, k)
    assert len(keep) == k
    # a window solve returns only its own rows: the rest are zeros
    assert len(vecs) <= trunc.chain_dim
    vecs = np.pad(vecs, ((0, trunc.chain_dim - len(vecs)), (0, 0)))
    _assert_pairs_match(vals, vecs, dense, keep)


def _assert_pairs_match(vals, vecs, dense, keep):
    """vals and vecs are the pairs keep of the dense decomposition."""
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


@settings(max_examples=60, deadline=None)
@given(omega_1=st.floats(0.0, 2.0), omega_2=st.floats(0.0, 2.0),
       g_1=st.floats(-1.5, 1.5), g_2=st.floats(-1.5, 1.5),
       parity=st.sampled_from(Parity), n_max=st.integers(1, 120),
       k=st.integers(1, 24),
       window=st.one_of(st.none(), st.integers(0, 130)))
@example(omega_1=1.3, omega_2=0.7, g_1=0.0, g_2=0.0, parity=Parity.EVEN,
         n_max=40, k=20, window=None)
@example(omega_1=1.0, omega_2=1.0, g_1=0.0, g_2=0.0, parity=Parity.ODD,
         n_max=6, k=10, window=None)
@example(omega_1=1.3, omega_2=0.7, g_1=0.45, g_2=0.45, parity=Parity.EVEN,
         n_max=80, k=20, window=None)
@example(omega_1=1.3, omega_2=0.7, g_1=0.45, g_2=-0.45, parity=Parity.ODD,
         n_max=80, k=20, window=None)
@example(omega_1=0.0, omega_2=0.7, g_1=0.3, g_2=0.4, parity=Parity.EVEN,
         n_max=60, k=12, window=None)
@example(omega_1=0.0, omega_2=0.0, g_1=0.5, g_2=0.5, parity=Parity.EVEN,
         n_max=60, k=16, window=None)
@example(omega_1=1.3, omega_2=0.7, g_1=0.51, g_2=0.51, parity=Parity.EVEN,
         n_max=300, k=20, window=None)
@example(omega_1=1.3, omega_2=0.7, g_1=G_CROSS, g_2=G_CROSS,
         parity=Parity.EVEN, n_max=300, k=20, window=None)
@example(omega_1=1.3, omega_2=0.7, g_1=G_CROSS + 1e-6, g_2=G_CROSS + 1e-6,
         parity=Parity.EVEN, n_max=300, k=20, window=None)
@example(omega_1=1.3, omega_2=0.7, g_1=G_CROSS + 1e-5, g_2=G_CROSS + 1e-5,
         parity=Parity.EVEN, n_max=300, k=20, window=None)
@example(omega_1=1.3, omega_2=0.7, g_1=1.5, g_2=1.5, parity=Parity.EVEN,
         n_max=24, k=1, window=None)
@example(omega_1=1.3, omega_2=0.7, g_1=1.5, g_2=1.5, parity=Parity.EVEN,
         n_max=24, k=2, window=None)
@example(omega_1=1.3, omega_2=0.7, g_1=0.3, g_2=0.4, parity=Parity.EVEN,
         n_max=121, k=10, window=60)                    # accepted at once
@example(omega_1=1.3, omega_2=0.7, g_1=1.2, g_2=0.5, parity=Parity.ODD,
         n_max=120, k=20, window=0)                     # widens
@example(omega_1=1.3, omega_2=0.7, g_1=0.8, g_2=-0.8, parity=Parity.EVEN,
         n_max=100, k=16, window=0)                     # g_plus = 0
@example(omega_1=1.3, omega_2=0.7, g_1=1.5, g_2=1.5, parity=Parity.EVEN,
         n_max=24, k=2, window=3)                       # ladder runs out
@example(omega_1=1.3, omega_2=0.7, g_1=0.2, g_2=0.1, parity=Parity.ODD,
         n_max=20, k=31, window=0)                      # k near chain_dim
@example(omega_1=1.3, omega_2=0.7, g_1=G_CROSS, g_2=G_CROSS,
         parity=Parity.EVEN, n_max=300, k=20, window=40)
# the window's residual is zero, but its first cuts miss low gg levels
@example(omega_1=30.06, omega_2=29.94, g_1=0.0, g_2=0.0, parity=Parity.EVEN,
         n_max=60, k=12, window=0)
@example(omega_1=30.06, omega_2=29.94, g_1=1e-11, g_2=1e-11,
         parity=Parity.EVEN, n_max=60, k=12, window=0)
def test_banded_path_matches_dense(omega_1, omega_2, g_1, g_2, parity,
                                   n_max, k, window):
    # window, when given, is also tried as the start of the window ladder
    params = ModelParams(omega_1, omega_2, g_1, g_2)
    trunc = TruncationConfig(n_max)
    k = min(k, trunc.chain_dim)
    solved = None if window is None else _window(params, parity, trunc, k,
                                                 window)
    _, keep = _dense_converged(params, parity, trunc, k)
    if len(keep) < k:
        assert solved is None
        with pytest.raises(TruncationInsufficient):
            converged_parity_eigensystem(params, parity, trunc, k)
        return
    for vals, vecs in filter(None, [
            solved, converged_parity_eigensystem(params, parity, trunc, k)]):
        assert vecs.base is None or vecs.base.nbytes == vecs.nbytes
        _assert_matches_dense(vals, vecs, params, parity, trunc, k)


def test_widening_reaches_chain_dimension():
    # for g1 = g2 and omega_1 + omega_2 = 2 the level E = 1 decouples and
    # passes the guard, while at n_max = 24 the nine levels below it fail
    # it: the dense route returns the first converged level of the chain
    p = ModelParams(1.3, 0.7, 1.5, 1.5)
    trunc = TruncationConfig(24)
    vals, vecs = converged_parity_eigensystem(p, Parity.EVEN, trunc, 1)
    assert vals[0] == pytest.approx(1.0, abs=1e-12)
    _assert_matches_dense(vals, vecs, p, Parity.EVEN, trunc, 1)
    with pytest.raises(TruncationInsufficient, match=r"^only 1 of 2"):
        converged_parity_eigensystem(p, Parity.EVEN, trunc, 2)


@settings(max_examples=60, deadline=None)
@given(omega_2=st.floats(0.0, 2.0), g=st.floats(0.0, 2.0),
       n_max=st.integers(20, 120), k=st.integers(1, 24))
# a second level lies 1.06e-9 away, inside the k levels; the windows up to
# half the chain miss the residual bound, and one of 88 rows certifies
@example(omega_2=0.7, g=G_CROSS, n_max=60, k=10)
def test_dark_like_level_at_omega_f(omega_2, g, n_max, k):
    # for omega_1 + omega_2 = 2 omega_f and g1 = g2 the even chain has a
    # level at exactly E = omega_f for every g
    params = ModelParams(2.0 - omega_2, omega_2, g, g)
    trunc = TruncationConfig(n_max)
    tol = 1e-12 * band_norm(build_parity_band(params, Parity.EVEN, trunc))
    dense, keep = _dense_converged(params, Parity.EVEN, trunc, k)
    assume(len(keep) == k
           and np.min(np.abs(dense.values[keep] - 1.0)) <= tol)
    vals, _ = converged_parity_eigensystem(params, Parity.EVEN, trunc, k)
    assert np.min(np.abs(vals - 1.0)) <= tol


def test_tie_across_the_cut_falls_back_to_dense(monkeypatch):
    # at zero coupling the even chain is diagonal with levels -1, 0.7, 1, 1,
    # 1.3, ...: for k = 3 the pair at 1 straddles the cut on every window,
    # so the result is dense eigh's of the whole chain, bit for bit
    calls = []
    monkeypatch.setattr(spectra, "eigh",
                        lambda h: calls.append(h.shape) or eigh(h))
    p = ModelParams(1.3, 0.7, 0.0, 0.0)
    trunc = TruncationConfig(40)
    vals, vecs = converged_parity_eigensystem(p, Parity.EVEN, trunc, 3)
    assert calls == [(trunc.chain_dim, trunc.chain_dim)]
    assert vecs.base is None or vecs.base.nbytes == vecs.nbytes
    direct = eigh(expand_dense(build_parity_band(p, Parity.EVEN, trunc)))
    assert np.array_equal(vals, direct.values[:3])
    assert np.array_equal(vecs, direct.vectors[:, :3])
    calls.clear()
    # a coupled point certifies on a window: no whole-chain solve
    converged_parity_eigensystem(ModelParams(1.3, 0.7, 0.3, 0.4),
                                 Parity.EVEN, TruncationConfig(60), 3)
    assert calls == []


def test_overflowing_banded_solve_falls_back_without_warning():
    # couplings of 8e-168 put entries near the float underflow into the
    # solve; the point is solved without a warning by dense eigh of the
    # whole chain at n_max = 5 (the start window, 12 rows, is the whole
    # chain) and on a window, inertia count included, at n_max = 20
    g = 8.183430930081774e-168
    for n_max in (5, 20):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals, _ = converged_parity_eigensystem(
                ModelParams(0.0, 0.5, g, g), Parity.EVEN,
                TruncationConfig(n_max), 1)
        assert vals.tolist() == [-0.25]


def test_huge_coupling_goes_to_dense_without_overflow():
    # the start window's square would overflow a float at this coupling
    p = ModelParams(1.0, 1.0, 1e160, 1e160)
    trunc = TruncationConfig(20)
    assert spectra._start_window(p, 2) >= trunc.n_max
    vals, vecs = converged_parity_eigensystem(p, Parity.EVEN, trunc, 2)
    _assert_matches_dense(vals, vecs, p, Parity.EVEN, trunc, 2)


def _window_dims(monkeypatch):
    """Row counts of the windows the ladder solves, in order."""
    dims = []
    ladder = spectra.photon_windows

    def spy(band, n_start, max_rows):
        for rows, decomp in ladder(band, n_start, max_rows):
            dims.append(rows)
            yield rows, decomp

    monkeypatch.setattr(spectra, "photon_windows", spy)
    return dims


def _window(params, parity, trunc, k, n_window):
    """The window route alone at one point, from the start window n_window:
    None when no window short of the whole chain certifies."""
    band = build_parity_band(params, parity, trunc)
    return spectra._certified_windows(band[None], [n_window], k)[0]


def test_window_accepts_widens_or_reaches_chain_dimension(monkeypatch):
    dims = _window_dims(monkeypatch)
    # the start window of 61 photons certifies at once
    p = ModelParams(1.3, 0.7, 0.3, 0.4)
    trunc = TruncationConfig(121)
    vals, vecs = _window(p, Parity.EVEN, trunc, 10, 60)
    assert dims == [122]
    assert vecs.shape == (122, 10)
    _assert_matches_dense(vals, vecs, p, Parity.EVEN, trunc, 10)

    dims.clear()
    p = ModelParams(1.3, 0.7, 1.2, 0.5)
    vals, vecs = _window(p, Parity.ODD, trunc, 20, 0)
    assert len(dims) > 1 and dims == sorted(dims) and dims[-1] < 242
    assert vecs.shape == (dims[-1], 20)
    _assert_matches_dense(vals, vecs, p, Parity.ODD, trunc, 20)

    # no window short of the whole chain certifies (the next, 64 rows,
    # would pass its 50), so the point goes to dense eigh of the whole chain
    dims.clear()
    p = ModelParams(1.3, 0.7, 1.5, 1.5)
    trunc = TruncationConfig(24)
    assert _window(p, Parity.EVEN, trunc, 1, 3) is None
    assert dims == [8, 12, 18, 28, 42]
    vals, vecs = converged_parity_eigensystem(p, Parity.EVEN, trunc, 1)
    dense, keep = _dense_converged(p, Parity.EVEN, trunc, 1)
    assert np.array_equal(vals, dense.values[keep])
    assert np.array_equal(vecs, dense.vectors[:, keep])


@pytest.mark.parametrize("k,rows", [(4, 20), (10, 30)])
def test_ties_inside_the_cut_certify_on_a_window(monkeypatch, k, rows):
    # the same chain for k = 4 and k = 10 holds its ties inside the k
    # levels: the start window certifies, with no whole-chain solve
    dims = _window_dims(monkeypatch)
    calls = []
    monkeypatch.setattr(spectra, "eigh",
                        lambda h: calls.append(h.shape) or eigh(h))
    p = ModelParams(1.3, 0.7, 0.0, 0.0)
    trunc = TruncationConfig(40)
    vals, vecs = converged_parity_eigensystem(p, Parity.EVEN, trunc, k)
    assert dims == [rows] and calls == []
    assert vecs.shape == (rows, k)
    _assert_matches_dense(vals, vecs, p, Parity.EVEN, trunc, k)


def test_moderate_cutoff_sweep_certifies_every_point_on_a_window(
        monkeypatch):
    # at n_max = 80 most points need windows past half the chain: the
    # ladder climbs up to the last window short of the whole chain, and no
    # point falls to a whole-chain solve
    dims = _window_dims(monkeypatch)
    calls = []
    monkeypatch.setattr(spectra, "eigh",
                        lambda h: calls.append(h.shape) or eigh(h))
    trunc = TruncationConfig(80)
    gs = np.arange(0.30, 0.9001, 0.005)
    sweep = sweep_spectrum(TEMPLATE, gs, gs, trunc, k=12)
    assert calls == []
    assert max(dims) > trunc.chain_dim // 2
    assert max(len(v) for parity in Parity
               for v in sweep.vectors[parity]) < trunc.chain_dim
    for parity in Parity:
        for g, values in zip(gs, sweep.energies[parity]):
            dense, keep = _dense_converged(ModelParams(1.3, 0.7, g, g),
                                           parity, trunc, 12)
            assert np.max(np.abs(values - dense.values[keep])) <= 1e-12


def test_crossings_on_window_rows_match_zero_padded_vectors():
    # every point certifies on a window, of several row counts
    trunc = TruncationConfig(140)
    gs = np.arange(0.30, 0.9001, 0.01)
    sweep = sweep_spectrum(TEMPLATE, gs, gs, trunc, k=12)
    rows = {len(v) for parity in Parity for v in sweep.vectors[parity]}
    assert len(rows) > 1 and max(rows) < trunc.chain_dim
    padded = replace(sweep, vectors={
        parity: [np.pad(v, ((0, trunc.chain_dim - len(v)), (0, 0)))
                 for v in sweep.vectors[parity]] for parity in Parity})
    for parity in Parity:
        assert detect_crossings(sweep, parity) == \
            detect_crossings(padded, parity)
    assert any(r.kind is CrossingKind.CROSSING
               for r in detect_crossings(sweep, Parity.EVEN))


# at n_max = 50 no window certifies at part of the points, so the sweep
# mixes window and dense solves
@pytest.mark.parametrize("n_max", [120, 50])
@pytest.mark.parametrize("order", [1, -1], ids=["increasing", "decreasing"])
def test_windowed_sweep_matches_whole_chain_solves(order, n_max):
    trunc = TruncationConfig(n_max)
    gs = np.arange(0.30, 0.9001, 0.01)[::order]
    sweep = sweep_spectrum(TEMPLATE, gs, gs, trunc, k=12)
    pairs = {parity: [] for parity in Parity}
    for parity in Parity:
        for g in gs:
            dense, keep = _dense_converged(ModelParams(1.3, 0.7, g, g),
                                           parity, trunc, 12)
            pairs[parity].append((dense.values[keep],
                                  dense.vectors[:, keep]))
    ref = SpectrumSweep(12, gs, gs,
                        {par: np.array([v for v, _ in pairs[par]])
                         for par in Parity},
                        {par: [w for _, w in pairs[par]] for par in Parity})
    for parity in Parity:
        assert np.max(np.abs(sweep.energies[parity]
                             - ref.energies[parity])) <= 1e-12
        got = detect_crossings(sweep, parity)
        want = detect_crossings(ref, parity)
        assert [replace(r, min_gap=0.0) for r in got] == \
            [replace(r, min_gap=0.0) for r in want]
        assert np.allclose([r.min_gap for r in got],
                           [r.min_gap for r in want], rtol=0, atol=1e-12)
    assert any(r.kind is CrossingKind.CROSSING
               for r in detect_crossings(sweep, Parity.EVEN))


# the README cutoff, where every window certifies on its first rung, and
# n_max = 50, where g = 0.51 widens once and g = 0.9 goes to the whole
# chain; 0.51 is the README grid point next to the crossing at G_CROSS
@pytest.mark.parametrize("n_max, k, gs", [(300, 20, [0.0, 0.51, 1.0, 2.0]),
                                          (50, 12, [0.0, 0.51, 0.9])])
def test_sweep_pool_matches_one_point_solves_bit_for_bit(monkeypatch, n_max,
                                                         k, gs):
    # the sweep's windows, solved on a pool of four threads that switch
    # every microsecond, against one call per point, which solves on the
    # calling thread
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    assert spectra._pool_workers(len(gs)) == min(4, len(gs))
    threads = set()
    residuals = spectra.padded_residuals
    monkeypatch.setattr(spectra, "padded_residuals", lambda *args: (
        threads.add(threading.get_ident()) or residuals(*args)))
    trunc = TruncationConfig(n_max)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        sweep = sweep_spectrum(TEMPLATE, gs, gs, trunc, k)
    finally:
        sys.setswitchinterval(interval)
    assert threads and threading.get_ident() not in threads
    for parity in Parity:
        for i, g in enumerate(gs):
            values, vectors = converged_parity_eigensystem(
                ModelParams(1.3, 0.7, g, g), parity, trunc, k)
            assert np.array_equal(sweep.energies[parity][i], values)
            assert np.array_equal(sweep.vectors[parity][i], vectors)


@pytest.mark.parametrize("openblas, omp, cpus, points, workers", [
    (None, None, 2, 201, 1),        # OpenBLAS already fills the cores
    (None, None, 16, 201, 1),
    ("1", None, 2, 201, 2),
    ("1", None, 16, 201, 16),
    ("1", None, 16, 3, 3),          # at most one thread per point
    ("1", None, 16, 1, 1),          # a one-point call
    ("1", None, 1, 201, 1),
    ("2", None, 16, 201, 8),
    ("2", None, 3, 201, 1),
    ("4", "1", 16, 201, 4),         # OPENBLAS_NUM_THREADS comes first
    (None, "1", 4, 201, 4),
    (None, "2", 4, 201, 2),
    ("abc", "1", 4, 201, 4),        # garbage falls through to OMP
    ("abc", None, 4, 201, 1),       # ... and then to cpus
    ("1.5", "x", 4, 201, 1),
    ("0", "2", 4, 201, 2),          # not positive: falls through
    ("-1", None, 4, 201, 1),
    ("", None, 4, 201, 1),
])
def test_pool_workers_fill_the_cores_blas_leaves_idle(monkeypatch, openblas,
                                                      omp, cpus, points,
                                                      workers):
    for name, value in (("OPENBLAS_NUM_THREADS", openblas),
                        ("OMP_NUM_THREADS", omp)):
        if value is None:
            monkeypatch.delenv(name, raising=False)
        else:
            monkeypatch.setenv(name, value)
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)))
    assert spectra._pool_workers(points) == workers
    # without an affinity call, the count of os.cpu_count() is used
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert spectra._pool_workers(points) == workers
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert spectra._pool_workers(points) == 1


def _chain(params, parity, trunc):
    return expand_dense(build_parity_band(params, parity, trunc))


def _count_batch(points, trunc, margin):
    """The inputs of the batched count at points (params, parity, x), and
    the dense answer at each, the chain's levels below the cut x by
    eigvalsh; None when a cut lies within margin of a chain level."""
    bands, want = [], []
    for params, parity, x in points:
        band = build_parity_band(params, parity, trunc)
        whole = np.linalg.eigvalsh(expand_dense(band))
        if np.min(np.abs(whole - x)) <= margin:
            return None
        bands.append(band)
        want.append(int(np.sum(whole < x)))
    norms = np.array([band_norm(band) for band in bands])
    return (np.array(bands), norms, np.array([x for *_, x in points])), want


# one point of a count batch: omega_1, omega_2, g_1, g_2, parity, where
# the window that sets its cut ends, which adjacent window levels its cut
# falls between, as fractions, and where between them
_COUNT_POINT = st.tuples(st.floats(0.0, 40.0), st.floats(0.0, 40.0),
                         st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
                         st.sampled_from(Parity), st.floats(0.0, 1.0),
                         st.floats(0.0, 1.0), st.floats(0.0, 1.0))


@settings(max_examples=80, deadline=None)
@given(n_max=st.integers(1, 40),
       batch=st.lists(_COUNT_POINT, min_size=1, max_size=4))
# the g = 0 trap: the second cut lies above low gg levels at photons past
# the window, so the count must exceed the window's
@example(n_max=40,
         batch=[(30.06, 29.94, 0.0, 0.0, Parity.EVEN, 0.5, 0.2, 0.5),
                (30.06, 29.94, 0.0, 0.0, Parity.EVEN, 0.5, 0.6, 0.5)])
# omega_j = 0 and g_1 = +-g_2, where [[g1, g2], [g2, g1]] is singular
@example(n_max=30,
         batch=[(0.0, 0.7, 0.5, 0.5, Parity.ODD, 0.4, 0.1, 0.5),
                (1.3, 0.0, 0.5, -0.5, Parity.EVEN, 0.7, 0.8, 0.3),
                (0.0, 0.0, 1.2, 1.2, Parity.EVEN, 0.2, 0.5, 0.9),
                (0.0, 0.0, 0.9, -0.9, Parity.ODD, 0.9, 0.3, 0.1)])
# omega_1 1e250, where products of the pivots pass the float range unless
# the chain is scaled first; the cut falls between two of the qubit
# levels, which the photon ladder no longer splits in floats
@example(n_max=20,
         batch=[(1e250, 3e249, 0.2, 0.1, Parity.EVEN, 0.5, 0.5, 0.5),
                (1.3, 0.7, 0.3, 0.4, Parity.ODD, 0.5, 0.5, 0.5)])
def test_batched_count_matches_dense(n_max, batch):
    # each point's cut lies between two levels of its own window, of rows
    # short of the whole chain, as the sweep's cuts do
    trunc = TruncationConfig(n_max)
    points = []
    for omega_1, omega_2, g_1, g_2, parity, end, level, place in batch:
        params = ModelParams(omega_1, omega_2, g_1, g_2)
        rows = 2 * (1 + int(end * (n_max - 1)))
        window = np.linalg.eigvalsh(
            _chain(params, parity, trunc)[:rows, :rows])
        i = int(level * (rows - 2))
        points.append((params, parity,
                       window[i] + place * (window[i + 1] - window[i])))
    counted = _count_batch(points, trunc, margin=1e-8)
    assume(counted is not None)
    inputs, want = counted
    assert spectra._levels_below(*inputs).tolist() == want


def test_batched_count_accepts_and_rejects_side_by_side():
    # one batch of both parities and four window sizes: at the sweep's
    # coupling, the g = 0 trap and deep in strong coupling; then, on one
    # window of 24 rows per parity, cuts 1e-6 below and above the seventh
    # chain level, which the window lacks (its own seventh level lies
    # 5e-6 to 9e-6 higher), so that any error in the pivots shows.  A
    # window certifies where the count equals its own levels below the cut
    trunc = TruncationConfig(40)
    sweep = ModelParams(1.3, 0.7, 0.3, 0.4)
    points, held = [], []
    for params, parity, rows, i in (
            (sweep, Parity.EVEN, 56, 16),
            (ModelParams(30.06, 29.94, 0.0, 0.0), Parity.EVEN, 40, 22),
            (ModelParams(1.3, 0.7, 1.0, 1.0), Parity.ODD, 24, 6),
            (sweep, Parity.ODD, 16, 7)):
        window = np.linalg.eigvalsh(
            _chain(params, parity, trunc)[:rows, :rows])
        points.append((params, parity, 0.5 * (window[i] + window[i + 1])))
        held.append(i + 1)
    for parity in Parity:
        level = np.linalg.eigvalsh(_chain(sweep, parity, trunc))[6]
        window = np.linalg.eigvalsh(_chain(sweep, parity, trunc)[:24, :24])
        assert window[5] < level - 1e-6 and level + 4e-6 < window[6]
        points += [(sweep, parity, level - 1e-6),
                   (sweep, parity, level + 1e-6)]
        held += [6, 6]
    inputs, want = _count_batch(points, trunc, margin=1e-7)
    got = spectra._levels_below(*inputs).tolist()
    assert got == want
    assert [levels == k for levels, k in zip(got, held)] == \
        [True, False, False, True, True, False, True, False]


def test_tie_across_the_cut_is_rejected_without_a_float_warning():
    # the odd chain's third and fourth levels tie at 1, so a window's cut
    # can land on a window level, where the pivots meet a singular block;
    # no window certifies wrongly, and no float warning is raised
    params = ModelParams(0, 0, -4.675842848598354e-22, -4.675842848598354e-22)
    trunc = TruncationConfig(23)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        values, _ = converged_parity_eigensystem(params, Parity.ODD, trunc, 3)
    dense = np.linalg.eigvalsh(_chain(params, Parity.ODD, trunc))
    assert dense[3] - dense[2] < 1e-12
    assert np.allclose(values, dense[:3], rtol=0, atol=1e-12)


def _random_chain_band(rng, dim):
    """A random symmetric 2 x 2-block tridiagonal matrix of the chain's
    shape in the chain band layout: random diagonal blocks diag(d0, d1)
    and random couplings [[a_j, b_j], [b_j, a_j]], no Rabi structure."""
    band = np.zeros((4, dim))
    band[0] = rng.uniform(-4.0, 4.0, dim)
    a, b = rng.uniform(-4.0, 4.0, (2, dim // 2 - 1))
    band[2, 0:-2:2] = band[2, 1:-2:2] = a
    band[3, 0:-2:2] = band[1, 1:-2:2] = b
    return band


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), blocks=st.integers(2, 10),
       points=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                                 st.floats(0.0, 1.0)),
                       min_size=1, max_size=4))
# a pivot with two negative eigenvalues (block 1 of 3): the chain has two
# more levels below the cut than its first block
@example(seed=18, blocks=3, points=[(0.0, 0.5, 0.5)])
def test_batched_count_matches_dense_on_random_block_bands(seed, blocks,
                                                          points):
    # the pivots of random chain-shaped bands, against a dense count; cuts
    # within 1e-6 of a level of any leading block section (where a pivot is
    # near singular) are skipped
    rng = np.random.default_rng(seed)
    dim = 2 * blocks
    bands, cuts, want = [], [], []
    for end, level, place in points:
        band = _random_chain_band(rng, dim)
        h = expand_dense(band)
        n_rows = 2 * (1 + int(end * (blocks - 2)))
        window = np.linalg.eigvalsh(h[:n_rows, :n_rows])
        i = int(level * (n_rows - 2))
        x = window[i] + place * (window[i + 1] - window[i])
        assume(all(np.min(np.abs(np.linalg.eigvalsh(h[:k, :k]) - x)) > 1e-6
                   for k in range(2, dim + 1, 2)))
        bands.append(band)
        cuts.append(x)
        want.append(int(np.sum(np.linalg.eigvalsh(h) < x)))
    got = spectra._levels_below(np.array(bands),
                                np.array([band_norm(b) for b in bands]),
                                np.array(cuts))
    assert got.tolist() == want


@pytest.mark.parametrize("g_1, g_2", [(2.0, 1.5), (3.0, 2.5)])
def test_second_order_shift_at_unequal_couplings(g_1, g_2):
    # branch 1 at m = 0 lies far from every branch-2 level: the ground
    # level of each parity sits below m - g_plus^2 by the second-order
    # shift within 1% of it (measured: 3e-5 and 1e-5 of it)
    params = ModelParams(1.3, 0.7, g_1, g_2)
    spec = dsc_perturbative_spectrum(params, 0)
    shift = spec.branch1_shift[0]
    assert shift > 0.005 and all(branch == 2 for branch, *_ in spec.resonant)
    for parity in Parity:
        ground = converged_parity_eigensystem(params, parity,
                                              TruncationConfig(260), 1)[0][0]
        assert abs((spec.branch1_zeroth[0] - ground) - shift) <= 0.01 * shift


def _zeroth_order_miss(params, parity, vectors, trunc, m_max):
    """1 - P for each column of vectors, the chain rows of a parity's
    levels: P is the largest weight a level keeps on one zeroth-order pair
    {|s>_x D(-x)|m> : x = +-g_b} of deep strong coupling, over the branches
    b and m <= m_max.  Photon n of sigma_x state s = (s1, s2) overlaps the
    chain slot (n, sz1, sz2) by <s|sz1><s|sz2>, with <s|+1> = 1 / sqrt 2 and
    <s|-1> = s / sqrt 2, and <m|D(-x)^dagger|n> = <m|D(x)|n>."""
    table = basis_table(trunc)
    rows = len(vectors)
    n = table.photon[parity][:rows]
    sz1, sz2 = table.sz1[parity][:rows], table.sz2[parity][:rows]
    best = np.zeros(vectors.shape[1])
    for pair in (((1, 1), (-1, -1)), ((1, -1), (-1, 1))):   # g_plus, g_minus
        weight = 0.0
        for s1, s2 in pair:
            x = s1 * params.g_1 + s2 * params.g_2
            shift = np.array([[displacement_element(m, j, x / 2)
                               for j in range(n[-1] + 1)]
                              for m in range(m_max + 1)])
            qubits = 0.5 * np.where(sz1 < 0, s1, 1) * np.where(sz2 < 0, s2, 1)
            weight = weight + (shift[:, n] @ (qubits[:, None] * vectors)) ** 2
        best = np.maximum(best, np.max(weight, axis=0))
    return 1.0 - best


def test_deep_strong_coupling_states_keep_their_zeroth_order_weight():
    # at couplings lambda (3, 4), omega 1.1/0.3, the 12 lowest levels of
    # the two parities lie on the g_plus pairs m = 0..5; the largest weight
    # a level misses on its pair falls with lambda (measured by dense eigh
    # of the product basis: 1.9e-3 at lambda = 0.5, 5.4e-5 at 1)
    trunc = TruncationConfig(300)
    worst = {}
    for lam, bound in ((0.5, 5e-3), (1.0, 2e-4)):
        params = ModelParams(1.1, 0.3, 3 * lam, 4 * lam)
        levels = []
        for parity in Parity:
            values, vectors = converged_parity_eigensystem(params, parity,
                                                           trunc, 12)
            levels += zip(values, _zeroth_order_miss(params, parity, vectors,
                                                     trunc, 15))
        worst[lam] = max(miss for _, miss in sorted(levels)[:12])
        assert 0 <= worst[lam] <= bound
    assert worst[1.0] < worst[0.5]


def test_mixed_dip_is_not_a_crossing():
    # across the dip the lower level keeps 0.3 of its overlap with itself
    # while 0.9 moves to the upper one: a mixing, not a swap, so the dip
    # is not a crossing at overlap_tol 0.2, and is one at 0.35
    gs = np.array([-0.1, 0.0, 0.1])
    energies = np.array([[0.0, 0.2], [0.0, 0.01], [0.0, 0.2]])
    before = np.eye(3)[:, :2]
    upper = np.array([0.9, np.sqrt(1 - 0.81), 0.0])
    lower = np.array([0.3, -0.27 / upper[1], 0.0])
    lower[2] = np.sqrt(1 - lower @ lower)
    after = np.column_stack([lower, upper])
    assert np.allclose(after.T @ after, np.eye(2))
    sweep = SpectrumSweep(2, gs, gs, {Parity.EVEN: energies},
                          {Parity.EVEN: [before, before, after]})
    kinds = [[r.kind for r in detect_crossings(sweep, Parity.EVEN,
                                                overlap_tol=tol)]
             for tol in (0.2, 0.35)]
    assert kinds == [[CrossingKind.AVOIDED_OR_UNRESOLVED],
                     [CrossingKind.CROSSING]]
