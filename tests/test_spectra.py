import math
import os
import re
import sys
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.linalg import eigvals_banded

from rabi2q import eigenstates, numerics, spectra
from rabi2q.errors import ConfigError, TruncationInsufficient
from rabi2q.hamiltonian import build_parity_band, build_rwa_excitation_block
from rabi2q.model import ModelParams, Parity, TruncationConfig, basis_table
from rabi2q.numerics import (RESIDUAL_TOL, band_norm, displacement_elements,
                             eigh, expand_dense, inert_tail, padded_residuals,
                             tail_cut)
from rabi2q.spectra import (CrossingKind, SpectrumSweep,
                            converged_pairs, detect_crossings,
                            dsc_perturbative_spectrum, rwa_relative_error,
                            sweep_spectrum)

from oracles import (G_CROSS, GUARD_TOL, both_flipped, chain_state,
                     dsc_reference, exchanged, g1_flipped, kronecker_reference)

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


def test_perturbative_huge_couplings_are_out_of_range():
    # the table holds (m_max + 1) W entries, W = ceil((2 max|g_j|
    # + sqrt(m_max) + 4)^2): at g = 1e150 the squares fit, but the table
    # would not, nor 41 x 25,067 at |g| = 74, nor 1,000,001 x 1,008,016 at
    # g = 0 and m_max = 10^6
    for params, m_max, named in (
            (ModelParams(1.3, 0.7, 1e150, 1e150), 1, "1e[+]150 at m_max=1"),
            (ModelParams(0.0, 0.0, 0.3, -74.0), 40, "-74 at m_max=40"),
            (ModelParams(1.0, 1.0, 0.0, 0.0), 10 ** 6, "0 at m_max=1000000")):
        with pytest.raises(ConfigError, match=f"coupling {named} is out of "
                           f"range for the perturbative sums"):
            dsc_perturbative_spectrum(params, m_max)


def test_perturbative_short_table_fails_its_unit_norm(monkeypatch):
    # a table cut REACH = 2 past the displaced oscillators' spread, not 4,
    # leaves 7.4e-11 of row m = 3's norm out: the run fails, rather than
    # print the sums of a truncated table
    p = ModelParams(1.1, 0.3, 3.0, 4.0)
    dsc_perturbative_spectrum(p, 3)
    monkeypatch.setattr(spectra, "REACH", 2.0)
    with pytest.raises(TruncationInsufficient, match="row m=3 of the "
                       "displacement table of g2 misses 7.4e-11"):
        dsc_perturbative_spectrum(p, 3)


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


def _same_bits(got, want):
    """Equal arrays bit for bit: nan in the same places, zeros of the same
    sign."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return (got.shape == want.shape
            and np.array_equal(got.view(np.int64), want.view(np.int64)))


def _check_dsc_against_scalar_oracle(params, m_max):
    try:
        want = dsc_reference(params, m_max)
    except ConfigError as exc:
        with pytest.raises(ConfigError, match=re.escape(str(exc))):
            dsc_perturbative_spectrum(params, m_max)
        return None
    got = dsc_perturbative_spectrum(params, m_max)
    assert _same_bits(got.branch1_shift, want[0])
    assert _same_bits(got.branch2_shift, want[1])
    assert got.resonant == want[2]
    return got


@settings(max_examples=40, deadline=None)
@given(omega_1=st.floats(0.0, 3.0), omega_2=st.floats(0.0, 3.0),
       g_1=st.floats(-4.0, 4.0), g_2=st.floats(-4.0, 4.0),
       m_max=st.integers(0, 8))
# the README: 4 g1 g2 = 16, branch 2 resonant at n = m + 16
@example(omega_1=1.3, omega_2=0.7, g_1=2.0, g_2=2.0, m_max=11)
# 4 g1 g2 = -1: both branches meet resonances, branch 1 from m = 1 on
@example(omega_1=1.3, omega_2=0.7, g_1=0.5, g_2=-0.5, m_max=4)
# the paper's Fig. 3 couplings: the bulk of the terms lies near n = 100
@example(omega_1=1.1, omega_2=0.3, g_1=3.0, g_2=4.0, m_max=3)
@example(omega_1=1.3, omega_2=0.7, g_1=4.0, g_2=-3.3, m_max=2)
# every element is 0 (g = 0 off the diagonal) and every branch-2
# denominator negative: the terms are -0.0, and the shift is +0.0, as a
# sum from +0.0 gives
@example(omega_1=1.3, omega_2=0.7, g_1=0.0, g_2=0.0, m_max=2)
def test_dsc_sums_match_the_scalar_oracle_bit_for_bit(omega_1, omega_2, g_1,
                                                      g_2, m_max):
    # one displacement table per coupling gives the shifts, the nan
    # entries and the resonant tuples of the scalar loop
    _check_dsc_against_scalar_oracle(ModelParams(omega_1, omega_2, g_1, g_2),
                                     m_max)


@pytest.mark.parametrize("params", [
    ModelParams(1.3, 0.7, 1e200, 1.0),
    ModelParams(1.3, 0.7, 1e160, -1e160),
    ModelParams(1e200, 0.7, 1.0, 2.0),
    ModelParams(1.3, 1e160, 1.0, 2.0),
    # the squares fit, but a term 1e-5 from resonance passes the float
    # range: branch 2, m = 0 raises
    ModelParams(1e153, 1e153, 0.5000025, 0.5000025),
])
def test_dsc_overflow_raises_as_the_scalar_oracle_does(params):
    with pytest.raises(ConfigError, match="not finite"):
        dsc_reference(params, 1)
    _check_dsc_against_scalar_oracle(params, 1)


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


def test_rwa_full_levels_are_certified():
    # at n_max = 120 the 14 lowest even levels carry less than 1e-8 on the
    # top two photons yet are off by up to 1.07e-7, and no rung certifies
    # them, nor at 160; at 200 they are the levels of n_max = 400, and so
    # are the errors
    p = ModelParams(1.1, 0.3, 3.0, 4.0)
    for n_max in (120, 160):
        with pytest.raises(TruncationInsufficient, match="even parity"):
            rwa_relative_error(p, TruncationConfig(n_max), 14)
    trunc = TruncationConfig(200)
    near = rwa_relative_error(p, trunc, 14)
    far = rwa_relative_error(p, TruncationConfig(400), 14)
    hnorm = max(band_norm(build_parity_band(p, parity, trunc))
                for parity in Parity)
    for side in ("e_full", "e_rwa"):
        assert np.max(np.abs(getattr(near, side) - getattr(far, side))
                      ) <= 1e-12 * hnorm
    assert np.max(np.abs(near.errors - far.errors)) <= 1e-12


# past every sector that can hold one of the 20 lowest RWA levels at
# omega_j in [0, 2] and |g_j| <= 3: sectors 0..6 hold 24 levels, all below
# 5 + 1 + 6 sqrt(6) = 20.7 (Gershgorin, radius c sqrt(M) with c <= 6), and
# every level of sector M is at least M - 2 - 6 sqrt(M), above 20.7 from
# M = 75; the cut sectors 101 and 102 lie higher still
RWA_CUTOFF = TruncationConfig(100)


@settings(max_examples=30, deadline=None)
@given(omega_1=st.floats(0.0, 2.0), omega_2=st.floats(0.0, 2.0),
       g_1=st.floats(-3.0, 3.0), g_2=st.floats(-3.0, 3.0),
       k=st.integers(1, 20))
@example(omega_1=0.9, omega_2=1.1, g_1=3.0, g_2=3.0, k=20)
@example(omega_1=0.0, omega_2=2.0, g_1=-3.0, g_2=3.0, k=20)
@example(omega_1=1.0, omega_2=1.0, g_1=0.0, g_2=0.0, k=20)
def test_rwa_sector_levels_match_a_dense_solve(omega_1, omega_2, g_1, g_2,
                                               k):
    # the excitation sectors give the RWA's k lowest levels with no
    # cutoff; the Kronecker RWA Hamiltonian at a cutoff past their sectors
    # (its cut sectors lie higher still) has the same lowest levels
    p = ModelParams(omega_1, omega_2, g_1, g_2)
    h = kronecker_reference(p, RWA_CUTOFF, rwa=True)
    want = np.linalg.eigvalsh(h)[:k]
    got = spectra._rwa_levels(p, k)
    assert got.shape == (k,)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(
        np.sum(np.abs(h), axis=1))


@pytest.mark.parametrize("params, sectors", [
    # the 20th level sits in sector 18, and the bound passes it at 67
    (ModelParams(0.9, 1.1, 2.0, 2.0), 67),
    # c = 0: sectors 0..5 hold the 20 lowest, sector N's lowest is N - 1.3
    (ModelParams(1.3, 0.7, 0.0, 0.0), 6)])
def test_rwa_sectors_stop_where_the_bound_passes_the_kth_level(
        params, sectors, monkeypatch):
    taken = []

    def block(p, n):
        taken.append(n)
        return build_rwa_excitation_block(p, n)

    monkeypatch.setattr(spectra, "build_rwa_excitation_block", block)
    levels = spectra._rwa_levels(params, 20)
    assert taken == list(range(sectors))
    # the stop: N >= c^2 and sector N's Gershgorin bound past the 20th
    d = 0.5 * (abs(params.omega_1 - 1) + abs(params.omega_2 - 1))
    c = abs(params.g_1) + abs(params.g_2)

    def bound(n):
        return n - 1 - d - 2 * c * math.sqrt(n)

    assert sectors >= c * c and bound(sectors) > levels[-1]
    # and it failed one sector earlier: sectors 0..N-1 hold 4 N - 4 levels
    fewer = sectors - 1
    assert (4 * fewer - 4 < 20 or fewer < c * c
            or bound(fewer) <= levels[-1])


def test_rwa_compare_solves_only_full_model_windows(monkeypatch):
    # every dense solve of rwa_relative_error is a leading window, or the
    # whole, of a full-model chain: the RWA side solves no chain
    p, trunc = ModelParams(0.9, 1.1, 0.2, 0.2), TruncationConfig(60)
    chains = [expand_dense(build_parity_band(p, parity, trunc))
              for parity in Parity]
    solved = []

    def spy(h):
        solved.append(h)
        return eigh(h)

    for module in (spectra, numerics):
        monkeypatch.setattr(module, "eigh", spy)
    rwa_relative_error(p, trunc, 20)
    assert solved
    for h in solved:
        rows = len(h)
        assert any(np.array_equal(h, chain[:rows, :rows]) for chain in chains)
    for name in ("build_rwa_band", "converged_mask", "GUARD_TOL"):
        assert not hasattr(spectra, name)


def test_out_of_range_inputs_raise_value_error():
    p = ModelParams(1.3, 0.7, 0.3, 0.4)
    with pytest.raises(ValueError, match="k must be >= 1"):
        rwa_relative_error(p, TruncationConfig(10), k=0)
    with pytest.raises(ConfigError, match="45 levels pass the 44 levels"):
        rwa_relative_error(p, TruncationConfig(10), k=45)
    with pytest.raises(ValueError, match="m_max must be >= 0"):
        dsc_perturbative_spectrum(p, -1)


def rwa_levels_full_basis(params, trunc, k):
    """The k lowest levels of the full Hamiltonian, and of the RWA
    Hamiltonian's k lowest those that pass the 8-row edge mask of the
    product basis (two photon levels of four qubit pairs), from dense eigh
    of the Kronecker matrices."""
    e_full = np.linalg.eigh(kronecker_reference(params, trunc, False))[0]
    vals, vecs = np.linalg.eigh(kronecker_reference(params, trunc, True))
    return e_full[:k], vals[:k][np.sum(vecs[-8:, :k] ** 2, axis=0)
                                < GUARD_TOL]


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
    # the full model's levels are certified as the sweeps' are, and the
    # RWA's pass the edge mask
    p = ModelParams(omega_1, omega_2, g_1, g_2 if tie is None else tie * g_1)
    trunc = TruncationConfig(n_max)
    e_full, e_rwa = rwa_levels_full_basis(p, trunc, k)
    if len(e_rwa) < k:
        with pytest.raises(TruncationInsufficient):
            rwa_relative_error(p, trunc, k)
        return
    per_chain = min(k, trunc.chain_dim)
    try:
        report = rwa_relative_error(p, trunc, k)
    except TruncationInsufficient:
        assert any(_whole_chain_fails(p, parity, trunc, per_chain)
                   for parity in Parity)
        return
    scale = max(1.0, float(np.max(np.abs(e_full))))
    assert np.max(np.abs(report.e_full - e_full)) <= 1e-12 * scale
    # and they are the lowest of the chains at a much larger cutoff, within
    # the certificate's joint bound
    tol = RESIDUAL_TOL * max(band_norm(build_parity_band(p, parity, trunc))
                             for parity in Parity)
    wide = [build_parity_band(p, parity, _much_larger(trunc))
            for parity in Parity]
    levels = np.sort(np.concatenate([eigvals_banded(
        band, lower=True, select="i", select_range=(0, per_chain - 1))
        for band in wide]))[:k]
    rounding = 64 * np.finfo(float).eps * max(map(band_norm, wide))
    assert np.max(np.abs(report.e_full - levels)) <= (np.sqrt(k) * tol
                                                      + rounding)
    assert np.max(np.abs(report.e_rwa - e_rwa)) <= 1e-12 * scale
    with np.errstate(divide="ignore", invalid="ignore"):
        ref = np.abs(e_rwa - e_full) / np.abs(e_full)
    sure = np.abs(e_full) > 1e-3 * scale
    assert np.max(np.abs(report.errors - ref)[sure], initial=0.0) <= 1e-8
    assert report.ground_error == report.errors[0]


def test_converged_eigenvectors_own_only_their_columns():
    # g = 0.3/0.4 certifies a window of 28 photons, g = 0, whose tie lies
    # inside the five levels, one of 10 photons (the whole-chain rung is
    # checked in test_window_accepts_widens_or_reaches_chain_dimension)
    trunc = TruncationConfig(60)
    for p, rows in ((ModelParams(1.3, 0.7, 0.3, 0.4), 58),
                    (ModelParams(1.3, 0.7, 0.0, 0.0), 22)):
        vals, vecs = converged_pairs([(p, Parity.EVEN)], trunc, 5)[0]
        assert vecs.shape == (rows, 5)
        assert vecs.base is None or vecs.base.nbytes == vecs.nbytes
        _assert_matches_dense(vals, vecs, p, Parity.EVEN, trunc, 5)


# levels of the dense spectrum closer than this (times ||H||) are compared
# as one degenerate cluster, by their subspace projector
CLUSTER_TOL = 1e-8


def _dense(params, parity, trunc):
    """Dense eigh of the whole chain."""
    return eigh(expand_dense(build_parity_band(params, parity, trunc)))


def _much_larger(trunc):
    """A cutoff well past trunc, where the low levels have converged."""
    return TruncationConfig(2 * trunc.n_max + 150)


def _assert_matches_dense(vals, vecs, params, parity, trunc, k):
    """The k pairs are the k lowest of dense eigh of the whole chain, and
    certified: each vector's residual against the chain at a much larger
    cutoff is within RESIDUAL_TOL ||H||, and the values lie within the
    joint bound of the k lowest levels there (plus that solve's rounding).
    """
    assert len(vals) == k
    # a window solve returns only its own rows: the rest are zeros
    assert len(vecs) <= trunc.chain_dim
    tol = RESIDUAL_TOL * band_norm(build_parity_band(params, parity, trunc))
    wide = build_parity_band(params, parity, _much_larger(trunc))
    assert np.max(padded_residuals(wide, vals, vecs)) <= tol
    # LAPACK's banded solver (dsbevx), not the package's dense eigh
    levels = eigvals_banded(wide, lower=True, select="i",
                            select_range=(0, k - 1))
    rounding = 64 * np.finfo(float).eps * band_norm(wide)
    assert np.max(np.abs(vals - levels)) <= np.sqrt(k) * tol + rounding
    vecs = np.pad(vecs, ((0, trunc.chain_dim - len(vecs)), (0, 0)))
    _assert_pairs_match(vals, vecs, _dense(params, parity, trunc),
                        np.arange(k))


def _whole_chain_fails(params, parity, trunc, k):
    """Whether the whole chain's k lowest levels can fail the certificate:
    k is the whole chain, one of their residuals against the chain one
    photon longer passes half of RESIDUAL_TOL ||H||, or the next level lies
    within CLUSTER_TOL ||H|| of the k-th, where it may join the set."""
    if k == trunc.chain_dim:
        return True
    dense = _dense(params, parity, trunc)
    norm = band_norm(build_parity_band(params, parity, trunc))
    longer = build_parity_band(params, parity,
                               TruncationConfig(trunc.n_max + 1))
    res = padded_residuals(longer, dense.values[:k], dense.vectors[:, :k])
    return (np.max(res) > 0.5 * RESIDUAL_TOL * norm
            or dense.values[k] - dense.values[k - 1] <= CLUSTER_TOL * norm)


def _assert_certified_or_unconverged(params, parity, trunc, k, solved=None):
    """converged_pairs, and solved from a window route when given, return
    the k lowest levels of the chain at a much larger cutoff, or
    TruncationInsufficient where the whole chain's own k lowest fail the
    certificate."""
    try:
        pairs = converged_pairs([(params, parity)], trunc, k)
    except TruncationInsufficient:
        assert solved is None
        assert _whole_chain_fails(params, parity, trunc, k)
        return
    for vals, vecs in filter(None, [solved, *pairs]):
        assert vecs.base is None or vecs.base.nbytes == vecs.nbytes
        _assert_matches_dense(vals, vecs, params, parity, trunc, k)


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
        else:       # a cluster cut by the k-th level
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
    _assert_certified_or_unconverged(params, parity, trunc, k, solved)


@settings(max_examples=60, deadline=None)
@given(omega_1=st.floats(0.0, 2.0), omega_2=st.floats(0.0, 2.0),
       g_1=st.floats(-5.0, 5.0), g_2=st.floats(-5.0, 5.0),
       parity=st.sampled_from(Parity), n_max=st.integers(1, 40),
       k=st.integers(1, 12))
# the edge-weight guard passed branches 4-6 here, off by up to 1.1e-7
@example(omega_1=1.1, omega_2=0.3, g_1=3.0, g_2=4.0, parity=Parity.EVEN,
         n_max=120, k=7)
# level 4's residual past the chain is 8.8e-10 at n_max = 20, above the
# bound; at n_max = 24 the whole chain certifies
@example(omega_1=1.3, omega_2=0.7, g_1=0.3, g_2=0.4, parity=Parity.EVEN,
         n_max=20, k=5)
@example(omega_1=1.3, omega_2=0.7, g_1=0.3, g_2=0.4, parity=Parity.EVEN,
         n_max=24, k=5)
def test_certified_levels_match_a_much_larger_cutoff(omega_1, omega_2, g_1,
                                                     g_2, parity, n_max, k):
    # every returned level, on a window or on the whole chain, is the
    # same-index level of a much longer chain within the bound
    params = ModelParams(omega_1, omega_2, g_1, g_2)
    trunc = TruncationConfig(n_max)
    _assert_certified_or_unconverged(params, parity, trunc,
                                     min(k, trunc.chain_dim))


def test_widening_reaches_chain_dimension():
    # for g1 = g2 and omega_1 + omega_2 = 2 the level E = 1 decouples; at
    # n_max = 24 the ladder widens to the whole chain, whose lowest level
    # (-9.03, not 1) has a residual past the chain of 0.036, so the call
    # raises; at n_max = 54 the whole chain is the rung that certifies
    p = ModelParams(1.3, 0.7, 1.5, 1.5)
    with pytest.raises(TruncationInsufficient, match="the 1 lowest levels"):
        converged_pairs([(p, Parity.EVEN)], TruncationConfig(24), 1)[0]
    trunc = TruncationConfig(54)
    vals, vecs = converged_pairs([(p, Parity.EVEN)], trunc, 1)[0]
    assert vecs.shape == (trunc.chain_dim, 1)
    assert vals[0] == pytest.approx(-9.031, abs=1e-3)
    _assert_matches_dense(vals, vecs, p, Parity.EVEN, trunc, 1)


@settings(max_examples=60, deadline=None)
@given(omega_2=st.floats(0.0, 2.0), g=st.floats(0.0, 2.0),
       n_max=st.integers(20, 200), k=st.integers(1, 24))
# a second level lies 1.06e-9 away, inside the k levels; the windows up to
# half the chain miss the residual bound, and one of 88 rows certifies
@example(omega_2=0.7, g=G_CROSS, n_max=60, k=10)
def test_dark_like_level_at_omega_f(omega_2, g, n_max, k):
    # for omega_1 + omega_2 = 2 omega_f and g1 = g2 the even chain has a
    # level at exactly E = omega_f for every g; where it is among the whole
    # chain's k lowest, it is among the certified levels, unless the whole
    # chain fails the certificate
    params = ModelParams(2.0 - omega_2, omega_2, g, g)
    trunc = TruncationConfig(n_max)
    tol = 1e-12 * band_norm(build_parity_band(params, Parity.EVEN, trunc))
    dense = _dense(params, Parity.EVEN, trunc)
    assume(np.min(np.abs(dense.values[:k] - 1.0)) <= tol)
    try:
        vals, _ = converged_pairs([(params, Parity.EVEN)], trunc, k)[0]
    except TruncationInsufficient:
        assert _whole_chain_fails(params, Parity.EVEN, trunc, k)
        return
    assert np.min(np.abs(vals - 1.0)) <= tol


def test_tie_across_the_cut_certifies_on_a_window(monkeypatch):
    # at zero coupling the even chain is diagonal with levels -1, 0.7, 1, 1,
    # 1.3, ...: for k = 3 the pair at 1 straddles the cut on every window,
    # and so do pairs for the other k; the tied level joins the certified
    # set, and the start window certifies, with no whole-chain solve
    calls = []
    monkeypatch.setattr(spectra, "eigh",
                        lambda h: calls.append(h.shape) or eigh(h))
    p = ModelParams(1.3, 0.7, 0.0, 0.0)
    trunc = TruncationConfig(40)
    for parity, k in ((Parity.EVEN, 3), (Parity.EVEN, 7), (Parity.ODD, 5),
                      (Parity.ODD, 9)):
        dense = _dense(p, parity, trunc)
        assert dense.values[k] == dense.values[k - 1]
        vals, vecs = converged_pairs([(p, parity)], trunc, k)[0]
        assert calls == [] and len(vecs) < trunc.chain_dim
        assert vecs.base is None or vecs.base.nbytes == vecs.nbytes
        _assert_matches_dense(vals, vecs, p, parity, trunc, k)
        # a coupled point certifies on a window too
        converged_pairs([(ModelParams(1.3, 0.7, 0.3, 0.4), parity)],
                        TruncationConfig(60), k)
        assert calls == []


def test_overflowing_banded_solve_falls_back_without_warning():
    # couplings of 8e-168 put entries near the float underflow into the
    # solve; the point is solved without a warning on the whole chain's
    # rung at n_max = 5 (the start window, 12 rows, is the whole chain)
    # and on a window at n_max = 20, inertia count included in both
    g = 8.183430930081774e-168
    for n_max in (5, 20):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals, _ = converged_pairs(
                [(ModelParams(0.0, 0.5, g, g), Parity.EVEN)],
                TruncationConfig(n_max), 1)[0]
        assert vals.tolist() == [-0.25]


def test_huge_coupling_goes_to_dense_without_overflow(monkeypatch):
    # the start window's square would overflow a float at this coupling,
    # so the ladder's only rung is the whole chain; its residuals past the
    # chain, near 1e161, fail the bound, with no float warning
    calls = []
    monkeypatch.setattr(spectra, "eigh",
                        lambda h: calls.append(h.shape) or eigh(h))
    p = ModelParams(1.0, 1.0, 1e160, 1e160)
    trunc = TruncationConfig(20)
    assert spectra._start_window(p, 2) >= trunc.n_max
    with pytest.raises(TruncationInsufficient):
        converged_pairs([(p, Parity.EVEN)], trunc, 2)[0]
    assert calls == [(trunc.chain_dim, trunc.chain_dim)]


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
    """The ladder alone at one point, from the start window n_window: None
    when no rung, the whole chain included, certifies."""
    band = build_parity_band(params, parity,
                             TruncationConfig(trunc.n_max + 1))
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
    # would pass its 50), and neither does the whole chain, the last rung
    dims.clear()
    p = ModelParams(1.3, 0.7, 1.5, 1.5)
    trunc = TruncationConfig(24)
    assert _window(p, Parity.EVEN, trunc, 1, 3) is None
    assert dims == [8, 12, 18, 28, 42]
    with pytest.raises(TruncationInsufficient):
        converged_pairs([(p, Parity.EVEN)], trunc, 1)[0]

    # at n_max = 54 the whole chain certifies where no window does, and
    # returns its own lowest pair bit for bit
    trunc = TruncationConfig(54)
    assert _window(p, Parity.EVEN, trunc, 1, 3) is not None
    vals, vecs = converged_pairs([(p, Parity.EVEN)], trunc, 1)[0]
    dense = _dense(p, Parity.EVEN, trunc)
    assert np.array_equal(vals, dense.values[:1])
    assert np.array_equal(vecs, dense.vectors[:, :1])


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
    vals, vecs = converged_pairs([(p, Parity.EVEN)], trunc, k)[0]
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
            dense = _dense(ModelParams(1.3, 0.7, g, g), parity, trunc)
            assert np.max(np.abs(values - dense.values[:12])) <= 1e-12


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


# at n_max = 50 no window short of the chain certifies at part of the
# points, so the sweep mixes windows and whole-chain rungs
@pytest.mark.parametrize("n_max", [120, 50])
@pytest.mark.parametrize("order", [1, -1], ids=["increasing", "decreasing"])
def test_windowed_sweep_matches_whole_chain_solves(order, n_max):
    trunc = TruncationConfig(n_max)
    gs = np.arange(0.30, 0.9001, 0.01)[::order]
    sweep = sweep_spectrum(TEMPLATE, gs, gs, trunc, k=12)
    pairs = {parity: [] for parity in Parity}
    for parity in Parity:
        for g in gs:
            dense = _dense(ModelParams(1.3, 0.7, g, g), parity, trunc)
            pairs[parity].append((dense.values[:12], dense.vectors[:, :12]))
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
            values, vectors = converged_pairs(
                [(ModelParams(1.3, 0.7, g, g), parity)], trunc, k)[0]
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
        values, _ = converged_pairs([(params, Parity.ODD)], trunc, 3)[0]
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


def test_count_of_the_readme_rung_stops_where_the_tail_is_inert(monkeypatch):
    # on the first rung of the README sweep the pivots stop at most 80 of
    # 301 blocks from photon 0 per parity (70 measured), and the count is
    # the whole chain's: by the pivots run to the top on every point, and
    # by dense eigvalsh on every 20th
    calls, steps = [], []
    count, pivots = spectra._levels_below, spectra.block_pivots

    def record(*args):
        got = count(*args)
        calls.append((*args, got, steps[-1]))
        return got

    def spy(*args):
        out = pivots(*args)
        steps.append(len(out[2]))
        return out

    monkeypatch.setattr(spectra, "_levels_below", record)
    monkeypatch.setattr(spectra, "block_pivots", spy)
    g = np.arange(0, 2.0001, 0.01)
    sweep_spectrum(TEMPLATE, g, g, TruncationConfig(300), 20)
    # the first rung of each parity counts all 201 points
    rungs = [call for call in calls if len(call[0]) == 201]
    assert len(rungs) == 2
    for bands, norms, x, got, run in rungs:
        assert bands.shape == (201, 4, 602) and run <= 80
        diag = bands[:, 0].T
        a, b = (np.vstack((np.zeros(201), bands[:, d, 0:-2:2].T))
                for d in (2, 3))
        _, (_, _, inv_b, inv_s), _ = pivots(
            diag[0::2] - x, diag[1::2] - x, a, b,
            (np.finfo(float).eps * norms) ** 2)
        assert len(inv_b) == 301
        assert got.tolist() == (np.sum(inv_b < 0, axis=0)
                                + np.sum(inv_s < 0, axis=0)).tolist()
        for point in range(0, 201, 20):
            dense = np.linalg.eigvalsh(expand_dense(bands[point]))
            assert got[point] == np.sum(dense < x[point])


def test_chains_past_2_200_in_norm_run_the_whole_chain(monkeypatch):
    # such a chain is scaled before its pivots, so the bound is not taken
    # for it: a count batch that holds one runs every block, although the
    # other chain alone stops, and the twisted states at omega 1e200 keep
    # every block
    trunc = TruncationConfig(20)
    bands = np.array([build_parity_band(params, Parity.EVEN, trunc)
                      for params in (ModelParams(1e250, 3e249, 0.2, 0.1),
                                     ModelParams(1.3, 0.7, 0.3, 0.4))])
    norms = np.array([band_norm(band) for band in bands])
    x = np.array([-6.5e249, 0.0])
    start, _, ratios = inert_tail(bands, x, norms)
    cut = tail_cut(ratios)
    assert start[0] == cut[0] == 21 and start[1] < 21
    steps, pivots = [], spectra.block_pivots

    def spy(*args):
        out = pivots(*args)
        steps.append(len(out[2]))
        return out

    monkeypatch.setattr(spectra, "block_pivots", spy)
    spectra._levels_below(bands[1:], norms[1:], x[1:])
    spectra._levels_below(bands, norms, x)
    assert steps[0] < 21 and steps[1] == 21
    blocks, twisted = [], eigenstates._twisted_states
    monkeypatch.setattr(eigenstates, "_twisted_states",
                        lambda band, levels, cut: blocks.append(cut)
                        or twisted(band, levels, cut))
    eigenstates.eigenstate_recurrences(ModelParams(1e200, 0.5, 0.2, 0.1),
                                       Parity.EVEN, 3, 20)
    assert blocks == [21]


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
        ground = converged_pairs([(params, parity)], TruncationConfig(260),
                                 1)[0][0][0]
        assert abs((spec.branch1_zeroth[0] - ground) - shift) <= 0.01 * shift


@settings(max_examples=15, deadline=None)
@given(omega_1=st.floats(0.0, 1.5), omega_2=st.floats(0.0, 1.5),
       g=st.floats(2.5, 5.0))
# the paper's Fig. 3 couplings, g 3/4, and g 3.5, where sums that stopped
# on small leading terms or inside the bulk of the terms read 1e-5 to 6e-3
# off
@example(omega_1=1.1, omega_2=0.3, g=None)
@example(omega_1=1.3, omega_2=0.7, g=3.5)
def test_dsc_branch1_matches_the_certified_levels(omega_1, omega_2, g):
    # deep in strong coupling the m-th level of each parity lies on branch
    # 1 (4 g^2 > 3), within 1e-5 of its second-order total for m <= 3
    # (measured: 2.5e-6 at g = 2.5, 1.5e-9 at g = 5)
    params = (ModelParams(omega_1, omega_2, 3.0, 4.0) if g is None
              else ModelParams(omega_1, omega_2, g, g))
    top = max(params.g_1, params.g_2)
    trunc = TruncationConfig(math.ceil(8 * top ** 2) + 100)
    spec = dsc_perturbative_spectrum(params, 3)
    for values, _ in converged_pairs([(params, parity) for parity in Parity],
                                     trunc, 4):
        assert np.max(np.abs(spec.branch1 - values)) <= 1e-5


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
            shift = displacement_elements(np.arange(m_max + 1)[:, None],
                                          np.arange(n[-1] + 1), x / 2)
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
            values, vectors = converged_pairs([(params, parity)], trunc, 12)[0]
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


def test_dip_at_the_sweep_start_is_unresolved():
    # the gap is least at the first point, which has no point before it:
    # the dip is unresolved and spans points 0 and 1, though the last
    # point's vectors against point 1's would read as a swap
    gs = np.array([0.0, 0.1, 0.2])
    energies = np.array([[0.0, 0.01], [0.0, 0.2], [0.0, 0.3]])
    same, swapped = np.eye(2), np.eye(2)[:, ::-1]
    sweep = SpectrumSweep(2, gs, gs, {Parity.EVEN: energies},
                          {Parity.EVEN: [same, swapped, same]})
    [record] = detect_crossings(sweep, Parity.EVEN)
    assert (record.index_lo, record.index_hi, record.g_lo, record.g_hi,
            record.min_gap, record.kind) == (
        0, 1, 0.0, 0.1, 0.01, CrossingKind.AVOIDED_OR_UNRESOLVED)


# ---------------------------------------------------------------------------
# symmetries: each maps a parity chain's spectrum onto itself
# ---------------------------------------------------------------------------

def _spectra_seen(params, trunc, k):
    """By parity, the sweep energies at params and at params with both
    couplings halved, and the energies of ``eigenstates_by_parity``, with
    each state's residual relative to ||H|| (nan where the route resolved
    no vector)."""
    sweep = sweep_spectrum(params, [params.g_1, 0.5 * params.g_1],
                           [params.g_2, 0.5 * params.g_2], trunc, k)
    states = eigenstates.eigenstates_by_parity(params, list(Parity), k,
                                               trunc.n_max)
    seen = {}
    for parity in Parity:
        hnorm = band_norm(build_parity_band(params, parity, trunc))
        seen[parity] = (sweep.energies[parity],
                        np.array([state.xi for state in states[parity]]),
                        np.array([eigenstates.residual(params, parity, state)
                                  / hnorm if np.isfinite(state.v).all()
                                  else np.nan for state in states[parity]]))
    return seen


SYMMETRY_TOL = 1e-13


@settings(max_examples=30, deadline=None)
@given(omega_1=st.floats(0.0, 2.0), omega_2=st.floats(0.0, 2.0),
       g_1=st.floats(-5.0, 5.0), g_2=st.floats(-5.0, 5.0),
       n_max=st.integers(8, 60), k=st.integers(1, 6),
       mirror=st.sampled_from([exchanged, g1_flipped, both_flipped]))
@example(omega_1=1.3, omega_2=0.7, g_1=0.3, g_2=0.4, n_max=60, k=6,
         mirror=exchanged)
@example(omega_1=1.3, omega_2=0.7, g_1=0.3, g_2=0.4, n_max=60, k=6,
         mirror=g1_flipped)
@example(omega_1=1.3, omega_2=0.7, g_1=2.1, g_2=-1.7, n_max=120, k=6,
         mirror=both_flipped)
def test_spectra_keep_the_coupling_symmetries(omega_1, omega_2, g_1, g_2,
                                              n_max, k, mirror):
    # each symmetry keeps every certified level, recurrence state energy and
    # RWA error to 1e-13 ||H||, and on both sides a state that passes the
    # residual bound of ``eigenstate`` is at rounding level.  Draws whose
    # cutoff certifies no levels on either side are skipped
    params = ModelParams(omega_1, omega_2, g_1, g_2)
    trunc = TruncationConfig(n_max)
    try:
        seen = [_spectra_seen(p, trunc, k) for p in (params, mirror(params))]
    except TruncationInsufficient:
        return
    tol = SYMMETRY_TOL * max(band_norm(build_parity_band(params, parity,
                                                         trunc))
                             for parity in Parity)
    for parity in Parity:
        (sweep, levels, res), (sweep_m, levels_m, res_m) = (
            side[parity] for side in seen)
        assert np.max(np.abs(sweep - sweep_m)) <= tol
        assert np.max(np.abs(levels - levels_m)) <= tol
        bound = eigenstates.RECURRENCE_RESIDUAL_TOL / band_norm(
            build_parity_band(params, parity, trunc))
        for side in (res, res_m):
            assert np.max(side[side <= bound], initial=0.0) <= SYMMETRY_TOL
    try:
        reports = [rwa_relative_error(p, trunc, k)
                   for p in (params, mirror(params))]
    except TruncationInsufficient:
        return
    assert np.max(np.abs(reports[0].errors - reports[1].errors)) <= tol


@pytest.mark.parametrize("params, n_max", [
    (ModelParams(1.3, 0.7, 0.3, 0.4), 60),
    (ModelParams(1.3, 0.7, 2.1, -1.7), 120),
    (ModelParams(1.3, 0.7, 2.1, 1.7), 120)])
def test_joint_coupling_flip_keeps_the_levels_bit_for_bit(params, n_max):
    # (g_1, g_2) -> (-g_1, -g_2) flips the sign of every coupling block,
    # which LAPACK's reduction carries exactly at these couplings.  Where a
    # coupling is zero or tiny the levels agree to rounding only (4.9e-16
    # at omega 0/0, g 0/0.03125), as the draws above check
    trunc = TruncationConfig(n_max)
    sweeps = [_spectra_seen(p, trunc, 6)
              for p in (params, both_flipped(params))]
    for parity in Parity:
        for got, flipped in zip(sweeps[0][parity][:2], sweeps[1][parity][:2]):
            assert np.array_equal(got, flipped)


@settings(max_examples=20, deadline=None)
@given(omega_1=st.floats(0.0, 2.0), omega_2=st.floats(0.0, 2.0),
       g_1=st.floats(-5.0, 5.0), g_2=st.floats(-5.0, 5.0),
       m_max=st.integers(0, 6))
@example(omega_1=1.3, omega_2=0.7, g_1=2.1, g_2=1.7, m_max=6)
def test_dsc_branches_keep_the_qubit_symmetries(omega_1, omega_2, g_1, g_2,
                                                m_max):
    # bit for bit: qubit exchange keeps both branches, and g_1 -> -g_1
    # swaps branches 1 and 2, resonances included
    params = ModelParams(omega_1, omega_2, g_1, g_2)
    dsc = dsc_perturbative_spectrum(params, m_max)
    swapped = dsc_perturbative_spectrum(exchanged(params), m_max)
    flipped = dsc_perturbative_spectrum(g1_flipped(params), m_max)
    for branch in (1, 2):
        got = getattr(dsc, f"branch{branch}")
        assert np.array_equal(got, getattr(swapped, f"branch{branch}"),
                              equal_nan=True)
        assert np.array_equal(got, getattr(flipped, f"branch{3 - branch}"),
                              equal_nan=True)
    assert set(dsc.resonant) == set(swapped.resonant)
    assert set(dsc.resonant) == {(3 - branch, m, n)
                                 for branch, m, n in flipped.resonant}
