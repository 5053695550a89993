import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rabi2q import spectra
from rabi2q.errors import (ConfigError, ConvergenceFailure,
                           TruncationInsufficient)
from rabi2q.hamiltonian import (build_parity_band, build_parity_matrix,
                                expand_dense)
from rabi2q.model import ModelParams, Parity, TruncationConfig
from rabi2q.numerics import TIE_GAP, band_norm, eigh, eigh_banded_lowest
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


def test_out_of_range_inputs_raise_value_error():
    p = ModelParams(1.3, 0.7, 0.3, 0.4)
    with pytest.raises(ValueError, match="k must be >= 1"):
        rwa_relative_error(p, TruncationConfig(10), k=0)
    with pytest.raises(ValueError, match="n_cut must be >= 0"):
        dsc_perturbative_spectrum(p, 2, n_cut=-5)
    # at n_cut = 0 the only intermediate level of m = 0 is m itself
    spec = dsc_perturbative_spectrum(p, 2, n_cut=0)
    assert spec.branch1_shift[0] == spec.branch2_shift[0] == 0.0


def rwa_levels_full_basis(params, trunc, k):
    """k lowest converged levels of the full and the RWA Hamiltonian, from
    dense eigh of the Kronecker matrices and the 8-row edge mask of the
    product basis (two photon levels of four qubit pairs)."""
    out = []
    for rwa in (False, True):
        vals, vecs = np.linalg.eigh(kronecker_reference(params, trunc, rwa))
        out.append(vals[np.sum(vecs[-8:] ** 2, axis=0)
                        < spectra.GUARD_TOL][:k])
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
    # g = 0.3/0.4 certifies a window of 28 photons; at g = 0 the window's
    # levels tie, so dense eigh of the whole chain answers
    trunc = TruncationConfig(60)
    for p, rows in ((ModelParams(1.3, 0.7, 0.3, 0.4), 58),
                    (ModelParams(1.3, 0.7, 0.0, 0.0), trunc.chain_dim)):
        vals, vecs = converged_parity_eigensystem(p, Parity.EVEN, trunc, 5)
        assert vecs.shape == (rows, 5)
        assert vecs.base is None or vecs.base.nbytes == vecs.nbytes
        _assert_matches_dense(vals, vecs, p, Parity.EVEN, trunc, 5)


# levels of the dense spectrum closer than this (times ||H||) are compared
# as one degenerate cluster, by their subspace projector
CLUSTER_TOL = 1e-8


def _dense_converged(params, parity, trunc, k):
    """The first k guard-passing pairs of dense eigh of the whole chain."""
    dense = eigh(build_parity_matrix(params, parity, trunc))
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
@given(omega_1=FREQ, omega_2=FREQ, g_1=st.floats(-2.0, 2.0),
       g_2=st.floats(-2.0, 2.0), tie=st.sampled_from([None, 1.0, -1.0]),
       parity=st.sampled_from(Parity), n_max=st.integers(1, 60),
       count=st.integers(1, 40))
@example(omega_1=0.9, omega_2=1.1, g_1=0.4, g_2=0.0, tie=1.0,
         parity=Parity.EVEN, n_max=30, count=12)        # g2 = g1
@example(omega_1=0.9, omega_2=1.1, g_1=0.4, g_2=0.0, tie=-1.0,
         parity=Parity.ODD, n_max=30, count=12)         # g2 = -g1
@example(omega_1=0.0, omega_2=0.8, g_1=0.3, g_2=0.5, tie=None,
         parity=Parity.EVEN, n_max=30, count=12)        # omega_1 = 0
@example(omega_1=0.0, omega_2=0.0, g_1=0.5, g_2=0.0, tie=1.0,
         parity=Parity.ODD, n_max=30, count=16)         # omega_1 = omega_2 = 0
@example(omega_1=1.3, omega_2=0.7, g_1=G_CROSS, g_2=0.0, tie=1.0,
         parity=Parity.EVEN, n_max=60, count=10)        # in-parity crossing
@example(omega_1=1.3, omega_2=0.7, g_1=G_CROSS + 1e-8, g_2=0.0, tie=1.0,
         parity=Parity.EVEN, n_max=60, count=10)        # 3.4 tie gaps apart
@example(omega_1=1.3, omega_2=0.7, g_1=G_CROSS + 1e-6, g_2=0.0, tie=1.0,
         parity=Parity.EVEN, n_max=60, count=10)        # close pair
@example(omega_1=1.3, omega_2=0.7, g_1=1.5, g_2=0.0, tie=1.0,
         parity=Parity.EVEN, n_max=24, count=50)        # truncation edge
@example(omega_1=1.3, omega_2=0.7, g_1=1.5, g_2=-0.5, tie=None,
         parity=Parity.ODD, n_max=8, count=17)
def test_banded_kernel_matches_dense_on_chains(omega_1, omega_2, g_1, g_2,
                                               tie, parity, n_max, count):
    params = ModelParams(omega_1, omega_2, g_1,
                         g_2 if tie is None else tie * g_1)
    band = build_parity_band(params, parity, TruncationConfig(n_max))
    dim = band.shape[1]
    count = min(count, dim)
    dense = eigh(expand_dense(band))
    tie_gap = TIE_GAP * band_norm(band)
    gap = np.min(np.diff(dense.values[:count + 1]), initial=np.inf)
    try:
        vals, vecs = eigh_banded_lowest(band, count)
    except ConvergenceFailure:
        # only a tie among the count + 1 lowest levels stops the kernel
        assert gap <= 2 * tie_gap
        return
    assert gap > 0.5 * tie_gap
    assert vecs.shape == (dim, count)
    _assert_pairs_match(vals, vecs, dense, np.arange(count))


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
         n_max=120, k=10, window=60)                    # accepted at once
@example(omega_1=1.3, omega_2=0.7, g_1=1.2, g_2=0.5, parity=Parity.ODD,
         n_max=120, k=20, window=0)                     # widens
@example(omega_1=1.3, omega_2=0.7, g_1=0.8, g_2=-0.8, parity=Parity.EVEN,
         n_max=100, k=16, window=0)                     # g_plus = 0
@example(omega_1=1.3, omega_2=0.7, g_1=1.5, g_2=1.5, parity=Parity.EVEN,
         n_max=24, k=2, window=3)                       # reaches n_max
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
    solved = None if window is None else spectra._certified_window(
        build_parity_band(params, parity, trunc), k, window)
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
# a second level lies 1.06e-9 away: the window ties and dense eigh answers
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


def test_overflowing_banded_solve_falls_back_without_warning():
    # couplings of 8e-168 put entries near the float underflow into the
    # banded solve; the point is solved without a warning, by the banded
    # kernel or, should its checks fail, by dense eigh
    g = 8.183430930081774e-168
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals, _ = converged_parity_eigensystem(
            ModelParams(0.0, 0.5, g, g), Parity.EVEN, TruncationConfig(7), 1)
    assert vals.tolist() == [-0.25]


def test_huge_coupling_goes_to_dense_without_overflow():
    # the start window's square would overflow a float at this coupling
    p = ModelParams(1.0, 1.0, 1e160, 1e160)
    trunc = TruncationConfig(20)
    assert spectra._start_window(p, 2) >= trunc.n_max
    vals, vecs = converged_parity_eigensystem(p, Parity.EVEN, trunc, 2)
    _assert_matches_dense(vals, vecs, p, Parity.EVEN, trunc, 2)


def _window_dims(monkeypatch):
    """Dimensions of the bands the banded kernel is called on, in order."""
    dims = []

    def spy(band, count):
        dims.append(band.shape[1])
        return eigh_banded_lowest(band, count)

    monkeypatch.setattr(spectra, "eigh_banded_lowest", spy)
    return dims


def _window(params, parity, trunc, k, n_window):
    return spectra._certified_window(build_parity_band(params, parity, trunc),
                                     k, n_window)


def test_window_accepts_widens_or_reaches_chain_dimension(monkeypatch):
    dims = _window_dims(monkeypatch)
    p = ModelParams(1.3, 0.7, 0.3, 0.4)
    trunc = TruncationConfig(120)
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

    # no window below n_max certifies, the last one capped at n_max - 1
    # (48 rows), so the point goes to dense eigh of the whole chain
    dims.clear()
    p = ModelParams(1.3, 0.7, 1.5, 1.5)
    trunc = TruncationConfig(24)
    assert _window(p, Parity.EVEN, trunc, 1, 3) is None
    assert dims == [8, 12, 18, 28, 42, 48]
    vals, vecs = converged_parity_eigensystem(p, Parity.EVEN, trunc, 1)
    dense, keep = _dense_converged(p, Parity.EVEN, trunc, 1)
    assert np.array_equal(vals, dense.values[keep])
    assert np.array_equal(vecs, dense.vectors[:, keep])


def test_window_with_tied_levels_solves_whole_chain(monkeypatch):
    # at g = 0 the window's levels tie: one dense eigh of the whole chain
    # answers, with no banded solve of the whole chain
    dims = _window_dims(monkeypatch)
    p = ModelParams(1.3, 0.7, 0.0, 0.0)
    trunc = TruncationConfig(40)
    assert _window(p, Parity.EVEN, trunc, 10, 20) is None
    assert dims == [42]
    dims.clear()
    calls = []
    monkeypatch.setattr(spectra, "eigh",
                        lambda h: calls.append(h.shape) or eigh(h))
    vals, vecs = converged_parity_eigensystem(p, Parity.EVEN, trunc, 10)
    assert len(dims) == 1 and dims[0] < trunc.chain_dim
    assert calls == [(trunc.chain_dim, trunc.chain_dim)]
    dense, keep = _dense_converged(p, Parity.EVEN, trunc, 10)
    assert np.array_equal(vals, dense.values[keep])
    assert np.array_equal(vecs, dense.vectors[:, keep])


def test_crossings_on_window_rows_match_zero_padded_vectors():
    trunc = TruncationConfig(80)
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


@pytest.mark.parametrize("parity", list(Parity))
@pytest.mark.parametrize("g", [0.55, 0.58])
def test_window_ladder_tries_n_max_minus_one(monkeypatch, parity, g):
    # omega 1.3/0.7, g1 = g2, k = 12, n_max = 44: the start window (32 or 33
    # photons) fails and x1.5 would pass n_max, so the ladder tries 43
    # photons, which certifies, instead of going to the whole chain
    dims = _window_dims(monkeypatch)
    p = ModelParams(1.3, 0.7, g, g)
    trunc = TruncationConfig(44)
    vals, vecs = _window(p, parity, trunc, 12, spectra._start_window(p, 12))
    assert spectra._start_window(p, 12) in (32, 33)
    assert len(dims) == 2 and dims[0] < 88 and dims[1] == 88
    assert vecs.shape == (88, 12)
    _assert_matches_dense(vals, vecs, p, parity, trunc, 12)
    dense, keep = _dense_converged(p, parity, trunc, 12)
    assert np.max(np.abs(vals - dense.values[keep])) <= 1e-13


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


@settings(max_examples=80, deadline=None)
@given(omega_1=st.floats(0.0, 40.0), omega_2=st.floats(0.0, 40.0),
       g_1=st.floats(-2.0, 2.0), g_2=st.floats(-2.0, 2.0),
       parity=st.sampled_from(Parity), n_max=st.integers(1, 40),
       cut=st.floats(0.0, 1.0), where=st.floats(0.0, 1.0))
@example(omega_1=30.06, omega_2=29.94, g_1=0.0, g_2=0.0, parity=Parity.EVEN,
         n_max=40, cut=0.5, where=0.2)
def test_no_level_below_counts_like_dense(omega_1, omega_2, g_1, g_2, parity,
                                          n_max, cut, where):
    params = ModelParams(omega_1, omega_2, g_1, g_2)
    trunc = TruncationConfig(n_max)
    h = build_parity_matrix(params, parity, trunc)
    window_dim = 2 * (1 + int(cut * (n_max - 1)))
    whole = np.linalg.eigvalsh(h)
    window = np.linalg.eigvalsh(h[:window_dim, :window_dim])
    x = whole[0] - 1.0 + where * (whole[-1] - whole[0] + 1.0)
    assume(min(np.min(np.abs(whole - x)), np.min(np.abs(window - x))) > 1e-8)
    band = build_parity_band(params, parity, trunc)
    assert spectra._no_level_below(band, window_dim, x) == \
        (np.sum(whole < x) == np.sum(window < x))
