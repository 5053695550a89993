import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies

from rabi2q import dynamics as dyn
from rabi2q.errors import (ConfigError, InvalidDensityMatrix,
                           TruncationInsufficient)
from rabi2q.hamiltonian import build_parity_band, build_rwa_band
from rabi2q.model import (PAIR_ORDER, ModelParams, Parity, QubitLevel,
                          TruncationConfig, basis_table)
from rabi2q.numerics import (EigenDecomposition, band_matvec, band_norm,
                             eigh, expand_dense, padded_residuals)

from oracles import (both_flipped, exchanged, g1_flipped,
                     kronecker_reference, mp_concurrence,
                     propagate_reference, quartic_coefficients_from_block,
                     reduced_density_matrix_partial_trace,
                     zero_frequency_evolution)

G, E = QubitLevel.G, QubitLevel.E
T40 = TruncationConfig(40)


def random_state(rng, trunc=T40):
    ce = rng.normal(size=trunc.chain_dim) + 1j * rng.normal(
        size=trunc.chain_dim)
    co = rng.normal(size=trunc.chain_dim) + 1j * rng.normal(
        size=trunc.chain_dim)
    norm = np.sqrt(np.sum(np.abs(ce) ** 2) + np.sum(np.abs(co) ** 2))
    return dyn.ParityDecomposedState(ce / norm, co / norm, trunc)


# ---------------------------------------------------------------------------
# initial states
# ---------------------------------------------------------------------------

def test_initial_state_round_trips_through_to_full():
    # decompose_initial_state routes |n, q1, q2> to a chain slot and
    # to_full must put it back on row 4 n + (pair position)
    trunc = TruncationConfig(5)
    for n in range(trunc.n_max + 1):
        for k, pair in enumerate(PAIR_ORDER):
            psi = dyn.decompose_initial_state(n, *pair, trunc).to_full()
            expected = np.zeros(trunc.full_dim)
            expected[4 * n + k] = 1.0
            assert np.array_equal(psi, expected)


def test_fock_vacuum_goes_to_even_origin():
    st = dyn.decompose_initial_state(0, G, G, T40)
    assert st.c_even[0] == 1.0
    assert np.all(st.c_even[1:] == 0) and np.all(st.c_odd == 0)


def test_one_photon_excited_routes_to_even_chain():
    st = dyn.decompose_initial_state(1, E, G, T40)
    assert st.c_even[2] == 1.0
    assert np.linalg.norm(st.c_odd) == 0.0


def test_coherent_parity_weights():
    st = dyn.decompose_initial_state(("coherent", np.sqrt(2)), G, G, T40)
    we, wo = (np.sum(np.abs(st.chain(parity)) ** 2) for parity in Parity)
    assert we == pytest.approx((1 + np.exp(-4)) / 2, abs=1e-12)
    assert we + wo == pytest.approx(1.0, abs=1e-12)


def test_negative_fock_level_rejected():
    # a negative level would index the amplitudes from the top
    with pytest.raises(ValueError, match="Fock level"):
        dyn.decompose_initial_state(-1, G, G, T40)


def test_coherent_leakage_guard():
    with pytest.raises(TruncationInsufficient):
        dyn.decompose_initial_state(("coherent", 4.0), G, G,
                                    TruncationConfig(12))
    # either side of the 1e-12 bound at n_max 20: alpha 1.7 leaks 6.0e-12
    # and raises, alpha 1.6 leaks 6.4e-13 and passes
    with pytest.raises(TruncationInsufficient, match="leaks 5.97e-12"):
        dyn.decompose_initial_state(("coherent", 1.7), G, G,
                                    TruncationConfig(20))
    dyn.decompose_initial_state(("coherent", 1.6), G, G, TruncationConfig(20))
    with pytest.raises(TruncationInsufficient):
        dyn.decompose_initial_state(50, G, G, T40)


def test_coherent_past_float_range_leaks_wholly():
    # |alpha|^2 passes the float range: no amplitude fits, leakage 1
    for alpha in (1e200, -1e300j):
        with pytest.raises(TruncationInsufficient, match="leaks 1.00e"):
            dyn.decompose_initial_state(("coherent", alpha), G, G, T40)


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------

def test_mean_photon_number_examples():
    st = dyn.decompose_initial_state(("coherent", np.sqrt(2)), G, G, T40)
    assert dyn.mean_photon_number(st) == pytest.approx(2.0, abs=1e-10)
    st = dyn.decompose_initial_state(3, E, E, T40)
    assert dyn.mean_photon_number(st) == 3.0
    ce = np.zeros(T40.chain_dim, complex)
    ce[0] = ce[4] = 1 / np.sqrt(2)  # |0,g,g> and |2,g,g>
    st = dyn.ParityDecomposedState(ce, np.zeros_like(ce), T40)
    assert dyn.mean_photon_number(st) == pytest.approx(1.0)


def test_population_inversion_examples():
    assert dyn.population_inversion(
        dyn.decompose_initial_state(2, G, G, T40)) == -1.0
    assert dyn.population_inversion(
        dyn.decompose_initial_state(2, E, G, T40)) == 0.0
    assert dyn.population_inversion(
        dyn.decompose_initial_state(2, E, E, T40)) == 1.0


def test_rho_q_pure_projector():
    st = dyn.decompose_initial_state(0, G, G, T40)
    rho = dyn.reduced_density_matrix(st)
    expected = np.zeros((4, 4))
    expected[3, 3] = 1.0
    assert np.allclose(rho, expected, atol=1e-14)


def test_rho_q_bell_projector():
    co = np.zeros(T40.chain_dim, complex)
    co[0] = co[1] = 1 / np.sqrt(2)  # (|0,e,g> + |0,g,e>)/sqrt(2)
    st = dyn.ParityDecomposedState(np.zeros_like(co), co, T40)
    rho = dyn.reduced_density_matrix(st)
    assert dyn.concurrence(rho) == pytest.approx(1.0, abs=1e-12)
    assert dyn.von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-10)


def test_rho_q_matches_partial_trace_on_random_states():
    rng = np.random.default_rng(11)
    for _ in range(25):
        st = random_state(rng)
        direct = dyn.reduced_density_matrix(st)
        oracle = reduced_density_matrix_partial_trace(st)
        assert np.max(np.abs(direct - oracle)) < 1e-12
        assert np.trace(direct).real == pytest.approx(1.0, abs=1e-10)


def test_entropy_examples():
    assert dyn.von_neumann_entropy(np.eye(4) / 4) == pytest.approx(np.log(4))
    assert dyn.von_neumann_entropy(np.diag([0.5, 0.5, 0, 0])) == \
        pytest.approx(np.log(2))
    proj = np.zeros((4, 4))
    proj[1, 1] = 1.0
    assert dyn.von_neumann_entropy(proj) == 0.0


def test_invalid_density_matrix_raises():
    bad = np.diag([1.1, -0.1, 0.0, 0.0])
    good = np.eye(4) / 4
    for rho in (bad, np.array([good, bad, good])):
        with pytest.raises(InvalidDensityMatrix, match="-1.000e-01"):
            dyn.von_neumann_entropy(rho)
        with pytest.raises(InvalidDensityMatrix):
            dyn.concurrence(rho)


def test_density_matrix_eigenvalue_bound_is_minus_1e_8():
    # an eigenvalue of -2e-8 passes the bound and raises; one of -5e-9 is
    # taken as rounding and clipped to 0
    bad = np.diag([0.5 + 1e-8, 0.5 + 1e-8, -2e-8, 0.0])
    with pytest.raises(InvalidDensityMatrix, match="-2.000e-08"):
        dyn.von_neumann_entropy(bad)
    with pytest.raises(InvalidDensityMatrix, match="-2.000e-08"):
        dyn.concurrence(bad)
    near = np.diag([0.5 + 2.5e-9, 0.5 + 2.5e-9, -5e-9, 0.0])
    evals, _ = dyn._check_density_matrix(near)
    assert np.min(evals) == 0.0
    assert dyn.von_neumann_entropy(near) == pytest.approx(np.log(2),
                                                          abs=1e-7)
    assert dyn.concurrence(near) >= 0.0


def test_density_matrix_eigenvalue_at_minus_1e_8_passes():
    # the bound is strict: an eigenvalue of exactly -1e-8 is rounding and
    # passes, the next float below it raises
    at = np.diag([0.5 + 5e-9, 0.5 + 5e-9, -1e-8, 0.0])
    assert dyn.von_neumann_entropy(at) == pytest.approx(np.log(2), abs=1e-7)
    below = np.diag([0.5 + 5e-9, 0.5 + 5e-9, np.nextafter(-1e-8, -1), 0.0])
    with pytest.raises(InvalidDensityMatrix):
        dyn.von_neumann_entropy(below)


def test_density_matrix_is_taken_by_its_hermitian_part():
    # LAPACK reads one triangle of a matrix; the observables read the
    # hermitian part (rho + rho^dagger) / 2 of what they are given, so an
    # anti-hermitian error leaves entropy and concurrence as they were,
    # where the lower triangle alone would move both
    phi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    werner = 0.8 * np.outer(phi, phi) + 0.05 * np.eye(4)
    skew = np.zeros((4, 4), dtype=complex)
    skew[0, 3], skew[3, 0] = 0.1 + 0.05j, -0.1 + 0.05j
    given_ = werner + skew
    lower = np.tril(given_) + np.tril(given_, -1).conj().T
    for f in (dyn.von_neumann_entropy, dyn.concurrence):
        assert f(given_) == pytest.approx(f(werner), abs=1e-15)
        assert abs(f(lower) - f(werner)) > 1e-3


def test_concurrence_product_state_and_werner():
    for pair in ((E, G), (G, G), (E, E)):
        st = dyn.decompose_initial_state(0, *pair, T40)
        assert dyn.concurrence(dyn.reduced_density_matrix(st)) == \
            pytest.approx(0.0, abs=1e-10)
    bell = np.zeros(4, complex)
    bell[1] = bell[2] = 1 / np.sqrt(2)
    for p in (0.2, 0.5, 0.8):
        rho = p * np.outer(bell, bell.conj()) + (1 - p) * np.eye(4) / 4
        assert dyn.concurrence(rho) == pytest.approx(
            max(0.0, (3 * p - 1) / 2), abs=1e-12)


def test_pure_state_bipartite_entropy_symmetry():
    rng = np.random.default_rng(21)
    for _ in range(5):
        st = random_state(rng)
        s_q = dyn.von_neumann_entropy(dyn.reduced_density_matrix(st))
        psi = st.to_full().reshape(-1, 4)
        rho_field = psi @ psi.conj().T
        evals = np.clip(np.linalg.eigvalsh(rho_field), 0, None)
        nz = evals[evals > 1e-16]
        s_f = float(-np.sum(nz * np.log(nz)))
        assert s_q == pytest.approx(s_f, abs=1e-8)


# ---------------------------------------------------------------------------
# parity-chain evolution
# ---------------------------------------------------------------------------

def test_decoupled_observables_constant():
    st = dyn.decompose_initial_state(1, G, G, T40)
    traj = dyn.evolve_parity(st, ModelParams(1.3, 0.7, 0.0, 0.0),
                             np.linspace(0, 10, 21))
    assert np.allclose(traj.mean_n, 1.0, atol=1e-12)
    assert np.allclose(traj.s_z, -1.0, atol=1e-12)


def test_conservation_suite_short():
    st = dyn.decompose_initial_state(("coherent", np.sqrt(2)), G, G,
                                     TruncationConfig(60))
    traj = dyn.evolve_parity(st, ModelParams(1.1, 0.3, 0.3, 0.4),
                             np.linspace(0, 25, 101))
    assert np.max(np.abs(traj.norms - 1.0)) < 1e-10
    assert np.max(np.abs(traj.energy - traj.energy[0])) < \
        1e-8 * abs(traj.energy[0])
    assert np.max(np.abs(traj.weight_even - traj.weight_even[0])) < 1e-10
    assert np.all(traj.entropy >= -1e-12)
    assert np.all(traj.entropy <= np.log(4) + 1e-12)
    assert np.all(traj.concurrence >= 0.0)
    assert np.all(traj.concurrence <= 1.0 + 1e-12)
    assert np.all(traj.mean_n >= 0.0)
    assert np.all(np.abs(traj.s_z) <= 1.0 + 1e-12)


def test_energy_drift_detects_wrong_eigenvectors(monkeypatch):
    # mixing eigenvectors 0 and 1 by pi/4 keeps an orthonormal basis and
    # the eigenvalues, but the propagator no longer solves H: the energy
    # diagnostic must see it with the bound of the conservation suite, for
    # the chain eigenvectors of both engines (a 1x1 matrix stays as it is)
    def rotated_eigh(h):
        vals, vecs = eigh(h)
        if vals.shape[-1] < 2:
            return EigenDecomposition(vals, vecs)
        vecs = vecs.copy()
        v0, v1 = vecs[..., 0].copy(), vecs[..., 1].copy()
        vecs[..., 0] = (v0 - v1) / np.sqrt(2.0)
        vecs[..., 1] = (v0 + v1) / np.sqrt(2.0)
        return EigenDecomposition(vals, vecs)

    st = dyn.decompose_initial_state(("coherent", np.sqrt(2)), G, G,
                                     TruncationConfig(60))
    params = ModelParams(1.1, 0.3, 0.3, 0.4)
    times = np.linspace(0, 25, 101)

    def drift(evolve):
        energy = evolve(st, params, times).energy
        return np.max(np.abs(energy - energy[0])) / abs(energy[0])

    assert drift(dyn.evolve_rwa_closed_form) < 1e-8
    monkeypatch.setattr(dyn, "eigh", rotated_eigh)
    for evolve in (dyn.evolve_parity, dyn.evolve_rwa_closed_form):
        assert drift(evolve) > 1e-8, evolve.__name__


def test_truncation_guard_raises_and_records():
    # park the state on the truncation edge so the guard must trip
    trunc = TruncationConfig(6)
    st = dyn.decompose_initial_state(6, E, G, trunc)
    params = ModelParams(1.0, 1.0, 0.4, 0.3)
    for evolve in (dyn.evolve_parity, dyn.evolve_rwa_closed_form):
        with pytest.raises(TruncationInsufficient):
            evolve(st, params, [0.0, 1.0])
    traj = dyn.evolve_parity(st, params, [0.0, 1.0], on_guard="record")
    assert traj.max_edge_weight > dyn.EDGE_WEIGHT_TOL


@pytest.mark.parametrize("times", [[], [np.nan], [0.0, np.inf],
                                   [[0.0, 1.0]]])
def test_bad_times_are_rejected_up_front(times):
    # empty, non-finite or 2-d times are a configuration error in both
    # engines, before any chain is solved
    st = dyn.decompose_initial_state(("coherent", 1.0), G, G,
                                     TruncationConfig(20))
    params = ModelParams(1.1, 0.3, 0.3, 0.4)
    for evolve in (dyn.evolve_parity, dyn.evolve_rwa_closed_form):
        with pytest.raises(ConfigError, match="times"):
            evolve(st, params, times)


def test_phases_past_the_float_range_are_a_config_error():
    # E t overflows at t = 1e308; both engines raise before the phases are
    # formed, so no overflow warning (an error under the pyproject filter)
    # escapes
    st = dyn.decompose_initial_state(3, G, G, T40)
    params = ModelParams(1.1, 0.3, 0.3, 0.4)
    for evolve in (dyn.evolve_parity, dyn.evolve_rwa_closed_form):
        with pytest.raises(ConfigError, match="float range"):
            evolve(st, params, [0.0, 1e308])


def test_edge_guard_is_strict_at_1e_6():
    # decoupled, the chains are diagonal, so at t = 0 the propagated state
    # is c0 to the bit: 0.001^2 is 1e-6 exactly on the top photon level,
    # which passes; the next float up raises
    trunc = TruncationConfig(6)
    params = ModelParams(1.3, 0.7, 0.0, 0.0)
    for top, raises in ((0.001, False), (np.nextafter(0.001, 1), True)):
        c_even = np.zeros(trunc.chain_dim, dtype=complex)
        c_even[0], c_even[-1] = 1.0, top
        st = dyn.ParityDecomposedState(c_even, np.zeros_like(c_even), trunc)
        if raises:
            with pytest.raises(TruncationInsufficient):
                dyn.evolve_parity(st, params, [0.0])
        else:
            traj = dyn.evolve_parity(st, params, [0.0])
            assert traj.max_edge_weight == dyn.EDGE_WEIGHT_TOL


def test_norms_are_the_state_norm_not_its_square():
    # an initial state of norm 2 keeps norm 2 (weights summing to 4)
    st = dyn.decompose_initial_state(("coherent", np.sqrt(2)), G, G,
                                     TruncationConfig(60))
    double = dyn.ParityDecomposedState(2 * st.c_even, 2 * st.c_odd,
                                       st.trunc)
    traj = dyn.evolve_parity(double, ModelParams(1.1, 0.3, 0.3, 0.4),
                             np.linspace(0, 5, 11))
    assert np.max(np.abs(traj.norms - 2.0)) < 1e-12
    assert np.max(np.abs(traj.weight_even + traj.weight_odd - 4.0)) < 1e-12


def test_edge_guard_sits_at_1e_6():
    # the vacuum spreads up a short chain: by t = 0.6 the top two photon
    # levels hold 4.9e-7 and the run passes, by t = 0.7 they hold 2.0e-6
    # and it raises
    trunc = TruncationConfig(6)
    st = dyn.decompose_initial_state(0, G, G, trunc)
    params = ModelParams(1.0, 1.0, 0.4, 0.3)
    assert dyn.evolve_parity(st, params, [0.0, 0.6]).max_edge_weight < 5e-7
    with pytest.raises(TruncationInsufficient, match="weight 1.99e-06 .* at "
                       "t=0.7;"):
        dyn.evolve_parity(st, params, [0.0, 0.7])


def test_guard_names_first_offending_time():
    # the vacuum spreads up a short chain: the edge weight starts at zero
    # and crosses the tolerance part way through the run
    trunc = TruncationConfig(6)
    st = dyn.decompose_initial_state(0, G, G, trunc)
    params = ModelParams(1.0, 1.0, 0.4, 0.3)
    times = np.linspace(0.0, 10.0, 41)
    traj = dyn.evolve_parity(st, params, times, on_guard="record")
    edge = sum(np.sum(np.abs(traj.state.chain(parity)[-4:]) ** 2, axis=0)
               for parity in Parity)
    assert traj.max_edge_weight == np.max(edge)
    first = int(np.argmax(edge > dyn.EDGE_WEIGHT_TOL))
    assert 0 < first < len(times) - 1
    with pytest.raises(TruncationInsufficient,
                       match=f"{edge[first]:.2e} .* at t={times[first]:g};"):
        dyn.evolve_parity(st, params, times)
    # the RWA engine keeps the vacuum still; |3,e,e> lies in a sector that
    # reaches the top two photon levels, and a dense propagation of the RWA
    # chains gives its first offending time
    st = dyn.decompose_initial_state(3, E, E, trunc)
    edge = sum(np.sum(np.abs(propagate_reference(
        eigh(expand_dense(build_rwa_band(params, parity, trunc))),
        st.chain(parity), times)[-4:]) ** 2, axis=0) for parity in Parity)
    first = int(np.argmax(edge > dyn.EDGE_WEIGHT_TOL))
    assert 0 < first < len(times) - 1
    with pytest.raises(TruncationInsufficient,
                       match=f"{edge[first]:.2e} .* at t={times[first]:g};"):
        dyn.evolve_rwa_closed_form(st, params, times)


def test_trajectory_state_columns_are_the_propagated_states():
    trunc = TruncationConfig(30)
    params = ModelParams(1.1, 0.3, 0.3, 0.4)
    st = dyn.decompose_initial_state(("coherent", 1.0), G, E, trunc)
    times = np.linspace(0.0, 5.0, 6)
    traj = dyn.evolve_parity(st, params, times)
    assert traj.state.trunc == trunc
    for parity in Parity:
        decomp = eigh(expand_dense(build_parity_band(params, parity, trunc)))
        got = traj.state.chain(parity)
        for k, t in enumerate(times):
            ref = propagate_reference(decomp, st.chain(parity), t)
            assert np.max(np.abs(got[:, k] - ref)) < 1e-12


@settings(max_examples=50, deadline=None)
@given(strategies.integers(40, 90), strategies.floats(0.0, 2.0),
       strategies.floats(0.0, 2.0), strategies.floats(-0.8, 0.8),
       strategies.floats(-0.8, 0.8),
       strategies.sampled_from([1.0, -1.0, None]),
       strategies.one_of(strategies.integers(0, 90),
                         strategies.floats(0.0, 2.5)),
       strategies.sampled_from(PAIR_ORDER))
@example(60, 1.3, 0.7, 0.0, 0.0, None, 3, (G, G))        # g = 0, tied levels
@example(60, 1.1, 0.3, 0.3, 0.0, 1.0, 1.0, (E, G))       # g1 = g2
@example(60, 1.1, 0.3, 0.4, 0.0, -1.0, 1.4, (G, G))      # g1 = -g2
@example(60, 0.0, 0.0, 0.3, 0.4, None, 0, (E, E))        # omega_j = 0
@example(1, 0.0, 0.0, 0.0, 0.0, None, 1e-3, (E, G))      # g = 0, omega_j = 0
@example(2, 1.0, 1.0, 0.4, 0.0, -1.0, 1e-3, (G, E))      # g1 = -g2, resonant
@example(40, 0.0, 1.3, 0.7, 0.0, 1.0, 1.0, (G, G))       # g1 = g2
@example(50, 1.1, 0.3, 0.3, 0.4, None, 2.0, (G, G))      # coherent, window
@example(40, 1.1, 0.3, 0.3, 0.4, None, 15, (G, E))       # past half: fallback
@example(40, 1.1, 0.3, 0.3, 0.4, None, 40, (G, G))       # on the edge
@example(40, 0.0, 0.0, 0.0, 0.0, 1.0, 2.2e-309, (E, E))  # odd-chain weight 0
def test_windowed_trajectory_matches_whole_chain(n_max, omega_1, omega_2, g_1,
                                                 g_2, tie, field, qubits):
    # both engines propagate every chain on a certified photon window or,
    # past half the chain, on the whole chain: the state must agree with
    # dense eigh of the whole chain band, full or RWA, to 1e-10 for
    # t <= 25, and a state already past half the chain must take the whole
    # chain
    params = ModelParams(omega_1, omega_2, g_1,
                         g_2 if tie is None else tie * g_1)
    trunc = TruncationConfig(n_max)
    field = min(field, n_max) if isinstance(field, int) else ("coherent",
                                                               field)
    st = dyn.decompose_initial_state(field, *qubits, trunc)
    times = np.linspace(0.0, 25.0, 26)
    for build_band, traj in (
            (build_parity_band,
             dyn.evolve_parity(st, params, times, on_guard="record")),
            (build_rwa_band, dyn._evolve(st, params, times, build_rwa_band,
                                         "record"))):
        for parity in Parity:
            c0 = st.chain(parity)
            got = traj.state.chain(parity)
            ref = propagate_reference(
                eigh(expand_dense(build_band(params, parity, trunc))), c0,
                times)
            assert np.max(np.abs(got - ref)) <= 1e-10, parity
            weight = np.abs(c0) ** 2
            if not np.any(weight):
                assert traj.photons[parity] == 0 and not np.any(got)
                continue
            n_s = np.flatnonzero(weight[0::2] + weight[1::2]
                                 > 1e-32 * np.sum(weight))[-1]
            photons = traj.photons[parity]
            if 2 * (n_s + 1) > (n_max + 1):
                assert photons == n_max + 1, parity
            else:
                assert (n_s < photons <= (n_max + 1) / 2
                        or photons == n_max + 1)
            assert 0.0 <= traj.dropped_weight[parity] <= 1e-30 * np.sum(
                weight)


@pytest.mark.parametrize("g_1, g_2, n_max, tol", [
    (0.3, 0.4, 120, 1e-12),
    # deep strong coupling: the truncation at n_max 340 costs 2.3e-7 in
    # mean_n (at 300 it passes the edge guard yet costs 1.7e-2)
    (3.0, 4.0, 340, 1e-6)])
def test_zero_frequency_dynamics_matches_coherent_states(g_1, g_2, n_max,
                                                         tol):
    # at omega_1 = omega_2 = 0 each sigma_x sector carries a coherent state
    # to a coherent state: the exact trajectory of |sqrt 2, gg> to t = 100
    times = np.linspace(0.0, 100.0, 1001)
    state = dyn.decompose_initial_state(("coherent", np.sqrt(2.0)), G, G,
                                        TruncationConfig(n_max))
    traj = dyn.evolve_parity(state, ModelParams(0.0, 0.0, g_1, g_2), times)
    mean_n, rho = zero_frequency_evolution(g_1, g_2, np.sqrt(2.0), times)
    lam = np.linalg.eigvalsh(rho)
    want = {"mean_n": mean_n, "s_z": (rho[:, 0, 0] - rho[:, 3, 3]).real,
            "entropy": -np.sum(lam * np.log(np.where(lam > 0, lam, 1.0)),
                               axis=1),
            "concurrence": dyn.concurrence(rho)}
    for name, values in want.items():
        assert np.max(np.abs(getattr(traj, name) - values)) <= tol, name


@pytest.mark.parametrize("field", [3, 10, ("coherent", 1.5)])
def test_tight_windows_widen_until_certified(field):
    # the first window just holds the state's photons, so the window levels
    # that carry it reach the window edge: only the residual certificate
    # makes the window widen until the propagated state is right
    params = ModelParams(1.1, 0.3, 0.3, 0.4)
    trunc = TruncationConfig(300)
    st = dyn.decompose_initial_state(field, G, G, trunc)
    times = np.linspace(0.0, 25.0, 26)
    traj = dyn.evolve_parity(st, params, times)
    assert 0 < max(traj.photons.values()) <= 150
    for parity in Parity:
        c0 = st.chain(parity)
        ref = propagate_reference(
            eigh(expand_dense(build_parity_band(params, parity, trunc))), c0,
            times)
        assert np.max(np.abs(traj.state.chain(parity) - ref)) <= 1e-10
        if traj.photons[parity]:
            # every level that propagates has a residual no larger than
            # whole-chain eigh leaves, 8 eps ||H||_inf
            band = build_parity_band(params, parity, trunc)
            (values, vectors, _, _), _ = dyn._window_levels(band, c0)
            assert np.max(padded_residuals(band, values, vectors)) <= (
                8 * np.finfo(float).eps * band_norm(band))


def test_window_route_and_dropped_weight_of_known_levels(monkeypatch):
    # decoupled, the chain levels are its slots, so the state's level
    # weights are its slot weights: 1 on the ground slot, 2e-31 and 3e-31
    # inside the window, and 4e-33 on each of ten slots past it (each below
    # the 1e-32 that sets n_s = 2).  The window 0..n_s keeps the ground
    # level alone, and the dropped weight is everything else
    params = ModelParams(1.3, 0.7, 0.0, 0.0)
    trunc = TruncationConfig(60)
    c_even = np.zeros(trunc.chain_dim, dtype=complex)
    c_even[0] = 1.0
    c_even[[3, 5]] = np.sqrt([2e-31, 3e-31])
    c_even[60:80:2] = np.sqrt(4e-33)
    st = dyn.ParityDecomposedState(c_even, np.zeros_like(c_even), trunc)
    times = np.linspace(0.0, 10.0, 11)
    traj = dyn.evolve_parity(st, params, times)
    assert traj.photons == {Parity.EVEN: 3, Parity.ODD: 0}
    dropped = 5e-31 + 10 * 4e-33
    assert abs(traj.dropped_weight[Parity.EVEN] - dropped) <= 1e-12 * dropped
    assert traj.dropped_weight[Parity.ODD] == 0.0
    kept = np.zeros_like(traj.state.c_even)
    kept[0] = np.exp(1j * times)           # |0, g, g> has energy -1
    assert np.array_equal(traj.state.c_even != 0, kept != 0)
    assert np.max(np.abs(traj.state.c_even - kept)) < 1e-14
    # decoupled, every window residual is exactly 0, so the window still
    # certifies at a zero tolerance: a residual at the bound is within it
    monkeypatch.setattr(dyn, "RESIDUAL_TOL", 0.0)
    assert dyn.evolve_parity(st, params, times).photons == traj.photons


def test_empty_chain_is_not_solved(monkeypatch):
    # |2, g, g> lies wholly in the even chain: the odd chain gets no
    # eigensolve and stays exactly zero, in both engines
    st = dyn.decompose_initial_state(2, G, G, TruncationConfig(300))
    params = ModelParams(1.1, 0.3, 0.3, 0.4)
    times = np.linspace(0.0, 5.0, 11)
    calls = []

    def counted(solve):
        def wrapper(*args):
            calls.append(solve.__name__)
            return solve(*args)
        return wrapper

    monkeypatch.setattr(dyn, "_window_levels", counted(dyn._window_levels))
    for evolve in (dyn.evolve_parity, dyn.evolve_rwa_closed_form):
        calls.clear()
        traj = evolve(st, params, times)
        assert len(calls) == 1, evolve.__name__
        assert traj.photons[Parity.ODD] == 0
        assert traj.dropped_weight[Parity.ODD] == 0.0
        assert not np.any(traj.state.c_odd)
        assert np.max(np.abs(traj.norms - 1.0)) < 1e-12


# ---------------------------------------------------------------------------
# trajectories stream over blocks of output times
# ---------------------------------------------------------------------------

def _stack_observables(state, params, build_band):
    """Every trajectory observable, taken on the whole stack of states by
    the public single-stack observables and plain sums."""
    weights = {parity: np.sum(np.abs(state.chain(parity)) ** 2, axis=0)
               for parity in Parity}
    edge = sum(np.sum(np.abs(state.chain(parity)[-4:]) ** 2, axis=0)
               for parity in Parity)
    energy = sum(np.real(np.sum(state.chain(parity).conj() * band_matvec(
        build_band(params, parity, state.trunc), state.chain(parity)),
        axis=0)) for parity in Parity)
    rho = dyn.reduced_density_matrix(state)
    return {"mean_n": dyn.mean_photon_number(state),
            "s_z": dyn.population_inversion(state),
            "entropy": dyn.von_neumann_entropy(rho),
            "concurrence": dyn.concurrence(rho),
            "norms": np.sqrt(weights[Parity.EVEN] + weights[Parity.ODD]),
            "weight_even": weights[Parity.EVEN],
            "weight_odd": weights[Parity.ODD],
            "max_edge_weight": np.max(edge), "energy": energy}


@pytest.mark.parametrize("n_times", [1, dyn.TIME_BLOCK - 1, dyn.TIME_BLOCK,
                                     dyn.TIME_BLOCK + 1, 1001])
@pytest.mark.parametrize("build_band", [build_parity_band, build_rwa_band])
@settings(max_examples=3, deadline=None)
@given(strategies.floats(0.0, 1.5), strategies.floats(-0.6, 0.6),
       strategies.floats(-0.6, 0.6),
       strategies.sampled_from([("coherent", 1.5), 2, 5]))
@example(1.1, 0.3, 0.4, ("coherent", 1.5))
@example(1.1, 0.3, 0.4, 2)                       # the odd chain is empty
def test_streamed_observables_match_the_whole_stack(n_times, build_band,
                                                    omega, g_1, g_2, field):
    # the trajectory takes its observables TIME_BLOCK output times at a
    # time; on the whole stack Trajectory.state the public observables
    # must give the same values, whatever the block edges
    params = ModelParams(omega, 0.3, g_1, g_2)
    trunc = TruncationConfig(40)
    st = dyn.decompose_initial_state(field, G, G, trunc)
    times = np.linspace(0.0, 25.0, n_times)
    traj = dyn._evolve(st, params, times, build_band, "record")
    state = traj.state
    assert state.c_even.shape == (trunc.chain_dim, n_times)
    if field == 2:
        assert Parity.ODD not in traj.levels and not np.any(state.c_odd)
    for name, want in _stack_observables(state, params, build_band).items():
        got = getattr(traj, name)
        assert np.shape(got) == np.shape(want), name
        assert np.max(np.abs(got - want)) <= 1e-13 * max(
            1.0, np.max(np.abs(want))), name


@pytest.mark.parametrize("build_band, params, field, n_max, photons", [
    # Fig. 2 at its cutoff: windows of 84 and 37 photons of 301
    (build_parity_band, ModelParams(1.1, 0.3, 0.3, 0.4),
     ("coherent", 1.41421356), 300, 84),
    (build_rwa_band, ModelParams(1.1, 0.3, 0.3, 0.4),
     ("coherent", 1.41421356), 300, 37),
    # |0, gg> at g = 0: a one-photon window, and an empty odd chain
    (build_parity_band, ModelParams(1.1, 0.3, 0.0, 0.0), 0, 40, 1),
    (build_rwa_band, ModelParams(1.1, 0.3, 0.3, 0.4), 0, 40, 1)])
def test_windowed_observables_take_only_the_solved_photons(
        build_band, params, field, n_max, photons):
    # the observables run on the photons of the widest solved window, yet
    # every column is that of the public observables of the whole state,
    # and the edge weight on photons past the window is exactly 0
    st = dyn.decompose_initial_state(field, G, G, TruncationConfig(n_max))
    times = np.linspace(0.0, 25.0, dyn.TIME_BLOCK + 72)
    traj = dyn._evolve(st, params, times, build_band, "record")
    assert max(traj.photons.values()) == photons
    state = traj.state
    assert state.c_even.shape == (2 * (n_max + 1), len(times))
    want = _stack_observables(state, params, build_band)
    assert traj.max_edge_weight == 0.0 == want.pop("max_edge_weight")
    del want["energy"]      # a band product here, not an observable
    for name, column in want.items():
        assert np.max(np.abs(getattr(traj, name) - column)) <= 1e-15 * max(
            1.0, np.max(np.abs(column))), name


@pytest.mark.parametrize("build_band,level,qubits,t_max", [
    (build_parity_band, 0, (G, G), 1.0), (build_rwa_band, 3, (E, E), 0.1)])
def test_guard_in_a_later_block_names_the_first_time(build_band, level,
                                                     qubits, t_max):
    # the edge weight first passes the tolerance past the first block of
    # output times: the run stops at that block and names the same first
    # time as a check of the whole stack
    trunc = TruncationConfig(6)
    st = dyn.decompose_initial_state(level, *qubits, trunc)
    params = ModelParams(1.0, 1.0, 0.4, 0.3)
    times = np.linspace(0.0, t_max, 4 * dyn.TIME_BLOCK + 1)
    state = dyn._evolve(st, params, times, build_band, "record").state
    edge = sum(np.sum(np.abs(state.chain(parity)[-4:]) ** 2, axis=0)
               for parity in Parity)
    first = int(np.argmax(edge > dyn.EDGE_WEIGHT_TOL))
    assert dyn.TIME_BLOCK <= first < len(times) - 1
    with pytest.raises(TruncationInsufficient,
                       match=f"{edge[first]:.2e} .* at t={times[first]:g};"):
        dyn._evolve(st, params, times, build_band, "raise")


def test_trajectory_holds_no_chain_by_times_amplitudes():
    # 4,001 output times of the n_max 120 chains: the state would take
    # 2 x chain_dim x T complex amplitudes, and the run may trace at most a
    # quarter of that at its peak.  From 4,001 to 40,001 times the peak may
    # grow by at most 200 bytes per added time: the scalar columns take
    # about 70, and a (T, 4, 4) stack of rho alone would take 256
    trunc = TruncationConfig(120)
    st = dyn.decompose_initial_state(("coherent", np.sqrt(2.0)), G, G, trunc)
    params = ModelParams(1.1, 0.3, 0.3, 0.4)
    peaks = []
    for n_times in (4001, 40001):
        times = np.linspace(0.0, 100.0, n_times)
        tracemalloc.start()
        try:
            traj = dyn.evolve_parity(st, params, times)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(traj.mean_n) == n_times
        del traj
    assert peaks[0] < 2 * trunc.chain_dim * 4001 * 16 / 4
    assert peaks[1] - peaks[0] < 200 * 36000


def test_density_check_fails_on_its_own_block(monkeypatch):
    # the second block of output times holds a rho with eigenvalue -0.1:
    # the run raises there, naming that value, and reduces no later block
    reduce = dyn.reduced_density_matrix
    calls = []

    def reduced(state):
        rho = reduce(state)
        calls.append(len(rho))
        if len(calls) == 2:
            rho[-1] = np.diag([1.1, -0.1, 0.0, 0.0])
        return rho

    monkeypatch.setattr(dyn, "reduced_density_matrix", reduced)
    st = dyn.decompose_initial_state(1, G, G, T40)
    times = np.linspace(0.0, 1.0, 3 * dyn.TIME_BLOCK)
    with pytest.raises(InvalidDensityMatrix, match="-1.000e-01"):
        dyn.evolve_parity(st, ModelParams(1.0, 1.0, 0.1, 0.1), times)
    assert calls == [dyn.TIME_BLOCK] * 2


# ---------------------------------------------------------------------------
# stacked states: every observable broadcasts over a trailing time axis
# ---------------------------------------------------------------------------

def random_stack(rng, trunc, n_t):
    shape = (trunc.chain_dim, n_t)
    ce = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    co = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    norm = np.sqrt(np.sum(np.abs(ce) ** 2 + np.abs(co) ** 2, axis=0))
    return dyn.ParityDecomposedState(ce / norm, co / norm, trunc)


@settings(max_examples=40, deadline=None)
@given(strategies.integers(1, 60), strategies.integers(1, 5),
       strategies.integers(0, 2 ** 32 - 1))
@example(1, 1, 0)     # chain_dim 4
@example(2, 3, 1)     # chain_dim % 4 == 2
@example(60, 5, 2)
def test_stack_matches_its_columns(n_max, n_t, seed):
    trunc = TruncationConfig(n_max)
    stack = random_stack(np.random.default_rng(seed), trunc, n_t)
    rho = dyn.reduced_density_matrix(stack)
    assert rho.shape == (n_t, 4, 4)
    full, full_index = stack.to_full(), basis_table(trunc).full_index
    assert np.array_equal(full[full_index[Parity.EVEN]], stack.c_even)
    assert np.array_equal(full[full_index[Parity.ODD]], stack.c_odd)
    batched = {
        "mean_n": dyn.mean_photon_number(stack),
        "s_z": dyn.population_inversion(stack),
        "entropy": dyn.von_neumann_entropy(rho),
        "concurrence": dyn.concurrence(rho),
    }
    for k in range(n_t):
        col = dyn.ParityDecomposedState(stack.c_even[:, k], stack.c_odd[:, k],
                                        trunc)
        rho_k = dyn.reduced_density_matrix(col)
        assert rho_k.shape == (4, 4)
        assert np.max(np.abs(rho[k] - rho_k)) < 1e-14
        assert np.max(np.abs(
            rho_k - reduced_density_matrix_partial_trace(col))) < 1e-12
        single = {
            "mean_n": dyn.mean_photon_number(col),
            "s_z": dyn.population_inversion(col),
            "entropy": dyn.von_neumann_entropy(rho_k),
            "concurrence": dyn.concurrence(rho_k),
        }
        for name, value in single.items():
            assert np.ndim(value) == np.ndim(batched[name]) - 1, name
            assert np.max(np.abs(batched[name][..., k] - value)) < 1e-14, name
        # a stack reduces each column by the same dot product
        assert batched["mean_n"][k] == single["mean_n"]
        assert batched["s_z"][k] == single["s_z"]


@settings(max_examples=100, deadline=None)
@given(strategies.integers(0, 2 ** 32 - 1), strategies.floats(-10.0, 0.0))
@example(0, -10.0)
@example(1, -7.0)
@example(2, -4.0)
def test_concurrence_of_pure_states(seed, log_c):
    # a pure state a|ee> + b|eg> + c|ge> + d|gg> has C = 2|ad - bc|; the
    # Schmidt angle sets C = 10**log_c, down to near-product states
    rng = np.random.default_rng(seed)

    def unitary():
        q, r = np.linalg.qr(rng.normal(size=(2, 2))
                            + 1j * rng.normal(size=(2, 2)))
        return q * (np.diagonal(r) / np.abs(np.diagonal(r)))

    theta = 0.5 * np.arcsin(10.0 ** log_c)
    psi = np.kron(unitary(), unitary()) @ np.array(
        [np.cos(theta), 0.0, 0.0, np.sin(theta)])
    a, b, c, d = psi
    rho = np.outer(psi, psi.conj())
    assert abs(dyn.concurrence(rho) - 2.0 * abs(a * d - b * c)) <= 1e-13


@settings(max_examples=40, deadline=None)
@given(strategies.lists(strategies.integers(1, 4), min_size=1, max_size=5),
       strategies.integers(0, 2 ** 32 - 1))
def test_entropy_and_concurrence_of_a_stack(ranks, seed):
    # mixed states of every rank, so zero eigenvalues occur too
    rng = np.random.default_rng(seed)
    stack = []
    for rank in ranks:
        b = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
        rho = b @ b.conj().T
        stack.append(rho / np.trace(rho).real)
    stack = np.array(stack)
    entropy = dyn.von_neumann_entropy(stack)
    conc = dyn.concurrence(stack)
    assert entropy.shape == conc.shape == (len(ranks),)
    for k, rho in enumerate(stack):
        assert abs(entropy[k] - dyn.von_neumann_entropy(rho)) < 1e-12
        assert abs(conc[k] - dyn.concurrence(rho)) < 1e-12



@settings(max_examples=20, deadline=None)
@given(strategies.lists(strategies.integers(1, 4), min_size=4, max_size=8),
       strategies.integers(0, 2 ** 32 - 1))
@example([1, 2, 3, 4], 0)
def test_concurrence_matches_mpmath_oracle(ranks, seed):
    # random mixed states of ranks 1-4, pulled toward a Bell state by a
    # random amount so that most are entangled, against the textbook
    # Wootters formula in 50-digit arithmetic
    rng = np.random.default_rng(seed)
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    stack = []
    for rank in ranks:
        b = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
        b[:, 0] += rng.uniform(0.0, 4.0) * bell
        rho = b @ b.conj().T
        stack.append(rho / np.trace(rho).real)
    conc = dyn.concurrence(np.array(stack))
    for k, rho in enumerate(stack):
        assert abs(conc[k] - mp_concurrence(rho)) <= 1e-14


def test_concurrence_near_a_pure_state_matches_mpmath_oracle(monkeypatch):
    # a nearly pure rho (eigenvalues -1.2e-16, 3e-21, 5.8e-7 and 1 at t =
    # 1): square roots of its rounding-level eigenvalues put 1e-8 into Phi
    # and moved the concurrence by 3.1e-10, against the 50-digit oracle on
    # the same float rho
    seen, check = [], dyn._check_density_matrix
    monkeypatch.setattr(dyn, "_check_density_matrix",
                        lambda rho: seen.append(rho.copy()) or check(rho))
    trunc = TruncationConfig(41)
    traj = dyn.evolve_rwa_closed_form(
        dyn.decompose_initial_state(("coherent", 0.04890159351039358), G, G,
                                    trunc),
        ModelParams(0.7437618984189782, 1.530620617535395,
                    -0.019200365603848635, 1.1356742438202385),
        np.linspace(0.0, 10.0, 41))
    want = [mp_concurrence(rho) for rho in np.concatenate(seen)]
    assert abs(traj.concurrence[4] - want[4]) <= 1e-13
    assert np.max(np.abs(traj.concurrence - want)) <= 1e-11


# ---------------------------------------------------------------------------
# quartic sector machinery
# ---------------------------------------------------------------------------

def test_quartic_biquadratic_roots():
    roots = dyn.quartic_roots(dyn.QuarticCoefficients(4.0, 0.0, -5.0))
    assert np.allclose(roots, [-2.0, -1.0, 1.0, 2.0], atol=1e-12)


def test_quartic_zero_coupling_roots_are_detunings():
    p = ModelParams(1.4, 0.8, 0.0, 0.0)
    d1, d2 = 0.2, -0.1
    roots = dyn.quartic_roots(dyn.quartic_coefficients(p, 5))
    expected = np.sort([d1 + d2, d1 - d2, -d1 + d2, -d1 - d2])
    assert np.allclose(roots, expected, atol=1e-12)


def test_quartic_resonant_equal_couplings():
    n = 4
    p = ModelParams(1.0, 1.0, 0.3, 0.3)
    qc = dyn.quartic_coefficients(p, n)
    assert qc.c0 == pytest.approx(0.0, abs=1e-15)
    assert qc.c1 == pytest.approx(0.0, abs=1e-15)
    roots = dyn.quartic_roots(qc)
    edge = np.sqrt(2 * (2 * n - 1)) * 0.3
    assert np.allclose(roots, [-edge, 0.0, 0.0, edge], atol=1e-12)


def test_quartic_printed_equals_matrix_coefficients():
    rng = np.random.default_rng(2)
    for _ in range(40):
        p = ModelParams(rng.uniform(0, 2), rng.uniform(0, 2),
                        rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        n = int(rng.integers(2, 30))
        a = dyn.quartic_coefficients(p, n)
        b = quartic_coefficients_from_block(p, n)
        scale = max(1.0, abs(b.c0), abs(b.c1), abs(b.c2))
        assert abs(a.c0 - b.c0) < 1e-10 * scale
        assert abs(a.c1 - b.c1) < 1e-10 * scale
        assert abs(a.c2 - b.c2) < 1e-10 * scale


def test_quartic_roots_match_eigensolver_and_polynomial():
    rng = np.random.default_rng(3)
    from rabi2q.hamiltonian import build_rwa_excitation_block
    for _ in range(40):
        p = ModelParams(rng.uniform(0, 2), rng.uniform(0, 2),
                        rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        n = int(rng.integers(2, 40))
        qc = quartic_coefficients_from_block(p, n)
        roots = dyn.quartic_roots(qc)
        vals = np.linalg.eigvalsh(build_rwa_excitation_block(p, n).matrix)
        scale = max(1.0, np.max(np.abs(vals)))
        assert np.max(np.abs(roots - vals)) < 1e-9 * scale
        for lam in roots:
            poly = lam ** 4 + qc.c2 * lam ** 2 + qc.c1 * lam + qc.c0
            assert abs(poly) < 1e-9 * max(1.0, scale ** 4)


def test_quartic_requires_full_sector():
    with pytest.raises(ValueError):
        dyn.quartic_coefficients(ModelParams(1, 1, 0.1, 0.1), 1)


# ---------------------------------------------------------------------------
# closed-form RWA evolution
# ---------------------------------------------------------------------------

def test_jaynes_cummings_limit_rabi_oscillation():
    p = ModelParams(1.0, 1.0, 0.25, 0.0)
    st = dyn.decompose_initial_state(0, E, G, TruncationConfig(4))
    times = np.linspace(0, np.pi / 0.25, 120)
    traj = dyn.evolve_rwa_closed_form(st, p, times)
    assert np.max(np.abs(traj.s_z - (-np.sin(0.25 * times) ** 2))) < 1e-12
    assert np.max(np.abs(traj.mean_n - np.sin(0.25 * times) ** 2)) < 1e-12


def test_rwa_constant_when_decoupled():
    p = ModelParams(1.3, 0.7, 0.0, 0.0)
    st = dyn.decompose_initial_state(("coherent", 1.0), E, G,
                                     TruncationConfig(25))
    traj = dyn.evolve_rwa_closed_form(st, p, np.linspace(0, 20, 41))
    for series in (traj.mean_n, traj.s_z, traj.entropy, traj.concurrence):
        assert np.max(np.abs(series - series[0])) < 1e-10


def test_rwa_sector_evolution_matches_full_rwa_matrix():
    p = ModelParams(0.9, 1.2, 0.08, 0.05)
    trunc = TruncationConfig(30)
    st = dyn.decompose_initial_state(("coherent", 1.2), E, G, trunc)
    times = np.linspace(0.0, 30.0, 16)
    traj = dyn.evolve_rwa_closed_form(st, p, times)
    out_trunc = traj.state.trunc
    pad = out_trunc.chain_dim - trunc.chain_dim
    psi0 = dyn.ParityDecomposedState(np.pad(st.c_even, (0, pad)),
                                     np.pad(st.c_odd, (0, pad)),
                                     out_trunc).to_full()
    decomp = eigh(kronecker_reference(p, out_trunc, rwa=True))
    got = traj.state.to_full()
    worst = 0.0
    for i, t in enumerate(times):
        ref = propagate_reference(decomp, psi0, t)
        worst = max(worst, float(np.linalg.norm(ref - got[:, i])))
    assert worst < 1e-8


def test_rwa_matches_full_model_at_weak_coupling():
    p = ModelParams(1.0, 1.0, 0.01, 0.01)
    st = dyn.decompose_initial_state(("coherent", np.sqrt(2)), G, G, T40)
    times = np.linspace(0.0, 50.0, 201)
    full = dyn.evolve_parity(st, p, times)
    rwa = dyn.evolve_rwa_closed_form(st, p, times)
    for name in ("mean_n", "s_z", "entropy", "concurrence"):
        a, b = getattr(full, name), getattr(rwa, name)
        bound = 0.02 * max(1.0, float(np.max(np.abs(a))))
        assert np.max(np.abs(a - b)) <= bound, name


# ---------------------------------------------------------------------------
# symmetries of the model, from |alpha, gg>
# ---------------------------------------------------------------------------

ENGINES = [dyn.evolve_parity, dyn.evolve_rwa_closed_form]
OBSERVABLES = ("mean_n", "s_z", "entropy", "concurrence")


def _observed(engine, params, alpha, n_max, times):
    """mean_n, s_z, entropy and concurrence (rows) from |alpha, gg>."""
    trunc = TruncationConfig(n_max)
    traj = engine(dyn.decompose_initial_state(("coherent", alpha), G, G,
                                              trunc), params, times)
    return np.array([getattr(traj, name) for name in OBSERVABLES])


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("params", [ModelParams(1.1, 0.3, 0.3, 0.4),
                                    ModelParams(1.1, 0.3, 0.8, -0.5)])
def test_dynamics_keep_the_qubit_symmetries(engine, params):
    # exchange and g_1 -> -g_1 keep the four observables to 1e-12; (g_1,
    # g_2) -> (-g_1, -g_2), conjugation by sigma_z of both qubits, keeps
    # them bit for bit from alpha and from -alpha alike, and with alpha ->
    # -alpha, conjugation by the photon parity, keeps them to 1e-12
    alpha, times = np.sqrt(2.0), np.linspace(0.0, 10.0, 101)
    seen = _observed(engine, params, alpha, 40, times)
    for mirror in (exchanged, g1_flipped):
        mirrored = _observed(engine, mirror(params), alpha, 40, times)
        assert np.max(np.abs(seen - mirrored)) <= 1e-12
    for sign in (1.0, -1.0):
        assert np.array_equal(
            _observed(engine, params, sign * alpha, 40, times),
            _observed(engine, both_flipped(params), sign * alpha, 40, times))
    parity = _observed(engine, both_flipped(params), -alpha, 40, times)
    assert np.max(np.abs(seen - parity)) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(omega_1=strategies.floats(0.0, 2.0),
       omega_2=strategies.floats(0.0, 2.0),
       g_1=strategies.floats(-5.0, 5.0), g_2=strategies.floats(-5.0, 5.0),
       alpha=strategies.floats(-1.5, 1.5), n_max=strategies.integers(20, 40),
       engine=strategies.sampled_from(ENGINES),
       mirror=strategies.sampled_from([exchanged, g1_flipped,
                                       both_flipped]))
def test_drawn_dynamics_keep_the_qubit_symmetries(omega_1, omega_2, g_1, g_2,
                                                  alpha, n_max, engine,
                                                  mirror):
    # each symmetry keeps mean_n, s_z and the entropy to 1e-12, and the
    # joint flip the concurrence too.  Near a pure state an eigenvalue of
    # rho a little above its rounding floor (1.1e-13) still carries
    # rounding that its square root magnifies: the float concurrence is off
    # by up to about 1.3e-11 (against the 50-digit oracle, on the same rho)
    # and g_1 -> -g_1 moves it by 2.1e-11 at omega 1.076/0.659, g
    # 2.884/-1.968, alpha -0.14, so exchange and g_1 -> -g_1 compare it
    # only at the configurations above.  Draws past the cutoff are skipped
    params = ModelParams(omega_1, omega_2, g_1, g_2)
    times = np.linspace(0.0, 10.0, 21)
    try:
        seen, mirrored = (_observed(engine, p, alpha, n_max, times)
                          for p in (params, mirror(params)))
    except TruncationInsufficient:
        return
    rows = 4 if mirror is both_flipped else 3
    assert np.max(np.abs(seen[:rows] - mirrored[:rows])) <= 1e-12
