import numpy as np
import pytest
from hypothesis import example, given, settings, strategies

from rabi2q import dynamics as dyn
from rabi2q.errors import InvalidDensityMatrix, TruncationInsufficient
from rabi2q.hamiltonian import build_parity_matrix
from rabi2q.model import ModelParams, Parity, QubitLevel, TruncationConfig
from rabi2q.numerics import EigenDecomposition, eigh, propagate_spectral

from oracles import (kronecker_reference, quartic_coefficients_from_block,
                     reduced_density_matrix_partial_trace)

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

def test_state_from_full_inverts_to_full():
    st = random_state(np.random.default_rng(5))
    back = dyn.state_from_full(st.to_full(), T40)
    assert np.array_equal(back.c_even, st.c_even)
    assert np.array_equal(back.c_odd, st.c_odd)


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
    we, _ = st.parity_weights()
    assert we == pytest.approx((1 + np.exp(-4)) / 2, abs=1e-12)
    assert st.norm == pytest.approx(1.0, abs=1e-12)


def test_negative_fock_level_rejected():
    # a negative level would index the amplitudes from the top
    with pytest.raises(ValueError, match="Fock level"):
        dyn.decompose_initial_state(-1, G, G, T40)


def test_coherent_leakage_guard():
    with pytest.raises(TruncationInsufficient):
        dyn.decompose_initial_state(("coherent", 4.0), G, G,
                                    TruncationConfig(12))
    with pytest.raises(TruncationInsufficient):
        dyn.decompose_initial_state(50, G, G, T40)


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
    # the chain eigenvectors of the full engine and for the sector
    # eigenvectors of the RWA engine (the 1x1 ground sector stays as it is)
    def rotated_eigh(h):
        vals, vecs = eigh(h)
        if len(vals) < 2:
            return EigenDecomposition(vals, vecs)
        vecs = vecs.copy()
        v0, v1 = vecs[:, 0].copy(), vecs[:, 1].copy()
        vecs[:, 0] = (v0 - v1) / np.sqrt(2.0)
        vecs[:, 1] = (v0 + v1) / np.sqrt(2.0)
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
    with pytest.raises(TruncationInsufficient):
        dyn.evolve_parity(st, params, [0.0, 1.0])
    traj = dyn.evolve_parity(st, params, [0.0, 1.0], on_guard="record")
    assert traj.max_edge_weight > dyn.EDGE_WEIGHT_TOL


def test_guard_names_first_offending_time():
    # the vacuum spreads up a short chain: the edge weight starts at zero
    # and crosses the tolerance part way through the run
    trunc = TruncationConfig(6)
    st = dyn.decompose_initial_state(0, G, G, trunc)
    params = ModelParams(1.0, 1.0, 0.4, 0.3)
    times = np.linspace(0.0, 10.0, 41)
    traj = dyn.evolve_parity(st, params, times, on_guard="record")
    edge = traj.state.edge_weight()
    assert traj.max_edge_weight == max(
        dyn.ParityDecomposedState(traj.state.c_even[:, k],
                                  traj.state.c_odd[:, k], trunc).edge_weight()
        for k in range(len(times)))
    first = int(np.argmax(edge > dyn.EDGE_WEIGHT_TOL))
    assert 0 < first < len(times) - 1
    with pytest.raises(TruncationInsufficient,
                       match=f"{edge[first]:.2e} .* at t={times[first]:g};"):
        dyn.evolve_parity(st, params, times)


def test_trajectory_state_columns_are_the_propagated_states():
    trunc = TruncationConfig(30)
    params = ModelParams(1.1, 0.3, 0.3, 0.4)
    st = dyn.decompose_initial_state(("coherent", 1.0), G, E, trunc)
    times = np.linspace(0.0, 5.0, 6)
    traj = dyn.evolve_parity(st, params, times)
    assert traj.state.trunc == trunc
    for parity in Parity:
        decomp = eigh(build_parity_matrix(params, parity, trunc))
        got = traj.state.chain(parity)
        assert np.array_equal(
            got, propagate_spectral(decomp, st.chain(parity), times))
        for k, t in enumerate(times):
            ref = propagate_spectral(decomp, st.chain(parity), t)
            assert np.max(np.abs(got[:, k] - ref)) < 1e-12


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
    back = dyn.state_from_full(stack.to_full(), trunc)
    assert np.array_equal(back.c_even, stack.c_even)
    assert np.array_equal(back.c_odd, stack.c_odd)
    batched = {
        "mean_n": dyn.mean_photon_number(stack),
        "s_z": dyn.population_inversion(stack),
        "entropy": dyn.von_neumann_entropy(rho),
        "concurrence": dyn.concurrence(rho),
        "norm": stack.norm,
        "weights": np.array(stack.parity_weights()),
        "edge": stack.edge_weight(),
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
            "norm": col.norm,
            "weights": np.array(col.parity_weights()),
            "edge": col.edge_weight(),
        }
        for name, value in single.items():
            assert np.ndim(value) == np.ndim(batched[name]) - 1, name
            assert np.max(np.abs(batched[name][..., k] - value)) < 1e-14, name
        # a stack reduces each column by the same dot product
        assert batched["mean_n"][k] == single["mean_n"]
        assert batched["s_z"][k] == single["s_z"]


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



# ---------------------------------------------------------------------------
# quartic sector machinery
# ---------------------------------------------------------------------------

def test_quartic_biquadratic_roots():
    roots = dyn.quartic_roots(dyn.QuarticCoefficients(4.0, 0.0, -5.0, 2))
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
        ref = propagate_spectral(decomp, psi0, t)
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
