import json
import os
import re
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import rabi2q
import rabi2q.eigenstates as eig_mod
from rabi2q.eigenstates import (bargmann_coefficients,
                                bargmann_identical_coefficients,
                                bargmann_minimal_coefficients,
                                bargmann_reconstruction_residual,
                                bargmann_to_chain, best_seed_recurrence_state,
                                chain_residual, eigenstate_recurrence,
                                recurrence_eigenstate_la, refine_eigenpair,
                                residual, _bargmann_alphas)
from rabi2q.errors import (ConvergenceFailure, OverflowDetected,
                           SingularCoupling, StepSingular)
from rabi2q.hamiltonian import build_parity_matrix
from rabi2q.model import ModelParams, Parity, TruncationConfig
from rabi2q.numerics import eigh

from oracles import G_CROSS, mp_chain_residual

P = ModelParams(1.3, 0.7, 0.3, 0.4)
NMAX = 200


def test_refined_recurrence_hits_eigenstate():
    state = eigenstate_recurrence(P, Parity.EVEN, 1, NMAX)
    assert residual(P, Parity.EVEN, state) < 1e-10
    assert np.linalg.norm(state.v) == pytest.approx(1.0)
    tol = _refine_tolerance(P, Parity.EVEN, NMAX)
    assert 0.0 <= state.refine_residual <= tol
    seeded = recurrence_eigenstate_la(P, Parity.EVEN, state.xi, (1.0, 0.0),
                                      NMAX)
    assert seeded.refine_residual is None


def test_recurrence_reuses_a_given_decomposition(monkeypatch):
    decomp = eigh(build_parity_matrix(P, Parity.ODD, TruncationConfig(60)))
    fresh = eigenstate_recurrence(P, Parity.ODD, 2, 60)
    monkeypatch.setattr(eig_mod, "eigh", None)      # must not be called
    reused = eigenstate_recurrence(P, Parity.ODD, 2, 60, decomp=decomp)
    assert reused.xi == fresh.xi
    assert np.array_equal(reused.v, fresh.v)


def test_float_inputs_are_accuracy_limited_but_sane():
    # with a double-precision eigenpair the growing solution caps the
    # achievable residual; the state must still clearly resemble the target
    decomp = eigh(build_parity_matrix(P, Parity.EVEN, TruncationConfig(NMAX)))
    xi, vec = decomp.values[0], decomp.vectors[:, 0]
    state = recurrence_eigenstate_la(P, Parity.EVEN, xi, vec[:2], NMAX)
    assert residual(P, Parity.EVEN, state) < 1e-2


def test_midgap_energy_has_large_residual():
    decomp = eigh(build_parity_matrix(P, Parity.EVEN, TruncationConfig(NMAX)))
    xi_mid = 0.5 * (decomp.values[3] + decomp.values[4])
    state = recurrence_eigenstate_la(P, Parity.EVEN, xi_mid, (1.0, 0.0), NMAX)
    assert residual(P, Parity.EVEN, state) > 1e-2


def test_singular_coupling_raises():
    p = ModelParams(1.3, 0.7, 0.3, 0.3)
    with pytest.raises(SingularCoupling):
        recurrence_eigenstate_la(p, Parity.EVEN, -1.0, (1.0, 0.0), 50)
    p = ModelParams(1.3, 0.7, 0.3, -0.3)
    with pytest.raises(SingularCoupling):
        recurrence_eigenstate_la(p, Parity.EVEN, -1.0, (1.0, 0.0), 50)


def test_overflow_detected_far_from_spectrum():
    with pytest.raises(OverflowDetected):
        recurrence_eigenstate_la(P, Parity.EVEN, 1e200, (1.0, 0.0), 50)


def test_zero_seed_rejected():
    with pytest.raises(ValueError):
        recurrence_eigenstate_la(P, Parity.EVEN, -1.0, (0.0, 0.0), 50)


def test_index_outside_the_chain_rejected():
    for index in (-1, 2 * (20 + 1)):
        with pytest.raises(ValueError, match="outside"):
            eigenstate_recurrence(P, Parity.EVEN, index, 20)


def test_residual_of_exact_pair_and_random_vector():
    trunc = TruncationConfig(NMAX)
    h = build_parity_matrix(P, Parity.EVEN, trunc)
    vals, vecs = eigh(h)
    assert chain_residual(P, Parity.EVEN, vals[2], vecs[:, 2]) < 1e-10
    rng = np.random.default_rng(1)
    v = rng.normal(size=trunc.chain_dim)
    v /= np.linalg.norm(v)
    r = chain_residual(P, Parity.EVEN, 0.0, v)
    assert r > 1.0  # O(||H||)


def test_residual_decreases_toward_eigenvalue():
    trunc = TruncationConfig(80)
    h = build_parity_matrix(P, Parity.EVEN, trunc)
    vals, vecs = eigh(h)
    target, vec = vals[1], vecs[:, 1]
    offsets = [0.3, 0.1, 0.03, 0.01]
    res = [chain_residual(P, Parity.EVEN, target + d, vec) for d in offsets]
    assert all(a > b for a, b in zip(res, res[1:]))


def test_seed_invariance_of_least_residual_state():
    xi, _, _ = refine_eigenpair(P, Parity.EVEN, *_pair(Parity.EVEN, 2),
                                NMAX)
    states = []
    for seeds in (((1.0, 0.0), (0.0, 1.0)),
                  ((0.6, 0.8), (0.8, -0.6))):
        state, _, res = best_seed_recurrence_state(P, Parity.EVEN, xi, NMAX,
                                                   seeds=seeds)
        assert res < 1e-6
        states.append(state.v)
    agree = min(np.max(np.abs(states[0] - states[1])),
                np.max(np.abs(states[0] + states[1])))
    assert agree < 1e-4


def _pair(parity, index):
    decomp = eigh(build_parity_matrix(P, parity, TruncationConfig(NMAX)))
    return decomp.values[index], decomp.vectors[:, index]


# ---------------------------------------------------------------------------
# mixed-precision eigenpair refinement
# ---------------------------------------------------------------------------

def _refine_tolerance(params, parity, n_max):
    """The stopping tolerance ||H||_inf 10^-(DPS + GUARD_DIGITS)."""
    h = build_parity_matrix(params, parity, TruncationConfig(n_max))
    digits = eig_mod.DPS + eig_mod.GUARD_DIGITS
    return float(np.max(np.abs(h).sum(axis=1))) * 10.0 ** -digits


def _check_refined(params, parity, n_max, index):
    """Refine dense eigh's index-th pair and compare with eigh.

    The refiner may decline with ConvergenceFailure only inside a cluster
    of levels closer than 1e-10 ||H||.
    """
    h = build_parity_matrix(params, parity, TruncationConfig(n_max))
    dense = eigh(h)
    norm = float(np.max(np.abs(h).sum(axis=1)))
    gaps = np.abs(dense.values - dense.values[index])
    gaps[index] = np.inf
    try:
        xi, x, res = refine_eigenpair(params, parity, dense.values[index],
                                      dense.vectors[:, index], n_max)
    except ConvergenceFailure:
        assert np.min(gaps) < 1e-10 * norm
        return
    tol = _refine_tolerance(params, parity, n_max)
    assert res <= tol
    assert mp_chain_residual(params, parity, xi, x, n_max) <= 1.1 * tol
    with mp.workdps(90):
        assert abs(mp.fdot(x, x) - 1) * norm <= 2 * tol
    assert abs(float(xi) - dense.values[index]) <= 1e-12 * norm
    v = np.array([float(c) for c in x])
    cluster = dense.vectors[:, gaps < 1e-8 * norm]
    if cluster.shape[1] == 0:
        assert abs(v @ dense.vectors[:, index]) > 1 - 1e-10
    else:       # a near-degenerate level: x lies in the cluster's span
        span = np.column_stack([dense.vectors[:, index], cluster])
        assert np.linalg.norm(span.T @ v) > 1 - 1e-10


@settings(max_examples=40, deadline=None)
@given(omega_1=st.floats(0.0, 2.0), omega_2=st.floats(0.0, 2.0),
       g_1=st.floats(-1.5, 1.5), g_2=st.floats(-1.5, 1.5),
       parity=st.sampled_from(Parity), n_max=st.integers(20, 80),
       level=st.floats(0.0, 1.0))
@example(omega_1=1.3, omega_2=0.7, g_1=0.45, g_2=0.45, parity=Parity.EVEN,
         n_max=40, level=0.1)
@example(omega_1=1.3, omega_2=0.7, g_1=0.45, g_2=-0.45, parity=Parity.ODD,
         n_max=40, level=0.1)
@example(omega_1=1.3, omega_2=0.7, g_1=0.3, g_2=0.3, parity=Parity.EVEN,
         n_max=20, level=3 / 41)
@example(omega_1=0.5321017284505121, omega_2=0.5262230788044269,
         g_1=1e-300, g_2=1e-300, parity=Parity.EVEN, n_max=80,
         level=15 / 161)
@example(omega_1=0.0, omega_2=0.7, g_1=0.3, g_2=0.4, parity=Parity.EVEN,
         n_max=30, level=0.2)
@example(omega_1=1.3, omega_2=0.0, g_1=0.3, g_2=0.4, parity=Parity.ODD,
         n_max=30, level=0.2)
@example(omega_1=0.0, omega_2=0.0, g_1=0.5, g_2=0.5, parity=Parity.EVEN,
         n_max=30, level=0.5)
@example(omega_1=1.3, omega_2=0.7, g_1=0.3, g_2=0.4, parity=Parity.EVEN,
         n_max=20, level=1.0)
@example(omega_1=1.3, omega_2=0.7, g_1=1.2, g_2=1.2, parity=Parity.ODD,
         n_max=20, level=0.98)
@example(omega_1=1.3, omega_2=0.7, g_1=0.0, g_2=0.0, parity=Parity.EVEN,
         n_max=20, level=0.3)
def test_refined_pair_matches_dense(omega_1, omega_2, g_1, g_2, parity,
                                    n_max, level):
    params = ModelParams(omega_1, omega_2, g_1, g_2)
    index = round(level * (TruncationConfig(n_max).chain_dim - 1))
    _check_refined(params, parity, n_max, index)


@pytest.mark.parametrize("g", [0.51, G_CROSS, G_CROSS + 1e-6])
@pytest.mark.parametrize("index", [3, 4])
def test_refiner_at_the_criterion_05_crossing(g, index):
    # levels 3 and 4 of the even chain lie 6.8e-3 apart at g = 0.51 and
    # 1.1e-9 apart at G_CROSS, where the refiner either meets its tolerance
    # or raises, never returns an unconverged pair
    _check_refined(ModelParams(1.3, 0.7, g, g), Parity.EVEN, 300, index)


@pytest.mark.parametrize("steps", [0, 1, 2])
def test_starved_refiner_raises_with_its_residual(monkeypatch, steps):
    monkeypatch.setattr(eig_mod, "NEWTON_STEPS", steps)
    tol = _refine_tolerance(P, Parity.EVEN, NMAX)
    with pytest.raises(ConvergenceFailure) as info:
        refine_eigenpair(P, Parity.EVEN, *_pair(Parity.EVEN, 2), NMAX)
    reached = float(re.search(r"residual (\S+) after", str(info.value))[1])
    assert reached > tol
    # each step gains at least ten digits here
    assert reached < 1e-12 * 1e-10 ** steps


_REFINE_PROBE = """
import json, sys
import mpmath as mp
import numpy as np
from rabi2q.eigenstates import refine_eigenpair
from rabi2q.model import ModelParams, Parity
start = json.load(open(sys.argv[1]))
xi, x, _ = refine_eigenpair(ModelParams(1.3, 0.7, 0.3, 0.4), Parity.ODD,
                            float.fromhex(start["xi"]),
                            np.array([float.fromhex(c) for c in start["v"]]),
                            start["n_max"])
print(mp.nstr(xi, 60))
print(" ".join(mp.nstr(c, 60) for c in x))
"""


def test_refinement_does_not_depend_on_blas_threads(tmp_path):
    n_max = 60
    decomp = eigh(build_parity_matrix(P, Parity.ODD, TruncationConfig(n_max)))
    start = tmp_path / "start.json"
    start.write_text(json.dumps({
        "n_max": n_max, "xi": float(decomp.values[5]).hex(),
        "v": [float(c).hex() for c in decomp.vectors[:, 5]]}))
    src = str(Path(rabi2q.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", _REFINE_PROBE,
                               str(start)], env=env, capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert len(outs[0].split()) == 1 + 2 * (n_max + 1)


# ---------------------------------------------------------------------------
# Bargmann five-term recurrence
# ---------------------------------------------------------------------------

PB = ModelParams(1.3, 0.7, 0.3, 0.45)


def test_five_term_identity_recheck():
    chi = -0.7
    coeffs = bargmann_coefficients(PB, Parity.EVEN, chi, 60, c1=0.3)
    c = coeffs.c
    for j in range(4, 61):
        a = _bargmann_alphas(PB, Parity.EVEN, chi, j)
        terms = [a[0] * c[j], a[1] * c[j - 1], a[2] * c[j - 2],
                 a[3] * c[j - 3], a[4] * c[j - 4]]
        scale = max(abs(t) for t in terms)
        assert abs(sum(terms)) <= 1e-12 * max(scale, 1e-300)
    # startup rows
    a = _bargmann_alphas(PB, Parity.EVEN, chi, 2)
    assert abs(a[0] * c[2] + a[1] * c[1] + a[2] * c[0]) <= 1e-12 * max(
        abs(a[0] * c[2]), 1e-300)
    a = _bargmann_alphas(PB, Parity.EVEN, chi, 3)
    assert abs(a[0] * c[3] + a[1] * c[2] + a[2] * c[1] + a[3] * c[0]) \
        <= 1e-12 * max(abs(a[0] * c[3]), 1e-300)


def test_five_term_c1_is_free_seed():
    chi = -0.7
    c_a = bargmann_coefficients(PB, Parity.EVEN, chi, 20, c1=0.0).c
    c_b = bargmann_coefficients(PB, Parity.EVEN, chi, 20, c1=1.0).c
    assert c_a[1] == 0.0 and c_b[1] == 1.0
    assert c_a[2] != c_b[2]


def test_five_term_identical_qubits_step_singular():
    p = ModelParams(0.9, 0.9, 0.3, 0.45)
    for parity in Parity:
        with pytest.raises(StepSingular):
            bargmann_coefficients(p, parity, -0.5, 30)


def test_five_term_zero_coupling_product_singular():
    p = ModelParams(1.3, 0.7, 0.3, 0.3)  # g_minus = 0
    with pytest.raises(StepSingular):
        bargmann_coefficients(p, Parity.EVEN, -0.5, 30)


def test_reconstruction_residual_small_at_eigenvalues():
    trunc = TruncationConfig(NMAX)
    for parity in Parity:
        vals, _ = eigh(build_parity_matrix(PB, parity, trunc))
        for index in (0, 3):
            res = bargmann_reconstruction_residual(PB, parity,
                                                   float(vals[index]),
                                                   j_max=120, n_max=NMAX)
            assert res <= 1e-4


def test_reconstruction_residual_large_off_eigenvalue():
    trunc = TruncationConfig(NMAX)
    vals, _ = eigh(build_parity_matrix(PB, Parity.EVEN, trunc))
    chi_mid = 0.5 * (vals[1] + vals[2])
    res = bargmann_reconstruction_residual(PB, Parity.EVEN, chi_mid,
                                           j_max=120, n_max=NMAX)
    assert res > 1e-2


def test_reconstruction_stays_in_claimed_parity():
    trunc = TruncationConfig(NMAX)
    vals, _ = eigh(build_parity_matrix(PB, Parity.ODD, trunc))
    coeffs, s_min = bargmann_minimal_coefficients(PB, Parity.ODD,
                                                  float(vals[1]), 120)
    state = bargmann_to_chain(PB, Parity.ODD, float(vals[1]), coeffs,
                              n_max=NMAX)
    assert state.other_chain_weight < 1e-12
    assert s_min < 1e-12


# ---------------------------------------------------------------------------
# identical qubits: three-term recurrence
# ---------------------------------------------------------------------------

def test_three_term_zero_omega0_alphas():
    out = bargmann_identical_coefficients(0.0, 1.1, Parity.EVEN, 0.37, 30)
    for j in range(1, 31):
        assert out.alphas[j] == pytest.approx((0.37 - (j - 1)) / 1.1)


def test_three_term_ratio_limit():
    for parity in Parity:
        out = bargmann_identical_coefficients(0.9, 1.1, parity, 0.37, 220)
        assert abs(out.ratios[200] - 1.0) < 1e-2


def test_three_term_companion_has_definite_parity():
    out_even = bargmann_identical_coefficients(0.9, 1.1, Parity.EVEN,
                                               0.37, 40)
    # even-parity branch: companion lives on even powers only
    assert np.all(out_even.phi2[1::2] == 0.0)
    assert np.any(out_even.phi2[0::2] != 0.0)
    out_odd = bargmann_identical_coefficients(0.9, 1.1, Parity.ODD, 0.37, 40)
    assert np.all(out_odd.phi2[0::2] == 0.0)
    assert np.any(out_odd.phi2[1::2] != 0.0)


def test_three_term_recurrence_identity():
    out = bargmann_identical_coefficients(0.9, 1.1, Parity.ODD, 0.37, 60)
    c, al = out.c, out.alphas
    for j in range(2, 61):
        assert c[j] * j == pytest.approx(al[j] * c[j - 1] - c[j - 2],
                                         rel=1e-12, abs=1e-300)
    assert c[1] == pytest.approx(al[1] * c[0])


def test_three_term_step_singular_on_bare_ladder():
    with pytest.raises(StepSingular):
        bargmann_identical_coefficients(0.9, 1.1, Parity.EVEN, 3.0, 30)
    with pytest.raises(StepSingular):
        bargmann_identical_coefficients(0.9, 0.0, Parity.EVEN, 0.37, 30)
