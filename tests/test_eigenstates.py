import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import rabi2q
import rabi2q.eigenstates as eig_mod
from rabi2q.eigenstates import (BargmannCoefficients,
                                bargmann_identical_coefficients,
                                bargmann_minimal_coefficients,
                                bargmann_reconstruction_residual,
                                bargmann_to_chain, chain_residual,
                                eigenstate_recurrence,
                                recurrence_eigenstate_la, refine_eigenpair,
                                residual)
from rabi2q.errors import (ConvergenceFailure, OverflowDetected,
                           SingularCoupling, StepSingular)
from rabi2q.hamiltonian import build_parity_matrix
from rabi2q.model import ModelParams, Parity, TruncationConfig
from rabi2q.numerics import eigh

from oracles import (G_CROSS, bargmann_chain_reference, mp_chain_residual,
                     recurrence_blocks_reference, refine_eigenpair_reference)

P = ModelParams(1.3, 0.7, 0.3, 0.4)
NMAX = 200


def test_refined_recurrence_hits_eigenstate():
    state = eigenstate_recurrence(P, Parity.EVEN, 1, NMAX)
    assert residual(P, Parity.EVEN, state) < 1e-10
    assert np.linalg.norm(state.v) == pytest.approx(1.0)
    # the growing tail past the minimum-norm block is zeroed
    assert state.parity is Parity.EVEN and state.cut_index < NMAX
    assert not state.v[2 * state.cut_index + 2:].any()
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


def test_recurrence_kernel_rejects_singular_coupling():
    # the private kernel checks the couplings itself: with det = 0 it has
    # no step table to run
    for g_2 in (0.3, -0.3):
        p = ModelParams(1.3, 0.7, 0.3, g_2)
        with mp.workdps(eig_mod.DPS), pytest.raises(SingularCoupling):
            eig_mod._recurrence_blocks_mp(p, Parity.EVEN, -1.0, (1.0, 0.0),
                                          50)


def test_band_residual_stays_finite_far_from_spectrum():
    # 1e200 away the residual's squares pass the float range; the scaled
    # norm still gives its size
    decomp = eigh(build_parity_matrix(P, Parity.ODD, TruncationConfig(50)))
    v = decomp.vectors[:, 0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        far = chain_residual(P, Parity.ODD, decomp.values[0] + 1e200, v)
        near = chain_residual(P, Parity.ODD, decomp.values[0], v)
    assert far == pytest.approx(1e200, rel=1e-12)
    assert near < 1e-12


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
# eigh's level, -0.75 - 2^-48, is off by only about g_2^4 ~ 1e-29
@example(omega_1=1.5, omega_2=0.0, g_1=0.0, g_2=-2.0 ** -24,
         parity=Parity.EVEN, n_max=65, level=0.0)
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


# ---------------------------------------------------------------------------
# raw-tuple kernels against their mpf-object forms
# ---------------------------------------------------------------------------

def _raw_blocks(blocks_fn, *args):
    """The _mpf_ tuples of a block run at DPS, or the overflow it raised."""
    try:
        with mp.workdps(eig_mod.DPS):
            return [(u._mpf_, w._mpf_) for u, w in blocks_fn(*args)]
    except OverflowDetected as exc:
        return str(exc)


@settings(max_examples=15, deadline=None)
@given(omega_1=st.floats(0.0, 2.0), omega_2=st.floats(0.0, 2.0),
       g_1=st.floats(-1.5, 1.5), g_2=st.floats(-1.5, 1.5),
       parity=st.sampled_from(Parity), n_max=st.integers(2, 60),
       level=st.floats(0.0, 1.0), offset=st.floats(-5.0, 5.0))
# n_max 200: every run rescales, and would pass 1e300 without it
@example(omega_1=1.3, omega_2=0.7, g_1=0.3, g_2=0.4, parity=Parity.EVEN,
         n_max=200, level=1 / 401, offset=0.5)
# far from the spectrum: the rescaled run raises OverflowDetected
@example(omega_1=1.3, omega_2=0.7, g_1=0.3, g_2=0.4, parity=Parity.ODD,
         n_max=50, level=0.0, offset=1e200)
@example(omega_1=0.0, omega_2=0.7, g_1=0.3, g_2=0.4, parity=Parity.EVEN,
         n_max=40, level=0.1, offset=0.5)
@example(omega_1=1.3, omega_2=0.0, g_1=-0.5, g_2=0.2, parity=Parity.ODD,
         n_max=40, level=0.3, offset=-2.0)
@example(omega_1=0.0, omega_2=0.0, g_1=0.5, g_2=0.5, parity=Parity.EVEN,
         n_max=30, level=0.5, offset=0.0)
def test_raw_tuple_kernels_match_mpf_oracle(omega_1, omega_2, g_1, g_2,
                                            parity, n_max, level, offset):
    params = ModelParams(omega_1, omega_2, g_1, g_2)
    dense = eigh(build_parity_matrix(params, parity, TruncationConfig(n_max)))
    index = round(level * (len(dense.values) - 1))
    args = (params, parity, dense.values[index], dense.vectors[:, index],
            n_max)
    try:
        want = refine_eigenpair_reference(*args)
    except ConvergenceFailure as exc:
        with pytest.raises(ConvergenceFailure, match=re.escape(str(exc))):
            refine_eigenpair(*args)
        xi, seed = mp.mpf(float(dense.values[index])), (1.0, 0.0)
    else:
        got = refine_eigenpair(*args)
        assert got[0]._mpf_ == want[0]._mpf_ and got[2] == want[2]
        assert [c._mpf_ for c in got[1]] == [c._mpf_ for c in want[1]]
        xi, seed = got[0], got[1][:2]
    try:
        eig_mod._check_couplings(params)
    except SingularCoupling:
        return
    far = xi + offset
    for run in ((xi, seed), (far, (1.0, 0.0)), (far, (0.6, 0.8))):
        assert (_raw_blocks(eig_mod._recurrence_blocks_mp, params, parity,
                            *run, n_max)
                == _raw_blocks(recurrence_blocks_reference, params, parity,
                               *run, n_max))


def test_oracle_examples_reach_their_corners():
    # the explicit examples above rescale and overflow, so the comparisons
    # cover those branches
    p = ModelParams(1.3, 0.7, 0.3, 0.4)
    xi, x, _ = refine_eigenpair(p, Parity.EVEN, *_pair(Parity.EVEN, 1), NMAX)
    with mp.workdps(eig_mod.DPS):
        kept = eig_mod._recurrence_blocks_mp(p, Parity.EVEN, xi + 0.5,
                                             (1.0, 0.0), NMAX)
    # a rescale divides every block so far, the seed block too
    assert kept[0] != [1, 0]
    decomp = eigh(build_parity_matrix(p, Parity.ODD, TruncationConfig(50)))
    assert isinstance(_raw_blocks(eig_mod._recurrence_blocks_mp, p,
                                  Parity.ODD, decomp.values[0] + 1e200,
                                  (1.0, 0.0), 50), str)


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


def test_five_term_identical_qubits_step_singular():
    # omega_1 = omega_2: alpha_0 vanishes on every other row
    p = ModelParams(0.9, 0.9, 0.3, 0.45)
    for parity in Parity:
        with pytest.raises(StepSingular, match="alpha_0 vanishes"):
            bargmann_minimal_coefficients(p, parity, -0.5, 30)


def test_five_term_zero_coupling_product_singular():
    p = ModelParams(1.3, 0.7, 0.3, 0.3)  # g_minus = 0
    with pytest.raises(StepSingular, match="alpha_0 vanishes"):
        bargmann_minimal_coefficients(p, Parity.EVEN, -0.5, 30)


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
    state = bargmann_to_chain(coeffs, n_max=NMAX)
    assert state.other_chain_weight < 1e-12
    assert s_min < 1e-12


@pytest.mark.parametrize("parity", list(Parity))
@pytest.mark.parametrize("n_max, case", [
    (10, "n_max below the cut"), (30, "cut below n_max <= j_max"),
    (50, "n_max above j_max"), (60, "sqrt(j_max!) overflows")])
def test_bargmann_to_chain_matches_scalar_oracle(parity, n_max, case):
    j_max = 400 if case == "sqrt(j_max!) overflows" else 40
    chi = float(eigh(build_parity_matrix(PB, parity,
                                         TruncationConfig(60))).values[1])
    coeffs, _ = bargmann_minimal_coefficients(PB, parity, chi, j_max)
    assert (coeffs.parity, coeffs.chi) == (parity, chi)
    got = bargmann_to_chain(coeffs, n_max=n_max)
    v, other, cut = bargmann_chain_reference(coeffs, n_max)
    assert (got.parity, got.xi) == (parity, chi)
    assert np.array_equal(got.v, v)
    assert got.other_chain_weight == other
    assert got.cut_index == cut
    assert {"n_max below the cut": n_max < cut,
            "cut below n_max <= j_max": cut < n_max <= j_max,
            "n_max above j_max": n_max > j_max,
            "sqrt(j_max!) overflows": cut < n_max < 301 <= j_max}[case]


def test_bargmann_to_chain_keeps_levels_past_factorial_overflow():
    # amplitudes exp(400 - (n - 170)^2 / 7200) fall below their n = 0 value
    # past n = 340 and keep falling until the coefficients underflow near
    # n = 445, so the kept levels pass n = 300, where sqrt(n!) overflows a
    # float; phi2 = 0 puts each amplitude on both even-chain slots of its
    # photon level
    j_max = 450
    n = np.arange(j_max + 1)
    log_amp = 400.0 - (n - 170.0) ** 2 / 7200.0
    half_log_fact = 0.5 * np.array([math.lgamma(m + 1) for m in n])
    c = np.exp(log_amp - half_log_fact)
    coeffs = BargmannCoefficients(Parity.EVEN, 0.0, c, np.zeros(j_max + 1))
    state = bargmann_to_chain(coeffs, n_max=j_max)
    assert 400 < state.cut_index < j_max
    # from the stored coefficients, some of which are subnormal
    kept = slice(state.cut_index + 1)
    log_kept = np.log(c[kept]) + half_log_fact[kept]
    amp = np.exp(log_kept - log_kept.max())
    expected = np.zeros(2 * (j_max + 1))
    expected[:2 * len(amp)] = np.repeat(amp, 2) / (math.sqrt(2) *
                                                   np.linalg.norm(amp))
    assert np.max(np.abs(state.v - expected)) <= 1e-12
    assert state.other_chain_weight == 0.0


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
