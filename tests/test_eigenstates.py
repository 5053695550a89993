import json
import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import rabi2q
import rabi2q.eigenstates as eig_mod
from rabi2q.eigenstates import (bargmann_identical_coefficients,
                                bargmann_minimal_coefficients,
                                bargmann_reconstruction_residual,
                                bargmann_to_chain, chain_residual,
                                eigenstate_recurrences,
                                recurrence_eigenstate_la, refine_eigenpair,
                                residual)
from rabi2q.errors import (ConvergenceFailure, OverflowDetected,
                           SingularCoupling, StepSingular,
                           TruncationInsufficient)
from rabi2q.hamiltonian import build_parity_band
from rabi2q.model import ModelParams, Parity, TruncationConfig
from rabi2q.numerics import band_norm, eigh, expand_dense
from rabi2q.spectra import GUARD_TOL, converged_parity_eigensystem

from oracles import (G_CROSS, bargmann_chain_reference,
                     bargmann_rows_reference, cut_normalize_reference,
                     fixed_chain_rows, fixed_coupling, fixed_point,
                     mp_chain_residual, recurrence_bits,
                     recurrence_blocks_reference, refine_eigenpair_reference)

P = ModelParams(1.3, 0.7, 0.3, 0.4)
NMAX = 200


def chain_matrix(params, parity, n_max):
    """Dense matrix of one parity chain at photon cutoff n_max."""
    return expand_dense(build_parity_band(params, parity,
                                          TruncationConfig(n_max)))


def test_refined_recurrence_hits_eigenstate():
    state = eigenstate_recurrences(P, Parity.EVEN, 2, NMAX)[1]
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


def test_float_inputs_are_accuracy_limited_but_sane():
    # with a double-precision eigenpair the growing solution caps the
    # achievable residual; the state must still clearly resemble the target
    decomp = eigh(chain_matrix(P, Parity.EVEN, NMAX))
    xi, vec = decomp.values[0], decomp.vectors[:, 0]
    state = recurrence_eigenstate_la(P, Parity.EVEN, xi, vec[:2], NMAX)
    assert residual(P, Parity.EVEN, state) < 1e-2


def test_midgap_energy_has_large_residual():
    decomp = eigh(chain_matrix(P, Parity.EVEN, NMAX))
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
    # the private kernel checks the couplings itself: with g1^2 = g2^2 the
    # coupling blocks it divides by are singular
    for g_2 in (0.3, -0.3):
        p = ModelParams(1.3, 0.7, 0.3, g_2)
        with pytest.raises(SingularCoupling):
            eig_mod._recurrence_blocks_mp(p, Parity.EVEN, -1.0, (1.0, 0.0),
                                          50)


def test_band_residual_stays_finite_far_from_spectrum():
    # 1e200 away the residual's squares pass the float range; the scaled
    # norm still gives its size
    decomp = eigh(chain_matrix(P, Parity.ODD, 50))
    v = decomp.vectors[:, 0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        far = chain_residual(P, Parity.ODD, decomp.values[0] + 1e200, v)
        near = chain_residual(P, Parity.ODD, decomp.values[0], v)
    assert far == pytest.approx(1e200, rel=1e-12)
    assert near < 1e-12


def test_far_from_spectrum_state_is_flagged():
    # 1e200 from the spectrum every block is larger than the last: the run
    # keeps the seed block alone, and its residual flags the state
    state = recurrence_eigenstate_la(P, Parity.EVEN, 1e200, (1.0, 0.0), 50)
    assert state.cut_index == 0
    assert residual(P, Parity.EVEN, state) > eig_mod.RECURRENCE_RESIDUAL_TOL


def test_zero_seed_rejected():
    with pytest.raises(OverflowDetected, match="null vector"):
        recurrence_eigenstate_la(P, Parity.EVEN, -1.0, (0.0, 0.0), 50)
    # the route's own seed: at g2 8.8e-256 the third level's photon-0
    # amplitude is zero to the refiner's precision
    with pytest.raises(OverflowDetected, match="null vector"):
        eigenstate_recurrences(ModelParams(0.0, 0.0, 0.0, 8.8e-256),
                               Parity.EVEN, 3, 10)


def test_index_outside_the_chain_rejected():
    for count in (0, 2 * (20 + 1) + 1):
        with pytest.raises(ValueError, match="outside"):
            eigenstate_recurrences(P, Parity.EVEN, count, 20)


def test_index_counts_only_levels_that_pass_the_guard():
    # at n_max = 20 the even levels 0-4 and 6 of this chain pass the
    # truncation guard and level 5 does not: index 5 is level 6, as at
    # n_max = 80, and index 6 has no level; at n_max = 6 none passes
    p = ModelParams(1.3, 0.7, 0.9, 0.4)
    wide = eigh(chain_matrix(p, Parity.EVEN, 80))
    state = eigenstate_recurrences(p, Parity.EVEN, 6, 20)[5]
    assert state.xi == pytest.approx(wide.values[6], abs=1e-8)
    for count, n_max in ((7, 20), (1, 6)):
        with pytest.raises(TruncationInsufficient, match="converged"):
            eigenstate_recurrences(p, Parity.EVEN, count, n_max)


def _dense_seeded_states(params, parity, count, n_max):
    """(level, xi, state) of the first count levels of dense eigh of the
    whole chain whose vectors carry less than GUARD_TOL weight on the last
    four rows: the dense level, the oracle's refined eigenvalue and the
    four-term recurrence seeded by its refined pair."""
    dense = eigh(chain_matrix(params, parity, n_max))
    edge = np.sum(dense.vectors[-4:] ** 2, axis=0)
    keep = np.flatnonzero(edge < GUARD_TOL)[:count]
    if len(keep) < count:
        raise TruncationInsufficient(f"{len(keep)} of {count} converged")
    out = []
    for level in keep:
        xi, x, _ = refine_eigenpair_reference(
            params, parity, dense.values[level], dense.vectors[:, level],
            n_max)
        out.append((level, xi, recurrence_eigenstate_la(params, parity, xi,
                                                        x[:2], n_max)))
    return out


@settings(max_examples=12, deadline=None)
@given(omega_1=st.floats(0.0, 2.0), omega_2=st.floats(0.0, 2.0),
       g_1=st.floats(-1.0, 1.0), g_2=st.floats(-1.0, 1.0),
       parity=st.sampled_from(Parity), n_max=st.integers(10, 60),
       count=st.integers(1, 4))
@example(omega_1=0.0, omega_2=0.7, g_1=0.3, g_2=0.4, parity=Parity.ODD,
         n_max=40, count=4)
# level 5 fails the guard, so no window certifies and the whole chain
# gives the levels; count 7 has too few
@example(omega_1=1.3, omega_2=0.7, g_1=0.9, g_2=0.4, parity=Parity.EVEN,
         n_max=20, count=6)
@example(omega_1=1.3, omega_2=0.7, g_1=0.9, g_2=0.4, parity=Parity.EVEN,
         n_max=20, count=7)
@example(omega_1=1.1, omega_2=0.3, g_1=3.0, g_2=4.0, parity=Parity.EVEN,
         n_max=300, count=2)
# levels 0 and 1 lie 2e-15 apart, and both refiners decline
@example(omega_1=0.0, omega_2=0.0, g_1=0.5, g_2=1.175494351e-38,
         parity=Parity.EVEN, n_max=10, count=1)
# g^2 lies below the refiner's tolerance.  Where xi is a photon-0
# diagonal entry to the last bit, block 1 is zero and the state is the
# seed block alone, holding to about g (g 0/1.9e-54, both levels; g
# 0/2.2e-34, odd level 0; odd level 1 holds to 6.8e-68); level 0 holds to
# 1.7e-77 from the window seed and to 1.0e-201 from the dense one; a dense
# seed's first block is zero where no window seed's is
@example(omega_1=0.0, omega_2=0.0, g_1=0.0, g_2=1.9073223110007208e-54,
         parity=Parity.EVEN, n_max=10, count=1)
@example(omega_1=0.0, omega_2=0.0, g_1=0.0, g_2=2.2e-34, parity=Parity.ODD,
         n_max=20, count=2)
@example(omega_1=0.0, omega_2=0.0, g_1=1.2435834223700194e-228,
         g_2=1.0496677161120977e-201, parity=Parity.EVEN, n_max=19, count=2)
@example(omega_1=1.065559906280724, omega_2=0.7, g_1=4.716664822840003e-228,
         g_2=-6.892877359291515e-229, parity=Parity.ODD, n_max=21, count=4)
# two levels 9.0e-37 apart, far closer than the float spacing of eigh but
# far wider than tol: the two seeds may refine to either
@example(omega_1=0.0, omega_2=8.97e-37, g_1=0.0, g_2=0.001953125,
         parity=Parity.EVEN, n_max=10, count=1)
def test_recurrences_match_dense_seeded_refinement(omega_1, omega_2, g_1,
                                                   g_2, parity, n_max,
                                                   count):
    params = ModelParams(omega_1, omega_2, g_1, g_2)
    try:
        eig_mod._check_couplings(params)
    except SingularCoupling:
        with pytest.raises(SingularCoupling):
            eigenstate_recurrences(params, parity, count, n_max)
        return
    refined = []

    def spy(*args):
        refined.append(refine_eigenpair(*args))
        return refined[-1]

    def attempt(route):
        try:
            return route(params, parity, count, n_max)
        except (ConvergenceFailure, OverflowDetected,
                TruncationInsufficient) as exc:
            return type(exc)

    want = attempt(_dense_seeded_states)
    with mock.patch.object(eig_mod, "refine_eigenpair", spy):
        states = attempt(eigenstate_recurrences)
    if ConvergenceFailure in (want, states):
        # the refiner may decline only inside a cluster of levels closer
        # than 1e-10 ||H||, where the two seeds span the same subspace
        h = chain_matrix(params, parity, n_max)
        gaps = np.diff(eigh(h).values[:count + 1])
        assert np.min(gaps) < 1e-10 * np.max(np.abs(h).sum(axis=1))
        return
    tol = _refine_tolerance(params, parity, n_max)
    # g^2 below the refiner's tolerance: D_0 - xi is known only to that
    # tolerance, so whether the fixed-point scale follows the decaying
    # solution, and whether a refined first block comes out zero, is chance
    # for each seed
    tiny = max(g_1 ** 2, g_2 ** 2) < tol
    if not isinstance(want, list) or not isinstance(states, list):
        assert want is states or (tiny and OverflowDetected in (want, states))
        return
    assert len(states) == len(refined) == count
    h = chain_matrix(params, parity, n_max)
    dense = eigh(h)
    for state, (xi, _, res), (level, xi_want, seeded) in zip(states, refined,
                                                            want):
        # inside a cluster of levels closer than 1e-10 ||H||, as above, the
        # float seeds span the same subspace and the two refiners may
        # converge to different members, each a valid pair (g 0/0.00195:
        # 9.0e-37 apart, 3.3e-16 in eigh).  Where the members, each refined
        # on its own, come out more than 2 tol apart, the route's xi must
        # be some member's; elsewhere it must be the seeded level's
        cluster = np.flatnonzero(np.abs(dense.values - dense.values[level])
                                 < 1e-10 * np.max(np.abs(h).sum(axis=1)))
        members = [xi_want]
        if len(cluster) > 1:
            members = [m[0] for m in (
                _attempt(refine_eigenpair_reference, params, parity,
                         dense.values[m], dense.vectors[:, m], n_max)
                for m in cluster) if isinstance(m, tuple)]
        if len(members) < 2 or max(members) - min(members) <= 2 * tol:
            members = [xi_want]
        assert any(abs(xi - w) <= 2 * tol for w in members)
        assert state.xi == float(xi) and state.refine_residual == res
        got, seeded_res = (residual(params, parity, s)
                           for s in (state, seeded))
        if tiny and max(got, seeded_res) > eig_mod.RECURRENCE_RESIDUAL_TOL:
            # a loose state from either seed is flagged; where both hold
            # (g 0/2.2e-34, odd: 2.2e-34 and 6.8e-68), they meet the
            # checks below
            continue
        # near |g1| = |g2| (each step divides by g1^2 - g2^2) and deep in
        # strong coupling the scale no longer holds the decaying solution,
        # and either seed leaves the same residual (g 3/4: about |xi|)
        assert got == pytest.approx(seeded_res, rel=1e-2, abs=1e-12)
        if (abs(g_1 ** 2 - g_2 ** 2) >= 0.25 * max(g_1 ** 2, g_2 ** 2)
                and max(abs(params.g_plus), abs(params.g_minus)) <= 2.0):
            assert got <= 1e-6


def test_residual_of_exact_pair_and_random_vector():
    trunc = TruncationConfig(NMAX)
    h = expand_dense(build_parity_band(P, Parity.EVEN, trunc))
    vals, vecs = eigh(h)
    assert chain_residual(P, Parity.EVEN, vals[2], vecs[:, 2]) < 1e-10
    rng = np.random.default_rng(1)
    v = rng.normal(size=trunc.chain_dim)
    v /= np.linalg.norm(v)
    r = chain_residual(P, Parity.EVEN, 0.0, v)
    assert r > 1.0  # O(||H||)


def test_residual_decreases_toward_eigenvalue():
    trunc = TruncationConfig(80)
    h = expand_dense(build_parity_band(P, Parity.EVEN, trunc))
    vals, vecs = eigh(h)
    target, vec = vals[1], vecs[:, 1]
    offsets = [0.3, 0.1, 0.03, 0.01]
    res = [chain_residual(P, Parity.EVEN, target + d, vec) for d in offsets]
    assert all(a > b for a, b in zip(res, res[1:]))


def _pair(parity, index):
    decomp = eigh(chain_matrix(P, parity, NMAX))
    return decomp.values[index], decomp.vectors[:, index]


# ---------------------------------------------------------------------------
# mixed-precision eigenpair refinement
# ---------------------------------------------------------------------------

def _refine_tolerance(params, parity, n_max):
    """The stopping tolerance ||H||_inf 10^-(DPS + GUARD_DIGITS)."""
    h = chain_matrix(params, parity, n_max)
    digits = eig_mod.DPS + eig_mod.GUARD_DIGITS
    return float(np.max(np.abs(h).sum(axis=1))) * 10.0 ** -digits


def _check_refined(params, parity, n_max, index):
    """Refine dense eigh's index-th pair and compare with eigh.

    The refiner may decline with ConvergenceFailure only inside a cluster
    of levels closer than 1e-10 ||H||.
    """
    h = chain_matrix(params, parity, n_max)
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
    assert abs(sum(c * c for c in x) - 1) * norm <= 2 * tol
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
# ||H|| |1 - x^T x| / 2 lands within an ulp of 1 above tol: rounding
# x^T x before subtracting it from 1 let the refiner stop past tol
@example(omega_1=0.0, omega_2=1.95205019163539, g_1=0.5,
         g_2=0.027234848539979595, parity=Parity.EVEN, n_max=60,
         level=0.71875)
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


def _attempt(refine, *args):
    try:
        return refine(*args)
    except ConvergenceFailure as exc:
        return type(exc)


@settings(max_examples=10, deadline=None)
@given(omega_1=st.floats(0.0, 2.0), omega_2=st.floats(0.0, 2.0),
       g_1=st.floats(-1.5, 1.5), g_2=st.floats(-1.5, 1.5),
       parity=st.sampled_from(Parity), n_max=st.integers(20, 120),
       count=st.integers(1, 4), scale=st.just(1.0))
# g = 0: the edge block vanishes on every window
@example(omega_1=1.3, omega_2=0.7, g_1=0.0, g_2=0.0, parity=Parity.EVEN,
         n_max=60, count=3, scale=1.0)
# omega_1 = 0: the ladder runs from 48 rows to the whole chain of 162
@example(omega_1=0.0, omega_2=0.7, g_1=0.3, g_2=0.4, parity=Parity.ODD,
         n_max=80, count=3, scale=1.0)
@example(omega_1=1.3, omega_2=0.7, g_1=0.45, g_2=-0.4500000000000001,
         parity=Parity.EVEN, n_max=80, count=3, scale=1.0)
# an all-zero seed leaves the bordered system singular on either side
@example(omega_1=1.3, omega_2=0.7, g_1=0.3, g_2=0.4, parity=Parity.EVEN,
         n_max=100, count=1, scale=0.0)
# the seeds span more than half the chain: Newton runs on all of it
@example(omega_1=1.1, omega_2=0.3, g_1=3.0, g_2=4.0, parity=Parity.EVEN,
         n_max=300, count=2, scale=1.0)
def test_windowed_refinement_matches_whole_chain_oracle(
        omega_1, omega_2, g_1, g_2, parity, n_max, count, scale):
    # the package refines the certified window seed on its photon windows,
    # the oracle the same seed zero-padded, on the whole chain
    params = ModelParams(omega_1, omega_2, g_1, g_2)
    trunc = TruncationConfig(n_max)
    try:
        values, vectors = converged_parity_eigensystem(params, parity, trunc,
                                                       count)
    except TruncationInsufficient:
        return
    tol = _refine_tolerance(params, parity, n_max)
    for xi0, vec0 in zip(values, scale * vectors.T):
        padded = np.pad(vec0, (0, trunc.chain_dim - len(vec0)))
        got = _attempt(refine_eigenpair, params, parity, xi0, vec0, n_max)
        want = _attempt(refine_eigenpair_reference, params, parity, xi0,
                        padded, n_max)
        if not isinstance(got, tuple) or not isinstance(want, tuple):
            assert got is want
            continue
        xi, x, res = got
        assert len(x) == trunc.chain_dim and res <= tol
        assert abs(xi - want[0]) <= 2 * tol
        # past the window x is exactly zero, and its residual over the
        # window and one photon block is the whole chain's
        assert mp_chain_residual(params, parity, xi, x, n_max) <= 1.1 * tol


def test_refinement_at_the_readme_configuration_stays_in_windows(
        monkeypatch):
    # every level certifies on 162 of the 402 rows: no LU and no residual
    # of the refiner spans more than half the chain
    lus, residuals = [], []
    band_lu, fixed_residual = eig_mod._band_lu, eig_mod._fixed_residual
    monkeypatch.setattr(eig_mod, "_band_lu", lambda band, *args: (
        lus.append(band.shape[1]) or band_lu(band, *args)))
    monkeypatch.setattr(eig_mod, "_fixed_residual", lambda tables, xi, x,
                        bits: (residuals.append(len(x))
                               or fixed_residual(tables, xi, x, bits)))
    for parity in Parity:
        states = eigenstate_recurrences(P, parity, 10, NMAX)
        assert all(state.refine_residual <= _refine_tolerance(P, parity, NMAX)
                   for state in states)
    dim = TruncationConfig(NMAX).chain_dim
    assert lus and residuals
    assert max(lus) <= dim // 2 and max(residuals) <= dim // 2


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


def test_refinement_at_omega_1e200():
    # the rows of (H - xi) x scaled by 2^(2 FRACTION_BITS) pass the float
    # range though their values do not: each is converted by one int / int
    # division, where float(int) would overflow
    params, n_max = ModelParams(1e200, 0.5, 0.2, 0.1), 20
    for parity in Parity:
        dense = eigh(chain_matrix(params, parity, n_max))
        args = (params, parity, dense.values[0], dense.vectors[:, 0], n_max)
        xi, x, res = refine_eigenpair(*args)
        want, _, _ = refine_eigenpair_reference(*args)
        tol = _refine_tolerance(params, parity, n_max)
        assert res <= tol
        assert mp_chain_residual(params, parity, xi, x, n_max) <= 1.1 * tol
        assert abs(xi - want) <= 2 * tol


@pytest.mark.parametrize("bits", [eig_mod.FRACTION_BITS, 1200])
@pytest.mark.parametrize("value", [
    0.0, -0.0, 1.0, -3.75, 1e-80, 5e-324, 2.0 ** -230, 3 * 2.0 ** -230,
    -3 * 2.0 ** -230, 3 * 2.0 ** -1074, 0.1, 1e200, 2.0 ** 795,
    -1.7976931348623157e308])
def test_fixed_point_rounds_exactly(value, bits):
    # the nearest int to value 2^bits, ties to even, for every finite
    # float; from 2^(1024 - bits) on, value 2^bits passes the float range
    assert eig_mod._fixed(value, bits) == round(Fraction(value) * 2 ** bits)


@pytest.mark.parametrize("num, den", [
    (5, 2), (7, 2), (-5, 2), (-7, 2), (5, -2), (7, -2), (-5, -2), (-7, -2),
    (1, 2), (-1, 2), (3, 2), (-3, 2), (45, 6), (51, 6), (-45, 6),
    pytest.param(2 ** 300 + 2 ** 199, 2 ** 200, id="2^100+1/2"),
    pytest.param(-3 * 2 ** 300 - 2 ** 199, 2 ** 200, id="-3*2^100-1/2"),
    (7, 3), (8, 3), (-8, 3), (0, 5), (0, -5)])
def test_nearest_rounds_ties_to_even(num, den):
    # exact ties on floor quotients even (5/2, -7/2, 51/6) and odd (7/2,
    # -5/2, 45/6), by either sign of the denominator and past the float
    # range: each rounds as a Fraction does, to the even neighbour
    assert eig_mod._nearest(num, den) == round(Fraction(num, den))


def test_cut_normalize_cuts_at_the_first_least_block():
    # blocks 1 and 3 tie for the least squared norm (1); the cut is block 1
    # and only blocks 0 and 1 are kept, over the norm sqrt(25 + 1) rounded
    # down to the int 5
    blocks = [(3, 4), (1, 0), (5, 0), (0, -1), (7, 7)]
    squares = [p * p + q * q for p, q in blocks]
    state = eig_mod._cut_normalize(Parity.EVEN, 0.5, blocks, squares, 6)
    v, cut = cut_normalize_reference(blocks, 6)
    assert state.cut_index == cut == 1
    assert np.array_equal(state.v, v)
    assert not state.v[4:].any() and state.v[2] == v[2] != 0


@pytest.mark.parametrize("omega_1,omega_2,g_1,g_2,parity,n_max,count,level,"
                         "bound", [
    (1.065559906280724, 0.7, 4.716664822840003e-228,
     -6.892877359291515e-229, Parity.ODD, 21, 4, 0, 1e-70),
    (0.0, 0.0, 0.0, 2.2e-34, Parity.ODD, 20, 2, 1, 1e-60),
    (0.0, 0.0, 0.0, 6.898056406907243e-47, Parity.EVEN, 3, 1, 0, 1e-55)])
def test_refiner_scale_keeps_offsets_below_the_tolerance(
        omega_1, omega_2, g_1, g_2, parity, n_max, count, level, bound):
    # g^2 below the refiner's tolerance: the levels lie about g^2 off the
    # diagonal and the vectors' off-diagonal entries are about g.  The
    # scale gains the bits of 1 / g^2, so the refined pair keeps them and
    # seeds a recurrence that holds (2.0e-76, 6.8e-68, 7.8e-62); at
    # 2^-FRACTION_BITS alone the first run raises OverflowDetected (a zero
    # seed block), and the others hold only to 1.3e-36 and about g
    params = ModelParams(omega_1, omega_2, g_1, g_2)
    states = eigenstate_recurrences(params, parity, count, n_max)
    assert len(states) == count
    assert residual(params, parity, states[level]) <= bound


# ---------------------------------------------------------------------------
# fixed-point kernels against their exact-rational forms
# ---------------------------------------------------------------------------

def _last_step_grows(params, parity, xi, n_max):
    """a_n - s_n >= 1 at the last step n = n_max, from the diagonal and xi
    at the recurrence's scale: where it fails, no growth bound holds to the
    end, and the run must go to n_max."""
    bits = recurrence_bits(params, parity, n_max)
    rows = fixed_chain_rows(params, parity, n_max, bits)
    xi = fixed_point(xi, bits)
    dist = min(abs(rows[i][i] - xi) for i in (2 * n_max - 2, 2 * n_max - 1))
    a = float(Fraction(dist, 2 ** bits)) / (
        math.sqrt(n_max) * (abs(params.g_1) + abs(params.g_2)))
    return a - math.sqrt((n_max - 1) / n_max) >= 1


def _check_stopped_run(params, parity, xi, seed, n_max):
    """The kernel's blocks and squared norms are the leading ones of the
    oracle's whole run, its cut and vector are those of that run, bit for
    bit, and every block of that run past the stop is at least as large as
    the last."""
    blocks, squares = eig_mod._recurrence_blocks_mp(params, parity, xi, seed,
                                                    n_max)
    whole = recurrence_blocks_reference(params, parity, xi, seed, n_max)
    stop = len(blocks) - 1
    assert 1 <= stop <= n_max
    assert blocks == whole[:stop + 1]
    assert squares == [p * p + q * q for p, q in whole[:stop + 1]]
    if not _last_step_grows(params, parity, xi, n_max):
        assert stop == n_max
    try:
        v, cut = cut_normalize_reference(whole, n_max)
    except OverflowDetected:
        # a null seed block: every block is zero, and both reject it
        assert stop == n_max and not any(map(any, whole))
        with pytest.raises(OverflowDetected, match="null vector"):
            eig_mod._cut_normalize(parity, xi, blocks, squares, n_max)
        return
    state = eig_mod._cut_normalize(parity, xi, blocks, squares, n_max)
    assert state.cut_index == cut and np.array_equal(state.v, v)
    if stop < n_max:
        norms = [p * p + q * q for p, q in whole[stop - 1:]]
        assert cut < stop and norms[0] <= norms[1]
        assert all(lo <= hi for lo, hi in zip(norms[1:], norms[2:]))


@settings(max_examples=15, deadline=None)
@given(omega_1=st.floats(0.0, 2.0), omega_2=st.floats(0.0, 2.0),
       g_1=st.floats(-1.5, 1.5), g_2=st.floats(-1.5, 1.5),
       parity=st.sampled_from(Parity), n_max=st.integers(2, 60),
       level=st.floats(0.0, 1.0), offset=st.floats(-5.0, 5.0))
# the top level at n_max 200: the bound fails at the last steps, and every
# run goes to n_max, the two offset ones past 1e300
@example(omega_1=1.3, omega_2=0.7, g_1=0.3, g_2=0.4, parity=Parity.EVEN,
         n_max=200, level=1.0, offset=0.5)
# far from the spectrum, 50 below and 1e200 above: the run stops at block
# 1
@example(omega_1=1.3, omega_2=0.7, g_1=0.3, g_2=0.4, parity=Parity.ODD,
         n_max=50, level=0.0, offset=-50.0)
@example(omega_1=1.3, omega_2=0.7, g_1=0.3, g_2=0.4, parity=Parity.ODD,
         n_max=50, level=0.0, offset=1e200)
@example(omega_1=0.0, omega_2=0.7, g_1=0.3, g_2=0.4, parity=Parity.EVEN,
         n_max=40, level=0.1, offset=0.5)
@example(omega_1=0.0, omega_2=0.0, g_1=0.5, g_2=-0.3, parity=Parity.ODD,
         n_max=40, level=0.2, offset=-5.0)
@example(omega_1=1.3, omega_2=0.0, g_1=-0.5, g_2=0.2, parity=Parity.ODD,
         n_max=40, level=0.3, offset=-2.0)
# |g1| near |g2|: each step divides by g1^2 - g2^2
@example(omega_1=1.3, omega_2=0.7, g_1=1.0, g_2=0.95, parity=Parity.EVEN,
         n_max=60, level=0.0, offset=5.0)
@example(omega_1=1.3, omega_2=0.7, g_1=0.45, g_2=-0.44, parity=Parity.ODD,
         n_max=60, level=1.0, offset=0.0)
# deep strong coupling at the Fig. 3 couplings
@example(omega_1=1.1, omega_2=0.3, g_1=3.0, g_2=4.0, parity=Parity.EVEN,
         n_max=300, level=0.0, offset=5.0)
@example(omega_1=1.1, omega_2=0.3, g_1=3.0, g_2=4.0, parity=Parity.ODD,
         n_max=300, level=1.0, offset=-5.0)
# a decoupled Fock level: its refined first block is exactly zero
@example(omega_1=0.0, omega_2=0.0, g_1=0.0, g_2=7.597715095932441e-267,
         parity=Parity.EVEN, n_max=2, level=1.0, offset=0.0)
@example(omega_1=0.0, omega_2=0.0, g_1=0.5, g_2=0.5, parity=Parity.EVEN,
         n_max=30, level=0.5, offset=0.0)
# g^2 below the refiner's tolerance: the refined xi lies 4.8e-93 below
# the photon-0 diagonal, which a scale of 2^-FRACTION_BITS would round
# away, leaving block 1 zero
@example(omega_1=0.0, omega_2=0.0, g_1=0.0, g_2=6.898056406907243e-47,
         parity=Parity.EVEN, n_max=3, level=0.0, offset=0.0)
# the float seed passes the refiner's test: xi is the photon-0 diagonal
# entry -1/2 to the last bit, block 1 is zero, and the cut falls on it
@example(omega_1=0.0, omega_2=1.0, g_1=1e-32, g_2=0.0, parity=Parity.EVEN,
         n_max=3, level=0.0, offset=0.0)
def test_raw_tuple_kernels_match_mpf_oracle(omega_1, omega_2, g_1, g_2,
                                            parity, n_max, level, offset):
    params = ModelParams(omega_1, omega_2, g_1, g_2)
    dense = eigh(chain_matrix(params, parity, n_max))
    index = round(level * (len(dense.values) - 1))
    args = (params, parity, dense.values[index], dense.vectors[:, index],
            n_max)
    try:
        want = refine_eigenpair_reference(*args)
    except ConvergenceFailure as exc:
        with pytest.raises(ConvergenceFailure, match=re.escape(str(exc))):
            refine_eigenpair(*args)
        xi, seed = Fraction(float(dense.values[index])), (1.0, 0.0)
    else:
        got = refine_eigenpair(*args)
        assert got == want
        xi, seed = got[0], got[1][:2]
    try:
        eig_mod._check_couplings(params)
    except SingularCoupling:
        return
    far = xi + Fraction(offset)
    for run in ((xi, seed), (far, (1.0, 0.0)), (far, (0.6, 0.8))):
        _check_stopped_run(params, parity, *run, n_max)


def test_oracle_examples_reach_their_corners():
    # the explicit examples above run to n_max and stop at block 1, so the
    # comparisons cover both ends
    p = ModelParams(1.3, 0.7, 0.3, 0.4)
    decomp = eigh(chain_matrix(p, Parity.EVEN, NMAX))
    xi, x, _ = refine_eigenpair(p, Parity.EVEN, decomp.values[-1],
                                decomp.vectors[:, -1], NMAX)
    for run in ((xi, x[:2]), (xi + Fraction(1, 2), (1.0, 0.0))):
        blocks, _ = eig_mod._recurrence_blocks_mp(p, Parity.EVEN, *run, NMAX)
        assert len(blocks) == NMAX + 1
    low = eigh(chain_matrix(p, Parity.ODD, 50)).values[0]
    for offset in (-50.0, 1e200):
        blocks, _ = eig_mod._recurrence_blocks_mp(p, Parity.ODD, low + offset,
                                                  (1.0, 0.0), 50)
        assert len(blocks) == 2


@pytest.mark.parametrize("g_1, g_2, xi, seed, n_max", [
    # near |g1| = |g2| the run to n_max passes 1e300 at blocks 36 and 62,
    # and stops at blocks 15 and 9
    (0.5, -0.499999997, 6.0, (1.0, 0.0), 100),
    (0.3, 0.29997, 5.0, (1.0, 0.0), 100),
    # from a seed block of 1e248 it passes 1e300 at block 33, and stops at
    # block 1
    (0.3, 0.4, -3.0, (1e248, 0.0), 80)],
    ids=["g-0.5", "g-0.3", "seed-1e248"])
def test_stop_holds_past_the_float_range(g_1, g_2, xi, seed, n_max):
    # int blocks have no float range to leave, so each run stops one block
    # past its cut and matches the oracle's whole run
    p = ModelParams(1.3, 0.7, g_1, g_2)
    blocks, _ = eig_mod._recurrence_blocks_mp(p, Parity.EVEN, xi, seed, n_max)
    assert len(blocks) <= n_max
    _check_stopped_run(p, Parity.EVEN, xi, seed, n_max)


def test_recurrence_stops_one_block_past_the_readme_cuts(monkeypatch):
    # past every README level's cut (blocks 30-36) the growth bound holds:
    # each run ends on the block after its cut, at most 38 of 201 blocks
    runs, kernel = [], eig_mod._recurrence_blocks_mp
    monkeypatch.setattr(eig_mod, "_recurrence_blocks_mp", lambda *args: (
        runs.append(kernel(*args)) or runs[-1]))
    states = [state for parity in Parity
              for state in eigenstate_recurrences(P, parity, 10, NMAX)]
    assert len(runs) == len(states) == 20
    for (blocks, _), state in zip(runs, states):
        assert len(blocks) <= state.cut_index + 2 <= 38
        assert residual(P, state.parity, state) < 1e-10


@settings(max_examples=20, deadline=None)
@given(omega_1=st.floats(0.0, 40.0), omega_2=st.floats(0.0, 40.0),
       g_1=st.floats(-3.0, 3.0), g_2=st.floats(-3.0, 3.0),
       parity=st.sampled_from(Parity), n_max=st.integers(1, 60))
@example(omega_1=1.3, omega_2=0.7, g_1=0.3, g_2=0.4, parity=Parity.ODD,
         n_max=200)
# entries whose bits reach far below the fixed-point scale
@example(omega_1=1e200, omega_2=8.97e-37, g_1=1e-300, g_2=-2.0 ** -230,
         parity=Parity.EVEN, n_max=20)
def test_mp_tables_match_the_mpf_operators(omega_1, omega_2, g_1, g_2,
                                           parity, n_max):
    # the fixed-point diagonal and coupling entries that the refiner and
    # the recurrence read against their exact rational and mpmath at F + 64
    # bits, each rounded to the nearest int
    params = ModelParams(omega_1, omega_2, g_1, g_2)
    bits = eig_mod._fraction_bits(params,
                                  _refine_tolerance(params, parity, n_max))
    rows = fixed_chain_rows(params, parity, n_max, bits)
    fixed_diag = [rows[i][i] for i in range(len(rows))]
    assert list(eig_mod._fixed_diagonal(params, parity, n_max, bits)) == (
        list(zip(fixed_diag[0::2], fixed_diag[1::2])))
    assert eig_mod._fixed_coupling_table(params, n_max, bits) == tuple(
        tuple(fixed_coupling(g, j, bits) for j in range(n_max + 1)) + (0,)
        for g in (g_1, g_2))


_REFINE_PROBE = """
import json, sys
import numpy as np
from rabi2q.eigenstates import refine_eigenpair
from rabi2q.model import ModelParams, Parity
start = json.load(open(sys.argv[1]))
xi, x, _ = refine_eigenpair(ModelParams(1.3, 0.7, 0.3, 0.4), Parity.ODD,
                            float.fromhex(start["xi"]),
                            np.array([float.fromhex(c) for c in start["v"]]),
                            start["n_max"])
print(xi)
print(" ".join(map(str, x)))
"""


def test_refinement_does_not_depend_on_blas_threads(tmp_path):
    n_max = 60
    decomp = eigh(chain_matrix(P, Parity.ODD, n_max))
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


@settings(max_examples=20, deadline=None)
@given(omega_1=st.floats(0.0, 3.0), omega_2=st.floats(0.0, 3.0),
       g_1=st.floats(-2.0, 2.0), g_2=st.floats(-2.0, 2.0),
       parity=st.sampled_from(Parity), chi=st.floats(-5.0, 10.0),
       j_max=st.integers(8, 60))
# the README's odd level 1: (chi - 31)^2 at j = 33 is one ulp off in
# numpy's square
@example(omega_1=1.3, omega_2=0.7, g_1=0.3, g_2=0.4, parity=Parity.ODD,
         chi=-0.049425521010105423, j_max=120)
# alpha_0 vanishes on every other row
@example(omega_1=0.9, omega_2=0.9, g_1=0.3, g_2=0.45, parity=Parity.EVEN,
         chi=-0.5, j_max=30)
@example(omega_1=1.3, omega_2=0.7, g_1=0.3, g_2=0.3, parity=Parity.ODD,
         chi=-0.5, j_max=30)
def test_bargmann_rows_match_scalar_oracle(omega_1, omega_2, g_1, g_2,
                                          parity, chi, j_max):
    # the one-pass row matrix against the rows built one at a time, bit
    # for bit
    params = ModelParams(omega_1, omega_2, g_1, g_2)
    try:
        want = bargmann_rows_reference(params, parity, chi, j_max)
    except StepSingular as exc:
        with pytest.raises(StepSingular, match=re.escape(str(exc))):
            eig_mod._bargmann_rows(params, parity, chi, j_max)
        return
    got = eig_mod._bargmann_rows(params, parity, chi, j_max)
    assert got.shape == want.shape and np.array_equal(got, want)


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
        vals, _ = eigh(expand_dense(build_parity_band(PB, parity, trunc)))
        for index in (0, 3):
            res = bargmann_reconstruction_residual(PB, parity,
                                                   float(vals[index]),
                                                   j_max=120, n_max=NMAX)
            assert res <= 1e-4


def test_reconstruction_residual_large_off_eigenvalue():
    trunc = TruncationConfig(NMAX)
    vals, _ = eigh(expand_dense(build_parity_band(PB, Parity.EVEN, trunc)))
    chi_mid = 0.5 * (vals[1] + vals[2])
    res = bargmann_reconstruction_residual(PB, Parity.EVEN, chi_mid,
                                           j_max=120, n_max=NMAX)
    assert res > 1e-2


def test_reconstruction_stays_in_claimed_parity():
    trunc = TruncationConfig(NMAX)
    vals, _ = eigh(expand_dense(build_parity_band(PB, Parity.ODD, trunc)))
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
    # the cut is the photon level where the amplitudes reach the rounding
    # floor; the conversion keeps every level up to min(j_max, n_max)
    j_max = 400 if case == "sqrt(j_max!) overflows" else 40
    chi = float(eigh(chain_matrix(PB, parity, 60)).values[1])
    coeffs, _ = bargmann_minimal_coefficients(PB, parity, chi, j_max)
    assert (coeffs.parity, coeffs.chi) == (parity, chi)
    got = bargmann_to_chain(coeffs, n_max=n_max)
    v, other = bargmann_chain_reference(coeffs, n_max)
    assert (got.parity, got.xi) == (parity, chi)
    assert np.array_equal(got.v, v)
    assert got.other_chain_weight == other
    norm = np.hypot(coeffs.c, coeffs.phi2)
    cut = int(np.argmax(norm < 1e-15 * norm.max()))
    assert {"n_max below the cut": n_max < cut,
            "cut below n_max <= j_max": 0 < cut < n_max <= j_max,
            "n_max above j_max": n_max > j_max,
            "sqrt(j_max!) overflows": 0 < cut < n_max < 301 <= j_max}[case]


def _bargmann_against_window(params, parity, trunc, count, j_max):
    """(residual, overlap with the certified window vector) of the
    Bargmann state at each of the lowest count certified levels; the
    overlap is 1 at a level within 1e-6 of a neighbour, whose vector is not
    unique."""
    values, vectors = converged_parity_eigensystem(params, parity, trunc,
                                                   count + 1)
    gaps = np.diff(values)
    isolated = np.minimum(np.r_[np.inf, gaps[:-1]], gaps) > 1e-6
    out = []
    for xi, window, alone in zip(values.tolist(), vectors.T, isolated):
        coeffs, _ = bargmann_minimal_coefficients(params, parity, xi, j_max)
        v = bargmann_to_chain(coeffs, n_max=trunc.n_max).v
        out.append((chain_residual(params, parity, xi, v),
                    abs(v[:len(window)] @ window) if alone else 1.0))
    return out


@settings(max_examples=15, deadline=None)
@given(omega_1=st.floats(0.0, 2.0), omega_2=st.floats(0.0, 2.0),
       g_1=st.floats(-1.0, 1.0), g_2=st.floats(-1.0, 1.0),
       parity=st.sampled_from(Parity), n_max=st.integers(50, 80))
# g 1.0/0.95: the amplitudes of the lowest levels reach photon 40
@example(omega_1=1.3, omega_2=0.7, g_1=1.0, g_2=0.95, parity=Parity.ODD,
         n_max=60)
def test_bargmann_state_is_the_certified_eigenstate(omega_1, omega_2, g_1,
                                                    g_2, parity, n_max):
    # the five-term minimal solution over the Fock amplitudes reproduces
    # each certified level to rounding, and its state is the window's; the
    # companion divides by (omega_2 -+ omega_1) / 2, so the rounding grows
    # like 1 / |omega_1 - omega_2| (4e-10 at 0.005).  The j_max = n_max
    # amplitudes hold the lowest levels: their displacements reach
    # |g_1| + |g_2| <= 2, and a coherent state of amplitude 2 holds a
    # weight of about 1e-36 at photon 50 (2e-8 at n_max 40 came from
    # truncation)
    assume(abs(omega_1 - omega_2) >= 0.01
           and abs(abs(g_1) - abs(g_2)) >= 1e-3)
    params = ModelParams(omega_1, omega_2, g_1, g_2)
    try:
        pairs = _bargmann_against_window(params, parity,
                                         TruncationConfig(n_max), 3, n_max)
    except TruncationInsufficient:
        return
    for res, overlap in pairs:
        assert res <= 1e-9 and overlap >= 1 - 1e-9


def test_bargmann_state_at_fig3_couplings():
    # deep strong coupling, g 3/4: the states reach past photon 120
    params = ModelParams(1.1, 0.3, 3.0, 4.0)
    for parity in Parity:
        pairs = _bargmann_against_window(params, parity,
                                         TruncationConfig(300), 10, 200)
        for res, overlap in pairs:
            assert res <= 1e-9 and overlap >= 1 - 1e-9


@settings(max_examples=12, deadline=None)
@given(omega_1=st.floats(1.2, 1.4), omega_2=st.floats(0.6, 0.8),
       g_1=st.floats(0.2, 0.4), g_2=st.floats(0.3, 0.45),
       parity=st.sampled_from(Parity), level=st.integers(0, 9),
       scale=st.floats(-10.0, -5.0), sign=st.sampled_from([-1.0, 1.0]))
def test_bargmann_residual_grows_with_the_distance_from_a_level(
        omega_1, omega_2, g_1, g_2, parity, level, scale, sign):
    # around the README couplings: at a certified level E the residual is
    # at rounding level; at E + delta, delta / ||H|| = 1e-10 to 1e-5, it
    # is at least |delta|, since no vector has a smaller residual there,
    # and it grows with delta like delta itself
    assume(abs(abs(g_1) - abs(g_2)) >= 1e-3)
    params = ModelParams(omega_1, omega_2, g_1, g_2)
    trunc = TruncationConfig(NMAX)
    values, _ = converged_parity_eigensystem(params, parity, trunc,
                                             level + 2)
    hnorm = band_norm(build_parity_band(params, parity, trunc))
    energy = float(values[level])
    delta = sign * 10.0 ** scale * hnorm
    gap = np.min(np.abs(np.delete(values, level) - energy))
    assume(20 * abs(delta) < gap)

    def residual_at(chi):
        return bargmann_reconstruction_residual(params, parity, chi,
                                                n_max=NMAX)

    assert residual_at(energy) <= 1e-13 * hnorm
    near, far = residual_at(energy + delta), residual_at(energy + 10 * delta)
    assert near >= 0.9 * abs(delta)
    assert 5 <= far / near <= 20


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
