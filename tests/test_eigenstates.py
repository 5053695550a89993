import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import mpmath as mp

import rabi2q
import rabi2q.eigenstates as eig_mod
from rabi2q.eigenstates import (CLUSTER_GAP, RECURRENCE_RESIDUAL_TOL,
                                bargmann_identical_coefficients,
                                bargmann_residuals, chain_residual,
                                eigenstate_recurrences, eigenstates_by_parity,
                                recurrence_eigenstate_la, residual)
from rabi2q.errors import (ConfigError, OverflowDetected, SingularCoupling,
                           StepSingular, TruncationInsufficient)
from rabi2q.hamiltonian import build_parity_band
from rabi2q.model import ModelParams, Parity, TruncationConfig
from rabi2q.numerics import band_norm, eigh, expand_dense, padded_residuals
from rabi2q.spectra import converged_pairs

from oracles import (G_CROSS, bargmann_chain_reference,
                     bargmann_rows_reference, chain_state,
                     exact_chain_residual, fixed_chain_rows, fixed_point,
                     least_singular_vector_reference, nearest)

P = ModelParams(1.3, 0.7, 0.3, 0.4)
NMAX = 200
# a residual at rounding level, relative to ||H||: the worst of the README,
# Fig. 3 and the property draws below is about 1.3e-15
ROUNDING = 1e-14


def chain_matrix(params, parity, n_max):
    """Dense matrix of one parity chain at photon cutoff n_max."""
    return expand_dense(build_parity_band(params, parity,
                                          TruncationConfig(n_max)))


def _hnorm(params, parity, n_max):
    return band_norm(build_parity_band(params, parity,
                                       TruncationConfig(n_max)))


# ---------------------------------------------------------------------------
# two-sided chain recurrence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("parity", list(Parity))
def test_recurrence_states_are_the_readme_eigenstates(parity):
    # at the certified window energies, bit for bit, each state has a
    # residual at rounding level and is dense eigh's vector
    values, _ = converged_pairs([(P, parity)], TruncationConfig(NMAX), 10)[0]
    states = eigenstate_recurrences(P, parity, 10, NMAX)
    dense = eigh(chain_matrix(P, parity, NMAX))
    hnorm = _hnorm(P, parity, NMAX)
    assert [state.xi for state in states] == values.tolist()
    for state, vector in zip(states, dense.vectors.T):
        assert state.parity is parity and 0 <= state.twist <= NMAX
        assert np.linalg.norm(state.v) == pytest.approx(1.0, abs=1e-15)
        assert residual(P, parity, state) <= ROUNDING * hnorm
        assert abs(state.v @ vector) >= 1 - 1e-12


def _pairs(params, parity, count, n_max):
    """(state, residual, window vector, distance to the nearest other
    level) of the count lowest levels, the distance taken over count + 1
    certified levels."""
    values, vectors = converged_pairs([(params, parity)],
                                      TruncationConfig(n_max), count + 1)[0]
    states = eigenstate_recurrences(params, parity, count, n_max)
    gaps = np.diff(values)
    near = np.minimum(np.r_[np.inf, gaps[:-1]], gaps)
    return [(state, residual(params, parity, state), window, gap)
            for state, window, gap in zip(states, vectors.T, near)]


@settings(max_examples=60, deadline=None)
@given(omega_1=st.floats(0.0, 2.0), omega_2=st.floats(0.0, 2.0),
       g_1=st.floats(-5.0, 5.0), g_2=st.floats(-5.0, 5.0),
       tiny=st.sampled_from([0, 9, 30]), tie=st.sampled_from([0, 1, -1]),
       same_omega=st.booleans(), parity=st.sampled_from(Parity),
       n_max=st.integers(20, 160), count=st.integers(1, 6))
# a dark state of g1 = -g2: the twist of least singular value spreads it
# through a singular pivot, the second candidate does not
@example(omega_1=0.0, omega_2=2.0, g_1=0.31749457684072285, g_2=0.0, tiny=0,
         tie=-1, same_omega=False, parity=Parity.EVEN, n_max=54, count=4)
# omega_1 = omega_2 and g1 = g2: level 3 is exactly the antisymmetric
# qubit pair at photon 1, and E = 1 lies on the bare level of photon 0
@example(omega_1=1.0, omega_2=1.0, g_1=-0.14925823674363717, g_2=0.0, tiny=0,
         tie=1, same_omega=True, parity=Parity.EVEN, n_max=70, count=4)
# g 1e-9/2e-9 at omega 1: a cluster of three levels 2.2e-9 apart whose
# middle one is dark, 1.7e-17 above a bare level of photon 1
@example(omega_1=1.0, omega_2=1.0, g_1=1.0, g_2=2.0, tiny=9, tie=0,
         same_omega=True, parity=Parity.ODD, n_max=50, count=6)
# g 2.2e-105/2.2e-105 at omega 1: levels 1 and 2, the pair of qubit
# states at photon 1, tie to the last bit, and the second's twisted state
# is the first's to rounding, which Kahan's test rejects
@example(omega_1=1.0, omega_2=1.0, g_1=2.1664316415878338e-105, g_2=0.0,
         tiny=0, tie=1, same_omega=True, parity=Parity.EVEN, n_max=20,
         count=3)
# g = 0 at omega 1: levels tie exactly, within a block and across blocks
@example(omega_1=1.0, omega_2=1.0, g_1=0.0, g_2=0.0, tiny=0, tie=0,
         same_omega=True, parity=Parity.EVEN, n_max=20, count=6)
# Fig. 3, deep strong coupling
@example(omega_1=1.1, omega_2=0.3, g_1=3.0, g_2=4.0, tiny=0, tie=0,
         same_omega=False, parity=Parity.ODD, n_max=300, count=10)
def test_recurrence_states_match_the_certified_levels(
        omega_1, omega_2, g_1, g_2, tiny, tie, same_omega, parity, n_max,
        count):
    # outside a cluster each state has a residual at rounding level and is
    # the certified window vector; a cluster member is resolved (within the
    # tolerance, and orthogonal to the resolved members of its cluster) or
    # flagged (its residual past the tolerance, or nan where it has no
    # vector)
    g_1, g_2 = g_1 * 10.0 ** -tiny, g_2 * 10.0 ** -tiny
    params = ModelParams(omega_1, omega_1 if same_omega else omega_2, g_1,
                         tie * g_1 if tie else g_2)
    try:
        pairs = _pairs(params, parity, count, n_max)
    except TruncationInsufficient:
        assume(False)
    hnorm = _hnorm(params, parity, n_max)
    cluster = []
    for i, (state, res, window, gap) in enumerate(pairs):
        if gap > CLUSTER_GAP * hnorm:
            assert res <= ROUNDING * hnorm
            assert abs(state.v[:len(window)] @ window) >= 1 - 1e-12
        if i and state.xi - pairs[i - 1][0].xi > CLUSTER_GAP * hnorm:
            cluster = []
        if res <= RECURRENCE_RESIDUAL_TOL:
            assert all(abs(state.v @ v) <= 1e-12 for v in cluster)
            cluster.append(state.v)
        else:
            assert not res <= RECURRENCE_RESIDUAL_TOL


@pytest.mark.parametrize("g", [0.51, G_CROSS, G_CROSS + 1e-6])
@pytest.mark.parametrize("index", [3, 4])
def test_refiner_at_the_criterion_05_crossing(g, index):
    # levels 3 and 4 of the even chain lie 6.8e-3 apart at g = 0.51, 2.6e-6
    # at G_CROSS + 1e-6 and 1.1e-9 at G_CROSS, each time inside one
    # cluster: each takes its own twisted state, orthogonalized within the
    # pair, comes out within the tolerance and lies in the span of eigh's
    # two vectors; every other level is at rounding level
    params = ModelParams(1.3, 0.7, g, g)
    states = eigenstate_recurrences(params, Parity.EVEN, 20, 300)
    hnorm = _hnorm(params, Parity.EVEN, 300)
    res = [residual(params, Parity.EVEN, state) for state in states]
    assert res[index] <= RECURRENCE_RESIDUAL_TOL
    assert abs(states[3].v @ states[4].v) <= 1e-12
    pair = eigh(chain_matrix(params, Parity.EVEN, 300)).vectors[:, 3:5]
    assert np.linalg.norm(pair.T @ states[index].v) >= 1 - 1e-12
    assert max(res[:3] + res[5:]) <= ROUNDING * hnorm


def _check_twist_cut(params, parity, count, n_max):
    """Run ``eigenstate_recurrences`` as it is, whose twisted states end at
    the cut of the tail bound, and with ``_twisted_states`` on the whole
    chain, the oracle; check that the cut does not show, and return the
    blocks kept and both routes' states.  A level lies in a cluster when
    the nearest of count + 1 certified levels is within CLUSTER_GAP ||H||.

    The cut states are zero on the dropped rows.  Outside a cluster both
    routes pick the same twist block, the oracle's state is at most eps^2
    on the dropped rows, and the states agree to rounding, up to a sign
    that rounding sets where the couplings are near eps^2 and omega is 0,
    and so their residuals within eps ||H|| (mostly bit for bit).  The
    members of a cluster are fixed only to rounding over their gap (down
    to 1e-60 here), so rounding alone can turn one from resolved to
    flagged: they are held to the zero rows only.
    """
    kernel, blocks = eig_mod._twisted_states, []

    def cut(band, levels, kept):
        blocks.append(kept)
        return kernel(band, levels, kept)

    with mock.patch.object(eig_mod, "_twisted_states", cut):
        states = eigenstate_recurrences(params, parity, count, n_max)
    with mock.patch.object(eig_mod, "_twisted_states",
                           lambda band, levels, kept: kernel(
                               band, levels, band.shape[-1] // 2)):
        whole = eigenstate_recurrences(params, parity, count, n_max)
    eps, rows = np.finfo(float).eps, 2 * blocks[0]
    hnorm = _hnorm(params, parity, n_max)
    values, _ = converged_pairs([(params, parity)], TruncationConfig(n_max),
                                count + 1)[0]
    gaps = np.diff(values)
    near = np.minimum(np.r_[np.inf, gaps[:-1]], gaps)
    for state, oracle, gap in zip(states, whole, near):
        assert np.isnan(state.v).all() or not state.v[rows:].any()
        if gap <= CLUSTER_GAP * hnorm:
            continue
        assert state.twist == oracle.twist
        assert np.max(np.abs(oracle.v[rows:]), initial=0) <= eps ** 2
        sign = np.sign(state.v @ oracle.v)
        assert np.max(np.abs(state.v - sign * oracle.v)) <= 4 * eps
        got, want = (residual(params, parity, s) for s in (state, oracle))
        assert abs(got - want) <= eps * hnorm
    return blocks[0], states, whole


@settings(max_examples=50, deadline=None)
@given(omega_1=st.floats(0.0, 2.0), omega_2=st.floats(0.0, 2.0),
       g_1=st.floats(-5.0, 5.0), g_2=st.floats(-5.0, 5.0),
       tiny=st.sampled_from([0, 9, 30]), tie=st.sampled_from([0, 1, -1]),
       same_omega=st.booleans(), parity=st.sampled_from(Parity),
       n_max=st.integers(10, 120), count=st.integers(1, 10))
# |g1| = |g2|, omega_1 = omega_2 and tiny couplings, the cases measured
# when the cut was made (54, 71 and 11 of 101, 101 and 51 blocks kept)
@example(omega_1=1.0, omega_2=1.0, g_1=0.3, g_2=0.0, tiny=0, tie=-1,
         same_omega=True, parity=Parity.ODD, n_max=100, count=10)
@example(omega_1=1.0, omega_2=1.0, g_1=0.5, g_2=0.0, tiny=0, tie=1,
         same_omega=True, parity=Parity.EVEN, n_max=100, count=10)
@example(omega_1=1.0, omega_2=1.0, g_1=1.0, g_2=2.0, tiny=9, tie=0,
         same_omega=True, parity=Parity.EVEN, n_max=50, count=10)
# equal diagonal entries and g1 = 0: a pivot's off-diagonal entry is
# exactly zero at the cut and about 1e-28 on the whole chain, which turns
# its eigenvectors by 45 degrees; the states still agree to rounding
@example(omega_1=0.8897384019783703, omega_2=0.0, g_1=0.0, g_2=0.4375,
         tiny=9, tie=0, same_omega=True, parity=Parity.EVEN, n_max=10,
         count=1)
# omega 0 with couplings 1e-9 and 1e-41: levels 1e-18 apart in clusters,
# whose members the two routes resolve along vectors 6e-9 apart
@example(omega_1=0.0, omega_2=0.0, g_1=1e-32, g_2=1.0, tiny=9, tie=0,
         same_omega=True, parity=Parity.EVEN, n_max=10, count=3)
def test_twist_cut_does_not_show(omega_1, omega_2, g_1, g_2, tiny, tie,
                                 same_omega, parity, n_max, count):
    g_1, g_2 = g_1 * 10.0 ** -tiny, g_2 * 10.0 ** -tiny
    params = ModelParams(omega_1, omega_1 if same_omega else omega_2, g_1,
                         tie * g_1 if tie else g_2)
    try:
        _check_twist_cut(params, parity, count, n_max)
    except TruncationInsufficient:
        assume(False)


@pytest.mark.parametrize("parity", list(Parity))
def test_readme_twisted_states_end_at_block_60(parity):
    # the README states live on the first few dozen photons: the twisted
    # states run on 58 of the 201 blocks, the residuals are the whole
    # chain's bit for bit, and the states differ by less than eps^2
    blocks, states, whole = _check_twist_cut(P, parity, 10, NMAX)
    assert blocks <= 60
    for state, oracle in zip(states, whole):
        assert residual(P, parity, state) == residual(P, parity, oracle)
        assert np.max(np.abs(state.v - oracle.v)) <= np.finfo(float).eps ** 2


def test_unresolved_cluster_member_has_no_vector():
    # at g = 0 and omega_1 = omega_2 = 1 the even levels at E = 1 tie four
    # ways: two on one block, whose pivot vanishes in both directions
    params = ModelParams(1.0, 1.0, 0.0, 0.0)
    states = eigenstate_recurrences(params, Parity.EVEN, 6, 20)
    assert [state.xi for state in states] == [-1, 1, 1, 1, 1, 3]
    flagged = [np.isnan(state.v).all() for state in states]
    assert flagged == [False, False, False, True, True, False]
    assert all(np.isnan(residual(params, Parity.EVEN, state))
               for state in states[3:5])


def test_refined_recurrence_hits_eigenstate():
    # the state at a certified window energy is an eigenstate, by its float
    # residual and by the exact one; a forward run from the same energy
    # keeps no twist
    state = eigenstate_recurrences(P, Parity.EVEN, 2, NMAX)[1]
    assert residual(P, Parity.EVEN, state) < 1e-10
    assert exact_chain_residual(P, Parity.EVEN, state.xi, state.v) < 1e-10
    assert np.linalg.norm(state.v) == pytest.approx(1.0)
    assert state.parity is Parity.EVEN and 0 <= state.twist <= NMAX
    seeded = recurrence_eigenstate_la(P, Parity.EVEN, state.xi, (1.0, 0.0),
                                      NMAX)
    assert seeded.twist is None


def _twisted_state(params, parity, n_max, xi):
    """The two-sided kernel's state at one energy xi: of its twisted
    states, the one of least residual, as ``eigenstate_recurrences`` picks
    it outside a cluster."""
    band = build_parity_band(params, parity, TruncationConfig(n_max))
    _, vectors = eig_mod._twisted_states(band, np.array([xi]), n_max + 1)
    res = padded_residuals(band, xi, vectors[:, :, 0])
    return vectors[:, int(np.argmin(res)), 0]


def _gap(values, level):
    """Distance from level to the nearest other of the sorted values."""
    return np.min(np.abs(np.delete(values, level) - values[level]),
                  initial=np.inf)


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
# the top level of the chain
@example(omega_1=1.3, omega_2=0.7, g_1=0.3, g_2=0.4, parity=Parity.EVEN,
         n_max=20, level=1.0)
@example(omega_1=1.3, omega_2=0.7, g_1=1.2, g_2=1.2, parity=Parity.ODD,
         n_max=20, level=0.98)
@example(omega_1=1.3, omega_2=0.7, g_1=0.0, g_2=0.0, parity=Parity.EVEN,
         n_max=20, level=0.3)
@example(omega_1=1.5, omega_2=0.0, g_1=0.0, g_2=-2.0 ** -24,
         parity=Parity.EVEN, n_max=65, level=0.0)
@example(omega_1=0.0, omega_2=1.95205019163539, g_1=0.5,
         g_2=0.027234848539979595, parity=Parity.EVEN, n_max=60,
         level=0.71875)
def test_refined_pair_matches_dense(omega_1, omega_2, g_1, g_2, parity,
                                    n_max, level):
    # at any dense eigh level of the chain, the top ones included, the
    # twisted state has a residual at rounding level, and outside a cluster
    # it is eigh's vector
    params = ModelParams(omega_1, omega_2, g_1, g_2)
    dense = eigh(chain_matrix(params, parity, n_max))
    index = round(level * (len(dense.values) - 1))
    hnorm = _hnorm(params, parity, n_max)
    v = _twisted_state(params, parity, n_max, dense.values[index])
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)
    assert chain_residual(params, parity, dense.values[index],
                          v) <= ROUNDING * hnorm
    if _gap(dense.values, index) > CLUSTER_GAP * hnorm:
        assert abs(v @ dense.vectors[:, index]) >= 1 - 1e-12


@settings(max_examples=12, deadline=None)
@given(omega_1=st.floats(0.0, 2.0), omega_2=st.floats(0.0, 2.0),
       g_1=st.floats(-1.0, 1.0), g_2=st.floats(-1.0, 1.0),
       parity=st.sampled_from(Parity), n_max=st.integers(10, 60),
       count=st.integers(1, 4))
@example(omega_1=0.0, omega_2=0.7, g_1=0.3, g_2=0.4, parity=Parity.ODD,
         n_max=40, count=4)
# level 5's residual past the chain fails the bound on every rung, the
# whole chain included, so counts 6 and 7 raise
@example(omega_1=1.3, omega_2=0.7, g_1=0.9, g_2=0.4, parity=Parity.EVEN,
         n_max=20, count=6)
@example(omega_1=1.3, omega_2=0.7, g_1=0.9, g_2=0.4, parity=Parity.EVEN,
         n_max=20, count=7)
@example(omega_1=1.1, omega_2=0.3, g_1=3.0, g_2=4.0, parity=Parity.EVEN,
         n_max=300, count=2)
# levels 0 and 1 lie 2e-15 apart
@example(omega_1=0.0, omega_2=0.0, g_1=0.5, g_2=1.175494351e-38,
         parity=Parity.EVEN, n_max=10, count=1)
# g^2 far below rounding: the levels lie about g^2 off the diagonal
@example(omega_1=0.0, omega_2=0.0, g_1=0.0, g_2=1.9073223110007208e-54,
         parity=Parity.EVEN, n_max=10, count=1)
@example(omega_1=0.0, omega_2=0.0, g_1=0.0, g_2=2.2e-34, parity=Parity.ODD,
         n_max=20, count=2)
@example(omega_1=0.0, omega_2=0.0, g_1=1.2435834223700194e-228,
         g_2=1.0496677161120977e-201, parity=Parity.EVEN, n_max=19, count=2)
@example(omega_1=1.065559906280724, omega_2=0.7, g_1=4.716664822840003e-228,
         g_2=-6.892877359291515e-229, parity=Parity.ODD, n_max=21, count=4)
# two levels 9.0e-37 apart
@example(omega_1=0.0, omega_2=8.97e-37, g_1=0.0, g_2=0.001953125,
         parity=Parity.EVEN, n_max=10, count=1)
def test_recurrences_match_dense_seeded_refinement(omega_1, omega_2, g_1,
                                                   g_2, parity, n_max,
                                                   count):
    # the route's states, at the certified window energies, against the
    # kernel's states at whole-chain eigh energies: the same level to the
    # guard, and outside a cluster the same state to sign
    params = ModelParams(omega_1, omega_2, g_1, g_2)
    try:
        states = eigenstate_recurrences(params, parity, count, n_max)
    except TruncationInsufficient:
        return
    dense = eigh(chain_matrix(params, parity, n_max))
    hnorm = _hnorm(params, parity, n_max)
    for state in states:
        level = int(np.argmin(np.abs(dense.values - state.xi)))
        assert abs(state.xi - dense.values[level]) <= 1e-8
        if _gap(dense.values, level) <= CLUSTER_GAP * hnorm:
            continue
        seeded = _twisted_state(params, parity, n_max, dense.values[level])
        assert residual(params, parity, state) <= ROUNDING * hnorm
        assert abs(state.v @ seeded) >= 1 - 1e-12


@settings(max_examples=10, deadline=None)
@given(omega_1=st.floats(0.0, 2.0), omega_2=st.floats(0.0, 2.0),
       g_1=st.floats(-1.5, 1.5), g_2=st.floats(-1.5, 1.5),
       parity=st.sampled_from(Parity), n_max=st.integers(20, 120),
       count=st.integers(1, 4))
# g = 0: the edge block vanishes on every window
@example(omega_1=1.3, omega_2=0.7, g_1=0.0, g_2=0.0, parity=Parity.EVEN,
         n_max=60, count=3)
# omega_1 = 0: the ladder runs from 48 rows to the whole chain of 162
@example(omega_1=0.0, omega_2=0.7, g_1=0.3, g_2=0.4, parity=Parity.ODD,
         n_max=80, count=3)
@example(omega_1=1.3, omega_2=0.7, g_1=0.45, g_2=-0.4500000000000001,
         parity=Parity.EVEN, n_max=80, count=3)
# deep strong coupling: Fig. 3's couplings
@example(omega_1=1.1, omega_2=0.3, g_1=3.0, g_2=4.0, parity=Parity.EVEN,
         n_max=300, count=2)
def test_windowed_refinement_matches_whole_chain_oracle(
        omega_1, omega_2, g_1, g_2, parity, n_max, count):
    # the states at the certified window energies against the exact
    # residual on the whole chain: the float residual is the exact one to
    # rounding, and a resolved state is an eigenstate by the exact one too
    params = ModelParams(omega_1, omega_2, g_1, g_2)
    try:
        states = eigenstate_recurrences(params, parity, count, n_max)
    except TruncationInsufficient:
        return
    hnorm = _hnorm(params, parity, n_max)
    for state in states:
        got = residual(params, parity, state)
        if not got <= RECURRENCE_RESIDUAL_TOL:
            continue
        exact = exact_chain_residual(params, parity, state.xi, state.v)
        assert abs(got - exact) <= 4 * np.finfo(float).eps * hnorm
        assert exact <= RECURRENCE_RESIDUAL_TOL


def test_refinement_at_omega_1e200():
    # products of four entries of H - E pass the float range here, so the
    # route scales the chain by a power of two first.  In floats the photon
    # ladder is lost against the qubit splitting (an ulp of 5e199 is about
    # 1e184), and levels tie to the last bit: each state is resolved, at
    # rounding level relative to ||H|| by the exact residual too, or has no
    # vector; level 0 of each chain is resolved
    params, n_max = ModelParams(1e200, 0.5, 0.2, 0.1), 20
    for parity in Parity:
        hnorm = _hnorm(params, parity, n_max)
        states = eigenstate_recurrences(params, parity, 3, n_max)
        resolved = [state.v for state in states
                    if not np.isnan(state.v).all()]
        assert np.isfinite(states[0].v).all()
        for state in states:
            if np.isfinite(state.v).all():
                assert residual(params, parity, state) <= ROUNDING * hnorm
                assert exact_chain_residual(
                    params, parity, state.xi, state.v) <= ROUNDING * hnorm
        gram = np.array(resolved) @ np.array(resolved).T
        assert np.allclose(gram, np.eye(len(resolved)), rtol=0, atol=1e-12)


_STATE_PROBE = """
import sys
from rabi2q.eigenstates import eigenstate_recurrences
from rabi2q.model import ModelParams, Parity
for parity in Parity:
    for state in eigenstate_recurrences(ModelParams(1.3, 0.7, 0.3, 0.4),
                                        parity, 10, int(sys.argv[1])):
        print(state.xi.hex(), state.twist)
        print(" ".join(float(c).hex() for c in state.v))
"""


def test_refinement_does_not_depend_on_blas_threads():
    # the README levels, bit for bit, at one and at two BLAS threads
    n_max = 60
    src = str(Path(rabi2q.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", _STATE_PROBE,
                               str(n_max)], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert len(outs[0].split()) == 2 * 10 * (2 + 2 * (n_max + 1))


@pytest.mark.parametrize("omega_1,omega_2,g_1,g_2,parity,n_max,count,level,"
                         "bound", [
    (0.0, 0.0, 0.0, 2.2e-34, Parity.ODD, 20, 2, 1, 1e-60),
    (0.0, 0.0, 0.0, 6.898056406907243e-47, Parity.EVEN, 3, 1, 0, 1e-55)])
def test_refiner_scale_keeps_offsets_below_the_tolerance(
        omega_1, omega_2, g_1, g_2, parity, n_max, count, level, bound):
    # g^2 far below rounding at omega = 0: the levels lie about g^2 off the
    # integer diagonal, which their float energies hold exactly, and the
    # vectors' off-diagonal entries are about g.  The twisted states keep
    # those entries, so their residuals, float and exact, stay far below
    # rounding (1.1e-101 and 4.8e-93)
    params = ModelParams(omega_1, omega_2, g_1, g_2)
    states = eigenstate_recurrences(params, parity, count, n_max)
    assert len(states) == count
    state = states[level]
    assert residual(params, parity, state) <= bound
    assert exact_chain_residual(params, parity, state.xi, state.v) <= bound


def test_recurrence_kernel_rejects_singular_coupling():
    # the forward kernel checks the couplings itself: with g1^2 = g2^2 the
    # coupling blocks it divides by are singular.  The two-sided route
    # divides by none of them and serves the same chains
    for g_2 in (0.3, -0.3):
        p = ModelParams(1.3, 0.7, 0.3, g_2)
        with pytest.raises(SingularCoupling):
            eig_mod._check_couplings(p)
        hnorm = _hnorm(p, Parity.EVEN, 50)
        assert all(residual(p, Parity.EVEN, state) <= ROUNDING * hnorm
                   for state in eigenstate_recurrences(p, Parity.EVEN, 4,
                                                       50))


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
    # 1e200 from the spectrum block 1 is 4e200 and block 2 passes the float
    # range: the forward run keeps the seed block alone, and its residual
    # flags the state
    state = recurrence_eigenstate_la(P, Parity.EVEN, 1e200, (1.0, 0.0), 50)
    assert state.twist is None and not state.v[2:].any()
    assert residual(P, Parity.EVEN, state) > RECURRENCE_RESIDUAL_TOL


@pytest.mark.parametrize("g_1, g_2, xi, seed, n_max", [
    # near |g1| = |g2| each step divides by g1^2 - g2^2, and the run passes
    # 1e300 within a few dozen blocks
    (0.5, -0.499999997, 6.0, (1.0, 0.0), 100),
    (0.3, 0.29997, 5.0, (1.0, 0.0), 100),
    # from a seed block of 1e248 block 2 passes the float range
    (0.3, 0.4, -3.0, (1e248, 0.0), 80)],
    ids=["g-0.5", "g-0.3", "seed-1e248"])
def test_stop_holds_past_the_float_range(g_1, g_2, xi, seed, n_max):
    # the forward run stops at its first block past OVERFLOW_LIMIT without
    # a float warning, and its state is the one from the seed scaled by
    # 2^-900, whose run goes some 270 orders of magnitude further: the stop
    # never comes before the cut
    p = ModelParams(1.3, 0.7, g_1, g_2)
    state = recurrence_eigenstate_la(p, Parity.EVEN, xi, seed, n_max)
    small = recurrence_eigenstate_la(p, Parity.EVEN, xi,
                                     [math.ldexp(c, -900) for c in seed],
                                     n_max)
    assert np.isfinite(state.v).all()
    assert np.linalg.norm(state.v) == pytest.approx(1.0, abs=1e-15)
    assert np.array_equal(state.v != 0, small.v != 0)
    assert np.allclose(state.v, small.v, rtol=1e-15, atol=0)


def test_cut_normalize_cuts_at_the_first_least_block():
    # at omega 0, g 0.5/0 and xi = g1, block 1 of the forward run is the
    # seed block (1, 0) to the last bit, and every block after it is
    # larger: the cut is block 0, the first of the two least, and the state
    # is the seed block alone (a cut at block 1 would keep (1, 0, 1, 0) /
    # sqrt 2)
    p = ModelParams(0.0, 0.0, 0.5, 0.0)
    state = recurrence_eigenstate_la(p, Parity.EVEN, 0.5, (1.0, 0.0), 30)
    assert state.v[0] == 1.0 and not state.v[1:].any()


def test_zero_seed_rejected():
    with pytest.raises(OverflowDetected, match="null vector"):
        recurrence_eigenstate_la(P, Parity.EVEN, -1.0, (0.0, 0.0), 50)


def test_index_outside_the_chain_rejected():
    for count in (0, 2 * (20 + 1) + 1):
        with pytest.raises(ValueError, match="outside"):
            eigenstate_recurrences(P, Parity.EVEN, count, 20)


def test_index_counts_every_chain_level():
    # at n_max = 20 the even level 5 of this chain has a residual past the
    # chain above the bound, so six levels raise rather than skip it; at
    # n_max = 40 index 5 is level 5, as at n_max = 80, and at n_max = 6 no
    # level certifies
    p = ModelParams(1.3, 0.7, 0.9, 0.4)
    wide = eigh(chain_matrix(p, Parity.EVEN, 80))
    state = eigenstate_recurrences(p, Parity.EVEN, 6, 40)[5]
    assert state.xi == pytest.approx(wide.values[5], abs=1e-8)
    assert state.xi == pytest.approx(1.41273576, abs=1e-8)
    for count, n_max in ((6, 20), (1, 6)):
        with pytest.raises(TruncationInsufficient, match="certifies"):
            eigenstate_recurrences(p, Parity.EVEN, count, n_max)


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


# ---------------------------------------------------------------------------
# the exact residual oracle's arithmetic
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bits", [229, 1200])
@pytest.mark.parametrize("value", [
    0.0, -0.0, 1.0, -3.75, 1e-80, 5e-324, 2.0 ** -230, 3 * 2.0 ** -230,
    -3 * 2.0 ** -230, 3 * 2.0 ** -1074, 0.1, 1e200, 2.0 ** 795,
    -1.7976931348623157e308])
def test_fixed_point_rounds_exactly(value, bits):
    # the nearest int to value 2^bits, ties to even, for every finite
    # float: at 229 bits 2^-230 and 3 2^-230 are ties, and from 2^(1024 -
    # bits) on value 2^bits passes the float range
    assert fixed_point(value, bits) == round(Fraction(value) * 2 ** bits)


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
    assert nearest(num, den) == round(Fraction(num, den))


@settings(max_examples=20, deadline=None)
@given(omega_1=st.floats(0.0, 40.0), omega_2=st.floats(0.0, 40.0),
       g_1=st.floats(-3.0, 3.0), g_2=st.floats(-3.0, 3.0),
       parity=st.sampled_from(Parity), n_max=st.integers(1, 60),
       bits=st.sampled_from([229, 1200]))
@example(omega_1=1.3, omega_2=0.7, g_1=0.3, g_2=0.4, parity=Parity.ODD,
         n_max=200, bits=1200)
# entries whose bits reach far below the scale, and a tie: -2^-230 g sqrt 4
# at 229 bits is -1
@example(omega_1=1e200, omega_2=8.97e-37, g_1=1e-300, g_2=-2.0 ** -230,
         parity=Parity.EVEN, n_max=20, bits=229)
def test_mp_tables_match_the_mpf_operators(omega_1, omega_2, g_1, g_2,
                                           parity, n_max, bits):
    # the oracle's diagonal entries against their exact rationals, and its
    # g sqrt(j) entries, from an integer square root, against mpmath at
    # bits + 64, each rounded to the nearest int; and every entry against
    # the package's float chain matrix, to the float's rounding
    params = ModelParams(omega_1, omega_2, g_1, g_2)
    rows = fixed_chain_rows(params, parity, n_max, bits)
    for i, row in enumerate(rows):
        n, q1, q2 = chain_state(parity, i)
        exact = n + (q1.sz * Fraction(omega_1) + q2.sz * Fraction(omega_2)) / 2
        assert row[i] == round(exact * 2 ** bits)
    with mp.workprec(bits + 64):
        for j in range(1, n_max + 1):
            want = [int(mp.nint(mp.ldexp(mp.sqrt(j) * mp.mpf(g), bits)))
                    for g in (g_1, g_2)]
            for k in (0, 1):
                assert [rows[2 * j - 2 + k][2 * j + k],
                        rows[2 * j - 2 + k][2 * j + 1 - k]] == want
                assert [rows[2 * j + k][2 * j - 2 + k],
                        rows[2 * j + k][2 * j - 1 - k]] == want
    dense = chain_matrix(params, parity, n_max)
    scale = n_max + omega_1 + omega_2 + (abs(g_1) + abs(g_2)) * n_max
    for i, row in enumerate(rows):
        assert set(np.flatnonzero(dense[i])) <= set(row)
        for c, v in row.items():
            assert abs(Fraction(v, 2 ** bits) - Fraction(dense[i, c])) <= (
                Fraction(1, 2 ** bits) + Fraction(4 * np.finfo(float).eps
                                                  * scale))


# ---------------------------------------------------------------------------
# Bargmann five-term recurrence
# ---------------------------------------------------------------------------

PB = ModelParams(1.3, 0.7, 0.3, 0.45)


def bargmann_rows(params, levels, j_max):
    """The row matrices of the (parity, chi) levels, one lane each, from
    one ``_bargmann_rows`` pass; a lane's StepSingular is raised."""
    found = eig_mod._bargmann_rows(
        params, np.array([eig_mod._BRANCH_SIGN[parity] for parity, _ in
                          levels]),
        np.array([chi for _, chi in levels], dtype=float), j_max)
    for rows in found:
        if isinstance(rows, StepSingular):
            raise rows
    return found


@settings(max_examples=20, deadline=None)
@given(omega_1=st.floats(0.0, 3.0), omega_2=st.floats(0.0, 3.0),
       g_1=st.floats(-2.0, 2.0), g_2=st.floats(-2.0, 2.0),
       levels=st.lists(st.tuples(st.sampled_from(Parity),
                                 st.floats(-5.0, 10.0)),
                       min_size=1, max_size=4),
       j_max=st.integers(8, 60))
# the README's odd level 1: (chi - 31)^2 at j = 33 is one ulp off in
# numpy's square
@example(omega_1=1.3, omega_2=0.7, g_1=0.3, g_2=0.4,
         levels=[(Parity.ODD, -0.049425521010105423)], j_max=120)
# alpha_0 vanishes on every other row
@example(omega_1=0.9, omega_2=0.9, g_1=0.3, g_2=0.45,
         levels=[(Parity.EVEN, -0.5)], j_max=30)
@example(omega_1=1.3, omega_2=0.7, g_1=0.3, g_2=0.3,
         levels=[(Parity.ODD, -0.5)], j_max=30)
# alpha_0 negligible against its row, not against its own scale: a tiny
# g_plus g_minus, and frequencies 1e-128 against row energies near 1
@example(omega_1=0.9247, omega_2=0.0, g_1=-7e-65, g_2=0.0,
         levels=[(Parity.EVEN, -0.46235), (Parity.ODD, -0.46235)],
         j_max=21)
@example(omega_1=1e-128, omega_2=0.0, g_1=-0.2252, g_2=1e-128,
         levels=[(Parity.ODD, -0.05071504)], j_max=21)
def test_bargmann_rows_match_scalar_oracle(omega_1, omega_2, g_1, g_2,
                                          levels, j_max):
    # the row matrices of every lane of one pass against the rows of each
    # level built one at a time, bit for bit, and each StepSingular lane
    # against the oracle's error
    params = ModelParams(omega_1, omega_2, g_1, g_2)
    found = eig_mod._bargmann_rows(
        params, np.array([eig_mod._BRANCH_SIGN[parity] for parity, _ in
                          levels]),
        np.array([chi for _, chi in levels]), j_max)
    assert len(found) == len(levels)
    for (parity, chi), got in zip(levels, found):
        try:
            want = bargmann_rows_reference(params, parity, chi, j_max)
        except StepSingular as exc:
            assert isinstance(got, StepSingular) and str(got) == str(exc)
            continue
        assert got.shape == want.shape and np.array_equal(got, want)


def _check_null_lanes(rows):
    """Run every row matrix of rows as one lane of ``_null_vectors`` and
    check each lane against the dense oracle, which solves with LU: ||M v||
    is no larger than the oracle's, to rounding, and v is, to rounding, an
    iterate of the oracle's whose ||M x|| ties with the oracle's last one
    (its own, unless the stop rule met a tie that rounding broke the other
    way).  Returns the oracle's number of steps per lane."""
    v, sizes = eig_mod._null_vectors(rows)
    eps, steps = np.finfo(float).eps, []
    for lane, matrix in enumerate(rows):
        _, least, tried = least_singular_vector_reference(matrix)
        tie = 1e-12 * least + 16 * eps
        assert sizes[lane] <= least + tie
        assert any(np.max(np.abs(v[:, lane] - np.sign(v[:, lane] @ x) * x))
                   <= 1e-12 and abs(size - least) <= tie
                   for x, size in tried)
        steps.append(len(tried))
    return steps


@settings(max_examples=25, deadline=None)
@given(omega_1=st.floats(0.0, 3.0), omega_2=st.floats(0.0, 3.0),
       g_1=st.floats(-5.0, 5.0), g_2=st.floats(-5.0, 5.0),
       tiny=st.sampled_from([0, 3, 9]), j_max=st.integers(8, 200),
       levels=st.lists(st.tuples(st.sampled_from(Parity),
                                 st.floats(-30.0, 10.0)),
                       min_size=1, max_size=6))
# deep strong coupling: the stop rule ties at step 2 on one lane, which the
# dense oracle takes to step 3
@example(omega_1=0.8153553939086385, omega_2=1.7290742039899518,
         g_1=3.0544861763085365, g_2=-2.3280841549873923, tiny=0, j_max=62,
         levels=[(Parity.EVEN, 2.9792857580774808), (Parity.ODD, -3.2)])
def test_null_vector_lanes_match_the_dense_oracle(omega_1, omega_2, g_1,
                                                  g_2, tiny, j_max, levels):
    # lanes of both parities, at tiny to deep strong couplings
    params = ModelParams(omega_1, omega_2, g_1 * 10.0 ** -tiny,
                         g_2 * 10.0 ** -tiny)
    try:
        rows = bargmann_rows(params, levels, j_max)
    except StepSingular:
        assume(False)
    _check_null_lanes(rows)


def test_null_vector_lanes_stop_apart_and_floor_a_zero_pivot():
    # the README levels of both parities, at which one step reaches
    # rounding, share the lanes with levels off the spectrum, which run
    # every step, and with a matrix of one zero column, whose R has a zero
    # pivot: raised to eps ||R||, it makes that column the null vector
    values = [(parity, float(xi)) for parity in Parity
              for xi in converged_pairs([(P, parity)], TruncationConfig(NMAX),
                                        3)[0][0]]
    levels = values + [(Parity.EVEN, 5.37), (Parity.ODD, -2.11)]
    rows = bargmann_rows(P, levels, 120)
    band = np.random.default_rng(7).normal(size=(123, 121))
    offsets = np.subtract.outer(np.arange(123), np.arange(121))
    band[np.abs(offsets) > 2] = 0.0
    band[:, 40] = 0.0
    rows.append(band)
    steps = _check_null_lanes(rows)
    assert len(set(steps)) > 1
    v, sizes = eig_mod._null_vectors(rows)
    assert abs(v[40, -1]) == pytest.approx(1.0) and sizes[-1] <= 1e-14
    assert np.linalg.qr(band, mode="r")[40, 40] == 0.0


def bargmann_residual(params, parity, chi, j_max=120, n_max=NMAX):
    """The one-level call of ``bargmann_residuals``: a residual, or the
    error of a level the route cannot serve."""
    found, = bargmann_residuals(params, [(parity, chi)], j_max, n_max)
    return found


def bargmann_lane(params, parity, chi, j_max, n_max):
    """One level on the lanes of ``bargmann_residuals``: its amplitudes,
    the companion's, and ||M v|| (``_null_vectors`` and
    ``_phi2_series``), with the chain vector of its parity that
    ``_chain_lanes`` gathers, normalized, and the fraction of the norm
    that falls on the other chain."""
    v, size = eig_mod._null_vectors(
        bargmann_rows(params, [(parity, chi)], j_max))
    phi2 = eig_mod._phi2_series(
        params, np.array([eig_mod._BRANCH_SIGN[parity]]), chi, v)
    chains = eig_mod._chain_lanes(
        v, phi2, np.array([eig_mod._SPINOR_SIGN[parity]]), n_max)
    own = np.linalg.norm(chains[parity][:, 0])
    other = np.linalg.norm(chains[Parity.ODD if parity is Parity.EVEN
                                  else Parity.EVEN][:, 0])
    return (v[:, 0], phi2[:, 0], float(size[0]), chains[parity][:, 0] / own,
            float(other / math.hypot(own, other)))


def test_bargmann_residuals_take_both_parities_and_report_each_level():
    # one call serves the levels of both parities, each as its one-level
    # call does to rounding; equal qubit frequencies make every level
    # StepSingular, and j_max below 8 is a configuration error
    levels = [(parity, float(xi)) for parity in Parity
              for xi in converged_pairs([(P, parity)], TruncationConfig(NMAX),
                                        4)[0][0]]
    found = bargmann_residuals(P, levels, 120, NMAX)
    for (parity, chi), res in zip(levels, found):
        alone = bargmann_residual(P, parity, chi)
        assert res <= 1e-13 and abs(res - alone) <= 1e-14
    same = ModelParams(0.9, 0.9, 0.3, 0.45)
    found = bargmann_residuals(same, levels, 120, NMAX)
    assert all(isinstance(res, StepSingular) for res in found)
    alone = bargmann_residual(same, Parity.ODD, -0.5)
    assert isinstance(alone, StepSingular)
    assert "alpha_0 vanishes" in str(alone)
    with pytest.raises(ConfigError):
        bargmann_residuals(P, levels, 7, NMAX)


def test_five_term_identical_qubits_step_singular():
    # omega_1 = omega_2: alpha_0 vanishes on every other row
    p = ModelParams(0.9, 0.9, 0.3, 0.45)
    for parity in Parity:
        with pytest.raises(StepSingular, match="alpha_0 vanishes"):
            bargmann_rows(p, [(parity, -0.5)], 30)


def test_five_term_zero_coupling_product_singular():
    p = ModelParams(1.3, 0.7, 0.3, 0.3)  # g_minus = 0
    with pytest.raises(StepSingular, match="alpha_0 vanishes"):
        bargmann_rows(p, [(Parity.EVEN, -0.5)], 30)


def test_reconstruction_residual_small_at_eigenvalues():
    trunc = TruncationConfig(NMAX)
    for parity in Parity:
        vals, _ = eigh(expand_dense(build_parity_band(PB, parity, trunc)))
        for index in (0, 3):
            res = bargmann_residual(PB, parity, float(vals[index]))
            assert res <= 1e-4


def test_reconstruction_residual_large_off_eigenvalue():
    trunc = TruncationConfig(NMAX)
    vals, _ = eigh(expand_dense(build_parity_band(PB, Parity.EVEN, trunc)))
    chi_mid = 0.5 * (vals[1] + vals[2])
    res = bargmann_residual(PB, Parity.EVEN, chi_mid)
    assert res > 1e-2


def test_reconstruction_stays_in_claimed_parity():
    trunc = TruncationConfig(NMAX)
    vals, _ = eigh(expand_dense(build_parity_band(PB, Parity.ODD, trunc)))
    _, _, s_min, _, other = bargmann_lane(PB, Parity.ODD, float(vals[1]),
                                          120, NMAX)
    assert other < 1e-12
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
    c, phi2, _, got, got_other = bargmann_lane(PB, parity, chi, j_max, n_max)
    v, other = bargmann_chain_reference(parity, c, phi2, n_max)
    assert np.array_equal(got, v)
    assert got_other == other
    norm = np.hypot(c, phi2)
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
    values, vectors = converged_pairs([(params, parity)], trunc, count + 1)[0]
    gaps = np.diff(values)
    isolated = np.minimum(np.r_[np.inf, gaps[:-1]], gaps) > 1e-6
    out = []
    for xi, window, alone in zip(values.tolist(), vectors.T, isolated):
        v = bargmann_lane(params, parity, xi, j_max, trunc.n_max)[3]
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


@settings(max_examples=40, deadline=None)
@given(omega_1=st.floats(0.0, 2.0), omega_2=st.floats(0.0, 2.0),
       g_1=st.floats(-3.0, 3.0), g_2=st.floats(-3.0, 3.0),
       n_max=st.integers(20, 60), count=st.integers(1, 5))
# Fig. 3, where 120 amplitudes read up to 12
@example(omega_1=1.1, omega_2=0.3, g_1=3.0, g_2=4.0, n_max=300, count=10)
# companion amplitudes near 1e260, whose squares pass the float range
@example(omega_1=0.0, omega_2=2.916839106925194e-260, g_1=0.0, g_2=0.5,
         n_max=20, count=1)
def test_bargmann_series_to_the_recurrence_cut_holds_every_passing_level(
        omega_1, omega_2, g_1, g_2, n_max, count):
    # the series of max(8, cut) amplitudes, cut the block from which every
    # recurrence state of the call is below eps^2, holds each level whose
    # recurrence residual passes: its Bargmann residual passes too,
    # wherever a series twice the chain's length passes (tiny couplings or
    # frequencies fail the route at every length).  Every state of the
    # call carries the same cut.  Draws past the cutoff are skipped
    params = ModelParams(omega_1, omega_2, g_1, g_2)
    try:
        found = eigenstates_by_parity(params, list(Parity), count, n_max)
    except TruncationInsufficient:
        return
    cuts = {state.cut for states in found.values() for state in states}
    assert len(cuts) == 1
    levels, passing = [], []
    for parity, states in found.items():
        levels += [(parity, state.xi) for state in states]
        passing += (chain_residual(
            params, parity, np.array([state.xi for state in states]),
            np.column_stack([state.v for state in states]))
            <= RECURRENCE_RESIDUAL_TOL).tolist()
    derived = bargmann_residuals(params, levels, max(8, *cuts), n_max)
    longer = bargmann_residuals(params, levels, 2 * (n_max + 1), n_max)
    for held, res, reference in zip(passing, derived, longer):
        if held and isinstance(reference, float):
            assert res <= RECURRENCE_RESIDUAL_TOL or not (
                reference <= RECURRENCE_RESIDUAL_TOL)


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
    values, _ = converged_pairs([(params, parity)], trunc, level + 2)[0]
    hnorm = band_norm(build_parity_band(params, parity, trunc))
    energy = float(values[level])
    delta = sign * 10.0 ** scale * hnorm
    gap = np.min(np.abs(np.delete(values, level) - energy))
    assume(20 * abs(delta) < gap)

    def residual_at(chi):
        return bargmann_residual(params, parity, chi)

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
