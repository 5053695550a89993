import pytest
from hypothesis import given, settings, strategies as st

import rabi2q
from rabi2q.model import (ModelParams, Parity, QubitLevel, TruncationConfig,
                          basis_table)

from oracles import (chain_index_of, chain_state, full_basis_index,
                     full_basis_state, parity_of_product_state)

G, E = QubitLevel.G, QubitLevel.E


def test_chain_state_listed_order():
    assert chain_state(Parity.EVEN, 0) == (0, G, G)
    assert chain_state(Parity.EVEN, 1) == (0, E, E)
    assert chain_state(Parity.EVEN, 2) == (1, E, G)
    assert chain_state(Parity.EVEN, 3) == (1, G, E)
    assert chain_state(Parity.ODD, 0) == (0, E, G)
    assert chain_state(Parity.ODD, 1) == (0, G, E)
    assert chain_state(Parity.ODD, 2) == (1, G, G)
    assert chain_state(Parity.ODD, 3) == (1, E, E)


def test_parity_of_product_state():
    assert parity_of_product_state(0, G, G) is Parity.EVEN
    assert parity_of_product_state(0, E, G) is Parity.ODD
    assert parity_of_product_state(3, E, E) is Parity.ODD


def test_chain_index_of():
    assert chain_index_of(0, G, G) == (Parity.EVEN, 0)
    assert chain_index_of(1, G, E) == (Parity.EVEN, 3)
    assert chain_index_of(2, G, E) == (Parity.ODD, 5)


@given(st.integers(0, 200), st.sampled_from([G, E]), st.sampled_from([G, E]))
def test_roundtrip(n, q1, q2):
    parity, j = chain_index_of(n, q1, q2)
    assert chain_state(parity, j) == (n, q1, q2)
    assert parity_of_product_state(n, q1, q2) is parity


def test_chain_parity_consistency():
    for parity in Parity:
        for j in range(200):
            assert parity_of_product_state(*chain_state(parity, j)) is parity


def test_chains_enumerate_all_product_states_once():
    trunc = TruncationConfig(40)
    seen = set()
    for parity in Parity:
        for idx in basis_table(trunc).full_index[parity].tolist():
            assert idx not in seen
            seen.add(idx)
    assert seen == set(range(trunc.full_dim))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 80))
def test_basis_table_agrees_with_scalar_maps(n_max):
    trunc = TruncationConfig(n_max)
    table = basis_table(trunc)
    level = {1: E, -1: G}
    for parity in Parity:
        for j in range(trunc.chain_dim):
            n, q1, q2 = chain_state(parity, j)
            assert table.photon[parity][j] == n
            assert level[int(table.sz1[parity][j])] is q1
            assert level[int(table.sz2[parity][j])] is q2
            assert chain_index_of(n, q1, q2) == (parity, j)
            assert table.full_index[parity][j] == full_basis_index(n, q1, q2)
    for i in range(trunc.full_dim):
        n, q1, q2 = full_basis_state(i)
        assert table.excitation[i] == n + (q1.sz + q2.sz) // 2 + 1


def test_full_basis_pair_order():
    # (ee, eg, ge, gg) within each photon level
    assert [full_basis_index(0, a, b)
            for a, b in ((E, E), (E, G), (G, E), (G, G))] == [0, 1, 2, 3]
    assert full_basis_index(2, E, G) == 9


def test_sz_convention():
    assert E.sz == 1 and G.sz == -1


def test_g_plus_minus_accessors():
    p = ModelParams(1.3, 0.7, 0.3, 0.4)
    assert p.g_plus == pytest.approx(0.7)
    assert p.g_minus == pytest.approx(-0.1)


def test_validation():
    with pytest.raises(ValueError):
        ModelParams(-0.5, 1.0, 0.1, 0.1)
    with pytest.raises(ValueError):
        ModelParams(float("nan"), 1.0, 0.1, 0.1)
    with pytest.raises(ValueError):
        TruncationConfig(0)
    with pytest.raises(ValueError):
        chain_state(Parity.EVEN, -1)


def test_truncation_dims():
    t = TruncationConfig(5)
    assert t.chain_dim == 12
    assert t.full_dim == 24


def test_star_import_binds_every_exported_name():
    # a name deleted from the package but left in __all__ fails here
    namespace = {}
    exec("from rabi2q import *", namespace)
    assert [n for n in rabi2q.__all__ if n not in namespace] == []
