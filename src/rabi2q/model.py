"""Model parameters and the parity-chain bookkeeping.

The Hilbert space of a single boson mode coupled to two qubits splits into
two invariant subspaces under the parity operator sz(1)*sz(2)*(-1)^n.  Each
subspace is spanned by an ordered chain of product states in which the
Hamiltonian is block tridiagonal.  This module owns the chain orderings.
``basis_table`` derives from them, once per cutoff, the integer labels of
every chain position and full-basis row; every other module reads the
layout through that table.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError


class QubitLevel(Enum):
    """Two-level state label; sz convention: e -> +1, g -> -1."""

    G = "g"
    E = "e"

    @property
    def sz(self) -> int:
        return 1 if self is QubitLevel.E else -1


class Parity(Enum):
    EVEN = "even"
    ODD = "odd"


@dataclass(frozen=True)
class ModelParams:
    """Frequencies and couplings of the two-qubit Rabi Hamiltonian.

    All four are in units of the field frequency omega_f, which is 1
    throughout the library.  Couplings may be any real number; only the
    forward recurrence ``eigenstates.recurrence_eigenstate_la`` needs
    |g_1| != |g_2|.
    """

    omega_1: float
    omega_2: float
    g_1: float
    g_2: float

    def __post_init__(self):
        for name in ("omega_1", "omega_2", "g_1", "g_2"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if self.omega_1 < 0 or self.omega_2 < 0:
            raise ConfigError("qubit frequencies must be non-negative")

    @property
    def g_plus(self) -> float:
        return self.g_1 + self.g_2

    @property
    def g_minus(self) -> float:
        return self.g_1 - self.g_2


@dataclass(frozen=True)
class TruncationConfig:
    """Photon-number cutoff; chain length is 2*(n_max+1) per parity."""

    n_max: int

    def __post_init__(self):
        if self.n_max < 1:
            raise ConfigError("n_max must be >= 1")

    @property
    def chain_dim(self) -> int:
        return 2 * (self.n_max + 1)

    @property
    def full_dim(self) -> int:
        return 4 * (self.n_max + 1)


_G, _E = QubitLevel.G, QubitLevel.E

# Within-block qubit-pair order for photon number n: index by (parity, n % 2).
_BLOCK_PAIRS = {
    (Parity.EVEN, 0): ((_G, _G), (_E, _E)),
    (Parity.EVEN, 1): ((_E, _G), (_G, _E)),
    (Parity.ODD, 0): ((_E, _G), (_G, _E)),
    (Parity.ODD, 1): ((_G, _G), (_E, _E)),
}

# Full product basis |n> x |q1> x |q2>, qubit-pair order (ee, eg, ge, gg).
PAIR_ORDER = ((_E, _E), (_E, _G), (_G, _E), (_G, _G))
_PAIR_SZ = np.array([(q1.sz, q2.sz) for q1, q2 in PAIR_ORDER])


@dataclass(frozen=True)
class BasisTable:
    """Integer labels of every basis position at one photon cutoff.

    photon, sz1, sz2 and full_index map a parity to an array over its chain
    positions: the photon number, the two qubit sz values and the row of
    that product state in the full basis.  excitation holds the RWA
    excitation number N = n + (sz1 + sz2)/2 + 1 of every full-basis row.
    """

    photon: dict
    sz1: dict
    sz2: dict
    full_index: dict
    excitation: np.ndarray


@functools.lru_cache(maxsize=16)
def basis_table(trunc: TruncationConfig) -> BasisTable:
    """Index arrays of the chain layout, derived from the pair orders."""
    j = np.arange(trunc.chain_dim)
    n = j // 2
    photon, sz1, sz2, full_index = {}, {}, {}, {}
    for parity in Parity:
        # PAIR_ORDER position of each chain slot, by (n % 2, j % 2)
        slots = np.array([[PAIR_ORDER.index(pair)
                           for pair in _BLOCK_PAIRS[(parity, r)]]
                          for r in (0, 1)])
        pair = slots[n % 2, j % 2]
        photon[parity] = n
        sz1[parity] = _PAIR_SZ[pair, 0]
        sz2[parity] = _PAIR_SZ[pair, 1]
        full_index[parity] = 4 * n + pair
    rows = np.arange(trunc.full_dim)
    excitation = rows // 4 + _PAIR_SZ[rows % 4].sum(axis=1) // 2 + 1
    table = BasisTable(photon, sz1, sz2, full_index, excitation)
    for arr in (n, excitation, *sz1.values(), *sz2.values(),
                *full_index.values()):
        arr.flags.writeable = False
    return table
