"""Jordan-Wigner encoding of small fermionic lattice models.

Mode/qubit assignment (the one place this mapping is defined):

* Mode ``m`` of an ``n``-mode model lives on qubit ``n - 1 - m``, i.e.
  mode 0 is the rightmost tensor factor / least significant dense bit.
  The creation operator for mode ``m`` is the two-term sum
  ``(X + iY)/2`` on its qubit with a ``Z`` tail on every qubit to its
  right (the slots of lower modes); the annihilator is its adjoint.
* In the dense qubit frame an occupied mode corresponds to the
  computational |0> of its qubit: with ``(X + iY)/2 = |0><1|`` as the
  creator, the number operator comes out as ``(I + Z)/2``.  All
  user-facing occupation I/O (input kets, occupation probabilities)
  uses occupation labels, where 1 means occupied; the relabelling
  between the two is handled by :func:`occupation_basis_index` and
  friends, never ad hoc.

Supported models: the two-mode hop/repel pair, the three-mode chain
(hopping and on-site repulsion on both adjacent pairs), and the
four-mode two-site, two-species asymmetric model with per-species
hoppings ``(V1, V2)`` and per-site repulsions ``(Ux, Uy)``.

The image is linear in the couplings: each coupling scales one cached
pair term, and the schedule-driven two- and three-mode shapes are also
available as two dense term matrices, H(V, U) = V H_hop + U H_rep
(:func:`coupling_matrices`).
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .pauli import WeightedPauliSum, read_only

MAX_MODES = 4


def mode_qubit(mode: int, n_modes: int) -> int:
    """Qubit (tensor slot) carrying a given mode."""
    if not 0 <= mode < n_modes:
        raise ValueError(f"mode {mode} out of range for {n_modes} modes")
    return n_modes - 1 - mode


def occupation_basis_index(occupations) -> int:
    """Dense basis index of an occupation tuple (mode 0 first).

    Occupied (1) maps to computational 0 on the mode's qubit; qubit 0 is
    the most significant bit of the index.
    """
    occ = tuple(int(o) for o in occupations)
    n = len(occ)
    idx = 0
    for mode, o in enumerate(occ):
        if o not in (0, 1):
            raise ValueError(f"occupation must be 0 or 1, got {o}")
        bit = 1 - o
        idx |= bit << mode  # qubit n-1-mode holds bit of weight 2**mode
    return idx


def index_occupations(index: int, n_modes: int) -> tuple[int, ...]:
    """Inverse of :func:`occupation_basis_index`."""
    return tuple(1 - ((index >> m) & 1) for m in range(n_modes))


@functools.cache
def occupation_matrix(n_modes: int) -> np.ndarray:
    """Read-only (modes, 2^n) 0/1 matrix: entry (m, i) is mode m's
    occupation in basis state i.  Built on first use, then cached."""
    return read_only(np.array(index_occupations(np.arange(2 ** n_modes),
                                                n_modes)))


def jw_creation(mode: int, n_modes: int) -> WeightedPauliSum:
    """Jordan-Wigner image of a mode's creation operator:
    0.5 (I..I X Z..Z) + 0.5i (I..I Y Z..Z)."""
    if n_modes > MAX_MODES:
        raise ValueError(f"at most {MAX_MODES} modes supported")
    q = mode_qubit(mode, n_modes)
    head, tail = "I" * q, "Z" * (n_modes - 1 - q)
    return WeightedPauliSum.from_terms(
        n_modes, [(0.5, head + "X" + tail), (0.5j, head + "Y" + tail)])


def jw_annihilation(mode: int, n_modes: int) -> WeightedPauliSum:
    return jw_creation(mode, n_modes).dagger()


def anticommutator(a: WeightedPauliSum,
                   b: WeightedPauliSum) -> WeightedPauliSum:
    """ab + ba."""
    return a * b + b * a


@dataclass(frozen=True)
class FermionModel:
    """Hopping/repulsion couplings over 2-4 modes.

    ``hoppings`` entries (i, j, V) contribute -V (b_i^ b_j + b_j^ b_i);
    ``repulsions`` entries (i, j, U) contribute U n_i n_j.
    """

    mode_count: int
    hoppings: tuple[tuple[int, int, float], ...] = ()
    repulsions: tuple[tuple[int, int, float], ...] = ()

    def __post_init__(self):
        if self.mode_count not in (2, 3, 4):
            raise ValueError("mode_count must be 2, 3 or 4")
        for i, j, g in list(self.hoppings) + list(self.repulsions):
            if i == j:
                raise ValueError(f"coupling ({i}, {j}) must join two modes")
            if not (0 <= i < self.mode_count and 0 <= j < self.mode_count):
                raise ValueError(f"coupling ({i}, {j}) out of range")
            if not np.isfinite(g):
                raise ValueError(f"coupling strength {g} is not finite")

    def to_json_dict(self) -> dict:
        return {
            "modes": self.mode_count,
            "hopping": [[i, j, v] for i, j, v in self.hoppings],
            "repulsion": [[i, j, u] for i, j, u in self.repulsions],
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> FermionModel:
        return cls(
            payload["modes"],
            tuple((int(i), int(j), float(v))
                  for i, j, v in payload.get("hopping", [])),
            tuple((int(i), int(j), float(u))
                  for i, j, u in payload.get("repulsion", [])),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> FermionModel:
        return cls.from_json_dict(json.loads(text))


def two_mode_model(V: float, U: float) -> FermionModel:
    reps = ((0, 1, U),) if U else ()
    return FermionModel(2, ((0, 1, V),), reps)


def three_mode_model(V: float, U: float) -> FermionModel:
    """Three-mode chain: hopping and repulsion on both adjacent pairs."""
    reps = ((0, 1, U), (1, 2, U)) if U else ()
    return FermionModel(3, ((0, 1, V), (1, 2, V)), reps)


# Model shape of each schedule-driven (ramped) mode count.
SCHEDULE_MODELS = {2: two_mode_model, 3: three_mode_model}


def four_mode_ahm(V1: float, V2: float, Ux: float, Uy: float) -> FermionModel:
    """Two sites x two species; repulsion couples same-site mode pairs."""
    hops = ((0, 1, V1), (2, 3, V2))
    reps = tuple(
        (i, j, u) for i, j, u in ((0, 3, Ux), (1, 2, Uy)) if u
    )
    return FermionModel(4, hops, reps)


def number_operator(mode: int, n_modes: int) -> WeightedPauliSum:
    return jw_creation(mode, n_modes) * jw_annihilation(mode, n_modes)


@functools.cache
def _hop_term(i: int, j: int, n: int) -> WeightedPauliSum:
    """b_i^ b_j + b_j^ b_i on n modes; cached, shared and immutable."""
    return (jw_creation(i, n) * jw_annihilation(j, n)
            + jw_creation(j, n) * jw_annihilation(i, n))


@functools.cache
def _rep_term(i: int, j: int, n: int) -> WeightedPauliSum:
    """n_i n_j on n modes; cached, shared and immutable."""
    return number_operator(i, n) * number_operator(j, n)


def spin_hamiltonian(model: FermionModel) -> WeightedPauliSum:
    """Jordan-Wigner image of the model Hamiltonian.

    The all-identity component (U/4 per repulsion pair) lands in
    ``scalar_offset``; evolution under the returned sum differs from the
    fermionic model only by a global phase.  Each coupling scales a pair
    term cached by (i, j, mode count): at most 20 of each kind.
    """
    n = model.mode_count
    h = WeightedPauliSum.identity(n, 0.0)
    for i, j, v in model.hoppings:
        h = h + (-v) * _hop_term(i, j, n)
    for i, j, u in model.repulsions:
        h = h + u * _rep_term(i, j, n)
    if not h.is_hermitian():
        raise AssertionError("spin Hamiltonian failed Hermiticity check")
    return h


@functools.cache
def model_hamiltonian(model: FermionModel
                      ) -> tuple[WeightedPauliSum, np.ndarray]:
    """The model's spin Hamiltonian and its read-only dense form, built
    once per model: every plan, series, census and reachable set of one
    model shares them.  :func:`spin_hamiltonian` stays uncached."""
    hamiltonian = spin_hamiltonian(model)
    return hamiltonian, read_only(hamiltonian.to_dense())


@functools.cache
def coupling_matrices(mode_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only dense (H_hop, H_rep) of a schedule model shape.

    ``SCHEDULE_MODELS[mode_count](V, U)`` has the dense Hamiltonian
    ``V * H_hop + U * H_rep`` (offset included), taken on first use from
    the unit-coupling models' :func:`model_hamiltonian`.  Both are real
    symmetric (XX, YY, ZZ and Z strings only) and stored as real arrays.
    """
    if mode_count not in SCHEDULE_MODELS:
        raise ValueError("schedules support 2- or 3-mode models")
    terms = []
    for v, u in ((1.0, 0.0), (0.0, 1.0)):
        m = model_hamiltonian(SCHEDULE_MODELS[mode_count](v, u))[1]
        if m.imag.any() or not np.array_equal(m, m.T):
            raise AssertionError("coupling matrix is not real symmetric")
        terms.append(read_only(m.real))
    return tuple(terms)
