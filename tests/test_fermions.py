"""Jordan-Wigner mapping checks against an independent ladder-matrix oracle.

The oracle builds fermionic operators by explicit kron products of
hard-coded 2x2 matrices and verifies canonical anticommutation and the
fermionic -> spin Hamiltonian identity as dense matrices.
"""
import json
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest

from fermisim.fermions import (
    SCHEDULE_MODELS,
    FermionModel,
    _hop_term,
    anticommutator,
    coupling_matrices,
    four_mode_ahm,
    index_occupations,
    jw_annihilation,
    jw_creation,
    mode_qubit,
    number_operator,
    occupation_basis_index,
    spin_hamiltonian,
    three_mode_model,
    two_mode_model,
)
from fermisim.pauli import PAULI_MATRICES, WeightedPauliSum

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
SP = (SX + 1j * SY) / 2


def kron_all(mats):
    out = np.array([[1.0]], dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def oracle_creation(mode, n):
    """Independent JW build: S+ at slot n-1-mode, Z tail to its right."""
    ops = [I2] * n
    slot = n - 1 - mode
    ops[slot] = SP
    for t in range(slot + 1, n):
        ops[t] = SZ
    return kron_all(ops)


def oracle_model_dense(model: FermionModel):
    n = model.mode_count
    bd = [oracle_creation(m, n) for m in range(n)]
    b = [m.conj().T for m in bd]
    h = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for i, j, v in model.hoppings:
        h += -v * (bd[i] @ b[j] + bd[j] @ b[i])
    for i, j, u in model.repulsions:
        h += u * (bd[i] @ b[i]) @ (bd[j] @ b[j])
    return h


def ladder_terms(label):
    """(X + iY)/2 at the label's '+', the rest of the label as is."""
    return {label.replace("+", "X"): 0.5, label.replace("+", "Y"): 0.5j}


class TestJwStrings:
    def test_two_mode_first(self):
        assert jw_creation(0, 2).term_dict == ladder_terms("I+")

    def test_two_mode_second(self):
        assert jw_creation(1, 2).term_dict == ladder_terms("+Z")

    def test_four_mode_longest_tail(self):
        assert jw_creation(3, 4).term_dict == ladder_terms("+ZZZ")

    def test_four_mode_table(self):
        assert jw_creation(0, 4).term_dict == ladder_terms("III+")
        assert jw_creation(1, 4).term_dict == ladder_terms("II+Z")
        assert jw_creation(2, 4).term_dict == ladder_terms("I+ZZ")

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            jw_creation(2, 2)
        with pytest.raises(ValueError):
            mode_qubit(-1, 3)

    def test_dense_matches_oracle(self):
        for n in (2, 3, 4):
            for m in range(n):
                want = oracle_creation(m, n)
                assert np.array_equal(jw_creation(m, n).to_dense(), want)
                assert np.array_equal(jw_annihilation(m, n).to_dense(),
                                      want.conj().T)


class TestAnticommutation:
    def test_same_mode_gives_identity(self):
        ac = anticommutator(jw_annihilation(0, 2), jw_creation(0, 2))
        assert ac.terms == ()
        assert ac.scalar_offset == pytest.approx(1.0)

    def test_cross_terms_cancel(self):
        total = anticommutator(jw_annihilation(0, 2), jw_creation(1, 2)) + \
            anticommutator(jw_annihilation(1, 2), jw_creation(0, 2))
        assert total.is_zero()

    def test_two_creations_anticommute(self):
        ac = anticommutator(jw_creation(0, 2), jw_creation(1, 2))
        assert ac.is_zero()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_car_all_pairs(self, n):
        dim = 2 ** n
        for i in range(n):
            for j in range(n):
                mixed = anticommutator(
                    jw_annihilation(i, n), jw_creation(j, n)
                ).to_dense()
                want = (1.0 if i == j else 0.0) * np.eye(dim)
                assert np.allclose(mixed, want, atol=1e-12)
                same = anticommutator(
                    jw_annihilation(i, n), jw_annihilation(j, n)
                ).to_dense()
                assert np.allclose(same, 0.0, atol=1e-12)


class TestSpinHamiltonian:
    def test_two_mode_terms(self):
        h = spin_hamiltonian(two_mode_model(1.0, 1.0))
        assert h.scalar_offset == pytest.approx(0.25)
        td = {k: v.real for k, v in h.term_dict.items()}
        assert td == pytest.approx(
            {"XX": 0.5, "YY": 0.5, "ZZ": 0.25, "IZ": 0.25, "ZI": 0.25}
        )

    def test_two_mode_hopping_only(self):
        h = spin_hamiltonian(two_mode_model(1.0, 0.0))
        assert h.scalar_offset == pytest.approx(0.0)
        assert set(h.term_dict) == {"XX", "YY"}

    def test_four_mode_ux_zero_structure(self):
        h = spin_hamiltonian(four_mode_ahm(1.0, 1.0, 0.0, 1.0))
        td = {k: v.real for k, v in h.term_dict.items()}
        # Hopping pairs sit on qubit pairs (2,3) and (0,1); the repulsion
        # couples the middle qubits (1,2).
        assert td == pytest.approx(
            {
                "IIXX": 0.5, "IIYY": 0.5,
                "XXII": 0.5, "YYII": 0.5,
                "IZZI": 0.25, "IIZI": 0.25, "IZII": 0.25,
            }
        )
        assert h.scalar_offset == pytest.approx(0.25)

    def test_four_mode_full_ahm_ux_terms(self):
        h = spin_hamiltonian(four_mode_ahm(1.0, 1.0, 1.0, 1.0))
        td = {k: v.real for k, v in h.term_dict.items()}
        assert td["ZIIZ"] == pytest.approx(0.25)
        assert td["IIIZ"] == pytest.approx(0.25)
        assert td["ZIII"] == pytest.approx(0.25)
        assert h.scalar_offset == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "model",
        [
            two_mode_model(1.0, 1.0),
            two_mode_model(0.7, -0.3),
            three_mode_model(1.0, 1.0),
            three_mode_model(1.0, 0.0),
            four_mode_ahm(1.0, 1.0, 0.0, 1.0),
            four_mode_ahm(0.8, 1.2, 0.5, 1.0),
        ],
    )
    def test_jw_identity_against_fermionic_oracle(self, model):
        spin = spin_hamiltonian(model)
        dense = spin.to_dense()
        assert np.allclose(dense, dense.conj().T, atol=1e-12)
        assert np.allclose(dense, oracle_model_dense(model), atol=1e-12)

    def test_number_operator_identity(self):
        for n in (2, 3, 4):
            for m in range(n):
                got = number_operator(m, n).to_dense()
                ops = [I2] * n
                ops[n - 1 - m] = (I2 + SZ) / 2
                assert np.allclose(got, kron_all(ops), atol=1e-12)


class TestModelPlumbing:
    def test_json_round_trip(self):
        m = four_mode_ahm(1.0, 0.9, 0.0, 1.1)
        again = FermionModel.from_json(m.to_json())
        assert again == m

    def test_validation(self):
        with pytest.raises(ValueError):
            FermionModel(5)
        with pytest.raises(ValueError):
            FermionModel(2, ((0, 0, 1.0),))
        with pytest.raises(ValueError):
            FermionModel(2, ((0, 3, 1.0),))
        with pytest.raises(ValueError):
            FermionModel(2, ((0, 1, float("nan")),))

    def test_occupation_index_round_trip(self):
        for n in (2, 3, 4):
            seen = set()
            for idx in range(2 ** n):
                occ = index_occupations(idx, n)
                assert occupation_basis_index(occ) == idx
                seen.add(occ)
            assert len(seen) == 2 ** n

    def test_occupation_index_examples(self):
        # all occupied -> qubit frame |0...0>
        assert occupation_basis_index((1, 1)) == 0
        # mode 0 empty, mode 1 occupied -> least significant bit set
        assert occupation_basis_index((0, 1)) == 1
        # number operator expectation agrees with the labelling
        n_op = number_operator(0, 2).to_dense()
        vec = np.zeros(4)
        vec[occupation_basis_index((1, 0))] = 1.0
        assert vec @ n_op @ vec == pytest.approx(1.0)
        vec = np.zeros(4)
        vec[occupation_basis_index((0, 1))] = 1.0
        assert vec @ n_op @ vec == pytest.approx(0.0)


class TestCouplingMatrices:
    @pytest.mark.parametrize("n", [2, 3])
    def test_linear_in_the_couplings(self, n):
        hop, rep = coupling_matrices(n)
        for v, u in ((0.0, 1.0), (1.0, 0.0), (0.37, 1.21), (-0.8, 0.0)):
            want = spin_hamiltonian(SCHEDULE_MODELS[n](v, u)).to_dense()
            assert np.allclose(v * hop + u * rep, want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n", [2, 3])
    def test_bit_identical_to_the_dense_spin_hamiltonian(self, n):
        # taken from the unit-coupling models' one dense cache
        for m, (v, u) in zip(coupling_matrices(n), ((1.0, 0.0), (0.0, 1.0))):
            dense = spin_hamiltonian(SCHEDULE_MODELS[n](v, u)).to_dense()
            assert np.array_equal(m, dense.real)
            assert not dense.imag.any()

    def test_cached_read_only(self):
        hop, rep = coupling_matrices(3)
        assert coupling_matrices(3)[0] is hop
        with pytest.raises(ValueError):
            rep[0, 0] = 1.0

    def test_unsupported_mode_count(self):
        with pytest.raises(ValueError, match="2- or 3-mode"):
            coupling_matrices(4)

    def test_not_built_at_import(self):
        code = ("import fermisim, fermisim.fermions as f; "
                "assert f.coupling_matrices.cache_info().currsize == 0")
        subprocess.run([sys.executable, "-c", code], check=True)


# Recorded outputs of the ladder-operator builder that preceded the
# WeightedPauliSum creation operators; the builder must reproduce them
# bit for bit.  Model JSON text -> recorded Hamiltonian JSON dict.
GOLDEN = {json.dumps(e["model"], sort_keys=True): e["hamiltonian"]
          for e in json.loads((Path(__file__).parent / "data"
                               / "spin_hamiltonians_golden.json").read_text()
                              )["models"]}


def reference_to_dense(h: WeightedPauliSum) -> np.ndarray:
    out = h.scalar_offset * np.eye(2 ** h.qubit_count, dtype=complex)
    for c, s in h.terms:
        dense = np.array([[s.phase]], dtype=complex)
        for f in s.factors:
            dense = np.kron(dense, PAULI_MATRICES[f])
        out += c * dense
    return out


SHIPPED_MODELS = [
    two_mode_model(1.0, 1.0), two_mode_model(1.0, 2.0),
    two_mode_model(0.37, 0.0), three_mode_model(1.0, 0.0),
    three_mode_model(1.0, 1.0), three_mode_model(-0.8, 1.21),
    four_mode_ahm(1.0, 1.0, 0.0, 1.0), four_mode_ahm(0.3, -1.2, 0.7, 2.5),
    *(SCHEDULE_MODELS[n](v, u) for n in (2, 3)
      for v, u in ((1.0, 0.0), (0.0, 1.0))),
]


class TestPairTerms:
    @pytest.mark.parametrize("model", SHIPPED_MODELS)
    def test_bit_identical_to_the_reference_builders(self, model):
        want = GOLDEN[json.dumps(model.to_json_dict(), sort_keys=True)]
        h = spin_hamiltonian(model)
        assert h.to_json_dict() == want
        assert h == WeightedPauliSum.from_json_dict(want)
        assert np.array_equal(h.to_dense(), reference_to_dense(h))

    def test_golden_holds_every_shipped_model(self):
        assert set(GOLDEN) == {json.dumps(m.to_json_dict(), sort_keys=True)
                               for m in SHIPPED_MODELS}

    def test_not_built_at_import(self):
        code = ("import fermisim, fermisim.fermions as f; "
                "assert f._hop_term.cache_info().currsize == 0; "
                "assert f._rep_term.cache_info().currsize == 0")
        subprocess.run([sys.executable, "-c", code], check=True)

    def test_shared_immutable_values(self):
        term = _hop_term(0, 1, 3)
        before = term.to_json()
        spin_hamiltonian(three_mode_model(0.5, 2.0))
        assert _hop_term(0, 1, 3) is term
        assert term.to_json() == before
        with pytest.raises(FrozenInstanceError):
            term.terms = ()
        assert isinstance(term.terms, tuple)
