"""Pauli string and weighted sum algebra, checked against dense kron oracles.

The oracle here deliberately re-implements dense conversion with its own
matrix table and kron fold so that the algebraic path in fermisim.pauli
is checked against an independent computation.
"""
import itertools

import numpy as np
import pytest

from fermisim.pauli import (
    CapacityError,
    DimensionError,
    PauliString,
    WeightedPauliSum,
    commutes,
    read_only,
)

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
ORACLE_MATS = {"I": I2, "X": SX, "Y": SY, "Z": SZ}


def oracle_dense(string: PauliString) -> np.ndarray:
    out = np.array([[string.phase]], dtype=complex)
    for f in string.factors:
        out = np.kron(out, ORACLE_MATS[f])
    return out


def oracle_sum_dense(s: WeightedPauliSum) -> np.ndarray:
    dim = 2 ** s.qubit_count
    out = s.scalar_offset * np.eye(dim, dtype=complex)
    for c, p in s.terms:
        out += c * oracle_dense(p)
    return out


def random_string(rng, n) -> PauliString:
    factors = tuple(rng.choice(["I", "X", "Y", "Z"], size=n))
    phase = rng.choice([1, -1, 1j, -1j])
    return PauliString(factors, complex(phase))


class TestMultiply:
    def test_x_times_z_is_minus_i_y(self):
        p = PauliString.from_label("X") * PauliString.from_label("Z")
        assert p.factors == ("Y",)
        assert p.phase == pytest.approx(-1j)

    def test_iz_squared_is_identity(self):
        iz = PauliString.from_label("IZ")
        p = iz * iz
        assert p.factors == ("I", "I")
        assert p.phase == pytest.approx(1.0)

    def test_xx_times_zz_is_minus_yy(self):
        p = PauliString.from_label("XX") * PauliString.from_label("ZZ")
        expected = oracle_dense(PauliString.from_label("XX")) @ oracle_dense(
            PauliString.from_label("ZZ")
        )
        assert np.allclose(oracle_dense(p), expected, atol=1e-12)
        assert p.factors == ("Y", "Y")
        assert p.phase == pytest.approx(-1.0)

    def test_width_mismatch_raises(self):
        with pytest.raises(DimensionError):
            PauliString.from_label("X") * PauliString.from_label("XX")

    def test_ladder_product_rejected(self):
        # ladder operators are sums, never string factors
        with pytest.raises(ValueError, match="unknown factor label"):
            PauliString(("S+",)) * PauliString.from_label("X")

    def test_product_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b = random_string(rng, 3), random_string(rng, 3)
            got = oracle_dense(a * b)
            want = oracle_dense(a) @ oracle_dense(b)
            assert np.allclose(got, want, atol=1e-12)

    def test_associativity(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            a, b, c = (random_string(rng, 2) for _ in range(3))
            left = (a * b) * c
            right = a * (b * c)
            assert np.allclose(oracle_dense(left), oracle_dense(right),
                               atol=1e-12)

    def test_pauli_strings_are_unitary(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            u = oracle_dense(random_string(rng, 3))
            assert np.allclose(u @ u.conj().T, np.eye(8), atol=1e-12)


class TestDense:
    def test_single_z(self):
        s = WeightedPauliSum.from_terms(1, [(1.0, "Z")])
        assert np.allclose(s.to_dense(), np.diag([1, -1]), atol=1e-12)

    def test_hopping_pair(self):
        s = WeightedPauliSum.from_terms(2, [(0.5, "XX"), (0.5, "YY")])
        expected = 0.5 * (np.kron(SX, SX) + np.kron(SY, SY))
        dense = s.to_dense()
        assert np.allclose(dense, expected, atol=1e-12)
        assert dense[1, 2] == pytest.approx(1.0)
        assert dense[2, 1] == pytest.approx(1.0)
        dense[1, 2] = dense[2, 1] = 0.0
        assert np.allclose(dense, 0.0, atol=1e-12)

    def test_offset_only(self):
        s = WeightedPauliSum.identity(2, 0.25)
        assert np.allclose(s.to_dense(), 0.25 * np.eye(4), atol=1e-12)

    def test_capacity_guard(self):
        s = WeightedPauliSum.from_terms(13, [(1.0, "I" * 12 + "Z")])
        with pytest.raises(CapacityError):
            s.to_dense()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_dense_is_the_kron_chain(self, n):
        # bit for bit, every {I, X, Y, Z} string
        for factors in itertools.product(ORACLE_MATS, repeat=n):
            string = PauliString(factors, complex(0.6, -0.8))
            assert np.array_equal(string.dense(), oracle_dense(string))

    def test_random_sums_match_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            terms = [
                (complex(rng.normal(), rng.normal()), random_string(rng, 3))
                for _ in range(4)
            ]
            s = WeightedPauliSum.from_terms(3, terms, rng.normal())
            assert np.allclose(s.to_dense(), oracle_sum_dense(s), atol=1e-12)


class TestCommutes:
    def test_hopping_vs_repulsion(self):
        hop = WeightedPauliSum.from_terms(2, [(1.0, "XX"), (1.0, "YY")])
        rep = WeightedPauliSum.from_terms(
            2, [(1.0, "ZZ"), (1.0, "IZ"), (1.0, "ZI")]
        )
        assert commutes(hop, rep)
        oracle = oracle_sum_dense(hop) @ oracle_sum_dense(rep) - \
            oracle_sum_dense(rep) @ oracle_sum_dense(hop)
        assert np.max(np.abs(oracle)) <= 1e-12

    def test_x_vs_z(self):
        x = WeightedPauliSum.from_terms(1, [(1.0, "X")])
        z = WeightedPauliSum.from_terms(1, [(1.0, "Z")])
        assert not commutes(x, z)

    def test_anything_vs_identity(self):
        rng = np.random.default_rng(19)
        ident = WeightedPauliSum.identity(2, 1.0)
        for _ in range(10):
            s = WeightedPauliSum.from_terms(
                2, [(rng.normal(), random_string(rng, 2))]
            )
            assert commutes(s, ident)


class TestCanonicalisation:
    def test_identity_moves_to_offset(self):
        s = WeightedPauliSum.from_terms(2, [(0.5, "II"), (1.0, "ZZ")])
        assert s.scalar_offset == pytest.approx(0.5)
        assert s.term_dict == {"ZZ": 1.0}

    def test_like_terms_combine_and_cancel(self):
        s = WeightedPauliSum.from_terms(
            1, [(1.0, "X"), (2.0, "X"), (-3.0, "X"), (1.0, "Z")]
        )
        assert s.term_dict == {"Z": 1.0}

    def test_phase_folding(self):
        s = WeightedPauliSum.from_terms(
            1, [(2.0, PauliString(("Y",), phase=-1j))]
        )
        assert s.term_dict["Y"] == pytest.approx(-2j)

    def test_hermiticity_flag(self):
        h = WeightedPauliSum.from_terms(2, [(1.0, "XY"), (0.5, "ZZ")], 0.3)
        assert h.is_hermitian()
        dense = h.to_dense()
        assert np.allclose(dense, dense.conj().T, atol=1e-12)
        nh = WeightedPauliSum.from_terms(2, [(1j, "XY")])
        assert not nh.is_hermitian()

    def test_dagger_is_the_conjugate_transpose(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            s = WeightedPauliSum.from_terms(
                2,
                [(complex(rng.normal(), rng.normal()), random_string(rng, 2))
                 for _ in range(3)],
                rng.normal(),
            )
            assert np.array_equal(s.dagger().to_dense(),
                                  s.to_dense().conj().T)
            assert s.dagger().dagger() == s

    def test_sum_product_matches_dense(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            a = WeightedPauliSum.from_terms(
                2,
                [(complex(rng.normal(), rng.normal()), random_string(rng, 2))
                 for _ in range(3)],
                rng.normal(),
            )
            b = WeightedPauliSum.from_terms(
                2,
                [(complex(rng.normal(), rng.normal()), random_string(rng, 2))
                 for _ in range(3)],
            )
            assert np.allclose(
                (a * b).to_dense(),
                oracle_sum_dense(a) @ oracle_sum_dense(b),
                atol=1e-12,
            )


class TestJson:
    def test_round_trip(self):
        s = WeightedPauliSum.from_terms(
            2, [(0.5, "XX"), (0.5, "YY"), (0.25 + 0.1j, "ZI")], 0.25
        )
        again = WeightedPauliSum.from_json(s.to_json())
        assert again == s

    def test_schema_fields(self):
        s = WeightedPauliSum.from_terms(2, [(0.5, "XX")], 0.25)
        payload = s.to_json_dict()
        assert payload["n"] == 2
        assert payload["offset"] == pytest.approx(0.25)
        assert payload["terms"] == [{"c": [0.5, 0.0], "p": "XX"}]


class TestReadOnlyCaches:
    def test_no_cached_array_can_be_made_writeable(self):
        # every process-wide cached array goes through pauli.read_only,
        # so no caller can turn its writeable flag back on
        import math

        from fermisim import benchmarking, circuits, experiments, fermions
        from fermisim import tomography
        from fermisim.circuits import Gate
        from fermisim.pauli import pauli_basis

        model = fermions.three_mode_model(1.0, 1.0)
        fold = circuits._fold_plan(tuple(
            (g.kind, g.targets, g.param) for g in (
                Gate("RY", (0,), math.pi / 2), Gate("PI_X", (1,)),
                Gate("CZPHI", (0, 1), math.pi), Gate("PI_Y", (0,)))))
        group = benchmarking.clifford_group(two_qubit=False)
        cached = [
            pauli_basis(1), pauli_basis(2),
            *tomography._qpt_vectors(), tomography._chi_to_ptm(),
            tomography._admm_r_step(),
            experiments.reachable_indices(model),
            fermions.model_hamiltonian(model)[1],
            fermions.occupation_matrix(3), *fermions.coupling_matrices(3),
            circuits._EYE2,
            *(circuits.gate_unitary(Gate(kind, (0,), param))
              for kind, param in circuits._FIXED_GATES if kind != "CZPHI"),
            circuits.gate_unitary(Gate("CZPHI", (0, 1), math.pi)),
            fold[1], *(prefix for _, runs in fold[2] for prefix, _ in runs
                       if prefix is not None),
            *(run[0] for run, _, _ in fold[4] if run[0] is not None),
            group.codes, group.generator_codes, *group.word_tables,
        ]
        assert fold[1].shape == (1, 4, 4) and len(fold[4]) == 1
        for array in cached:
            with pytest.raises(ValueError):
                array.flags.writeable = True

    def test_read_only_copies_a_view(self):
        owner = np.arange(6.0)
        view = read_only(owner.reshape(2, 3))
        with pytest.raises(ValueError):
            view.flags.writeable = True
        owner[0] = 7.0  # the caller's array stays its own
        assert view[0, 0] == 0.0
