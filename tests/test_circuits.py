"""Circuit IR: gate unitaries vs expm oracle, census arithmetic, phase range."""
import numpy as np
import pytest
from scipy.linalg import expm

from fermisim.circuits import (
    CapacityError,
    Circuit,
    Gate,
    census_single_qubit_total,
    circuit_unitary,
    gate_census,
    gate_unitary,
    validate_phase_range,
)
from helpers import equal_up_to_phase

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


class TestGateUnitaries:
    def test_czphi_pi_is_cz(self):
        u = gate_unitary(Gate("CZPHI", (0, 1), np.pi))
        assert np.allclose(u, np.diag([1, 1, 1, -1]), atol=1e-12)

    def test_rx_two_pi_is_minus_identity(self):
        u = gate_unitary(Gate("RX", (0,), 2 * np.pi))
        assert np.allclose(u, -np.eye(2), atol=1e-12)

    def test_idle_detune_identity(self):
        assert np.allclose(gate_unitary(Gate("IDLE", (0,))), np.eye(2))
        assert np.allclose(gate_unitary(Gate("DETUNE", (0,))), np.eye(2))

    def test_virtual_z(self):
        u = gate_unitary(Gate("VIRTUAL_Z", (0,), 0.7))
        assert np.allclose(u, np.diag([1, np.exp(0.7j)]), atol=1e-12)
        assert np.allclose(gate_unitary(Gate("VIRTUAL_Z", (0,), 0.0)),
                           np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("kind,sigma", [("RX", SX), ("RY", SY),
                                            ("RZ", SZ)])
    def test_rotations_match_expm(self, kind, sigma):
        rng = np.random.default_rng(3)
        for th in rng.uniform(-2 * np.pi, 2 * np.pi, size=8):
            u = gate_unitary(Gate(kind, (0,), th))
            assert np.allclose(u, expm(-1j * th / 2 * sigma), atol=1e-12)

    def test_pi_pulses(self):
        assert np.allclose(gate_unitary(Gate("PI_X", (0,))),
                           expm(-1j * np.pi / 2 * SX), atol=1e-12)
        assert np.allclose(gate_unitary(Gate("PI_Y", (0,))),
                           expm(-1j * np.pi / 2 * SY), atol=1e-12)

    def test_gate_validation(self):
        with pytest.raises(ValueError):
            Gate("CZPHI", (0,), 1.0)
        with pytest.raises(ValueError):
            Gate("RX", (0, 1), 1.0)
        with pytest.raises(ValueError):
            Gate("CZPHI", (1, 1), 1.0)
        with pytest.raises(ValueError):
            Gate("RX", (0,), float("inf"))
        with pytest.raises(ValueError):
            Gate("HADAMARD", (0,))


class TestCircuitUnitary:
    def test_empty_is_identity(self):
        assert np.allclose(circuit_unitary(Circuit(2)), np.eye(4), atol=0)

    def test_double_pi_x_is_identity_up_to_phase(self):
        c = Circuit(1, (Gate("PI_X", (0,)), Gate("PI_X", (0,))))
        assert equal_up_to_phase(circuit_unitary(c), np.eye(2))

    def test_time_order_earliest_first(self):
        # X then Z on one qubit: U = Z @ X
        c = Circuit(1, (Gate("PI_X", (0,)), Gate("RZ", (0,), np.pi)))
        want = expm(-1j * np.pi / 2 * SZ) @ (-1j * SX)
        assert np.allclose(circuit_unitary(c), want, atol=1e-12)

    def test_embedding_respects_big_endian_targets(self):
        # PI_X on qubit 0 of two flips the most significant bit
        c = Circuit(2, (Gate("PI_X", (0,)),))
        u = circuit_unitary(c)
        vec = np.zeros(4, dtype=complex)
        vec[0] = 1.0
        out = u @ vec
        assert abs(out[2]) == pytest.approx(1.0)

    def test_czphi_on_reversed_targets(self):
        # CZPHI is symmetric; target order must not matter
        a = circuit_unitary(Circuit(2, (Gate("CZPHI", (0, 1), 0.9),)))
        b = circuit_unitary(Circuit(2, (Gate("CZPHI", (1, 0), 0.9),)))
        assert np.allclose(a, b, atol=1e-12)

    def test_unitarity_of_random_circuits(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            gates = []
            for _ in range(12):
                kind = rng.choice(["RX", "RY", "VIRTUAL_Z", "PI_X", "CZPHI",
                                   "IDLE"])
                if kind == "CZPHI":
                    q = sorted(rng.choice(3, size=2, replace=False))
                    gates.append(Gate("CZPHI", (int(q[0]), int(q[1])),
                                      float(rng.uniform(-3, 3))))
                else:
                    gates.append(Gate(kind, (int(rng.integers(3)),),
                                      float(rng.uniform(-3, 3))))
            u = circuit_unitary(Circuit(3, tuple(gates)))
            assert np.max(np.abs(u @ u.conj().T - np.eye(8))) < 1e-10

    def test_append_inverse_restores_identity(self):
        rng = np.random.default_rng(9)
        th = float(rng.uniform(0, np.pi))
        c = Circuit(2, (Gate("RY", (0,), th), Gate("CZPHI", (0, 1), 1.3),
                        Gate("CZPHI", (0, 1), -1.3), Gate("RY", (0,), -th)))
        assert equal_up_to_phase(circuit_unitary(c), np.eye(4))

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            circuit_unitary(Circuit(13))

    def test_target_range_validation(self):
        with pytest.raises(ValueError):
            Circuit(1, (Gate("PI_X", (1,)),))


class TestCensus:
    def test_counts_by_class(self):
        c = Circuit(2, (
            Gate("RX", (0,), 1.0), Gate("PI_Y", (1,)),
            Gate("CZPHI", (0, 1), 2.0), Gate("IDLE", (0,)),
            Gate("DETUNE", (1,)), Gate("VIRTUAL_Z", (0,), 0.5),
            Gate("RZ", (1,), 0.5),
        ))
        census = gate_census(c)
        assert census == {"entangling": 1, "microwave": 2, "idle": 1,
                          "detune": 1, "virtual": 2}
        assert census_single_qubit_total(census) == 6

    def test_additive_under_concat(self):
        a = Circuit(2, (Gate("RX", (0,), 1.0), Gate("CZPHI", (0, 1), 2.0)))
        b = Circuit(2, (Gate("IDLE", (1,)),))
        ca, cb, cc = gate_census(a), gate_census(b), gate_census(a.concat(b))
        assert all(cc[k] == ca[k] + cb[k] for k in cc)


class TestPhaseRange:
    def test_pi_in_range(self):
        c = Circuit(2, (Gate("CZPHI", (0, 1), np.pi),))
        assert validate_phase_range(c, 0.5, 4.0) == []

    def test_small_phase_flagged(self):
        c = Circuit(2, (Gate("CZPHI", (0, 1), 0.1),))
        assert validate_phase_range(c, 0.5, 4.0) == [(0, 0.1)]

    def test_large_phase_flagged(self):
        c = Circuit(2, (Gate("CZPHI", (0, 1), 4.5),))
        assert validate_phase_range(c, 0.5, 4.0) == [(0, 4.5)]

    def test_negative_magnitude_ok(self):
        c = Circuit(2, (Gate("CZPHI", (0, 1), -2.0),))
        assert validate_phase_range(c, 0.5, 4.0) == []

    def test_reports_gate_index(self):
        c = Circuit(2, (Gate("IDLE", (0,)), Gate("CZPHI", (0, 1), 0.2),
                        Gate("CZPHI", (0, 1), 1.0)))
        assert validate_phase_range(c, 0.5, 4.0) == [(1, 0.2)]


class TestJson:
    def test_round_trip(self):
        c = Circuit(3, (Gate("RY", (2,), 0.25), Gate("CZPHI", (0, 1), np.pi)))
        again = Circuit.from_json(c.to_json())
        assert again.qubit_count == 3
        assert again.gates == c.gates
