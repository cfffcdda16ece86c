"""Property tests of the density-channel kernel on random circuits."""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fermisim.circuits import (
    GATE_KINDS,
    TWO_QUBIT,
    Circuit,
    Gate,
    circuit_unitary,
)
from fermisim.simulator import (
    DensityState,
    NoiseModel,
    apply_circuit,
    circuit_channel,
)

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, database=None)


@st.composite
def circuits(draw, max_qubits=4):
    n = draw(st.integers(1, max_qubits))
    kinds = [k for k in GATE_KINDS if n >= 2 or k not in TWO_QUBIT]
    gates = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(kinds))
        width = 2 if kind in TWO_QUBIT else 1
        targets = tuple(draw(st.permutations(range(n)))[:width])
        param = draw(st.floats(-2 * math.pi, 2 * math.pi))
        gates.append(Gate(kind, targets, param))
    return Circuit(n, tuple(gates))


def random_density(n: int, seed: int) -> DensityState:
    rng = np.random.default_rng(seed)
    dim = 2 ** n
    rank = int(rng.integers(1, dim + 1))
    m = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = m @ m.conj().T
    return DensityState(rho / np.trace(rho).real, n)


seeds = st.integers(0, 2 ** 32 - 1)
scales = st.floats(0.0, 3.0)


@PROPERTY_SETTINGS
@given(circuits(), seeds, scales)
def test_output_is_a_density(circuit, seed, scale):
    state = random_density(circuit.qubit_count, seed)
    rho = apply_circuit(state, circuit, NoiseModel().scaled(scale)).rho
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    assert np.linalg.eigvalsh(rho).min() >= -1e-10


@PROPERTY_SETTINGS
@given(circuits(), seeds)
def test_zero_noise_is_unitary_conjugation(circuit, seed):
    state = random_density(circuit.qubit_count, seed)
    u = circuit_unitary(circuit)
    want = u @ state.rho @ u.conj().T
    for noise in (None, NoiseModel(0.0, 0.0)):
        got = apply_circuit(state, circuit, noise).rho
        assert np.allclose(got, want, rtol=0, atol=1e-12)


@PROPERTY_SETTINGS
@given(circuits(), seeds, scales)
def test_circuit_channel_matches_apply_circuit(circuit, seed, scale):
    state = random_density(circuit.qubit_count, seed)
    noise = NoiseModel().scaled(scale)
    dim = 2 ** circuit.qubit_count
    got = circuit_channel(circuit, noise) @ state.rho.reshape(-1)
    want = apply_circuit(state, circuit, noise).rho
    assert np.allclose(got.reshape(dim, dim), want, rtol=0, atol=1e-12)
