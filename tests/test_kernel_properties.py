"""Property tests of the circuit kernels on random circuits."""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fermisim.circuits import (
    GATE_KINDS,
    TWO_QUBIT,
    Circuit,
    Gate,
    apply_gate_to_tensor,
    circuit_unitary,
    gate_unitary,
)
from fermisim.simulator import (
    DensityState,
    NoiseModel,
    PureState,
    apply_circuit,
    circuit_channel,
)
from fermisim.tomography import (
    chi_from_superoperator,
    chi_of_circuit,
    superoperator,
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


# Unfolded gate-by-gate reference for the entangler-block kernel: every
# gate is applied on its own, its superoperator built with np.kron.

def reference_superoperator(g: Gate, noise: NoiseModel) -> np.ndarray:
    u = gate_unitary(g)
    d = len(u)
    s = np.kron(u, u.conj())
    if g.kind in ("RZ", "VIRTUAL_Z"):
        return s
    eps = noise.eps_2q if d == 4 else noise.eps_1q
    p = min(1.0, eps * d / (d - 1))
    vec_id = np.eye(d).reshape(-1)
    return (1 - p) * s + (p / d) * np.outer(vec_id, vec_id)


def reference_density_run(t: np.ndarray, circuit: Circuit,
                          noise: NoiseModel) -> np.ndarray:
    n = circuit.qubit_count
    for g in circuit.gates:
        axes = g.targets + tuple(q + n for q in g.targets)
        t = apply_gate_to_tensor(t, reference_superoperator(g, noise), axes)
    return t


def reference_vector_run(vec: np.ndarray, circuit: Circuit) -> np.ndarray:
    n = circuit.qubit_count
    t = vec.reshape((2,) * n)
    for g in circuit.gates:
        t = apply_gate_to_tensor(t, gate_unitary(g), g.targets)
    return t.reshape(-1)


@st.composite
def long_circuits(draw, max_qubits=4):
    """Up to 24 gates of every kind, so one-qubit runs fold between
    entanglers; CZPHI on any ordered (reversed, non-adjacent) pair."""
    n = draw(st.integers(1, max_qubits))
    kinds = [k for k in GATE_KINDS if n >= 2 or k not in TWO_QUBIT]
    gates = []
    for _ in range(draw(st.integers(0, 24))):
        kind = draw(st.sampled_from(kinds))
        width = 2 if kind in TWO_QUBIT else 1
        targets = tuple(draw(st.permutations(range(n)))[:width])
        param = draw(st.floats(-2 * math.pi, 2 * math.pi))
        gates.append(Gate(kind, targets, param))
    return Circuit(n, tuple(gates))


@PROPERTY_SETTINGS
@given(long_circuits(), seeds)
def test_folded_pure_path_matches_gate_by_gate(circuit, seed):
    rng = np.random.default_rng(seed)
    dim = 2 ** circuit.qubit_count
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    state = PureState(vec / np.linalg.norm(vec), circuit.qubit_count)
    got = apply_circuit(state, circuit).amplitudes
    want = reference_vector_run(state.amplitudes, circuit)
    assert np.allclose(got, want, rtol=0, atol=1e-12)
    cols = np.stack([reference_vector_run(e, circuit)
                     for e in np.eye(dim, dtype=complex)], axis=1)
    assert np.allclose(circuit_unitary(circuit), cols, rtol=0, atol=1e-12)


@PROPERTY_SETTINGS
@given(long_circuits(), seeds, scales)
def test_folded_density_path_matches_gate_by_gate(circuit, seed, scale):
    n = circuit.qubit_count
    noise = NoiseModel().scaled(scale)
    state = random_density(n, seed)
    got = apply_circuit(state, circuit, noise).rho
    want = reference_density_run(state.rho.reshape((2,) * (2 * n)),
                                 circuit, noise).reshape(got.shape)
    assert np.allclose(got, want, rtol=0, atol=1e-12)


@PROPERTY_SETTINGS
@given(long_circuits(), scales)
def test_folded_channel_matches_gate_by_gate(circuit, scale):
    n = circuit.qubit_count
    noise = NoiseModel().scaled(scale)
    dim = 4 ** n
    batch = np.eye(dim, dtype=complex).reshape((2,) * (2 * n) + (dim,))
    want = reference_density_run(batch, circuit, noise).reshape(dim, dim)
    assert np.allclose(circuit_channel(circuit, noise), want,
                       rtol=0, atol=1e-12)


@PROPERTY_SETTINGS
@given(circuits(max_qubits=2).filter(lambda c: c.qubit_count == 2), scales)
def test_chi_and_circuit_channel_share_one_convention(circuit, scale):
    noise = NoiseModel().scaled(scale)
    channel = circuit_channel(circuit, noise)
    back = superoperator(chi_from_superoperator(channel))
    assert np.max(np.abs(back - channel)) <= 1e-12
    ideal = superoperator(chi_of_circuit(circuit))
    assert np.max(np.abs(ideal - circuit_channel(circuit))) <= 1e-12
