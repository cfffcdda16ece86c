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
from fermisim.tomography import chi_of_circuit, chi_of_ptm, ptm_of_chi

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
    got = circuit_channel(circuit, noise) @ pauli_vector(state.rho)
    want = apply_circuit(state, circuit, noise).rho
    assert np.allclose(from_pauli_vector(got), want, rtol=0, atol=1e-12)


# Unfolded gate-by-gate reference for the entangler-block kernel: every
# gate is embedded in the full space with np.kron and identities, and
# applied on its own.  It shares no code with the kernel under test.

def embedded(m: np.ndarray, targets: tuple[int, ...], n: int) -> np.ndarray:
    """A matrix on ``targets`` as a 2^n x 2^n matrix, sum of kron terms."""
    k = len(targets)
    m = m.reshape((2,) * (2 * k))
    full = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for idx in np.ndindex(m.shape):
        term = np.array([[m[idx]]])
        for q in range(n):
            factor = np.eye(2)
            if q in targets:
                pos = targets.index(q)
                factor = np.zeros((2, 2))
                factor[idx[pos], idx[pos + k]] = 1.0
            term = np.kron(term, factor)
        full += term
    return full


PAULIS = [np.eye(2), np.array([[0, 1], [1, 0]]),
          np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])]


def pauli_strings(n: int) -> np.ndarray:
    """The 4^n Pauli strings by np.kron, the first factor most
    significant."""
    out = np.ones((1, 1, 1))
    for _ in range(n):
        out = np.stack([np.kron(a, p) for a in out for p in PAULIS])
    return out


def pauli_vector(rho: np.ndarray) -> np.ndarray:
    """r_P = tr(P rho)."""
    n = len(rho).bit_length() - 1
    return np.einsum("pab,ba->p", pauli_strings(n), rho).real


def from_pauli_vector(r: np.ndarray) -> np.ndarray:
    """rho = sum_P r_P P / 2^n."""
    n = (len(r).bit_length() - 1) // 2
    return np.einsum("p,pab->ab", r, pauli_strings(n)) / 2 ** n


def to_ptm(s: np.ndarray) -> np.ndarray:
    """R = B* S B^T / d of a channel S acting on rho.reshape(-1), B
    stacking the flattened Pauli strings."""
    n = (len(s).bit_length() - 1) // 2
    b = pauli_strings(n).reshape(len(s), -1)
    return (b.conj() @ s @ b.T).real / 2 ** n


def reference_channel(circuit: Circuit, noise: NoiseModel) -> np.ndarray:
    """Row-major channel matrix, one gate at a time: U (x) U* followed by
    depolarizing on the gate's support, (1 - p) rho + p/d^2 sum P rho P
    over the d^2 Paulis P of the support.  Virtual gates are free."""
    n = circuit.qubit_count
    out = np.eye(4 ** n, dtype=complex)
    for g in circuit.gates:
        u = embedded(gate_unitary(g), g.targets, n)
        s = np.kron(u, u.conj())
        if g.kind not in ("RZ", "VIRTUAL_Z"):
            k = len(g.targets)
            d = 2 ** k
            eps = noise.eps_2q if k == 2 else noise.eps_1q
            p = min(1.0, eps * d / (d - 1))
            twirl = np.zeros_like(s)
            for labels in np.ndindex((4,) * k):
                pauli = PAULIS[labels[0]]
                for lbl in labels[1:]:
                    pauli = np.kron(pauli, PAULIS[lbl])
                full = embedded(pauli, g.targets, n)
                twirl += np.kron(full, full.conj())
            s = ((1 - p) * np.eye(4 ** n) + (p / d ** 2) * twirl) @ s
        out = s @ out
    return out


def reference_unitary(circuit: Circuit) -> np.ndarray:
    out = np.eye(2 ** circuit.qubit_count, dtype=complex)
    for g in circuit.gates:
        out = embedded(gate_unitary(g), g.targets, circuit.qubit_count) @ out
    return out


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
    want = reference_unitary(circuit)
    assert np.allclose(got, want @ state.amplitudes, rtol=0, atol=1e-12)
    assert np.allclose(circuit_unitary(circuit), want, rtol=0, atol=1e-12)


@PROPERTY_SETTINGS
@given(long_circuits(), seeds, scales)
def test_folded_density_path_matches_gate_by_gate(circuit, seed, scale):
    n = circuit.qubit_count
    noise = NoiseModel().scaled(scale)
    state = random_density(n, seed)
    got = apply_circuit(state, circuit, noise).rho
    want = reference_channel(circuit, noise) @ state.rho.reshape(-1)
    assert np.allclose(got, want.reshape(got.shape), rtol=0, atol=1e-12)


@PROPERTY_SETTINGS
@given(long_circuits(), scales)
def test_folded_channel_matches_gate_by_gate(circuit, scale):
    noise = NoiseModel().scaled(scale)
    assert np.allclose(circuit_channel(circuit, noise),
                       to_ptm(reference_channel(circuit, noise)),
                       rtol=0, atol=1e-12)


@PROPERTY_SETTINGS
@given(long_circuits(), scales)
def test_circuit_channel_is_a_unital_trace_preserving_ptm(circuit, scale):
    ptm = circuit_channel(circuit, NoiseModel().scaled(scale))
    assert ptm.dtype == np.float64
    e0 = np.eye(len(ptm))[0]
    assert np.max(np.abs(ptm[0] - e0)) <= 1e-12  # trace-preserving
    assert np.max(np.abs(ptm[:, 0] - e0)) <= 1e-12  # unital


@PROPERTY_SETTINGS
@given(long_circuits(max_qubits=2), scales)
def test_chi_of_circuit_channel_is_psd(circuit, scale):
    # a one-qubit circuit runs on qubit 0 of two, its channel (x) identity
    circuit = Circuit(2, circuit.gates)
    chi = chi_of_ptm(circuit_channel(circuit, NoiseModel().scaled(scale)))
    assert np.linalg.eigvalsh(chi.chi).min() >= -1e-12


@PROPERTY_SETTINGS
@given(circuits(max_qubits=2).filter(lambda c: c.qubit_count == 2), scales)
def test_chi_and_circuit_channel_share_one_convention(circuit, scale):
    noise = NoiseModel().scaled(scale)
    channel = circuit_channel(circuit, noise)
    back = ptm_of_chi(chi_of_ptm(channel))
    assert np.max(np.abs(back - channel)) <= 1e-12
    ideal = ptm_of_chi(chi_of_circuit(circuit))
    assert np.max(np.abs(ideal - circuit_channel(circuit))) <= 1e-12
