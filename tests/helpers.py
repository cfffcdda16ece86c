"""Test-only helpers: basis states, state-preparation circuits, a
unitary comparison modulo global phase, the leaves of a JSON payload
and a copy of the sliced constant-coupling reference.  No package code
needs them."""
from __future__ import annotations

import math

import numpy as np

from fermisim.circuits import Circuit, Gate
from fermisim.simulator import PureState, invariant_support


def basis_state(qubit_count: int, index: int = 0) -> PureState:
    amp = np.zeros(2 ** qubit_count, dtype=complex)
    amp[index] = 1.0
    return PureState(amp, qubit_count)


def _cnot(control: int, target: int) -> list[Gate]:
    h = [Gate("RY", (target,), math.pi / 2), Gate("PI_X", (target,))]
    return h + [Gate("CZPHI", (control, target), math.pi)] + h


def _bell_pair(a: int, b: int) -> list[Gate]:
    """(|01> + |10>)/sqrt(2) on qubits (a, b) from |00>."""
    return [Gate("RY", (a,), math.pi / 2)] + _cnot(a, b) \
        + [Gate("PI_X", (b,))]


def input_circuit(kind: str) -> Circuit:
    """State-preparation circuit acting on the all-zeros qubit state."""
    if kind == "two_mode":
        return Circuit(2, (Gate("RY", (1,), math.pi / 2),))
    if kind == "three_mode":
        return Circuit(3, tuple(_bell_pair(0, 1)))
    if kind == "four_mode":
        return Circuit(4, tuple(_bell_pair(0, 1) + _bell_pair(2, 3)))
    raise ValueError(f"unknown input kind {kind!r}")


def phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """1 - |tr(A^dag B)| / dim; zero iff equal up to global phase."""
    dim = a.shape[0]
    return 1.0 - abs(np.trace(a.conj().T @ b)) / dim


def equal_up_to_phase(a: np.ndarray, b: np.ndarray,
                      tol: float = 1e-10) -> bool:
    return phase_distance(a, b) <= tol


def json_leaves(value, prefix=()):
    """(key path, value) of every leaf of nested dicts and lists."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from json_leaves(item, prefix + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from json_leaves(item, prefix + (i,))
    else:
        yield prefix, value


def broadcast_constant(hamiltonian, times, amplitudes) -> np.ndarray:
    """exp(-i H t_k)|psi> at t_k = (k + 1) dt, dt = ``times[0]``, as the
    constant-coupling checkpoints were made before the closed form:
    ``simulator.evolve_slices`` on ``len(times)`` copies of H, one slice
    of dt each, its arithmetic copied here.  Every copy goes through the
    batched eigendecomposition, and the state is stepped one slice at a
    time, so rounding builds up over the rows.  On the full space or on
    an invariant block (``simulator.evolve_constant``'s arguments) it is
    the same arithmetic."""
    steps, dim = len(times), len(amplitudes)
    hs = np.broadcast_to(np.asarray(hamiltonian), (steps, dim, dim))
    support = invariant_support(hs, amplitudes)
    vals, vecs = np.linalg.eigh(hs[:, support[:, None], support])
    phases = np.exp(-1j * vals * np.full(steps, times[0])[:, None])
    props = (vecs * phases[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
    amps = amplitudes[support]
    out = np.zeros((steps, dim), dtype=complex)
    for k, u in enumerate(props):
        out[k, support] = amps = u @ amps
    return out
