"""Test-only helpers: basis states, state-preparation circuits and a
unitary comparison modulo global phase.  No package code needs them."""
from __future__ import annotations

import math

import numpy as np

from fermisim.circuits import Circuit, Gate
from fermisim.simulator import PureState


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
