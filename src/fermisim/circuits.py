"""Gate-level intermediate representation for the hardware gate vocabulary.

Gate kinds and their census duration classes:

* ``RX``/``RY``/``PI_X``/``PI_Y`` - microwave pulses.
* ``RZ``/``VIRTUAL_Z`` - software frame rotations, zero duration.
* ``IDLE`` - an explicit wait of one microwave-gate duration.
* ``DETUNE`` - frequency-parking bookkeeping for a spectator qubit
  during an entangling gate; zero duration, identity in simulation.
* ``CZPHI`` - the tunable entangling gate, ``diag(1, 1, 1, e^{i phi})``.
  The sign convention is fixed here and owned by this module.

Qubit 0 is the most significant bit of a dense basis index.  Circuits
are immutable; composing them returns new values, and unitary
comparisons are made modulo global phase via :func:`phase_distance`.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .pauli import PAULI_MATRICES, CapacityError

GATE_KINDS = (
    "RX", "RY", "RZ", "PI_X", "PI_Y", "VIRTUAL_Z", "IDLE", "DETUNE", "CZPHI",
)
PARAMETRIC = {"RX", "RY", "RZ", "VIRTUAL_Z", "CZPHI"}
TWO_QUBIT = {"CZPHI"}

DURATION_CLASS = {
    "RX": "microwave",
    "RY": "microwave",
    "PI_X": "microwave",
    "PI_Y": "microwave",
    "RZ": "virtual",
    "VIRTUAL_Z": "virtual",
    "IDLE": "idle",
    "DETUNE": "detune",
    "CZPHI": "entangling",
}

UNITARY_TOL = 1e-10
CIRCUIT_QUBIT_LIMIT = 12

@dataclass(frozen=True)
class Gate:
    kind: str
    targets: tuple[int, ...]
    param: float = 0.0

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        want = 2 if self.kind in TWO_QUBIT else 1
        if len(self.targets) != want:
            raise ValueError(
                f"{self.kind} takes {want} target(s), got {self.targets}"
            )
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"duplicate targets {self.targets}")
        if not math.isfinite(self.param):
            raise ValueError(f"gate parameter {self.param} is not finite")

    @property
    def duration_class(self) -> str:
        return DURATION_CLASS[self.kind]


def gate_unitary(g: Gate) -> np.ndarray:
    """2x2 or 4x4 unitary of a gate on its own targets."""
    th = g.param
    if g.kind == "RX":
        c, s = math.cos(th / 2), math.sin(th / 2)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if g.kind == "RY":
        c, s = math.cos(th / 2), math.sin(th / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if g.kind == "RZ":
        return np.diag([np.exp(-1j * th / 2), np.exp(1j * th / 2)])
    if g.kind == "PI_X":
        return -1j * PAULI_MATRICES["X"]
    if g.kind == "PI_Y":
        return -1j * PAULI_MATRICES["Y"]
    if g.kind == "VIRTUAL_Z":
        return np.diag([1.0, np.exp(1j * th)])
    if g.kind in ("IDLE", "DETUNE"):
        return np.eye(2, dtype=complex)
    if g.kind == "CZPHI":
        return np.diag([1.0, 1.0, 1.0, np.exp(1j * th)])
    raise ValueError(f"unknown gate kind {g.kind!r}")


@dataclass(frozen=True)
class Circuit:
    qubit_count: int
    gates: tuple[Gate, ...] = ()
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        for g in self.gates:
            for t in g.targets:
                if not 0 <= t < self.qubit_count:
                    raise ValueError(
                        f"target {t} out of range for {self.qubit_count} qubits"
                    )

    def __len__(self) -> int:
        return len(self.gates)

    def concat(self, other: Circuit) -> Circuit:
        if other.qubit_count != self.qubit_count:
            raise ValueError("qubit counts differ")
        return Circuit(self.qubit_count, self.gates + other.gates,
                       dict(self.metadata))

    def to_json_dict(self) -> dict:
        return {
            "n": self.qubit_count,
            "gates": [
                {"kind": g.kind, "targets": list(g.targets), "param": g.param}
                for g in self.gates
            ],
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> Circuit:
        gates = tuple(
            Gate(g["kind"], tuple(g["targets"]), float(g.get("param", 0.0)))
            for g in payload["gates"]
        )
        return cls(payload["n"], gates)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> Circuit:
        return cls.from_json_dict(json.loads(text))


def apply_gate_to_tensor(block: np.ndarray, u: np.ndarray,
                         targets: tuple[int, ...], n: int) -> np.ndarray:
    """Apply a 2^k x 2^k matrix to k of the first n axes of a tensor.

    ``block`` has shape (2,)*n + trailing axes; trailing axes are batch
    dimensions (e.g. the column index when building a full unitary).
    The matrix is a gate unitary, or a gate's local superoperator acting
    on the ket and bra axes of a density tensor.
    """
    k = len(targets)
    axes = list(targets)
    u_t = u.reshape((2,) * (2 * k))
    moved = np.tensordot(u_t, block, axes=(list(range(k, 2 * k)), axes))
    # tensordot puts the acted-on axes first; restore original order
    return np.moveaxis(moved, list(range(k)), axes)


def _pair_product(a: np.ndarray, b: np.ndarray, legs: int) -> np.ndarray:
    """a on one qubit times b on another, as one two-qubit matrix.

    Each factor acts on ``legs`` axes of its qubit (1: a unitary on the
    ket; 2: a superoperator on ket and bra).  The product acts on the
    axes ordered leg-major, (a_1, b_1, ..., a_legs, b_legs): for
    ``legs=1`` it is kron(a, b), for ``legs=2`` the (ka, kb, ba, bb)
    order of a two-qubit superoperator.  Written as a broadcast product,
    since np.kron's overhead dominates on 2x2 and 4x4 factors.
    """
    d = 4 ** legs
    return (a.reshape((2, 1) * 2 * legs)
            * b.reshape((1, 2) * 2 * legs)).reshape(d, d)


def entangler_blocks(c: Circuit, local, legs: int = 1):
    """Yield (matrix, targets) blocks equivalent to c run gate by gate.

    ``local(g)`` is gate g's matrix on its own targets, acting on
    ``legs`` axes per target.  Each qubit's run of one-qubit gates is
    multiplied into the next CZPHI on that qubit, so the circuit becomes
    one block per entangling gate plus one per qubit whose run is still
    pending at the end.  One-qubit gates commute with gates on other
    qubits, so deferring a run to the next gate on its qubit keeps the
    circuit's action.
    """
    pending: dict[int, np.ndarray] = {}
    for g in c.gates:
        m = local(g)
        if len(g.targets) == 1:
            q = g.targets[0]
            pending[q] = m @ pending[q] if q in pending else m
            continue
        a, b = g.targets
        if a in pending or b in pending:
            eye = np.eye(2 ** legs)
            m = m @ _pair_product(pending.pop(a, eye),
                                  pending.pop(b, eye), legs)
        yield m, g.targets
    for q, m in pending.items():
        yield m, (q,)


def apply_circuit_vector(c: Circuit, vec: np.ndarray) -> np.ndarray:
    """Apply a circuit to a dense state vector (or batch of columns)."""
    n = c.qubit_count
    batch = vec.shape[1:] if vec.ndim > 1 else ()
    block = vec.reshape((2,) * n + batch)
    for u, targets in entangler_blocks(c, gate_unitary):
        block = apply_gate_to_tensor(block, u, targets, n)
    return block.reshape((2 ** n,) + batch)


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Product of embedded gate unitaries, earliest gate applied first."""
    n = c.qubit_count
    if n > CIRCUIT_QUBIT_LIMIT:
        raise CapacityError(
            f"circuit unitary capped at {CIRCUIT_QUBIT_LIMIT} qubits"
        )
    dim = 2 ** n
    return apply_circuit_vector(c, np.eye(dim, dtype=complex))


def phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """1 - |tr(A^dag B)| / dim; zero iff equal up to global phase."""
    dim = a.shape[0]
    return 1.0 - abs(np.trace(a.conj().T @ b)) / dim


def equal_up_to_phase(a: np.ndarray, b: np.ndarray,
                      tol: float = UNITARY_TOL) -> bool:
    return phase_distance(a, b) <= tol


def gate_census(c: Circuit) -> dict[str, int]:
    """Gate counts by duration class, keyed like the step census tables."""
    counts = {"entangling": 0, "microwave": 0, "idle": 0, "detune": 0,
              "virtual": 0}
    for g in c.gates:
        counts[g.duration_class] += 1
    return counts


def census_single_qubit_total(census: dict[str, int]) -> int:
    return (census["microwave"] + census["idle"] + census["detune"]
            + census["virtual"])


def validate_phase_range(c: Circuit, lo: float, hi: float):
    """Report CZPHI gates whose physical phase magnitude leaves [lo, hi].

    The check is on |param| as emitted: the compiler canonicalises its
    entangling phases into (-pi, pi], so a literal 4.5 rad instruction is
    a genuine out-of-range excursion rather than an alias of -1.78 rad.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")
    violations = []
    for idx, g in enumerate(c.gates):
        if g.kind != "CZPHI":
            continue
        mag = abs(g.param)
        if mag < lo - 1e-12 or mag > hi + 1e-12:
            violations.append((idx, g.param))
    return violations
