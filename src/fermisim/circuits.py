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
from dataclasses import dataclass

import numpy as np

# CIRCUIT_QUBIT_LIMIT and CapacityError are re-exported for callers
from .pauli import DENSE_QUBIT_LIMIT as CIRCUIT_QUBIT_LIMIT
from .pauli import PAULI_MATRICES, CapacityError, check_dense_width

GATE_KINDS = (
    "RX", "RY", "RZ", "PI_X", "PI_Y", "VIRTUAL_Z", "IDLE", "DETUNE", "CZPHI",
)
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
        return Circuit(self.qubit_count, self.gates + other.gates)

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


_EYE2 = np.eye(2, dtype=complex)
_EYE2.setflags(write=False)


def entangler_blocks(c: Circuit):
    """Yield (unitary, targets, counts) blocks equivalent to c.

    Each qubit's run of one-qubit gates is multiplied, as a 2x2 unitary
    product, into the next CZPHI on that qubit (gates on other qubits
    commute with it), giving one block per entangling gate plus one per
    run still pending at the end.  ``IDLE``/``DETUNE`` add no factor.
    ``counts`` holds each target's number of noisy (non-virtual)
    one-qubit gates in the block, for the noise model.
    """
    pending: dict[int, list] = {}  # qubit -> [unitary or None, count]
    for g in c.gates:
        if len(g.targets) == 1:
            run = pending.setdefault(g.targets[0], [None, 0])
            run[1] += g.duration_class != "virtual"
            if g.kind not in ("IDLE", "DETUNE"):
                u = gate_unitary(g)
                run[0] = u if run[0] is None else u @ run[0]
            continue
        a, b = g.targets
        ua, ka = pending.pop(a, (None, 0))
        ub, kb = pending.pop(b, (None, 0))
        m = gate_unitary(g)
        if ua is not None or ub is not None:  # times kron(ua, ub)
            ua, ub = (_EYE2 if x is None else x for x in (ua, ub))
            m = m @ (ua[:, None, :, None] * ub[None, :, None, :]).reshape(4, 4)
        yield m, g.targets, (ka, kb)
    for q, (u, k) in pending.items():
        yield (_EYE2 if u is None else u), (q,), (k,)


def block_layout(axes: tuple[int, ...], legs: int) -> tuple[tuple, tuple]:
    """(perm, inverse) for a block on ``axes`` of a (2,)*legs + (batch,)
    tensor: ``perm`` brings the block's axes to the front in order,
    keeping the batch axis last, and ``inverse`` undoes it."""
    perm = (*axes, *(i for i in range(legs + 1) if i not in axes))
    return perm, tuple(sorted(range(legs + 1), key=perm.__getitem__))


def run_blocks(t: np.ndarray, blocks) -> np.ndarray:
    """Apply :func:`block_layout` blocks (matrix, perm, inverse) to a
    (2,)*legs + (batch,) tensor in order: the one loop behind the
    unitary, the channel matrix and both simulator backends."""
    shape = t.shape
    for m, perm, inverse in blocks:
        t = (m @ t.transpose(perm).reshape(len(m), -1)).reshape(
            shape).transpose(inverse)
    return t


def unitary_blocks(fold, n: int) -> tuple:
    """Run-ready blocks of an :func:`entangler_blocks` fold acting on
    the ket axes of an n-qubit tensor."""
    return tuple((u, *block_layout(targets, n)) for u, targets, _ in fold)


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Product of embedded gate unitaries, earliest gate applied first."""
    n = c.qubit_count
    check_dense_width(n, "circuit unitary")
    dim = 2 ** n
    eye = np.eye(dim, dtype=complex).reshape((2,) * n + (dim,))
    return run_blocks(eye, unitary_blocks(entangler_blocks(c), n)).reshape(
        dim, dim)


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
