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
are immutable; composing them returns new values.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

# CIRCUIT_QUBIT_LIMIT and CapacityError are re-exported for callers
from .pauli import DENSE_QUBIT_LIMIT as CIRCUIT_QUBIT_LIMIT
from .pauli import (
    PAULI_MATRICES,
    CapacityError,
    check_dense_width,
    read_only,
)

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


# (kind, param) of the parameter-free and fixed-angle gates the compiler
# and the tomography rotations emit; their unitaries are built once
_FIXED_GATES = frozenset({
    ("PI_X", 0.0), ("PI_Y", 0.0),
    ("RX", math.pi / 2), ("RX", -math.pi / 2), ("RX", 2 * math.pi),
    ("RY", math.pi / 2), ("RY", -math.pi / 2), ("CZPHI", math.pi),
})


def gate_unitary(g: Gate) -> np.ndarray:
    """2x2 or 4x4 unitary of a gate on its own targets.

    The fixed gates of ``_FIXED_GATES`` share one read-only array each,
    built on first use; every other gate gets a fresh array.
    """
    if (g.kind, g.param) in _FIXED_GATES:
        return _fixed_unitary(g.kind, g.param)
    return _unitary(g.kind, g.param)


@functools.cache
def _fixed_unitary(kind: str, param: float) -> np.ndarray:
    return read_only(_unitary(kind, param))


def _unitary(kind: str, th: float) -> np.ndarray:
    if kind == "RX":
        c, s = math.cos(th / 2), math.sin(th / 2)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if kind == "RY":
        c, s = math.cos(th / 2), math.sin(th / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if kind == "RZ":
        return np.array([[np.exp(-1j * th / 2), 0], [0, np.exp(1j * th / 2)]])
    if kind == "PI_X":
        return -1j * PAULI_MATRICES["X"]
    if kind == "PI_Y":
        return -1j * PAULI_MATRICES["Y"]
    if kind == "VIRTUAL_Z":
        return np.array([[1.0, 0.0], [0.0, np.exp(1j * th)]])
    if kind in ("IDLE", "DETUNE"):
        return np.eye(2, dtype=complex)
    if kind == "CZPHI":
        return _czphi([th])[0]
    raise ValueError(f"unknown gate kind {kind!r}")


def _czphi(params) -> np.ndarray:
    """(k, 4, 4) stack of CZPHI unitaries diag(1, 1, 1, e^{i param})."""
    u = np.zeros((len(params), 4, 4), dtype=complex)
    u[:, (0, 1, 2), (0, 1, 2)] = 1.0
    u[:, 3, 3] = np.exp(1j * np.asarray(params, dtype=float))
    return u


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


_EYE2 = read_only(np.eye(2, dtype=complex))


def entangler_blocks(c: Circuit):
    """Yield (unitary, targets, counts) blocks equivalent to c.

    Each qubit's run of one-qubit gates is multiplied, as a 2x2 unitary
    product, into the next CZPHI on that qubit (gates on other qubits
    commute with it), giving one block per entangling gate plus one per
    run still pending at the end.  ``IDLE``/``DETUNE`` add no factor.
    ``counts`` holds each target's number of noisy (non-virtual)
    one-qubit gates in the block, for the noise model.

    The fold depends on the gates only through their kinds, targets and
    which of them are fixed (``_FIXED_GATES``), so its plan is cached
    per such structure (:func:`_fold_plan`), with every product of
    fixed gates made once.  A call multiplies in the other one-qubit
    gates, in the same order as one factor at a time, and forms every
    entangling block as CZPHI times the kron of its two runs in one
    batched product.
    """
    gates = c.gates
    entanglers, krons, mixed, blocks, leftovers = _fold_plan(tuple([
        (g.kind, g.targets, g.param) if (g.kind, g.param) in _FIXED_GATES
        else (g.kind, g.targets) for g in gates]))
    if entanglers:
        if mixed:
            krons = krons.copy()
            for row, runs in mixed:
                krons[row] = _kron2(*(_run_product(*run, gates)
                                      for run in runs))
        units = _czphi([gates[i].param for i in entanglers]) @ krons
        for u, (targets, counts) in zip(units, blocks):
            yield u, targets, counts
    for run, targets, counts in leftovers:
        u = _run_product(*run, gates)
        yield (_EYE2 if u is None else u), targets, counts


def _run_product(prefix, rest, gates):
    """A run's product: the cached product of its leading fixed gates,
    times each later gate in turn."""
    u = prefix
    for i in rest:
        v = gate_unitary(gates[i])
        u = v if u is None else v @ u
    return u


def _kron2(ua, ub) -> np.ndarray:
    """kron(ua, ub) of two one-qubit runs, None for an empty run."""
    ua, ub = (_EYE2 if x is None else x for x in (ua, ub))
    return (ua[:, None, :, None] * ub[None, :, None, :]).reshape(4, 4)


@functools.lru_cache(maxsize=256)
def _fold_plan(structure: tuple) -> tuple:
    """The fold of :func:`entangler_blocks` for gates of the given
    (kind, targets[, param of a fixed gate]) structure:
    (entanglers, krons, mixed, blocks, leftovers).

    Per entangling block, in gate order: ``entanglers`` holds its gate
    index, ``krons`` (read-only) the kron of its two runs (identity for
    none), and ``blocks`` its (targets, counts).  ``mixed`` lists the
    (row, runs) of blocks whose runs hold gates that are not fixed;
    their kron rows are formed per call.  ``leftovers`` are the
    (run, (qubit,), (count,)) of the runs still pending at the end.
    Each run is (prefix, rest): the read-only product of its leading
    fixed gates (None if none) and the indices of the gates after them.
    """
    pending: dict[int, list] = {}  # qubit -> [prefix, rest, count]
    entanglers, krons, mixed, blocks = [], [], [], []
    for i, (kind, targets, *param) in enumerate(structure):
        if len(targets) == 1:
            run = pending.setdefault(targets[0], [None, [], 0])
            run[2] += DURATION_CLASS[kind] != "virtual"
            if kind in ("IDLE", "DETUNE"):
                continue
            if param and not run[1]:  # still in the fixed prefix
                u = _fixed_unitary(kind, *param)
                run[0] = u if run[0] is None else u @ run[0]
            else:
                run[1].append(i)
            continue
        runs = [pending.pop(q, [None, [], 0]) for q in targets]
        if any(rest for _, rest, _ in runs):
            mixed.append((len(entanglers), _frozen_runs(runs)))
        entanglers.append(i)
        krons.append(_kron2(runs[0][0], runs[1][0]))
        blocks.append((targets, tuple(k for _, _, k in runs)))
    leftovers = tuple((*_frozen_runs([run]), (q,), (run[2],))
                      for q, run in pending.items())
    return (tuple(entanglers), read_only(np.array(krons).reshape(-1, 4, 4)),
            tuple(mixed), tuple(blocks), leftovers)


def _frozen_runs(runs) -> tuple:
    return tuple((None if prefix is None else read_only(prefix), tuple(rest))
                 for prefix, rest, _ in runs)


@functools.cache
def block_layout(axes: tuple[int, ...], legs: int) -> tuple[tuple, tuple]:
    """(perm, inverse) for a block on ``axes`` of ``legs`` qubit axes plus
    a last batch axis: ``perm`` brings the block's axes to the front in
    order, keeping the batch axis last, and ``inverse`` undoes it."""
    perm = (*axes, *(i for i in range(legs + 1) if i not in axes))
    return perm, tuple(sorted(range(legs + 1), key=perm.__getitem__))


def run_blocks(t: np.ndarray, blocks) -> np.ndarray:
    """Apply :func:`block_layout` blocks (matrix, perm, inverse) in order
    to a tensor of qubit axes and a last batch axis: the one loop behind
    the unitary, the channel matrix and both simulator backends."""
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
