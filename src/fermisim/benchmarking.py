"""Clifford-group machinery and interleaved randomized benchmarking.

The one- and two-qubit Clifford groups (orders 24 and 11520) are built
by breadth-first closure over generator unitaries, deduplicated with a
global-phase-fixed hash.  The closure runs a BFS level at a time: blocks
of frontier elements are multiplied by every generator in one stacked
matmul and keyed in one vectorised pass, and Python only numbers the
new keys, in (frontier element, generator) order.  Each element stores
its generator word, which doubles as a hardware gate decomposition (H
as a half-turn plus pi pulse, S as a virtual phase, CZ as the pi-phase
entangler), and a read-only view of its unitary into its level's
array; the group is cached per process and built on first use.  An
inverse is found by hashing the adjoint.

Benchmarking runs sequences of uniformly random Cliffords (optionally
interleaving a fixed circuit after each one), appends the recovery
Clifford inverting the whole sequence, and simulates under the
configured per-gate depolarizing noise.  Each run builds the 16x16 noisy
channel of every generator (and of the interleaved circuit) once; a
sequence is then mat-vecs on vec(|00><00|) along each Clifford's
generator word, and the unitary product only finds the recovery.  A
table of all 11520 element channels (about 47 MB, built at set-up) is
deliberately not kept.  Sequence fidelity is the ground-state return
probability.  Decays are fitted to A p^m + B and interleaved gate
errors extracted with the ratio formula r = (1 - p_int/p_ref)(d - 1)/d.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import OptimizeWarning, curve_fit

from .circuits import Circuit, Gate, circuit_unitary
from .simulator import DensityState, NoiseModel, circuit_channel

SINGLE_QUBIT_ORDER = 24
TWO_QUBIT_ORDER = 11520
KEY_DECIMALS = 8  # rounding of a phase-fixed unitary before hashing
_KEY_BLOCK = 64  # frontier rows per stacked product; bounds temporaries


class ClosureError(RuntimeError):
    """Raised when generator closure does not produce the expected group."""


class FitError(RuntimeError):
    """Raised when decay data cannot support a fit."""


def _hadamard_gates(q: int) -> tuple[Gate, ...]:
    return (Gate("RY", (q,), math.pi / 2), Gate("PI_X", (q,)))


def _phase_gates(q: int) -> tuple[Gate, ...]:
    return (Gate("VIRTUAL_Z", (q,), math.pi / 2),)


def _generators(n: int) -> list[Circuit]:
    gens = []
    for q in range(n):
        gens.append(Circuit(n, _hadamard_gates(q)))
        gens.append(Circuit(n, _phase_gates(q)))
    if n == 2:
        gens.append(Circuit(2, (Gate("CZPHI", (0, 1), math.pi),)))
    return gens


def _phase_fixed_keys(stack: np.ndarray) -> list[bytes]:
    """Hashable fingerprints of a (count, d, d) stack of unitaries, each
    modulo global phase, in stack order.

    The phase reference is the first entry (row-major) whose magnitude
    clears a fixed threshold; Clifford entries are either ~0 or at least
    1/4, so the choice is stable against accumulated rounding.  A real
    stack is keyed as complex, like the group's own unitaries.
    """
    flat = stack.reshape(len(stack), -1).astype(complex, copy=False)
    ref = flat[np.arange(len(flat)), np.argmax(np.abs(flat) > 0.1, axis=1)]
    fixed = flat * (np.abs(ref) / ref)[:, None]
    rounded = np.round(fixed, KEY_DECIMALS) + 0.0  # normalise -0.0
    rows = np.ascontiguousarray(rounded)
    row = np.dtype((np.void, rows.itemsize * rows.shape[1]))
    return rows.view(row)[:, 0].tolist()  # one bytes object per row


def phase_fixed_key(u: np.ndarray) -> bytes:
    """Fingerprint of one unitary modulo global phase: the closure's key."""
    return _phase_fixed_keys(np.asarray(u)[None])[0]


@dataclass(frozen=True, slots=True)
class CliffordElement:
    index: int
    word: tuple[int, ...]       # generator indices, applied in order
    unitary: np.ndarray         # read-only view into its BFS level's array


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class CliffordGroup:
    """Closure of the generator set with decomposition and lookup."""

    def __init__(self, qubit_count: int):
        if qubit_count not in (1, 2):
            raise ValueError("only 1- and 2-qubit groups are supported")
        self.qubit_count = qubit_count
        self.generators = _generators(qubit_count)
        gens = np.array([circuit_unitary(g) for g in self.generators])
        dim = 2 ** qubit_count
        level = _read_only(np.eye(dim, dtype=complex)[None])
        elements = [CliffordElement(0, (), level[0])]
        lookup = {phase_fixed_key(level[0]): 0}
        frontier = elements
        while frontier:
            fresh, parts = [], []  # (frontier row, generator); unitaries
            for start in range(0, len(level), _KEY_BLOCK):
                # products[f, g] = gens[g] @ level[start + f], numbered in
                # this (frontier element, generator) order
                products = gens[None] @ level[start:start + _KEY_BLOCK, None]
                products = products.reshape(-1, dim, dim)
                kept = []
                for pos, key in enumerate(_phase_fixed_keys(products)):
                    if key not in lookup:
                        lookup[key] = len(elements) + len(fresh)
                        fresh.append((start + pos // len(gens),
                                      pos % len(gens)))
                        kept.append(pos)
                parts.append(products[kept])
            level = _read_only(np.concatenate(parts))
            frontier = [
                CliffordElement(len(elements) + j,
                                frontier[f].word + (g,), level[j])
                for j, (f, g) in enumerate(fresh)
            ]
            elements.extend(frontier)
        expected = SINGLE_QUBIT_ORDER if qubit_count == 1 else TWO_QUBIT_ORDER
        if len(elements) != expected:
            raise ClosureError(
                f"closure produced {len(elements)} elements, "
                f"expected {expected}"
            )
        self.elements = elements
        self._lookup = lookup

    def __len__(self) -> int:
        return len(self.elements)

    def index_of(self, u: np.ndarray) -> int | None:
        return self._lookup.get(phase_fixed_key(u))

    def decomposition(self, index: int) -> Circuit:
        gates: list[Gate] = []
        for gi in self.elements[index].word:
            gates.extend(self.generators[gi].gates)
        return Circuit(self.qubit_count, tuple(gates))

    def contains_unitary(self, u: np.ndarray) -> bool:
        return self.index_of(u) is not None


# keyed on the qubit count, however the caller spells two_qubit
_cached_group = functools.cache(CliffordGroup)


def clifford_group(two_qubit: bool = True) -> CliffordGroup:
    """The (cached) single- or two-qubit Clifford group."""
    return _cached_group(2 if two_qubit else 1)


def _rb_channels(group: CliffordGroup, interleaved: Circuit | None,
                 noise: NoiseModel):
    """Generator channels, and None or the interleaved (channel, unitary)."""
    pair = None
    if interleaved is not None:
        if interleaved.qubit_count != group.qubit_count:
            raise ValueError("interleaved circuit has wrong qubit count")
        u = circuit_unitary(interleaved)
        if not group.contains_unitary(u):
            raise ValueError(
                "interleaved circuit is not a Clifford; unitary:\n"
                f"{np.round(u, 4)}"
            )
        pair = (circuit_channel(interleaved, noise), u)
    generators = [circuit_channel(g, noise) for g in group.generators]
    return generators, pair


def _sequence_return_probability(group, indices, generators, interleaved):
    """Ground-state return probability of one sequence plus recovery."""
    n = group.qubit_count
    dim = 2 ** n
    vec = np.zeros(dim * dim, dtype=complex)
    vec[0] = 1.0
    total = np.eye(dim, dtype=complex)
    for idx in indices:
        element = group.elements[idx]
        for gi in element.word:
            vec = generators[gi] @ vec
        total = element.unitary @ total
        if interleaved is not None:
            channel, u = interleaved
            vec = channel @ vec
            total = u @ total
    recovery = group.index_of(total.conj().T)
    if recovery is None:
        raise ClosureError("sequence product left the Clifford group")
    for gi in group.elements[recovery].word:
        vec = generators[gi] @ vec
    out = DensityState(vec.reshape(dim, dim), n)
    return float(out.probabilities()[0])


def rb_run(m_values, k_sequences: int, interleaved: Circuit | None,
           noise: NoiseModel, seed: int, group: CliffordGroup | None = None,
           tag: str | None = None) -> dict:
    """Mean sequence fidelity per Clifford count.

    Returns {"m": [...], "mean": [...], "stderr": [...], "tag": str}.
    Each (m, sequence) pair draws from an independent child seed, so
    aggregation order cannot change the result.
    """
    if group is None:
        group = clifford_group(two_qubit=True)
    generators, pair = _rb_channels(group, interleaved, noise)
    ms = sorted(int(m) for m in m_values)
    if any(m < 1 for m in ms):
        raise ValueError("sequence lengths must be >= 1")
    means, errs = [], []
    order = len(group)
    for mi, m in enumerate(ms):
        vals = []
        for j in range(k_sequences):
            rng = np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(mi, j))
            )
            indices = rng.integers(order, size=m)
            vals.append(_sequence_return_probability(
                group, indices, generators, pair))
        vals = np.array(vals)
        means.append(float(vals.mean()))
        errs.append(float(vals.std(ddof=1) / math.sqrt(len(vals)))
                    if len(vals) > 1 else 0.0)
    return {
        "m": ms,
        "mean": means,
        "stderr": errs,
        "tag": tag or ("interleaved" if interleaved is not None else "ref"),
    }


@dataclass(frozen=True)
class DecayFit:
    """A p^m + B fit of sequence fidelity versus Clifford count."""

    A: float
    B: float
    p: float
    residual_rms: float
    covariance: np.ndarray

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"decay parameter {self.p} outside (0, 1]")
        if not all(map(math.isfinite, (self.A, self.B, self.residual_rms))):
            raise ValueError("decay fit has a non-finite A, B or residual")


def fit_decay(table: dict) -> DecayFit:
    """Bounded least-squares fit of the RB decay."""
    ms = np.asarray(table["m"], dtype=float)
    ys = np.asarray(table["mean"], dtype=float)
    if len(set(ms.tolist())) < 3:
        raise FitError("need at least 3 distinct sequence lengths")
    if not np.all(np.isfinite(ys)):
        raise FitError("non-finite sequence fidelities")

    def model(m, a, b, p):
        return a * p ** m + b

    spread = ys.max() - ys.min()
    if spread < 1e-12:
        # flat data: no decay, level entirely in the offset
        return DecayFit(0.0, float(ys[0]), 1.0, 0.0, np.zeros((3, 3)))
    p0 = (max(spread, 0.1), float(np.clip(ys.min(), 0.0, 1.0)), 0.98)
    try:
        with warnings.catch_warnings():
            # three points fit three parameters exactly; covariance is
            # meaningless there and only kept as a diagnostic
            warnings.simplefilter("ignore", OptimizeWarning)
            params, cov = curve_fit(
                model, ms, ys, p0=p0,
                bounds=([0.0, 0.0, 1e-6], [1.0, 1.0, 1.0]), maxfev=20000,
            )
    except RuntimeError as exc:
        raise FitError(f"decay fit did not converge: {exc}") from exc
    a, b, p = (float(v) for v in params)
    resid = ys - model(ms, *params)
    return DecayFit(a, b, p, float(np.sqrt(np.mean(resid ** 2))), cov)


def extract_interleaved_error(ref: DecayFit, interleaved: DecayFit,
                              dimension: int = 4) -> float:
    """Average error of the interleaved gate from the decay ratio."""
    if ref.p <= 0.0:
        raise ValueError("reference decay parameter must be positive")
    ratio = interleaved.p / ref.p
    return (1.0 - ratio) * (dimension - 1) / dimension
