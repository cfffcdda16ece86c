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
configured per-gate depolarizing noise in the Pauli-transfer picture:
a channel S on rho.reshape(-1) becomes the real PTM R = B* S B^T / d,
B stacking the Pauli strings.  A Clifford gate under depolarizing noise
maps each Pauli string to one Pauli string times a factor, so every
generator's PTM is monomial: one nonzero per column, in the row its
noiseless PTM puts it.  Each run takes the noisy generator PTMs from
``circuit_channel`` (the one source of noise) and walks the generator
words of all drawn elements and recoveries at once, a gather and a
multiply per word position.  A sequence's map is the time-ordered
product of R_int R_e, formed pairwise and batched over the sequences
of one length; the recovery comes from the same pairwise product of
the ideal unitaries and one batched key lookup.  The only per-group
tables are the padded int8 generator words (about 160 KB for the
two-qubit group) and the generators' noiseless row maps, built on the
first RB use; no per-element channel is ever cached.  Sequence fidelity
is the ground-state return probability.  Decays are fitted to
A p^m + B and interleaved gate errors extracted with the ratio formula
r = (1 - p_int/p_ref)(d - 1)/d.
"""
from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import OptimizeWarning, curve_fit

from .circuits import Circuit, Gate, circuit_unitary
from .pauli import PAULI_LABELS, PauliString
from .simulator import (
    DensityState,
    NoiseModel,
    circuit_channel,
    ordered_product,
)

SINGLE_QUBIT_ORDER = 24
TWO_QUBIT_ORDER = 11520
KEY_DECIMALS = 8  # rounding of a phase-fixed unitary before hashing
_KEY_BLOCK = 64  # frontier rows per stacked product; bounds temporaries
MONOMIAL_TOL = 1e-12  # rounding a Clifford PTM may carry off its pattern


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
    """A read-only view of ``array``; its writeable flag cannot be set
    back, because its base is read-only too."""
    array.flags.writeable = False
    return array.view()


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

    @functools.cached_property
    def word_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """RB's noise-free tables, built on first use and read-only.

        ``words`` is the (elements, longest word) int8 table of generator
        indices, padded with ``len(generators)``, an identity generator;
        ``row_maps[g, b]`` is the row of column b's one nonzero in
        generator g's noiseless PTM, the identity's last.
        """
        pad = len(self.generators)
        words = np.full((len(self), max(len(e.word) for e in self.elements)),
                        pad, dtype=np.int8)
        for element in self.elements:
            words[element.index, :len(element.word)] = element.word
        ptms = _ptm(np.array([circuit_channel(g) for g in self.generators]))
        row_maps = np.argmax(np.abs(ptms), axis=-2)
        _monomial_weights(ptms, row_maps)  # raises unless each is Clifford
        row_maps = np.vstack([row_maps, np.arange(4 ** self.qubit_count)])
        return _read_only(words), _read_only(row_maps)


# keyed on the qubit count, however the caller spells two_qubit
_cached_group = functools.cache(CliffordGroup)


def clifford_group(two_qubit: bool = True) -> CliffordGroup:
    """The (cached) single- or two-qubit Clifford group."""
    return _cached_group(2 if two_qubit else 1)


@functools.cache
def _pauli_basis(qubit_count: int) -> np.ndarray:
    """(4^n, 4^n): row a is the row-major vec of the a-th Pauli string,
    strings in label order (I, X, Y, Z per factor)."""
    labels = itertools.product(PAULI_LABELS, repeat=qubit_count)
    return _read_only(np.array([PauliString(label).dense().reshape(-1)
                                for label in labels]))


def _ptm(channels: np.ndarray) -> np.ndarray:
    """Real Pauli transfer matrices R = B* S B^T / d of a (..., 4^n, 4^n)
    stack of channels S acting on rho.reshape(-1), as
    :func:`circuit_channel` returns them."""
    qubit_count = (channels.shape[-1].bit_length() - 1) // 2
    basis = _pauli_basis(qubit_count)
    return (basis.conj() @ channels @ basis.T).real / 2 ** qubit_count


def _monomial_weights(ptms: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The entry of each column b in row ``rows[..., b]`` of a stack of
    PTMs; ValueError if any column has weight in another row."""
    weights = np.take_along_axis(ptms, rows[..., None, :], axis=-2)[..., 0, :]
    off = np.abs(ptms).sum(axis=-2) - np.abs(weights)
    if np.max(off) > MONOMIAL_TOL:
        raise ValueError(f"PTM has weight {np.max(off):.3g} off its "
                         f"monomial pattern")
    return weights


def _rb_maps(group: CliffordGroup, interleaved: Circuit | None,
             noise: NoiseModel):
    """One run's noisy maps: the (generators + 1, 4^n) weights of each
    generator's monomial PTM (the identity pad's last, all ones), and the
    PTM and unitary of the interleaved circuit (the identity for None)."""
    size = 4 ** group.qubit_count
    ptm, u = np.eye(size), np.eye(2 ** group.qubit_count, dtype=complex)
    if interleaved is not None:
        if interleaved.qubit_count != group.qubit_count:
            raise ValueError("interleaved circuit has wrong qubit count")
        u = circuit_unitary(interleaved)
        if not group.contains_unitary(u):
            raise ValueError(
                "interleaved circuit is not a Clifford; unitary:\n"
                f"{np.round(u, 4)}"
            )
        ptm = _ptm(circuit_channel(interleaved, noise))
    ptms = _ptm(np.array([circuit_channel(g, noise)
                          for g in group.generators]))
    weights = _monomial_weights(ptms, group.word_tables[1][:-1])
    return np.vstack([weights, np.ones(size)]), (ptm, u)


def _walk_words(group: CliffordGroup, indices: np.ndarray,
                weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The monomial PTMs of group elements as (rows, scale), each of
    shape (len(indices), 4^n): column b's one nonzero is scale[b] in row
    rows[b].  All elements walk their generator words at once."""
    words, row_maps = group.word_tables
    size = row_maps.shape[1]
    flat_maps, flat_weights = row_maps.ravel(), weights.ravel()
    rows = np.broadcast_to(np.arange(size), (len(indices), size))
    scale = np.ones((len(indices), size))
    # one word position at a time: each element's generator offset
    for offset in words[indices].T.astype(np.intp)[:, :, None] * size:
        at = offset + rows
        scale = scale * flat_weights[at]
        rows = flat_maps[at]
    return rows, scale


def _after(first: np.ndarray, rows: np.ndarray,
           scale: np.ndarray) -> np.ndarray:
    """first @ R for every monomial PTM R given as (rows, scale) by
    :func:`_walk_words`: column b of the product is scale[b] times
    column rows[b] of ``first``."""
    return np.swapaxes(first.T[rows] * scale[..., None], -1, -2)


def _return_probabilities(group: CliffordGroup, draws: list[np.ndarray],
                          weights: np.ndarray, pair) -> list[np.ndarray]:
    """Ground-state return probability of every sequence plus recovery.

    ``draws`` holds one (k, m) array of element indices per sequence
    length, ``pair`` the interleaved (PTM, unitary); the result holds one
    (k,) array per entry of ``draws``.
    """
    ptm, u = pair
    n = group.qubit_count
    dim = 2 ** n
    drawn = np.concatenate([indices.ravel() for indices in draws])
    ideal = u @ np.array([group.elements[i].unitary for i in drawn.tolist()])
    bounds = np.cumsum([0] + [indices.size for indices in draws])
    totals = np.concatenate([
        ordered_product(ideal[lo:hi].reshape(indices.shape + (dim, dim)))
        for indices, lo, hi in zip(draws, bounds, bounds[1:])
    ])
    keys = _phase_fixed_keys(totals.conj().transpose(0, 2, 1))
    recovery = [group._lookup.get(key) for key in keys]
    if None in recovery:
        raise ClosureError("sequence product left the Clifford group")
    rows, scale = _walk_words(group, np.concatenate([drawn, recovery]),
                              weights)
    basis = _pauli_basis(n)
    start = basis[:, 0].real  # Pauli vector of |0..0><0..0|
    out = []
    last = len(drawn)  # the next recovery
    for indices, lo, hi in zip(draws, bounds, bounds[1:]):
        k = len(indices)
        seq = _after(ptm, rows[lo:hi], scale[lo:hi])
        before = ordered_product(seq.reshape(indices.shape + ptm.shape)
                                 ) @ start
        paulis = np.empty_like(before)  # the recovery's monomial PTM
        paulis[np.arange(k)[:, None], rows[last:last + k]] = \
            scale[last:last + k] * before
        rhos = (paulis @ basis / dim).reshape(k, dim, dim)
        out.append(np.array([DensityState(rho, n).probabilities()[0]
                             for rho in rhos]))
        last += k
    return out


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
    weights, pair = _rb_maps(group, interleaved, noise)
    ms = sorted(int(m) for m in m_values)
    if not ms or ms[0] < 1:
        raise ValueError("need one or more sequence lengths, each >= 1")
    if k_sequences < 1:
        raise ValueError("need at least one sequence per length")
    order = len(group)
    draws = [
        np.array([
            np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(mi, j))
            ).integers(order, size=m)
            for j in range(k_sequences)
        ])
        for mi, m in enumerate(ms)
    ]
    means, errs = [], []
    for vals in _return_probabilities(group, draws, weights, pair):
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
