"""Clifford-group machinery and interleaved randomized benchmarking.

Channels are real Pauli transfer matrices (PTMs), the package's one
convention (:mod:`fermisim.simulator`).  A Clifford modulo global phase
is exactly its PTM, a signed permutation, so each element's
one identity is its int8 code, ``code[b] = sign * (row + 1)`` for the
one nonzero of column b.  Codes compose by a gather and invert by a
scatter, exactly, and their bytes key the dict that numbers the
elements.  A unitary is an element only if its PTM is monomial with
weights +-1 to within ``MONOMIAL_TOL``.

The one- and two-qubit groups (orders 24 and 11520) come from a
breadth-first closure over the generators' codes, one gather per level,
numbered in (frontier element, generator) order.  Each element keeps its
generator word, a hardware gate decomposition (H as a half-turn plus a
pi pulse, S as a virtual phase, CZ as the pi-phase entangler).  Groups
are cached per process and built on first use.

RB runs sequences of uniformly random Cliffords (optionally each
followed by a fixed interleaved circuit) and the recovery inverting the
whole sequence, under per-gate depolarizing noise, under which a
Clifford's PTM keeps its pattern and scales its weights.  ``rb_runs``
runs several runs that share the lengths and the noise model in one
pass (``rb_run`` is its one-run case): it takes the noisy generator PTMs
from ``circuit_channel`` (the one source of noise) once, walks the word
of each distinct element among all runs' draws and recoveries once, and
forms all recoveries from one pairwise product of codes.  Each
sequence's map, the time-ordered product of R_int R_e, is formed
pairwise one (length, run) block at a time, so each run's table is
bit-identical to that run alone.  Sequence fidelity is the ground-state
return probability; decays are fitted to A p^m + B by bounded least
squares given the model's closed-form Jacobian, and interleaved errors
taken from r = (1 - p_int/p_ref)(d - 1)/d.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import OptimizeWarning, curve_fit

from .circuits import Circuit, Gate, circuit_unitary
from .pauli import pauli_basis, read_only
from .simulator import (
    NoiseModel,
    check_densities,
    circuit_channel,
    density_matrices,
    ordered_product,
    unitary_ptms,
)

SINGLE_QUBIT_ORDER = 24
TWO_QUBIT_ORDER = 11520
MONOMIAL_TOL = 1e-12  # rounding a Clifford PTM may carry off its pattern


class ClosureError(RuntimeError):
    """Raised when generator closure does not produce the expected group."""


class FitError(RuntimeError):
    """Raised when decay data cannot support a fit."""


def _generators(n: int) -> list[Circuit]:
    """H then S on each qubit, then CZ."""
    gens = []
    for q in range(n):
        gens.append(Circuit(n, (Gate("RY", (q,), math.pi / 2),
                                Gate("PI_X", (q,)))))
        gens.append(Circuit(n, (Gate("VIRTUAL_Z", (q,), math.pi / 2),)))
    if n == 2:
        gens.append(Circuit(2, (Gate("CZPHI", (0, 1), math.pi),)))
    return gens


def _monomial_weights(ptms: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The entry of each column b in row ``rows[..., b]`` of a stack of
    PTMs; ValueError if any column has weight in another row."""
    weights = np.take_along_axis(ptms, rows[..., None, :], axis=-2)[..., 0, :]
    off = np.max(np.abs(ptms).sum(axis=-2) - np.abs(weights))
    if not off <= MONOMIAL_TOL:
        raise ValueError(f"PTM has weight {off:.3g} off its monomial pattern")
    return weights


def _codes(ptms: np.ndarray) -> np.ndarray:
    """The codes of a stack of noiseless Clifford PTMs; ValueError
    unless every PTM is monomial with weights +-1."""
    rows = np.argmax(np.abs(ptms), axis=-2)
    weights = _monomial_weights(ptms, rows)
    off = np.max(np.abs(np.abs(weights) - 1.0))
    if not off <= MONOMIAL_TOL:
        raise ValueError(f"PTM weight is {off:.3g} off +-1")
    return (np.sign(weights) * (rows + 1)).astype(np.int8)


def _compose(later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """The codes of ``earlier`` followed by ``later``, the PTM products
    R_later @ R_earlier, broadcast over leading axes: one flat gather."""
    later, earlier = np.broadcast_arrays(later, earlier)
    size = later.shape[-1]
    offsets = np.arange(0, later.size, size).reshape(earlier.shape[:-1] + (1,))
    return later.reshape(-1)[np.abs(earlier) - 1 + offsets] * np.sign(earlier)


def _inverse(codes: np.ndarray) -> np.ndarray:
    """The inverse of each signed permutation in a (count, 4^n) stack."""
    inverse = np.empty_like(codes)
    columns = np.arange(1, codes.shape[-1] + 1, dtype=np.int8)
    np.put_along_axis(inverse, np.abs(codes) - 1, np.sign(codes) * columns,
                      axis=-1)
    return inverse


def _keys(codes: np.ndarray) -> list[bytes]:
    """Each code's bytes, the group's exact dict key, in stack order."""
    rows = np.ascontiguousarray(codes, dtype=np.int8)
    return rows.view(np.dtype((np.void, rows.shape[-1])))[:, 0].tolist()


@dataclass(frozen=True, slots=True)
class CliffordElement:
    index: int
    word: tuple[int, ...]       # generator indices, applied in order


class CliffordGroup:
    """Closure of the generator set with decomposition and lookup;
    ``codes[i]`` is element i's code (read-only)."""

    def __init__(self, qubit_count: int):
        if qubit_count not in (1, 2):
            raise ValueError("only 1- and 2-qubit groups are supported")
        self.qubit_count = qubit_count
        self.generators = _generators(qubit_count)
        gens = _codes(np.array([circuit_channel(g)
                                for g in self.generators]))
        level = np.arange(1, 4 ** qubit_count + 1, dtype=np.int8)[None]
        words, lookup, parts = [()], {level[0].tobytes(): 0}, [level]
        while len(level):
            first = len(words) - len(level)  # the index of level[0]
            # products[f, g] is generator g after level[f], numbered in
            # this (frontier element, generator) order
            products = _compose(gens, level[:, None]).reshape(
                -1, level.shape[1])
            fresh = []
            for pos, key in enumerate(_keys(products)):
                if key not in lookup:
                    lookup[key] = len(words)
                    f, g = divmod(pos, len(gens))
                    words.append(words[first + f] + (g,))
                    fresh.append(pos)
            level = products[fresh]
            parts.append(level)
        expected = SINGLE_QUBIT_ORDER if qubit_count == 1 else TWO_QUBIT_ORDER
        if len(words) != expected:
            raise ClosureError(
                f"closure produced {len(words)} elements, "
                f"expected {expected}"
            )
        self.elements = [CliffordElement(i, w) for i, w in enumerate(words)]
        self.codes = read_only(np.concatenate(parts))
        self.generator_codes = read_only(gens)
        self._lookup = lookup

    def __len__(self) -> int:
        return len(self.elements)

    def index_of(self, u: np.ndarray) -> int | None:
        """The index of the element equal to ``u`` up to global phase, or
        None if ``u`` is no Clifford on this group's qubits."""
        u = np.asarray(u)
        if u.shape != (2 ** self.qubit_count,) * 2:
            return None
        try:
            code = _codes(unitary_ptms(u[None])[0])
        except ValueError:
            return None
        return self._lookup.get(code.tobytes())

    def decomposition(self, index: int) -> Circuit:
        if not 0 <= index < len(self):
            raise ValueError(f"element index {index} outside "
                             f"[0, {len(self)})")
        gates: list[Gate] = []
        for gi in self.elements[index].word:
            gates.extend(self.generators[gi].gates)
        return Circuit(self.qubit_count, tuple(gates))

    def contains_unitary(self, u: np.ndarray) -> bool:
        return self.index_of(u) is not None

    @functools.cached_property
    def word_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """RB's noise-free tables, built on first use and read-only: the
        (elements, longest word) int8 table of generator indices, padded
        with ``len(generators)``, an identity generator; and ``row_maps``,
        the rows of each generator's code, the identity's last."""
        pad = len(self.generators)
        words = np.full((len(self), max(len(e.word) for e in self.elements)),
                        pad, dtype=np.int8)
        for element in self.elements:
            words[element.index, :len(element.word)] = element.word
        row_maps = np.abs(np.vstack([self.generator_codes, self.codes[0]]))
        row_maps = row_maps.astype(np.intp) - 1
        return read_only(words), read_only(row_maps)


# keyed on the qubit count, however the caller spells two_qubit
_cached_group = functools.cache(CliffordGroup)


def clifford_group(two_qubit: bool = True) -> CliffordGroup:
    """The (cached) single- or two-qubit Clifford group."""
    return _cached_group(2 if two_qubit else 1)


def _generator_weights(group: CliffordGroup,
                       noise: NoiseModel | None) -> np.ndarray:
    """The (generators + 1, 4^n) weights of each generator's noisy
    monomial PTM, the identity pad's last (all ones)."""
    ptms = np.array([circuit_channel(g, noise) for g in group.generators])
    weights = _monomial_weights(ptms, group.word_tables[1][:-1])
    return np.vstack([weights, np.ones(ptms.shape[-1])])


def _interleaved_map(group: CliffordGroup, interleaved: Circuit | None,
                     noise: NoiseModel | None):
    """The interleaved circuit's noisy PTM and code (identities for None)."""
    if interleaved is None:
        return np.eye(4 ** group.qubit_count), group.codes[0]
    if interleaved.qubit_count != group.qubit_count:
        raise ValueError("interleaved circuit has wrong qubit count")
    u = circuit_unitary(interleaved)
    index = group.index_of(u)
    if index is None:
        raise ValueError("interleaved circuit is not a Clifford; "
                         f"unitary:\n{np.round(u, 4)}")
    return circuit_channel(interleaved, noise), group.codes[index]


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
    columns = first.T[rows]
    columns *= scale[..., None]
    return np.swapaxes(columns, -1, -2)


def _return_probabilities(group: CliffordGroup, draws, weights: np.ndarray,
                          pairs) -> list[list[np.ndarray]]:
    """Ground-state return probability of every sequence plus recovery.

    ``draws`` holds per run one (k, m) array of element indices per
    sequence length, ``pairs`` per run the interleaved circuit's noisy
    PTM and code; the result holds per run one (k,) array per length.
    """
    n = group.qubit_count
    blocks = [indices for run in draws for indices in run]
    drawn = np.concatenate([indices.ravel() for indices in blocks])
    counts = [len(indices) for indices in blocks]
    # the ideal totals of all runs and lengths in one batch: each drawn
    # element then its run's interleaved circuit, shorter rows padded
    # with the identity
    lengths = np.repeat([indices.shape[1] for indices in blocks], counts)
    codes = np.repeat([code for (_, code), run in zip(pairs, draws)
                       for _ in run], counts, axis=0)
    drawn_at = np.arange(lengths.max()) < lengths[:, None]
    steps = np.tile(group.codes[0], drawn_at.shape + (1,))
    steps[drawn_at] = _compose(np.repeat(codes, lengths, axis=0),
                               group.codes[drawn])  # row-major, as drawn
    totals = ordered_product(steps, _compose)
    # the group is closed, so every recovery is an element
    recovery = [group._lookup[key] for key in _keys(_inverse(totals))]
    # walk each distinct element once; draws repeat, and at the default
    # k = 50 more than half of all walked indices are repeats
    walked, at = np.unique(np.concatenate([drawn, recovery]),
                           return_inverse=True)
    rows, scale = _walk_words(group, walked, weights)
    rows, scale = rows[at], scale[at]
    start = pauli_basis(n)[:, 0, 0].real  # Pauli vector of |0..0><0..0|
    before, lo = [], 0
    for (ptm, _), run in zip(pairs, draws):
        hi = lo + sum(indices.size for indices in run)
        seqs, lo = _after(ptm, rows[lo:hi], scale[lo:hi]), hi
        # one (length, run) block at a time: a product's batch size, and
        # so its rounding, is the block's
        for indices in run:
            seq, seqs = seqs[:indices.size], seqs[indices.size:]
            before.append(ordered_product(
                seq.reshape(indices.shape + ptm.shape)) @ start)
    before = np.concatenate(before)
    paulis = np.empty_like(before)  # after each recovery's monomial PTM
    paulis[np.arange(len(before))[:, None], rows[lo:]] = scale[lo:] * before
    bounds = np.cumsum(counts)[:-1]
    rhos = np.concatenate([density_matrices(block, n)
                           for block in np.split(paulis, bounds)])
    check_densities(rhos)
    out = iter(np.split(np.clip(rhos[:, 0, 0].real, 0.0, None), bounds))
    return [[next(out) for _ in run] for run in draws]


def rb_runs(m_values, k_sequences: int, runs, noise: NoiseModel | None,
            group: CliffordGroup | None = None) -> list[dict]:
    """Mean sequence fidelity per Clifford count of several runs that
    share the lengths, the sequence count and the noise model.

    ``runs`` holds one (interleaved circuit or None, seed, tag or None)
    per run; the result holds one table per run,
    {"m": [...], "mean": [...], "stderr": [...], "tag": str}.  Each
    (m, sequence) pair of a run draws from an independent child of the
    run's seed, so neither aggregation order nor the other runs can
    change a table.  The generator channels are built once for all runs.
    """
    ms = sorted(int(m) for m in m_values)
    if not ms or ms[0] < 1:
        raise ValueError("need one or more sequence lengths, each >= 1")
    if k_sequences < 1:
        raise ValueError("need at least one sequence per length")
    if not runs:
        raise ValueError("need one or more runs")
    if group is None:
        group = clifford_group(two_qubit=True)
    pairs = [_interleaved_map(group, interleaved, noise)
             for interleaved, _, _ in runs]
    order = len(group)
    draws = [[
        np.array([
            np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(mi, j))
            ).integers(order, size=m)
            for j in range(k_sequences)
        ])
        for mi, m in enumerate(ms)
    ] for _, seed, _ in runs]
    values = _return_probabilities(group, draws,
                                   _generator_weights(group, noise), pairs)
    return [{
        "m": list(ms),
        "mean": [float(v.mean()) for v in block],
        "stderr": [float(v.std(ddof=1) / math.sqrt(len(v)))
                   if len(v) > 1 else 0.0 for v in block],
        "tag": tag or ("ref" if interleaved is None else "interleaved"),
    } for (interleaved, _, tag), block in zip(runs, values)]


def rb_run(m_values, k_sequences: int, interleaved: Circuit | None,
           noise: NoiseModel, seed: int, group: CliffordGroup | None = None,
           tag: str | None = None) -> dict:
    """One run's table: :func:`rb_runs` of ``(interleaved, seed, tag)``."""
    return rb_runs(m_values, k_sequences, [(interleaved, seed, tag)], noise,
                   group)[0]


@dataclass(frozen=True)
class DecayFit:
    """A p^m + B fit of sequence fidelity versus Clifford count."""

    A: float
    B: float
    p: float
    residual_rms: float
    # a diagnostic: fits compare and hash by A, B, p and residual_rms
    covariance: np.ndarray = field(compare=False)

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"decay parameter {self.p} outside (0, 1]")
        if not all(map(math.isfinite, (self.A, self.B, self.residual_rms))):
            raise ValueError("decay fit has a non-finite A, B or residual")


def _decay(m: np.ndarray, a: float, b: float, p: float) -> np.ndarray:
    """The RB decay model A p^m + B at each length m."""
    return a * p ** m + b


def _decay_jacobian(m: np.ndarray, a: float, b: float,
                    p: float) -> np.ndarray:
    """The (len(m), 3) Jacobian of :func:`_decay` in (A, B, p): columns
    p^m, 1 and A m p^(m - 1)."""
    jac = np.empty((len(m), 3))
    jac[:, 0] = p ** m
    jac[:, 1] = 1.0
    jac[:, 2] = a * m * p ** (m - 1)
    return jac


def fit_decay(table: dict) -> DecayFit:
    """Bounded least-squares fit of the RB decay: ``curve_fit``'s TRF
    solver on the box A, B in [0, 1], p in [1e-6, 1], with the model's
    closed-form Jacobian (:func:`_decay_jacobian`) in place of finite
    differences."""
    ms = np.asarray(table["m"], dtype=float)
    ys = np.asarray(table["mean"], dtype=float)
    if len(set(ms.tolist())) < 3:
        raise FitError("need at least 3 distinct sequence lengths")
    if not np.all(np.isfinite(ys)):
        raise FitError("non-finite sequence fidelities")

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
                _decay, ms, ys, p0=p0, jac=_decay_jacobian,
                bounds=([0.0, 0.0, 1e-6], [1.0, 1.0, 1.0]), maxfev=20000,
            )
    except RuntimeError as exc:
        raise FitError(f"decay fit did not converge: {exc}") from exc
    a, b, p = (float(v) for v in params)
    resid = ys - _decay(ms, *params)
    return DecayFit(a, b, p, float(np.sqrt(np.mean(resid ** 2))), cov)


def extract_interleaved_error(ref: DecayFit, interleaved: DecayFit,
                              dimension: int = 4) -> float:
    """Average error of the interleaved gate from the decay ratio."""
    if ref.p <= 0.0:
        raise ValueError("reference decay parameter must be positive")
    ratio = interleaved.p / ref.p
    return (1.0 - ratio) * (dimension - 1) / dimension
