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
return probability.  Decays are fitted to A p^m + B on the box A, B in
[0, 1], p in [1e-6, 1] by variable projection: (A, B) in closed form
for each p, then the profile cost minimised over p in plain floats to a
certificate, a sign change of its derivative between adjacent floats
or at a bound; a fit without one raises FitError.  No scipy is needed,
and a fit takes about a quarter of a millisecond.  Interleaved errors
are taken from r = (1 - p_int/p_ref)(d - 1)/d.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

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


_P_MIN = 1e-6
# the basin search's p nodes, ascending from _P_MIN to 1: log-spaced in
# the decay rate -ln p, eight to a decade, so they crowd towards p = 1
_P_GRID = read_only(np.concatenate((
    [_P_MIN], np.exp(-np.geomspace(-math.log(_P_MIN), 2.0 ** -30, 82)[1:]),
    [1.0])))
_LOG_P_GRID = read_only(np.log(_P_GRID))
# steps of one refinement: the referenced benchmark tables take at most
# 10 profile evaluations, random tables up to 96
_MAX_ITERATIONS = 200
_TINY = np.finfo(float).tiny  # keeps an underflowed sum p^2m off zero


def _grid_profile(ms: np.ndarray, ys: np.ndarray):
    """The profile cost g(p) = min over A, B in [0, 1] of sum (y - A p^m -
    B)^2 at each p of ``_P_GRID``, with the minimising A and B and the
    envelope derivative g'(p) = -2 A sum r m p^(m - 1): four arrays.

    The inner problem is a convex quadratic in (A, B): its optimum is
    the unconstrained least-squares fit when that lies in the box, and
    otherwise the best of the optima on the four edges B = 0, A = 0,
    A = 1 and B = 1.  The unconstrained fit is centred on u = 1 - p^m,
    formed by ``expm1``, so it keeps its precision as p nears 1.  At
    p = 1 the model is the constant A + B and the pair is not
    identified: that node holds the best level in [0, 2] as B, with
    A = 0 and g' = 0, like any fit without decay."""
    n = len(ys)
    ybar = ys.mean()
    dy = ys - ybar
    mlp = _LOG_P_GRID[:, None] * ms
    x = np.exp(mlp)
    du = -np.expm1(mlp)
    ubar = du.sum(1) / n
    du -= ubar[:, None]
    sx, sxd = x.sum(1), x @ dy
    sxx = np.maximum(np.einsum("ij,ij->i", x, x), _TINY)
    # candidates (A, B), shape (len(_P_GRID), 5): the unconstrained
    # fit, then the edges, whose free coordinate is clipped to [0, 1]
    cand_a = np.zeros((len(x), 5))
    cand_b = np.zeros((len(x), 5))
    with np.errstate(divide="ignore", invalid="ignore"):
        a = cand_a[:, 0] = -(du @ dy) / np.einsum("ij,ij->i", du, du)
    b = cand_b[:, 0] = ybar - a * (1.0 - ubar)
    cand_a[:, 1] = (sxd + ybar * sx) / sxx
    cand_b[:, 2] = ybar
    cand_a[:, 3] = 1.0
    cand_b[:, 3] = ybar - sx / n
    cand_a[:, 4] = (sxd + (ybar - 1.0) * sx) / sxx
    cand_b[:, 4] = 1.0
    for cand in (cand_a[:, 1:], cand_b[:, 1:]):
        np.minimum(np.maximum(cand, 0.0, out=cand), 1.0, out=cand)
    # sum (dy - A x - e)^2 with e = B - ybar, as sums over the data
    e = cand_b - ybar
    cost = (dy @ dy + cand_a * (cand_a * sxx[:, None] - 2.0 * sxd[:, None]
                                + 2.0 * e * sx[:, None]) + n * e * e)
    # a NaN (no unconstrained fit at p = 1) fails these tests too
    cost[:, 0] = np.where((a >= 0) & (a <= 1) & (b >= 0) & (b <= 1),
                          cost[:, 0], np.inf)
    pick = cost.argmin(1)
    rows = np.arange(len(x))
    a, b = cand_a[rows, pick], cand_b[rows, pick]
    resid = ys - a[:, None] * x - b[:, None]
    cost, slope = cost[rows, pick], -2.0 * a / _P_GRID * ((resid * x) @ ms)
    level = min(max(ybar, 0.0), 2.0)
    cost[-1], a[-1], b[-1], slope[-1] = (dy @ dy + n * (ybar - level) ** 2,
                                         0.0, level, 0.0)
    return cost, a, b, slope


def _profile_at(ms: list, ys: list, ybar: float, p: float) -> tuple:
    """:func:`_grid_profile` at one p < 1 in plain Python floats, given the
    data's mean ``ybar``: (g, A, B, g')."""
    dy = [y - ybar for y in ys]
    lp = math.log(p)
    x = [math.exp(m * lp) for m in ms]
    du = [-math.expm1(m * lp) for m in ms]
    ubar = sum(du) / len(du)
    du = [v - ubar for v in du]
    suu = sum(d * d for d in du)
    a = b = math.nan
    if suu > 0.0:
        a = -sum(d * e for d, e in zip(du, dy)) / suu
        b = ybar - a * (1.0 - ubar)
    if 0.0 <= a <= 1.0 and 0.0 <= b <= 1.0:
        r = [e + a * d for e, d in zip(dy, du)]
        cost = sum(v * v for v in r)
    else:
        sx = sum(x)
        sxx = max(sum(v * v for v in x), _TINY)
        sxy = sum(v * y for v, y in zip(x, ys))
        cost = math.inf
        for ea, eb in ((sxy / sxx, 0.0), (0.0, ybar),
                       (1.0, ybar - sx / len(x)), ((sxy - sx) / sxx, 1.0)):
            ea, eb = min(max(ea, 0.0), 1.0), min(max(eb, 0.0), 1.0)
            er = [y - ea * v - eb for v, y in zip(x, ys)]
            ec = sum(v * v for v in er)
            if ec < cost:
                cost, a, b, r = ec, ea, eb, er
    return cost, a, b, -2.0 * a / p * sum(
        v * m * w for v, m, w in zip(r, ms, x))


def _refine(ms: list, ys: list, lo: float, lo_eval: tuple, hi: float,
            hi_eval: tuple) -> tuple[float, tuple]:
    """Brent's root search for g' on [lo, hi], given :func:`_profile_at`
    there, until g' vanishes or changes sign across adjacent floats: (p,
    its :func:`_profile_at` tuple).  Raises FitError at
    ``_MAX_ITERATIONS``.

    Where A = 0 the profile sits on its maximum, the constant fit, whose
    g' = 0 says nothing.  Such a point counts as -inf if ``lo`` is one
    and as +inf otherwise; either way the sign change it closes brackets
    a minimum with A > 0, and the search bisects past it.  The caller
    gives g' < 0 (or A = 0) at ``lo`` and g' >= 0 (or A = 0) at ``hi``,
    not A = 0 at both."""
    ybar = sum(ys) / len(ys)
    plateau = -math.inf if lo_eval[1] == 0.0 else math.inf

    def point(p, ev):
        return p, (ev[3] if ev[1] != 0.0 else plateau), ev

    # b is the best point so far, c the point across the sign change
    # from it, a the previous b
    a = c = point(lo, lo_eval)
    b = point(hi, hi_eval)
    d = e = hi - lo
    for _ in range(_MAX_ITERATIONS):
        if (b[1] > 0.0) == (c[1] > 0.0):
            c = a
            d = e = b[0] - a[0]
        if abs(c[1]) < abs(b[1]):
            a, b, c = b, c, b
        (pa, fa, _), (pb, fb, _), (pc, fc, _) = a, b, c
        tol = math.ulp(pb)
        half = 0.5 * (pc - pb)
        if fb == 0.0 or abs(pc - pb) <= tol:
            return pb, b[2]
        if abs(e) >= tol and abs(fa) > abs(fb) and math.isfinite(fa + fc):
            # inverse quadratic interpolation, or the secant when a = c
            s = fb / fa
            if pa == pc:
                num, den = 2.0 * half * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                num = s * (2.0 * half * q * (q - r) - (pb - pa) * (r - 1.0))
                den = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if num > 0.0:
                den = -den
            num = abs(num)
            if 2.0 * num < min(3.0 * half * den - abs(tol * den),
                               abs(e * den)):
                e, d = d, num / den
            else:
                d = e = half
        else:
            d = e = half
        a = b
        pb += d if abs(d) > tol else math.copysign(tol, half)
        b = point(pb, _profile_at(ms, ys, ybar, pb))
    raise FitError(f"decay fit not certified after {_MAX_ITERATIONS} "
                   f"steps: g' = {b[1]:.3g} at p = {b[0]!r}, bracket "
                   f"[{min(b[0], c[0])!r}, {max(b[0], c[0])!r}]")


def fit_decay(table: dict) -> DecayFit:
    """Bounded least-squares fit of the RB decay A p^m + B on the box A,
    B in [0, 1], p in [1e-6, 1], by variable projection (Golub & Pereyra,
    Inverse Problems 19, R1 (2003)).  For fixed p the best (A, B) has a
    closed form, which leaves the profile cost g(p), a 1-D problem
    (:func:`_grid_profile`).  One vectorised pass over ``_P_GRID`` finds
    the basins; Brent's search (:func:`_refine`), in plain floats, then
    brackets each root of g' between adjacent floats, and the least cost
    among these and the bounds of p wins.  That bracket, or a bound where
    g' points out of the box, is the fit's certificate: a search that
    reaches neither within ``_MAX_ITERATIONS`` raises FitError.  Where
    A = 0 or p = 1 the model is the constant A + B, reported at p = 1
    with A = 0 unless the level exceeds 1.  The covariance is
    s^2 (J^T J)^-1 at the optimum, s^2 = cost / (n - 3), J from
    :func:`_decay_jacobian`; it is inf for three points, and where A = 0
    or J^T J is singular."""
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
    cost, a, b, slope = _grid_profile(ms, ys)
    grid = list(zip(cost.tolist(), a.tolist(), b.tolist(), slope.tolist()))
    # candidates (g, p, A, B), larger p first so that it wins ties: the
    # constant model at p = 1, each grid cell across which g' turns from
    # negative to non-negative (a point with A = 0 counting as either,
    # see _refine) refined to its minimum, and p = _P_MIN if g' >= 0
    flat = a == 0.0
    down, up = (slope < 0) & ~flat, (slope >= 0) & ~flat
    cells = np.flatnonzero(down[:-1] & (up[1:] | flat[1:])
                           | flat[:-1] & up[1:])
    fits = [(grid[-1][0], 1.0, grid[-1][1], grid[-1][2])]
    ms_list, ys_list = ms.tolist(), ys.tolist()
    for j in cells[::-1].tolist():
        p, (g, fa, fb, _) = _refine(ms_list, ys_list, float(_P_GRID[j]),
                                    grid[j], float(_P_GRID[j + 1]),
                                    grid[j + 1])
        fits.append((g, p, fa, fb))
    if slope[0] >= 0:
        fits.append((grid[0][0], _P_MIN, grid[0][1], grid[0][2]))
    _, p, a, b = min(fits, key=lambda fit: fit[0])
    if p == 1.0 or a == 0.0:
        # the constant model A + B: its level in B, as far as B reaches
        level = a + b
        p, b = 1.0, min(level, 1.0)
        a = level - b
    resid = ys - _decay(ms, a, b, p)
    cov = np.full((3, 3), np.inf)
    if len(ys) > 3 and a > 0.0:
        jac = _decay_jacobian(ms, a, b, p)
        try:
            cov = np.linalg.inv(jac.T @ jac) * (float(resid @ resid)
                                                / (len(ys) - 3))
        except np.linalg.LinAlgError:
            pass
    return DecayFit(a, b, p, float(np.sqrt(np.mean(resid ** 2))), cov)


def extract_interleaved_error(ref: DecayFit, interleaved: DecayFit,
                              dimension: int = 4) -> float:
    """Average error of the interleaved gate from the decay ratio."""
    if ref.p <= 0.0:
        raise ValueError("reference decay parameter must be positive")
    ratio = interleaved.p / ref.p
    return (1.0 - ratio) * (dimension - 1) / dimension
