"""Dense state simulation, input preparation, occupations and error budgets.

Two backends: unit vectors for noiseless runs and density operators for
noisy ones.  The noise model is a depolarizing channel applied after
every gate on the gate's support, calibrated so that the channel's
average gate error equals the configured per-gate error (the same
definition randomized benchmarking extracts):

    eps = p (d - 1) / d   =>   p = eps d / (d - 1)

Idles and detunes carry the single-qubit error; virtual-Z and RZ frame
rotations are error-free.  Noisy evolution is exact channel algebra, no
trajectory sampling, so every run is deterministic.

The package's one channel convention is the real Pauli-transfer matrix
(PTM) R[i, j] = tr(P_i Lambda(P_j)) / 2^n on real Pauli vectors
r_P = tr(P rho) (:func:`fermisim.pauli.pauli_basis` order), the density
backend's working state.  One fold serves both backends
(:func:`lower_circuit`): each qubit's run of one-qubit gates becomes a
2x2 unitary multiplied into the next CZPHI on that qubit, one block per
entangling gate plus one per leftover run.  The pure backend applies
the block unitaries U, the density backend each block's PTM
diag(l) R_U diag(r): depolarizing commutes with every unitary on its
support and scales each Pauli string that is not the identity there.
:func:`fermisim.circuits.run_blocks` applies both, and
:func:`circuit_channel` runs the PTM blocks on the identity batch.

Exact evolution has one propagator, :func:`evolve_slices`: it takes a
(slices, d, d) stack of dense Hamiltonians through one batched
eigendecomposition, multiplies each window's slice propagators into one
window propagator by a pairwise, time-ordered batched product, and
applies only the window propagators to the state, into one checked
(windows, 2^n) stack of amplitudes.  All of it runs on the state's
invariant subspace (:func:`invariant_support`), found from the exact
nonzeros of the stack and the state: no slice couples it to the rest of
the basis, so this is exact, not an approximation.  The
hopping/repulsion models conserve particle number: the three-mode
input, for one, stays in 3 of the 8 basis states.  The exact ramp
reference, the constant-coupling checkpoints (one slice per window) and
:func:`exact_evolve` all run through it.

States live in the dense qubit frame of :mod:`fermisim.fermions`; all
occupation I/O converts through that module's mode/qubit mapping.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .circuits import (
    Circuit,
    census_single_qubit_total,
    entangler_blocks,
    run_blocks,
    unitary_blocks,
)
from .fermions import occupation_basis_index, occupation_matrix
from .pauli import WeightedPauliSum, check_dense_width, pauli_basis

NORM_TOL = 1e-10
PSD_TOL = 1e-8
PROBABILITY_SUM_TOL = 1e-6

TYPICAL_EPS_2Q = 7.4e-3
TYPICAL_EPS_1Q = 8e-4


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing per-gate noise with RB-convention average errors."""

    eps_2q: float = TYPICAL_EPS_2Q
    eps_1q: float = TYPICAL_EPS_1Q

    def __post_init__(self):
        for eps in (self.eps_2q, self.eps_1q):
            if not 0.0 <= eps <= 1.0:
                raise ValueError(f"gate error {eps} outside [0, 1]")

    def scaled(self, factor: float) -> NoiseModel:
        return replace(self, eps_2q=self.eps_2q * factor,
                       eps_1q=self.eps_1q * factor)

    def channel_probability(self, n_targets: int) -> float:
        """Depolarizing probability whose average gate error equals eps."""
        d = 2 ** n_targets
        eps = self.eps_2q if n_targets == 2 else self.eps_1q
        return min(1.0, eps * d / (d - 1))


@dataclass(frozen=True)
class PureState:
    amplitudes: np.ndarray
    qubit_count: int

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amp)
        if amp.shape != (2 ** self.qubit_count,):
            raise ValueError("amplitude vector has wrong length")
        check_norms(amp[None])

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def to_density(self) -> DensityState:
        rho = np.outer(self.amplitudes, self.amplitudes.conj())
        return DensityState(rho, self.qubit_count)


@dataclass(frozen=True)
class DensityState:
    rho: np.ndarray
    qubit_count: int

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        object.__setattr__(self, "rho", rho)
        dim = 2 ** self.qubit_count
        if rho.shape != (dim, dim):
            raise ValueError("density matrix has wrong shape")
        check_densities(rho[None])

    def probabilities(self) -> np.ndarray:
        return np.clip(np.diag(self.rho).real, 0.0, None)

    @functools.cached_property
    def _pauli(self) -> np.ndarray:
        """The Pauli vector; the density backend sets it on its outputs."""
        basis = pauli_basis(self.qubit_count)
        # tr(P rho) = vdot(P, rho), real for Hermitian P and rho
        return (self.rho.conj().reshape(-1)
                @ basis.reshape(len(basis), -1).T).real


def check_norms(amplitudes: np.ndarray, error=ValueError) -> None:
    """``error``, naming the worst drift, unless every row of a (k, 2^n)
    stack of amplitudes has unit norm."""
    norms = (abs(amplitudes) ** 2).sum(axis=-1)
    # a stack holds few rows: comparing them in Python keeps the check
    # of one state near the cost of np.vdot
    if not all(abs(x - 1.0) <= NORM_TOL for x in norms.tolist()):
        raise error(f"state is not normalised: max |norm - 1| = "
                    f"{abs(norms - 1.0).max():.2g}")


def check_densities(rhos: np.ndarray) -> None:
    """ValueError unless every matrix of a (k, d, d) stack has unit
    trace and is Hermitian and positive semidefinite."""
    if not abs(rhos.trace(axis1=1, axis2=2).real - 1.0).max() <= NORM_TOL:
        raise ValueError("density matrix trace is not 1")
    if not abs(rhos - rhos.conj().transpose(0, 2, 1)).max() <= 1e-8:
        raise ValueError("density matrix is not Hermitian")
    if not np.linalg.eigvalsh(rhos).min() >= -PSD_TOL:
        raise ValueError("density matrix is not positive semidefinite")


def density_matrices(vectors: np.ndarray, qubit_count: int) -> np.ndarray:
    """rho = sum_P r_P P / 2^n of each row of a (k, 4^n) stack of Pauli
    vectors, as a (k, 2^n, 2^n) stack."""
    basis = pauli_basis(qubit_count)
    rhos = vectors @ basis.reshape(len(basis), -1) / 2 ** qubit_count
    return rhos.reshape(-1, *basis.shape[1:])


def unitary_ptms(us: np.ndarray) -> np.ndarray:
    """Real PTMs R[i, j] = tr(P_i U P_j U^dag) / d of a (k, d, d) stack of
    unitaries."""
    k, d, _ = us.shape
    basis = pauli_basis(d.bit_length() - 1)
    # (U P_j U^dag)[a, b] at [k, (a, j), b], in two matrix products
    images = (us.reshape(-1, d) @ basis.transpose(1, 0, 2).reshape(d, -1)
              ).reshape(k, -1, d) @ us.conj().transpose(0, 2, 1)
    images = images.reshape(k, d, d * d, d).transpose(0, 1, 3, 2)
    # tr(P_i X) = vdot(P_i, X), since P_i is Hermitian
    return (basis.reshape(d * d, -1).conj()
            @ images.reshape(k, d * d, -1)).real / d


_INPUT_TARGETS = {
    # equal superposition of occupation kets (1 = occupied), per model size
    "two_mode": (2, [(0, 1), (1, 1)]),
    "three_mode": (3, [(1, 0, 1), (1, 1, 0)]),
    "four_mode": (4, [(0, 1, 0, 1), (0, 1, 1, 0), (1, 0, 0, 1),
                      (1, 0, 1, 0)]),
}


def prepare_input(kind: str) -> PureState:
    if kind not in _INPUT_TARGETS:
        raise ValueError(f"unknown input kind {kind!r}")
    n, kets = _INPUT_TARGETS[kind]
    amp = np.zeros(2 ** n, dtype=complex)
    amp[[occupation_basis_index(k) for k in kets]] = 1.0
    return PureState(amp / np.linalg.norm(amp), n)


def _block_channels(us: np.ndarray, counts: tuple,
                    noise: NoiseModel | None) -> np.ndarray:
    """PTMs diag(l) R_U diag(r) of a stack of same-size blocks, (k, d, d)
    unitaries with (k, targets) noisy one-qubit gate counts.  k noisy
    one-qubit gates leave kept weight w = (1 - p_1)^k on their target, so
    r is the kron of the targets' (1, w, w, w); an entangling block's
    two-qubit depolarizing is l = (1, w_2, ..., w_2).
    """
    ptms = unitary_ptms(us)
    if noise is None:
        return ptms
    p1 = noise.channel_probability(1)
    # each weight as a float power: numpy's power can round differently
    r = np.array([[[1.0] + [(1.0 - p1) ** n] * 3 for n in row]
                  for row in counts])
    if len(us[0]) == 2:
        return ptms * r
    ptms = ptms * (r[:, 0, :, None] * r[:, 1, None, :]).reshape(-1, 1, 16)
    ptms[:, 1:] *= 1.0 - noise.channel_probability(2)  # diag(l)
    return ptms


@dataclass(frozen=True, eq=False)
class LoweredCircuit:
    """A circuit folded once (:func:`fermisim.circuits.entangler_blocks`)
    for both backends: ``blocks`` (unitary, perm, inverse) on a
    (2,)*n + (batch,) tensor of amplitudes; ``channel_blocks``, built on
    first use, (PTM, perm, inverse), ``noise`` included, on a
    (4,)*n + (batch,) tensor of Pauli vectors.
    """

    circuit: Circuit
    noise: NoiseModel | None
    fold: tuple
    blocks: tuple

    @functools.cached_property
    def channel_blocks(self) -> tuple:
        channels = {}
        for width in (1, 2):  # one batch per block size
            rows = [i for i, (_, targets, _) in enumerate(self.fold)
                    if len(targets) == width]
            if rows:
                us, _, counts = zip(*(self.fold[i] for i in rows))
                channels.update(zip(rows, _block_channels(
                    np.stack(us), counts, self.noise)))
        return tuple((channels[i], perm, inverse)
                     for i, (_, perm, inverse) in enumerate(self.blocks))


def lower_circuit(circuit: Circuit,
                  noise: NoiseModel | None = None) -> LoweredCircuit:
    """Fold a circuit once to run it many times through
    :func:`apply_circuit`: noiseless on pure states, with ``noise`` on
    densities."""
    fold = tuple(entangler_blocks(circuit))
    return LoweredCircuit(circuit, noise, fold,
                          unitary_blocks(fold, circuit.qubit_count))


def circuit_channel(circuit: Circuit,
                    noise: NoiseModel | None = None) -> np.ndarray:
    """Real 4^n x 4^n PTM of a (noisy) circuit on Pauli vectors."""
    n = circuit.qubit_count
    check_dense_width(2 * n, "circuit channel")  # a 2n-qubit unitary's size
    dim = 4 ** n
    t = np.eye(dim).reshape((4,) * n + (dim,))
    t = run_blocks(t, lower_circuit(circuit, noise).channel_blocks)
    return t.reshape(dim, dim)


def apply_circuit(state, circuit: Circuit, noise: NoiseModel | None = None,
                  lowered: LoweredCircuit | None = None):
    """Run a circuit; a noisy run promotes pure states to densities.

    Noiseless runs on pure states use the pure backend, all others the
    density backend, on the state's Pauli vector (the one a returned
    density carries).  ``lowered``, from :func:`lower_circuit` on this
    circuit, skips folding it again; a density run also needs it lowered
    with this noise model.
    """
    n = circuit.qubit_count
    if getattr(state, "qubit_count", None) != n:
        raise ValueError("state and circuit qubit counts differ")
    density = noise is not None or not isinstance(state, PureState)
    if lowered is None:
        lowered = lower_circuit(circuit, noise)
    elif lowered.circuit is not circuit or (density
                                            and lowered.noise != noise):
        raise ValueError("lowered circuit belongs to another circuit "
                         "or noise model")
    if not density:
        amps = run_blocks(state.amplitudes.reshape((2,) * n + (1,)),
                          lowered.blocks)
        return PureState(amps.reshape(-1), n)
    dense = state.to_density() if isinstance(state, PureState) else state
    r = run_blocks(dense._pauli.reshape((4,) * n + (1,)),
                   lowered.channel_blocks).reshape(-1)
    out = DensityState(density_matrices(r, n)[0], n)
    object.__setattr__(out, "_pauli", r)
    return out


def invariant_support(hamiltonians: np.ndarray,
                      amplitudes: np.ndarray) -> np.ndarray:
    """Sorted basis indices of the smallest set that holds the support
    of ``amplitudes`` and that no matrix of the (slices, d, d) stack
    couples to the rest of the basis.

    A closure over exact nonzeros, with no tolerance: every H_k is block
    diagonal on this set and its complement, so exp(-i H_k dt) keeps a
    state supported on the set inside it.  A number-conserving
    Hamiltonian and a fixed-number input close to one number sector.
    """
    nonzero = np.any(hamiltonians != 0, axis=0)
    coupled = nonzero | nonzero.T
    inside = amplitudes != 0
    while True:
        grown = inside | coupled[inside].any(axis=0)
        if np.array_equal(grown, inside):
            return np.flatnonzero(inside)
        inside = grown


def ordered_product(factors: np.ndarray, product=np.matmul) -> np.ndarray:
    """Time-ordered product of a (batch, count, ...) stack: for each
    batch row, ``factors[count - 1] @ ... @ factors[0]``, or the same
    fold with ``product(later, earlier)`` in place of matmul.

    Pairwise: each level multiplies neighbours (later @ earlier) in one
    batched call, about log2(count) levels; the last factor of a level
    of odd length passes to the next level as it is.
    """
    while (count := factors.shape[1]) > 1:
        pairs = product(factors[:, 1::2], factors[:, 0:count - 1:2])
        factors = (np.concatenate([pairs, factors[:, -1:]], axis=1)
                   if count % 2 else pairs)
    return factors[:, 0]


def evolve_slices(hamiltonians: np.ndarray, durations, state: PureState,
                  every: int | None = None) -> np.ndarray:
    """Apply exp(-i H_k dt_k) for k = 0, 1, ... in order.

    ``hamiltonians`` is a (slices, d, d) stack of dense Hermitian
    matrices, diagonalised in one batched eigendecomposition (which
    reads only their lower triangles: Hermiticity is the caller's
    check); ``durations`` is 1-D and finite, each slice's dt_k.  Returns
    the (windows, d) stack of amplitudes after every ``every`` slices
    (default: one row, the final state).

    All arithmetic runs on the state's :func:`invariant_support`, and
    the rows get exact zeros outside it; on the full space it is the
    same arithmetic as on the full matrices.  Each window's ``every``
    slice propagators are multiplied into one by :func:`ordered_product`
    (all windows at once), and only the window propagators touch the
    state.  The input is checked, so a row off unit norm is rounding
    drift: a FloatingPointError.
    """
    hs = np.asarray(hamiltonians)
    dim = 2 ** state.qubit_count
    if hs.ndim != 3 or hs.shape[1:] != (dim, dim):
        raise ValueError("Hamiltonian and state qubit counts differ")
    dts = np.asarray(durations, float)
    if dts.shape != (len(hs),):
        raise ValueError("durations must be 1-D with one entry per slice")
    if not np.isfinite(dts).all():
        raise ValueError("durations must be finite")
    every = every or len(hs)
    if len(hs) % every:
        raise ValueError("slice count must be a multiple of 'every'")
    support = invariant_support(hs, state.amplitudes)
    sub = len(support)
    vals, vecs = np.linalg.eigh(hs[:, support[:, None], support])
    with np.errstate(over="raise", invalid="raise"):  # no NaN phases
        phases = np.exp(-1j * vals * dts[:, None])
    props = (vecs * phases[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
    amps = state.amplitudes[support]
    windows = ordered_product(props.reshape(-1, every, sub, sub))
    out = np.zeros((len(windows), dim), dtype=complex)
    for k, u in enumerate(windows):
        out[k, support] = amps = u @ amps
    check_norms(out, FloatingPointError)
    return out


def exact_evolve(hamiltonian: WeightedPauliSum, t: float,
                 state: PureState) -> PureState:
    """exp(-i H t)|psi>, offset included, via the dense Hamiltonian."""
    if not hamiltonian.is_hermitian():
        raise ValueError("Hamiltonian must be Hermitian")
    return PureState(evolve_slices(hamiltonian.to_dense()[None], [t],
                                   state)[0], state.qubit_count)


def mode_occupations(state) -> np.ndarray:
    """P(mode i occupied), i.e. its qubit in the occupied level."""
    return occupation_rows(state.probabilities()[None])[0]


def occupation_rows(probabilities: np.ndarray) -> np.ndarray:
    """(k, modes) occupations of a (k, 2^n) stack of probabilities."""
    n = probabilities.shape[1].bit_length() - 1
    return (occupation_matrix(n) @ probabilities[:, :, None])[:, :, 0]


def state_overlap(reference: PureState, state) -> float:
    """True fidelity <ref|rho|ref> against a pure reference state.

    The distribution-level metric of :func:`state_fidelity` is the
    measurement-side estimator of this quantity; it agrees to first
    order but is quadratically forgiving of incoherent errors, so
    simulated error-per-step numbers quote this exact overlap.
    """
    target = state.amplitudes if isinstance(state, PureState) else state.rho
    return float(state_overlaps(reference.amplitudes[None], target[None])[0])


def state_overlaps(references: np.ndarray, states: np.ndarray) -> np.ndarray:
    """:func:`state_overlap` of each row of a (k, 2^n) stack of reference
    amplitudes against the same row of a (k, 2^n) stack of amplitudes or
    a (k, 2^n, 2^n) stack of densities.

    Stacked products make one BLAS dot or vector-matrix call per row, and
    hypot and float_power round as scalar abs and ** do, so a row's
    overlap is the same to the bit as a single state's.
    """
    bras = references.conj()[:, None, :]
    if states.ndim == 2:
        dots = (bras @ states[:, :, None])[:, 0, 0]
        return np.float_power(np.hypot(dots.real, dots.imag), 2)
    return ((bras @ states) @ references[:, :, None])[:, 0, 0].real


def state_fidelity(p_ideal, p) -> float:
    """Classical (Bhattacharyya) fidelity over computational outcomes."""
    return float(state_fidelities(np.asarray(p_ideal, dtype=float)[None],
                                  np.asarray(p, dtype=float)[None])[0])


def state_fidelities(p_ideal, p) -> np.ndarray:
    """:func:`state_fidelity` of each row pair of two (k, outcomes)
    stacks of probability vectors.  Each vector must sum to 1 and have
    no entry below 0, both to PROBABILITY_SUM_TOL; a failing stack
    raises the message of its first failing row (ideal before run)."""
    a = np.asarray(p_ideal, dtype=float)
    b = np.asarray(p, dtype=float)
    if a.shape != b.shape:
        raise ValueError("probability vectors differ in length")
    pairs = np.stack([a, b], axis=-2)  # each row's ideal, then its run
    lows = pairs.min(axis=-1).reshape(-1)
    sums = pairs.sum(axis=-1).reshape(-1)
    bad = (lows < -PROBABILITY_SUM_TOL) \
        | ~(abs(sums - 1.0) <= PROBABILITY_SUM_TOL)
    if bad.any():
        first = np.flatnonzero(bad)[0]
        if lows[first] < -PROBABILITY_SUM_TOL:
            raise ValueError(f"negative probability {lows[first]}")
        raise ValueError(f"probabilities sum to {sums[first]}, not 1")
    pairs = np.clip(pairs, 0.0, None)
    pairs = pairs / pairs.sum(axis=-1, keepdims=True)
    # float_power squares through libm pow, as a scalar ** 2 does
    return np.float_power(
        np.sqrt(pairs[..., 0, :] * pairs[..., 1, :]).sum(axis=-1), 2)


def error_budget(census: dict[str, int], noise: NoiseModel) -> float:
    """Additive per-step process error from the gate census.

    Counts every single-qubit row of the census (microwave, idle,
    detune, and the software phase gates) at eps_1q, matching the
    published budget arithmetic for the canonical steps.
    """
    return (census["entangling"] * noise.eps_2q
            + census_single_qubit_total(census) * noise.eps_1q)
