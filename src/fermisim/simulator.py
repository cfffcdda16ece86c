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

Every density run goes through one channel kernel: rho is a tensor with
2n axes (kets, then bras, then optional batch axes) and each gate's
local superoperator D_p o (U (x) U*), 4x4 or 16x16, acts on the axes
(targets, targets + n), with p = 0 for noiseless runs.  A circuit is
first lowered into entangler blocks (:func:`lower_circuit`): each
qubit's run of one-qubit gates is multiplied into the next CZPHI on that
qubit, so a step runs as one 16x16 contraction per entangling gate
(4x4 unitaries on the pure backend) plus one per leftover run.
:func:`circuit_channel` runs the same blocks on the identity batch;
callers that run one circuit many times lower it once and pass the
lowering to :func:`apply_circuit`.

Exact evolution diagonalises dense Hamiltonians.  :func:`evolve_slices`
takes a (slices, d, d) stack, as the exact ramp reference builds it,
through one batched eigendecomposition and applies the slice
propagators in order; :func:`exact_trajectory` gives the states at
many times of one constant Hamiltonian from one eigendecomposition.

States live in the dense qubit frame of :mod:`fermisim.fermions`; all
occupation I/O converts through that module's mode/qubit mapping.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .circuits import (
    CIRCUIT_QUBIT_LIMIT,
    CapacityError,
    Circuit,
    Gate,
    apply_gate_to_tensor,
    census_single_qubit_total,
    entangler_blocks,
    gate_unitary,
)
from .fermions import index_occupations, mode_qubit, occupation_basis_index
from .pauli import WeightedPauliSum

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
    channel_kind: str = "depolarizing"

    def __post_init__(self):
        for eps in (self.eps_2q, self.eps_1q):
            if not 0.0 <= eps <= 1.0:
                raise ValueError(f"gate error {eps} outside [0, 1]")
        if self.channel_kind != "depolarizing":
            raise ValueError("only depolarizing noise is modelled")

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
        if abs(np.vdot(amp, amp).real - 1.0) > NORM_TOL:
            raise ValueError("state is not normalised")

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
        if np.max(np.abs(rho - rho.conj().T)) > 1e-8:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(rho).real - 1.0) > NORM_TOL:
            raise ValueError("density matrix trace is not 1")
        if np.linalg.eigvalsh(rho).min() < -PSD_TOL:
            raise ValueError("density matrix is not positive semidefinite")

    def probabilities(self) -> np.ndarray:
        return np.clip(np.diag(self.rho).real, 0.0, None)


def basis_state(qubit_count: int, index: int = 0) -> PureState:
    amp = np.zeros(2 ** qubit_count, dtype=complex)
    amp[index] = 1.0
    return PureState(amp, qubit_count)


def state_from_occupations(weights: dict[tuple[int, ...], complex],
                           qubit_count: int) -> PureState:
    """Pure state from occupation-ket amplitudes (1 = occupied)."""
    amp = np.zeros(2 ** qubit_count, dtype=complex)
    for occ, w in weights.items():
        amp[occupation_basis_index(occ)] += w
    amp = amp / np.linalg.norm(amp)
    return PureState(amp, qubit_count)


_INPUT_TARGETS = {
    # equal superposition of occupation kets, per model size
    "two_mode": (2, [(0, 1), (1, 1)]),
    "three_mode": (3, [(1, 0, 1), (1, 1, 0)]),
    "four_mode": (4, [(0, 1, 0, 1), (0, 1, 1, 0), (1, 0, 0, 1),
                      (1, 0, 1, 0)]),
}


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
        return Circuit(2, (Gate("RY", (1,), math.pi / 2),),
                       {"prep": kind})
    if kind == "three_mode":
        return Circuit(3, tuple(_bell_pair(0, 1)), {"prep": kind})
    if kind == "four_mode":
        return Circuit(4, tuple(_bell_pair(0, 1) + _bell_pair(2, 3)),
                       {"prep": kind})
    raise ValueError(f"unknown input kind {kind!r}")


def prepare_input(kind: str, method: str = "direct") -> PureState:
    if kind not in _INPUT_TARGETS:
        raise ValueError(f"unknown input kind {kind!r}")
    n, kets = _INPUT_TARGETS[kind]
    if method == "direct":
        return state_from_occupations({k: 1.0 for k in kets}, n)
    if method == "circuit":
        return apply_circuit(basis_state(n), input_circuit(kind))
    raise ValueError("method must be 'direct' or 'circuit'")


def _gate_channel(g: Gate, noise: NoiseModel | None) -> np.ndarray:
    """D_p o (U (x) U*) on row-major vec of the targets' density block.

    D_p(X) = (1 - p) X + p tr(X) I/d; unitaries keep the trace, so the
    depolarized part needs no unitary factor.  Virtual gates are free.
    """
    u = gate_unitary(g)
    d = len(u)
    # np.kron(u, u.conj()) written out; kron's overhead dominates on
    # 2x2 and 4x4 blocks
    s = (u[:, None, :, None] * u.conj()[None, :, None, :]).reshape(d * d, -1)
    if noise is not None and g.duration_class != "virtual":
        p = noise.channel_probability(len(g.targets))
        vec_id = np.eye(d).reshape(-1)
        s = (1.0 - p) * s + (p / d) * np.outer(vec_id, vec_id)
    return s


@dataclass(frozen=True, eq=False)
class LoweredCircuit:
    """A circuit as entangler blocks, ready to run on one backend.

    Each block is (matrix, axes) for :func:`apply_gate_to_tensor`: on
    the pure backend a unitary on ket axes, on the density backend a
    superoperator, ``noise`` included, on (ket, bra) axes.  Lowering
    folds every one-qubit gate into a neighbouring entangling block
    (:func:`fermisim.circuits.entangler_blocks`).
    """

    circuit: Circuit
    noise: NoiseModel | None
    density: bool
    blocks: tuple


def lower_circuit(circuit: Circuit, noise: NoiseModel | None = None,
                  density: bool = True) -> LoweredCircuit:
    """Lower for the density backend, or (noiseless) for pure states.

    Lower a circuit once to run it many times through
    :func:`apply_circuit`.
    """
    n = circuit.qubit_count
    if not density:
        if noise is not None:
            raise ValueError("noise needs the density backend")
        blocks = tuple(entangler_blocks(circuit, gate_unitary))
    else:
        blocks = tuple(
            (m, targets + tuple(q + n for q in targets))
            for m, targets in entangler_blocks(
                circuit, lambda g: _gate_channel(g, noise), legs=2))
    return LoweredCircuit(circuit, noise, density, blocks)


def _run_blocks(t: np.ndarray, lowered: LoweredCircuit) -> np.ndarray:
    """Apply the blocks to a (kets[, bras], batch...) tensor."""
    width = lowered.circuit.qubit_count * (2 if lowered.density else 1)
    for m, axes in lowered.blocks:
        t = apply_gate_to_tensor(t, m, axes, width)
    return t


def circuit_channel(circuit: Circuit,
                    noise: NoiseModel | None = None) -> np.ndarray:
    """4^n x 4^n matrix of a (noisy) circuit acting on rho.reshape(-1)."""
    n = circuit.qubit_count
    if 2 * n > CIRCUIT_QUBIT_LIMIT:  # as large as a 2n-qubit unitary
        raise CapacityError(f"circuit channel capped at "
                            f"{CIRCUIT_QUBIT_LIMIT // 2} qubits")
    dim = 4 ** n
    t = np.eye(dim, dtype=complex).reshape((2,) * (2 * n) + (dim,))
    return _run_blocks(t, lower_circuit(circuit, noise)).reshape(dim, dim)


def apply_circuit(state, circuit: Circuit, noise: NoiseModel | None = None,
                  lowered: LoweredCircuit | None = None):
    """Run a circuit; a noisy run promotes pure states to densities.

    Noiseless runs on pure states use the pure backend, all others the
    density backend.  ``lowered``, from :func:`lower_circuit` on this
    circuit, noise and backend, skips lowering the circuit again.
    """
    n = circuit.qubit_count
    if getattr(state, "qubit_count", None) != n:
        raise ValueError("state and circuit qubit counts differ")
    density = noise is not None or not isinstance(state, PureState)
    if lowered is None:
        lowered = lower_circuit(circuit, noise, density)
    elif (lowered.circuit is not circuit or lowered.noise != noise
          or lowered.density != density):
        raise ValueError("lowered circuit belongs to another circuit, "
                         "noise model or backend")
    if not density:
        amps = _run_blocks(state.amplitudes.reshape((2,) * n), lowered)
        return PureState(amps.reshape(-1), n)
    dense = state.to_density() if isinstance(state, PureState) else state
    t = _run_blocks(dense.rho.reshape((2,) * (2 * n)), lowered)
    return DensityState(t.reshape(dense.rho.shape), n)


def evolve_slices(hamiltonians: np.ndarray, durations, state: PureState,
                  every: int | None = None) -> list[PureState]:
    """Apply exp(-i H_k dt_k) for k = 0, 1, ... in order.

    ``hamiltonians`` is a (slices, d, d) stack of dense Hermitian
    matrices, diagonalised in one batched eigendecomposition (which
    reads only their lower triangles: Hermiticity is the caller's
    check); ``durations`` holds each slice's dt_k.  Returns the state
    after every ``every`` slices (default: only the final state).
    """
    hs = np.asarray(hamiltonians)
    dim = 2 ** state.qubit_count
    if hs.ndim != 3 or hs.shape[1:] != (dim, dim):
        raise ValueError("Hamiltonian and state qubit counts differ")
    every = every or len(hs)
    if len(hs) % every:
        raise ValueError("slice count must be a multiple of 'every'")
    vals, vecs = np.linalg.eigh(hs)
    phases = np.exp(-1j * vals * np.asarray(durations, dtype=float)[:, None])
    amps = state.amplitudes
    out = []
    for k, (v, ph) in enumerate(zip(vecs, phases), 1):
        amps = v @ (ph * (v.conj().T @ amps))
        if k % every == 0:
            out.append(PureState(amps, state.qubit_count))
    return out


def exact_trajectory(hamiltonian: WeightedPauliSum, times,
                     state: PureState) -> list[PureState]:
    """exp(-i H t)|psi> for every t in ``times``, offset included.

    All times share one eigendecomposition of the dense Hamiltonian.
    """
    if not hamiltonian.is_hermitian():
        raise ValueError("Hamiltonian must be Hermitian")
    if hamiltonian.qubit_count != state.qubit_count:
        raise ValueError("Hamiltonian and state qubit counts differ")
    vals, vecs = np.linalg.eigh(hamiltonian.to_dense())
    coeffs = vecs.conj().T @ state.amplitudes
    return [PureState(vecs @ (np.exp(-1j * vals * t) * coeffs),
                      state.qubit_count) for t in times]


def exact_evolve(hamiltonian: WeightedPauliSum, t: float,
                 state: PureState) -> PureState:
    """exp(-i H t)|psi>, offset included, via the dense Hamiltonian."""
    return exact_trajectory(hamiltonian, [t], state)[0]


def mode_occupations(state) -> np.ndarray:
    """P(mode i occupied), i.e. its qubit in the occupied level."""
    n = state.qubit_count
    probs = state.probabilities()
    out = np.zeros(n)
    for mode in range(n):
        q = mode_qubit(mode, n)
        weight = 2 ** (n - 1 - q)
        idx = np.arange(2 ** n)
        occupied = ((idx // weight) % 2) == 0
        out[mode] = probs[occupied].sum()
    return out


def state_overlap(reference: PureState, state) -> float:
    """True fidelity <ref|rho|ref> against a pure reference state.

    The distribution-level metric of :func:`state_fidelity` is the
    measurement-side estimator of this quantity; it agrees to first
    order but is quadratically forgiving of incoherent errors, so
    simulated error-per-step numbers quote this exact overlap.
    """
    v = reference.amplitudes
    if isinstance(state, PureState):
        return float(abs(np.vdot(v, state.amplitudes)) ** 2)
    return float(np.real(v.conj() @ state.rho @ v))


def state_fidelity(p_ideal, p) -> float:
    """Classical (Bhattacharyya) fidelity over computational outcomes."""
    a = np.asarray(p_ideal, dtype=float)
    b = np.asarray(p, dtype=float)
    if a.shape != b.shape:
        raise ValueError("probability vectors differ in length")
    for v in (a, b):
        if v.min() < -PROBABILITY_SUM_TOL:
            raise ValueError(f"negative probability {v.min()}")
        if abs(v.sum() - 1.0) > PROBABILITY_SUM_TOL:
            raise ValueError(f"probabilities sum to {v.sum()}, not 1")
    a = np.clip(a, 0.0, None)
    b = np.clip(b, 0.0, None)
    a = a / a.sum()
    b = b / b.sum()
    return float(np.sqrt(a * b).sum() ** 2)


def error_budget(census: dict[str, int], noise: NoiseModel) -> float:
    """Additive per-step process error from the gate census.

    Counts every single-qubit row of the census (microwave, idle,
    detune, and the software phase gates) at eps_1q, matching the
    published budget arithmetic for the canonical steps.
    """
    return (census["entangling"] * noise.eps_2q
            + census_single_qubit_total(census) * noise.eps_1q)


def accessible_indices(hoppings, n_modes: int,
                       input_state: PureState,
                       tol: float = 1e-9) -> np.ndarray:
    """Basis indices reachable from the input under number conservation.

    Hopping-connected mode groups conserve their particle number; the
    reachable set is every basis state whose per-group numbers match a
    number tuple present in the input state.
    """
    parent = list(range(n_modes))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j, _ in hoppings:
        parent[find(i)] = find(j)
    groups = {}
    for m in range(n_modes):
        groups.setdefault(find(m), []).append(m)
    group_list = list(groups.values())

    def signature(index):
        occ = index_occupations(index, n_modes)
        return tuple(sum(occ[m] for m in g) for g in group_list)

    probs = input_state.probabilities()
    allowed = {signature(i) for i in np.nonzero(probs > tol)[0]}
    idx = np.array([i for i in range(2 ** n_modes)
                    if signature(i) in allowed], dtype=int)
    return idx


def other_state_population(state, accessible: np.ndarray) -> float:
    probs = state.probabilities()
    return float(1.0 - probs[accessible].sum())
