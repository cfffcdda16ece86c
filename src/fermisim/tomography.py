"""Two-qubit quantum process tomography with physicality constraints.

The chi matrix represents a channel rho -> sum_mn chi[m,n] E_m rho E_n^dag
in the fixed two-qubit operator basis {I, X, Y, Z} x {I, X, Y, Z}, ordered
II, IX, IY, IZ, XI, ... (first qubit major).  That order is pinned in
``PAULI_BASIS_LABELS`` and used everywhere; chi matrices are meaningless
without it.

A channel as a matrix is the package's one convention, the real PTM on
Pauli vectors (:mod:`fermisim.simulator`): :func:`ptm_of_chi` gives a
chi's, the matrix :func:`fermisim.simulator.circuit_channel` gives a
circuit's, and :func:`chi_of_ptm` inverts it.

Synthetic datasets prepare the 16 product states reached by
{I, X/2, Y/2, X} on each qubit, apply the process under test's PTM
(optionally with gate noise), analyse with the same 16 rotations, and
record the four computational-basis outcome probabilities.  With the
preparations' Pauli vectors P and the analysis effects' E, the
probabilities of a process PTM R form the 16 x 64 table P R^T E^T, the
one probability model: datasets, the linear inversion, the residual and
the fit all read it.

Reconstruction starts from the linear inversion, R = pinv(E) Y^T
pinv(P)^T with two cached pseudo-inverses, turned into chi.  When the
Hermitised inversion is already physical (smallest eigenvalue at least
-SEED_PSD_TOL, TP defect at most TP_TOL), it is the answer, clipped to
PSD; the package's exact-probability datasets take this branch, and on
clean data from a unitary it is the exact rank-1 chi.  Otherwise the
least squares |P R^T E^T - Y|^2 over trace-preserving PTMs (row 0 of R
equal to e_0) whose chi is PSD is solved by ADMM on R, stopped when its
primal and dual residuals both reach 1e-12; reaching its iteration cap
first raises ReconstructionError.
"""
from __future__ import annotations

import functools
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, Gate, circuit_unitary
from .compiler import compile_zz_block, conjugate_basis
from .pauli import pauli_basis, read_only
from .simulator import (
    PSD_TOL,
    NoiseModel,
    check_densities,
    circuit_channel,
    density_matrices,
)

BASIS_TAG = "IXYZ*IXYZ:row-major"
PAULI_BASIS_LABELS = tuple(
    a + b for a in "IXYZ" for b in "IXYZ"
)
PAULI_BASIS = pauli_basis(2)

PREP_GATE_LABELS = ("I", "X/2", "Y/2", "X")

TP_TOL = 1e-6
# Most negative eigenvalue of a linear-inversion chi kept without a fit
SEED_PSD_TOL = 1e-12


class ReconstructionError(RuntimeError):
    """Raised when the constrained ADMM fit reaches its iteration cap
    before both residuals meet the tolerance, or its result is not
    trace preserving."""


def _prep_gates(label: str, qubit: int) -> list[Gate]:
    if label == "I":
        return []
    if label == "X/2":
        return [Gate("RX", (qubit,), math.pi / 2)]
    if label == "Y/2":
        return [Gate("RY", (qubit,), math.pi / 2)]
    if label == "X":
        return [Gate("PI_X", (qubit,))]
    raise ValueError(label)


def tomography_rotation(index: int) -> Circuit:
    """Product rotation #index, index = 4 * (gate on q0) + (gate on q1)."""
    g0, g1 = divmod(index, 4)
    gates = _prep_gates(PREP_GATE_LABELS[g0], 0) + \
        _prep_gates(PREP_GATE_LABELS[g1], 1)
    return Circuit(2, tuple(gates))


@dataclass(frozen=True)
class ProcessMatrix:
    chi: np.ndarray

    def __post_init__(self):
        chi = np.asarray(self.chi, dtype=complex)
        object.__setattr__(self, "chi", chi)
        if chi.shape != (16, 16):
            raise ValueError("chi must be 16x16")
        if not np.isfinite(chi).all():
            raise ValueError("chi has non-finite entries")

    def is_physical(self) -> bool:
        herm = np.max(np.abs(self.chi - self.chi.conj().T)) <= 1e-8
        psd = np.linalg.eigvalsh(
            (self.chi + self.chi.conj().T) / 2).min() >= -PSD_TOL
        return herm and psd and self.tp_defect() <= TP_TOL

    def tp_defect(self) -> float:
        return float(np.max(np.abs(_tp_operator(self.chi))))

    def to_json_dict(self) -> dict:
        return {
            "basis": BASIS_TAG,
            "re": self.chi.real.tolist(),
            "im": self.chi.imag.tolist(),
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> ProcessMatrix:
        if payload.get("basis", BASIS_TAG) != BASIS_TAG:
            raise ValueError(f"unknown process basis {payload['basis']!r}")
        return cls(np.array(payload["re"]) + 1j * np.array(payload["im"]))

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> ProcessMatrix:
        return cls.from_json_dict(json.loads(text))


def chi_of_unitary(u: np.ndarray) -> ProcessMatrix:
    """Rank-1 chi of a two-qubit unitary."""
    coeffs = np.einsum("mab,ab->m", PAULI_BASIS.conj(), u) / 4
    return ProcessMatrix(np.outer(coeffs, coeffs.conj()))


def chi_of_circuit(c: Circuit) -> ProcessMatrix:
    if c.qubit_count != 2:
        raise ValueError("chi_of_circuit expects a two-qubit circuit")
    return chi_of_unitary(circuit_unitary(c))


def identity_process() -> ProcessMatrix:
    return chi_of_unitary(np.eye(4, dtype=complex))


@functools.cache
def _chi_to_ptm() -> np.ndarray:
    """Read-only (256, 256) T[(i, j), (m, n)] = tr(P_i E_m P_j E_n^dag) / 4
    mapping vec(chi) to vec(R); T / 4 is unitary."""
    t = np.einsum("iab,mbc,jcd,nda->ijmn", *[PAULI_BASIS] * 4, optimize=True)
    return read_only(t.reshape(256, 256) / 4)


def ptm_of_chi(process: ProcessMatrix) -> np.ndarray:
    """The real PTM R[i, j] = tr(P_i Lambda(P_j)) / 4 of a chi process,
    the convention of :func:`fermisim.simulator.circuit_channel`."""
    return (_chi_to_ptm() @ process.chi.reshape(-1)).real.reshape(16, 16)


def chi_of_ptm(ptm: np.ndarray) -> ProcessMatrix:
    """Inverse of :func:`ptm_of_chi`: chi = T^H vec(R) / 16."""
    chi = (np.conj(ptm).reshape(-1) @ _chi_to_ptm()).conj()
    return ProcessMatrix(chi.reshape(16, 16) / 16)


def compose_processes(first: ProcessMatrix,
                      second: ProcessMatrix) -> ProcessMatrix:
    """chi of the sequential channel second(first(rho))."""
    return chi_of_ptm(ptm_of_chi(second) @ ptm_of_chi(first))


def process_fidelity(a: ProcessMatrix, b: ProcessMatrix) -> float:
    """Tr(a b) for a an ideal (rank-1) chi, clamped to [0, 1]; a
    non-finite trace raises FloatingPointError."""
    value = float(np.trace(a.chi @ b.chi).real)
    if not math.isfinite(value):
        raise FloatingPointError(f"process fidelity is {value}")
    if value < -1e-6 or value > 1 + 1e-6:
        warnings.warn(f"process fidelity {value} clamped into [0, 1]")
    return min(1.0, max(0.0, value))


@dataclass(frozen=True)
class QPTDataset:
    """Outcome probabilities for all (preparation, analysis) pairs."""

    probabilities: np.ndarray  # shape (16, 16, 4)

    def __post_init__(self):
        probs = np.asarray(self.probabilities, dtype=float)
        object.__setattr__(self, "probabilities", probs)
        if probs.shape != (16, 16, 4):
            raise ValueError("dataset must have shape (16, 16, 4)")
        if not (probs.min() >= -1e-9 and probs.max() <= 1 + 1e-9):
            raise ValueError("probabilities outside [0, 1]")
        sums = probs.sum(axis=2)
        if not np.max(np.abs(sums - 1.0)) <= 1e-6:
            raise ValueError("outcome rows must be normalised")


@functools.cache
def _qpt_vectors() -> tuple:
    """Read-only Pauli vectors from the rotations' PTMs, built once: the
    (16, 16) preparations P (row i: rotation i applied to |00>), the
    (64, 16) analysis effects E (row (j, k): the vector whose dot product
    with a state's is <k| R_j rho R_j^dag |k>), pinv(P) and pinv(E)."""
    ptms = np.stack([circuit_channel(tomography_rotation(j))
                     for j in range(16)])
    z = PAULI_BASIS.diagonal(axis1=1, axis2=2).real.T  # tr(P |k><k|)
    vectors = (ptms @ z[0], (z @ ptms).reshape(64, 16) / 4)
    pinvs = tuple(np.linalg.pinv(v) for v in vectors)
    return tuple(read_only(a) for a in vectors + pinvs)


def simulate_qpt_dataset(process, noise: NoiseModel | None = None
                         ) -> QPTDataset:
    """Deterministic synthetic dataset for a circuit or chi process.

    Preparation and analysis rotations are ideal; optional gate noise
    applies to the process circuit only.  The process is turned into its
    PTM once and applied to all 16 preparations, whose outputs pass one
    batched density check.
    """
    if isinstance(process, ProcessMatrix):
        if noise is not None:
            raise ValueError(
                "noise applies to circuit processes; chi matrices are "
                "already channels"
            )
        channel = ptm_of_chi(process)
    elif isinstance(process, Circuit):
        channel = circuit_channel(process, noise)
    else:
        raise TypeError("process must be a Circuit or ProcessMatrix")
    outputs, probs = _qpt_table(channel)
    check_densities(density_matrices(outputs, 2))
    probs = np.clip(probs.reshape(16, 16, 4), 0.0, None)
    return QPTDataset(probs / probs.sum(axis=2, keepdims=True))


def _qpt_table(ptm: np.ndarray) -> tuple:
    """(P R^T, P R^T E^T) for a process PTM R (:func:`_qpt_vectors`): the
    16 prepared states' Pauli vectors after the process, and the 16 x 64
    probability table, entry (i, 4 j + k) = <k| R_j rho_i R_j^dag |k>."""
    preparations, effects, _, _ = _qpt_vectors()
    outputs = preparations @ ptm.T
    return outputs, outputs @ effects.T


def _linear_inversion(y: np.ndarray) -> np.ndarray:
    """Least-squares chi of the probability table y = P R^T E^T of the
    process PTM R: R = pinv(E) y^T pinv(P)^T, which also solves the
    complex least squares in chi, as chi -> R is invertible."""
    _, _, prep_inverse, effect_inverse = _qpt_vectors()
    return chi_of_ptm(effect_inverse @ y.T @ prep_inverse.T).chi


def _tp_operator(chi: np.ndarray) -> np.ndarray:
    """sum_mn chi[m, n] E_n^dag E_m - I, zero for a trace-preserving
    chi: sum_j (R[0, j] - delta_j0) P_j for the PTM R of chi, since
    R[0, j] = tr(P_j sum_mn chi[m, n] E_n^dag E_m) / 4."""
    row = _chi_to_ptm()[:16] @ chi.reshape(-1)
    row[0] -= 1.0
    return np.tensordot(row, PAULI_BASIS, 1)


# ADMM of the "mle" branch: penalty rho, the bound on both residuals that
# stops it, and the iteration cap past which it raises
_ADMM_RHO = 4.0
_ADMM_TOL = 1e-12
_ADMM_MAX_ITERATIONS = 5000


@functools.cache
def _admm_r_step() -> np.ndarray:
    """Read-only inverse of the ADMM R-step's system, built on first use.

    On row-major vec(R) the misfit's Hessian plus the ADMM term is
    M = 2 (E^T E) kron (P^T P) + rho I.  Row 0 of R is held at e_0 and
    M does not couple it to rows 1-15: (E^T E)[i, 0] = 0 for i > 0,
    because each analysis's four effects sum to the identity.  So the
    free rows solve M_ff x = b with the 240 x 240 block M_ff, for b the
    free rows of 2 E^T y^T P + rho (S - U)."""
    preparations, effects, _, _ = _qpt_vectors()
    system = 2.0 * np.kron(effects.T @ effects,
                           preparations.T @ preparations)
    system += _ADMM_RHO * np.eye(256)
    return read_only(np.linalg.inv(system[16:, 16:]))


def _admm(seed: ProcessMatrix, y: np.ndarray) -> tuple:
    """(chi, iterations, primal residual, dual residual) of ADMM for
    min |P R^T E^T - y|^2 over real PTMs R with R[0] = e_0 and chi(R)
    PSD, split as R = S with S in the PSD set (Boyd et al., Found.
    Trends Mach. Learn. 3, 1 (2011)), started at S = the PTM of ``seed``.

    The R-step is one linear solve (:func:`_admm_r_step`).  The S-step
    clips chi(R + U) to PSD, the Frobenius projection in R too, as
    chi_of_ptm scales the Frobenius norm by a constant.  It stops when
    |R - S| and rho |S - S_previous| are both at most ``_ADMM_TOL`` and
    returns the last S: PSD, with a TP defect of at most twice |R - S|.
    """
    preparations, effects, _, _ = _qpt_vectors()
    inverse = _admm_r_step()
    linear = (2.0 * effects.T @ y.T @ preparations).reshape(-1)[16:]
    ptm, s, u = np.eye(16), ptm_of_chi(seed), np.zeros((16, 16))
    primal = dual = math.inf
    for iteration in range(1, _ADMM_MAX_ITERATIONS + 1):
        rhs = linear + _ADMM_RHO * (s - u).reshape(-1)[16:]
        ptm[1:] = (inverse @ rhs).reshape(15, 16)
        vals, vecs = np.linalg.eigh(chi_of_ptm(ptm + u).chi)
        chi = (vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T
        s, previous = ptm_of_chi(ProcessMatrix(chi)), s
        u += ptm - s
        primal = float(np.linalg.norm(ptm - s))
        dual = _ADMM_RHO * float(np.linalg.norm(s - previous))
        if primal <= _ADMM_TOL and dual <= _ADMM_TOL:
            return chi, iteration, primal, dual
    raise ReconstructionError(
        f"ADMM fit not converged after {_ADMM_MAX_ITERATIONS} iterations: "
        f"primal residual {primal:.3e}, dual residual {dual:.3e} "
        f"(tolerance {_ADMM_TOL:g})"
    )


def reconstruct_chi(dataset: QPTDataset, return_info: bool = False):
    """Physical chi minimising the quadratic data misfit.

    The Hermitised linear inversion is the unconstrained least-squares
    chi.  When it is already physical (minimum eigenvalue at least
    -``SEED_PSD_TOL``, TP defect at most ``TP_TOL`` once clipped to
    PSD) it is the answer, and ``info["branch"]`` is
    ``"linear_inversion"``.  Otherwise the constrained least squares,
    over trace-preserving PTMs whose chi is PSD, is solved by ADMM
    seeded with the clipped inversion (:func:`_admm`), and the branch
    is ``"mle"``.  ``info`` also holds the RMS residual, the TP defect,
    the ADMM iteration count and its primal and dual residuals (0 and
    0.0 on the linear inversion).  Raises ReconstructionError if ADMM
    reaches its iteration cap or the result is not trace preserving.
    """
    y = dataset.probabilities.reshape(16, 64)
    chi = _linear_inversion(y)
    vals, vecs = np.linalg.eigh((chi + chi.conj().T) / 2)
    process = ProcessMatrix((vecs * np.clip(vals, 0.0, None))
                            @ vecs.conj().T)
    branch, iterations, primal, dual = "linear_inversion", 0, 0.0, 0.0
    defect = process.tp_defect()
    if not (vals[0] >= -SEED_PSD_TOL and defect <= TP_TOL):
        branch = "mle"
        chi, iterations, primal, dual = _admm(process, y)
        process = ProcessMatrix(chi)
        defect = process.tp_defect()
    residual = float(np.sqrt(np.mean(
        (_qpt_table(ptm_of_chi(process))[1] - y) ** 2)))
    if not defect <= TP_TOL:
        raise ReconstructionError(
            f"trace preservation not reached: defect {defect:.3e}, "
            f"rms residual {residual:.3e}"
        )
    info = {
        "branch": branch,
        "rms_residual": residual,
        "tp_defect": defect,
        "iterations": iterations,
        "primal_residual": primal,
        "dual_residual": dual,
    }
    return (process, info) if return_info else process


def hopping_exchange_circuit(sign: float = 1.0) -> Circuit:
    """Circuit for exp(-i (pi/4) sign (XX + YY)) on two qubits.

    This is the spin image of a full-strength mode-exchange generator;
    sign=+1 and sign=-1 give the two Hermitian halves of the
    anticommutation identity, whose composition is the identity.
    """
    phi = sign * math.pi / 2
    xx = conjugate_basis(compile_zz_block(phi, (0, 1), echo_axis="Y"), "XX")
    yy = conjugate_basis(compile_zz_block(phi, (0, 1), echo_axis="X"), "YY")
    return xx.concat(yy)


def anticommutation_experiment(noise: NoiseModel | None = None,
                               return_processes: bool = False):
    """Tomography of the two exchange halves and their composition.

    Returns their fidelities to the ideal processes; the composed
    process is compared against the identity channel.
    """
    gen = (PAULI_BASIS[5] + PAULI_BASIS[10]) / 2  # (XX + YY) / 2
    # exp(-+i (pi/2) gen) = I - gen^2 -+ i gen, since gen^3 = gen
    even = np.eye(4) - gen @ gen
    ideal_1 = chi_of_unitary(even - 1j * gen)
    ideal_2 = chi_of_unitary(even + 1j * gen)
    circuits = {
        "first": (hopping_exchange_circuit(+1.0), ideal_1),
        "second": (hopping_exchange_circuit(-1.0), ideal_2),
    }
    chis = {}
    fids = {}
    for key, (circuit, ideal) in circuits.items():
        chi_hat = reconstruct_chi(simulate_qpt_dataset(circuit, noise))
        chis[key] = chi_hat
        fids[key] = process_fidelity(ideal, chi_hat)
    chis["composed"] = compose_processes(chis["first"], chis["second"])
    report = {
        "f1": fids["first"],
        "f2": fids["second"],
        "f_composed": process_fidelity(identity_process(),
                                       chis["composed"]),
    }
    return (report, chis) if return_processes else report


def __getattr__(name: str):
    # Stopgap until ROADMAP item 1 drops perfbench's by-name observer of
    # ``tomography.minimize``: that one name resolves to scipy's on
    # request, so importing the package never loads scipy.  No package
    # code reads it.
    if name == "minimize":
        from scipy.optimize import minimize
        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
