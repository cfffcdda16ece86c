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
clean data from a unitary it is the exact rank-1 chi.  Otherwise it
seeds a maximum-likelihood fit of chi to the table by least squares,
parameterising chi = T T^dag (Cholesky factor) to enforce Hermitian
positive semidefiniteness and driving trace preservation, row 0 of R
equal to e_0, with a scheduled penalty; an optimiser stage that reports
failure, or a result that misses trace preservation, raises
ReconstructionError.
"""
from __future__ import annotations

import functools
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.optimize import minimize

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
    """Raised when the constrained fit fails to reach physicality."""


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


_TRIL = np.tril_indices(16)


def _params_to_t(x: np.ndarray) -> np.ndarray:
    t = np.zeros((16, 16), dtype=complex)
    half = len(x) // 2
    t[_TRIL] = x[:half] + 1j * x[half:]
    return t


def _t_to_params(t: np.ndarray) -> np.ndarray:
    vals = t[_TRIL]
    return np.concatenate([vals.real, vals.imag])


def _tp_operator(chi: np.ndarray) -> np.ndarray:
    """sum_mn chi[m, n] E_n^dag E_m - I, zero for a trace-preserving
    chi: sum_j (R[0, j] - delta_j0) P_j for the PTM R of chi, since
    R[0, j] = tr(P_j sum_mn chi[m, n] E_n^dag E_m) / 4."""
    row = _chi_to_ptm()[:16] @ chi.reshape(-1)
    row[0] -= 1.0
    return np.tensordot(row, PAULI_BASIS, 1)


def _fit_objective(x: np.ndarray, weight: float, y: np.ndarray):
    """Penalised misfit and its gradient in the Cholesky parameters.

    ``y`` is the 16 x 64 probability table.  With chi = T T^dag and its
    PTM R = Re(C vec chi), C = :func:`_chi_to_ptm`, the misfit is
    |P R^T E^T - y|^2 and the penalty weight |M - I|_F^2, which is
    4 weight |d|^2 for M - I = :func:`_tp_operator` and d = R[0] - e_0,
    since the Pauli strings are orthogonal with norm 4.  Their gradient
    in R is 2 E^T resid^T P, plus 8 weight d on row 0; the entrywise
    chi-gradient G is the Hermitian part of C^T vec of it, and the
    Wirtinger derivative with respect to conj(T) is conj(G) T.
    """
    preparations, effects, _, _ = _qpt_vectors()
    c = _chi_to_ptm()
    t = _params_to_t(x)
    chi = t @ t.conj().T
    ptm = (c @ chi.reshape(-1)).real.reshape(16, 16)
    resid = _qpt_table(ptm)[1] - y
    defect = ptm[0] - np.eye(16)[0]
    value = float(np.sum(resid ** 2)) + 4.0 * weight * float(defect @ defect)
    g_ptm = 2.0 * (effects.T @ resid.T @ preparations)
    g_ptm[0] += 8.0 * weight * defect
    g_chi = (g_ptm.reshape(-1) @ c).reshape(16, 16)
    d_tbar = (g_chi.conj() + g_chi.T) @ t / 2
    grad = np.concatenate([2 * d_tbar.real[_TRIL], 2 * d_tbar.imag[_TRIL]])
    return value, grad


_PENALTY_WEIGHTS = (1e2, 1e4, 1e6)
_MAX_ITERATIONS = 400  # L-BFGS-B iteration cap of each penalty stage


def reconstruct_chi(dataset: QPTDataset, return_info: bool = False):
    """Physical chi minimising the quadratic data misfit.

    The Hermitised linear inversion is the unconstrained least-squares
    chi.  When it is already physical (minimum eigenvalue at least
    -``SEED_PSD_TOL``, TP defect at most ``TP_TOL`` once clipped to
    PSD) it is the answer, and ``info["branch"]`` is
    ``"linear_inversion"``.  Otherwise it seeds the maximum-likelihood
    branch (``"mle"``): a Cholesky-parameterised refinement (chi =
    T T^dag, so Hermitian PSD by construction) that minimises misfit
    plus a trace-preservation penalty on an increasing weight schedule.
    Raises ReconstructionError if an optimiser stage reports failure or
    the result fails the physicality checks.
    """
    y = dataset.probabilities.reshape(16, 64)
    chi = _linear_inversion(y)
    vals, vecs = np.linalg.eigh((chi + chi.conj().T) / 2)
    process = ProcessMatrix((vecs * np.clip(vals, 0.0, None))
                            @ vecs.conj().T)
    branch, iterations = "linear_inversion", 0
    defect = process.tp_defect()
    if not (vals[0] >= -SEED_PSD_TOL and defect <= TP_TOL):
        branch = "mle"
        chi, iterations = _maximum_likelihood(vals, vecs, y)
        process = ProcessMatrix(chi)
        defect = process.tp_defect()
    residual = float(np.sqrt(np.mean(
        (_qpt_table(ptm_of_chi(process))[1] - y) ** 2)))
    if not defect <= TP_TOL:
        raise ReconstructionError(
            f"trace preservation not reached: defect {defect:.3e}, "
            f"rms residual {residual:.3e} after weight schedule"
        )
    info = {
        "branch": branch,
        "rms_residual": residual,
        "tp_defect": defect,
        "iterations": iterations,
    }
    return (process, info) if return_info else process


def _maximum_likelihood(vals, vecs, y):
    """(chi, iteration count over all stages) of the penalised Cholesky
    fit, seeded by the linear inversion vecs diag(vals) vecs^H clipped
    to positive definite."""
    vals = np.clip(vals, 1e-12, None)
    chi0 = (vecs * vals) @ vecs.conj().T
    t0 = np.linalg.cholesky(chi0 + 1e-12 * np.eye(16))

    x, iterations = _t_to_params(t0), 0
    for stage, weight in enumerate(_PENALTY_WEIGHTS, 1):
        result = minimize(
            _fit_objective, x, args=(weight, y), jac=True,
            method="L-BFGS-B", options={"maxiter": _MAX_ITERATIONS},
        )
        if not result.success:
            raise ReconstructionError(
                f"optimiser failed at stage {stage}/{len(_PENALTY_WEIGHTS)} "
                f"(penalty weight {weight:g}): {result.message}"
            )
        x, iterations = result.x, iterations + int(result.nit)
    t = _params_to_t(x)
    return t @ t.conj().T, iterations


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
    ideal_1 = chi_of_unitary(expm(-1j * math.pi / 2 * gen))
    ideal_2 = chi_of_unitary(expm(1j * math.pi / 2 * gen))
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
