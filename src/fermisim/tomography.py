"""Two-qubit quantum process tomography with physicality constraints.

The chi matrix represents a channel rho -> sum_mn chi[m,n] E_m rho E_n^dag
in the fixed two-qubit operator basis {I, X, Y, Z} x {I, X, Y, Z}, ordered
II, IX, IY, IZ, XI, ... (first qubit major).  That order is pinned in
``PAULI_BASIS_LABELS`` and used everywhere; chi matrices are meaningless
without it.

Synthetic datasets prepare the 16 product states reached by
{I, X/2, Y/2, X} on each qubit, apply the process under test (optionally
with gate noise), analyse with the same 16 rotations, and record the
four computational-basis outcome probabilities.  Each probability is
W_r chi W_r^dag for one row of a fixed 1024 x 16 design matrix W.

Reconstruction seeds its fit with the linear inversion of the 1024
constraints, solved through the normal equations: the right-hand side
is W^H diag(y) W, and the 256 x 256 Gram matrix of the constraint map
is factored once per process (lazily, read-only).  It then fits chi to
the constraints by least squares, parameterising chi = T T^dag
(Cholesky factor) to enforce Hermitian positive semidefiniteness and
driving trace preservation with a scheduled penalty; an optimiser stage
that reports failure, or a result that misses trace preservation,
raises ReconstructionError.  On clean data from a unitary the fit
recovers the exact rank-1 chi.
"""
from __future__ import annotations

import functools
import io
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, expm
from scipy.optimize import minimize

from .circuits import Circuit, Gate, circuit_unitary
from .compiler import compile_zz_block, conjugate_basis
from .pauli import PAULI_MATRICES
from .simulator import DensityState, NoiseModel, circuit_channel

BASIS_TAG = "IXYZ*IXYZ:row-major"
PAULI_BASIS_LABELS = tuple(
    a + b for a in "IXYZ" for b in "IXYZ"
)
PAULI_BASIS = np.stack([
    np.kron(PAULI_MATRICES[l[0]], PAULI_MATRICES[l[1]])
    for l in PAULI_BASIS_LABELS
])

PREP_GATE_LABELS = ("I", "X/2", "Y/2", "X")

PSD_TOL = 1e-8
TP_TOL = 1e-6


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
    basis: str = BASIS_TAG

    def __post_init__(self):
        chi = np.asarray(self.chi, dtype=complex)
        object.__setattr__(self, "chi", chi)
        if chi.shape != (16, 16):
            raise ValueError("chi must be 16x16")

    def is_physical(self, psd_tol=PSD_TOL, tp_tol=TP_TOL) -> bool:
        herm = np.max(np.abs(self.chi - self.chi.conj().T)) <= 1e-8
        psd = np.linalg.eigvalsh(
            (self.chi + self.chi.conj().T) / 2).min() >= -psd_tol
        return herm and psd and self.tp_defect() <= tp_tol

    def tp_defect(self) -> float:
        acc = np.einsum(
            "mn,nba,mbc->ac", self.chi, PAULI_BASIS.conj(), PAULI_BASIS
        )
        return float(np.max(np.abs(acc - np.eye(4))))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return np.einsum(
            "mn,mab,bc,ndc->ad", self.chi, PAULI_BASIS, rho,
            PAULI_BASIS.conj(),
        )

    def to_json_dict(self) -> dict:
        return {
            "basis": self.basis,
            "re": self.chi.real.tolist(),
            "im": self.chi.imag.tolist(),
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> ProcessMatrix:
        chi = np.array(payload["re"]) + 1j * np.array(payload["im"])
        return cls(chi, payload.get("basis", BASIS_TAG))

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> ProcessMatrix:
        return cls.from_json_dict(json.loads(text))


def chi_of_unitary(u: np.ndarray) -> ProcessMatrix:
    """Rank-1 chi of a two-qubit unitary."""
    coeffs = np.array([np.trace(e.conj().T @ u) / 4 for e in PAULI_BASIS])
    return ProcessMatrix(np.outer(coeffs, coeffs.conj()))


def chi_of_circuit(c: Circuit) -> ProcessMatrix:
    if c.qubit_count != 2:
        raise ValueError("chi_of_circuit expects a two-qubit circuit")
    return chi_of_unitary(circuit_unitary(c))


def identity_process() -> ProcessMatrix:
    return chi_of_unitary(np.eye(4, dtype=complex))


def depolarizing_process(p: float = 1.0) -> ProcessMatrix:
    chi = (1 - p) * identity_process().chi + p * np.eye(16) / 16
    return ProcessMatrix(chi)


def superoperator(process: ProcessMatrix) -> np.ndarray:
    """Column-stacking superoperator: vec(Lambda(rho)) = S vec(rho).

    S = sum_mn chi[m, n] kron(conj(E_n), E_m).
    """
    return np.einsum(
        "mn,nab,mcd->acbd", process.chi, PAULI_BASIS.conj(), PAULI_BASIS
    ).reshape(16, 16)


def chi_from_superoperator(s: np.ndarray) -> ProcessMatrix:
    basis_ops = np.stack([
        np.kron(PAULI_BASIS[n].conj(), PAULI_BASIS[m])
        for m in range(16) for n in range(16)
    ])
    coeffs = np.einsum("kab,ab->k", basis_ops.conj(), s) / 16.0
    return ProcessMatrix(coeffs.reshape(16, 16))


def compose_processes(first: ProcessMatrix,
                      second: ProcessMatrix) -> ProcessMatrix:
    """chi of the sequential channel second(first(rho))."""
    if first.basis != second.basis:
        raise ValueError("process matrices use different bases")
    return chi_from_superoperator(superoperator(second) @
                                  superoperator(first))


def divide_reference(process: ProcessMatrix,
                     reference: ProcessMatrix) -> ProcessMatrix:
    """Strip a reference (zero-time idle) process from a measured one."""
    s_ref = superoperator(reference)
    return chi_from_superoperator(superoperator(process) @
                                  np.linalg.inv(s_ref))


def process_fidelity(a: ProcessMatrix, b: ProcessMatrix) -> float:
    """Tr(a b) for a an ideal (rank-1) chi; clamped to [0, 1]."""
    if a.basis != b.basis:
        raise ValueError("process matrices use different bases")
    value = float(np.trace(a.chi @ b.chi).real)
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
        if probs.min() < -1e-9 or probs.max() > 1 + 1e-9:
            raise ValueError("probabilities outside [0, 1]")
        sums = probs.sum(axis=2)
        if np.max(np.abs(sums - 1.0)) > 1e-6:
            raise ValueError("outcome rows must be normalised")

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("prep_index,meas_index,p00,p01,p10,p11\n")
        for i in range(16):
            for j in range(16):
                row = ",".join(f"{p:.12g}" for p in self.probabilities[i, j])
                buf.write(f"{i},{j},{row}\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> QPTDataset:
        probs = np.zeros((16, 16, 4))
        lines = [ln for ln in text.strip().splitlines()[1:] if ln]
        for ln in lines:
            parts = ln.split(",")
            i, j = int(parts[0]), int(parts[1])
            probs[i, j] = [float(x) for x in parts[2:6]]
        return cls(probs)


def _prep_states() -> np.ndarray:
    """Row i is rotation i applied to |00>."""
    return _analysis_unitaries()[:, :, 0]


def _analysis_unitaries() -> np.ndarray:
    return np.stack([
        circuit_unitary(tomography_rotation(j)) for j in range(16)
    ])


def simulate_qpt_dataset(process, noise: NoiseModel | None = None
                         ) -> QPTDataset:
    """Deterministic synthetic dataset for a circuit or chi process.

    Preparation and analysis rotations are ideal; optional gate noise
    applies to the process circuit only.  A circuit process is turned
    into its channel matrix once and applied to all 16 preparations.
    """
    analyses = _analysis_unitaries()
    inputs = [DensityState(np.outer(v, v.conj()), 2).rho
              for v in _prep_states()]
    if isinstance(process, ProcessMatrix):
        if noise is not None:
            raise ValueError(
                "noise applies to circuit processes; chi matrices are "
                "already channels"
            )
        outputs = [process.apply(rho) for rho in inputs]
    elif isinstance(process, Circuit):
        channel = circuit_channel(process, noise)
        outputs = [DensityState((channel @ rho.reshape(-1)).reshape(4, 4),
                                2).rho for rho in inputs]
    else:
        raise TypeError("process must be a Circuit or ProcessMatrix")
    probs = np.zeros((16, 16, 4))
    for i, rho_out in enumerate(outputs):
        for j in range(16):
            rotated = analyses[j] @ rho_out @ analyses[j].conj().T
            probs[i, j] = np.clip(np.diag(rotated).real, 0.0, None)
            probs[i, j] /= probs[i, j].sum()
    return QPTDataset(probs)


@functools.cache
def _design_matrix() -> np.ndarray:
    """W[r, m] = <k| R_j E_m |prep_i> with r = (i, j, k) row-major.

    The model probability of row r is W_r chi W_r^dag.  Built once,
    read-only.
    """
    preps = _prep_states()
    analyses = _analysis_unitaries()
    tmp = np.einsum("mab,ib->mia", PAULI_BASIS, preps)
    w = np.einsum("jka,mia->ijkm", analyses, tmp).reshape(-1, 16)
    w.flags.writeable = False
    return w


@functools.cache
def _gram_factor() -> np.ndarray:
    """Lower Cholesky factor of the linear-inversion Gram matrix M^H M.

    M[r, (m, n)] = W[r, m] conj(W[r, n]) maps vec(chi) to the 1024
    probabilities; the 16 x 16 x 4 tomography set determines chi, so
    M^H M (256 x 256) is positive definite.  Built once, read-only.
    """
    w = _design_matrix()
    m = (w[:, :, None] * w.conj()[:, None, :]).reshape(len(w), -1)
    factor = np.linalg.cholesky(m.conj().T @ m)
    factor.flags.writeable = False
    return factor


def _linear_inversion(y: np.ndarray) -> np.ndarray:
    """Least-squares chi of prob = M vec(chi), via the normal equations.

    M^H y = vec(W^H diag(y) W), solved with the cached Gram factor.
    """
    w = _design_matrix()
    rhs = (w.conj().T @ (y[:, None] * w)).reshape(-1)
    chi_vec = cho_solve((_gram_factor(), True), rhs)
    return chi_vec.reshape(16, 16)


def _model_probabilities(w: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """W_r chi W_r^dag for every row r of the design matrix."""
    return np.einsum("rm,rm->r", w @ chi, w.conj()).real


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
    return np.einsum(
        "mn,nba,mbc->ac", chi, PAULI_BASIS.conj(), PAULI_BASIS
    ) - np.eye(4)


def _fit_objective(x: np.ndarray, weight: float, w: np.ndarray,
                   y: np.ndarray):
    """Penalised misfit and its gradient in the Cholesky parameters.

    ``w`` is the flat design matrix and ``y`` the flat probabilities.
    With chi = T T^dag the model probability is |T^T W|^2, so the
    Wirtinger derivative with respect to conj(T) is conj(G) T, where G
    is the entrywise chi-gradient; both G terms below are Hermitian.
    """
    t = _params_to_t(x)
    chi = t @ t.conj().T
    resid = _model_probabilities(w, chi) - y
    defect = _tp_operator(chi)
    value = float(np.sum(resid ** 2)) \
        + weight * float(np.sum(np.abs(defect) ** 2))
    g_chi = 2.0 * (w.T @ (resid[:, None] * w.conj()))
    g_chi += 2.0 * weight * np.einsum(
        "nba,mbc,ca->mn", PAULI_BASIS.conj(), PAULI_BASIS, defect
    )
    d_tbar = g_chi.conj() @ t
    grad = np.concatenate([2 * d_tbar.real[_TRIL], 2 * d_tbar.imag[_TRIL]])
    return value, grad


_PENALTY_WEIGHTS = (1e2, 1e4, 1e6)


def reconstruct_chi(dataset: QPTDataset, return_info: bool = False,
                    max_iterations: int = 400):
    """Physical chi minimising the quadratic data misfit.

    Linear inversion seeds a Cholesky-parameterised refinement
    (chi = T T^dag, so Hermitian PSD by construction) that minimises
    misfit plus a trace-preservation penalty on an increasing weight
    schedule.  Raises ReconstructionError if an optimiser stage reports
    failure or the result fails the physicality checks.
    """
    w = _design_matrix()
    y = dataset.probabilities.reshape(-1)
    chi0 = _linear_inversion(y)
    chi0 = (chi0 + chi0.conj().T) / 2
    vals, vecs = np.linalg.eigh(chi0)
    vals = np.clip(vals, 1e-12, None)
    chi0 = (vecs * vals) @ vecs.conj().T
    t0 = np.linalg.cholesky(chi0 + 1e-12 * np.eye(16))

    x = _t_to_params(t0)
    for stage, weight in enumerate(_PENALTY_WEIGHTS, 1):
        result = minimize(
            _fit_objective, x, args=(weight, w, y), jac=True,
            method="L-BFGS-B", options={"maxiter": max_iterations},
        )
        if not result.success:
            raise ReconstructionError(
                f"optimiser failed at stage {stage}/{len(_PENALTY_WEIGHTS)} "
                f"(penalty weight {weight:g}): {result.message}"
            )
        x = result.x
    t = _params_to_t(x)
    chi = t @ t.conj().T
    process = ProcessMatrix(chi)
    residual = float(np.sqrt(np.mean((_model_probabilities(w, chi) - y)
                                     ** 2)))
    defect = process.tp_defect()
    if defect > TP_TOL:
        raise ReconstructionError(
            f"trace preservation not reached: defect {defect:.3e}, "
            f"rms residual {residual:.3e} after weight schedule"
        )
    info = {
        "rms_residual": residual,
        "tp_defect": defect,
        "iterations": int(result.nit),
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
    sx, sy = PAULI_MATRICES["X"], PAULI_MATRICES["Y"]
    gen = (np.kron(sx, sx) + np.kron(sy, sy)) / 2
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
