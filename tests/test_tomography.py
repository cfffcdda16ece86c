"""Process tomography: datasets, constrained reconstruction, composition."""
import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import minimize
from scipy.stats import unitary_group

from fermisim.circuits import Circuit, Gate, circuit_unitary
from fermisim.pauli import PAULI_MATRICES, pauli_basis
from fermisim.simulator import NoiseModel
from fermisim.tomography import (
    BASIS_TAG,
    PAULI_BASIS,
    PAULI_BASIS_LABELS,
    ProcessMatrix,
    QPTDataset,
    anticommutation_experiment,
    chi_of_circuit,
    chi_of_ptm,
    chi_of_unitary,
    compose_processes,
    hopping_exchange_circuit,
    identity_process,
    process_fidelity,
    ptm_of_chi,
    reconstruct_chi,
    simulate_qpt_dataset,
    tomography_rotation,
)
from fermisim.tomography import (
    _MAX_ITERATIONS,
    _PENALTY_WEIGHTS,
    _TRIL,
    _fit_objective,
    _linear_inversion,
    _params_to_t,
    _t_to_params,
    _tp_operator,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
EXCHANGE_GEN = (np.kron(SX, SX) + np.kron(SY, SY)) / 2


def random_unitary(rng):
    return unitary_group.rvs(4, random_state=rng)


def random_rho(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def apply_ptm(ptm, rho):
    """rho through a PTM: its Pauli vector tr(P rho), mapped, summed back
    as sum_P r_P P / 4."""
    r = np.einsum("pab,ba->p", PAULI_BASIS, rho).real
    return np.einsum("p,pab->ab", ptm @ r, PAULI_BASIS) / 4


# -- the design-matrix model, as it was before the PTM model ----------------

def old_design_matrix():
    """W[r, m] = <k| R_j E_m |prep_i> with r = (i, j, k) row-major: the
    model probability of row r is W_r chi W_r^dag."""
    analyses = np.stack([circuit_unitary(tomography_rotation(j))
                         for j in range(16)])  # column 0: preparation
    tmp = np.einsum("mab,ib->mia", PAULI_BASIS, analyses[:, :, 0])
    return np.einsum("jka,mia->ijkm", analyses, tmp).reshape(-1, 16)


OLD_TP_MAP = np.einsum("nba,mbc->mnac", PAULI_BASIS.conj(),
                       PAULI_BASIS).reshape(256, 16)


def old_tp_operator(chi):
    """sum_mn chi[m, n] E_n^dag E_m - I."""
    return (chi.reshape(-1) @ OLD_TP_MAP).reshape(4, 4) - np.eye(4)


def old_fit_objective(x, weight, w, y):
    """Penalised misfit of W_r chi W_r^dag to the flat probabilities y
    and its gradient in the Cholesky parameters."""
    t = _params_to_t(x)
    chi = t @ t.conj().T
    resid = np.einsum("rm,rm->r", w @ chi, w.conj()).real - y
    defect = old_tp_operator(chi)
    value = float(np.sum(resid ** 2)) \
        + weight * float(np.sum(np.abs(defect) ** 2))
    g_chi = 2.0 * (w.T @ (resid[:, None] * w.conj()))
    g_chi += 2.0 * weight * (OLD_TP_MAP @ defect.T.reshape(-1)).reshape(
        16, 16)
    d_tbar = g_chi.conj() @ t
    grad = np.concatenate([2 * d_tbar.real[_TRIL], 2 * d_tbar.imag[_TRIL]])
    return value, grad


def always_mle_chi(dataset):
    """reconstruct_chi as it was before the linear-inversion branch: the
    penalised Cholesky fit of the design-matrix model, seeded by the
    clipped linear inversion, run on every dataset."""
    w = old_design_matrix()
    y = dataset.probabilities.reshape(-1)
    chi0 = _linear_inversion(y.reshape(16, 64))
    chi0 = (chi0 + chi0.conj().T) / 2
    vals, vecs = np.linalg.eigh(chi0)
    vals = np.clip(vals, 1e-12, None)
    chi0 = (vecs * vals) @ vecs.conj().T
    x = _t_to_params(np.linalg.cholesky(chi0 + 1e-12 * np.eye(16)))
    for weight in _PENALTY_WEIGHTS:
        result = minimize(old_fit_objective, x, args=(weight, w, y),
                          jac=True, method="L-BFGS-B",
                          options={"maxiter": _MAX_ITERATIONS})
        assert result.success
        x = result.x
    t = _params_to_t(x)
    return t @ t.conj().T


class TestBasis:
    def test_order_pinned(self):
        assert PAULI_BASIS_LABELS[:5] == ("II", "IX", "IY", "IZ", "XI")
        assert PAULI_BASIS_LABELS[-1] == "ZZ"

    def test_one_read_only_basis(self):
        # the package's one Pauli basis, bit for bit the kron products
        kron = np.stack([np.kron(PAULI_MATRICES[a], PAULI_MATRICES[b])
                         for a, b in PAULI_BASIS_LABELS])
        assert np.array_equal(PAULI_BASIS, kron)
        assert PAULI_BASIS is pauli_basis(2)
        with pytest.raises(ValueError):
            PAULI_BASIS[0, 0, 0] = 0.0
        with pytest.raises(ValueError):
            PAULI_BASIS.flags.writeable = True

    def test_orthogonality(self):
        gram = np.einsum("mab,nab->mn", PAULI_BASIS.conj(), PAULI_BASIS)
        assert np.allclose(gram, 4 * np.eye(16), atol=1e-12)

    def test_rotation_indexing(self):
        # index 4*g0 + g1; index 1 rotates qubit 1 only
        c = tomography_rotation(1)
        assert all(g.targets == (1,) for g in c.gates)
        c = tomography_rotation(4)
        assert all(g.targets == (0,) for g in c.gates)


class TestChiOfUnitary:
    def test_matches_trace_loop(self):
        # one contraction in place of 16 traces tr(E_m^dag U) / 4; each
        # coefficient sums four unit-modulus products, so only rounding
        # of a few ulps may differ
        rng = np.random.default_rng(8)
        for _ in range(10):
            u = random_unitary(rng)
            coeffs = np.array([np.trace(e.conj().T @ u) / 4
                               for e in PAULI_BASIS])
            want = np.outer(coeffs, coeffs.conj())
            assert np.max(np.abs(chi_of_unitary(u).chi - want)) < 1e-15

    def test_identity_chi(self):
        chi = identity_process().chi
        assert chi[0, 0] == pytest.approx(1.0)
        assert np.sum(np.abs(chi)) == pytest.approx(1.0)

    def test_unit_trace_and_physicality(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            p = chi_of_unitary(random_unitary(rng))
            assert np.trace(p.chi).real == pytest.approx(1.0)
            assert p.is_physical()

    def test_apply_matches_conjugation(self):
        rng = np.random.default_rng(3)
        u = random_unitary(rng)
        p = chi_of_unitary(u)
        rho = random_rho(rng)
        out = apply_ptm(ptm_of_chi(p), rho)
        assert np.allclose(out, u @ rho @ u.conj().T, atol=1e-12)


class TestSuperoperator:
    """The chi <-> PTM pair, the package's one channel matrix."""

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        p = chi_of_unitary(random_unitary(rng))
        back = chi_of_ptm(ptm_of_chi(p))
        assert np.allclose(back.chi, p.chi, atol=1e-12)

    def test_pauli_vector_action(self):
        rng = np.random.default_rng(6)
        u = random_unitary(rng)
        p = chi_of_unitary(u)
        rho = random_rho(rng)
        lhs = apply_ptm(ptm_of_chi(p), rho)
        assert np.allclose(lhs, u @ rho @ u.conj().T, atol=1e-12)

    def test_inverse_matches_kron_basis_reference(self):
        # the PTM R as the row-major superoperator S = B^T R B* / 4 (B
        # stacks the flattened Pauli strings), then chi[m, n] =
        # tr(kron(E_m, conj(E_n))^dag S) / 16 over the 256 Kronecker
        # products built one by one
        rng = np.random.default_rng(8)
        r = rng.normal(size=(16, 16))
        b = PAULI_BASIS.reshape(16, 16)
        s = b.T @ r @ b.conj() / 4
        basis = np.stack([np.kron(PAULI_BASIS[m], PAULI_BASIS[n].conj())
                          for m in range(16) for n in range(16)])
        want = np.einsum("kab,ab->k", basis.conj(), s).reshape(16, 16) / 16
        got = chi_of_ptm(r).chi
        assert np.max(np.abs(got - want)) <= 1e-14


class TestCompose:
    def test_identity_is_neutral(self):
        rng = np.random.default_rng(7)
        p = chi_of_unitary(random_unitary(rng))
        out = compose_processes(p, identity_process())
        assert np.allclose(out.chi, p.chi, atol=1e-12)

    def test_pi_pulse_squares_to_identity(self):
        x = chi_of_circuit(Circuit(2, (Gate("PI_X", (0,)),
                                       Gate("PI_X", (1,)))))
        out = compose_processes(x, x)
        assert process_fidelity(identity_process(), out) == pytest.approx(
            1.0, abs=1e-12)

    def test_exchange_halves_compose_to_identity(self):
        u1 = expm(-1j * np.pi / 2 * EXCHANGE_GEN)
        u2 = expm(1j * np.pi / 2 * EXCHANGE_GEN)
        out = compose_processes(chi_of_unitary(u1), chi_of_unitary(u2))
        assert process_fidelity(identity_process(), out) == pytest.approx(
            1.0, abs=1e-12)

    def test_matches_direct_chi_for_random_pairs(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            u1, u2 = random_unitary(rng), random_unitary(rng)
            direct = chi_of_unitary(u2 @ u1)
            comp = compose_processes(chi_of_unitary(u1), chi_of_unitary(u2))
            assert np.max(np.abs(direct.chi - comp.chi)) < 1e-8


class TestProcessFidelity:
    def test_identical(self):
        rng = np.random.default_rng(10)
        p = chi_of_unitary(random_unitary(rng))
        assert process_fidelity(p, p) == pytest.approx(1.0)

    def test_identity_vs_cz(self):
        cz = chi_of_unitary(np.diag([1, 1, 1, -1]).astype(complex))
        assert process_fidelity(identity_process(), cz) == pytest.approx(
            0.25)

    def test_identity_vs_full_depolarizing(self):
        assert process_fidelity(
            identity_process(), ProcessMatrix(np.eye(16) / 16)
        ) == pytest.approx(1 / 16)


class TestDataset:
    def test_identity_process_rows(self):
        ds = simulate_qpt_dataset(Circuit(2))
        ref = simulate_qpt_dataset(identity_process())
        assert np.allclose(ds.probabilities, ref.probabilities, atol=1e-12)

    def test_cz_distinguishable_from_identity(self):
        cz = Circuit(2, (Gate("CZPHI", (0, 1), np.pi),))
        ds = simulate_qpt_dataset(cz)
        ref = simulate_qpt_dataset(Circuit(2))
        assert np.max(np.abs(ds.probabilities - ref.probabilities)) > 0.2

    def test_depolarizing_uniform(self):
        ds = simulate_qpt_dataset(ProcessMatrix(np.eye(16) / 16))
        assert np.allclose(ds.probabilities, 0.25, atol=1e-12)

    def test_chi_process_with_noise_rejected(self):
        with pytest.raises(ValueError):
            simulate_qpt_dataset(identity_process(), NoiseModel())

    def test_outputs_pass_the_density_check(self):
        # twice the identity doubles the trace; 1.5 on II and -0.5 on XI
        # preserves trace but sends |0><0| to a state with eigenvalue -0.5
        doubled = ProcessMatrix(2 * identity_process().chi)
        with pytest.raises(ValueError, match="trace is not 1"):
            simulate_qpt_dataset(doubled)
        chi = np.zeros((16, 16))
        chi[0, 0], chi[4, 4] = 1.5, -0.5
        with pytest.raises(ValueError, match="not positive semidefinite"):
            simulate_qpt_dataset(ProcessMatrix(chi))


class TestReconstruction:
    def test_identity_dominant_entry(self):
        chi_hat = reconstruct_chi(simulate_qpt_dataset(Circuit(2)))
        assert chi_hat.chi[0, 0].real == pytest.approx(1.0, abs=1e-6)

    def test_exchange_unitary_round_trip(self):
        want = chi_of_unitary(expm(-1j * np.pi / 2 * EXCHANGE_GEN))
        chi_hat = reconstruct_chi(
            simulate_qpt_dataset(hopping_exchange_circuit(1.0)))
        assert process_fidelity(want, chi_hat) >= 0.999

    def test_random_unitaries_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(3):
            u = random_unitary(rng)
            chi_hat = reconstruct_chi(simulate_qpt_dataset(chi_of_unitary(u)))
            assert process_fidelity(chi_of_unitary(u), chi_hat) >= 0.999

    def test_output_always_physical(self):
        # even on slightly perturbed data the output satisfies the
        # constraint set
        rng = np.random.default_rng(12)
        ds = simulate_qpt_dataset(hopping_exchange_circuit(1.0),
                                  NoiseModel())
        probs = ds.probabilities + rng.uniform(-5e-8, 5e-8, (16, 16, 4))
        probs = np.clip(probs, 0, None)
        probs /= probs.sum(axis=2, keepdims=True)
        chi_hat, info = reconstruct_chi(QPTDataset(probs), return_info=True)
        assert chi_hat.is_physical()
        assert info["tp_defect"] <= 1e-6

    @pytest.mark.parametrize("noise_scale", [None, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_clean_data_keeps_the_linear_inversion(self, sign, noise_scale):
        # the exchange halves of anticommutation_fig2d: the seed is
        # physical, so no fit runs, and chi stays within 1.1e-11 of the
        # fit that used to run on every dataset
        noise = None if noise_scale is None else NoiseModel().scaled(
            noise_scale)
        ds = simulate_qpt_dataset(hopping_exchange_circuit(sign), noise)
        chi_hat, info = reconstruct_chi(ds, return_info=True)
        assert info["branch"] == "linear_inversion"
        assert info["iterations"] == 0
        assert chi_hat.is_physical()
        assert np.max(np.abs(chi_hat.chi - always_mle_chi(ds))) <= 1.1e-11

    def test_noiseless_linear_inversion_is_the_exact_chi(self):
        rng = np.random.default_rng(16)
        for u in [np.eye(4), *(random_unitary(rng) for _ in range(3))]:
            chi_hat, info = reconstruct_chi(
                simulate_qpt_dataset(chi_of_unitary(u)), return_info=True)
            assert info["branch"] == "linear_inversion"
            assert np.max(np.abs(chi_hat.chi - chi_of_unitary(u).chi)) \
                <= 1e-13

    def test_non_physical_seed_takes_the_mle(self):
        # the perturbation of test_output_always_physical on noiseless
        # data pushes the rank-1 seed's zero eigenvalues below zero (on
        # the noisy data its smallest eigenvalue stays near 2.4e-3)
        rng = np.random.default_rng(12)
        ds = simulate_qpt_dataset(hopping_exchange_circuit(1.0))
        probs = ds.probabilities + rng.uniform(-5e-8, 5e-8, (16, 16, 4))
        probs = np.clip(probs, 0, None)
        ds = QPTDataset(probs / probs.sum(axis=2, keepdims=True))
        chi_hat, info = reconstruct_chi(ds, return_info=True)
        assert info["branch"] == "mle"
        assert info["iterations"] == 3  # one per penalty stage
        assert chi_hat.is_physical()
        assert info["tp_defect"] <= 1e-6
        assert np.max(np.abs(chi_hat.chi - always_mle_chi(ds))) <= 1e-12

    def test_stability_under_tiny_perturbation(self):
        ds = simulate_qpt_dataset(hopping_exchange_circuit(1.0))
        base = reconstruct_chi(ds)
        rng = np.random.default_rng(13)
        probs = ds.probabilities + rng.uniform(-1e-7, 1e-7, (16, 16, 4))
        probs = np.clip(probs, 0, None)
        probs /= probs.sum(axis=2, keepdims=True)
        wiggled = reconstruct_chi(QPTDataset(probs))
        assert np.max(np.abs(base.chi - wiggled.chi)) < 1e-4

    def test_gradient_matches_finite_differences(self):
        # the analytic Wirtinger gradient in the fit is load-bearing
        rng = np.random.default_rng(14)
        y = simulate_qpt_dataset(Circuit(2)).probabilities.reshape(16, 64)
        x0 = rng.normal(scale=0.2, size=272)
        _, grad = _fit_objective(x0, 10.0, y)
        eps = 1e-6
        for idx in rng.choice(272, size=12, replace=False):
            xp, xm = x0.copy(), x0.copy()
            xp[idx] += eps
            xm[idx] -= eps
            fd = (_fit_objective(xp, 10.0, y)[0]
                  - _fit_objective(xm, 10.0, y)[0]) / (2 * eps)
            assert grad[idx] == pytest.approx(fd, rel=1e-4, abs=1e-6)


class TestPtmModelMatchesDesignMatrix:
    """The fit's PTM model P R^T E^T against the design-matrix model
    W_r chi W_r^dag it replaced, copied above."""

    @staticmethod
    def cholesky_points():
        # 20 generic points and 20 near the seed of a perturbed dataset,
        # where the maximum-likelihood fit starts
        rng = np.random.default_rng(20)
        ds = simulate_qpt_dataset(hopping_exchange_circuit(1.0))
        probs = ds.probabilities + rng.uniform(-5e-8, 5e-8, (16, 16, 4))
        probs = np.clip(probs, 0, None)
        ds = QPTDataset(probs / probs.sum(axis=2, keepdims=True))
        chi0 = _linear_inversion(ds.probabilities.reshape(16, 64))
        vals, vecs = np.linalg.eigh((chi0 + chi0.conj().T) / 2)
        chi0 = (vecs * np.clip(vals, 1e-12, None)) @ vecs.conj().T
        seed = _t_to_params(np.linalg.cholesky(chi0 + 1e-12 * np.eye(16)))
        points = [rng.normal(scale=0.2, size=272) for _ in range(20)]
        points += [seed + rng.normal(scale=1e-3, size=272)
                   for _ in range(20)]
        return ds, points

    @pytest.mark.parametrize("weight", _PENALTY_WEIGHTS)
    def test_objective_matches_the_design_matrix_model(self, weight):
        ds, points = self.cholesky_points()
        w = old_design_matrix()
        for x in points:
            value, grad = _fit_objective(
                x, weight, ds.probabilities.reshape(16, 64))
            old_value, old_grad = old_fit_objective(
                x, weight, w, ds.probabilities.reshape(-1))
            assert abs(value - old_value) <= 1e-12 * abs(old_value)
            assert np.max(np.abs(grad - old_grad)) \
                <= 1e-12 * np.max(np.abs(old_grad))

    def test_tp_operator_matches_the_chi_side_map(self):
        _, points = self.cholesky_points()
        for x in points:
            t = _params_to_t(x)
            chi = t @ t.conj().T
            assert np.max(np.abs(_tp_operator(chi) - old_tp_operator(chi))) \
                <= 1e-13


class TestAnticommutationExperiment:
    def test_noiseless_is_exact(self):
        report = anticommutation_experiment(None)
        assert report["f1"] == pytest.approx(1.0, abs=1e-3)
        assert report["f2"] == pytest.approx(1.0, abs=1e-3)
        assert report["f_composed"] == pytest.approx(1.0, abs=1e-3)

    def test_noisy_brackets(self):
        report = anticommutation_experiment(NoiseModel())
        assert 0.90 <= report["f1"] <= 0.99
        assert 0.90 <= report["f2"] <= 0.99
        assert 0.85 <= report["f_composed"] <= 0.97

    def test_doubled_noise_is_worse(self):
        base = anticommutation_experiment(NoiseModel())
        worse = anticommutation_experiment(NoiseModel().scaled(2.0))
        assert worse["f1"] < base["f1"]
        assert worse["f2"] < base["f2"]
        assert worse["f_composed"] < base["f_composed"]


class TestJson:
    def test_round_trip(self):
        rng = np.random.default_rng(15)
        p = chi_of_unitary(random_unitary(rng))
        payload = p.to_json_dict()
        assert payload["basis"] == BASIS_TAG
        again = ProcessMatrix.from_json(p.to_json())
        assert np.allclose(again.chi, p.chi, atol=1e-12)

    def test_foreign_basis_rejected(self):
        payload = {**identity_process().to_json_dict(),
                   "basis": "IXYZ*IXYZ:column-major"}
        with pytest.raises(ValueError, match="process basis"):
            ProcessMatrix.from_json_dict(payload)
