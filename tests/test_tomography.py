"""Process tomography: datasets, constrained reconstruction, composition."""
import subprocess
import sys

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
    _linear_inversion,
    _qpt_table,
    _qpt_vectors,
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


def planted_dataset(amplitude, seed=12, noise=None):
    """The sign=+1 exchange half's dataset with a uniform +-amplitude
    perturbation, clipped and renormalised."""
    ds = simulate_qpt_dataset(hopping_exchange_circuit(1.0), noise)
    rng = np.random.default_rng(seed)
    probs = ds.probabilities + rng.uniform(-amplitude, amplitude,
                                           (16, 16, 4))
    probs = np.clip(probs, 0, None)
    return QPTDataset(probs / probs.sum(axis=2, keepdims=True))


def misfit(chi, ds):
    """|P R^T E^T - y|^2 of chi's PTM R against the dataset's table."""
    y = ds.probabilities.reshape(16, 64)
    table = _qpt_table(ptm_of_chi(ProcessMatrix(chi)))[1]
    return float(np.sum((table - y) ** 2))


def kkt_violation(chi, ds):
    """(most negative eigenvalue of Z, max |Z chi|) for the dual
    certificate Z of chi as the solution of min |P R^T E^T - y|^2 over
    real PTMs R with R[0] = e_0 and chi(R) PSD.

    Stationarity asks the misfit gradient G = 2 E^T resid^T P, plus a
    multiplier lambda on row 0, to be the adjoint of the chi map applied
    to Z, which is chi_of_ptm(G + e_0 lambda^T) up to a positive factor;
    lambda is the least-squares choice for Z chi = 0.  chi is optimal
    when Z is PSD and annihilates the range of chi."""
    preparations, effects, _, _ = _qpt_vectors()
    resid = _qpt_table(ptm_of_chi(ProcessMatrix(chi)))[1] \
        - ds.probabilities.reshape(16, 64)
    z0 = chi_of_ptm(2.0 * effects.T @ resid.T @ preparations).chi
    zs = np.stack([chi_of_ptm(np.outer(np.eye(16)[0], e)).chi
                   for e in np.eye(16)])
    a = (zs @ chi).reshape(16, -1).T
    b = -(z0 @ chi).reshape(-1)
    lam = np.linalg.lstsq(np.concatenate([a.real, a.imag]),
                          np.concatenate([b.real, b.imag]), rcond=None)[0]
    z = z0 + np.tensordot(lam, zs, 1)
    return (np.linalg.eigvalsh((z + z.conj().T) / 2).min(),
            np.max(np.abs(z @ chi)))


def apply_ptm(ptm, rho):
    """rho through a PTM: its Pauli vector tr(P rho), mapped, summed back
    as sum_P r_P P / 4."""
    r = np.einsum("pab,ba->p", PAULI_BASIS, rho).real
    return np.einsum("p,pab->ab", ptm @ r, PAULI_BASIS) / 4


# -- the design-matrix model and its penalised Cholesky fit, before ADMM ---

TRIL = np.tril_indices(16)
OLD_PENALTY_WEIGHTS = (1e2, 1e4, 1e6)
OLD_MAX_ITERATIONS = 400  # L-BFGS-B iteration cap of each penalty stage


def params_to_t(x):
    t = np.zeros((16, 16), dtype=complex)
    half = len(x) // 2
    t[TRIL] = x[:half] + 1j * x[half:]
    return t


def t_to_params(t):
    vals = t[TRIL]
    return np.concatenate([vals.real, vals.imag])


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
    t = params_to_t(x)
    chi = t @ t.conj().T
    resid = np.einsum("rm,rm->r", w @ chi, w.conj()).real - y
    defect = old_tp_operator(chi)
    value = float(np.sum(resid ** 2)) \
        + weight * float(np.sum(np.abs(defect) ** 2))
    g_chi = 2.0 * (w.T @ (resid[:, None] * w.conj()))
    g_chi += 2.0 * weight * (OLD_TP_MAP @ defect.T.reshape(-1)).reshape(
        16, 16)
    d_tbar = g_chi.conj() @ t
    grad = np.concatenate([2 * d_tbar.real[TRIL], 2 * d_tbar.imag[TRIL]])
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
    x = t_to_params(np.linalg.cholesky(chi0 + 1e-12 * np.eye(16)))
    for weight in OLD_PENALTY_WEIGHTS:
        result = minimize(old_fit_objective, x, args=(weight, w, y),
                          jac=True, method="L-BFGS-B",
                          options={"maxiter": OLD_MAX_ITERATIONS})
        assert result.success
        x = result.x
    t = params_to_t(x)
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
        assert info["primal_residual"] == info["dual_residual"] == 0.0
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
        ds = planted_dataset(5e-8)
        chi_hat, info = reconstruct_chi(ds, return_info=True)
        assert info["branch"] == "mle"
        assert info["primal_residual"] <= 1e-12
        assert info["dual_residual"] <= 1e-12
        assert chi_hat.is_physical()
        assert info["tp_defect"] <= 1e-6
        # measured 4.8e-13 against the penalised fit's 2.7e-12
        assert misfit(chi_hat.chi, ds) <= misfit(always_mle_chi(ds), ds)

    def test_effects_do_not_couple_the_identity_row(self):
        # the ADMM R-step holds row 0 of R at e_0 and solves for the rest
        # alone; that needs (E^T E)[i, 0] = 0 for i > 0
        _, effects, _, _ = _qpt_vectors()
        assert np.max(np.abs((effects.T @ effects)[1:, 0])) <= 1e-15

    def test_admm_system_built_on_first_fit_only(self):
        # the linear-inversion branch, the one every experiment takes,
        # never builds the ADMM R-step inverse
        code = "\n".join([
            "import fermisim.tomography as t",
            "assert t._admm_r_step.cache_info().currsize == 0",
            "t.reconstruct_chi(t.simulate_qpt_dataset(",
            "    t.hopping_exchange_circuit(1.0)))",
            "assert t._admm_r_step.cache_info().currsize == 0",
        ])
        subprocess.run([sys.executable, "-c", code], check=True)

    @pytest.mark.parametrize("amplitude", [1e-6, 1e-4])
    def test_misfit_at_most_the_penalised_fit(self, amplitude):
        ds = planted_dataset(amplitude)
        chi_hat, info = reconstruct_chi(ds, return_info=True)
        assert info["branch"] == "mle"
        assert misfit(chi_hat.chi, ds) <= misfit(always_mle_chi(ds), ds)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("noise_scale", [None, 0.25, 0.5])
    def test_finite_shot_scale_perturbation_converges(self, noise_scale,
                                                      seed):
        # the penalised Cholesky fit hit its iteration cap and raised on
        # every dataset of this kind
        noise = None if noise_scale is None else NoiseModel().scaled(
            noise_scale)
        chi_hat, info = reconstruct_chi(
            planted_dataset(5e-3, seed, noise), return_info=True)
        assert info["branch"] == "mle"
        assert info["primal_residual"] <= 1e-12
        assert info["dual_residual"] <= 1e-12
        assert chi_hat.is_physical()
        assert chi_hat.tp_defect() <= 1e-11

    @pytest.mark.parametrize("amplitude", [5e-8, 1e-4, 5e-3])
    def test_fit_passes_the_kkt_certificate(self, amplitude):
        # the penalised fit missed it by 4e-9 (5e-8) to 8e-4 (1e-4)
        ds = planted_dataset(amplitude)
        chi_hat, info = reconstruct_chi(ds, return_info=True)
        assert info["branch"] == "mle"
        min_eig, leak = kkt_violation(chi_hat.chi, ds)
        assert min_eig >= -1e-10
        assert leak <= 1e-10

    def test_stability_under_tiny_perturbation(self):
        ds = simulate_qpt_dataset(hopping_exchange_circuit(1.0))
        base = reconstruct_chi(ds)
        rng = np.random.default_rng(13)
        probs = ds.probabilities + rng.uniform(-1e-7, 1e-7, (16, 16, 4))
        probs = np.clip(probs, 0, None)
        probs /= probs.sum(axis=2, keepdims=True)
        wiggled = reconstruct_chi(QPTDataset(probs))
        assert np.max(np.abs(base.chi - wiggled.chi)) < 1e-4


class TestPtmModelMatchesDesignMatrix:
    """The PTM model's TP defect against the chi-side map of the
    design-matrix model it replaced, copied above."""

    @staticmethod
    def cholesky_points():
        # 20 generic points and 20 near the Cholesky seed of a perturbed
        # dataset, where the penalised fit started
        rng = np.random.default_rng(20)
        ds = simulate_qpt_dataset(hopping_exchange_circuit(1.0))
        probs = ds.probabilities + rng.uniform(-5e-8, 5e-8, (16, 16, 4))
        probs = np.clip(probs, 0, None)
        ds = QPTDataset(probs / probs.sum(axis=2, keepdims=True))
        chi0 = _linear_inversion(ds.probabilities.reshape(16, 64))
        vals, vecs = np.linalg.eigh((chi0 + chi0.conj().T) / 2)
        chi0 = (vecs * np.clip(vals, 1e-12, None)) @ vecs.conj().T
        seed = t_to_params(np.linalg.cholesky(chi0 + 1e-12 * np.eye(16)))
        points = [rng.normal(scale=0.2, size=272) for _ in range(20)]
        points += [seed + rng.normal(scale=1e-3, size=272)
                   for _ in range(20)]
        return points

    def test_tp_operator_matches_the_chi_side_map(self):
        for x in self.cholesky_points():
            t = params_to_t(x)
            chi = t @ t.conj().T
            assert np.max(np.abs(_tp_operator(chi) - old_tp_operator(chi))) \
                <= 1e-13


class TestAnticommutationExperiment:
    @pytest.mark.parametrize("noise_scale", [None, 1.0])
    def test_ideal_halves_match_expm(self, noise_scale):
        # the experiment builds exp(-+i (pi/2) G) in closed form
        noise = None if noise_scale is None else NoiseModel().scaled(
            noise_scale)
        report, chis = anticommutation_experiment(noise,
                                                  return_processes=True)
        for key, half, sign in (("f1", "first", -1), ("f2", "second", 1)):
            ideal = chi_of_unitary(expm(sign * 1j * np.pi / 2
                                        * EXCHANGE_GEN))
            assert abs(report[key] - process_fidelity(ideal, chis[half])) \
                <= 1e-15

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
