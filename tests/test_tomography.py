"""Process tomography: datasets, constrained reconstruction, composition."""
import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import unitary_group

from fermisim.circuits import Circuit, Gate
from fermisim.simulator import NoiseModel
from fermisim.tomography import (
    PAULI_BASIS,
    PAULI_BASIS_LABELS,
    ProcessMatrix,
    QPTDataset,
    anticommutation_experiment,
    chi_of_circuit,
    chi_of_unitary,
    chi_from_superoperator,
    compose_processes,
    depolarizing_process,
    divide_reference,
    hopping_exchange_circuit,
    identity_process,
    process_fidelity,
    reconstruct_chi,
    simulate_qpt_dataset,
    superoperator,
    tomography_rotation,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
EXCHANGE_GEN = (np.kron(SX, SX) + np.kron(SY, SY)) / 2


def random_unitary(rng):
    return unitary_group.rvs(4, random_state=rng)


class TestBasis:
    def test_order_pinned(self):
        assert PAULI_BASIS_LABELS[:5] == ("II", "IX", "IY", "IZ", "XI")
        assert PAULI_BASIS_LABELS[-1] == "ZZ"

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
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = m @ m.conj().T
        rho /= np.trace(rho)
        assert np.allclose(p.apply(rho), u @ rho @ u.conj().T, atol=1e-12)


class TestSuperoperator:
    def test_round_trip(self):
        rng = np.random.default_rng(5)
        p = chi_of_unitary(random_unitary(rng))
        back = chi_from_superoperator(superoperator(p))
        assert np.allclose(back.chi, p.chi, atol=1e-12)

    def test_column_stacking_action(self):
        rng = np.random.default_rng(6)
        u = random_unitary(rng)
        p = chi_of_unitary(u)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = m @ m.conj().T
        rho /= np.trace(rho)
        lhs = (superoperator(p) @ rho.reshape(-1, order="F")
               ).reshape(4, 4, order="F")
        assert np.allclose(lhs, u @ rho @ u.conj().T, atol=1e-12)


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

    def test_divide_reference(self):
        rng = np.random.default_rng(9)
        p = chi_of_unitary(random_unitary(rng))
        assert np.allclose(
            divide_reference(p, identity_process()).chi, p.chi, atol=1e-10)


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
            identity_process(), depolarizing_process(1.0)
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
        ds = simulate_qpt_dataset(depolarizing_process(1.0))
        assert np.allclose(ds.probabilities, 0.25, atol=1e-12)

    def test_csv_round_trip(self):
        ds = simulate_qpt_dataset(Circuit(2, (Gate("RX", (0,), 0.7),)))
        again = QPTDataset.from_csv(ds.to_csv())
        assert np.allclose(again.probabilities, ds.probabilities, atol=1e-10)

    def test_chi_process_with_noise_rejected(self):
        with pytest.raises(ValueError):
            simulate_qpt_dataset(identity_process(), NoiseModel())


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
        from fermisim.tomography import _design_matrix, _fit_objective
        rng = np.random.default_rng(14)
        w = _design_matrix()
        y = simulate_qpt_dataset(Circuit(2)).probabilities.reshape(-1)
        x0 = rng.normal(scale=0.2, size=272)
        _, grad = _fit_objective(x0, 10.0, w, y)
        eps = 1e-6
        for idx in rng.choice(272, size=12, replace=False):
            xp, xm = x0.copy(), x0.copy()
            xp[idx] += eps
            xm[idx] -= eps
            fd = (_fit_objective(xp, 10.0, w, y)[0]
                  - _fit_objective(xm, 10.0, w, y)[0]) / (2 * eps)
            assert grad[idx] == pytest.approx(fd, rel=1e-4, abs=1e-6)


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
        again = ProcessMatrix.from_json(p.to_json())
        assert np.allclose(again.chi, p.chi, atol=1e-12)
        assert again.basis == p.basis
