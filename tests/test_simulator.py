"""Simulator backends: preparation, evolution, occupations, noise, budgets."""
import numpy as np
import pytest
from scipy.linalg import expm

from fermisim.circuits import (
    CIRCUIT_QUBIT_LIMIT,
    CapacityError,
    Circuit,
    Gate,
    gate_census,
)
from fermisim.compiler import compile_evolution, plan_for_model
from fermisim.fermions import (
    occupation_basis_index,
    spin_hamiltonian,
    three_mode_model,
    two_mode_model,
)
from fermisim.pauli import WeightedPauliSum
from fermisim.simulator import (
    DensityState,
    NoiseModel,
    PureState,
    accessible_indices,
    apply_circuit,
    basis_state,
    circuit_channel,
    error_budget,
    evolve_slices,
    exact_evolve,
    exact_trajectory,
    input_circuit,
    lower_circuit,
    mode_occupations,
    other_state_population,
    prepare_input,
    state_fidelity,
)


class TestPreparation:
    def test_two_mode_amplitudes(self):
        st = prepare_input("two_mode")
        want = np.zeros(4)
        want[occupation_basis_index((0, 1))] = 1 / np.sqrt(2)
        want[occupation_basis_index((1, 1))] = 1 / np.sqrt(2)
        assert np.allclose(st.amplitudes, want, atol=1e-12)

    def test_three_mode_two_kets(self):
        st = prepare_input("three_mode")
        nz = np.nonzero(np.abs(st.amplitudes) > 1e-12)[0]
        assert sorted(nz) == sorted(
            [occupation_basis_index((1, 0, 1)),
             occupation_basis_index((1, 1, 0))]
        )
        assert np.allclose(np.abs(st.amplitudes[nz]), 1 / np.sqrt(2))

    def test_four_mode_occupations(self):
        st = prepare_input("four_mode")
        assert np.allclose(mode_occupations(st), [0.5, 0.5, 0.5, 0.5])

    @pytest.mark.parametrize("kind", ["two_mode", "three_mode", "four_mode"])
    def test_circuit_prep_matches_direct(self, kind):
        direct = prepare_input(kind, "direct")
        via_circuit = prepare_input(kind, "circuit")
        overlap = abs(np.vdot(direct.amplitudes, via_circuit.amplitudes)) ** 2
        assert overlap >= 1 - 1e-9

    def test_prep_circuits_use_hardware_gates(self):
        for kind in ("two_mode", "three_mode", "four_mode"):
            for g in input_circuit(kind).gates:
                assert g.kind in ("RY", "PI_X", "CZPHI")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            prepare_input("five_mode")


class TestApplyCircuit:
    def test_identity_circuit(self):
        st = prepare_input("two_mode")
        out = apply_circuit(st, Circuit(2, (Gate("IDLE", (0,)),)))
        assert np.allclose(out.amplitudes, st.amplitudes)

    def test_zero_noise_equals_noiseless(self):
        st = prepare_input("two_mode")
        c = Circuit(2, (Gate("RY", (0,), 0.7), Gate("CZPHI", (0, 1), 1.1)))
        pure = apply_circuit(st, c)
        noisy = apply_circuit(st, c, NoiseModel(0.0, 0.0))
        assert isinstance(noisy, DensityState)
        assert np.allclose(noisy.rho, pure.to_density().rho, atol=1e-12)

    def test_full_depolarization_mixes_support(self):
        # eps = (d-1)/d gives channel probability 1 on a 2-qubit gate
        st = basis_state(2)
        c = Circuit(2, (Gate("CZPHI", (0, 1), np.pi),))
        out = apply_circuit(st, c, NoiseModel(eps_2q=0.75, eps_1q=0.0))
        assert np.allclose(out.rho, np.eye(4) / 4, atol=1e-12)

    def test_norm_and_trace_preserved(self):
        rng = np.random.default_rng(4)
        gates = []
        for _ in range(10):
            kind = rng.choice(["RX", "RY", "CZPHI", "IDLE", "VIRTUAL_Z"])
            if kind == "CZPHI":
                gates.append(Gate("CZPHI", (0, 1), float(rng.uniform(-3, 3))))
            else:
                gates.append(Gate(kind, (int(rng.integers(2)),),
                                  float(rng.uniform(-3, 3))))
        c = Circuit(2, tuple(gates))
        pure = apply_circuit(prepare_input("two_mode"), c)
        assert abs(np.linalg.norm(pure.amplitudes) - 1) < 1e-10
        noisy = apply_circuit(prepare_input("two_mode"), c, NoiseModel())
        assert abs(np.trace(noisy.rho).real - 1) < 1e-10
        assert np.linalg.eigvalsh(noisy.rho).min() > -1e-8

    def test_density_input_stays_density(self):
        rho = DensityState(np.eye(4) / 4, 2)
        out = apply_circuit(rho, Circuit(2, (Gate("RX", (0,), 1.0),)))
        assert isinstance(out, DensityState)
        assert np.allclose(out.rho, np.eye(4) / 4, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_circuit(prepare_input("two_mode"), Circuit(3))

    def test_lowered_circuit_is_reused(self):
        st = prepare_input("two_mode")
        c = Circuit(2, (Gate("RY", (0,), 0.7), Gate("CZPHI", (1, 0), 1.1),
                        Gate("RX", (1,), 0.3)))
        noise = NoiseModel()
        pure = lower_circuit(c, density=False)
        noisy = lower_circuit(c, noise)
        assert np.array_equal(apply_circuit(st, c, lowered=pure).amplitudes,
                              apply_circuit(st, c).amplitudes)
        assert np.array_equal(apply_circuit(st, c, noise, noisy).rho,
                              apply_circuit(st, c, noise).rho)

    def test_lowered_circuit_must_match(self):
        st = prepare_input("two_mode")
        c = Circuit(2, (Gate("RY", (0,), 0.7),))
        other = Circuit(2, (Gate("RY", (0,), 0.7),))
        noisy = lower_circuit(c, NoiseModel())
        for args in ((st, other, NoiseModel()), (st, c, NoiseModel(0.0)),
                     (st, c, None)):
            with pytest.raises(ValueError, match="lowered"):
                apply_circuit(*args, lowered=noisy)
        with pytest.raises(ValueError, match="density"):
            lower_circuit(c, NoiseModel(), density=False)


def _noisy_idle(target, p, n):
    """Kernel run of one idle on ``target`` at channel probability p."""
    noise = NoiseModel(eps_2q=0.0, eps_1q=p / 2)  # p = 2 eps for one qubit
    return Circuit(n, (Gate("IDLE", (target,)),)), noise


class TestDepolarizingKernel:
    def test_full_depolarization_traces_out_target(self):
        # p = 1 replaces the target by I/2 and keeps the reduced rest
        a = np.outer([1, 0], [1, 0]).astype(complex)
        b = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        rho = DensityState(np.kron(a, b), 2)
        mixed = np.eye(2) / 2
        out = apply_circuit(rho, *_noisy_idle(1, 1.0, 2))
        assert np.allclose(out.rho, np.kron(a, mixed), atol=1e-12)
        out = apply_circuit(rho, *_noisy_idle(0, 1.0, 2))
        assert np.allclose(out.rho, np.kron(mixed, b), atol=1e-12)

    def test_matches_pauli_sum_channel(self):
        # the kernel's depolarizing equals the Pauli-sum form
        rng = np.random.default_rng(8)
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = m @ m.conj().T
        rho /= np.trace(rho)
        p = 0.37
        got = apply_circuit(DensityState(rho, 3),
                            *_noisy_idle(1, p, 3)).rho
        paulis = [np.eye(2), np.array([[0, 1], [1, 0]]),
                  np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
        acc = np.zeros_like(rho)
        for sig in paulis:
            full = np.kron(np.kron(np.eye(2), sig), np.eye(2))
            acc += full @ rho @ full.conj().T
        want = (1 - p) * rho + p * acc / 4
        assert np.allclose(got, want, atol=1e-12)


class TestCircuitChannel:
    def test_virtual_gates_are_noiseless(self):
        c = Circuit(1, (Gate("VIRTUAL_Z", (0,), 0.7),
                        Gate("RZ", (0,), -0.2)))
        assert np.allclose(circuit_channel(c, NoiseModel(0.5, 0.5)),
                           circuit_channel(c), atol=1e-15)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            circuit_channel(Circuit(CIRCUIT_QUBIT_LIMIT // 2 + 1))


class TestExactEvolve:
    def test_time_zero(self):
        st = prepare_input("two_mode")
        h = spin_hamiltonian(two_mode_model(1.0, 1.0))
        out = exact_evolve(h, 0.0, st)
        assert np.allclose(out.amplitudes, st.amplitudes, atol=1e-12)

    def test_diagonal_hamiltonian_freezes_probabilities(self):
        h = WeightedPauliSum.from_terms(2, [(0.7, "ZZ"), (0.3, "IZ")])
        st = prepare_input("two_mode")
        out = exact_evolve(h, 2.31, st)
        assert np.allclose(out.probabilities(), st.probabilities(),
                           atol=1e-12)

    def test_hopping_transfer_at_quarter_period(self):
        st = prepare_input("two_mode")
        h = spin_hamiltonian(two_mode_model(1.0, 0.0))
        out = exact_evolve(h, np.pi / 2, st)
        occ = mode_occupations(out)
        assert occ[0] == pytest.approx(1.0, abs=1e-9)
        # cross-check against an expm oracle
        u = expm(-1j * h.to_dense() * (np.pi / 2))
        want = u @ st.amplitudes
        assert abs(abs(np.vdot(want, out.amplitudes)) - 1) < 1e-9

    def test_non_hermitian_rejected(self):
        bad = WeightedPauliSum.from_terms(1, [(1j, "X")])
        with pytest.raises(ValueError):
            exact_evolve(bad, 1.0, basis_state(1))

    @pytest.mark.parametrize("h,state", [
        (WeightedPauliSum.identity(1, 1.0), basis_state(1)),
        (WeightedPauliSum.identity(2, -0.6), prepare_input("two_mode")),
        (spin_hamiltonian(two_mode_model(1.0, 1.0)),
         prepare_input("two_mode")),
    ])
    def test_phase_matches_expm(self, h, state):
        # the offset contributes its global phase exactly once
        t = 1.0
        want = expm(-1j * h.to_dense() * t) @ state.amplitudes
        out = exact_evolve(h, t, state)
        assert np.allclose(out.amplitudes, want, rtol=0, atol=1e-12)


class TestExactTrajectory:
    def test_equals_one_slice_evolution_bit_for_bit(self):
        # each time's state is the one-slice eigendecomposition result
        h = spin_hamiltonian(three_mode_model(1.0, 1.0))
        st = prepare_input("three_mode")
        times = [0.4 * k for k in range(1, 6)]
        for t, out in zip(times, exact_trajectory(h, times, st)):
            want = evolve_slices(h.to_dense()[None], [t], st)[0]
            assert np.array_equal(out.amplitudes, want.amplitudes)

    def test_non_hermitian_rejected(self):
        bad = WeightedPauliSum.from_terms(1, [(1j, "X")])
        with pytest.raises(ValueError, match="Hermitian"):
            exact_trajectory(bad, [1.0, 2.0], basis_state(1))


class TestEvolveSlices:
    def slices(self, count=6):
        rng = np.random.default_rng(3)
        return [spin_hamiltonian(two_mode_model(v, u))
                for v, u in rng.uniform(0, 2, (count, 2))]

    def test_matches_sequential_exact_evolve(self):
        hs = self.slices()
        dts = np.linspace(0.1, 0.6, len(hs))
        state = prepare_input("two_mode")
        out = evolve_slices(np.stack([h.to_dense() for h in hs]), dts, state,
                            every=2)
        assert len(out) == 3
        for k, h in enumerate(hs):
            state = exact_evolve(h, dts[k], state)
            if k % 2 == 1:
                assert np.allclose(out[k // 2].amplitudes, state.amplitudes,
                                   rtol=0, atol=1e-13)

    def test_default_returns_final_state(self):
        hs = np.stack([h.to_dense() for h in self.slices()])
        out = evolve_slices(hs, np.full(len(hs), 0.2),
                            prepare_input("two_mode"))
        assert len(out) == 1

    def test_shape_and_grouping_checked(self):
        hs = np.stack([h.to_dense() for h in self.slices(4)])
        with pytest.raises(ValueError, match="qubit counts"):
            evolve_slices(hs, np.ones(4), prepare_input("three_mode"))
        with pytest.raises(ValueError, match="multiple"):
            evolve_slices(hs, np.ones(4), prepare_input("two_mode"), every=3)


class TestOccupations:
    def test_two_mode_input(self):
        assert np.allclose(mode_occupations(prepare_input("two_mode")),
                           [0.5, 1.0])

    def test_vacuum_is_all_zeros(self):
        vacuum = PureState(
            np.eye(4)[occupation_basis_index((0, 0))].astype(complex), 2
        )
        assert np.allclose(mode_occupations(vacuum), [0.0, 0.0])

    def test_density_backend(self):
        rho = prepare_input("three_mode").to_density()
        assert np.allclose(mode_occupations(rho), [1.0, 0.5, 0.5])


class TestStateFidelity:
    def test_equal_distributions(self):
        p = np.array([0.25, 0.5, 0.25, 0.0])
        assert state_fidelity(p, p) == pytest.approx(1.0)

    def test_disjoint_support(self):
        assert state_fidelity([1, 0], [0, 1]) == pytest.approx(0.0)

    def test_half_overlap(self):
        assert state_fidelity([1, 0], [0.5, 0.5]) == pytest.approx(0.5)

    def test_symmetry(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            a = rng.dirichlet(np.ones(8))
            b = rng.dirichlet(np.ones(8))
            assert state_fidelity(a, b) == pytest.approx(
                state_fidelity(b, a), abs=1e-12)
            assert state_fidelity(a, b) <= 1.0 + 1e-12

    def test_unity_only_when_equal(self):
        a = np.array([0.6, 0.4])
        b = np.array([0.5, 0.5])
        assert state_fidelity(a, b) < 1.0

    def test_renormalisation_and_errors(self):
        assert state_fidelity([0.5000004, 0.5], [0.5, 0.5000004]) == \
            pytest.approx(1.0, abs=1e-6)
        with pytest.raises(ValueError):
            state_fidelity([0.7, 0.7], [0.5, 0.5])
        with pytest.raises(ValueError):
            state_fidelity([-0.1, 1.1], [0.5, 0.5])


class TestErrorBudget:
    def test_published_step_budgets(self):
        noise = NoiseModel()
        two = {"entangling": 6, "microwave": 20, "idle": 6, "detune": 0,
               "virtual": 2}
        three = {"entangling": 12, "microwave": 53, "idle": 19,
                 "detune": 12, "virtual": 3}
        four = {"entangling": 10, "microwave": 56, "idle": 22,
                "detune": 18, "virtual": 2}
        assert error_budget(two, noise) == pytest.approx(0.0668)
        assert error_budget(three, noise) == pytest.approx(0.1584)
        assert error_budget(four, noise) == pytest.approx(0.1524)
        assert round(error_budget(two, noise), 2) == 0.07
        assert round(error_budget(three, noise), 2) == 0.16
        assert round(error_budget(four, noise), 2) == 0.15

    def test_budget_from_compiled_step(self):
        plan = plan_for_model(two_mode_model(1.0, 1.0), 1.2, 1)
        from fermisim.compiler import compile_trotter_step
        census = gate_census(compile_trotter_step(plan, 0))
        assert error_budget(census, NoiseModel()) == pytest.approx(0.0668)


class TestNoiseCalibration:
    def test_channel_probability(self):
        noise = NoiseModel(eps_2q=7.4e-3, eps_1q=8e-4)
        assert noise.channel_probability(2) == pytest.approx(7.4e-3 * 4 / 3)
        assert noise.channel_probability(1) == pytest.approx(1.6e-3)

    def test_average_gate_fidelity_of_channel(self):
        # Haar-average fidelity of the depolarizing channel equals 1 - eps:
        # F_avg = (1 - p) + p / d
        for n_t, eps in ((1, 0.01), (2, 0.02)):
            noise = NoiseModel(eps_2q=eps, eps_1q=eps)
            p = noise.channel_probability(n_t)
            d = 2 ** n_t
            f_avg = (1 - p) + p / d
            assert 1 - f_avg == pytest.approx(eps)

    def test_noisy_step_fidelity_drop_ballpark(self):
        st = prepare_input("two_mode")
        plan = plan_for_model(two_mode_model(1.0, 1.0), 5.0 / 4, 1)
        c = compile_evolution(plan)
        ideal = apply_circuit(st, c)
        noisy = apply_circuit(st, c, NoiseModel())
        f = state_fidelity(ideal.probabilities(), noisy.probabilities())
        assert 0.90 < f < 0.99


class TestOtherStates:
    def test_noiseless_run_stays_accessible(self):
        model = three_mode_model(1.0, 1.0)
        st = prepare_input("three_mode")
        acc = accessible_indices(model.hoppings, 3, st)
        evolved = exact_evolve(spin_hamiltonian(model), 1.7, st)
        assert other_state_population(evolved, acc) == pytest.approx(
            0.0, abs=1e-9)

    def test_three_mode_sector_size(self):
        model = three_mode_model(1.0, 0.0)
        acc = accessible_indices(model.hoppings, 3,
                                 prepare_input("three_mode"))
        assert len(acc) == 3  # two particles on a connected 3-chain

    def test_two_mode_mixed_sectors(self):
        model = two_mode_model(1.0, 1.0)
        acc = accessible_indices(model.hoppings, 2,
                                 prepare_input("two_mode"))
        assert len(acc) == 3  # one- and two-particle sectors, no vacuum

    def test_depolarized_state_leaks(self):
        model = three_mode_model(1.0, 1.0)
        st = prepare_input("three_mode")
        acc = accessible_indices(model.hoppings, 3, st)
        plan = plan_for_model(model, 1.0, 1)
        noisy = apply_circuit(st, compile_evolution(plan), NoiseModel())
        assert other_state_population(noisy, acc) > 1e-3
