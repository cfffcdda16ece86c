"""Simulator backends: preparation, evolution, occupations, noise, budgets."""
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import fermisim.experiments as experiments
import fermisim.simulator as simulator
from fermisim.circuits import (
    CIRCUIT_QUBIT_LIMIT,
    CapacityError,
    Circuit,
    Gate,
    gate_census,
)
from fermisim.compiler import compile_evolution, plan_for_model
from fermisim.experiments import (
    ExperimentConfig,
    MAX_STEPS,
    _model_checkpoints,
    reachable_indices,
    run,
)
from fermisim.fermions import (
    coupling_matrices,
    four_mode_ahm,
    index_occupations,
    occupation_basis_index,
    occupation_matrix,
    spin_hamiltonian,
    three_mode_model,
    two_mode_model,
)
from fermisim.pauli import WeightedPauliSum
from fermisim.simulator import (
    DensityState,
    MAX_PHASE,
    NoiseModel,
    PureState,
    apply_circuit,
    circuit_channel,
    error_budget,
    evolve_constant,
    evolve_slices,
    exact_evolve,
    invariant_support,
    lower_circuit,
    mode_occupations,
    prepare_input,
    scatter_block,
    state_fidelity,
)
from helpers import basis_state, broadcast_constant, input_circuit


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
        direct = prepare_input(kind)
        n = direct.qubit_count
        via_circuit = apply_circuit(basis_state(n), input_circuit(kind))
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
        # one lowering serves the pure backend and the noisy density one
        st = prepare_input("two_mode")
        c = Circuit(2, (Gate("RY", (0,), 0.7), Gate("CZPHI", (1, 0), 1.1),
                        Gate("IDLE", (0,)), Gate("RX", (1,), 0.3)))
        noise = NoiseModel()
        lowered = lower_circuit(c, noise)
        assert np.array_equal(apply_circuit(st, c, lowered=lowered).amplitudes,
                              apply_circuit(st, c).amplitudes)
        assert np.array_equal(apply_circuit(st, c, noise, lowered).rho,
                              apply_circuit(st, c, noise).rho)
        rho = st.to_density()
        assert np.array_equal(apply_circuit(rho, c, noise, lowered).rho,
                              apply_circuit(rho, c, noise).rho)

    def test_lowered_circuit_must_match(self):
        st = prepare_input("two_mode")
        c = Circuit(2, (Gate("RY", (0,), 0.7),))
        other = Circuit(2, (Gate("RY", (0,), 0.7),))
        noisy = lower_circuit(c, NoiseModel())
        for args in ((st, other, NoiseModel()), (st, c, NoiseModel(0.0)),
                     (st.to_density(), c, None), (st, other, None)):
            with pytest.raises(ValueError, match="lowered"):
                apply_circuit(*args, lowered=noisy)


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


def per_slice_reference(hs, durations, amps, every):
    """exp(-i H_k dt_k) applied to the amplitudes one slice at a time."""
    vals, vecs = np.linalg.eigh(hs)
    out = []
    for k, (v, lam, dt) in enumerate(zip(vecs, vals, durations), 1):
        amps = v @ (np.exp(-1j * lam * dt) * (v.conj().T @ amps))
        if k % every == 0:
            out.append(amps)
    return out


class TestEvolveSlices:
    @pytest.mark.parametrize("qubits", [2, 3])
    @pytest.mark.parametrize("every", [1, 2, 3, 7, 20, 600])
    def test_window_products_match_per_slice_loop(self, qubits, every):
        rng = np.random.default_rng(10 * every + qubits)
        dim = 2 ** qubits
        m = rng.normal(size=(3 * every, dim, dim))
        hs = m + m.transpose(0, 2, 1)
        durations = rng.uniform(0.5, 1.5, len(hs)) / every
        amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        state = PureState(amps / np.linalg.norm(amps), qubits)
        out = evolve_slices(hs, durations, state.amplitudes, every)
        want = per_slice_reference(hs, durations, state.amplitudes, every)
        assert out.shape == (3, dim) and len(want) == 3
        for got, ref in zip(out, want):
            assert np.max(np.abs(got - ref)) <= 1e-13

    def test_constant_stack_matches_expm(self):
        # a constant stack, one slice of dt per step, and the
        # constant-coupling checkpoints' closed form
        model = four_mode_ahm(1.0, 1.0, 0.0, 1.0)
        h = spin_hamiltonian(model).to_dense()
        psi = prepare_input("four_mode")
        dt = 0.37
        direct = evolve_slices(np.broadcast_to(h, (8, 16, 16)),
                               np.full(8, dt), psi.amplitudes, 1)
        times, _, stack = _model_checkpoints(model, 8 * dt, 8,
                                             "canonical_s5")
        assert direct.shape == stack.shape == (8, 16)
        for k, (got, t, state) in enumerate(zip(direct, times, stack), 1):
            want = expm(-1j * h * k * dt) @ psi.amplitudes
            assert t == pytest.approx(k * dt, rel=1e-15)
            for out in (got, state):
                assert np.max(np.abs(out - want)) <= 1e-12

    def slices(self, count=6):
        rng = np.random.default_rng(3)
        return [spin_hamiltonian(two_mode_model(v, u))
                for v, u in rng.uniform(0, 2, (count, 2))]

    def test_matches_sequential_exact_evolve(self):
        hs = self.slices()
        dts = np.linspace(0.1, 0.6, len(hs))
        state = prepare_input("two_mode")
        out = on_support(np.stack([h.to_dense() for h in hs]), dts, state,
                         every=2)
        assert len(out) == 3
        for k, h in enumerate(hs):
            state = exact_evolve(h, dts[k], state)
            if k % 2 == 1:
                assert np.allclose(out[k // 2], state.amplitudes,
                                   rtol=0, atol=1e-13)

    def test_shape_and_grouping_checked(self):
        hs = np.stack([h.to_dense() for h in self.slices(4)])
        with pytest.raises(ValueError, match="dimensions differ"):
            evolve_slices(hs, np.ones(4), prepare_input("three_mode")
                          .amplitudes, 4)
        with pytest.raises(ValueError, match="multiple"):
            evolve_slices(hs, np.ones(4), prepare_input("two_mode")
                          .amplitudes, 3)

    def test_overflowing_phase_raises(self):
        # a finite but huge duration used to give NaN amplitudes
        hs = np.stack([h.to_dense() for h in self.slices(2)])
        with pytest.raises(FloatingPointError, match="overflow"):
            on_support(hs, np.full(2, 1.7e308), prepare_input("two_mode"),
                       every=2)

    def test_norm_drift_is_a_numerical_failure(self, monkeypatch):
        # the input is a checked state: a row off unit norm is rounding
        hs = np.stack([h.to_dense() for h in self.slices()])
        state = prepare_input("two_mode")
        monkeypatch.setattr(simulator, "NORM_TOL", 0.0)
        with pytest.raises(FloatingPointError, match=(
                r"^state is not normalised: "
                r"max \|norm - 1\| = [1-9]")):
            on_support(hs, np.full(len(hs), 0.2), state, every=2)

    @pytest.mark.parametrize("late", [0, 1])
    def test_slice_phase_past_its_digits_raises(self, late):
        # each slice's own max |lambda dt_k|, at either end of its
        # spectrum, not the sum over slices
        hs = np.stack([np.diag([1.0, -2.0]), np.diag([2.0, -1.0])])
        amps = np.array([1.0, 0.0], dtype=complex)
        evolve_slices(hs, np.full(2, MAX_PHASE / 2), amps, 1)
        durations = np.full(2, MAX_PHASE / 2)
        durations[late] = np.nextafter(MAX_PHASE / 2, np.inf)
        with pytest.raises(FloatingPointError, match="exceeds"):
            evolve_slices(hs, durations, amps, 1)

    @pytest.mark.parametrize("durations", [
        [0.2],             # used to broadcast over all four slices
        np.full(3, 0.2),
        np.full(5, 0.2),
        np.full((4, 1), 0.2),
        0.2,
    ])
    def test_one_duration_per_slice(self, durations):
        hs = np.stack([h.to_dense() for h in self.slices(4)])
        with pytest.raises(ValueError, match="one entry per slice"):
            on_support(hs, durations, prepare_input("two_mode"), every=4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_duration_rejected(self, bad):
        # a NaN duration used to surface as "state is not normalised"
        hs = np.stack([h.to_dense() for h in self.slices(4)])
        durations = np.full(4, 0.2)
        durations[2] = bad
        with pytest.raises(ValueError, match="finite"):
            on_support(hs, durations, prepare_input("two_mode"), every=4)


def on_support(hs, durations, state, every):
    """evolve_slices on the state's invariant support, its (windows, k)
    rows scattered back to the full space."""
    block = invariant_support(hs, state.amplitudes)
    rows = evolve_slices(hs[:, block[:, None], block], durations,
                         state.amplitudes[block], every)
    return scatter_block(rows, block, len(state.amplitudes))


def full_space_evolution(hs, durations, amps, every):
    """The propagation arithmetic on the full space, as it was before
    the invariant-subspace restriction."""
    dim = len(amps)
    vals, vecs = np.linalg.eigh(hs)
    phases = np.exp(-1j * vals * np.asarray(durations, float)[:, None])
    props = (vecs * phases[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
    props = props.reshape(-1, every, dim, dim)
    while props.shape[1] > 1:
        if props.shape[1] % 2:
            pad = np.broadcast_to(np.eye(dim), (len(props), 1, dim, dim))
            props = np.concatenate([props, pad], axis=1)
        props = props[:, 1::2] @ props[:, 0::2]
    out = []
    for u in props[:, 0]:
        amps = u @ amps
        out.append(amps)
    return out


def planted_blocks(seed, qubits, block_count, slices):
    """A random Hermitian (slices, d, d) stack that is block diagonal on
    ``block_count`` random index sets (a random basis permutation cut
    into pieces), with the blocks."""
    rng = np.random.default_rng(seed)
    dim = 2 ** qubits
    cuts = np.sort(rng.choice(np.arange(1, dim), block_count - 1,
                              replace=False))
    blocks = np.split(rng.permutation(dim), cuts)
    hs = np.zeros((slices, dim, dim), dtype=complex)
    for b in blocks:
        m = rng.normal(size=(slices, len(b), len(b))) \
            + 1j * rng.normal(size=(slices, len(b), len(b)))
        hs[:, b[:, None], b] = m + m.conj().transpose(0, 2, 1)
    return rng, hs, blocks


def state_on(rng, indices, qubits):
    amps = np.zeros(2 ** qubits, dtype=complex)
    amps[indices] = rng.normal(size=len(indices)) \
        + 1j * rng.normal(size=len(indices))
    return PureState(amps / np.linalg.norm(amps), qubits)


planted = st.tuples(st.integers(0, 2 ** 32 - 1),  # seed
                    st.integers(2, 4),            # qubits
                    st.integers(2, 4),            # blocks
                    st.integers(1, 12),           # every
                    st.integers(1, 3))            # windows


class TestInvariantSupport:
    @settings(max_examples=60, deadline=None, database=None)
    @given(planted, st.integers(1, 2))
    def test_planted_blocks(self, params, support_blocks):
        seed, qubits, block_count, every, windows = params
        rng, hs, blocks = planted_blocks(seed, qubits, block_count,
                                         every * windows)
        chosen = blocks[:support_blocks]
        closure = np.sort(np.concatenate(chosen))
        state = state_on(rng, np.concatenate(
            [rng.choice(b, rng.integers(1, len(b) + 1), replace=False)
             for b in chosen]), qubits)
        assert np.array_equal(invariant_support(hs, state.amplitudes),
                              closure)
        durations = rng.uniform(0.5, 1.5, len(hs)) / every
        out = on_support(hs, durations, state, every)
        want = per_slice_reference(hs, durations, state.amplitudes, every)
        assert len(out) == len(want) == windows
        outside = np.setdiff1d(np.arange(2 ** qubits), closure)
        for got, ref in zip(out, want):
            assert np.max(np.abs(got - ref)) <= 1e-13
            assert np.all(got[outside] == 0)

    @settings(max_examples=40, deadline=None, database=None)
    @given(planted, st.data())
    def test_one_coupling_slice_widens_the_closure(self, params, data):
        seed, qubits, block_count, every, windows = params
        rng, hs, blocks = planted_blocks(seed, qubits, block_count,
                                         every * windows)
        state = state_on(rng, blocks[0], qubits)
        k = data.draw(st.integers(0, len(hs) - 1), label="slice")
        a = data.draw(st.sampled_from(sorted(blocks[0])), label="inside")
        b = data.draw(st.sampled_from(sorted(blocks[1])), label="outside")
        hs[k, a, b] = 0.3 - 0.4j
        hs[k, b, a] = 0.3 + 0.4j
        closure = invariant_support(hs, state.amplitudes)
        assert set(blocks[0]) | set(blocks[1]) <= set(closure)
        durations = rng.uniform(0.5, 1.5, len(hs)) / every
        out = on_support(hs, durations, state, every)
        want = per_slice_reference(hs, durations, state.amplitudes, every)
        assert len(out) == len(want) == windows
        for got, ref in zip(out, want):
            assert np.max(np.abs(got - ref)) <= 1e-13
        # the final state has passed the coupling slice
        assert np.any(out[-1][blocks[1]] != 0)

    @pytest.mark.parametrize("qubits", [2, 3])
    @pytest.mark.parametrize("every", [1, 5, 8])
    def test_full_support_is_bit_identical(self, qubits, every):
        rng = np.random.default_rng(every + qubits)
        dim = 2 ** qubits
        m = rng.normal(size=(2 * every, dim, dim))
        hs = m + m.transpose(0, 2, 1)
        durations = rng.uniform(0.5, 1.5, len(hs)) / every
        state = state_on(rng, np.arange(dim), qubits)
        block = invariant_support(hs, state.amplitudes)
        assert np.array_equal(block, np.arange(dim))
        # the support block, cut as a caller cuts it, and the full stack
        out = evolve_slices(hs[:, block[:, None], block], durations,
                            state.amplitudes[block], every)
        assert np.array_equal(out, evolve_slices(hs, durations,
                                                 state.amplitudes, every))
        want = full_space_evolution(hs, durations, state.amplitudes, every)
        for got, ref in zip(out, want):
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("modes, kind, size", [
        (2, "two_mode", 3),    # one- and two-particle sectors
        (3, "three_mode", 3),  # the two-particle sector
    ])
    def test_schedule_model_closure(self, modes, kind, size):
        hs = np.stack(coupling_matrices(modes))
        assert len(invariant_support(hs, prepare_input(kind).amplitudes)) \
            == size

    def test_four_mode_closure(self):
        h = spin_hamiltonian(four_mode_ahm(1.0, 1.0, 0.0, 1.0)).to_dense()
        psi = prepare_input("four_mode")
        closure = invariant_support(h[None], psi.amplitudes)
        assert len(closure) == 4
        assert np.array_equal(closure, np.flatnonzero(psi.amplitudes))


FIXED_COUPLING = [
    # each fixed-coupling model at its experiments' total time for
    # MAX_STEPS steps: fig3 5.0, fig4_* the step count, digital_error_s4 3.0
    (two_mode_model(1.0, 1.0), 5.0),
    (three_mode_model(1.0, 0.0), float(MAX_STEPS)),
    (three_mode_model(1.0, 1.0), float(MAX_STEPS)),
    (four_mode_ahm(1.0, 1.0, 0.0, 1.0), float(MAX_STEPS)),
    (three_mode_model(1.0, 0.0), 3.0),
    (three_mode_model(1.0, 1.0), 3.0),
    (four_mode_ahm(1.0, 1.0, 0.0, 1.0), 3.0),
]


class TestEvolveConstant:
    @settings(max_examples=60, deadline=None, database=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 4),
           st.integers(1, 3),
           st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=5))
    def test_rows_match_expm(self, seed, qubits, block_count, times):
        rng, hs, blocks = planted_blocks(seed, qubits, block_count, 1)
        state = state_on(rng, blocks[0], qubits)
        block = invariant_support(hs, state.amplitudes)
        assert np.array_equal(block, np.sort(blocks[0]))
        out = scatter_block(evolve_constant(hs[0][block[:, None], block],
                                            times, state.amplitudes[block]),
                            block, 2 ** qubits)
        assert out.shape == (len(times), 2 ** qubits)
        for row, t in zip(out, times):
            want = expm(-1j * hs[0] * t) @ state.amplitudes
            assert np.max(np.abs(row - want)) <= 1e-12

    @pytest.mark.parametrize("model,total_time", FIXED_COUPLING)
    def test_most_steps_against_the_sliced_path(self, model, total_time):
        # every row from t = 0: no drift builds up over the rows
        n = model.mode_count
        psi = prepare_input({2: "two_mode", 3: "three_mode",
                             4: "four_mode"}[n])
        times, _, stack = _model_checkpoints(model, total_time, MAX_STEPS,
                                             "canonical_s5")
        assert stack.shape == (MAX_STEPS, 2 ** n)
        assert np.max(np.abs((np.abs(stack) ** 2).sum(axis=1) - 1)) <= 1e-14
        sliced = broadcast_constant(spin_hamiltonian(model).to_dense(),
                                    times, psi.amplitudes)
        assert np.max(np.abs(stack - sliced)) <= 1e-12

    def test_one_eigendecomposition_per_series(self, tmp_path, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        def sliced(*args, **kwargs):
            raise AssertionError("a fixed coupling reached evolve_slices")

        monkeypatch.setattr(np.linalg, "eigh", counting)
        monkeypatch.setattr(simulator, "evolve_slices", sliced)
        monkeypatch.setattr(experiments, "evolve_slices", sliced)
        for experiment, series in (("fig3", 8), ("fig4_3mode", 2),
                                   ("fig4_4mode", 1),
                                   ("digital_error_s4", 12)):
            calls.clear()
            run(ExperimentConfig(experiment, str(tmp_path / experiment)))
            assert len(calls) == series, experiment
            assert all(len(shape) == 2 for shape in calls), experiment
        calls.clear()
        exact_evolve(spin_hamiltonian(two_mode_model(1.0, 1.0)), 1.0,
                     prepare_input("two_mode"))
        assert calls == [(3, 3)]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_exact_evolve_rejects_a_non_finite_time(self, bad):
        h = spin_hamiltonian(two_mode_model(1.0, 1.0))
        with pytest.raises(ValueError, match="finite"):
            exact_evolve(h, bad, prepare_input("two_mode"))

    def test_exact_evolve_rejects_other_qubit_counts(self):
        h = spin_hamiltonian(two_mode_model(1.0, 1.0))
        with pytest.raises(ValueError, match="qubit counts"):
            exact_evolve(h, 1.0, prepare_input("three_mode"))

    def test_exact_evolve_overflowing_phase_raises(self):
        # |lambda| t beyond the float range on the input's support
        h = spin_hamiltonian(two_mode_model(2.0, 1.0))
        with pytest.raises(FloatingPointError, match="overflow"):
            exact_evolve(h, 1.7e308, prepare_input("two_mode"))

    @pytest.mark.parametrize("t", [1e5, 1e15, 1.7e308])
    def test_exact_evolve_phase_past_its_digits_raises(self, t):
        # spectrum +-1 on the input's support: lambda t does not
        # overflow, but it has lost the digits of the 1e-12 rule
        h = spin_hamiltonian(two_mode_model(1.0, 1.0))
        with pytest.raises(FloatingPointError, match="exceeds"):
            exact_evolve(h, t, prepare_input("two_mode"))

    def test_phase_bound_is_inclusive(self):
        h = np.diag([0.5, -1.0])
        amps = np.array([0.6, 0.8j])
        assert evolve_constant(h, [0.0, -MAX_PHASE], amps).shape == (2, 2)
        with pytest.raises(FloatingPointError, match="exceeds"):
            evolve_constant(h, [np.nextafter(MAX_PHASE, np.inf)], amps)

    @pytest.mark.parametrize("times", [[[0.2]], 0.2])
    def test_times_must_be_one_dimensional(self, times):
        h = spin_hamiltonian(two_mode_model(1.0, 1.0)).to_dense()
        with pytest.raises(ValueError, match="1-D"):
            evolve_constant(h, times, prepare_input("two_mode").amplitudes)

    def test_norm_drift_is_a_numerical_failure(self, monkeypatch):
        h = spin_hamiltonian(two_mode_model(1.0, 1.0)).to_dense()
        state = prepare_input("two_mode")
        block = invariant_support(h[None], state.amplitudes)
        monkeypatch.setattr(simulator, "NORM_TOL", 0.0)
        with pytest.raises(FloatingPointError, match=(
                r"^state is not normalised: "
                r"max \|norm - 1\| = [1-9]")):
            evolve_constant(h[block[:, None], block],
                            np.linspace(0.1, 5.0, 50),
                            state.amplitudes[block])


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

    @pytest.mark.parametrize("qubits", [1, 2, 3, 4])
    def test_bit_identical_to_per_call_matrix(self, qubits):
        rng = np.random.default_rng(qubits)
        occ = np.array(index_occupations(np.arange(2 ** qubits), qubits))
        for _ in range(20):
            state = state_on(rng, np.arange(2 ** qubits), qubits)
            for s in (state, state.to_density()):
                assert np.array_equal(mode_occupations(s),
                                      occ @ s.probabilities())

    def test_matrix_cached_read_only(self):
        occ = occupation_matrix(3)
        assert occupation_matrix(3) is occ
        assert occ.shape == (3, 8)
        with pytest.raises(ValueError):
            occ[0, 0] = 2

    def test_matrix_not_built_at_import(self):
        code = ("import fermisim, fermisim.fermions as f; "
                "assert f.occupation_matrix.cache_info().currsize == 0")
        subprocess.run([sys.executable, "-c", code], check=True)


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

    def test_nan_fails_the_guards(self):
        with pytest.raises(ValueError, match="sum to nan"):
            state_fidelity([np.nan, 0.5], [0.5, 0.5])
        with pytest.raises(ValueError, match="not normalised"):
            PureState(np.array([np.nan, 0.0], dtype=complex), 1)
        with pytest.raises(ValueError, match="trace"):
            DensityState(np.diag([np.nan, 0.0]), 1)


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


def other_population(state, model) -> float:
    return 1.0 - state.probabilities()[reachable_indices(model)].sum()


class TestOtherStates:
    def test_noiseless_run_stays_accessible(self):
        model = three_mode_model(1.0, 1.0)
        st = prepare_input("three_mode")
        evolved = exact_evolve(spin_hamiltonian(model), 1.7, st)
        assert other_population(evolved, model) == pytest.approx(
            0.0, abs=1e-9)

    def test_three_mode_sector_size(self):
        # two particles on a connected 3-chain
        assert len(reachable_indices(three_mode_model(1.0, 0.0))) == 3

    def test_two_mode_mixed_sectors(self):
        # one- and two-particle sectors, no vacuum
        assert len(reachable_indices(two_mode_model(1.0, 1.0))) == 3

    def test_depolarized_state_leaks(self):
        model = three_mode_model(1.0, 1.0)
        st = prepare_input("three_mode")
        plan = plan_for_model(model, 1.0, 1)
        noisy = apply_circuit(st, compile_evolution(plan), NoiseModel())
        assert other_population(noisy, model) > 1e-3

    @pytest.mark.parametrize("model, want", [
        (two_mode_model(1.0, 1.0), [0, 1, 2]),
        (three_mode_model(1.0, 0.0), [1, 2, 4]),
        (three_mode_model(1.0, 1.0), [1, 2, 4]),
        (four_mode_ahm(1.0, 1.0, 0.0, 1.0), [5, 6, 9, 10]),
    ])
    def test_experiment_models_cached_read_only(self, model, want):
        # the number-conserving sectors of the experiments' inputs
        reachable = reachable_indices(model)
        assert reachable.tolist() == want
        assert reachable_indices(model) is reachable
        with pytest.raises(ValueError):
            reachable[0] = 3
