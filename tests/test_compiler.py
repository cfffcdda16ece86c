"""Trotter compiler: block unitaries vs expm oracles, censuses, orderings."""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from fermisim.circuits import (
    circuit_unitary,
    gate_census,
    census_single_qubit_total,
    validate_phase_range,
)
from fermisim.compiler import (
    CompileError,
    Schedule,
    TrotterPlan,
    compile_evolution,
    compile_trotter_step,
    compile_zz_block,
    canonical_phase,
    conjugate_basis,
    digitize_schedule,
    plan_for_model,
    step_templates,
)
from fermisim.fermions import (
    four_mode_ahm,
    spin_hamiltonian,
    three_mode_model,
    two_mode_model,
)
from fermisim.pauli import WeightedPauliSum
from helpers import equal_up_to_phase, phase_distance

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def zz_target(phi):
    return np.diag([1.0, np.exp(1j * phi), np.exp(1j * phi), 1.0])


class TestZzBlock:
    def test_quarter_turn_diagonal(self):
        c = compile_zz_block(np.pi / 2, (0, 1))
        u = circuit_unitary(c)
        assert equal_up_to_phase(u, zz_target(np.pi / 2), tol=1e-10)

    def test_zero_phase_is_identity(self):
        c = compile_zz_block(0.0, (0, 1))
        assert equal_up_to_phase(circuit_unitary(c), np.eye(4), tol=1e-10)

    def test_small_negative_phase_in_range(self):
        c = compile_zz_block(-0.3, (0, 1))
        assert equal_up_to_phase(circuit_unitary(c), zz_target(-0.3),
                                 tol=1e-10)
        assert validate_phase_range(c, 0.5, 4.0) == []

    def test_exactly_two_entangling_gates(self):
        for phi in (0.05, 0.7, np.pi, -2.5, 6.0):
            c = compile_zz_block(phi, (0, 1))
            assert gate_census(c)["entangling"] == 2

    def test_random_phases_match_target_and_range(self):
        rng = np.random.default_rng(21)
        for phi in rng.uniform(-2 * np.pi, 2 * np.pi, size=40):
            for axis in ("X", "Y"):
                c = compile_zz_block(float(phi), (0, 1), echo_axis=axis)
                assert phase_distance(circuit_unitary(c),
                                      zz_target(phi)) < 1e-9
                assert validate_phase_range(c, 0.5, 4.0) == []

    def test_canonical_phase_wraps(self):
        assert canonical_phase(4.5) == pytest.approx(4.5 - 2 * np.pi)
        assert canonical_phase(-np.pi) == pytest.approx(np.pi)
        assert canonical_phase(0.3) == pytest.approx(0.3)


class TestConjugateBasis:
    def test_xx_wrap_of_pi_block(self):
        c = conjugate_basis(compile_zz_block(np.pi, (0, 1)), "XX")
        want = expm(-1j * np.pi / 2 * np.kron(SX, SX))
        assert phase_distance(circuit_unitary(c), want) < 1e-10

    def test_yy_wrap_of_zero_block(self):
        c = conjugate_basis(compile_zz_block(0.0, (0, 1)), "YY")
        assert equal_up_to_phase(circuit_unitary(c), np.eye(4), tol=1e-10)

    def test_wrap_then_inverse_is_identity(self):
        phi = 1.1
        fwd = conjugate_basis(compile_zz_block(phi, (0, 1)), "XX")
        bwd = conjugate_basis(compile_zz_block(-phi, (0, 1)), "XX")
        assert equal_up_to_phase(circuit_unitary(fwd.concat(bwd)), np.eye(4),
                                 tol=1e-10)

    def test_random_wraps_vs_expm(self):
        rng = np.random.default_rng(33)
        for phi in rng.uniform(-3, 3, size=10):
            for axis, sigma in (("XX", SX), ("YY", SY)):
                c = conjugate_basis(compile_zz_block(float(phi), (0, 1)),
                                    axis)
                want = expm(-1j * phi / 2 * np.kron(sigma, sigma))
                assert phase_distance(circuit_unitary(c), want) < 1e-9


def model_dense(model):
    return spin_hamiltonian(model).to_dense()


class TestTrotterStep:
    def test_two_mode_step_is_exact(self):
        rng = np.random.default_rng(41)
        for dt in (0.2, 1.0, 2.7):
            v, u = rng.uniform(0.3, 1.5, size=2)
            plan = plan_for_model(two_mode_model(v, u), dt, 1)
            c = compile_trotter_step(plan, 0)
            want = expm(-1j * model_dense(two_mode_model(v, u)) * dt)
            assert phase_distance(circuit_unitary(c), want) < 1e-9

    def test_step_matches_section_exponentials(self):
        # the compiled step equals the ordered product of the per-term
        # exponentials it claims to implement
        model = three_mode_model(1.0, 1.0)
        plan = plan_for_model(model, 1.2, 2)
        c = compile_trotter_step(plan, 0)
        h = spin_hamiltonian(model)
        dt = plan.dt
        dim = 2 ** 3
        want = np.eye(dim, dtype=complex)
        # canonical order: XX,YY per hopping pair ascending, then diagonal
        hop01 = [("XX", (1, 2)), ("YY", (1, 2))]  # modes 0,1 -> qubits 2,1
        hop12 = [("XX", (0, 1)), ("YY", (0, 1))]  # modes 1,2 -> qubits 1,0
        def embed(label, qubits):
            mats = {"X": SX, "Y": SY, "Z": SZ}
            ops = [np.eye(2, dtype=complex)] * 3
            for q, ch in zip(qubits, label):
                ops[q] = mats[ch]
            out = np.array([[1.0]], dtype=complex)
            for m in ops:
                out = np.kron(out, m)
            return out
        for label, qs in hop01 + hop12:
            want = expm(-1j * 0.5 * embed(label, sorted(qs)) * dt) @ want
        diag = 0.25 * (embed("ZZ", (1, 2)) + embed("ZZ", (0, 1)))
        diag += 0.25 * embed("Z", (2,)) + 0.5 * embed("Z", (1,)) \
            + 0.25 * embed("Z", (0,))
        want = expm(-1j * diag * dt) @ want
        assert phase_distance(circuit_unitary(c), want) < 1e-9

    def test_unsupported_term_named(self):
        bad = WeightedPauliSum.from_terms(2, [(0.5, "XY")])
        plan = TrotterPlan(bad, 1.0, 1)
        with pytest.raises(CompileError, match="XY"):
            compile_trotter_step(plan, 0)


TABLE_CENSUS = {
    "two": {"entangling": 6, "microwave": 20, "idle": 6, "detune": 0,
            "virtual": 2},
    "three": {"entangling": 12, "microwave": 53, "idle": 19, "detune": 12,
              "virtual": 3},
    "four": {"entangling": 10, "microwave": 56, "idle": 22, "detune": 18,
             "virtual": 2},
}


class TestCensus:
    def test_two_mode_table(self):
        plan = plan_for_model(two_mode_model(1.0, 1.0), 1.2, 1)
        census = gate_census(compile_trotter_step(plan, 0))
        assert census == TABLE_CENSUS["two"]
        assert census_single_qubit_total(census) == 28

    def test_three_mode_table(self):
        plan = plan_for_model(three_mode_model(1.0, 1.0), 3.0, 3)
        census = gate_census(compile_trotter_step(plan, 0))
        assert census == TABLE_CENSUS["three"]
        assert census_single_qubit_total(census) == 87

    def test_four_mode_table(self):
        plan = plan_for_model(four_mode_ahm(1.0, 1.0, 0.0, 1.0), 3.0, 3)
        census = gate_census(compile_trotter_step(plan, 0))
        assert census == TABLE_CENSUS["four"]
        assert census_single_qubit_total(census) == 98

    def test_decorations_preserve_unitary(self):
        # spectator pulses, detunes, idles and the refocusing pulse are
        # identities up to global phase: a hopping-only 3-mode step must
        # match the bare ordered product of its section exponentials
        free = three_mode_model(1.0, 0.0)
        plan0 = plan_for_model(free, 0.9, 1)
        got = circuit_unitary(compile_trotter_step(plan0, 0))
        want = expm(-1j * 0.5 * np.kron(np.eye(2), np.kron(SY, SY)) * 0.9) \
            @ expm(-1j * 0.5 * np.kron(np.eye(2), np.kron(SX, SX)) * 0.9)
        want = expm(-1j * 0.5 * np.kron(np.kron(SY, SY), np.eye(2)) * 0.9) \
            @ expm(-1j * 0.5 * np.kron(np.kron(SX, SX), np.eye(2)) * 0.9) \
            @ want
        assert phase_distance(got, want) < 1e-9


class TestEvolution:
    def test_single_step_equals_step(self):
        plan = plan_for_model(two_mode_model(1.0, 1.0), 1.0, 1)
        evo = compile_evolution(plan)
        step = compile_trotter_step(plan, 0)
        assert evo.gates == step.gates

    def test_two_mode_zero_digital_error(self):
        h = model_dense(two_mode_model(1.0, 1.0))
        want = expm(-1j * h * 5.0)
        for n in (1, 2, 5, 8):
            plan = plan_for_model(two_mode_model(1.0, 1.0), 5.0, n)
            got = circuit_unitary(compile_evolution(plan))
            assert phase_distance(got, want) < 1e-9

    # canonical_s5 only: odd_even_s6 splits the hopping terms, which is
    # a real Trotter error even on two modes
    @settings(max_examples=60, deadline=None, database=None)
    @given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
           st.floats(0.0, 8.0, exclude_min=True), st.integers(1, 12))
    def test_two_mode_canonical_evolution_is_exact(self, v, u, t, steps):
        model = two_mode_model(v, u)
        plan = plan_for_model(model, t, steps, "canonical_s5")
        want = expm(-1j * model_dense(model) * t)
        got = circuit_unitary(compile_evolution(plan))
        assert phase_distance(got, want) <= 1e-12
        templates = step_templates(plan)
        stepped = np.eye(4)
        for k in range(steps):
            stepped = circuit_unitary(templates[k % len(templates)]) @ stepped
        assert phase_distance(stepped, want) <= 1e-12

    def test_odd_even_cancellation_preserves_unitary(self):
        plan = plan_for_model(four_mode_ahm(1.0, 1.0, 0.0, 1.0), 1.0, 2,
                              ordering="odd_even_s6")
        optimized = compile_evolution(plan)
        naive_gates = []
        for k in range(2):
            naive_gates.extend(compile_trotter_step(plan, k).gates)
        from fermisim.circuits import Circuit
        naive = Circuit(4, tuple(naive_gates))
        assert phase_distance(circuit_unitary(optimized),
                              circuit_unitary(naive)) < 1e-9
        c_opt = gate_census(optimized)
        c_naive = gate_census(naive)
        assert c_opt["microwave"] < c_naive["microwave"]
        assert sum(c_opt.values()) < sum(c_naive.values())

    def test_cancellation_survivors_at_larger_n(self):
        # interior boundaries cancel; only the opening wrap and closing
        # unwrap rotations survive
        plan4 = plan_for_model(four_mode_ahm(1.0, 1.0, 0.0, 1.0), 2.0, 4,
                               ordering="odd_even_s6")
        opt = compile_evolution(plan4)
        naive_mw = 4 * gate_census(
            compile_trotter_step(plan4, 0))["microwave"]
        # 3 boundaries x 4 qubits x 2 rotations dropped
        assert gate_census(opt)["microwave"] == naive_mw - 24

    def test_orderings_converge_with_steps(self):
        model = four_mode_ahm(1.0, 1.0, 0.0, 1.0)
        h = model_dense(model)
        t = 2.0
        exact = expm(-1j * h * t)
        devs = {}
        for n in (2, 8):
            u5 = circuit_unitary(compile_evolution(
                plan_for_model(model, t, n, "canonical_s5")))
            u6 = circuit_unitary(compile_evolution(
                plan_for_model(model, t, n, "odd_even_s6")))
            devs[n] = phase_distance(u5, u6)
            assert phase_distance(u5, exact) < phase_distance(
                circuit_unitary(compile_evolution(
                    plan_for_model(model, t, 1, "canonical_s5"))), exact) \
                + 1e-12
        assert devs[8] < devs[2] / 2


def reference_average(knots, t0, t1):
    """The scalar interval mean that ``Schedule.averages`` replaced:
    trapezoids between t0, t1 and every knot strictly inside."""
    ts = np.array([p[0] for p in knots])
    vs = np.array([p[1] for p in knots])
    breaks = sorted({t0, t1, *(t for t, _ in knots if t0 < t < t1)})
    total = 0.0
    for a, b in zip(breaks, breaks[1:]):
        total += 0.5 * (float(np.interp(a, ts, vs))
                        + float(np.interp(b, ts, vs))) * (b - a)
    return total / (t1 - t0)


@st.composite
def knots_and_edges(draw):
    """A schedule with drawn strictly increasing knots, and slice edges
    that are drawn times or knot times.  Slices are at least 1e-9 wide:
    subnormal widths cost the scalar reference its precision."""
    duration = draw(st.floats(0.5, 5.0))
    values = st.floats(-5.0, 5.0)
    profiles = []
    for _ in range(2):
        inner = draw(st.lists(st.floats(0.001, 0.999), max_size=5,
                              unique=True))
        ts = [0.0, *sorted(duration * t for t in inner), duration]
        assume(all(b > a for a, b in zip(ts, ts[1:])))
        profiles.append(tuple((t, draw(values)) for t in ts))
    times = st.one_of(st.sampled_from([t for t, _ in profiles[0]]),
                      st.floats(0.0, duration))
    edges = sorted(draw(st.lists(times, min_size=2, max_size=12,
                                 unique=True)))
    assume(np.all(np.diff(edges) >= 1e-9))
    return Schedule(duration, *profiles), np.array(edges)


class TestSchedule:
    def ramp(self):
        return Schedule(
            3.0,
            v_knots=((0.0, 0.0), (1.0, 0.0), (2.0, 1.0), (3.0, 1.0)),
            u_knots=((0.0, 1.0), (3.0, 1.0)),
        )

    def test_constant_average(self):
        s = Schedule(5.0, ((0.0, 1.0), (5.0, 1.0)), ((0.0, 0.5), (5.0, 0.5)))
        for plan in digitize_schedule(s, 4, 2):
            assert 2 * plan.hamiltonian.term_dict["XX"] * plan.dt \
                == pytest.approx(1.0 * 1.25)

    def test_ramp_segment_average(self):
        s = self.ramp()
        assert s.averages([1.0, 2.0])[0, 0] == pytest.approx(0.5)
        assert s.averages([0.0, 3.0])[0, 0] == pytest.approx(0.5)
        assert s.averages([0.5, 1.5])[0, 0] == pytest.approx(0.125)
        assert np.array_equal(s.averages([0.5, 1.5, 2.5])[:, 1], [1.0, 1.0])

    def test_zero_hopping_step_is_diagonal(self):
        s = Schedule(1.0, ((0.0, 0.0), (1.0, 0.0)), ((0.0, 1.0), (1.0, 1.0)))
        plans = digitize_schedule(s, 1, 2)
        c = compile_trotter_step(plans[0], 0)
        census = gate_census(c)
        # pure U-phase step: one ZZ block and two virtual phases
        assert census["entangling"] == 2
        assert census["virtual"] == 2
        u = circuit_unitary(c)
        assert np.allclose(np.abs(u), np.eye(4), atol=1e-9)

    @pytest.mark.parametrize("t0,t1,slices", [
        (0.0, 3.0, 600), (0.0, 1.5, 7), (1.5, 3.0, 3), (0.95, 2.05, 11),
        (1.0, 2.0, 4), (0.0, 3.0, 1)])
    def test_averages_match_scalar_average(self, t0, t1, slices):
        s = Schedule(3.0, v_knots=((0.0, 0.0), (1.0, 0.0), (1.3, 0.7),
                                   (2.0, 1.0), (3.0, 1.0)),
                     u_knots=((0.0, 1.0), (3.0, 0.4)))
        dt = (t1 - t0) / slices
        edges = t0 + np.arange(slices + 1) * dt
        got = s.averages(edges)
        assert got.shape == (slices, 2)
        for column, knots in enumerate((s.v_knots, s.u_knots)):
            want = [reference_average(knots, a, b)
                    for a, b in zip(edges, edges[1:])]
            assert np.allclose(got[:, column], want, rtol=0, atol=1e-15)

    @settings(max_examples=200, deadline=None, database=None)
    @given(knots_and_edges())
    def test_averages_property(self, drawn):
        s, edges = drawn
        got = s.averages(edges)
        lo, hi = edges[:-1], edges[1:]
        for column, knots in enumerate((s.v_knots, s.u_knots)):
            ts, fs = np.array(knots).T
            want = [reference_average(knots, a, b) for a, b in zip(lo, hi)]
            assert np.allclose(got[:, column], want, rtol=0, atol=1e-14)
            # a slice without a knot inside keeps the two-point mean
            free = ~((lo[:, None] < ts) & (ts < hi[:, None])).any(-1)
            two_point = (np.interp(lo, ts, fs) + np.interp(hi, ts, fs)) / 2
            assert np.array_equal(got[free, column], two_point[free])

    @pytest.mark.parametrize("windows,slices", [(4, 7), (60, 20),
                                                (2, 600)])
    def test_averages_over_a_window_grid_equal_per_row_calls(self, windows,
                                                             slices):
        s = Schedule(3.0, v_knots=((0.0, 0.0), (1.01, 0.0), (1.337, 0.7),
                                   (2.0, 1.0), (3.0, 1.0)),
                     u_knots=((0.0, 1.0), (1.7003, 0.2), (3.0, 0.4)))
        t0 = np.arange(windows) * (3.0 / windows)
        t1 = t0 + 3.0 / windows
        dt = (t1 - t0) / slices
        grid = t0[:, None] + np.arange(slices + 1) * dt[:, None]
        ts = np.array([t for t, _ in s.v_knots])
        # some slice holds a knot and is cut into two linear pieces
        assert ((grid[:, :-1, None] < ts) & (ts < grid[:, 1:, None])).any()
        want = np.stack([s.averages(row) for row in grid])
        assert want.shape == (windows, slices, 2)
        assert np.array_equal(s.averages(grid), want)

    def test_averages_reject_unordered_edges(self):
        s = self.ramp()
        with pytest.raises(ValueError):
            s.averages([0.0, 1.0, 1.0])

    def test_windows_cover_duration(self):
        plans = digitize_schedule(self.ramp(), 2, 3)
        assert plans[0].window == (0.0, 1.5)
        assert plans[1].window == (1.5, 3.0)

    def test_json_round_trip(self):
        s = self.ramp()
        again = Schedule.from_json_dict(s.to_json_dict())
        assert again == s

    def test_validation(self):
        with pytest.raises(ValueError):
            Schedule(1.0, ((0.0, 0.0),), ((0.0, 1.0), (1.0, 1.0)))
        with pytest.raises(ValueError):
            Schedule(1.0, ((0.5, 0.0), (1.0, 1.0)),
                     ((0.0, 1.0), (1.0, 1.0)))

    @pytest.mark.parametrize("v_knots", [
        ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (2.0, 1.0)),  # a jump at t = 1
        ((0.0, 0.0), (1.5, 0.0), (1.0, 1.0), (2.0, 1.0)),
    ])
    def test_knot_times_strictly_increase(self, v_knots):
        with pytest.raises(ValueError, match="strictly increase"):
            Schedule(2.0, v_knots, ((0.0, 1.0), (2.0, 1.0)))

    def test_steps_inside_a_schedule_rejected(self):
        payload = self.ramp().to_json_dict()
        assert payload["steps"] == 1
        payload["steps"] = 5
        with pytest.raises(ValueError, match="top-level 'steps'"):
            Schedule.from_json_dict(payload)

    def test_plans_carry_the_ordering(self):
        ramp = Schedule(3.0, ((0.0, 0.5), (3.0, 1.0)),
                        ((0.0, 1.0), (3.0, 1.0)))
        plans = digitize_schedule(ramp, 3, 2, "odd_even_s6")
        assert [p.ordering for p in plans] == ["odd_even_s6"] * 3
        assert all(type(t) is float for p in plans for t in p.window)
        canonical = digitize_schedule(ramp, 3, 2)
        for k, (s5, s6) in enumerate(zip(canonical, plans)):
            assert compile_trotter_step(s5, k) != compile_trotter_step(s6, k)
        assert compile_trotter_step(plans[0], 0) \
            != compile_trotter_step(plans[1], 1)
