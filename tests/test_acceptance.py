"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.  Hardware-grade fidelity numbers are bracketed through
the calibrated noise model; everything mathematical is reproduced
exactly.
"""
import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import unitary_group

from fermisim.benchmarking import (
    clifford_group,
    extract_interleaved_error,
    fit_decay,
    rb_run,
)
from fermisim.circuits import (
    Circuit,
    circuit_unitary,
    gate_census,
)
from fermisim.compiler import (
    compile_evolution,
    compile_trotter_step,
    compile_zz_block,
    plan_for_model,
)
from fermisim.experiments import (
    ExperimentConfig,
    quarter_angle_step_circuit,
    run,
)
from fermisim.fermions import (
    anticommutator,
    four_mode_ahm,
    jw_annihilation,
    jw_creation,
    spin_hamiltonian,
    three_mode_model,
    two_mode_model,
)
from fermisim.simulator import (
    NoiseModel,
    apply_circuit,
    error_budget,
    exact_evolve,
    mode_occupations,
    prepare_input,
)
from fermisim.tomography import (
    anticommutation_experiment,
    chi_of_unitary,
    process_fidelity,
    reconstruct_chi,
    simulate_qpt_dataset,
)

from helpers import phase_distance

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
SP = (SX + 1j * SY) / 2


def kron_all(mats):
    out = np.array([[1.0]], dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def _passed(number, message):
    print(f"[criterion {number:02d}] PASS - {message}")


def test_criterion_01_jordan_wigner_correctness():
    # canonical anticommutation at every size, as dense matrices
    for n in (2, 3, 4):
        dim = 2 ** n
        for i in range(n):
            for j in range(n):
                mixed = anticommutator(jw_annihilation(i, n),
                                       jw_creation(j, n)).to_dense()
                target = (1.0 if i == j else 0.0) * np.eye(dim)
                assert np.max(np.abs(mixed - target)) <= 1e-12
                pairs = anticommutator(jw_annihilation(i, n),
                                       jw_annihilation(j, n)).to_dense()
                assert np.max(np.abs(pairs)) <= 1e-12
    # two-mode identity: spin form equals the fermionic Hamiltonian up
    # to the dropped U/4 identity
    v, u = 1.0, 1.0
    spin = spin_hamiltonian(two_mode_model(v, u))
    eq2 = v / 2 * (kron_all([SX, SX]) + kron_all([SY, SY])) + \
        u / 4 * (kron_all([SZ, SZ]) + kron_all([I2, SZ])
                 + kron_all([SZ, I2]))
    assert spin.scalar_offset == pytest.approx(u / 4, abs=1e-12)
    assert np.max(np.abs(spin.to_dense()
                         - (eq2 + spin.scalar_offset * np.eye(4)))) <= 1e-12
    # four-mode asymmetric model: spin form equals the printed structure
    v1, v2, ux, uy = 0.9, 1.1, 0.6, 1.3
    spin4 = spin_hamiltonian(four_mode_ahm(v1, v2, ux, uy))
    s3 = v1 / 2 * (kron_all([I2, I2, SX, SX]) + kron_all([I2, I2, SY, SY]))
    s3 += v2 / 2 * (kron_all([SX, SX, I2, I2]) + kron_all([SY, SY, I2, I2]))
    s3 += ux / 4 * (kron_all([SZ, I2, I2, SZ]) + kron_all([I2, I2, I2, SZ])
                    + kron_all([SZ, I2, I2, I2]))
    s3 += uy / 4 * (kron_all([I2, SZ, SZ, I2]) + kron_all([I2, I2, SZ, I2])
                    + kron_all([I2, SZ, I2, I2]))
    offset = spin4.scalar_offset
    assert offset == pytest.approx((ux + uy) / 4, abs=1e-12)
    assert np.max(np.abs(spin4.to_dense()
                         - (s3 + offset * np.eye(16)))) <= 1e-12
    # and both spin forms equal the raw fermionic Hamiltonians
    bd = [kron_all([SP if k == 4 - 1 - m else (SZ if k > 4 - 1 - m else I2)
                    for k in range(4)]) for m in range(4)]
    b = [m.conj().T for m in bd]
    ferm = -v1 * (bd[0] @ b[1] + bd[1] @ b[0]) \
        - v2 * (bd[2] @ b[3] + bd[3] @ b[2]) \
        + ux * (bd[0] @ b[0]) @ (bd[3] @ b[3]) \
        + uy * (bd[1] @ b[1]) @ (bd[2] @ b[2])
    assert np.max(np.abs(spin4.to_dense() - ferm)) <= 1e-12
    _passed(1, "anticommutation and spin-Hamiltonian identities exact "
               "to 1e-12 for 2-4 modes")


PUBLISHED_STEP_CENSUS = {
    "two_mode": {"entangling": 6, "microwave": 20, "idle": 6, "detune": 0,
                 "virtual": 2},
    "three_mode": {"entangling": 12, "microwave": 53, "idle": 19,
                   "detune": 12, "virtual": 3},
    "four_mode": {"entangling": 10, "microwave": 56, "idle": 22,
                  "detune": 18, "virtual": 2},
}
SINGLE_TOTALS = {"two_mode": 28, "three_mode": 87, "four_mode": 98}


def _canonical_steps():
    return {
        "two_mode": compile_trotter_step(
            plan_for_model(two_mode_model(1.0, 1.0), 1.25, 1), 0),
        "three_mode": compile_trotter_step(
            plan_for_model(three_mode_model(1.0, 1.0), 1.0, 1), 0),
        "four_mode": compile_trotter_step(
            plan_for_model(four_mode_ahm(1.0, 1.0, 0.0, 1.0), 1.0, 1), 0),
    }


def test_criterion_02_gate_census():
    for tag, step in _canonical_steps().items():
        census = gate_census(step)
        assert census == PUBLISHED_STEP_CENSUS[tag], f"{tag}: {census}"
        total = sum(census[k] for k in ("microwave", "idle", "detune",
                                        "virtual"))
        assert total == SINGLE_TOTALS[tag]
    _passed(2, "two/three/four-mode step censuses reproduce the "
               "published table exactly (6/28, 12/87, 10/98)")


def test_criterion_03_error_budgets():
    noise = NoiseModel()
    budgets = {tag: error_budget(gate_census(step), noise)
               for tag, step in _canonical_steps().items()}
    assert budgets["two_mode"] == pytest.approx(0.0668, abs=1e-12)
    assert budgets["three_mode"] == pytest.approx(0.1584, abs=1e-12)
    assert budgets["four_mode"] == pytest.approx(0.1524, abs=1e-12)
    assert round(budgets["two_mode"], 2) == 0.07
    assert round(budgets["three_mode"], 2) == 0.16
    assert round(budgets["four_mode"], 2) == 0.15
    _passed(3, "budget arithmetic gives 0.0668/0.1584/0.1524, rounding "
               "to 0.07/0.16/0.15")


def test_criterion_04_two_mode_zero_digital_error():
    model = two_mode_model(1.0, 1.0)
    h = spin_hamiltonian(model)
    psi0 = prepare_input("two_mode")
    exact = exact_evolve(h, 5.0, psi0)
    occ_exact = mode_occupations(exact)
    for n in range(1, 9):
        plan = plan_for_model(model, 5.0, n)
        digital = apply_circuit(psi0, compile_evolution(plan))
        occ = mode_occupations(digital)
        assert np.max(np.abs(occ - occ_exact)) <= 1e-9, f"n={n}"
        # the full unitary also matches, not just the occupations
        assert phase_distance(circuit_unitary(compile_evolution(plan)),
                              expm(-1j * h.to_dense() * 5.0)) <= 1e-9
    _passed(4, "two-mode Trotterized evolution matches exp(-iHT) for "
               "n = 1..8 at T = 5.0 to 1e-9")


def test_criterion_05_digital_error_curves(tmp_path):
    # digitisation error is judged on the exact state overlap; the
    # distribution estimator is emitted alongside but is second-order
    # blind to phase errors and can cross accidentally at an endpoint
    summary = run(ExperimentConfig("digital_error_s4", str(tmp_path / "s4")))
    for tag, fids in summary["end_overlap_vs_exact"].items():
        ordered = [fids[str(n)] for n in (1, 2, 4, 8)]
        assert all(b >= a - 1e-12 for a, b in zip(ordered, ordered[1:])), \
            f"{tag}: {ordered}"
        assert ordered[-1] > ordered[0]
    td = run(ExperimentConfig("digital_error_s5", str(tmp_path / "s5")))
    two = td["runs"]["2mode"]["min_fidelity_vs_exact"]
    three = td["runs"]["3mode"]["min_fidelity_vs_exact"]
    assert two > 0.99
    assert three < 0.9
    assert (1 - three) > 10 * (1 - two)
    _passed(5, "digital error shrinks with step count; ramped two-mode "
               f"fidelity {two:.4f} > 0.99 while one-step three-mode "
               f"drops to {three:.3f}")


def test_criterion_06_noise_model_consistency(tmp_path):
    fig3 = run(ExperimentConfig("fig3", str(tmp_path / "fig3"),
                                noise_scale=1.0, steps=8))
    slope = fig3["per_step_fidelity_slope"]
    assert 0.04 <= slope <= 0.09, slope
    fig4_3 = run(ExperimentConfig("fig4_3mode", str(tmp_path / "f43"),
                                  noise_scale=1.0))
    drop3 = fig4_3["per_step_fidelity_drop"]
    assert 0.10 <= drop3 <= 0.20, drop3
    fig4_4 = run(ExperimentConfig("fig4_4mode", str(tmp_path / "f44"),
                                  noise_scale=1.0))
    drop4 = fig4_4["per_step_fidelity_drop"]
    assert 0.10 <= drop4 <= 0.22, drop4
    _passed(6, f"noisy per-step fidelity drops: two-mode {slope:.3f} in "
               f"[0.04, 0.09], three-mode {drop3:.3f} in [0.10, 0.20], "
               f"four-mode {drop4:.3f} in [0.10, 0.22]")


def test_criterion_07_qpt_round_trip():
    rng = np.random.default_rng(2024)
    worst = 1.0
    for _ in range(20):
        u = unitary_group.rvs(4, random_state=rng)
        ideal = chi_of_unitary(u)
        chi_hat = reconstruct_chi(simulate_qpt_dataset(ideal))
        fid = process_fidelity(ideal, chi_hat)
        worst = min(worst, fid)
        assert fid >= 0.999
    clean = anticommutation_experiment(None)
    assert clean["f1"] == pytest.approx(1.0, abs=1e-3)
    assert clean["f2"] == pytest.approx(1.0, abs=1e-3)
    assert clean["f_composed"] == pytest.approx(1.0, abs=1e-3)
    noisy = anticommutation_experiment(NoiseModel())
    assert 0.90 <= noisy["f1"] <= 0.99
    assert 0.90 <= noisy["f2"] <= 0.99
    assert 0.85 <= noisy["f_composed"] <= 0.97
    _passed(7, f"QPT round trips >= 0.999 (worst {worst:.5f}); "
               f"anticommutation pipeline exact noiseless and bracketed "
               f"noisy ({noisy['f1']:.3f}/{noisy['f2']:.3f}/"
               f"{noisy['f_composed']:.3f})")


def test_criterion_08_rb_self_consistency():
    noise = NoiseModel()
    group = clifford_group(two_qubit=True)
    ms = [1, 5, 10, 20, 40, 60]
    ref = rb_run(ms, 50, None, noise, seed=42, group=group)
    zz = compile_zz_block(np.pi / 2, (0, 1))
    zz_table = rb_run(ms, 50, zz, noise, seed=43, group=group)
    step_table = rb_run(ms, 50, quarter_angle_step_circuit(), noise,
                        seed=44, group=group)
    fit_ref = fit_decay(ref)
    zz_error = extract_interleaved_error(fit_ref, fit_decay(zz_table))
    step_error = extract_interleaved_error(fit_ref, fit_decay(step_table))
    assert 0.7 * 0.020 <= zz_error <= 1.3 * 0.020, zz_error
    assert 0.7 * 0.074 <= step_error <= 1.3 * 0.074, step_error
    _passed(8, f"interleaved RB extracts phase-block error "
               f"{zz_error:.4f} (target 0.020 +-30%) and step error "
               f"{step_error:.4f} (target 0.074 +-30%)")


def test_criterion_09_odd_even_optimization():
    plan = plan_for_model(four_mode_ahm(1.0, 1.0, 0.0, 1.0), 1.0, 2,
                          ordering="odd_even_s6")
    optimized = compile_evolution(plan)
    naive_gates = []
    for k in range(2):
        naive_gates.extend(compile_trotter_step(plan, k).gates)
    naive = Circuit(4, tuple(naive_gates))
    assert phase_distance(circuit_unitary(optimized),
                          circuit_unitary(naive)) <= 1e-9
    c_opt, c_naive = gate_census(optimized), gate_census(naive)
    assert sum(c_opt.values()) < sum(c_naive.values())
    assert c_opt["microwave"] < c_naive["microwave"]
    _passed(9, "odd/even two-step sequence equals the naive "
               f"concatenation up to global phase with "
               f"{sum(c_naive.values()) - sum(c_opt.values())} fewer gates")


def test_criterion_10_determinism(tmp_path):
    outputs = []
    for sub in ("a", "b"):
        cfg = ExperimentConfig("fig3", str(tmp_path / sub),
                               noise_scale=1.0, steps=3, seed=11)
        run(cfg)
        outputs.append({
            name.name: name.read_bytes()
            for name in sorted((tmp_path / sub).glob("*.csv"))
        })
    assert outputs[0].keys() == outputs[1].keys()
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], name
    rb_bytes = []
    for sub in ("ra", "rb"):
        run(ExperimentConfig("rb_s3", str(tmp_path / sub), noise_scale=1.0,
                             seed=5, params={"m_values": [1, 3, 6],
                                             "k_sequences": 3}))
        rb_bytes.append((tmp_path / sub / "rb_s3.csv").read_bytes())
    assert rb_bytes[0] == rb_bytes[1]
    _passed(10, "identical config and seed reproduce byte-identical CSVs")
