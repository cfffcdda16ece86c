"""Clifford group closure and randomized benchmarking self-consistency."""
import dataclasses
import functools
import inspect
import json
import math
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeWarning, curve_fit

import fermisim.benchmarking as benchmarking
from fermisim.benchmarking import (
    ClosureError,
    DecayFit,
    FitError,
    _after,
    _decay,
    _decay_jacobian,
    _generator_weights,
    _grid_profile,
    _interleaved_map,
    _profile_at,
    _return_probabilities,
    _walk_words,
    clifford_group,
    extract_interleaved_error,
    fit_decay,
    rb_run,
    rb_runs,
)
from fermisim.circuits import Circuit, Gate, circuit_unitary
from fermisim.compiler import ORDERINGS, compile_zz_block, plan_for_model, \
    compile_trotter_step
from fermisim.experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    quarter_angle_step_circuit,
    run,
    write_csv,
    write_json,
)
from fermisim.fermions import two_mode_model
from fermisim.pauli import pauli_basis
from fermisim.simulator import (
    DensityState,
    NoiseModel,
    apply_circuit,
    circuit_channel,
)
from fermisim.tomography import simulate_qpt_dataset
from helpers import basis_state, equal_up_to_phase

GOLDEN = Path(__file__).parent / "data" / "pre_kernel_golden.json"


@pytest.fixture(scope="module")
def group2():
    return clifford_group(two_qubit=True)


@pytest.fixture(scope="module")
def group1():
    return clifford_group(two_qubit=False)


PAULI_1Q = [np.eye(2), np.array([[0, 1], [1, 0]]),
            np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]


def is_pauli_up_to_phase(m):
    for n1 in PAULI_1Q:
        for n2 in PAULI_1Q:
            p = np.kron(n1, n2)
            tr = np.trace(p.conj().T @ m) / 4
            if abs(abs(tr) - 1) < 1e-8 and np.allclose(m, tr * p, atol=1e-8):
                return True
    return False


class TestCliffordGroup:
    def test_single_qubit_order(self, group1):
        assert len(group1) == 24

    def test_two_qubit_order(self, group2):
        assert len(group2) == 11520

    def test_inverses(self, group2):
        rng = np.random.default_rng(1)
        for idx in rng.integers(len(group2), size=25):
            u = circuit_unitary(group2.decomposition(idx))
            inv = group2.index_of(u.conj().T)
            prod = circuit_unitary(group2.decomposition(inv)) @ u
            assert equal_up_to_phase(prod, np.eye(4), tol=1e-8)

    def test_decompositions_reproduce_unitaries(self, group2):
        # a decomposition's unitary is the element: its index and code
        rng = np.random.default_rng(2)
        for idx in rng.integers(len(group2), size=25):
            channel = circuit_channel(group2.decomposition(idx))
            assert group2.index_of(
                circuit_unitary(group2.decomposition(idx))) == idx
            assert np.array_equal(benchmarking._codes(channel),
                                  group2.codes[idx])

    def test_normalizes_pauli_group(self, group2):
        rng = np.random.default_rng(3)
        paulis = [np.kron(PAULI_1Q[1], np.eye(2)),
                  np.kron(np.eye(2), PAULI_1Q[1]),
                  np.kron(PAULI_1Q[3], np.eye(2)),
                  np.kron(np.eye(2), PAULI_1Q[3])]
        for idx in rng.integers(len(group2), size=10):
            u = circuit_unitary(group2.decomposition(idx))
            for p in paulis:
                assert is_pauli_up_to_phase(u @ p @ u.conj().T)

    def test_index_ignores_global_phase(self, group2):
        u = circuit_unitary(group2.decomposition(137))
        assert group2.index_of(u) == group2.index_of(np.exp(0.3j) * u) == 137

    def test_membership(self, group2):
        zz = circuit_unitary(compile_zz_block(np.pi / 2, (0, 1)))
        assert group2.contains_unitary(zz)
        not_clifford = circuit_unitary(
            Circuit(2, (Gate("CZPHI", (0, 1), 0.3),)))
        assert not group2.contains_unitary(not_clifford)

    def test_membership_is_exact(self, group1, group2):
        # a rounded unitary key used to accept CZPHI within 1e-8 of pi;
        # the PTM of CZPHI(pi + delta) has weight about delta off its
        # monomial pattern, a compiled Clifford's at most a few 1e-15
        def czphi(phi):
            return circuit_unitary(Circuit(2, (Gate("CZPHI", (0, 1), phi),)))

        cliffords = [czphi(np.pi + 1e-14),
                     circuit_unitary(compile_zz_block(np.pi / 2, (0, 1)))]
        cliffords += [circuit_unitary(quarter_angle_step_circuit(ordering))
                      for ordering in ORDERINGS]
        for u in cliffords:
            for phase in (1.0, np.exp(0.3j), -1j):
                assert group2.contains_unitary(phase * u)
        for delta in (1e-9, 1e-10):
            assert not group2.contains_unitary(czphi(np.pi + delta))
        # a matrix of the wrong size is no element
        assert group2.index_of(np.eye(2)) is None
        assert group1.index_of(np.eye(4)) is None

    def test_decomposition_rejects_out_of_range_index(self, group1):
        # -1 used to give the last element through negative indexing
        for index in (-1, -len(group1), len(group1)):
            with pytest.raises(ValueError, match="outside"):
                group1.decomposition(index)
        assert group1.decomposition(len(group1) - 1).gates

    def test_real_arrays_key_like_complex(self, group2):
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
        for real in (np.eye(4), np.kron(hadamard, np.eye(2))):
            assert group2.index_of(real) == group2.index_of(real + 0j)
            assert group2.contains_unitary(real)
        assert group2.index_of(np.eye(4)) == 0


_REFERENCE_KEY_DECIMALS = 8  # the rounding of the unitary-keyed closure


def _reference_key(u):
    """The per-unitary phase-fixed key of the unitary-keyed closure."""
    flat = u.reshape(-1)
    idx = int(np.argmax(np.abs(flat) > 0.1))
    fixed = u * (abs(flat[idx]) / flat[idx])
    rounded = np.round(fixed, _REFERENCE_KEY_DECIMALS) + 0.0
    return rounded.tobytes()


@functools.cache
def _reference_closure(qubit_count):
    """The per-element BFS over unitaries that the signed-permutation
    closure replaced: (index, word, unitary) triples and the key -> index
    lookup."""
    gen_unitaries = [circuit_unitary(g)
                     for g in benchmarking._generators(qubit_count)]
    elements = [(0, (), np.eye(2 ** qubit_count, dtype=complex))]
    lookup = {_reference_key(elements[0][2]): 0}
    frontier = [elements[0]]
    while frontier:
        next_frontier = []
        for _, word, unitary in frontier:
            for gi, gu in enumerate(gen_unitaries):
                u = gu @ unitary
                key = _reference_key(u)
                if key in lookup:
                    continue
                new = (len(elements), word + (gi,), u)
                elements.append(new)
                lookup[key] = new[0]
                next_frontier.append(new)
        frontier = next_frontier
    return elements, lookup


class TestClosureBitIdentity:
    @pytest.mark.parametrize("qubit_count", [1, 2])
    def test_matches_per_element_closure(self, qubit_count):
        group = clifford_group(two_qubit=qubit_count == 2)
        elements, _ = _reference_closure(qubit_count)
        assert len(group.elements) == len(elements)
        for got, (index, word, _) in zip(group.elements, elements):
            assert got.index == index
            assert got.word == word

    def test_every_key_maps_back(self, group1, group2):
        for group in (group1, group2):
            elements, _ = _reference_closure(group.qubit_count)
            for index, _, unitary in elements:
                assert group.index_of(unitary) == index

    def test_key_is_the_reference_key(self, group2):
        # inverses and rephased elements find the reference key's index
        _, lookup = _reference_closure(2)
        rng = np.random.default_rng(4)
        for idx in rng.integers(len(group2), size=25):
            u = circuit_unitary(group2.decomposition(idx))
            for v in (u, u.conj().T, np.exp(0.7j) * u):
                assert group2.index_of(v) == lookup[_reference_key(v)]


class TestCachedGroup:
    def test_codes_are_read_only(self, group2):
        assert group2.codes.dtype == np.int8
        assert group2.codes.shape == (11520, 16)
        for table in (group2.codes, group2.generator_codes):
            with pytest.raises(ValueError):
                table[5 % len(table), 0] = 1
            with pytest.raises(ValueError):
                table.flags.writeable = True

    def test_clifford_group_is_a_plain_function(self):
        # the benchmark's tracer wraps it by name
        assert inspect.isfunction(benchmarking.clifford_group)

    def test_not_built_at_import(self):
        code = ("import fermisim, fermisim.benchmarking as b; "
                "assert b._cached_group.cache_info().currsize == 0")
        subprocess.run([sys.executable, "-c", code], check=True)

    def test_word_tables_built_on_first_rb_use_only(self):
        code = "\n".join([
            "import numpy as np, pytest",
            "import fermisim, fermisim.benchmarking as b",
            "from fermisim.simulator import NoiseModel",
            "group = fermisim.clifford_group()",
            "assert 'word_tables' not in vars(group)",
            "b.rb_run([1, 2], 1, None, NoiseModel(), 0, group)",
            "words, row_maps = vars(group)['word_tables']",
            "assert words.dtype == np.int8 and words.shape == (11520, 14)",
            "assert row_maps.shape == (6, 16)",
            "for table in (words, row_maps):",
            "    with pytest.raises(ValueError):",
            "        table[0, 0] = 1",
            "    with pytest.raises(ValueError):",
            "        table.flags.writeable = True",
        ])
        subprocess.run([sys.executable, "-c", code], check=True)


class TestRbRun:
    def test_noise_free_sequences_return(self, group2):
        table = rb_run([1, 3, 6], 4, None, NoiseModel(0.0, 0.0), seed=5,
                       group=group2)
        assert np.allclose(table["mean"], 1.0, atol=1e-9)

    def test_reference_decays(self, group2):
        table = rb_run([1, 5, 15], 10, None, NoiseModel(), seed=5,
                       group=group2)
        assert table["mean"][0] > table["mean"][-1]
        fit = fit_decay(table)
        assert fit.p < 1.0

    def test_interleaving_adds_decay(self, group2):
        ref = rb_run([1, 5, 15], 10, None, NoiseModel(), seed=5,
                     group=group2)
        zz = compile_zz_block(np.pi / 2, (0, 1))
        intl = rb_run([1, 5, 15], 10, zz, NoiseModel(), seed=5,
                      group=group2)
        assert intl["mean"][-1] < ref["mean"][-1]
        assert intl["tag"] == "interleaved"

    def test_non_clifford_interleave_rejected(self, group2):
        bad = Circuit(2, (Gate("CZPHI", (0, 1), 0.3),))
        with pytest.raises(ValueError, match="not a Clifford"):
            rb_run([1, 2], 2, bad, NoiseModel(), seed=1, group=group2)

    def test_no_sequences_rejected(self, group1):
        # zero sequences per length used to give NaN means
        with pytest.raises(ValueError, match="at least one sequence"):
            rb_run([1, 2], 0, None, NoiseModel(), seed=1, group=group1)
        for ms in ([], [0, 3]):
            with pytest.raises(ValueError, match="sequence lengths"):
                rb_run(ms, 2, None, NoiseModel(), seed=1, group=group1)

    def test_deterministic_under_seed(self, group2):
        a = rb_run([1, 4], 3, None, NoiseModel(), seed=11, group=group2)
        b = rb_run([1, 4], 3, None, NoiseModel(), seed=11, group=group2)
        assert a == b

    def test_seed_independence_within_3_sigma(self, group2):
        fits = []
        for seed in (21, 22):
            table = rb_run([1, 5, 10, 20], 20, None, NoiseModel(),
                           seed=seed, group=group2)
            fits.append(fit_decay(table))
        sigma = math.sqrt(fits[0].covariance[2, 2]
                          + fits[1].covariance[2, 2])
        assert abs(fits[0].p - fits[1].p) < 3 * max(sigma, 1e-4)


class TestFitDecay:
    def test_exact_synthetic_recovery(self):
        ms = [1, 2, 5, 10, 20, 40]
        table = {"m": ms, "mean": [0.75 * 0.99 ** m + 0.25 for m in ms]}
        fit = fit_decay(table)
        assert fit.p == pytest.approx(0.99, abs=1e-6)
        assert fit.A == pytest.approx(0.75, abs=1e-6)
        assert fit.B == pytest.approx(0.25, abs=1e-6)

    def test_jittered_recovery(self):
        rng = np.random.default_rng(7)
        ms = [1, 2, 5, 10, 20, 40, 60]
        errors = []
        for _ in range(20):
            ys = [0.7 * 0.97 ** m + 0.27 + rng.normal(0, 0.01) for m in ms]
            fit = fit_decay({"m": ms, "mean": ys})
            errors.append(abs(fit.p - 0.97))
        assert np.median(errors) < 1e-2

    def test_constant_table(self):
        fit = fit_decay({"m": [1, 5, 10], "mean": [0.8, 0.8, 0.8]})
        assert fit.p == 1.0
        assert fit.A + fit.B == pytest.approx(0.8)

    def test_degenerate_data_raises(self):
        with pytest.raises(FitError):
            fit_decay({"m": [1, 1, 1], "mean": [0.9, 0.8, 0.7]})

    def test_equal_fits_compare_equal_and_hash(self):
        table = {"m": [1, 5, 10, 20], "mean": [0.97, 0.9, 0.82, 0.7]}
        fit, again = fit_decay(table), fit_decay(dict(table))
        assert fit == again
        assert hash(fit) == hash(again)
        assert len({fit, again}) == 1
        # the covariance is a diagnostic, outside equality
        assert fit == dataclasses.replace(fit, covariance=np.eye(3))
        assert fit != dataclasses.replace(fit, p=fit.p / 2)

    @pytest.mark.parametrize("p", [1e-6, 0.3, 0.97, 1.0])
    def test_jacobian_matches_central_differences(self, p):
        ms = np.array([1.0, 2, 5, 10, 20, 40, 60])
        # the differences of A p^m + B lose about ulp(B) / h to
        # cancellation: a small B and atol keep that below the bound
        params = np.array([0.7, 0.05, p])
        jac = _decay_jacobian(ms, *params)
        assert jac.shape == (len(ms), 3)
        for col, h in enumerate([1e-6, 1e-6, 1e-5 * p]):
            step = np.eye(3)[col] * h
            numeric = (_decay(ms, *(params + step))
                       - _decay(ms, *(params - step))) / (2 * h)
            assert np.allclose(jac[:, col], numeric, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("ms", [[1, 5, 10, 20, 40, 60], [1, 20, 60]])
    @pytest.mark.parametrize("k", [1, 5])
    def test_no_worse_than_the_curve_fit_stops(self, group2, k, ms):
        # the profile fit converges where curve_fit's bounded TRF stopped
        # short: its exact cost is at most that of both curve_fit fits
        # (closed-form and finite-difference Jacobian) on each of the 48
        # tables of these four cases, though it lies up to 1.94e-6 from
        # them (the ref table at k = 5, scale 0.5); three points fit
        # exactly, where both costs sit at the rounding floor (below
        # 1e-30)
        circuits = _interleaved_circuits()
        runs = [(circuits["ref"], 3, "ref"), (circuits["zz"], 4, "zz"),
                (circuits["step"], 5, "step")]
        for scale in (0.25, 0.5, 1.0, 2.0):
            for table in rb_runs(ms, k, runs, NoiseModel().scaled(scale),
                                 group2):
                fit = fit_decay(table)
                cost = _exact_cost(table, fit.A, fit.B, fit.p)
                for jac in (_decay_jacobian, "2-point"):
                    old = _curve_fit(table, jac)
                    assert cost <= max(_exact_cost(table, *old), 1e-28)
                assert _kkt_violation(table, fit) < 1e-12

    def test_plain_float_profile_matches_the_grid(self, group2):
        # the refinement's plain-float profile and the vectorised grid
        # pass are one computation: measured to agree within 4e-15 in
        # g, 6e-16 in A and B and 1.2e-13 in g' at every grid node
        # below p = 1
        circuits = _interleaved_circuits()
        runs = [(circuits["ref"], 3, "ref"), (circuits["zz"], 4, "zz"),
                (circuits["step"], 5, "step")]
        for scale in (0.25, 1.0, 2.0):
            for table in rb_runs([1, 5, 10, 20, 40, 60], 1, runs,
                                 NoiseModel().scaled(scale), group2):
                ms = np.asarray(table["m"], dtype=float)
                ys = np.asarray(table["mean"])
                grid = np.stack(_grid_profile(ms, ys), 1)
                for p, node in zip(benchmarking._P_GRID[:-1], grid):
                    plain = _profile_at(ms.tolist(), ys.tolist(),
                                        float(ys.mean()), float(p))
                    assert np.allclose(plain, node, rtol=0, atol=1e-12)

    def test_rounding_stable(self, group2):
        # relative 1e-15 changes of the means move every written number
        # by at most 2.0e-13 here (measured); curve_fit's stopping point
        # moved by up to 4.6e-8
        rng = np.random.default_rng(0)
        circuits = _interleaved_circuits()
        for seed in range(5):
            runs = [(circuits["ref"], 3 * seed, "ref"),
                    (circuits["zz"], 3 * seed + 1, "zz"),
                    (circuits["step"], 3 * seed + 2, "step")]
            for scale in (0.25, 0.5, 1.0, 2.0):
                for table in rb_runs([1, 5, 10, 20, 40, 60], 1, runs,
                                     NoiseModel().scaled(scale), group2):
                    fit = fit_decay(table)
                    assert _kkt_violation(table, fit) < 1e-12
                    for _ in range(10):
                        signs = rng.choice([-1.0, 1.0], len(table["mean"]))
                        ys = np.multiply(table["mean"], 1 + 1e-15 * signs)
                        moved = fit_decay(dict(table, mean=ys.tolist()))
                        assert np.max(np.abs(np.subtract(
                            (moved.A, moved.B, moved.p, moved.residual_rms),
                            (fit.A, fit.B, fit.p, fit.residual_rms)))) < 1e-12

    def test_b_pinned_at_zero(self):
        # the ref table of perfbench's seed-0 rb_interleaved job 23;
        # curve_fit stopped at B = 6.6e-17
        table = {"m": [1, 5, 10, 20, 40, 60],
                 "mean": [0.9762013396878263, 0.9010619446941306,
                          0.8554932511084784, 0.7581741974097638,
                          0.6061425967254567, 0.4513205186006403]}
        fit = fit_decay(table)
        assert fit.B == 0.0
        assert 0.0 < fit.A < 1.0 and 0.0 < fit.p < 1.0
        assert _kkt_violation(table, fit) < 1e-12
        old = _curve_fit(table, _decay_jacobian)
        assert _exact_cost(table, fit.A, fit.B, fit.p) \
            <= _exact_cost(table, *old)

    def test_a_pinned_at_one(self):
        ms = [1, 5, 10, 20, 40, 60]
        table = {"m": ms, "mean": [1.1 * 0.8 ** m + 0.05 for m in ms]}
        fit = fit_decay(table)
        assert fit.A == 1.0
        assert 0.0 < fit.B < 1.0 and 0.0 < fit.p < 1.0
        assert _kkt_violation(table, fit) < 1e-12

    def test_rising_data_has_no_decay(self):
        # A p^m + B cannot rise: the best fit is the constant, A = 0,
        # reported at p = 1
        ms = [1, 5, 10, 20, 40, 60]
        ys = [0.5 + 0.004 * m for m in ms]
        fit = fit_decay({"m": ms, "mean": ys})
        assert (fit.A, fit.p) == (0.0, 1.0)
        assert fit.B == pytest.approx(np.mean(ys), abs=1e-15)
        assert np.all(np.isinf(fit.covariance))

    def test_p_pinned_at_lower_bound(self):
        # a decay faster than the bound p = 1e-6 allows
        ms = [1, 2, 5, 10]
        table = {"m": ms, "mean": [0.5 * 1e-7 ** m + 0.25 for m in ms]}
        fit = fit_decay(table)
        assert fit.p == 1e-6
        assert _kkt_violation(table, fit) < 1e-12

    def test_three_lengths_fit_exactly(self):
        ms = [1, 5, 10]
        fit = fit_decay({"m": ms, "mean": [0.7 * 0.95 ** m + 0.25
                                           for m in ms]})
        assert (fit.A, fit.B, fit.p) == pytest.approx((0.7, 0.25, 0.95),
                                                      abs=1e-12)
        assert fit.residual_rms < 1e-15
        assert np.all(np.isinf(fit.covariance))

    def test_nearly_flat_table(self):
        # a spread below 1e-12 takes the flat branch
        fit = fit_decay({"m": [1, 5, 10, 20],
                         "mean": [0.8, 0.8 + 5e-13, 0.8, 0.8 + 5e-13]})
        assert (fit.A, fit.B, fit.p, fit.residual_rms) == (0.0, 0.8, 1.0,
                                                           0.0)
        assert not fit.covariance.any()

    def test_decay_beside_the_constant_fit(self):
        # g' = 0 where the constant fit (A = 0) wins says nothing: the
        # search must pass it to the decaying minimum at p = 0.655
        table = {"m": [14, 18, 60, 98, 114],
                 "mean": [0.5510449957933047, 0.19181714813525463,
                          0.06742372048426959, 0.7732645980412682,
                          0.8212266060779224]}
        fit = fit_decay(table)
        constant = np.var(table["mean"]) * len(table["mean"])
        assert fit.A > 0.0 and fit.p == pytest.approx(0.655, abs=1e-3)
        assert _exact_cost(table, fit.A, fit.B, fit.p) < constant - 5e-5

    def test_least_cost_of_several_basins(self):
        # two grid cells hold minima; the one whose grid nodes cost more
        # holds the lower minimum (0.004806 against 0.004844)
        table = {"m": [11, 13, 22, 31, 32, 47, 63, 85],
                 "mean": [0.1299582364197352, 0.061486628575735655,
                          0.10670470904919878, 0.03845755121346295,
                          0.06459662000958304, 0.09203597887215502,
                          0.04910908752255569, 0.04745739062792542]}
        fit = fit_decay(table)
        assert fit.p == pytest.approx(0.7603, abs=1e-4)
        assert _exact_cost(table, fit.A, fit.B, fit.p) < 0.00481
        assert _kkt_violation(table, fit) < 1e-12

    def test_step_like_profile_within_the_evaluation_bound(self,
                                                           monkeypatch):
        # a non-RB table whose g' is step-like where the edge A = 1
        # becomes active: Brent's interpolation stalls and the search
        # bisects, 95 profile evaluations in its one search here; no
        # search took more than 96 over 40,000 random tables like it
        # (seven lengths 7-92, means 0.165-0.168), against a cap of
        # _MAX_ITERATIONS = 200 per search
        table = {"m": [7, 37, 46, 52, 63, 89, 92],
                 "mean": [0.1673, 0.1661, 0.1658, 0.167, 0.1669, 0.166,
                          0.1662]}
        evaluations = 0

        def counted(*args):
            nonlocal evaluations
            evaluations += 1
            return _profile_at(*args)

        monkeypatch.setattr(benchmarking, "_profile_at", counted)
        fit = fit_decay(table)
        assert fit.A == 1.0 and 0.0 < fit.p < 1.0
        assert evaluations <= 96
        ms = [float(m) for m in table["m"]]
        ybar = float(np.mean(table["mean"]))
        scan = np.concatenate((np.linspace(1e-6, 1.0, 20001)[:-1],
                               1.0 - np.geomspace(1e-4, 1e-12, 2001)))
        best = min(_profile_at(ms, table["mean"], ybar, float(p))[0]
                   for p in scan)
        # the scan's float costs carry rounding of about 1e-15 relative
        assert _exact_cost(table, fit.A, fit.B, fit.p) \
            <= best * (1 + 1e-12)

    def test_uncertified_fit_raises(self, monkeypatch):
        monkeypatch.setattr(benchmarking, "_MAX_ITERATIONS", 1)
        with pytest.raises(FitError, match="not certified"):
            fit_decay({"m": [1, 5, 10, 20, 40, 60],
                       "mean": [0.97, 0.9, 0.84, 0.75, 0.6, 0.47]})


def _curve_fit(table, jac):
    """(A, B, p) of ``fit_decay`` as it was before its profile fit:
    ``curve_fit``'s bounded TRF from the same start, given ``jac``
    (``_decay_jacobian``, or "2-point" finite differences as before
    that)."""
    ms = np.asarray(table["m"], dtype=float)
    ys = np.asarray(table["mean"], dtype=float)
    p0 = (max(ys.max() - ys.min(), 0.1), float(np.clip(ys.min(), 0.0, 1.0)),
          0.98)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OptimizeWarning)
        params, _ = curve_fit(_decay, ms, ys, p0=p0, jac=jac,
                              bounds=([0.0, 0.0, 1e-6], [1.0, 1.0, 1.0]),
                              maxfev=20000)
    return tuple(float(v) for v in params)


def _exact_cost(table, a, b, p):
    """sum (y - A p^m - B)^2 in exact rational arithmetic: the float sum's
    rounding (about 1e-14 relative) exceeds the gaps it is to rank."""
    a, b, p = Fraction(a), Fraction(b), Fraction(p)
    return sum((Fraction(y) - a * p ** int(m) - b) ** 2
               for m, y in zip(table["m"], table["mean"]))


def _kkt_violation(table, fit):
    """The largest entry of the projected gradient of the fit's cost on
    the box: zero at a stationary point."""
    ms = np.asarray(table["m"], dtype=float)
    params = (fit.A, fit.B, fit.p)
    resid = np.asarray(table["mean"]) - _decay(ms, *params)
    grad = -2.0 * _decay_jacobian(ms, *params).T @ resid
    return max(max(-g, 0.0) if x == lo else max(g, 0.0) if x == hi
               else abs(g)
               for g, x, lo, hi in zip(grad, params, (0, 0, 1e-6), (1, 1, 1)))


class TestExtractError:
    def test_equal_decays_give_zero(self):
        fit = DecayFit(0.7, 0.25, 0.95, 0.0, np.zeros((3, 3)))
        assert extract_interleaved_error(fit, fit) == pytest.approx(0.0)

    def test_worked_example(self):
        ref = DecayFit(0.7, 0.25, 0.97, 0.0, np.zeros((3, 3)))
        intl = DecayFit(0.7, 0.25, 0.94, 0.0, np.zeros((3, 3)))
        assert extract_interleaved_error(ref, intl) == pytest.approx(
            0.0232, abs=1e-4)

    def test_single_gate_error_recovered_within_ten_percent(self, group2):
        # closing the loop with the simulator's noise calibration
        noise = NoiseModel()
        ms = [1, 5, 10, 20, 40, 60]
        ref = rb_run(ms, 50, None, noise, seed=101, group=group2)
        cz = Circuit(2, (Gate("CZPHI", (0, 1), np.pi),))
        intl = rb_run(ms, 50, cz, noise, seed=101, group=group2)
        r = extract_interleaved_error(fit_decay(ref), fit_decay(intl))
        assert abs(r - noise.eps_2q) / noise.eps_2q < 0.10

    def test_noiseless_interleave_extracts_zero(self, group2):
        noise = NoiseModel()
        ms = [1, 5, 10, 20]
        ref = rb_run(ms, 25, None, noise, seed=55, group=group2)
        virt = Circuit(2, (Gate("VIRTUAL_Z", (0,), np.pi / 2),))
        intl = rb_run(ms, 25, virt, noise, seed=55, group=group2)
        r = extract_interleaved_error(fit_decay(ref), fit_decay(intl))
        assert abs(r) < 2e-3


class TestTrotterStepInterleave:
    def test_quarter_angle_step_is_clifford(self, group2):
        # hopping and repulsion phases of pi/2 make the whole step Clifford
        plan = plan_for_model(two_mode_model(1.0, 2.0), math.pi / 2, 1)
        step = compile_trotter_step(plan, 0)
        assert group2.contains_unitary(circuit_unitary(step))

    def test_generic_angle_step_is_not(self, group2):
        plan = plan_for_model(two_mode_model(1.0, 1.0), 1.0, 1)
        step = compile_trotter_step(plan, 0)
        assert not group2.contains_unitary(circuit_unitary(step))


def _interleaved_circuits():
    return {"ref": None,
            "zz": compile_zz_block(np.pi / 2, (0, 1)),
            "step": quarter_angle_step_circuit()}


def _reference_rb_channels(group, interleaved, noise):
    """The per-run channels of the mat-vec path the PTM walk replaced:
    the generators' noisy PTMs, and None or the interleaved (PTM,
    unitary)."""
    pair = None
    if interleaved is not None:
        pair = (circuit_channel(interleaved, noise),
                circuit_unitary(interleaved))
    return [circuit_channel(g, noise) for g in group.generators], pair


def _reference_return_probability(group, indices, generators, interleaved):
    """One sequence through per-generator mat-vecs on the Pauli vector
    of |00><00|, as the PTM walk's parent computed it."""
    n = group.qubit_count
    dim = 2 ** n
    basis = pauli_basis(n)
    vec = basis[:, 0, 0].real  # tr(P |00><00|)
    total = np.eye(dim, dtype=complex)
    for idx in indices:
        for gi in group.elements[idx].word:
            vec = generators[gi] @ vec
        total = circuit_unitary(group.decomposition(idx)) @ total
        if interleaved is not None:
            channel, u = interleaved
            vec = channel @ vec
            total = u @ total
    recovery = group.index_of(total.conj().T)
    if recovery is None:
        raise ClosureError("sequence product left the Clifford group")
    for gi in group.elements[recovery].word:
        vec = generators[gi] @ vec
    out = DensityState(np.einsum("p,pab->ab", vec, basis) / dim, n)
    return float(out.probabilities()[0])


def _reference_rb_run(m_values, k_sequences, interleaved, noise, seed,
                      group):
    """rb_run's table through the reference mat-vec path, same draws."""
    generators, pair = _reference_rb_channels(group, interleaved, noise)
    ms = sorted(int(m) for m in m_values)
    means, errs = [], []
    for mi, m in enumerate(ms):
        vals = []
        for j in range(k_sequences):
            rng = np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(mi, j)))
            indices = rng.integers(len(group), size=m)
            vals.append(_reference_return_probability(
                group, indices, generators, pair))
        vals = np.array(vals)
        means.append(float(vals.mean()))
        errs.append(float(vals.std(ddof=1) / math.sqrt(len(vals)))
                    if len(vals) > 1 else 0.0)
    return {"m": ms, "mean": means, "stderr": errs}


class TestSequenceChannels:
    @pytest.mark.parametrize("scale", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("tag", ["ref", "zz", "step"])
    def test_matches_gate_by_gate_simulation(self, group2, scale, tag):
        # the PTM walk and pairwise product equal running the whole
        # expanded sequence, recovery included, through apply_circuit
        interleaved = _interleaved_circuits()[tag]
        noise = NoiseModel().scaled(scale)
        weights = _generator_weights(group2, noise)
        pair = _interleaved_map(group2, interleaved, noise)
        rng = np.random.default_rng(int(10 * scale) + len(tag))
        for _ in range(3):
            indices = rng.integers(len(group2), size=int(rng.integers(1, 7)))
            circuit = Circuit(2)
            total = np.eye(4, dtype=complex)
            for idx in indices:
                circuit = circuit.concat(group2.decomposition(idx))
                total = circuit_unitary(group2.decomposition(idx)) @ total
                if interleaved is not None:
                    circuit = circuit.concat(interleaved)
                    total = circuit_unitary(interleaved) @ total
            recovery = group2.index_of(total.conj().T)
            circuit = circuit.concat(group2.decomposition(recovery))
            want = apply_circuit(basis_state(2), circuit,
                                 noise).probabilities()[0]
            [[[got]]] = _return_probabilities(group2, [[indices[None]]],
                                              weights, [pair])
            assert abs(got - want) < 1e-13

    @settings(max_examples=40, deadline=None, database=None)
    @given(st.booleans(), st.sampled_from([0.0, 0.5, 1.0, 2.0]),
           st.lists(st.integers(0, 11519), min_size=1, max_size=4))
    def test_word_walk_is_the_element_ptm(self, two_qubit, scale, drawn):
        group = clifford_group(two_qubit)
        indices = np.array(drawn) % len(group)
        noise = NoiseModel().scaled(scale)
        weights = _generator_weights(group, noise)
        rows, scales = _walk_words(group, indices, weights)
        got = _after(np.eye(rows.shape[1]), rows, scales)
        for ptm, idx in zip(got, indices):
            want = circuit_channel(group.decomposition(int(idx)), noise)
            assert np.max(np.abs(ptm - want)) < 1e-13

    def test_non_monomial_generator_ptm_raises(self, group2, monkeypatch):
        # a small non-Clifford rotation after each noisy generator spreads
        # its PTM columns over several Pauli strings
        def tilted(circuit, noise=None):
            if noise is not None:
                circuit = circuit.concat(
                    Circuit(2, (Gate("RY", (0,), 0.1),)))
            return circuit_channel(circuit, noise)

        monkeypatch.setattr(benchmarking, "circuit_channel", tilted)
        with pytest.raises(ValueError, match="monomial"):
            _generator_weights(group2, NoiseModel())

    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("scale", [0.0, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("tag", ["ref", "zz", "step"])
    def test_rb_run_matches_reference_matvec_path(self, group2, tag, scale,
                                                   k):
        args = ([1, 5, 10, 20, 40, 60], k, _interleaved_circuits()[tag],
                NoiseModel().scaled(scale), 23)
        got = rb_run(*args, group=group2)
        want = _reference_rb_run(*args, group2)
        assert got["m"] == want["m"]
        for key in ("mean", "stderr"):
            assert np.allclose(got[key], want[key], rtol=0, atol=1e-13)

    @pytest.mark.parametrize("scale", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("interleaved", [
        None, Circuit(1, (Gate("PI_X", (0,)),))], ids=["ref", "x"])
    def test_one_qubit_rb_run_matches_reference_matvec_path(
            self, group1, interleaved, scale):
        # 24 elements and 20 sequences per length: draws repeat, and each
        # distinct element is walked once
        args = ([1, 5, 10, 20], 20, interleaved, NoiseModel().scaled(scale),
                31)
        got = rb_run(*args, group=group1)
        want = _reference_rb_run(*args, group1)
        assert got["m"] == want["m"]
        for key in ("mean", "stderr"):
            assert np.allclose(got[key], want[key], rtol=0, atol=1e-13)


def _three_call_run_rb_s3(config, out):
    """``experiments._run_rb_s3`` as it was before ``rb_runs``: three
    separate ``rb_run`` calls, one per tag."""
    noise = config.noise_model()
    m_values = config.params.get("m_values", [1, 5, 10, 20, 40, 60])
    k_sequences = int(config.params.get("k_sequences", 50))
    group = clifford_group(two_qubit=True)
    zz = compile_zz_block(math.pi / 2, (0, 1))
    step = quarter_angle_step_circuit(config.canonical_ordering)
    tables = [
        rb_run(m_values, k_sequences, None, noise, config.seed, group,
               tag="ref"),
        rb_run(m_values, k_sequences, zz, noise, config.seed + 1, group,
               tag="zz_block"),
        rb_run(m_values, k_sequences, step, noise, config.seed + 2, group,
               tag="trotter_step"),
    ]
    rows = []
    for table in tables:
        for m, mean, err in zip(table["m"], table["mean"], table["stderr"]):
            rows.append((m, mean, err, table["tag"]))
    path = out / "rb_s3.csv"
    write_csv(path, ["m", "mean_fidelity", "stderr", "tag"], rows)
    fits = {t["tag"]: fit_decay(t) for t in tables}
    zz_error = extract_interleaved_error(fits["ref"], fits["zz_block"])
    step_error = extract_interleaved_error(fits["ref"],
                                           fits["trotter_step"])
    summary = {
        "experiment": "rb_s3",
        "k_sequences": k_sequences,
        "m_values": list(m_values),
        "decays": {tag: {"A": f.A, "B": f.B, "p": f.p,
                         "residual_rms": f.residual_rms}
                   for tag, f in fits.items()},
        "zz_block_error": zz_error,
        "trotter_step_error": step_error,
        "files": [path.name],
    }
    write_json(out / "rb_s3_fits.json", summary)
    return summary


def _interleaves(two_qubit):
    if not two_qubit:
        return [None, Circuit(1, (Gate("PI_X", (0,)),))]
    return [None, compile_zz_block(np.pi / 2, (0, 1))] + [
        quarter_angle_step_circuit(ordering) for ordering in ORDERINGS]


class TestRbRuns:
    @settings(max_examples=30, deadline=None, database=None)
    @given(st.booleans(), st.sampled_from([0.0, 0.5, 1.0, 2.0]),
           st.sampled_from([1, 3, 5]),
           st.lists(st.integers(1, 12), min_size=1, max_size=4),
           st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2 ** 32),
                              st.sampled_from([None, "a", "b"])),
                    min_size=1, max_size=4))
    def test_each_table_is_its_own_rb_run(self, two_qubit, scale, k,
                                          m_values, picks):
        group = clifford_group(two_qubit)
        circuits = _interleaves(two_qubit)
        runs = [(circuits[i % len(circuits)], seed, tag)
                for i, seed, tag in picks]
        noise = NoiseModel().scaled(scale)
        tables = rb_runs(m_values, k, runs, noise, group)
        assert len(tables) == len(runs)
        for table, (interleaved, seed, tag) in zip(tables, runs):
            assert table == rb_run(m_values, k, interleaved, noise, seed,
                                   group, tag)

    def test_lengths_checked_before_any_channel(self, group2, monkeypatch):
        def no_channels(circuit, noise=None):
            raise AssertionError("channel built before validation")

        monkeypatch.setattr(benchmarking, "circuit_channel", no_channels)
        bad = Circuit(2, (Gate("CZPHI", (0, 1), 0.3),))
        with pytest.raises(ValueError, match="sequence lengths"):
            rb_runs([0, 3], 2, [(bad, 1, None)], NoiseModel(), group2)
        with pytest.raises(ValueError, match="at least one sequence"):
            rb_runs([1, 3], 0, [(bad, 1, None)], NoiseModel(), group2)
        with pytest.raises(ValueError, match="one or more runs"):
            rb_runs([1, 3], 2, [], NoiseModel(), group2)

    def test_rb_s3_builds_seven_channels(self, tmp_path, group2,
                                         monkeypatch):
        # five generators once, then the ZZ block and the step
        calls = []

        def counted(circuit, noise=None):
            calls.append(circuit)
            return circuit_channel(circuit, noise)

        monkeypatch.setattr(benchmarking, "circuit_channel", counted)
        run(ExperimentConfig("rb_s3", str(tmp_path), noise_scale=1.0,
                             params={"k_sequences": 1}))
        assert len(calls) == 7

    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("scale", [None, 0.5, 2.0])
    @pytest.mark.parametrize("ordering", ["s5", "s6"])
    def test_run_outputs_match_three_rb_run_calls(self, tmp_path,
                                                  monkeypatch, k, scale,
                                                  ordering):
        def outputs(out_dir):
            run(ExperimentConfig("rb_s3", str(out_dir), noise_scale=scale,
                                 seed=9, ordering=ordering,
                                 params={"k_sequences": k}))
            summary = json.loads((out_dir / "summary.json").read_text())
            del summary["config"]["out_dir"]
            return ((out_dir / "rb_s3.csv").read_bytes(),
                    (out_dir / "rb_s3_fits.json").read_bytes(), summary)

        got = outputs(tmp_path / "one_call")
        monkeypatch.setitem(EXPERIMENTS, "rb_s3", dataclasses.replace(
            EXPERIMENTS["rb_s3"], runner=_three_call_run_rb_s3))
        assert got == outputs(tmp_path / "three_calls")


class TestPreKernelGolden:
    """Outputs recorded with the simulator the channel kernel replaced."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN.read_text())

    @pytest.mark.parametrize("tag", ["ref", "zz", "step"])
    def test_rb_means(self, group2, golden, tag):
        want = golden["rb"][tag]
        table = rb_run([1, 5, 20], 3, _interleaved_circuits()[tag],
                       NoiseModel(), seed=want["seed"], group=group2)
        assert np.allclose(table["mean"], want["mean"], rtol=0, atol=1e-12)

    def test_qpt_dataset(self, golden):
        dataset = simulate_qpt_dataset(compile_zz_block(np.pi / 2, (0, 1)),
                                       NoiseModel())
        want = np.array(golden["qpt_zz_block"]).reshape(16, 16, 4)
        assert np.allclose(dataset.probabilities, want, rtol=0, atol=1e-12)
