"""The batched series readout against a copy of the per-checkpoint loop
it replaced, and against the row-by-row public readout functions.

``old_series_rows``, ``old_state_fidelity``, ``old_state_overlap`` and
``old_mode_occupations`` below are ``experiments._series_rows``,
``simulator.state_fidelity``, ``simulator.state_overlap`` and
``simulator.mode_occupations`` as they were before each series ran on
vectors and was checked and read out in one batched pass;
``old_series_rows`` takes the checkpoints in today's (times, circuits,
exact stack) form and wraps each exact row in a ``PureState``.  Every series
must agree row for row to 1e-12 and write the same CSV bytes.  The
property tests compare ``experiments._readout`` with
``mode_occupations``, ``state_fidelity`` and ``state_overlap`` on random
stacks, and check that a bad stack fails with the message
``state_fidelity`` gives for its bad row.
"""
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fermisim.experiments as experiments
from fermisim.experiments import (
    ExperimentConfig,
    _model_checkpoints,
    _readout,
    _series_rows,
    reachable_indices,
    run,
    write_csv,
)
from fermisim.fermions import (
    four_mode_ahm,
    occupation_matrix,
    two_mode_model,
)
from fermisim.simulator import (
    NORM_TOL,
    PROBABILITY_SUM_TOL,
    DensityState,
    NoiseModel,
    PureState,
    apply_circuit,
    check_norms,
    lower_circuit,
    mode_occupations,
    occupation_rows,
    prepare_input,
    state_fidelities,
    state_fidelity,
    state_overlap,
    state_overlaps,
)

SETTINGS = settings(max_examples=60, deadline=None, database=None)


# -- the per-checkpoint loop ------------------------------------------------

def old_state_fidelity(p_ideal, p) -> float:
    a = np.asarray(p_ideal, dtype=float)
    b = np.asarray(p, dtype=float)
    if a.shape != b.shape:
        raise ValueError("probability vectors differ in length")
    for v in (a, b):
        if v.min() < -PROBABILITY_SUM_TOL:
            raise ValueError(f"negative probability {v.min()}")
        if not abs(v.sum() - 1.0) <= PROBABILITY_SUM_TOL:
            raise ValueError(f"probabilities sum to {v.sum()}, not 1")
    a = np.clip(a, 0.0, None)
    b = np.clip(b, 0.0, None)
    a = a / a.sum()
    b = b / b.sum()
    return float(np.sqrt(a * b).sum() ** 2)


def old_state_overlap(reference, state) -> float:
    v = reference.amplitudes
    if isinstance(state, PureState):
        return float(abs(np.vdot(v, state.amplitudes)) ** 2)
    return float(np.real(v.conj() @ state.rho @ v))


def old_mode_occupations(state):
    return occupation_matrix(state.qubit_count) @ state.probabilities()


def old_series_rows(path, files, model, checkpoints, noise):
    n = model.mode_count
    psi0 = prepare_input({2: "two_mode", 3: "three_mode",
                          4: "four_mode"}[n])
    reachable = reachable_indices(model)
    digital = psi0
    run_state = psi0.to_density() if noise is not None else psi0
    lowered = {}
    rows = []
    times, circuits, stack = checkpoints
    points = zip(times, circuits, (PureState(a, n) for a in stack))
    for t, step_circuit, exact in [(0.0, None, psi0), *points]:
        if step_circuit is not None:
            if id(step_circuit) not in lowered:
                lowered[id(step_circuit)] = lower_circuit(step_circuit, noise)
            step = lowered[id(step_circuit)]
            digital = apply_circuit(digital, step_circuit, lowered=step)
            run_state = digital if noise is None else apply_circuit(
                run_state, step_circuit, noise, lowered=step)
        p_run = run_state.probabilities()
        rows.append((t, *old_mode_occupations(run_state),
                     float(1.0 - p_run[reachable].sum()),
                     old_state_fidelity(digital.probabilities(), p_run),
                     old_state_fidelity(exact.probabilities(), p_run),
                     old_state_overlap(digital, run_state),
                     old_state_overlap(exact, run_state)))
    experiments.write_csv(
        path, ["time", *(f"p_mode{i + 1}" for i in range(n)), "p_other",
               "fidelity_vs_digital", "fidelity_vs_exact",
               "overlap_vs_digital", "overlap_vs_exact"], rows)
    files.append(path.name)
    return rows


# -- whole experiments ------------------------------------------------------

def _run_both(config: dict, tmp_path: Path, monkeypatch):
    """(CSV rows, CSV bytes, summary) of the new and the old loop."""
    out = []
    for tag, series in (("new", _series_rows), ("old", old_series_rows)):
        monkeypatch.setattr(experiments, "_series_rows", series)
        rows = {}

        def capture(path, header, table, rows=rows):
            rows[path.name] = table
            write_csv(path, header, table)

        monkeypatch.setattr(experiments, "write_csv", capture)
        directory = tmp_path / tag
        summary = run(ExperimentConfig(out_dir=str(directory), **config))
        texts = {p.name: p.read_bytes() for p in directory.glob("*.csv")}
        out.append((rows, texts, summary))
    return out


def _leaves(value, prefix=()):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, prefix + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, prefix + (i,))
    else:
        yield prefix, value


CASES = [
    (experiment, noise, ordering)
    for experiment in ("fig3", "fig4_3mode", "fig4_4mode", "fig5_2mode",
                       "fig5_3mode")
    for noise in (None, 1.0)
    for ordering in ("s5", "s6")
] + [
    (experiment, None, ordering)
    for experiment in ("digital_error_s4", "digital_error_s5")
    for ordering in ("s5", "s6")
]


@pytest.mark.parametrize("experiment,noise,ordering", CASES)
def test_experiment_outputs_match_the_per_checkpoint_loop(
        experiment, noise, ordering, tmp_path, monkeypatch):
    config = {"experiment": experiment, "ordering": ordering}
    if noise is not None:
        config["noise_scale"] = noise
    if experiment.startswith("fig5"):
        config["steps"] = 3
    (new_rows, new_csv, new_summary), (old_rows, old_csv, old_summary) = \
        _run_both(config, tmp_path, monkeypatch)
    assert sorted(new_rows) == sorted(old_rows) == sorted(new_csv)
    for name, rows in old_rows.items():
        assert np.allclose(np.array(new_rows[name], dtype=float), rows,
                           rtol=0, atol=1e-12), name
        assert new_csv[name] == old_csv[name], name
    new_leaves = dict(_leaves(json.loads(json.dumps(new_summary))))
    old_leaves = dict(_leaves(json.loads(json.dumps(old_summary))))
    assert new_leaves.keys() == old_leaves.keys()
    for key, want in old_leaves.items():
        if isinstance(want, float):
            assert abs(new_leaves[key] - want) <= 1e-12, key
        elif key[0] != "config":
            assert new_leaves[key] == want, key


def _compare_series(model, steps, noise, tmp_path, ordering="canonical_s5"):
    checkpoints = _model_checkpoints(model, 5.0, steps, ordering)
    new = _series_rows(tmp_path / "new.csv", [], model, checkpoints, noise)
    old = old_series_rows(tmp_path / "old.csv", [], model, checkpoints,
                          noise)
    assert len(new) == steps + 1
    assert np.allclose(np.array(new), np.array(old), rtol=0, atol=1e-12)
    assert (tmp_path / "new.csv").read_bytes() \
        == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("noise", [None, NoiseModel().scaled(2.0)])
def test_series_longer_than_a_readout_block(noise, tmp_path):
    steps = experiments._READOUT_BLOCK + 44
    _compare_series(two_mode_model(1.0, 1.0), steps, noise, tmp_path,
                    "odd_even_s6")


@pytest.mark.parametrize("noise", [None, NoiseModel()])
def test_four_mode_series_across_small_blocks(noise, tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "_READOUT_BLOCK", 3)
    _compare_series(four_mode_ahm(1.0, 1.0, 0.0, 1.0), 7, noise, tmp_path)


# -- the batched readout, row by row ----------------------------------------

def _unit_rows(rng, k, dim):
    v = rng.normal(size=(k, dim)) + 1j * rng.normal(size=(k, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _densities(rng, k, dim):
    """Random mixed states: a Ginibre matrix G G^dag over its trace."""
    g = rng.normal(size=(k, dim, dim)) + 1j * rng.normal(size=(k, dim, dim))
    rhos = g @ g.conj().transpose(0, 2, 1)
    return rhos / np.trace(rhos, axis1=1, axis2=2).real[:, None, None]


@SETTINGS
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 4),
       k=st.integers(1, 6), mixed=st.booleans())
def test_readout_matches_the_public_functions(seed, n, k, mixed):
    rng = np.random.default_rng(seed)
    dim = 2 ** n
    digital, exact = _unit_rows(rng, k, dim), _unit_rows(rng, k, dim)
    rhos = _densities(rng, k, dim) if mixed else None
    reachable = np.sort(rng.choice(dim, size=rng.integers(1, dim + 1),
                                   replace=False))
    columns = np.array(_readout(digital, exact, rhos, reachable)).T
    assert columns.shape == (k, n + 5)
    for row, d, e, i in zip(columns, digital, exact, range(k)):
        ref, ideal = PureState(d, n), PureState(e, n)
        state = ref if rhos is None else DensityState(rhos[i], n)
        p = state.probabilities()
        want = [*mode_occupations(state), 1.0 - p[reachable].sum(),
                state_fidelity(ref.probabilities(), p),
                state_fidelity(ideal.probabilities(), p),
                state_overlap(ref, state), state_overlap(ideal, state)]
        assert np.allclose(row, want, rtol=0, atol=1e-15)


@SETTINGS
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 5),
       m=st.integers(2, 16))
def test_fidelities_match_row_by_row(seed, k, m):
    rng = np.random.default_rng(seed)
    a, b = rng.random((2, k, m))
    a /= a.sum(axis=1, keepdims=True)
    b /= b.sum(axis=1, keepdims=True)
    want = [old_state_fidelity(x, y) for x, y in zip(a, b)]
    assert np.allclose(state_fidelities(a, b), want, rtol=0, atol=1e-15)
    assert [state_fidelity(x, y) for x, y in zip(a, b)] == want


@pytest.mark.parametrize("n", [2, 3, 4])
def test_batched_readout_is_the_old_readout_to_the_bit(n):
    # last-bit differences of the row forms (a gemm, einsum, np.abs or
    # an array square) show up in a few rows per thousand
    rng = np.random.default_rng(n)
    k, dim = 1500, 2 ** n
    refs, amps = _unit_rows(rng, k, dim), _unit_rows(rng, k, dim)
    rhos = _densities(rng, k, dim)
    pure = [PureState(v, n) for v in amps]
    mixed = [DensityState(rho, n) for rho in rhos]
    bras = [PureState(v, n) for v in refs]
    assert state_overlaps(refs, amps).tolist() == [
        old_state_overlap(r, s) for r, s in zip(bras, pure)]
    assert state_overlaps(refs, rhos).tolist() == [
        old_state_overlap(r, s) for r, s in zip(bras, mixed)]
    p_ideal = np.abs(refs) ** 2
    p_run = np.clip(rhos.diagonal(axis1=1, axis2=2).real, 0.0, None)
    assert state_fidelities(p_ideal, p_run).tolist() == [
        old_state_fidelity(a, b) for a, b in zip(p_ideal, p_run)]
    assert occupation_rows(p_run).tolist() == [
        old_mode_occupations(s).tolist() for s in mixed]
    assert [mode_occupations(s).tolist() for s in mixed] == [
        old_mode_occupations(s).tolist() for s in mixed]


@SETTINGS
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 4),
       mixed=st.booleans())
def test_overlap_is_the_old_overlap(seed, n, mixed):
    rng = np.random.default_rng(seed)
    ref, psi = (PureState(v, n) for v in _unit_rows(rng, 2, 2 ** n))
    state = DensityState(_densities(rng, 1, 2 ** n)[0], n) if mixed else psi
    assert state_overlap(ref, state) == old_state_overlap(ref, state)


@SETTINGS
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 5),
       m=st.integers(2, 16), data=st.data(),
       defect=st.sampled_from(["negative", "nan", "sum"]))
def test_a_bad_row_raises_the_message_of_that_row(seed, k, m, data,
                                                   defect):
    rng = np.random.default_rng(seed)
    stacks = rng.random((2, k, m))
    stacks /= stacks.sum(axis=2, keepdims=True)
    side = data.draw(st.integers(0, 1))
    row = data.draw(st.integers(0, k - 1))
    bad = stacks[side, row]
    if defect == "negative":
        bad[0] = -0.25
        bad[1:] *= 1.25 / bad[1:].sum()
    elif defect == "nan":
        bad[0] = np.nan
    else:
        bad *= 1.1
    with pytest.raises(ValueError) as want:
        state_fidelity(stacks[0, row], stacks[1, row])
    with pytest.raises(ValueError) as got:
        state_fidelities(stacks[0], stacks[1])
    assert str(got.value) == str(want.value)
    with pytest.raises(ValueError) as old:
        old_state_fidelity(stacks[0, row], stacks[1, row])
    assert str(old.value) == str(want.value)


@pytest.mark.parametrize("scale", [1.0 + 3 * NORM_TOL, np.nan])
def test_one_unnormalised_row_fails_the_stack(scale):
    amps = _unit_rows(np.random.default_rng(5), 4, 8)
    check_norms(amps)
    amps[2] *= scale
    with pytest.raises(ValueError, match="state is not normalised"):
        PureState(amps[2], 3)
    with pytest.raises(ValueError, match="state is not normalised"):
        check_norms(amps)


def test_readout_checks_every_row_of_its_stacks():
    rng = np.random.default_rng(7)
    digital, exact = _unit_rows(rng, 3, 8), _unit_rows(rng, 3, 8)
    rhos = _densities(rng, 3, 8)
    reachable = np.arange(8)
    _readout(digital, exact, rhos, reachable)
    bad = rhos.copy()
    bad[1] = 1.5 * bad[1] - 0.5 * np.eye(8) / 8  # unit trace, not PSD
    with pytest.raises(ValueError, match="not positive semidefinite"):
        _readout(digital, exact, bad, reachable)
    digital[2] *= 1.0 + 3 * NORM_TOL
    for stack in (None, rhos):
        with pytest.raises(ValueError, match="state is not normalised"):
            _readout(digital, exact, stack, reachable)
