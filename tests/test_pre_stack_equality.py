"""The exact reference stack against a copy of the per-window loop it
replaced.

``old_evolve_slices`` below is ``simulator.evolve_slices`` as it was
when it returned one ``PureState`` per window.  On the default ramps and
on random stacks its rows must equal the new stack to the bit, and every
series experiment run on it must write the same CSV and JSON bytes.
"""
import numpy as np
import pytest

import fermisim.experiments as experiments
import fermisim.simulator as simulator
from fermisim.compiler import digitize_schedule
from fermisim.experiments import (
    EXACT_SLICES,
    ExperimentConfig,
    _advance_exact,
    default_ramp_schedule,
    run,
)
from fermisim.simulator import (
    PureState,
    evolve_slices,
    invariant_support,
    ordered_product,
    prepare_input,
)


def old_evolve_slices(hamiltonians, durations, state, every=None):
    hs = np.asarray(hamiltonians)
    dim = 2 ** state.qubit_count
    if hs.ndim != 3 or hs.shape[1:] != (dim, dim):
        raise ValueError("Hamiltonian and state qubit counts differ")
    dts = np.asarray(durations, float)
    if dts.shape != (len(hs),):
        raise ValueError("durations must be 1-D with one entry per slice")
    if not np.isfinite(dts).all():
        raise ValueError("durations must be finite")
    every = every or len(hs)
    if len(hs) % every:
        raise ValueError("slice count must be a multiple of 'every'")
    support = invariant_support(hs, state.amplitudes)
    sub = len(support)
    vals, vecs = np.linalg.eigh(hs[:, support[:, None], support])
    with np.errstate(over="raise", invalid="raise"):
        phases = np.exp(-1j * vals * dts[:, None])
    props = (vecs * phases[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
    amps = state.amplitudes[support]
    out = []
    for u in ordered_product(props.reshape(-1, every, sub, sub)):
        amps = u @ amps
        full = np.zeros(dim, dtype=complex)
        full[support] = amps
        out.append(PureState(full, state.qubit_count))
    return out


def old_stack(*args, **kwargs):
    """The old loop's window states in the new stack format."""
    return np.stack([s.amplitudes for s in old_evolve_slices(*args,
                                                             **kwargs)])


@pytest.mark.parametrize("mode_count,steps", [(2, 2), (3, 1), (3, 7)])
def test_default_ramp_stack_is_the_per_window_loop(mode_count, steps,
                                                   monkeypatch):
    schedule = default_ramp_schedule()
    psi0 = prepare_input({2: "two_mode", 3: "three_mode"}[mode_count])
    sample = schedule.duration / 60
    for windows, slices in (
            ([p.window for p in digitize_schedule(schedule, steps,
                                                  mode_count)],
             EXACT_SLICES),
            ([(i * sample, (i + 1) * sample) for i in range(60)], 20)):
        new = _advance_exact(psi0, schedule, mode_count, windows, slices)
        with monkeypatch.context() as patch:
            patch.setattr(experiments, "evolve_slices", old_stack)
            old = _advance_exact(psi0, schedule, mode_count, windows, slices)
        assert new.shape == (len(windows), 2 ** mode_count)
        assert np.array_equal(new, old)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("every", [1, 3, 20])
def test_random_stack_is_the_per_window_loop(seed, every):
    rng = np.random.default_rng(seed)
    qubits = 2 + seed % 3
    dim = 2 ** qubits
    m = rng.normal(size=(5 * every, dim, dim)) \
        + 1j * rng.normal(size=(5 * every, dim, dim))
    hs = m + m.conj().transpose(0, 2, 1)
    durations = rng.uniform(0.5, 1.5, len(hs)) / every
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    state = PureState(amps / np.linalg.norm(amps), qubits)
    new = evolve_slices(hs, durations, state, every=every)
    assert new.shape == (5, dim)
    assert np.array_equal(new, old_stack(hs, durations, state,
                                         every=every))


CASES = [
    (experiment, noise, ordering, None)
    for experiment in ("fig3", "fig4_3mode", "fig4_4mode", "fig5_2mode",
                       "fig5_3mode")
    for noise in (None, 1.0)
    for ordering in ("s5", "s6")
] + [
    (experiment, None, ordering, None)
    for experiment in ("digital_error_s4", "digital_error_s5")
    for ordering in ("s5", "s6")
] + [
    ("fig5_3mode", 1.0, "s6", 5),
    ("fig4_4mode", 1.0, "s5", 300),
]


@pytest.mark.parametrize("experiment,noise,ordering,steps", CASES)
def test_series_files_match_the_per_window_loop(experiment, noise, ordering,
                                                steps, tmp_path,
                                                monkeypatch):
    config = {"experiment": experiment, "ordering": ordering,
              "out_dir": "out"}  # relative: summary.json echoes it
    if noise is not None:
        config["noise_scale"] = noise
    if steps is not None:
        config["steps"] = steps
    files = {}
    for tag in ("new", "old"):
        with monkeypatch.context() as patch:
            if tag == "old":
                patch.setattr(experiments, "evolve_slices", old_stack)
            (tmp_path / tag).mkdir()
            patch.chdir(tmp_path / tag)
            run(ExperimentConfig(**config))
        files[tag] = {p.name: p.read_bytes()
                      for p in (tmp_path / tag / "out").iterdir()}
    assert any(name.endswith(".csv") for name in files["new"])
    assert "summary.json" in files["new"]
    assert files["new"] == files["old"]


def test_fig5_run_checks_each_stack_once(tmp_path, monkeypatch):
    steps = 50
    experiments._input_state(3)  # the cached input, checked once
    calls = []
    check = simulator.check_norms

    def counting(amplitudes, *error):
        calls.append(len(amplitudes))
        check(amplitudes, *error)

    monkeypatch.setattr(simulator, "check_norms", counting)
    monkeypatch.setattr(experiments, "check_norms", counting)
    run(ExperimentConfig("fig5_3mode", str(tmp_path), steps=steps))
    # the step reference, the digital readout block (input row included)
    # and the 60-sample dense reference: one check each, not one a window
    assert sorted(calls) == [steps, steps + 1, 60]
