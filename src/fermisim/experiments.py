"""End-to-end experiment runners emitting plot-ready CSV and JSON files.

Every run is a pure function of its configuration: the noise algebra is
deterministic and randomized benchmarking derives all randomness from
the configured seed, so re-running a config reproduces each output file
byte for byte.

``EXPERIMENTS`` is the one table of experiments: each id's record holds
its runner, the top-level config fields the runner reads, the checks
of its ``params`` and the summary key a sweep reports.  A ``steps``,
``noise_scale`` or ``total_time`` that is set but not read is a config
error, and so is a sweep along an axis the experiment does not read.

* ``fig3`` - two-mode constant-coupling evolution to T = 5.0 for step
  counts 1..max; occupations, digital and exact fidelities, per-step
  end-state fidelity slope.
* ``fig4_3mode`` / ``fig4_4mode`` - three-step chain and asymmetric
  four-mode runs with per-step fidelity drops.
* ``fig5_2mode`` / ``fig5_3mode`` - insulating-to-metallic ramp of the
  hopping under constant repulsion, digitised with interval averages
  in the configured ordering, against an exact time-dependent
  reference of ``EXACT_SLICES`` slices per step (:func:`_advance_exact`).
* ``digital_error_s4`` / ``digital_error_s5`` - noiseless digitisation
  error against the exact evolution, constant and ramped couplings.
* ``rb_s3`` - interleaved randomized benchmarking of the two-qubit
  phase block and the quarter-angle evolution step.
* ``anticommutation_fig2d`` - process tomography of the two exchange
  halves and their composition.
* ``census_table_s1`` - canonical step gate censuses and error budgets.

Constant-coupling and ramped series share one checkpoint loop: each
step's circuit runs on the digital and the (noisy) run state, and both
are compared with the exact state at the step's end, each series read
out in one pass.  The exact references run on the model's reachable
block (:func:`reachable_indices`), through ``simulator.evolve_constant``
(constant couplings) or ``evolve_slices`` (ramps), scattered to 2^n.
"""
from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass, field, asdict
from functools import cache, partial
from pathlib import Path
from typing import Callable

import numpy as np

from .benchmarking import (
    clifford_group,
    extract_interleaved_error,
    fit_decay,
    rb_runs,
)
from .circuits import (
    census_single_qubit_total,
    gate_census,
    run_blocks,
    validate_phase_range,
)
from .compiler import (
    PHASE_RANGE,
    Schedule,
    compile_trotter_step,
    compile_zz_block,
    digitize_schedule,
    plan_for_model,
    step_templates,
)
from .fermions import (
    SCHEDULE_MODELS,
    FermionModel,
    coupling_matrices,
    four_mode_ahm,
    model_hamiltonian,
    three_mode_model,
    two_mode_model,
)
from .pauli import read_only
from .simulator import (
    NoiseModel,
    # unused here; perfbench/tests checks that its tracer rebinds this name
    apply_circuit,  # noqa: F401
    check_densities,
    check_norms,
    density_matrices,
    error_budget,
    evolve_constant,
    evolve_slices,
    invariant_support,
    lower_circuit,
    occupation_rows,
    prepare_input,
    scatter_block,
    state_fidelities,
    state_overlaps,
)
from .tomography import anticommutation_experiment

ORDERING_ALIASES = {"s5": "canonical_s5", "s6": "odd_even_s6",
                    "canonical_s5": "canonical_s5",
                    "odd_even_s6": "odd_even_s6"}


# Slices per digitisation step of the exact schedule reference; 2400
# agree with it to an infidelity below 1e-10 (tests/test_experiments.py).
EXACT_SLICES = 600

# Largest total_time whose exact phases keep the 1e-12 rule,
# |lambda| t <= simulator.MAX_PHASE = 2^53 * 1e-12.  The fixed-coupling
# models (fig3, fig4_*, digital_error_s4) reach max|lambda| = 2.343
# (four-mode, offset included), so t <= 9007 / 2.343 = 3844, rounded down.
MAX_TOTAL_TIME = 3800.0

# Most steps of one series (``steps``, each ``step_counts`` entry), so
# its one readout stack holds at most 4 MiB of densities.  On a two-core
# Xeon, noisy fig5_3mode (600 exact 3 x 3 slices per step, in one eigh)
# peaks at 74 MB at 100 steps, 194 MB at 400 and 434 MB at 1000; fig3
# runs every count up to ``steps``: 1.6 s at 300, 6.4 s at 600 (steps^2).
MAX_STEPS = 1000

# Most Cliffords one RB run may draw, k_sequences x sum(m_values): about
# 15x the default 6,800, and each draw holds 2 KiB of sequence columns.
RB_MAX_DRAWS = 100_000


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the field."""


@dataclass
class ExperimentConfig:
    experiment: str
    out_dir: str
    noise_scale: float | None = None  # None: noiseless; 1.0: typical values
    steps: int | None = None
    seed: int = 42
    ordering: str = "canonical_s5"
    total_time: float | None = None
    params: dict = field(default_factory=dict)

    def validate(self) -> None:
        """Reject a malformed config before any work is done."""
        if not (isinstance(self.experiment, str)  # an id, and hashable
                and self.experiment in EXPERIMENTS):
            raise ConfigError(
                f"experiment: unknown id {self.experiment!r}; "
                f"choose from {list(EXPERIMENTS)}"
            )
        spec = EXPERIMENTS[self.experiment]
        if not (isinstance(self.out_dir, str) and self.out_dir):
            raise ConfigError("out_dir: must be a non-empty string")
        if self.steps is not None:
            _positive_int("steps", self.steps)
            if self.steps > MAX_STEPS:
                raise ConfigError(f"steps: must be at most {MAX_STEPS}")
        if self.noise_scale is not None:
            if not (_is_real(self.noise_scale) and self.noise_scale >= 0):
                raise ConfigError("noise_scale: must be a finite number >= 0")
            try:
                self.noise_model()
            except ValueError as exc:
                raise ConfigError(f"noise_scale: {exc}") from None
        if not (isinstance(self.ordering, str)
                and self.ordering in ORDERING_ALIASES):
            raise ConfigError(
                f"ordering: unknown value {self.ordering!r}"
            )
        if self.total_time is not None and not (
                _is_real(self.total_time)
                and 0 < self.total_time <= MAX_TOTAL_TIME):
            raise ConfigError(f"total_time: must be a number > 0 and "
                              f"<= {MAX_TOTAL_TIME:g}")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ConfigError("seed: must be a non-negative integer")
        # seed and ordering are never None: set cannot be told from unset
        for name in ("steps", "noise_scale", "total_time"):
            if getattr(self, name) is not None and name not in spec.reads:
                raise ConfigError(
                    f"{name}: {self.experiment} does not read it; "
                    f"leave it unset")
        if not isinstance(self.params, dict):
            raise ConfigError("params: must be an object")
        unknown = sorted(set(self.params) - set(spec.params))
        if unknown:
            raise ConfigError(
                f"params: unknown keys {unknown} for {self.experiment}; "
                f"allowed: {sorted(spec.params) or 'none'}"
            )
        for key, check in spec.params.items():
            if key in self.params:
                check(f"params.{key}", self.params[key])
        if spec.check_params is not None:
            spec.check_params(self.params)

    def schedule(self) -> Schedule:
        """``params.schedule`` parsed, or the default ramp."""
        if "schedule" not in self.params:
            return default_ramp_schedule()
        return _parse_schedule("params.schedule", self.params["schedule"])

    @property
    def canonical_ordering(self) -> str:
        return ORDERING_ALIASES[self.ordering]

    def noise_model(self) -> NoiseModel | None:
        if self.noise_scale is None or self.noise_scale == 0.0:
            return None
        return NoiseModel().scaled(self.noise_scale)

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, payload: dict) -> ExperimentConfig:
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(f"config: unknown fields {sorted(unknown)}")
        return cls(**payload)


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _positive_int(name: str, value) -> None:
    if not (_is_int(value) and value >= 1):
        raise ConfigError(f"{name}: must be an integer >= 1")


def _positive_int_list(name: str, value) -> None:
    if not (isinstance(value, (list, tuple)) and value
            and all(_is_int(v) and v >= 1 for v in value)):
        raise ConfigError(f"{name}: must be a non-empty list of "
                          f"integers >= 1")


def _step_counts(name: str, value) -> None:
    _positive_int_list(name, value)
    if max(value) > MAX_STEPS or len(set(value)) < len(value):
        raise ConfigError(f"{name}: must be distinct, each <= {MAX_STEPS}")


def _rb_lengths(name: str, value) -> None:
    _positive_int_list(name, value)
    if len(set(value)) < 3:  # a decay fit needs three lengths
        raise ConfigError(f"{name}: needs at least 3 distinct lengths")


def _rb_settings(params: dict) -> tuple[list, int]:
    """rb_s3's ``m_values`` and ``k_sequences``, defaults filled in."""
    return (params.get("m_values", [1, 5, 10, 20, 40, 60]),
            int(params.get("k_sequences", 50)))


def _rb_draws(params: dict) -> None:
    m_values, k_sequences = _rb_settings(params)
    draws = k_sequences * sum(m_values)
    if draws > RB_MAX_DRAWS:
        raise ConfigError(
            f"params: k_sequences x sum(m_values) = {draws} Cliffords "
            f"per run; at most {RB_MAX_DRAWS}")


def _parse_schedule(name: str, value) -> Schedule:
    try:
        return Schedule.from_json_dict(value)
    except KeyError as exc:
        raise ConfigError(f"{name}: missing {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name}: {exc}") from None


def _is_real(value) -> bool:  # finite and within float range
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="ascii")


@cache
def _input_state(mode_count: int) -> tuple[np.ndarray, np.ndarray]:
    """The amplitudes and the Pauli vector of a model size's (checked)
    input state, both read-only; built once per mode count."""
    psi0 = prepare_input({2: "two_mode", 3: "three_mode",
                          4: "four_mode"}[mode_count])
    return read_only(psi0.amplitudes), read_only(psi0.to_density()._pauli)


@cache
def reachable_indices(model: FermionModel) -> np.ndarray:
    """Read-only sorted basis indices that the model's Hamiltonian
    reaches from its input state (:func:`invariant_support`), the block
    of its exact references; ``p_other`` is the population outside."""
    return read_only(invariant_support(model_hamiltonian(model)[1][None],
                                       _input_state(model.mode_count)[0]))


def _readout(digital: np.ndarray, exact: np.ndarray,
             rhos: np.ndarray | None, reachable: np.ndarray) -> list:
    """The checked CSV columns after ``time`` of a block of checkpoints.

    ``digital`` and ``exact`` are (k, 2^n) amplitude stacks, ``rhos`` the
    run's (k, 2^n, 2^n) densities, or None when the run is the digital
    state itself.  The digital norms and the densities are checked here;
    the exact states arrive checked.
    """
    check_norms(digital)
    p_digital = np.abs(digital) ** 2
    if rhos is None:
        states, p_run = digital, p_digital
    else:
        check_densities(rhos)
        states = rhos
        p_run = np.clip(rhos.diagonal(axis1=1, axis2=2).real, 0.0, None)
    return [*occupation_rows(p_run).T, 1.0 - p_run[:, reachable].sum(axis=1),
            state_fidelities(p_digital, p_run),
            state_fidelities(np.abs(exact) ** 2, p_run),
            state_overlaps(digital, states), state_overlaps(exact, states)]


def _series_rows(path: Path, files: list, model: FermionModel,
                 checkpoints, noise: NoiseModel | None) -> list:
    """Occupations and fidelities at t = 0 and after every step,
    written to the CSV ``path`` (its name appended to ``files``).

    ``checkpoints`` is (end times, step circuits, exact amplitudes at
    each end time); steps that repeat one circuit object share its
    lowering, which serves both the digital and the noisy run.  The
    run's own state (noisy when noise is on) is compared against the
    ideal digitised state and the exact evolution at the same simulated
    time, both via the measurement-side distribution metric
    (``fidelity_*``) and via the exact state overlap (``overlap_*``).

    The digital run steps the amplitude vector, the noisy run the Pauli
    vector, into one stack each; the whole series is then checked and
    read out in one batched pass (:func:`_readout`).
    """
    n = model.mode_count
    psi0, pauli = _input_state(n)
    amps = psi0
    lowered = {}  # id of a step circuit -> its one lowering
    times, circuits, exact = checkpoints
    digital = np.empty((len(times) + 1, 2 ** n), dtype=complex)
    paulis = np.empty((len(times) + 1, 4 ** n)) if noise is not None else None
    for j, step_circuit in enumerate([None, *circuits]):
        if step_circuit is not None:
            if id(step_circuit) not in lowered:
                lowered[id(step_circuit)] = lower_circuit(step_circuit, noise)
            step = lowered[id(step_circuit)]
            amps = run_blocks(amps.reshape((2,) * n + (1,)),
                              step.blocks).reshape(-1)
            if noise is not None:
                pauli = run_blocks(pauli.reshape((4,) * n + (1,)),
                                   step.channel_blocks).reshape(-1)
        digital[j] = amps
        if paulis is not None:
            paulis[j] = pauli
    # one vector-matrix product per row, as for a single state
    rhos = None if paulis is None else density_matrices(paulis[:, None], n)
    columns = _readout(digital, np.vstack([psi0, exact]), rhos,
                       reachable_indices(model))
    rows = list(zip([0.0, *times], *(column.tolist() for column in columns)))
    write_csv(path, ["time", *(f"p_mode{i + 1}" for i in range(n)),
                     "p_other", "fidelity_vs_digital", "fidelity_vs_exact",
                     "overlap_vs_digital", "overlap_vs_exact"], rows)
    files.append(path.name)
    return rows


def _model_checkpoints(model: FermionModel, total_time: float, steps: int,
                       ordering: str) -> tuple:
    """Checkpoints of a constant-coupling run: exp(-iHt) at each step."""
    plan = plan_for_model(model, total_time, steps, ordering)
    templates = step_templates(plan)
    dt = total_time / steps
    times = [(k + 1) * dt for k in range(steps)]
    block = reachable_indices(model)
    h = model_hamiltonian(model)[1]  # spin_hamiltonian checked Hermiticity
    rows = evolve_constant(h[block[:, None], block], times,
                           _input_state(model.mode_count)[0][block])
    return (times, [templates[k % len(templates)] for k in range(steps)],
            scatter_block(rows, block, len(h)))


def _schedule_checkpoints(schedule: Schedule, mode_count: int, steps: int,
                          ordering: str) -> tuple:
    """Checkpoints of a digitised schedule run, exact by fine slicing."""
    plans = digitize_schedule(schedule, steps, mode_count, ordering)
    exact = _advance_exact(schedule, mode_count,
                           [plan.window for plan in plans], EXACT_SLICES)
    return ([p.window[1] for p in plans],
            [compile_trotter_step(p, k) for k, p in enumerate(plans)], exact)


def _advance_exact(schedule: Schedule, mode_count: int, windows,
                   slices: int) -> np.ndarray:
    """The checked (windows, 2^n) amplitudes of the input state at the
    end of each of consecutive windows, evolved exactly: ``slices`` equal
    slices per window, each under its exact interval-averaged couplings
    as V H_hop + U H_rep on the model's block (only H_hop couples basis
    states, so every V and U keep it), one real (slices, k, k) stack.
    """
    block = reachable_indices(SCHEDULE_MODELS[mode_count](1.0, 1.0))
    terms = np.stack(coupling_matrices(mode_count))[:, block[:, None], block]
    t0, t1 = np.asarray(windows, dtype=float).T
    dt = (t1 - t0) / slices
    edges = t0[:, None] + np.arange(slices + 1) * dt[:, None]
    couplings = schedule.averages(edges).reshape(-1, 2)
    rows = evolve_slices(np.tensordot(couplings, terms, 1),
                         np.repeat(dt, slices),
                         _input_state(mode_count)[0][block], slices)
    return scatter_block(rows, block, 2 ** mode_count)


def _fidelity_slope(xs, fids) -> float:
    """Magnitude of the linear per-step fidelity decrease."""
    if len(fids) < 2:
        return 0.0
    coeffs = np.polyfit(np.asarray(xs, dtype=float),
                        np.asarray(fids, dtype=float), 1)
    return float(-coeffs[0])


def default_ramp_schedule() -> Schedule:
    """Hopping ramped 0 -> 1 over [1, 2] inside [0, 3], repulsion at 1."""
    return Schedule(
        3.0,
        v_knots=((0.0, 0.0), (1.0, 0.0), (2.0, 1.0), (3.0, 1.0)),
        u_knots=((0.0, 1.0), (3.0, 1.0)),
    )


def _canonical_models() -> dict[str, tuple[FermionModel, float]]:
    """The census-anchored models with representative step times."""
    return {
        "two_mode": (two_mode_model(1.0, 1.0), 1.25),
        "three_mode": (three_mode_model(1.0, 1.0), 1.0),
        "four_mode": (four_mode_ahm(1.0, 1.0, 0.0, 1.0), 1.0),
    }


def _run_fig3(config: ExperimentConfig, out: Path) -> dict:
    max_steps = config.steps or 8
    total_time = config.total_time or 5.0
    noise = config.noise_model()
    end_overlap = {}
    end_estimator = {}
    files = []
    model = two_mode_model(1.0, 1.0)
    for n in range(1, max_steps + 1):
        rows = _series_rows(
            out / f"fig3_steps{n}.csv", files, model,
            _model_checkpoints(model, total_time, n,
                               config.canonical_ordering), noise)
        end_overlap[n] = rows[-1][-2]     # overlap_vs_digital at T
        end_estimator[n] = rows[-1][-4]   # fidelity_vs_digital at T
    plan = plan_for_model(model, total_time, max_steps,
                          config.canonical_ordering)
    census = gate_census(compile_trotter_step(plan, 0))
    return {
        "experiment": "fig3",
        "total_time": total_time,
        "end_fidelity_vs_digital": {str(k): v
                                    for k, v in end_estimator.items()},
        "end_overlap_vs_digital": {str(k): v
                                   for k, v in end_overlap.items()},
        "per_step_fidelity_slope": _fidelity_slope(
            list(end_overlap), list(end_overlap.values())),
        "per_step_estimator_slope": _fidelity_slope(
            list(end_estimator), list(end_estimator.values())),
        "step_census": census,
        "step_error_budget": error_budget(census, NoiseModel()),
        "files": files,
    }


def _run_fig4(config: ExperimentConfig, out: Path, four_mode: bool) -> dict:
    steps = config.steps or 3
    total_time = config.total_time or float(steps)
    noise = config.noise_model()
    runs = {}
    if four_mode:
        models = {"ahm_uy1": four_mode_ahm(1.0, 1.0, 0.0, 1.0)}
    else:
        models = {"u0": three_mode_model(1.0, 0.0),
                  "u1": three_mode_model(1.0, 1.0)}
    files = []
    name = "fig4_4mode" if four_mode else "fig4_3mode"
    for tag, model in models.items():
        rows = _series_rows(
            out / f"{name}_{tag}.csv", files, model,
            _model_checkpoints(model, total_time, steps,
                               config.canonical_ordering), noise)
        overlaps = [r[-2] for r in rows]
        runs[tag] = {
            "end_overlap_vs_digital": overlaps[-1],
            "per_step_fidelity_drop": _fidelity_slope(
                range(len(overlaps)), overlaps),
            "end_fidelity_vs_digital": rows[-1][-4],
            "end_fidelity_vs_exact": rows[-1][-3],
        }
    anchor = "ahm_uy1" if four_mode else "u1"
    plan = plan_for_model(models[anchor], total_time, steps,
                          config.canonical_ordering)
    census = gate_census(compile_trotter_step(plan, 0))
    return {
        "experiment": name,
        "steps": steps,
        "total_time": total_time,
        "runs": runs,
        "per_step_fidelity_drop": runs[anchor]["per_step_fidelity_drop"],
        "step_census": census,
        "step_error_budget": error_budget(census, NoiseModel()),
        "files": files,
    }


def _run_fig5(config: ExperimentConfig, out: Path, mode_count: int) -> dict:
    steps = config.steps or (2 if mode_count == 2 else 1)
    schedule = config.schedule()
    name = f"fig5_{mode_count}mode"
    files = []
    rows = _series_rows(
        out / f"{name}.csv", files, SCHEDULE_MODELS[mode_count](1.0, 1.0),
        _schedule_checkpoints(schedule, mode_count, steps,
                              config.canonical_ordering),
        config.noise_model())
    # dense exact reference for plotting the continuous line
    psi0 = _input_state(mode_count)[0]
    dt = schedule.duration / 60  # 60 samples, 20 slices each
    times = [i * dt for i in range(61)]
    amps = np.vstack([psi0, _advance_exact(
        schedule, mode_count, list(zip(times, times[1:])), 20)])
    dense_rows = list(zip(times,
                          *occupation_rows(np.abs(amps) ** 2).T.tolist()))
    exact_path = out / f"{name}_exact.csv"
    write_csv(exact_path,
              ["time"] + [f"p_mode{i + 1}" for i in range(mode_count)],
              dense_rows)
    files.append(exact_path.name)
    fid_dig = [r[-4] for r in rows]
    fid_exact = [r[-3] for r in rows]
    return {
        "experiment": name,
        "steps": steps,
        "schedule": schedule.to_json_dict(),
        "min_fidelity_vs_digital": min(fid_dig),
        "min_fidelity_vs_exact": min(fid_exact),
        "end_fidelity_vs_exact": fid_exact[-1],
        "files": files,
    }


def _run_digital_error_s4(config: ExperimentConfig, out: Path) -> dict:
    total_time = config.total_time or 3.0
    step_counts = config.params.get("step_counts", [1, 2, 4, 8])
    cases = {
        "three_mode_u0": three_mode_model(1.0, 0.0),
        "three_mode_u1": three_mode_model(1.0, 1.0),
        "four_mode": four_mode_ahm(1.0, 1.0, 0.0, 1.0),
    }
    summary_fids = {}
    summary_overlaps = {}
    files = []
    for tag, model in cases.items():
        fidelities = {}
        overlaps = {}
        for n in step_counts:
            rows = _series_rows(
                out / f"digital_error_s4_{tag}_steps{n}.csv", files, model,
                _model_checkpoints(model, total_time, int(n),
                                   config.canonical_ordering), None)
            fidelities[str(n)] = rows[-1][-3]  # fidelity_vs_exact at T
            overlaps[str(n)] = rows[-1][-1]    # overlap_vs_exact at T
        summary_fids[tag] = fidelities
        summary_overlaps[tag] = overlaps
    return {
        "experiment": "digital_error_s4",
        "total_time": total_time,
        "end_fidelity_vs_exact": summary_fids,
        "end_overlap_vs_exact": summary_overlaps,
        "files": files,
    }


def _run_digital_error_s5(config: ExperimentConfig, out: Path) -> dict:
    schedule = default_ramp_schedule()
    results = {}
    files = []
    for mode_count, steps in ((2, 2), (3, 1)):
        rows = _series_rows(
            out / f"digital_error_s5_{mode_count}mode.csv", files,
            SCHEDULE_MODELS[mode_count](1.0, 1.0),
            _schedule_checkpoints(schedule, mode_count, steps,
                                  config.canonical_ordering), None)
        results[f"{mode_count}mode"] = {
            "steps": steps,
            "min_fidelity_vs_exact": min(r[-3] for r in rows),
            "end_fidelity_vs_exact": rows[-1][-3],
        }
    return {
        "experiment": "digital_error_s5",
        "schedule": schedule.to_json_dict(),
        "runs": results,
        "files": files,
    }


def quarter_angle_step_circuit(ordering: str = "canonical_s5"):
    """Two-mode step with all block phases at pi/2 (a Clifford)."""
    plan = plan_for_model(two_mode_model(1.0, 2.0), math.pi / 2, 1, ordering)
    return compile_trotter_step(plan, 0)


def _run_rb_s3(config: ExperimentConfig, out: Path) -> dict:
    noise = config.noise_model()
    m_values, k_sequences = _rb_settings(config.params)
    group = clifford_group(two_qubit=True)
    zz = compile_zz_block(math.pi / 2, (0, 1))
    step = quarter_angle_step_circuit(config.canonical_ordering)
    tables = rb_runs(m_values, k_sequences,
                     [(None, config.seed, "ref"),
                      (zz, config.seed + 1, "zz_block"),
                      (step, config.seed + 2, "trotter_step")], noise, group)
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


def _run_anticommutation(config: ExperimentConfig, out: Path) -> dict:
    report, chis = anticommutation_experiment(config.noise_model(),
                                              return_processes=True)
    for key, chi in chis.items():
        write_json(out / f"chi_{key}.json", chi.to_json_dict())
    return {
        "experiment": "anticommutation_fig2d",
        **report,
        "files": [f"chi_{k}.json" for k in chis],
    }


def _run_census(config: ExperimentConfig, out: Path) -> dict:
    noise = NoiseModel()
    entries = {}
    for tag, (model, dt) in _canonical_models().items():
        plan = plan_for_model(model, dt, 1, config.canonical_ordering)
        step = compile_trotter_step(plan, 0)
        census = gate_census(step)
        entries[tag] = {
            "census": census,
            "single_qubit_total": census_single_qubit_total(census),
            "error_budget": error_budget(census, noise),
            "phase_range_violations": len(
                validate_phase_range(step, *PHASE_RANGE)),
        }
    path = out / "census_table_s1.json"
    write_json(path, entries)
    return {
        "experiment": "census_table_s1",
        "table": entries,
        "files": [path.name],
    }


@dataclass(frozen=True)
class Experiment:
    """What one experiment id runs and which config fields it takes."""

    runner: Callable[[ExperimentConfig, Path], dict]
    reads: tuple[str, ...]  # top-level config fields the runner reads
    params: dict = field(default_factory=dict)  # key -> check of its value
    # a check of the params as a whole, after each key's own
    check_params: Callable[[dict], None] | None = None
    metric: str | None = None  # summary key a sweep reports; None: no sweep


_STEP_FIELDS = ("steps", "noise_scale", "total_time", "ordering")
_RAMP_FIELDS = ("steps", "noise_scale", "ordering")
_SCHEDULE = {"schedule": _parse_schedule}

EXPERIMENTS = {
    "fig3": Experiment(_run_fig3, _STEP_FIELDS,
                       metric="per_step_fidelity_slope"),
    "fig4_3mode": Experiment(partial(_run_fig4, four_mode=False),
                             _STEP_FIELDS, metric="per_step_fidelity_drop"),
    "fig4_4mode": Experiment(partial(_run_fig4, four_mode=True),
                             _STEP_FIELDS, metric="per_step_fidelity_drop"),
    "fig5_2mode": Experiment(partial(_run_fig5, mode_count=2), _RAMP_FIELDS,
                             params=_SCHEDULE,
                             metric="min_fidelity_vs_exact"),
    "fig5_3mode": Experiment(partial(_run_fig5, mode_count=3), _RAMP_FIELDS,
                             params=_SCHEDULE,
                             metric="min_fidelity_vs_exact"),
    "digital_error_s4": Experiment(
        _run_digital_error_s4, ("total_time", "ordering"),
        params={"step_counts": _step_counts}),
    "digital_error_s5": Experiment(_run_digital_error_s5, ("ordering",)),
    "rb_s3": Experiment(
        _run_rb_s3, ("noise_scale", "seed", "ordering"),
        params={"m_values": _rb_lengths, "k_sequences": _positive_int},
        check_params=_rb_draws, metric="zz_block_error"),
    "anticommutation_fig2d": Experiment(
        _run_anticommutation, ("noise_scale",), metric="f_composed"),
    "census_table_s1": Experiment(_run_census, ("ordering",)),
}
EXPERIMENT_IDS = tuple(EXPERIMENTS)  # imported by perfbench/


def run(config: ExperimentConfig) -> dict:
    """Execute one experiment; emit its files and return the summary."""
    config.validate()
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = EXPERIMENTS[config.experiment].runner(config, out)
    summary["config"] = config.to_json_dict()
    write_json(out / "summary.json", summary)
    return summary


SWEEP_AXES = ("steps", "noise_scale", "ordering")


def sweep(config: ExperimentConfig, axis: str, values) -> list[dict]:
    """Run the experiment across one axis and aggregate the summaries."""
    config.validate()
    if axis not in SWEEP_AXES:
        raise ConfigError(f"axis: must be one of {SWEEP_AXES}")
    spec = EXPERIMENTS[config.experiment]
    if spec.metric is None:
        sweepable = sorted(k for k, e in EXPERIMENTS.items() if e.metric)
        raise ConfigError(
            f"experiment: {config.experiment} has no sweep metric; "
            f"sweepable: {sweepable}")
    if axis not in spec.reads:
        raise ConfigError(
            f"axis: {config.experiment} does not read {axis}; "
            f"sweepable axes: {[a for a in SWEEP_AXES if a in spec.reads]}")
    out = Path(config.out_dir)
    configs = []
    seen = set()
    for value in values:  # every value is checked before any work starts
        fields = config.to_json_dict()
        fields[axis] = value
        fields["out_dir"] = str(out / f"{axis}_{value}")
        configs.append(ExperimentConfig.from_json_dict(fields))
        configs[-1].validate()
        point = (configs[-1].canonical_ordering if axis == "ordering"
                 else value)
        if point in seen:  # one run, written twice into one directory
            raise ConfigError(f"values: {axis} value {value!r} appears "
                              f"more than once")
        seen.add(point)
    out.mkdir(parents=True, exist_ok=True)
    results = [run(c) for c in configs]
    rows = [(value, float(summary[spec.metric]))
            for value, summary in zip(values, results)]
    write_csv(out / f"sweep_{axis}.csv", [axis, "metric"], rows)
    write_json(out / f"sweep_{axis}.json",
               {"axis": axis, "values": [str(v) for v in values],
                "metrics": [m for _, m in rows]})
    return results
