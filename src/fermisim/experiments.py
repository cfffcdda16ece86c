"""End-to-end experiment runners emitting plot-ready CSV and JSON files.

Every run is a pure function of its configuration: the noise algebra is
deterministic and randomized benchmarking derives all randomness from
the configured seed, so re-running a config reproduces each output file
byte for byte.

Experiments:

* ``fig3`` - two-mode constant-coupling evolution to T = 5.0 for step
  counts 1..max; occupations, digital and exact fidelities, per-step
  end-state fidelity slope.
* ``fig4_3mode`` / ``fig4_4mode`` - three-step chain and asymmetric
  four-mode runs with per-step fidelity drops.
* ``fig5_2mode`` / ``fig5_3mode`` - insulating-to-metallic ramp of the
  hopping under constant repulsion, digitised with interval averages.
  The exact time-dependent reference cuts each step into
  ``EXACT_SLICES`` slices under the exact slice averages; since the
  Hamiltonian is V H_hop + U H_rep, each slice grid is built from the
  two term matrices of :func:`fermisim.fermions.coupling_matrices` and
  evolved with one batched eigendecomposition
  (:func:`fermisim.simulator.evolve_slices`).
* ``digital_error_s4`` / ``digital_error_s5`` - noiseless digitisation
  error against the exact evolution, constant and ramped couplings.
* ``rb_s3`` - interleaved randomized benchmarking of the two-qubit
  phase block and the quarter-angle evolution step.
* ``anticommutation_fig2d`` - process tomography of the two exchange
  halves and their composition.
* ``census_table_s1`` - canonical step gate censuses and error budgets.

Constant-coupling and ramped series share one checkpoint loop: each
step's circuit runs on the digital and the (noisy) run state, and both
are compared with the exact state at the step's end.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .benchmarking import (
    clifford_group,
    extract_interleaved_error,
    fit_decay,
    rb_run,
)
from .circuits import (
    census_single_qubit_total,
    gate_census,
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
    three_mode_model,
    two_mode_model,
)
from .simulator import (
    NoiseModel,
    accessible_indices,
    apply_circuit,
    error_budget,
    evolve_slices,
    exact_trajectory,
    lower_circuit,
    mode_occupations,
    other_state_population,
    prepare_input,
    state_fidelity,
    state_overlap,
)
from .tomography import anticommutation_experiment

EXPERIMENT_IDS = (
    "fig3", "fig4_3mode", "fig4_4mode", "fig5_2mode", "fig5_3mode",
    "digital_error_s4", "digital_error_s5", "rb_s3",
    "anticommutation_fig2d", "census_table_s1",
)

ORDERING_ALIASES = {"s5": "canonical_s5", "s6": "odd_even_s6",
                    "canonical_s5": "canonical_s5",
                    "odd_even_s6": "odd_even_s6"}


# Slices per digitisation step of the exact schedule reference; 2400
# agree with it to an infidelity below 1e-10 (tests/test_experiments.py).
EXACT_SLICES = 600


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
        if self.experiment not in EXPERIMENT_IDS:
            raise ConfigError(
                f"experiment: unknown id {self.experiment!r}; "
                f"choose from {EXPERIMENT_IDS}"
            )
        if self.steps is not None:
            _positive_int("steps", self.steps)
        if self.noise_scale is not None:
            if not (_is_real(self.noise_scale) and self.noise_scale >= 0):
                raise ConfigError("noise_scale: must be a finite number >= 0")
            try:
                self.noise_model()
            except ValueError as exc:
                raise ConfigError(f"noise_scale: {exc}") from None
        if self.ordering not in ORDERING_ALIASES:
            raise ConfigError(
                f"ordering: unknown value {self.ordering!r}"
            )
        if self.total_time is not None and not (_is_real(self.total_time)
                                                and self.total_time > 0):
            raise ConfigError("total_time: must be a finite number > 0")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ConfigError("seed: must be a non-negative integer")
        if not isinstance(self.params, dict):
            raise ConfigError("params: must be an object")
        allowed = PARAMS_SCHEMA.get(self.experiment, {})
        unknown = sorted(set(self.params) - set(allowed))
        if unknown:
            raise ConfigError(
                f"params: unknown keys {unknown} for {self.experiment}; "
                f"allowed: {sorted(allowed) or 'none'}"
            )
        for key, check in allowed.items():
            if key in self.params:
                check(f"params.{key}", self.params[key])

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


def _parse_schedule(name: str, value) -> Schedule:
    try:
        return Schedule.from_json_dict(value)
    except KeyError as exc:
        raise ConfigError(f"{name}: missing {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from None


# Accepted ``params`` keys per experiment, each with the check of its
# value; an experiment not listed takes no params.
PARAMS_SCHEMA = {
    "fig5_2mode": {"schedule": _parse_schedule},
    "fig5_3mode": {"schedule": _parse_schedule},
    "digital_error_s4": {"step_counts": _positive_int_list},
    "rb_s3": {"m_values": _positive_int_list,
              "k_sequences": _positive_int},
}


def _is_real(value) -> bool:
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


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


def _input_kind(mode_count: int) -> str:
    return {2: "two_mode", 3: "three_mode", 4: "four_mode"}[mode_count]


_SERIES_FID_COLS = ["fidelity_vs_digital", "fidelity_vs_exact",
                    "overlap_vs_digital", "overlap_vs_exact"]


def _series_rows(model: FermionModel, checkpoints,
                 noise: NoiseModel | None):
    """Occupations and fidelities at t = 0 and after every step.

    ``checkpoints`` lists (end time, step circuit, exact state at that
    time) per step; steps that repeat one circuit object share its
    lowering.  The run's own state (noisy when noise is on) is
    compared against the ideal digitised state and the exact evolution
    at the same simulated time, both via the measurement-side
    distribution metric (``fidelity_*``) and via the exact state
    overlap (``overlap_*``).
    """
    n = model.mode_count
    psi0 = prepare_input(_input_kind(n))
    accessible = accessible_indices(model.hoppings, n, psi0)
    digital = psi0
    run_state = psi0.to_density() if noise is not None else psi0
    lowered = {}  # id of a step circuit -> (pure, noisy) lowerings
    rows = []
    for t, step_circuit, exact in [(0.0, None, psi0), *checkpoints]:
        if step_circuit is not None:
            if id(step_circuit) not in lowered:
                lowered[id(step_circuit)] = (
                    lower_circuit(step_circuit, density=False),
                    None if noise is None
                    else lower_circuit(step_circuit, noise))
            pure, noisy = lowered[id(step_circuit)]
            digital = apply_circuit(digital, step_circuit, lowered=pure)
            # a noiseless run is the digital state itself
            run_state = digital if noise is None else apply_circuit(
                run_state, step_circuit, noise, lowered=noisy)
        p_run = run_state.probabilities()
        rows.append((t, *mode_occupations(run_state),
                     other_state_population(run_state, accessible),
                     state_fidelity(digital.probabilities(), p_run),
                     state_fidelity(exact.probabilities(), p_run),
                     state_overlap(digital, run_state),
                     state_overlap(exact, run_state)))
    header = ["time"] + [f"p_mode{i + 1}" for i in range(n)] + \
        ["p_other"] + _SERIES_FID_COLS
    return header, rows


def _model_checkpoints(model: FermionModel, total_time: float, steps: int,
                       ordering: str) -> list:
    """Checkpoints of a constant-coupling run: exp(-iHt) at each step."""
    plan = plan_for_model(model, total_time, steps, ordering)
    templates = step_templates(plan)
    dt = total_time / steps
    times = [(k + 1) * dt for k in range(steps)]
    exact = exact_trajectory(plan.hamiltonian, times,
                             prepare_input(_input_kind(model.mode_count)))
    return [(t, templates[k % len(templates)], state)
            for k, (t, state) in enumerate(zip(times, exact))]


def _schedule_checkpoints(schedule: Schedule, mode_count: int,
                          steps: int) -> list:
    """Checkpoints of a digitised schedule run, exact by fine slicing."""
    plans = digitize_schedule(schedule, steps, mode_count)
    exact = _advance_exact(prepare_input(_input_kind(mode_count)), schedule,
                           mode_count, [plan.window for plan in plans],
                           EXACT_SLICES)
    return [(plan.window[1], compile_trotter_step(plan, k), state)
            for k, (plan, state) in enumerate(zip(plans, exact))]


def _advance_exact(state, schedule: Schedule, mode_count: int,
                   windows, slices: int) -> list:
    """Exact time-dependent evolution through consecutive windows.

    Each window is cut into ``slices`` equal slices, each evolved under
    the exact interval-averaged couplings as V H_hop + U H_rep; all
    slices of all windows share one batched eigendecomposition.  Returns
    the state at the end of every window.
    """
    v, u, durations = [], [], []
    for t0, t1 in windows:
        dt = (t1 - t0) / slices
        edges = t0 + np.arange(slices + 1) * dt
        v.append(schedule.averages(schedule.v_knots, edges))
        u.append(schedule.averages(schedule.u_knots, edges))
        durations.append(np.full(slices, dt))
    couplings = np.stack([np.concatenate(v), np.concatenate(u)], axis=1)
    hamiltonians = np.tensordot(couplings,
                                np.stack(coupling_matrices(mode_count)), 1)
    return evolve_slices(hamiltonians, np.concatenate(durations), state,
                         every=slices)


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
        header, rows = _series_rows(
            model, _model_checkpoints(model, total_time, n,
                                      config.canonical_ordering), noise)
        path = out / f"fig3_steps{n}.csv"
        write_csv(path, header, rows)
        files.append(path.name)
        end_overlap[n] = rows[-1][-2]     # overlap_vs_digital at T
        end_estimator[n] = rows[-1][-4]   # fidelity_vs_digital at T
    plan = plan_for_model(model, total_time, max_steps,
                          config.canonical_ordering)
    census = gate_census(compile_trotter_step(plan, 0))
    summary = {
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
    return summary


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
        header, rows = _series_rows(
            model, _model_checkpoints(model, total_time, steps,
                                      config.canonical_ordering), noise)
        path = out / f"{name}_{tag}.csv"
        write_csv(path, header, rows)
        files.append(path.name)
        overlaps = [r[-2] for r in rows]
        runs[tag] = {
            "end_overlap_vs_digital": overlaps[-1],
            "per_step_fidelity_drop": _fidelity_slope(
                range(len(overlaps)), overlaps),
            "end_fidelity_vs_digital": rows[-1][-4],
            "end_fidelity_vs_exact": rows[-1][-3],
        }
    anchor = "ahm_uy1" if four_mode else "u1"
    census_model = models[anchor]
    plan = plan_for_model(census_model, total_time, steps,
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
    noise = config.noise_model()
    header, rows = _series_rows(
        SCHEDULE_MODELS[mode_count](1.0, 1.0),
        _schedule_checkpoints(schedule, mode_count, steps), noise)
    name = f"fig5_{mode_count}mode"
    path = out / f"{name}.csv"
    write_csv(path, header, rows)
    # dense exact reference for plotting the continuous line
    psi0 = prepare_input(_input_kind(mode_count))
    samples = 60
    dt = schedule.duration / samples
    states = _advance_exact(psi0, schedule, mode_count,
                            [(i * dt, (i + 1) * dt) for i in range(samples)],
                            20)
    dense_rows = [(0.0, *mode_occupations(psi0))]
    dense_rows += [((i + 1) * dt, *mode_occupations(state))
                   for i, state in enumerate(states)]
    exact_path = out / f"{name}_exact.csv"
    write_csv(exact_path,
              ["time"] + [f"p_mode{i + 1}" for i in range(mode_count)],
              dense_rows)
    fid_dig = [r[-4] for r in rows]
    fid_exact = [r[-3] for r in rows]
    return {
        "experiment": name,
        "steps": steps,
        "schedule": schedule.to_json_dict(),
        "min_fidelity_vs_digital": min(fid_dig),
        "min_fidelity_vs_exact": min(fid_exact),
        "end_fidelity_vs_exact": fid_exact[-1],
        "files": [path.name, exact_path.name],
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
            header, rows = _series_rows(
                model, _model_checkpoints(model, total_time, int(n),
                                          config.canonical_ordering), None)
            path = out / f"digital_error_s4_{tag}_steps{n}.csv"
            write_csv(path, header, rows)
            files.append(path.name)
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
        header, rows = _series_rows(
            SCHEDULE_MODELS[mode_count](1.0, 1.0),
            _schedule_checkpoints(schedule, mode_count, steps), None)
        path = out / f"digital_error_s5_{mode_count}mode.csv"
        write_csv(path, header, rows)
        files.append(path.name)
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
    noise = config.noise_model() or NoiseModel()
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


def _run_anticommutation(config: ExperimentConfig, out: Path) -> dict:
    report, chis = anticommutation_experiment(config.noise_model(),
                                              return_processes=True)
    for key, chi in chis.items():
        write_json(out / f"chi_{key}.json", chi.to_json_dict())
    summary = {
        "experiment": "anticommutation_fig2d",
        **report,
        "files": [f"chi_{k}.json" for k in chis],
    }
    return summary


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


_RUNNERS = {
    "fig3": lambda cfg, out: _run_fig3(cfg, out),
    "fig4_3mode": lambda cfg, out: _run_fig4(cfg, out, four_mode=False),
    "fig4_4mode": lambda cfg, out: _run_fig4(cfg, out, four_mode=True),
    "fig5_2mode": lambda cfg, out: _run_fig5(cfg, out, mode_count=2),
    "fig5_3mode": lambda cfg, out: _run_fig5(cfg, out, mode_count=3),
    "digital_error_s4": lambda cfg, out: _run_digital_error_s4(cfg, out),
    "digital_error_s5": lambda cfg, out: _run_digital_error_s5(cfg, out),
    "rb_s3": lambda cfg, out: _run_rb_s3(cfg, out),
    "anticommutation_fig2d": lambda cfg, out: _run_anticommutation(cfg, out),
    "census_table_s1": lambda cfg, out: _run_census(cfg, out),
}


def run(config: ExperimentConfig) -> dict:
    """Execute one experiment; emit its files and return the summary."""
    config.validate()
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = _RUNNERS[config.experiment](config, out)
    summary["config"] = config.to_json_dict()
    write_json(out / "summary.json", summary)
    return summary


SWEEP_AXES = ("steps", "noise_scale", "ordering")


def _sweep_metric(summary: dict) -> float:
    for key in ("per_step_fidelity_slope", "per_step_fidelity_drop",
                "min_fidelity_vs_exact", "zz_block_error", "f_composed"):
        if key in summary:
            return float(summary[key])
    return float("nan")


def sweep(config: ExperimentConfig, axis: str, values) -> list[dict]:
    """Run the experiment across one axis and aggregate the summaries."""
    config.validate()
    if axis not in SWEEP_AXES:
        raise ConfigError(f"axis: must be one of {SWEEP_AXES}")
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results = []
    for value in values:
        fields = config.to_json_dict()
        fields[axis] = value
        fields["out_dir"] = str(out / f"{axis}_{value}")
        results.append(run(ExperimentConfig.from_json_dict(fields)))
    rows = [(value, _sweep_metric(summary))
            for value, summary in zip(values, results)]
    write_csv(out / f"sweep_{axis}.csv", [axis, "metric"], rows)
    write_json(out / f"sweep_{axis}.json",
               {"axis": axis, "values": [str(v) for v in values],
                "metrics": [m for _, m in rows]})
    return results
