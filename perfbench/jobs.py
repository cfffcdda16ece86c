"""Workload definitions: seed-generated job lists and their execution.

A workload is an endless sequence of rounds. Every round of a workload
holds the same multiset of (experiment, step count) slots, so each round
does about the same amount of work whatever the seed. The seed draws
the order of the slots within a round and every continuous parameter of
each job: noise scales, experiment seeds, evolution times, orderings and
ramp schedules. The program only ever sees the generated configs.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("rb_interleaved", "ramp_schedule", "trotter_qpt")

# Pinned workload parameters, recorded with every result.
RB_K_SEQUENCES = 1
RB_M_VALUES = [1, 5, 10, 20, 40, 60]  # the rb_s3 default

# (experiment, steps) slots of one round; steps None means the default.
ROUND_SLOTS = {
    "rb_interleaved": [("rb_s3", None)],
    "ramp_schedule": [
        ("fig5_2mode", 1), ("fig5_2mode", 2), ("fig5_3mode", 1),
        ("digital_error_s5", None),
    ],
    "trotter_qpt": [
        ("fig3", 3), ("fig3", 5), ("fig3", 8),
        ("fig4_3mode", None), ("fig4_4mode", None),
        ("digital_error_s4", None),
        ("anticommutation_fig2d", None), ("anticommutation_fig2d", None),
        ("census_table_s1", None),
    ],
}

# Entry point each workload drives: the Python API or the command line.
ENTRY = {"rb_interleaved": "api", "ramp_schedule": "api",
         "trotter_qpt": "cli"}


@dataclass(frozen=True)
class Job:
    index: int          # position in the workload's job list
    round: int
    entry: str          # "api" (experiments.run) or "cli" (cli.main)
    config: dict        # ExperimentConfig fields except out_dir

    @property
    def experiment(self) -> str:
        return self.config["experiment"]


def _ramp_schedule(rng: random.Random) -> dict:
    """A piecewise-linear hopping ramp under a (possibly ramped) repulsion."""
    duration = rng.uniform(2.5, 3.5)
    t_on = duration * rng.uniform(0.2, 0.4)
    t_off = duration * rng.uniform(0.6, 0.8)
    v_end = rng.uniform(0.6, 1.4)
    return {
        "T": duration,
        "V": [[0.0, 0.0], [t_on, 0.0], [t_off, v_end], [duration, v_end]],
        "U": [[0.0, rng.uniform(0.6, 1.4)], [duration, rng.uniform(0.6, 1.4)]],
    }


def _config(experiment: str, steps, rng: random.Random) -> dict:
    cfg: dict = {"experiment": experiment, "seed": rng.randrange(2 ** 31)}
    if steps is not None:
        cfg["steps"] = steps
    if experiment == "rb_s3":
        cfg["noise_scale"] = rng.uniform(0.5, 1.5)
        cfg["params"] = {"k_sequences": RB_K_SEQUENCES,
                         "m_values": list(RB_M_VALUES)}
    elif experiment in ("fig5_2mode", "fig5_3mode"):
        cfg["noise_scale"] = rng.uniform(0.5, 1.5)
        cfg["params"] = {"schedule": _ramp_schedule(rng)}
    elif experiment == "fig3":
        cfg["noise_scale"] = rng.uniform(0.5, 1.5)
        cfg["total_time"] = rng.uniform(3.0, 6.0)
        cfg["ordering"] = rng.choice(["s5", "s6"])
    elif experiment in ("fig4_3mode", "fig4_4mode"):
        cfg["noise_scale"] = rng.uniform(0.5, 1.5)
        cfg["total_time"] = rng.uniform(2.0, 4.0)
        cfg["ordering"] = rng.choice(["s5", "s6"])
    elif experiment == "digital_error_s4":
        cfg["total_time"] = rng.uniform(2.0, 4.0)
        cfg["ordering"] = rng.choice(["s5", "s6"])
    elif experiment == "anticommutation_fig2d":
        cfg["noise_scale"] = rng.uniform(0.5, 2.0)
    elif experiment == "census_table_s1":
        cfg["ordering"] = rng.choice(["s5", "s6"])
    return cfg


def round_jobs(workload: str, seed: int, round_index: int) -> list[Job]:
    """The jobs of one round; a pure function of its arguments."""
    if workload not in ROUND_SLOTS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}/{round_index}")
    slots = list(ROUND_SLOTS[workload])
    rng.shuffle(slots)
    first = round_index * len(slots)
    return [Job(first + i, round_index, ENTRY[workload],
                _config(exp, steps, rng))
            for i, (exp, steps) in enumerate(slots)]


def job_list(workload: str, seed: int, rounds: int) -> list[Job]:
    """The first ``rounds`` rounds of a workload, in issue order."""
    return [job for r in range(rounds) for job in round_jobs(workload, seed, r)]


@dataclass
class Outcome:
    """What one job produced; judged later by the checker."""
    job: Job
    out_dir: Path
    seconds: float = 0.0
    error: str | None = None      # exception text or non-zero exit code
    stdout: str = ""


def execute(job: Job, out_dir: Path) -> Outcome:
    """Run one job through its entry point and time the program call.

    The entry points are looked up on the module at call time, so a
    traced run sees the wrapped functions.
    """
    import fermisim.cli
    import fermisim.experiments

    outcome = Outcome(job, out_dir)
    payload = dict(job.config, out_dir=str(out_dir))
    try:
        if job.entry == "api":
            config = fermisim.experiments.ExperimentConfig.from_json_dict(
                payload)
            start = time.perf_counter()
            fermisim.experiments.run(config)
            outcome.seconds = time.perf_counter() - start
        else:
            config_path = out_dir.with_suffix(".json")
            config_path.parent.mkdir(parents=True, exist_ok=True)
            config_path.write_text(json.dumps(payload), encoding="ascii")
            captured = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(captured):
                    code = fermisim.cli.main(
                        ["run", "--config", str(config_path)])
            except SystemExit as exc:  # argparse rejects with exit 2
                code = exc.code
            outcome.seconds = time.perf_counter() - start
            outcome.stdout = captured.getvalue()
            if code != 0:
                outcome.error = f"cli exit code {code}"
    except Exception as exc:  # a failing job is counted, not fatal
        outcome.error = f"{type(exc).__name__}: {exc}"
    return outcome
