"""Output checks: numeric comparison against recorded references, and
invariants for jobs that have no reference.

Tolerances, as |actual - reference| <= tolerance:

* Simulated quantities (every CSV cell, every summary number not listed
  below): 2e-12 + 1e-11 |reference|. That is the ~1e-12 rule, widened by
  one unit in the twelfth significant digit, which is where the CSV
  writer rounds (``%.12g``); a last-bit change in the arithmetic can
  flip that digit.
* RB decay fits (``decays``, ``zz_block_error``, ``trotter_step_error``):
  1e-6. ``curve_fit`` stops on a relative step of 1.5e-8; perturbing the
  sequence means by 1e-15 to 1e-12 (relative) moved the fitted A, B, p,
  residual and interleaved error by up to 1.2e-8 at noise scales
  0.6-1.4. The bound leaves about 80x margin over that.
* Reconstructed chi matrices and the fidelities derived from them
  (``chi_*.json``, ``f1``, ``f2``, ``f_composed``): 1e-9. Perturbing a
  tomography dataset by 1e-12 (relative) moved chi by at most 3.5e-13 at
  noise scales 0-2 (L-BFGS-B stops after one iteration from the
  linear-inversion seed); the bound leaves about 3000x margin.
"""
from __future__ import annotations

import gzip
import json
import math
from pathlib import Path

import numpy as np

RB_FIT_TOL = 1e-6
QPT_FIT_TOL = 1e-9
SIM_ABS_TOL = 2e-12
SIM_REL_TOL = 1e-11
RANGE_SLACK = 1e-9     # rounding slack on [0, 1] bounds
TRACE_TOL = 1e-6       # chi trace, as ProcessMatrix's TP tolerance

RB_FIT_KEYS = ("decays", "zz_block_error", "trotter_step_error")
QPT_FIT_KEYS = ("f1", "f2", "f_composed")
UNCHECKED = {("summary.json", "config", "out_dir")}


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def read_outputs(out_dir: Path) -> dict:
    """Every output file of a job, parsed: CSVs as header plus rows."""
    files = {}
    for path in sorted(out_dir.iterdir()):
        text = path.read_text(encoding="ascii")
        if path.suffix == ".csv":
            lines = text.splitlines()
            files[path.name] = {
                "header": lines[0].split(","),
                "rows": [[_cell(c) for c in line.split(",")]
                         for line in lines[1:]],
            }
        else:
            files[path.name] = json.loads(text)
    return files


def fitted_tolerance(experiment: str, path: tuple) -> float | None:
    """The tolerance of a fitted quantity at ``path``, or None."""
    name, key = path[0], (path[1] if len(path) > 1 else None)
    if experiment == "rb_s3" and name.endswith(".json") \
            and key in RB_FIT_KEYS:
        return RB_FIT_TOL
    if experiment == "anticommutation_fig2d" and (
            name.startswith("chi_")
            or (name == "summary.json" and key in QPT_FIT_KEYS)):
        return QPT_FIT_TOL
    return None


def compare(expected, actual, experiment: str, path: tuple = ()) -> list[str]:
    """Differences between a reference and an output, as messages."""
    if path in UNCHECKED:
        return []
    where = "/".join(str(p) for p in path)
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{where}: expected an object"]
        problems = []
        for key in sorted(set(expected) | set(actual), key=str):
            if key not in actual:
                problems.append(f"{where}/{key}: missing")
            elif key not in expected:
                problems.append(f"{where}/{key}: unexpected")
            else:
                problems += compare(expected[key], actual[key], experiment,
                                    path + (key,))
        return problems
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: expected a list of {len(expected)}"]
        problems = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            problems += compare(e, a, experiment, path + (i,))
        return problems
    if isinstance(expected, (int, float)) and not isinstance(expected, bool) \
            and isinstance(actual, (int, float)) \
            and not isinstance(actual, bool):
        tol = fitted_tolerance(experiment, path)
        if tol is None:
            tol = SIM_ABS_TOL + SIM_REL_TOL * abs(expected)
        if not abs(actual - expected) <= tol:
            return [f"{where}: {actual!r} differs from {expected!r} "
                    f"by more than {tol:.3g}"]
        return []
    if expected != actual:
        return [f"{where}: {actual!r} != {expected!r}"]
    return []


def _numbers(obj, path=()):
    """(path, value) for every number in a parsed JSON object."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _numbers(v, path + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _numbers(v, path + (i,))
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield path, obj


def _in_unit(x: float) -> bool:
    return -RANGE_SLACK <= x <= 1.0 + RANGE_SLACK


def invariants(experiment: str, files: dict) -> list[str]:
    """Checks that hold for any seed: listed files exist, probabilities
    lie in [0, 1] (and chi's eigenvalue distribution sums to 1), and
    fidelities are at most 1."""
    problems = []
    summary = files.get("summary.json")
    if not isinstance(summary, dict):
        return ["summary.json: missing"]
    if summary.get("experiment") != experiment:
        problems.append(f"summary.json: experiment "
                        f"{summary.get('experiment')!r} != {experiment!r}")
    for name in summary.get("files", []):
        if name not in files:
            problems.append(f"{name}: listed in summary.json but missing")
    for name, content in files.items():
        if name.endswith(".csv"):
            for col, title in enumerate(content["header"]):
                probability = title.startswith("p_") or \
                    "fidelity" in title or "overlap" in title
                for row in content["rows"]:
                    value = row[col]
                    if isinstance(value, float) and not math.isfinite(value):
                        problems.append(f"{name}/{title}: {value}")
                    elif probability and not (isinstance(value, float)
                                              and _in_unit(value)):
                        problems.append(f"{name}/{title}: {value} "
                                        "outside [0, 1]")
        elif name.startswith("chi_"):
            chi = np.array(content["re"]) + 1j * np.array(content["im"])
            weights = np.linalg.eigvalsh((chi + chi.conj().T) / 2)
            if np.max(np.abs(chi - chi.conj().T)) > RANGE_SLACK \
                    or weights.min() < -RANGE_SLACK \
                    or abs(weights.sum() - 1.0) > TRACE_TOL:
                problems.append(f"{name}: not a trace-one PSD chi")
        else:
            for path, value in _numbers(content):
                if not math.isfinite(value):
                    problems.append(f"{name}/{path}: {value}")
                key = str(path[-1]) if path else ""
                if ("fidelity" in "/".join(map(str, path))
                        or key in QPT_FIT_KEYS) \
                        and value > 1.0 + RANGE_SLACK:
                    problems.append(f"{name}/{path}: fidelity {value} > 1")
                if key == "p" and "decays" in path and not 0.0 < value <= 1:
                    problems.append(f"{name}/{path}: decay {value}")
    return problems


def cli_stdout_problems(stdout: str, experiment: str, out_dir: str) -> list:
    """The CLI contract: one JSON line naming the run, with ok true."""
    lines = stdout.splitlines()
    if len(lines) != 1:
        return [f"stdout: {len(lines)} lines, expected 1"]
    try:
        payload = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        return [f"stdout: not JSON ({exc})"]
    want = {"experiment": experiment, "out_dir": out_dir, "ok": True}
    if payload != want:
        return [f"stdout: {payload!r} != {want!r}"]
    return []


def reference_path(directory: Path, workload: str, seed: int) -> Path:
    return directory / f"{workload}-seed{seed}.json.gz"


def load_reference(directory: Path, workload: str, seed: int) -> dict:
    """Recorded jobs by index, or an empty dict for an unrecorded seed."""
    path = reference_path(directory, workload, seed)
    if not path.is_file():
        return {}
    with gzip.open(path, "rt", encoding="ascii") as fh:
        return {int(k): v for k, v in json.load(fh)["jobs"].items()}


def check_job(outcome, reference: dict) -> tuple[list[str], bool]:
    """(problems, referenced) for one finished job."""
    job = outcome.job
    if outcome.error is not None:
        return [outcome.error], False
    problems = []
    if job.entry == "cli":
        problems += cli_stdout_problems(outcome.stdout, job.experiment,
                                        str(outcome.out_dir))
    files = read_outputs(outcome.out_dir)
    problems += invariants(job.experiment, files)
    recorded = reference.get(job.index)
    if recorded is None:
        return problems, False
    if recorded["config"] != job.config:
        problems.append("job config differs from the recorded reference")
    else:
        problems += compare(recorded["files"], files, job.experiment)
    return problems, True
