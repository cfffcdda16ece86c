"""Tests of the benchmark itself: job generation, the output comparator,
span arithmetic and failure accounting.

    python -m pytest perfbench/tests
"""
import copy
import json
from pathlib import Path

import numpy as np
import pytest

import check
import jobs
import run
import spans


# -- job generation ----------------------------------------------------------

@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_same_job_list(workload):
    first = jobs.job_list(workload, 7, 3)
    again = jobs.job_list(workload, 7, 3)
    other = jobs.job_list(workload, 8, 3)
    assert first == again
    assert [j.config for j in first] != [j.config for j in other]


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_every_round_holds_the_same_slots(workload):
    want = sorted(map(tuple, jobs.ROUND_SLOTS[workload]), key=str)
    for r in range(4):
        got = sorted(((j.experiment, j.config.get("steps"))
                      for j in jobs.round_jobs(workload, 3, r)), key=str)
        assert got == want


def test_workloads_cover_every_experiment():
    from fermisim.experiments import EXPERIMENT_IDS
    covered = {exp for slots in jobs.ROUND_SLOTS.values()
               for exp, _ in slots}
    assert covered == set(EXPERIMENT_IDS)


# -- comparator --------------------------------------------------------------

def _recorded_job(workload="trotter_qpt", experiment="fig3"):
    reference = check.load_reference(run.REFERENCES, workload, 0)
    return next(entry for entry in reference.values()
                if entry["config"]["experiment"] == experiment)


def test_comparator_accepts_the_reference_itself():
    entry = _recorded_job()
    assert check.compare(entry["files"], copy.deepcopy(entry["files"]),
                         "fig3") == []


def test_comparator_flags_a_1e9_perturbation():
    entry = _recorded_job()
    actual = copy.deepcopy(entry["files"])
    name = next(n for n in actual if n.endswith(".csv"))
    actual[name]["rows"][-1][1] += 1e-9
    problems = check.compare(entry["files"], actual, "fig3")
    assert len(problems) == 1 and name in problems[0]


def test_comparator_flags_a_perturbed_summary_number():
    entry = _recorded_job()
    actual = copy.deepcopy(entry["files"])
    actual["summary.json"]["per_step_fidelity_slope"] += 1e-9
    assert check.compare(entry["files"], actual, "fig3")


def test_fitted_quantities_use_their_measured_tolerance():
    entry = _recorded_job("rb_interleaved", "rb_s3")
    actual = copy.deepcopy(entry["files"])
    actual["rb_s3_fits.json"]["decays"]["ref"]["p"] += 1e-7
    assert check.compare(entry["files"], actual, "rb_s3") == []
    actual["rb_s3_fits.json"]["decays"]["ref"]["p"] += 1e-5
    assert check.compare(entry["files"], actual, "rb_s3")


def _write_outputs(directory: Path, files: dict) -> None:
    directory.mkdir()
    for name, content in files.items():
        if name.endswith(".csv"):
            lines = [",".join(content["header"])] + [
                ",".join(repr(c) if isinstance(c, float) else str(c)
                         for c in row) for row in content["rows"]]
            (directory / name).write_text("\n".join(lines) + "\n")
        else:
            (directory / name).write_text(json.dumps(content))


def test_check_job_flags_a_missing_output_file(tmp_path):
    reference = check.load_reference(run.REFERENCES, "trotter_qpt", 0)
    index, entry = next((i, e) for i, e in reference.items()
                        if e["config"]["experiment"] == "fig3")
    job = jobs.job_list("trotter_qpt", 0, index // 9 + 1)[index]
    out = tmp_path / "job"
    _write_outputs(out, entry["files"])
    stdout = json.dumps({"experiment": "fig3", "out_dir": str(out),
                         "ok": True}) + "\n"
    outcome = jobs.Outcome(job, out, 0.1, None, stdout)
    assert check.check_job(outcome, reference) == ([], True)

    missing = sorted(n for n in entry["files"] if n.endswith(".csv"))[-1]
    (out / missing).unlink()
    problems, referenced = check.check_job(outcome, reference)
    assert referenced
    assert any(missing in p for p in problems)


def test_invariants_flag_a_probability_above_one():
    entry = _recorded_job()
    files = copy.deepcopy(entry["files"])
    assert check.invariants("fig3", files) == []
    name = next(n for n in files if n.endswith(".csv"))
    files[name]["rows"][1][1] = 1.5
    assert check.invariants("fig3", files)


# -- span arithmetic ---------------------------------------------------------

def _synthetic_spans():
    names = ["bench.job", "experiments.run", "simulator.apply_circuit",
             "circuits.gate_unitary", "simulator.exact_evolve",
             "pauli.WeightedPauliSum.to_dense"]
    # (name index, parent, start, end)
    tree = [
        (0, -1, 0.0, 10.0),   # 0 job
        (1, 0, 1.0, 9.0),     # 1 experiments.run
        (2, 1, 2.0, 6.0),     # 2 apply_circuit
        (3, 2, 3.0, 4.0),     # 3 gate_unitary
        (3, 2, 4.5, 5.0),     # 4 gate_unitary
        (4, 1, 6.5, 8.0),     # 5 exact_evolve
        (5, 5, 7.0, 7.5),     # 6 to_dense
        (2, 5, 7.6, 7.9),     # 7 apply_circuit nested in simulator
    ]
    return {
        "names": np.array(names),
        "name_id": np.array([t[0] for t in tree], dtype=np.int32),
        "parent": np.array([t[1] for t in tree], dtype=np.int32),
        "job": np.zeros(len(tree), dtype=np.int32),
        "start": np.array([t[2] for t in tree]),
        "end": np.array([t[3] for t in tree]),
    }


def test_self_time_is_duration_minus_child_spans():
    times = spans.span_times(_synthetic_spans())
    np.testing.assert_allclose(
        times["self"], [2.0, 2.5, 2.5, 1.0, 0.5, 0.7, 0.5, 0.3])
    assert list(times["outer_layer"]) == [True] * 7 + [False]


def test_layer_metrics_on_a_synthetic_tree():
    out = spans.layer_metrics(_synthetic_spans(), {}, {0: "fig3"},
                              ["fig3", "rb_s3"])
    assert out["simulator.calls"] == 3
    assert out["simulator.busy_s"] == pytest.approx(5.5)
    assert out["simulator.self_s"] == pytest.approx(3.5)
    assert out["circuits.busy_s"] == pytest.approx(1.5)
    assert out["experiments.self_s"] == pytest.approx(2.5)
    assert out["pauli.to_dense.calls"] == 1
    assert out["simulator.exact_evolve.s"] == pytest.approx(1.5)
    # span 7 sits inside exact_evolve, not inside another apply_circuit
    assert out["simulator.apply_circuit.s"] == pytest.approx(4.3)
    assert out["experiments.fig3.p50_s"] == pytest.approx(8.0)
    assert out["experiments.rb_s3.p50_s"] == 0.0
    assert out["trace.job_s"] == pytest.approx(10.0)


def test_tracer_restores_every_binding():
    import fermisim
    import fermisim.experiments as experiments
    import fermisim.simulator as simulator
    before = (experiments.apply_circuit, simulator.apply_circuit,
              fermisim.apply_circuit, fermisim.WeightedPauliSum.to_dense)
    tracer = spans.Tracer()
    with tracer.installed():
        assert experiments.apply_circuit is simulator.apply_circuit
        assert experiments.apply_circuit is not before[0]
    assert (experiments.apply_circuit, simulator.apply_circuit,
            fermisim.apply_circuit, fermisim.WeightedPauliSum.to_dense) \
        == before


# -- failure accounting ------------------------------------------------------

def test_a_raising_job_counts_as_failed(tmp_path, monkeypatch):
    import fermisim.experiments

    def boom(config):
        raise RuntimeError("injected")

    monkeypatch.setattr(fermisim.experiments, "run", boom)
    outcomes = run.run_phase("rb_interleaved", 0, 0.0, tmp_path / "o")
    tally = run.judge(outcomes, "rb_interleaved", 0)
    assert tally["attempted"] == 1 and tally["failed"] == 1
    assert "injected" in tally["problems"][0]


@pytest.mark.parametrize("code", [2, 3])
def test_a_cli_exit_code_counts_as_failed(tmp_path, monkeypatch, code):
    import fermisim.cli
    monkeypatch.setattr(fermisim.cli, "main", lambda argv: code)
    outcomes = run.run_phase("trotter_qpt", 0, 0.0, tmp_path / "o")
    tally = run.judge(outcomes, "trotter_qpt", 0)
    slots = len(jobs.ROUND_SLOTS["trotter_qpt"])
    assert tally["attempted"] == slots and tally["failed"] == slots
    assert f"cli exit code {code}" in tally["problems"][0]
    assert run.throughput(outcomes, tally["passed"]) == 0.0


def test_an_argparse_exit_counts_as_failed(tmp_path, monkeypatch):
    import fermisim.cli

    def reject(argv):
        raise SystemExit(2)

    monkeypatch.setattr(fermisim.cli, "main", reject)
    job = jobs.round_jobs("trotter_qpt", 0, 0)[0]
    outcome = jobs.execute(job, tmp_path / "job")
    assert outcome.error == "cli exit code 2"


def test_throughput_counts_every_job_second():
    def outcome(seconds):
        job = jobs.Job(0, 0, "api", {"experiment": "rb_s3"})
        return jobs.Outcome(job, Path("."), seconds)

    outcomes = [outcome(3.0), outcome(0.5), outcome(0.5)]
    # a slow first job and a failed job both cost time
    assert run.throughput(outcomes, outcomes[:2]) == pytest.approx(0.5)


# -- the contract file -------------------------------------------------------

def test_benchmark_json_matches_the_printed_metrics():
    spec = json.loads(run.SPEC.read_text())
    assert {w["name"] for w in spec["workloads"]} == set(jobs.WORKLOADS)
    from fermisim.experiments import EXPERIMENT_IDS
    printed = set(spans.layer_metrics(_synthetic_spans(), {}, {0: "fig3"},
                                      EXPERIMENT_IDS)) | set(run.TRACE_METRICS)
    assert {m["name"] for m in spec["per_layer"]} == printed
