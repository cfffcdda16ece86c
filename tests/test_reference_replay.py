"""Replay the benchmark's stored references: round 0 of every workload's
seed-0 jobs must reproduce the outputs recorded in perfbench/reference/,
and every config the benchmark generates must pass validation."""
import importlib.util
import sys
from pathlib import Path

import pytest

from fermisim.experiments import ExperimentConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


check = _load("check")
jobs = _load("jobs")


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_round_zero_matches_stored_reference(workload, tmp_path):
    reference = check.load_reference(PERFBENCH / "reference", workload, 0)
    for job in jobs.round_jobs(workload, 0, 0):
        outcome = jobs.execute(job, tmp_path / f"job{job.index}")
        problems, referenced = check.check_job(outcome, reference)
        assert referenced, job
        assert problems == [], (job, problems)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_benchmark_configs_validate(workload, seed):
    for job in jobs.job_list(workload, seed, 10):
        ExperimentConfig.from_json_dict(
            dict(job.config, out_dir="unused")).validate()
