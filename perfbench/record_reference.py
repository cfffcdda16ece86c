"""Record reference outputs for the default and the held-out seed.

    python3 perfbench/record_reference.py

Runs the first rounds of every workload's job list for each recorded
seed and stores every output file, parsed, under perfbench/reference/.
Rerun only when the job generator changes; a reference records what the
program computed at the commit where it was made.
"""
from __future__ import annotations

import gzip
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins BLAS threads before numpy loads)
import check  # noqa: E402
import jobs  # noqa: E402

RECORDED_SEEDS = (0, 1)   # the default seed and the held-out seed
# Rounds recorded per workload: about one timed run's worth of jobs.
RECORDED_ROUNDS = {"rb_interleaved": 24, "ramp_schedule": 4,
                   "trotter_qpt": 8}


def record(workload: str, seed: int) -> Path:
    out_root = run.OUT / "record" / workload
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    recorded = {}
    for job in jobs.job_list(workload, seed, RECORDED_ROUNDS[workload]):
        outcome = jobs.execute(job, out_root / f"job{job.index:05d}")
        if outcome.error is not None:
            raise RuntimeError(f"job {job.index} failed: {outcome.error}")
        problems, _ = check.check_job(outcome, {})
        if problems:
            raise RuntimeError(f"job {job.index}: {problems}")
        recorded[str(job.index)] = {"config": job.config,
                                    "files": check.read_outputs(
                                        outcome.out_dir)}
    shutil.rmtree(out_root, ignore_errors=True)
    path = check.reference_path(run.REFERENCES, workload, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"workload": workload, "seed": seed, "git_commit":
               run.git_commit(), "jobs": recorded}
    with gzip.GzipFile(path, "wb", mtime=0) as fh:
        fh.write(json.dumps(payload, sort_keys=True).encode("ascii"))
    return path


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    for workload in jobs.WORKLOADS:
        for seed in RECORDED_SEEDS:
            path = record(workload, seed)
            print(f"{path.relative_to(run.ROOT)}: "
                  f"{path.stat().st_size} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
