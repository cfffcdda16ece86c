"""fermisim benchmark: one closed-loop caller, three workloads.

    python3 perfbench/run.py --workload rb_interleaved --seed 0 \
        --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
its ``src/`` directory. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run. ``--workload all``
runs every workload under both settings, one child process at a time.
The last line of stdout is one JSON object: correct, attempted, failed
and metrics. See perfbench/README.md for what each metric means.
"""
from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # before numpy loads its BLAS
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import check  # noqa: E402
import jobs  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCES = HERE / "reference"
SPEC = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 5
SETUP_CODE = "import fermisim; fermisim.clifford_group(two_qubit=True)"

TRACE_METRICS = ("trace.untraced_jobs_per_s", "trace.traced_jobs_per_s",
                 "trace.overhead_pct")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def setup_once() -> float:
    """Wall time of a fresh process importing fermisim and building the
    two-qubit Clifford group."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=child_env(),
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def with_units(values: dict, kind: str) -> dict:
    """The metrics BENCHMARK.json lists under ``kind``, in its order and
    with its units."""
    spec = json.loads(SPEC.read_text())[kind]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec}


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree (git
    is kept from searching directories above it)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(args) -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rb_k_sequences": jobs.RB_K_SEQUENCES,
        "rb_m_values": jobs.RB_M_VALUES,
        "round": [list(s) for s in jobs.ROUND_SLOTS[args.workload]],
        "entry": jobs.ENTRY[args.workload],
    }


def run_phase(workload, seed, budget, out_root, tracer=None, setups=None):
    """The closed loop: each job is issued after the previous one
    returned. It runs whole rounds only, at least one, and stops at the
    round boundary nearest to ``budget`` seconds, judged by the average
    pace so far. Every run thus does the same job mix.

    With a ``setups`` list, SETUP_SAMPLES fresh-process set-ups are
    timed between jobs, spread evenly over the budget, and appended."""
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    outcomes = []
    start = time.perf_counter()
    for rounds in itertools.count():
        elapsed = time.perf_counter() - start
        if rounds and elapsed + elapsed / rounds / 2 > budget:
            return outcomes
        for job in jobs.round_jobs(workload, seed, rounds):
            if setups is not None and len(setups) < SETUP_SAMPLES and \
                    time.perf_counter() - start \
                    >= len(setups) * budget / SETUP_SAMPLES:
                setups.append(setup_once())
            out_dir = out_root / f"job{job.index:05d}"
            if tracer is None:
                outcomes.append(jobs.execute(job, out_dir))
            else:
                with tracer.job_span(job.index):
                    outcomes.append(jobs.execute(job, out_dir))


def judge(outcomes, workload, seed) -> dict:
    """Check every outcome; the returned tallies feed the result."""
    reference = check.load_reference(REFERENCES, workload, seed)
    tally = {"attempted": len(outcomes), "failed": 0, "referenced": 0,
             "unreferenced": 0, "passed": [], "problems": []}
    for outcome in outcomes:
        try:
            problems, referenced = check.check_job(outcome, reference)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            problems, referenced = [f"unreadable output: {exc}"], False
        if problems:
            tally["failed"] += 1
            tally["problems"].append(
                f"job {outcome.job.index} ({outcome.job.experiment}): "
                + "; ".join(problems[:5]))
            continue
        tally["referenced" if referenced else "unreferenced"] += 1
        tally["passed"].append(outcome)
    return tally


def throughput(outcomes, passed) -> float:
    """Verified jobs per second of job time, over every job issued."""
    busy = sum(o.seconds for o in outcomes)
    return len(passed) / busy if busy else 0.0


def print_metrics(metrics: dict) -> None:
    for name, entry in metrics.items():
        print(f"{name:44s} {entry['value']:.6g} {entry['unit']}")


def end_to_end(args, out_root):
    """One untimed in-process set-up, then the timed closed loop with
    the fresh-process set-ups interleaved."""
    import fermisim
    fermisim.clifford_group(two_qubit=True)
    setups: list[float] = []
    outcomes = run_phase(args.workload, args.seed, args.seconds,
                         out_root / "timed", setups=setups)
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_once())
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tally = judge(outcomes, args.workload, args.seed)
    passed = tally["passed"]
    values = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": throughput(outcomes, passed),
        "job_s.p50": (statistics.median(o.seconds for o in passed)
                      if passed else 0.0),
        "peak_rss_mb": peak_kb / 1024.0,
        "pass_ratio": len(passed) / tally["attempted"],
    }
    extra = {"jobs": len(outcomes), "setup_samples_s": setups,
             "job_seconds": [[o.job.experiment, o.job.config.get("steps"),
                              o.seconds] for o in outcomes]}
    return tally, with_units(values, "end_to_end"), extra


def per_layer(args, out_root):
    """A traced set-up, an untraced half run, then a traced half run
    over the same job list; the per-layer metrics come from the traced
    half, the tracing overhead from comparing the two halves."""
    import fermisim
    tracer = spans.Tracer()
    with tracer.installed():
        fermisim.clifford_group(two_qubit=True)
    plain = run_phase(args.workload, args.seed, args.seconds / 2,
                      out_root / "untraced")
    with tracer.installed():
        traced = run_phase(args.workload, args.seed, args.seconds / 2,
                           out_root / "traced", tracer)
    tally = judge(plain + traced, args.workload, args.seed)
    tracer.save(OUT / f"spans-{args.workload}.npz")
    values = spans.layer_metrics(
        tracer.arrays(), tracer.counts,
        {o.job.index: o.job.experiment for o in traced},
        fermisim.experiments.EXPERIMENT_IDS)
    passed = set(map(id, tally["passed"]))
    plain_rate, traced_rate = (
        throughput(phase, [o for o in phase if id(o) in passed])
        for phase in (plain, traced))
    values.update(zip(TRACE_METRICS, (
        plain_rate, traced_rate,
        100.0 * (plain_rate - traced_rate) / plain_rate if plain_rate
        else 0.0)))
    shares = spans.shares(values)
    print("shares of traced job time " + json.dumps(shares))
    extra = {"jobs": {"untraced": len(plain), "traced": len(traced)},
             "spans": len(tracer.start), "shares": shares}
    return tally, with_units(values, "per_layer"), extra


def benchmark(args) -> dict:
    if not (SRC / "fermisim" / "__init__.py").is_file():
        raise SystemExit(f"error: no fermisim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fermisim
    if not Path(fermisim.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: fermisim imported from {fermisim.__file__}")

    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    out_root = OUT / args.workload
    measure = per_layer if args.trace else end_to_end
    tally, metrics, extra = measure(args, out_root)
    env.update(extra)
    shutil.rmtree(out_root, ignore_errors=True)

    print(f"jobs: {tally['attempted']} attempted, {tally['failed']} failed, "
          f"{tally['referenced']} checked against the reference, "
          f"{tally['unreferenced']} unreferenced (invariants only)")
    for line in tally["problems"]:
        print("FAILED " + line)
    print_metrics(metrics)
    result = {"correct": tally["failed"] == 0,
              "attempted": tally["attempted"],
              "failed": tally["failed"], "metrics": metrics}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"env": env, **result}, indent=1) + "\n")
    return result


def run_all(args) -> dict:
    """Every workload, untraced then traced, each in its own process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in jobs.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, check=True)
            lines = done.stdout.splitlines()
            print(f"== {workload} trace={trace}")
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for name, entry in result["metrics"].items():
                merged["metrics"][f"{workload}/{name}"] = entry
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(jobs.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_all(args) if args.workload == "all" else benchmark(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
