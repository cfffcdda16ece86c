"""Spans around the calls into each fermisim module, recorded from outside.

``Tracer.installed()`` replaces every public function of the fermisim
modules with a timing wrapper, both in its defining module and under
every name bound to it by ``from .x import y`` (the package namespace
included), plus the ``WeightedPauliSum.to_dense`` method and ``minimize``
as bound in ``fermisim.tomography``. Each wrapper wraps the original
function, so a call makes exactly one span whichever binding it went
through. Leaving the context restores every binding.

A span is (name, start, end, parent span, job id). Spans stay in
compact in-memory arrays and are written out once, when the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time
import types
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("experiments", "cli", "benchmarking", "simulator", "circuits",
          "compiler", "fermions", "pauli", "tomography")
JOB_SPAN = "bench.job"
SETUP_JOB = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.job_id = SETUP_JOB
        self.counts: dict[str, float] = defaultdict(float)

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.current)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        self.current = idx
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.current = self.parent[idx]

    def wrap(self, fn, name: str, observe=None):
        """A wrapper recording one span per call; ``observe`` sees the
        call's arguments, result and duration."""
        nid = self._intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                observe(self, args, kwargs, result,
                        self.end[idx] - self.start[idx])
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def job_span(self, job_id: int):
        """Root span of one job; every span inside carries its id."""
        self.job_id = job_id
        idx = self._open(self._intern(JOB_SPAN))
        try:
            yield
        finally:
            self._close(idx)
            self.job_id = SETUP_JOB

    @contextlib.contextmanager
    def installed(self):
        """Wrap the fermisim public functions; restore them on exit."""
        saved = []
        wrapped: dict[int, object] = {}

        def replace(owner, attr, fn, name):
            key = id(fn)
            if key not in wrapped:
                wrapped[key] = self.wrap(fn, name, OBSERVERS.get(name))
            saved.append((owner, attr, fn))
            setattr(owner, attr, wrapped[key])

        modules = [importlib.import_module(f"fermisim.{m}") for m in LAYERS]
        package = importlib.import_module("fermisim")
        for module in modules + [package]:
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_")
                        or not isinstance(value, types.FunctionType)
                        or not value.__module__.startswith("fermisim.")):
                    continue
                layer = value.__module__.split(".", 1)[1]
                replace(module, attr, value, f"{layer}.{value.__name__}")
        tomography = importlib.import_module("fermisim.tomography")
        replace(tomography, "minimize", tomography.minimize,
                "tomography.minimize")
        pauli = importlib.import_module("fermisim.pauli")
        cls = pauli.WeightedPauliSum
        replace(cls, "to_dense", vars(cls)["to_dense"],
                "pauli.WeightedPauliSum.to_dense")
        try:
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "job": np.frombuffer(self.job, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, **self.arrays())


# Counters recorded at the same boundaries as the spans.

def _observe_apply_circuit(tracer, args, kwargs, result, seconds):
    state, circuit = args[0], args[1]
    noise = args[2] if len(args) > 2 else kwargs.get("noise")
    gates = len(circuit.gates)
    if noise is None and type(state).__name__ == "PureState":
        tracer.counts["simulator.pure_gates"] += gates
        return
    width = circuit.qubit_count
    tracer.counts["simulator.density_gates"] += gates
    tracer.counts[f"density_gates.q{width}"] += gates
    tracer.counts[f"density_s.q{width}"] += seconds


def _observe_rb_run(tracer, args, kwargs, result, seconds):
    m_values = args[0] if args else kwargs["m_values"]
    k_sequences = args[1] if len(args) > 1 else kwargs["k_sequences"]
    tracer.counts["benchmarking.sequences"] += len(m_values) * k_sequences


def _observe_write(tracer, args, kwargs, result, seconds):
    path = Path(args[0] if args else kwargs["path"])
    tracer.counts["experiments.write.bytes"] += path.stat().st_size


def _observe_minimize(tracer, args, kwargs, result, seconds):
    tracer.counts["tomography.lbfgs_iterations"] += int(result.nit)


OBSERVERS = {
    "simulator.apply_circuit": _observe_apply_circuit,
    "benchmarking.rb_run": _observe_rb_run,
    "experiments.write_csv": _observe_write,
    "experiments.write_json": _observe_write,
    "tomography.minimize": _observe_minimize,
}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _outermost(parent: np.ndarray, key: np.ndarray) -> np.ndarray:
    """True where no ancestor of the span has the same key."""
    nested = np.zeros(len(parent), dtype=bool)
    ancestor = parent.copy()
    while np.any(ancestor >= 0):
        live = ancestor >= 0
        nested[live] |= key[ancestor[live]] == key[live]
        ancestor[live] = parent[ancestor[live]]
    return ~nested


def span_times(spans: dict) -> dict[str, np.ndarray]:
    """Per-span duration and self time, and which spans are outermost.

    Self time is the span's duration minus the time its child spans
    cover; children of one span run one after another, so that is the
    sum of their durations. ``outer_layer`` marks spans with no ancestor
    in the same layer, ``outer_name`` spans with no ancestor of the same
    name; summing their durations counts no interval twice.
    """
    parent = spans["parent"]
    duration = spans["end"] - spans["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=duration[has_parent],
                        minlength=len(parent))
    layers = [layer_of(str(n)) for n in spans["names"]]
    layer_index = np.array([LAYERS.index(x) if x in LAYERS else -1
                            for x in layers], dtype=int)
    span_layer = layer_index[spans["name_id"]]
    return {"duration": duration, "self": duration - child,
            "layer": span_layer,
            "outer_layer": _outermost(parent, span_layer),
            "outer_name": _outermost(parent, spans["name_id"])}


def layer_metrics(spans: dict, counts: dict, job_experiments: dict[int, str],
                  experiment_ids) -> dict[str, float]:
    """Per-layer metrics of the traced jobs.

    Counts and seconds are per completed job, except where the name
    gives another base (``_us`` per gate, ``_ms`` per sequence, ``p50``
    per run, ``lbfgs_iterations`` per reconstruction) and the Clifford
    closure, which is timed once in the traced set-up.
    """
    times = span_times(spans)
    dur, own = times["duration"], times["self"]
    ids = {str(n): i for i, n in enumerate(spans["names"])}
    in_job = spans["job"] >= 0
    jobs = max(len(job_experiments), 1)

    def named(span_name):
        if span_name not in ids:
            return np.zeros(len(dur), dtype=bool)
        return in_job & (spans["name_id"] == ids[span_name])

    def calls(span_name):
        return float(named(span_name).sum()) / jobs

    def busy(span_name):
        return float(dur[named(span_name) & times["outer_name"]].sum()) / jobs

    def count(key):
        return counts.get(key, 0.0)

    out: dict[str, float] = {"trace.job_s": busy(JOB_SPAN)}
    for name in LAYERS:
        sel = in_job & (times["layer"] == LAYERS.index(name))
        out[f"{name}.calls"] = float(sel.sum()) / jobs
        out[f"{name}.busy_s"] = \
            float(dur[sel & times["outer_layer"]].sum()) / jobs
        out[f"{name}.self_s"] = float(own[sel].sum()) / jobs

    by_experiment = defaultdict(list)
    for i in np.flatnonzero(named("experiments.run")):
        by_experiment[job_experiments.get(int(spans["job"][i]))].append(
            float(dur[i]))
    for exp in experiment_ids:
        samples = by_experiment.get(exp)
        out[f"experiments.{exp}.p50_s"] = \
            statistics.median(samples) if samples else 0.0
    out["experiments.write.s"] = (busy("experiments.write_csv")
                                  + busy("experiments.write_json"))
    out["experiments.write.bytes"] = count("experiments.write.bytes") / jobs

    closure = (spans["job"] < 0) & (
        spans["name_id"] == ids.get("benchmarking.clifford_group", -1))
    out["benchmarking.clifford_group.s"] = float(dur[closure].sum())
    sequences = count("benchmarking.sequences")
    out["benchmarking.sequences"] = sequences / jobs
    out["benchmarking.sequence_ms"] = \
        1e3 * busy("benchmarking.rb_run") * jobs / sequences \
        if sequences else 0.0
    out["benchmarking.fit_decay.s"] = busy("benchmarking.fit_decay")

    out["simulator.apply_circuit.calls"] = calls("simulator.apply_circuit")
    out["simulator.apply_circuit.s"] = busy("simulator.apply_circuit")
    out["simulator.density_gates"] = count("simulator.density_gates") / jobs
    out["simulator.pure_gates"] = count("simulator.pure_gates") / jobs
    for width in (2, 3, 4):
        gates = count(f"density_gates.q{width}")
        out[f"simulator.density_gate_us.q{width}"] = \
            1e6 * count(f"density_s.q{width}") / gates if gates else 0.0
    out["simulator.exact_evolve.calls"] = calls("simulator.exact_evolve")
    out["simulator.exact_evolve.s"] = busy("simulator.exact_evolve")
    out["circuits.circuit_unitary.calls"] = calls("circuits.circuit_unitary")
    out["circuits.circuit_unitary.s"] = busy("circuits.circuit_unitary")
    out["compiler.compile_trotter_step.calls"] = \
        calls("compiler.compile_trotter_step")
    out["compiler.digitize_schedule.s"] = busy("compiler.digitize_schedule")
    out["fermions.spin_hamiltonian.calls"] = \
        calls("fermions.spin_hamiltonian")
    out["fermions.spin_hamiltonian.s"] = busy("fermions.spin_hamiltonian")
    out["pauli.to_dense.calls"] = calls("pauli.WeightedPauliSum.to_dense")
    out["tomography.simulate_qpt_dataset.s"] = \
        busy("tomography.simulate_qpt_dataset")
    out["tomography.reconstruct_chi.s"] = busy("tomography.reconstruct_chi")
    reconstructions = calls("tomography.reconstruct_chi") * jobs
    out["tomography.lbfgs_iterations"] = \
        count("tomography.lbfgs_iterations") / reconstructions \
        if reconstructions else 0.0
    return out


def shares(metrics: dict) -> dict[str, float]:
    """Each layer's self and busy time as a share of traced job time,
    and the combinations the workload design is checked against."""
    job_s = metrics["trace.job_s"] or 1.0
    out = {}
    for name in LAYERS:
        out[f"{name}.self"] = metrics[f"{name}.self_s"] / job_s
        out[f"{name}.busy"] = metrics[f"{name}.busy_s"] / job_s
    out["simulator+circuits+benchmarking.self"] = sum(
        out[f"{m}.self"] for m in ("simulator", "circuits", "benchmarking"))
    out["fermions.busy+exact_evolve"] = (
        metrics["fermions.busy_s"] + metrics["simulator.exact_evolve.s"]
    ) / job_s
    return {k: round(v, 4) for k, v in out.items()}
