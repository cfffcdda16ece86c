"""Experiment harness: emitted files, summaries, determinism, CLI codes."""
import json
import math
import random
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fermisim.experiments as experiments
import fermisim.simulator as simulator
from fermisim.benchmarking import FitError
from fermisim.cli import EXIT_IO, main
from fermisim.compiler import Schedule, digitize_schedule
from fermisim.experiments import (
    EXACT_SLICES,
    EXPERIMENTS,
    MAX_STEPS,
    MAX_TOTAL_TIME,
    ConfigError,
    ExperimentConfig,
    _advance_exact,
    default_ramp_schedule,
    quarter_angle_step_circuit,
    run,
    sweep,
)
from fermisim.fermions import (
    SCHEDULE_MODELS,
    coupling_matrices,
    four_mode_ahm,
    spin_hamiltonian,
    three_mode_model,
    two_mode_model,
)
from fermisim.simulator import invariant_support

GOLDEN = Path(__file__).parent / "data" / "pre_batched_ramp_golden.json"
FUSION_GOLDEN = Path(__file__).parent / "data" / "pre_fusion_golden.json"


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


class TestConfig:
    def test_unknown_experiment(self):
        cfg = ExperimentConfig("fig9", "/tmp/x")
        with pytest.raises(ConfigError, match="experiment"):
            cfg.validate()

    def test_bad_steps(self):
        cfg = ExperimentConfig("fig3", "/tmp/x", steps=0)
        with pytest.raises(ConfigError, match="steps"):
            cfg.validate()

    def test_bad_noise(self):
        cfg = ExperimentConfig("fig3", "/tmp/x", noise_scale=-1.0)
        with pytest.raises(ConfigError, match="noise"):
            cfg.validate()

    @pytest.mark.parametrize("params", [
        {"m_values": [1, 2, 10 ** 12]},  # with the default k = 50
        {"m_values": [1, 2, 3], "k_sequences": 20_000},
        {"k_sequences": 736},  # 736 x 136 with the default lengths
    ])
    def test_oversized_rb_work_rejected(self, params):
        cfg = ExperimentConfig("rb_s3", "/tmp/x", params=params)
        with pytest.raises(ConfigError, match="at most 100000"):
            cfg.validate()

    @pytest.mark.parametrize("params", [
        {"k_sequences": 735},
        {"m_values": [1, 2, 99_997], "k_sequences": 1},
    ])
    def test_rb_work_up_to_the_cap_accepted(self, params):
        ExperimentConfig("rb_s3", "/tmp/x", params=params).validate()

    def test_json_round_trip(self):
        cfg = ExperimentConfig("fig3", "/tmp/x", noise_scale=1.0, steps=4)
        again = ExperimentConfig.from_json_dict(cfg.to_json_dict())
        assert again == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown fields"):
            ExperimentConfig.from_json_dict(
                {"experiment": "fig3", "out_dir": "/tmp/x", "bogus": 1})

    def test_noise_model_mapping(self):
        assert ExperimentConfig("fig3", "x").noise_model() is None
        assert ExperimentConfig("fig3", "x",
                                noise_scale=0.0).noise_model() is None
        nm = ExperimentConfig("fig3", "x", noise_scale=2.0).noise_model()
        assert nm.eps_2q == pytest.approx(2 * 7.4e-3)


class RecordingConfig(ExperimentConfig):
    """A config that records which top-level fields are read."""

    WATCHED = ("steps", "noise_scale", "total_time", "seed", "ordering")

    def __getattribute__(self, name):
        if name in RecordingConfig.WATCHED:
            object.__getattribute__(self, "seen").add(name)
        return object.__getattribute__(self, name)


SMALL_PARAMS = {"digital_error_s4": {"step_counts": [1]},
                "rb_s3": {"m_values": [1, 2, 3], "k_sequences": 1}}
OPTIONAL = {"steps": 2, "noise_scale": 1.0, "total_time": 2.0}


class TestExperimentTable:
    @pytest.mark.parametrize("experiment", list(EXPERIMENTS))
    def test_reads_are_what_the_runner_reads(self, experiment, tmp_path):
        cfg = RecordingConfig(experiment, str(tmp_path), steps=1,
                              params=SMALL_PARAMS.get(experiment, {}))
        cfg.seen = set()
        EXPERIMENTS[experiment].runner(cfg, tmp_path)
        assert cfg.seen == set(EXPERIMENTS[experiment].reads)

    def test_ids_keep_their_order(self):
        assert experiments.EXPERIMENT_IDS == (
            "fig3", "fig4_3mode", "fig4_4mode", "fig5_2mode", "fig5_3mode",
            "digital_error_s4", "digital_error_s5", "rb_s3",
            "anticommutation_fig2d", "census_table_s1")

    @pytest.mark.parametrize("experiment,field", [
        (name, field) for name, spec in EXPERIMENTS.items()
        for field in OPTIONAL if field not in spec.reads])
    def test_unread_field_exit_two(self, tmp_path, capsys, experiment,
                                   field):
        cfg = {"experiment": experiment, "out_dir": str(tmp_path / "out"),
               field: OPTIONAL[field]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert (f"configuration error: {field}: {experiment} does not "
                f"read it") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment,axis,values", [
        ("rb_s3", "steps", ["--values", "1", "2"]),
        ("anticommutation_fig2d", "ordering", []),
        ("anticommutation_fig2d", "steps", ["--from", "1", "--to", "3"]),
    ])
    def test_sweep_along_unread_axis_exit_two(self, tmp_path, capsys,
                                              experiment, axis, values):
        code = main(["sweep", "--experiment", experiment, "--axis", axis,
                     *values, "--out", str(tmp_path / "out")])
        assert code == 2
        assert (f"configuration error: axis: {experiment} does not read "
                f"{axis}") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestFig3:
    def test_noiseless_digital_fidelity_is_one(self, tmp_path):
        summary = run(ExperimentConfig("fig3", str(tmp_path), steps=3))
        for fid in summary["end_fidelity_vs_digital"].values():
            assert fid == pytest.approx(1.0, abs=1e-9)
        header, rows = read_csv(tmp_path / "fig3_steps3.csv")
        assert header[:4] == ["time", "p_mode1", "p_mode2", "p_other"]
        assert "fidelity_vs_digital" in header
        assert "overlap_vs_exact" in header
        assert len(rows) == 4

    def test_summary_file_written(self, tmp_path):
        run(ExperimentConfig("fig3", str(tmp_path), steps=2))
        payload = json.loads((tmp_path / "summary.json").read_text())
        assert payload["experiment"] == "fig3"
        assert payload["step_census"]["entangling"] == 6


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        cfg_a = ExperimentConfig("fig3", str(tmp_path / "a"),
                                 noise_scale=1.0, steps=2, seed=7)
        cfg_b = ExperimentConfig("fig3", str(tmp_path / "b"),
                                 noise_scale=1.0, steps=2, seed=7)
        run(cfg_a)
        run(cfg_b)
        for name in ("fig3_steps1.csv", "fig3_steps2.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_census_json_byte_stable(self, tmp_path):
        run(ExperimentConfig("census_table_s1", str(tmp_path / "a")))
        run(ExperimentConfig("census_table_s1", str(tmp_path / "b")))
        assert (tmp_path / "a" / "census_table_s1.json").read_bytes() == \
            (tmp_path / "b" / "census_table_s1.json").read_bytes()

    def test_rb_deterministic_under_seed(self, tmp_path):
        params = {"m_values": [1, 3, 6], "k_sequences": 3}
        for sub in ("a", "b"):
            run(ExperimentConfig("rb_s3", str(tmp_path / sub),
                                 noise_scale=1.0, seed=9, params=params))
        assert (tmp_path / "a" / "rb_s3.csv").read_bytes() == \
            (tmp_path / "b" / "rb_s3.csv").read_bytes()


class TestCensusExperiment:
    def test_published_table(self, tmp_path):
        summary = run(ExperimentConfig("census_table_s1", str(tmp_path)))
        table = summary["table"]
        assert table["two_mode"]["census"] == {
            "entangling": 6, "microwave": 20, "idle": 6, "detune": 0,
            "virtual": 2}
        assert table["three_mode"]["census"] == {
            "entangling": 12, "microwave": 53, "idle": 19, "detune": 12,
            "virtual": 3}
        assert table["four_mode"]["census"] == {
            "entangling": 10, "microwave": 56, "idle": 22, "detune": 18,
            "virtual": 2}
        for tag in table:
            assert table[tag]["phase_range_violations"] == 0


class TestFig5:
    def test_two_mode_ramp_files(self, tmp_path):
        summary = run(ExperimentConfig("fig5_2mode", str(tmp_path)))
        assert summary["min_fidelity_vs_exact"] > 0.99
        assert (tmp_path / "fig5_2mode.csv").exists()
        assert (tmp_path / "fig5_2mode_exact.csv").exists()

    def test_frozen_phase_before_ramp(self, tmp_path):
        # occupations barely move while hopping is still zero
        summary = run(ExperimentConfig("fig5_3mode", str(tmp_path)))
        header, rows = read_csv(tmp_path / "fig5_3mode_exact.csv")
        t = np.array([float(r[0]) for r in rows])
        occ1 = np.array([float(r[1]) for r in rows])
        early = occ1[t <= 1.0]
        assert np.max(np.abs(early - early[0])) < 1e-6
        late = occ1[t >= 2.0]
        assert np.max(np.abs(late - occ1[0])) > 0.05

    def test_schedule_override(self, tmp_path):
        sched = default_ramp_schedule().to_json_dict()
        sched["T"] = 2.0
        sched["V"] = [[0.0, 1.0], [2.0, 1.0]]
        sched["U"] = [[0.0, 1.0], [2.0, 1.0]]
        summary = run(ExperimentConfig(
            "fig5_2mode", str(tmp_path), params={"schedule": sched}))
        assert summary["schedule"]["T"] == 2.0

    def test_ordering_reaches_the_ramp(self, tmp_path, monkeypatch):
        written = {}
        monkeypatch.setattr(
            experiments, "write_csv",
            lambda path, header, rows: written.__setitem__(
                path.relative_to(tmp_path).as_posix(), rows))
        for ordering in ("s5", "s6"):
            run(ExperimentConfig("fig5_2mode", str(tmp_path / ordering),
                                 noise_scale=1.0, steps=3,
                                 ordering=ordering))
        s5, s6 = written["s5/fig5_2mode.csv"], written["s6/fig5_2mode.csv"]
        # the first step has no hopping (V = 0 on [0, 1]); the last has
        assert s5[:2] == s6[:2]
        assert s5[-1] != s6[-1]
        assert written["s5/fig5_2mode_exact.csv"] \
            == written["s6/fig5_2mode_exact.csv"]
        # an explicit s5 is the ordering the golden ramps were recorded in
        want = json.loads(GOLDEN.read_text())["cases"]["fig5_2mode_steps2"]
        run(ExperimentConfig(out_dir=str(tmp_path / "golden"),
                             ordering="s5", **want["config"]))
        for name, rows in want["csv"].items():
            assert np.allclose(np.array(written[f"golden/{name}"],
                                        dtype=float), rows,
                               rtol=0, atol=1e-12), name


def drawn_ramp(seed: int) -> Schedule:
    """A hopping ramp under a ramped repulsion, drawn at random."""
    rng = random.Random(seed)
    duration = rng.uniform(2.5, 3.5)
    t_on = duration * rng.uniform(0.2, 0.4)
    t_off = duration * rng.uniform(0.6, 0.8)
    v_end = rng.uniform(0.6, 1.4)
    return Schedule.from_json_dict({
        "T": duration,
        "V": [[0.0, 0.0], [t_on, 0.0], [t_off, v_end], [duration, v_end]],
        "U": [[0.0, rng.uniform(0.6, 1.4)], [duration, rng.uniform(0.6, 1.4)]],
    })


class TestExactReference:
    @pytest.mark.parametrize("mode_count,steps", [(2, 2), (3, 1)])
    @pytest.mark.parametrize("schedule", [default_ramp_schedule(),
                                          drawn_ramp(2024)])
    def test_converged_against_four_times_finer(self, schedule, mode_count,
                                                 steps):
        windows = [p.window for p in
                   digitize_schedule(schedule, steps, mode_count)]
        coarse = _advance_exact(schedule, mode_count, windows, EXACT_SLICES)
        fine = _advance_exact(schedule, mode_count, windows,
                              4 * EXACT_SLICES)
        for a, b in zip(coarse, fine):
            infidelity = 1 - abs(np.vdot(a, b)) ** 2
            assert infidelity <= 1e-10


def random_ramp(rng: random.Random) -> Schedule:
    """V and U piecewise linear through 2-5 random knots of either sign."""
    duration = rng.uniform(1.0, 4.0)

    def knots():
        inner = sorted(rng.uniform(0.0, duration)
                       for _ in range(rng.randrange(4)))
        return tuple((t, rng.uniform(-2.0, 2.0))
                     for t in (0.0, *inner, duration))

    return Schedule(duration, knots(), knots())


class TestReachableBlock:
    """Each model's block is found once; the ramp stack is built on it."""

    @staticmethod
    def ramp_stacks(monkeypatch) -> list:
        """Every Hamiltonian stack experiments passes to evolve_slices."""
        stacks = []
        kernel = experiments.evolve_slices

        def spy(hamiltonians, *args):
            stacks.append(hamiltonians)
            return kernel(hamiltonians, *args)

        monkeypatch.setattr(experiments, "evolve_slices", spy)
        return stacks

    @pytest.mark.parametrize("mode_count", [2, 3])
    def test_ramp_stack_is_the_model_block(self, mode_count, tmp_path,
                                           monkeypatch):
        stacks = self.ramp_stacks(monkeypatch)
        run(ExperimentConfig(f"fig5_{mode_count}mode", str(tmp_path),
                             steps=4, noise_scale=1.0))
        k = len(experiments.reachable_indices(
            SCHEDULE_MODELS[mode_count](1.0, 1.0)))
        # the step reference and the 60-sample dense reference
        assert [hs.shape for hs in stacks] == [(4 * EXACT_SLICES, k, k),
                                               (60 * 20, k, k)]
        assert all(hs.dtype == np.float64 for hs in stacks)

    @pytest.mark.parametrize("mode_count", [2, 3])
    def test_block_stack_is_the_full_stack_cut(self, mode_count,
                                               monkeypatch):
        stacks = self.ramp_stacks(monkeypatch)
        rng = random.Random(mode_count)
        block = experiments.reachable_indices(
            SCHEDULE_MODELS[mode_count](1.0, 1.0))
        psi0 = experiments._input_state(mode_count)[0]
        terms = np.stack(coupling_matrices(mode_count))
        for schedule in [default_ramp_schedule(),
                         *(random_ramp(rng) for _ in range(20))]:
            for steps in (1, 2, 7):
                edges = np.linspace(0.0, schedule.duration, steps + 1)
                windows = list(zip(edges, edges[1:]))
                stacks.clear()
                _advance_exact(schedule, mode_count, windows, EXACT_SLICES)
                # the full stack as it was built before the cut
                t0, t1 = np.asarray(windows).T
                dt = (t1 - t0) / EXACT_SLICES
                grid = t0[:, None] + np.arange(EXACT_SLICES + 1) * dt[:, None]
                full = np.tensordot(schedule.averages(grid).reshape(-1, 2),
                                    terms, 1)
                assert np.array_equal(stacks[0], full[:, block[:, None], block])
                assert np.array_equal(invariant_support(full, psi0), block)

    @pytest.mark.parametrize("experiment,steps", [("fig3", 8),
                                                  ("fig5_3mode", None)])
    def test_one_support_search_per_model(self, experiment, steps, tmp_path,
                                          monkeypatch):
        calls = []
        search = simulator.invariant_support

        def counting(*args):
            calls.append(args)
            return search(*args)

        monkeypatch.setattr(simulator, "invariant_support", counting)
        monkeypatch.setattr(experiments, "invariant_support", counting)
        experiments.reachable_indices.cache_clear()
        run(ExperimentConfig(experiment, str(tmp_path), steps=steps))
        assert len(calls) == 1

    def test_three_mode_reference_memory(self):
        # 200 steps x 600 slices: the (120000, 3, 3) stack and its
        # propagators, never the (120000, 8, 8) full-space stack
        schedule = default_ramp_schedule()
        windows = [p.window for p in digitize_schedule(schedule, 200, 3)]
        _advance_exact(schedule, 3, windows[:1], 1)  # caches built
        tracemalloc.start()
        try:
            _advance_exact(schedule, 3, windows, EXACT_SLICES)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 96 * 2 ** 20


class TestPreBatchedRampGolden:
    """Ramp CSV values recorded with the per-slice exact reference."""

    CASES = json.loads(GOLDEN.read_text())["cases"]

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_csv_values(self, case, tmp_path, monkeypatch):
        want = self.CASES[case]
        written = {}
        monkeypatch.setattr(
            experiments, "write_csv",
            lambda path, header, rows: written.__setitem__(path.name, rows))
        run(ExperimentConfig(out_dir=str(tmp_path), **want["config"]))
        assert sorted(written) == sorted(want["csv"])
        for name, rows in want["csv"].items():
            assert np.allclose(np.array(written[name], dtype=float), rows,
                               rtol=0, atol=1e-12), name


class TestPreFusionGolden:
    """Step-count and tomography outputs recorded before one-qubit gates
    were folded into entangler blocks, steps were lowered once per run
    and QPT linear inversion used the normal equations."""

    CASES = json.loads(FUSION_GOLDEN.read_text())["cases"]

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_outputs(self, case, tmp_path, monkeypatch):
        want = self.CASES[case]
        csv, chi = {}, {}
        monkeypatch.setattr(
            experiments, "write_csv",
            lambda path, header, rows: csv.__setitem__(path.name, rows))
        write_json = experiments.write_json

        def capture_json(path, payload):
            if path.name.startswith("chi_"):
                chi[path.name] = payload
            write_json(path, payload)

        monkeypatch.setattr(experiments, "write_json", capture_json)
        summary = run(ExperimentConfig(out_dir=str(tmp_path),
                                       **want["config"]))
        assert sorted(csv) == sorted(want.get("csv", {}))
        for name, rows in want.get("csv", {}).items():
            assert np.allclose(np.array(csv[name], dtype=float), rows,
                               rtol=0, atol=1e-12), name
        assert sorted(chi) == sorted(want.get("chi", {}))
        for name, payload in want.get("chi", {}).items():
            for part in ("re", "im"):
                assert np.allclose(chi[name][part], payload[part],
                                   rtol=0, atol=1e-9), name
        for key, value in want.get("summary", {}).items():
            assert summary[key] == pytest.approx(value, rel=0, abs=1e-9)


class TestSweep:
    def test_steps_axis(self, tmp_path):
        cfg = ExperimentConfig("fig3", str(tmp_path), noise_scale=None,
                               steps=2)
        results = sweep(cfg, "steps", [1, 2])
        assert len(results) == 2
        assert (tmp_path / "sweep_steps.csv").exists()

    def test_zero_noise_scale_gives_unit_fidelity(self, tmp_path):
        cfg = ExperimentConfig("fig3", str(tmp_path), steps=2)
        results = sweep(cfg, "noise_scale", [0.0])
        fids = results[0]["end_fidelity_vs_digital"]
        assert all(abs(f - 1) < 1e-9 for f in fids.values())

    def test_bad_axis(self, tmp_path):
        cfg = ExperimentConfig("fig3", str(tmp_path))
        with pytest.raises(ConfigError, match="axis"):
            sweep(cfg, "temperature", [1])

    def test_ordering_axis_on_fig4(self, tmp_path):
        cfg = ExperimentConfig("fig4_4mode", str(tmp_path), steps=2)
        results = sweep(cfg, "ordering", ["s5", "s6"])
        assert [r["config"]["ordering"] for r in results] == ["s5", "s6"]

    def test_ordering_axis_on_fig5(self, tmp_path):
        cfg = ExperimentConfig("fig5_2mode", str(tmp_path), noise_scale=1.0,
                               steps=3)
        s5, s6 = sweep(cfg, "ordering", ["s5", "s6"])
        assert s5["min_fidelity_vs_exact"] != s6["min_fidelity_vs_exact"]


class TestRbExperiment:
    def test_small_rb_run(self, tmp_path):
        summary = run(ExperimentConfig(
            "rb_s3", str(tmp_path), noise_scale=1.0, seed=3,
            params={"m_values": [1, 4, 8], "k_sequences": 4}))
        assert set(summary["decays"]) == {"ref", "zz_block", "trotter_step"}
        assert summary["zz_block_error"] > 0
        assert summary["trotter_step_error"] > summary["zz_block_error"]
        header, rows = read_csv(tmp_path / "rb_s3.csv")
        assert header == ["m", "mean_fidelity", "stderr", "tag"]
        assert len(rows) == 9

    @pytest.mark.parametrize("off", [{}, {"noise_scale": 0.0}])
    def test_noise_off_is_noiseless(self, tmp_path, off):
        params = {"m_values": [1, 3, 6], "k_sequences": 2}
        summary = run(ExperimentConfig("rb_s3", str(tmp_path / "off"),
                                       params=params, **off))
        run(ExperimentConfig("rb_s3", str(tmp_path / "on"),
                             noise_scale=1.0, params=params))
        assert summary["zz_block_error"] == 0.0
        assert summary["trotter_step_error"] == 0.0
        assert (tmp_path / "off" / "rb_s3.csv").read_bytes() != \
            (tmp_path / "on" / "rb_s3.csv").read_bytes()

    def test_quarter_angle_step_circuit_is_clifford(self):
        from fermisim.benchmarking import clifford_group
        from fermisim.circuits import circuit_unitary
        group = clifford_group(two_qubit=True)
        assert group.contains_unitary(
            circuit_unitary(quarter_angle_step_circuit()))


class TestAnticommutationExperiment:
    def test_noiseless(self, tmp_path):
        summary = run(ExperimentConfig("anticommutation_fig2d",
                                       str(tmp_path)))
        assert summary["f1"] == pytest.approx(1.0, abs=1e-3)
        assert summary["f_composed"] == pytest.approx(1.0, abs=1e-3)
        assert (tmp_path / "chi_first.json").exists()
        assert (tmp_path / "chi_composed.json").exists()


class TestCli:
    def test_run_exit_zero(self, tmp_path, capsys):
        code = main(["run", "--experiment", "census_table_s1",
                     "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert json.loads(out)["ok"] is True

    def test_validation_exit_two(self, tmp_path, capsys):
        code = main(["run", "--experiment", "fig3", "--steps", "0",
                     "--out", str(tmp_path)])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_missing_out_dir(self, capsys):
        code = main(["run", "--experiment", "fig3"])
        assert code == 2

    def test_noise_parsing(self, tmp_path):
        code = main(["run", "--experiment", "fig3", "--steps", "1",
                     "--noise", "off", "--out", str(tmp_path / "a")])
        assert code == 0
        code = main(["run", "--experiment", "fig3", "--steps", "1",
                     "--noise", "nonsense", "--out", str(tmp_path / "b")])
        assert code == 2

    def test_sweep_command(self, tmp_path):
        code = main(["sweep", "--experiment", "fig3", "--axis", "steps",
                     "--from", "1", "--to", "2", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "sweep_steps.csv").exists()

    @pytest.mark.parametrize("experiment,axis,values", [
        ("census_table_s1", "ordering", []),
        ("digital_error_s5", "noise_scale", ["--values", "0", "1"]),
        ("digital_error_s4", "steps", ["--values", "1", "2"]),
    ])
    def test_sweep_without_metric_exit_two(self, tmp_path, capsys,
                                           experiment, axis, values):
        code = main(["sweep", "--experiment", experiment, "--axis", axis,
                     *values, "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error: experiment" in err
        assert "no sweep metric" in err
        assert not (tmp_path / "out").exists()

    def test_config_file(self, tmp_path):
        cfg = {"experiment": "fig3", "out_dir": str(tmp_path / "out"),
               "steps": 1}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path)]) == 0

    @pytest.mark.parametrize("change,field", [
        ({"params": {"schedule": {"T": 3.0, "U": [[0.0, 1.0], [3.0, 1.0]]}}},
         "params.schedule"),
        ({"params": {"schedule": {"T": 3.0, "V": [[0.0, 0.0], [2.0, 1.0]],
                                  "U": [[0.0, 1.0], [3.0, 1.0]]}}},
         "params.schedule"),
        ({"steps": "2"}, "steps"),
        ({"seed": 1.5}, "seed"),
        ({"noise_scale": 1000.0}, "noise_scale"),
        ({"out_dir": 5}, "out_dir"),
        ({"out_dir": None}, "out_dir"),
        ({"out_dir": ""}, "out_dir"),
        ({"ordering": ["s5"]}, "ordering"),
        ({"noise_scale": 10 ** 400}, "noise_scale"),
        ({"total_time": 10 ** 400}, "total_time"),
        ({"params": {"schedule": {"T": 10 ** 400, "V": [], "U": []}}},
         "params.schedule"),
        ({"params": {"schedule": {
            "T": 3.0, "V": [[0.0, 0.0], [1.0, 0.0], [math.nan, 1.0],
                            [3.0, 1.0]],
            "U": [[0.0, 1.0], [3.0, 1.0]]}}}, "params.schedule"),
        ({"params": {"schedule": {
            "T": 2.0, "V": [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [2.0, 1.0]],
            "U": [[0.0, 1.0], [2.0, 1.0]]}}},
         "params.schedule: V knot times must strictly increase"),
        ({"params": {"schedule": {**default_ramp_schedule().to_json_dict(),
                                  "steps": 5}}},
         "params.schedule: steps is not a schedule setting; set the step "
         "count with the top-level 'steps' field"),
    ])
    def test_malformed_config_exit_two(self, tmp_path, capsys, change,
                                       field):
        cfg = {"experiment": "fig5_2mode", "out_dir": str(tmp_path / "out"),
               **change}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert f"configuration error: {field}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("axis,values", [
        ("steps", ["--values", "1.5"]),
        ("steps", ["--values", "2", "1e400"]),
        ("noise_scale", ["--values", "abc"]),
        ("steps", ["--from", "1", "--to", "nan"]),
        ("steps", ["--from", "1", "--to", "inf"]),
        ("steps", ["--from", "5", "--to", "1"]),
    ])
    def test_bad_sweep_values_exit_two(self, tmp_path, capsys, axis, values):
        code = main(["sweep", "--experiment", "fig3", "--axis", axis,
                     *values, "--out", str(tmp_path / "out")])
        assert code == 2
        captured = capsys.readouterr()
        assert "configuration error: values" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("axis,values,named", [
        ("steps", ["1", "1.0"], "steps value 1 "),
        ("noise_scale", ["0.5", "5e-1"], "noise_scale value 0.5 "),
        ("ordering", ["s5", "canonical_s5"], "ordering value 'canonical_s5' "),
    ])
    def test_duplicate_sweep_values_exit_two(self, tmp_path, capsys, axis,
                                             values, named):
        code = main(["sweep", "--experiment", "fig3", "--axis", axis,
                     "--values", *values, "--out", str(tmp_path / "out")])
        assert code == 2
        captured = capsys.readouterr()
        assert f"configuration error: values: {named}" in captured.err
        assert "appears more than once" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("stop", ["1000", "1e9"])
    def test_overlong_step_range_exit_two(self, tmp_path, capsys, stop):
        # rejected before the range is built: 1e9 values would take GBs
        code = main(["sweep", "--experiment", "fig3", "--axis", "steps",
                     "--from", "0", "--to", stop,
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "spans at most 1000 values" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_sweep_value_runs_nothing(self, tmp_path, capsys):
        code = main(["sweep", "--experiment", "fig3", "--axis", "steps",
                     "--values", "1", "0", "--out", str(tmp_path / "out")])
        assert code == 2
        assert "configuration error: steps" in capsys.readouterr().err
        assert not (tmp_path / "out" / "steps_1").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_noise_exit_two(self, tmp_path, capsys, value):
        code = main(["run", "--experiment", "fig5_2mode", "--noise", value,
                     "--out", str(tmp_path)])
        assert code == 2
        assert "configuration error: noise_scale" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment,params,field", [
        ("fig5_2mode", {"schedul": {"T": 2.0}}, "params: unknown keys"),
        ("fig3", {"schedule": {}}, "params: unknown keys"),
        ("census_table_s1", {"step_counts": [1]}, "params: unknown keys"),
        ("rb_s3", {"m_values": [0, 1, 2]}, "params.m_values"),
        ("rb_s3", {"m_values": []}, "params.m_values"),
        ("rb_s3", {"k_sequences": 0}, "params.k_sequences"),
        ("rb_s3", {"k_sequences": True}, "params.k_sequences"),
        ("digital_error_s4", {"step_counts": [1, 2.5]},
         "params.step_counts"),
        ("digital_error_s4", {"step_counts": 4}, "params.step_counts"),
        ("fig5_3mode", {"schedule": [1, 2]}, "params.schedule"),
    ])
    def test_params_schema_exit_two(self, tmp_path, capsys, experiment,
                                    params, field):
        cfg = {"experiment": experiment, "out_dir": str(tmp_path / "out"),
               "params": params}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert f"configuration error: {field}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", ["[1, 2]", '{"experiment": ',
                                      '"fig3"'])
    def test_config_file_not_an_object_exit_two(self, tmp_path, capsys,
                                                text):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 2
        assert "configuration error: config" in capsys.readouterr().err

    def test_missing_config_file_exit_two(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "configuration error: config" in capsys.readouterr().err

    def test_unwritable_out_exit_io(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        code = main(["run", "--experiment", "census_table_s1",
                     "--out", str(blocker / "out")])
        assert code == EXIT_IO
        assert "output error" in capsys.readouterr().err

    @pytest.mark.parametrize("cap,rho", [(1, "100"), (3, "1e+06")])
    def test_optimiser_failure_exit_three(self, tmp_path, capsys,
                                          monkeypatch, cap, rho):
        import fermisim.tomography as tomography
        simulate = tomography.simulate_qpt_dataset

        def non_physical(process, noise=None):
            # a planted perturbation makes the noiseless linear inversion
            # non-physical, so reconstruct_chi runs the ADMM fit
            probs = simulate(process, noise).probabilities
            probs = probs + np.random.default_rng(12).uniform(
                -5e-8, 5e-8, probs.shape)
            probs = np.clip(probs, 0, None)
            return tomography.QPTDataset(
                probs / probs.sum(axis=2, keepdims=True))

        monkeypatch.setattr(tomography, "simulate_qpt_dataset", non_physical)
        monkeypatch.setattr(tomography, "_ADMM_MAX_ITERATIONS", cap)
        # the cached R-step inverse holds rho: rebuild it for the patched
        # value, and again for the real one once the run is over
        monkeypatch.setattr(tomography, "_ADMM_RHO", float(rho))
        tomography._admm_r_step.cache_clear()
        try:
            code = main(["run", "--experiment", "anticommutation_fig2d",
                         "--out", str(tmp_path)])
        finally:
            tomography._admm_r_step.cache_clear()
        assert code == 3
        err = capsys.readouterr().err
        assert re.search(
            rf"numerical failure: ADMM fit not converged after {cap} "
            r"iterations: primal residual \d\.\d{3}e[-+]\d+, "
            r"dual residual \d\.\d{3}e[-+]\d+", err)

    def test_overflowing_evolution_exit_three(self, tmp_path, capsys):
        # finite, so validate accepts it, but vals * dt overflows
        cfg = {"experiment": "fig5_2mode", "out_dir": str(tmp_path / "out"),
               "params": {"schedule": {
                   "T": 1e300, "V": [[0.0, 1e300], [1e300, 1e300]],
                   "U": [[0.0, 1.0], [1e300, 1.0]]}}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path)]) == 3
        assert "numerical failure: overflow" in capsys.readouterr().err
        assert not (tmp_path / "out" / "summary.json").exists()

    @pytest.mark.parametrize("experiment", ["fig3", "fig4_3mode",
                                            "fig5_2mode"])
    @pytest.mark.parametrize("steps", [MAX_STEPS + 1, 1_000_000_000_000])
    def test_out_of_range_steps_exit_two(self, tmp_path, capsys,
                                         experiment, steps):
        # used to end in a MemoryError traceback, or (fig3) never end
        code = main(["run", "--experiment", experiment, "--steps",
                     str(steps), "--out", str(tmp_path / "out")])
        assert code == 2
        assert (f"configuration error: steps: must be at most {MAX_STEPS}"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_step_bound_is_inclusive(self, tmp_path):
        for name in ("fig3", "fig4_4mode", "fig5_3mode"):
            ExperimentConfig(name, str(tmp_path), steps=MAX_STEPS).validate()
        ExperimentConfig("digital_error_s4", str(tmp_path),
                         params={"step_counts": [1, MAX_STEPS]}).validate()

    @pytest.mark.parametrize("step_counts", [
        [1, MAX_STEPS + 1], [1_000_000_000_000],
        [2, 2], [1, 4, 2, 4],  # used to write a CSV twice
    ])
    def test_bad_step_counts_exit_two(self, tmp_path, capsys, step_counts):
        cfg = {"experiment": "digital_error_s4",
               "out_dir": str(tmp_path / "out"),
               "params": {"step_counts": step_counts}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert (f"configuration error: params.step_counts: must be "
                f"distinct, each <= {MAX_STEPS}") in err
        assert not (tmp_path / "out").exists()

    def test_out_of_range_sweep_step_exit_two(self, tmp_path, capsys):
        # every value is validated before the first run starts
        code = main(["sweep", "--experiment", "fig3", "--axis", "steps",
                     "--values", "1", str(MAX_STEPS + 1),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "configuration error: steps" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_exact_norm_loss_exit_three(self, tmp_path, capsys,
                                        monkeypatch):
        # a three-mode ramp drifts by about 1e-12 at 10 steps and passes
        # NORM_TOL from about 500; a tighter tolerance plants the failure
        experiments._input_state(3)  # the input, checked at the real one
        monkeypatch.setattr(simulator, "NORM_TOL", 1e-15)
        code = main(["run", "--experiment", "fig5_3mode", "--steps", "10",
                     "--out", str(tmp_path / "out")])
        assert code == 3
        assert re.search(r"numerical failure: state is not normalised: "
                         r"max \|norm - 1\| = [1-9]", capsys.readouterr().err)
        assert not (tmp_path / "out" / "summary.json").exists()

    def test_phase_past_its_digits_exit_three(self, tmp_path, capsys):
        # V ramped to 1e7: each exact slice's |lambda dt| passes
        # MAX_PHASE long before it overflows
        cfg = {"experiment": "fig5_2mode", "out_dir": str(tmp_path / "out"),
               "params": {"schedule": {
                   "T": 3.0, "V": [[0.0, 0.0], [3.0, 1e7]],
                   "U": [[0.0, 1.0], [3.0, 1.0]]}}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path)]) == 3
        assert re.search(r"numerical failure: phase \|lambda t\| = \S+ "
                         r"exceeds 9007", capsys.readouterr().err)
        assert list((tmp_path / "out").glob("*")) == []

    @pytest.mark.parametrize("experiment", ["fig3", "fig4_3mode",
                                            "fig4_4mode", "digital_error_s4"])
    def test_total_time_cap_passes_the_phase_guard(self, tmp_path,
                                                   experiment):
        run(ExperimentConfig(experiment, str(tmp_path),
                             total_time=MAX_TOTAL_TIME))

    def test_total_time_cap_keeps_the_phase_rule(self):
        # the fixed-coupling models that read total_time
        models = [two_mode_model(1.0, 1.0), three_mode_model(1.0, 0.0),
                  three_mode_model(1.0, 1.0), four_mode_ahm(1.0, 1.0, 0.0, 1.0)]
        top = max(np.abs(np.linalg.eigvalsh(
            spin_hamiltonian(m).to_dense())).max() for m in models)
        assert top * MAX_TOTAL_TIME * 2.0 ** -53 <= 1e-12

    @pytest.mark.parametrize("total_time", [MAX_TOTAL_TIME * 1.001, 1e20,
                                            1.7e308])
    def test_total_time_beyond_phase_precision_exit_two(self, tmp_path,
                                                        capsys, total_time):
        cfg = {"experiment": "digital_error_s4", "total_time": total_time,
               "out_dir": str(tmp_path / "out")}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "configuration error: total_time" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("m_values", [[1, 2], [1, 2, 2, 1]])
    def test_too_few_rb_lengths_exit_two(self, tmp_path, capsys, m_values):
        # fewer than three distinct lengths cannot support a decay fit
        cfg = {"experiment": "rb_s3", "out_dir": str(tmp_path / "out"),
               "noise_scale": 1.0,
               "params": {"m_values": m_values, "k_sequences": 2}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["run", "--config", str(cfg_path)])
        assert code == 2
        assert ("configuration error: params.m_values"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_oversized_rb_work_exit_two(self, tmp_path, capsys):
        # validated before any work: no allocation, no out_dir
        cfg = {"experiment": "rb_s3", "out_dir": str(tmp_path / "out"),
               "noise_scale": 1.0,
               "params": {"m_values": [1, 2, 1_000_000_000_000]}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert ("configuration error: params: k_sequences x sum(m_values)"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_numerical_failure_exit_three(self, tmp_path, capsys,
                                          monkeypatch):
        def failing_fit(table):
            raise FitError("decay fit did not converge: planted")

        monkeypatch.setattr(experiments, "fit_decay", failing_fit)
        cfg = {"experiment": "rb_s3", "out_dir": str(tmp_path / "out"),
               "noise_scale": 1.0,
               "params": {"m_values": [1, 2, 3], "k_sequences": 2}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["run", "--config", str(cfg_path)])
        assert code == 3
        assert "numerical failure: decay fit" in capsys.readouterr().err
        assert not (tmp_path / "out" / "summary.json").exists()
