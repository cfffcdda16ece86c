"""Experiment harness: emitted files, summaries, determinism, CLI codes."""
import json
import random
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import OptimizeResult, minimize

import fermisim.experiments as experiments
from fermisim.cli import EXIT_IO, main
from fermisim.compiler import Schedule, digitize_schedule
from fermisim.experiments import (
    EXACT_SLICES,
    ConfigError,
    ExperimentConfig,
    _advance_exact,
    default_ramp_schedule,
    quarter_angle_step_circuit,
    run,
    sweep,
)
from fermisim.simulator import prepare_input

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
        psi0 = prepare_input({2: "two_mode", 3: "three_mode"}[mode_count])
        coarse = _advance_exact(psi0, schedule, mode_count, windows,
                                EXACT_SLICES)
        fine = _advance_exact(psi0, schedule, mode_count, windows,
                              4 * EXACT_SLICES)
        for a, b in zip(coarse, fine):
            infidelity = 1 - abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2
            assert infidelity <= 1e-10


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

    @pytest.mark.parametrize("stage,weight", [(1, "100"), (3, "1e+06")])
    def test_optimiser_failure_exit_three(self, tmp_path, capsys,
                                          monkeypatch, stage, weight):
        import fermisim.tomography as tomography
        calls = []

        def failing_at_stage(fun, x0, **kwargs):
            calls.append(x0)
            if len(calls) < stage:
                return minimize(fun, x0, **kwargs)
            return OptimizeResult(x=x0, success=False, nit=0,
                                  message="ABNORMAL: line search failed")

        monkeypatch.setattr(tomography, "minimize", failing_at_stage)
        code = main(["run", "--experiment", "anticommutation_fig2d",
                     "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert (f"numerical failure: optimiser failed at stage {stage}/3 "
                f"(penalty weight {weight}): ABNORMAL") in err

    def test_numerical_failure_exit_three(self, tmp_path, capsys):
        # two distinct sequence lengths cannot support a decay fit
        cfg = {"experiment": "rb_s3", "out_dir": str(tmp_path),
               "noise_scale": 1.0,
               "params": {"m_values": [1, 2], "k_sequences": 2}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["run", "--config", str(cfg_path)])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err
