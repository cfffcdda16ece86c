"""Property test of the CLI contract: exit 0, 2, 3 or 4, never a traceback.

The experiment runners are replaced by stubs, so the test covers config
parsing, validation and dispatch, and stays fast.  Every output lands
under the test's ``tmp_path``.
"""
import dataclasses
import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fermisim.experiments as experiments
from fermisim.cli import build_parser, main
from fermisim.experiments import (
    EXPERIMENTS,
    ORDERING_ALIASES,
    SWEEP_AXES,
    ExperimentConfig,
)

CONTRACT_CODES = {0, 2, 3, 4}
FIELDS = [f.name for f in dataclasses.fields(ExperimentConfig)]
SAFE = "abcdefghijklmnopqrstuvwxyz0123456789_"

CLI_SETTINGS = settings(
    max_examples=150, deadline=None, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture])

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)

# Per field, values a real config would hold, mixed with any JSON value.
plausible = {
    "experiment": st.sampled_from(list(EXPERIMENTS)),
    "noise_scale": st.none() | st.floats(-1.0, 3.0),
    "steps": st.none() | st.integers(-1, 4),
    "seed": st.integers(-1, 2 ** 40),
    "ordering": st.sampled_from(sorted(ORDERING_ALIASES)),
    "total_time": st.none() | st.floats(-1.0, 5.0),
    "params": st.fixed_dictionaries({}, optional={
        "schedule": json_values,
        "step_counts": st.lists(st.integers(0, 3), max_size=3),
        "m_values": st.lists(st.integers(0, 3), max_size=3),
        "k_sequences": st.integers(0, 3),
    }),
}


@pytest.fixture
def stub_runners(monkeypatch):
    def stub(config, out):
        return {spec.metric: 0.5 for spec in EXPERIMENTS.values()
                if spec.metric}

    monkeypatch.setattr(experiments, "EXPERIMENTS", {
        name: dataclasses.replace(spec, runner=stub)
        for name, spec in EXPERIMENTS.items()})


def config_dicts(tmp_path):
    """Mostly plausible configs with up to two fields, or unknown keys,
    set to any JSON value; ``out_dir`` is a name under ``tmp_path`` or
    a non-string JSON value."""
    out_dirs = (st.text(SAFE, min_size=1, max_size=8)
                .map(lambda name: str(tmp_path / name))
                | json_values.filter(lambda v: not isinstance(v, str)))
    base = st.fixed_dictionaries(
        {"experiment": plausible["experiment"], "out_dir": out_dirs},
        optional={name: plausible[name] for name in FIELDS
                  if name not in ("experiment", "out_dir")})
    keys = st.sampled_from([f for f in FIELDS if f != "out_dir"]) | st.text(
        SAFE, min_size=1, max_size=6)
    overrides = st.dictionaries(keys, json_values, max_size=2)
    return st.tuples(base, overrides, st.sampled_from([(), ("out_dir",),
                                                      ("experiment",)])) \
        .map(lambda p: {k: v for k, v in {**p[0], **p[1]}.items()
                        if k not in p[2]})


@CLI_SETTINGS
@given(data=st.data())
def test_config_files_keep_the_exit_contract(tmp_path, stub_runners, data):
    cfg = data.draw(config_dicts(tmp_path))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path)]) in CONTRACT_CODES


def argparse_value(text: str) -> bool:
    """argparse reads a leading '-' as an option unless it is a number."""
    return not text.startswith("-") or bool(
        re.fullmatch(r"-\d+|-\d*\.\d+", text))


sweep_values = st.one_of(
    st.integers(-2, 10).map(str),
    st.floats().map(repr),
    st.sampled_from(sorted(ORDERING_ALIASES) + ["nan", "inf", "1e400"]),
    st.text("0123456789.eE+-_abcinfs", min_size=1, max_size=6),
).filter(argparse_value)


@CLI_SETTINGS
@given(experiment=st.sampled_from(list(EXPERIMENTS)),
       axis=st.sampled_from(SWEEP_AXES),
       values=st.lists(sweep_values, min_size=1, max_size=3))
def test_sweep_values_keep_the_exit_contract(tmp_path, stub_runners,
                                             experiment, axis, values):
    code = main(["sweep", "--experiment", experiment, "--axis", axis,
                 "--values", *values, "--out", str(tmp_path / "sweep")])
    assert code in CONTRACT_CODES


def test_parser_is_built_once_and_shared():
    parser = build_parser()
    assert build_parser() is parser
    first = parser.parse_args(["run", "--experiment", "fig3", "--steps", "4"])
    second = parser.parse_args(["sweep", "--experiment", "fig3", "--axis",
                                "steps", "--values", "1"])
    assert (first.command, first.steps) == ("run", 4)
    assert (second.command, second.steps, second.values) == \
        ("sweep", None, ["1"])
