"""The README's examples run and show what its prose says they show."""

import re
from pathlib import Path

import numpy as np
import yaml

from sorfilt.cli import CONFIG_KEYS, _build_config, build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


def test_python_examples_run_and_reject_the_outlier(capsys):
    blocks = _blocks("python")
    assert len(blocks) == 2
    ns = {}
    for block in blocks:  # the second block reuses the first one's names
        exec(compile(block, "README.md", "exec"), ns)
    assert capsys.readouterr().out  # the first block prints each step
    # "on the second measurement the 42.0 reading is rejected (omega near 0)
    # while the first dimension still tightens the estimate": for the first
    # block's sor run and for msor, whose omegas the second block leaves bound
    args = (ns["model"], ns["init"], ns["measurements"])
    steps = ns["sor_filter_run"](*args, ns["IndicatorConfig"](), ns["UTParams"]())
    for omegas in (np.array([s.indicators.omega for s in steps]), ns["omegas"]):
        assert omegas[1, 1] < 0.01
        assert omegas[1, 0] > 0.5


def test_yaml_example_is_a_valid_scenario(tmp_path):
    # each block's first line names the command it documents; the block must
    # set only keys that command reads, and pass its config check
    configs = {}
    for block in _blocks("yaml"):
        first = block.splitlines()[0]
        command = re.fullmatch(r"# sorfilt (\w+) --config \S+", first)[1]
        keys = set(yaml.safe_load(block))
        assert keys <= set(CONFIG_KEYS[command]), keys - set(CONFIG_KEYS[command])
        path = tmp_path / f"{command}.yaml"
        path.write_text(block)
        args = build_parser().parse_args([command, "--config", str(path)])
        configs[command], given = _build_config(args)
        assert given == keys
    assert sorted(configs) == ["simulate", "uwb"]
    cfg = configs["simulate"]
    assert cfg.sweep_axis == "lam"
    assert [value for value, _ in cfg.points()] == [0.1, 0.3, 0.5]
    assert (configs["uwb"].variant, configs["uwb"].dataset) == ("msor", None)
