"""The README's examples run and show what its prose says they show."""

import re
from pathlib import Path

import numpy as np
import yaml

from sorfilt import ScenarioConfig

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


def test_yaml_example_is_a_valid_scenario():
    (block,) = _blocks("yaml")
    cfg = ScenarioConfig(**yaml.safe_load(block))
    assert cfg.sweep_axis == "lam"
    assert [value for value, _ in cfg.points()] == [0.1, 0.3, 0.5]
