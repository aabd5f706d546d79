"""README's examples run as written: the quick start, and each JSON config of
the "Command line" section through the command line that follows it."""

import json
import re
from dataclasses import fields
from pathlib import Path

import pytest

from spherecsf import FlowConfig, cli, evolve_closed

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
SECTION = README.split("\n## Command line\n")[1].split("\n## ")[0]
# (config, subcommand, file) of each json block and the sh block right after it
EXAMPLES = re.findall(r"^```json\n(.*?)^```\n\n```sh\nspherecsf (\w+) --config (\S+)",
                      SECTION, re.M | re.S)
assert len(EXAMPLES) == SECTION.count("```json\n") > 0, "a README config has no command"


FLOW_EXAMPLES = [e for e in EXAMPLES if e[1] in ("simulate", "straighten")]


def run_example(tmp_path, config, command, file):
    (tmp_path / file).write_text(config)
    argv = [command, "--config", str(tmp_path / file), "--out", str(tmp_path), "--quiet"]
    return cli.main(argv)


@pytest.mark.parametrize("config, command, file", EXAMPLES, ids=[e[2] for e in EXAMPLES])
def test_readme_config_runs(tmp_path, config, command, file):
    assert run_example(tmp_path, config, command, file) == 0


@pytest.mark.parametrize("config, command, file", FLOW_EXAMPLES,
                         ids=[e[2] for e in FLOW_EXAMPLES])
def test_readme_flow_report_counts_the_run(tmp_path, config, command, file):
    assert run_example(tmp_path, config, command, file) == 0
    cfg = json.loads(config)
    report = json.loads((tmp_path / cfg.get("name", command) / "report.json").read_text())
    counts, fcfg = report["flow"], cli._flow_config(cfg)
    assert set(counts) == {"accepted_steps", "evaluations", "rejected_trials", "remeshes",
                           "min_dt", "max_dt", "min_edge", "final_n"}
    # both examples are closed curves run to max_time at most dt apart
    assert counts["accepted_steps"] >= fcfg.max_time / fcfg.dt
    assert 0.0 < counts["min_dt"] <= counts["max_dt"] <= fcfg.dt
    assert counts == evolve_closed(cli._build_curve(cfg["curve"], "curve", 0),
                                   fcfg).stats.to_json()


def test_readme_names_the_flow_config_fields():
    count, names = re.search(r"`FlowConfig` has (\w+) fields: (.*?)\.", README, re.S).groups()
    want = [f.name for f in fields(FlowConfig)]
    assert re.findall(r"`(\w+)`", names) == want
    assert ["one", "two", "three", "four", "five", "six", "seven", "eight"].index(count) + 1 \
        == len(want)


def test_readme_quick_start_runs():
    exec(README.split("```python\n")[1].split("```")[0], {})
