"""README's examples run as written: the quick start, and each JSON config of
the "Command line" section through the command line that follows it."""

import re
from pathlib import Path

import pytest

from spherecsf import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
SECTION = README.split("\n## Command line\n")[1].split("\n## ")[0]
# (config, subcommand, file) of each json block and the sh block right after it
EXAMPLES = re.findall(r"^```json\n(.*?)^```\n\n```sh\nspherecsf (\w+) --config (\S+)",
                      SECTION, re.M | re.S)
assert len(EXAMPLES) == SECTION.count("```json\n") > 0, "a README config has no command"


@pytest.mark.parametrize("config, command, file", EXAMPLES, ids=[e[2] for e in EXAMPLES])
def test_readme_config_runs(tmp_path, config, command, file):
    (tmp_path / file).write_text(config)
    argv = [command, "--config", str(tmp_path / file), "--out", str(tmp_path), "--quiet"]
    assert cli.main(argv) == 0


def test_readme_quick_start_runs():
    exec(README.split("```python\n")[1].split("```")[0], {})
