"""The CI workflow parses and names only scripts and tests that exist.

An unquoted ``: `` in a step name once turned the whole workflow into
invalid YAML, and a deleted test module left in a ``pytest`` command fails
only on the hosted runner.  Both show up here, in the tier-1 run.
"""

import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

REPO_ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = REPO_ROOT / ".github" / "workflows" / "ci.yml"


def _run_commands(workflow):
    for job in workflow["jobs"].values():
        for step in job.get("steps", []):
            if "run" in step:
                yield step.get("name", "<unnamed>"), step["run"]


def test_workflow_parses_and_every_named_python_file_exists():
    workflow = yaml.safe_load(WORKFLOW.read_text())
    commands = list(_run_commands(workflow))
    assert commands, "ci.yml has no run: steps"
    missing = [
        (name, token)
        for name, command in commands
        for token in re.findall(r"[\w./-]+\.py\b", command)
        if not (REPO_ROOT / token).is_file()
    ]
    assert not missing, f"ci.yml runs files that do not exist: {missing}"
