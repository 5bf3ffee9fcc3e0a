"""The CI workflow runs commands, never checks of its own.

Every check is a test that a local run of the suite also runs. A heredoc or
inline Python in the workflow would be a check that only CI runs.
"""

import re
from pathlib import Path

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def test_workflow_has_no_heredoc_or_inline_python():
    lines = WORKFLOW.read_text(encoding="utf-8").splitlines()
    inline = [line for line in lines if re.search(r"<<|\bpython3?\s+-(c\b|\s|$)", line)]
    assert inline == []


def test_workflow_tests_the_installed_package():
    # a PYTHONPATH would put the checkout's src/ ahead of the package that pip installed
    assert "PYTHONPATH" not in WORKFLOW.read_text(encoding="utf-8")


def test_workflow_runs_each_module_that_tier1_does_not_collect():
    # a module under tests/ not named test_*.py is too slow for tier-1, so CI runs it by name
    text = WORKFLOW.read_text(encoding="utf-8")
    slow = sorted(path.name for path in WORKFLOW.parents[2].joinpath("tests").glob("*.py")
                  if not path.name.startswith("test_"))
    assert slow
    for name in slow:
        assert re.search(rf"run: timeout \d+ python -m pytest -q tests/{re.escape(name)}$", text,
                         re.MULTILINE), name
