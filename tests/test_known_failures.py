"""``.github/known_failures.py`` passes a pytest run only on exit 1 with exactly the named failures."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

GATE = Path(__file__).parents[1] / ".github" / "known_failures.py"
KNOWN = ["tests/test_a.py::test_known", "tests/test_a.py::test_also_known"]


def junit(tmp_path: Path, outcomes: dict[str, str]) -> Path:
    """A junit report of test_a.py: per test name, "pass", "failure" or "error"."""
    cases = "".join(
        f'<testcase classname="tests.test_a" name="{name}">{"" if outcome == "pass" else f"<{outcome}/>"}</testcase>'
        for name, outcome in outcomes.items()
    )
    path = tmp_path / "junit.xml"
    path.write_text(f'<testsuites><testsuite name="pytest">{cases}</testsuite></testsuites>', encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "pytest_exit, outcomes, status",
    [
        ("1", {"test_known": "failure", "test_also_known": "error", "test_other": "pass"}, 0),
        ("1", {"test_known": "failure", "test_also_known": "failure", "test_other": "failure"}, 1),  # one more
        ("1", {"test_known": "failure", "test_also_known": "pass", "test_other": "pass"}, 1),  # a known one passes
        ("2", {"test_known": "failure", "test_also_known": "failure", "test_other": "pass"}, 1),  # interrupted
        ("0", {"test_known": "pass", "test_also_known": "pass", "test_other": "pass"}, 1),
    ],
    ids=["exactly-the-known", "one-more", "a-known-one-passes", "pytest-exit-2", "all-pass"],
)
def test_gate(tmp_path, pytest_exit, outcomes, status):
    proc = subprocess.run(
        [sys.executable, str(GATE), str(junit(tmp_path, outcomes)), *KNOWN],
        capture_output=True, text=True, env={**os.environ, "PYTEST_EXIT": pytest_exit}, timeout=60,
    )
    assert proc.returncode == status, proc.stdout + proc.stderr
    assert proc.stdout.startswith(f"3 tests, pytest exit {pytest_exit}, failed: ")
