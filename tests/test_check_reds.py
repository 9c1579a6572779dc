"""The CI gate that passes a test report only when its failed and errored
cases are exactly the acceptance sub-checks that are red by design."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / ".github" / "check_reds.py"
_SPEC = importlib.util.spec_from_file_location("check_reds", _PATH)
check_reds = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_reds)

RED_1, RED_2 = (check_reds.junit_name(node_id) for node_id in check_reds.EXPECTED_REDS)
PASSING = "tests.test_dsr_core.TestSimulate::test_runs"


def report(tmp_path, cases):
    """A JUnit XML report of ``(junit name, outcome)`` cases, where the
    outcome is "passed", "failure" or "error"."""
    lines = []
    for name, outcome in cases:
        classname, _, test = name.partition("::")
        body = "" if outcome == "passed" else f"<{outcome} message='x'/>"
        lines.append(f'<testcase classname="{classname}" name="{test}">{body}</testcase>')
    path = tmp_path / "report.xml"
    path.write_text(
        '<?xml version="1.0" encoding="utf-8"?><testsuites><testsuite name="pytest">'
        + "".join(lines)
        + "</testsuite></testsuites>"
    )
    return str(path)


def test_junit_name_joins_the_module_path_with_dots():
    name = check_reds.junit_name("tests/test_acceptance.py::test_x")
    assert name == "tests.test_acceptance::test_x"


@pytest.mark.parametrize(
    "cases, printed",
    [
        ([(RED_1, "failure"), (RED_2, "failure"), (PASSING, "passed")], ""),
        (
            [(RED_1, "failure"), (RED_2, "failure"), (PASSING, "failure")],
            f"unexpected failure or error: {PASSING}\n",
        ),
        (
            [(RED_1, "failure"), (RED_2, "failure"), (PASSING, "error")],
            f"unexpected failure or error: {PASSING}\n",
        ),
        (
            [(RED_1, "failure"), (RED_2, "passed"), (PASSING, "passed")],
            f"expected red case did not fail: {RED_2}\n",
        ),
    ],
    ids=["expected-reds", "extra-failure", "error", "red-passed"],
)
def test_only_the_expected_reds_pass_the_gate(tmp_path, capsys, cases, printed):
    assert check_reds.main(report(tmp_path, cases)) == (1 if printed else 0)
    assert capsys.readouterr().out == printed
