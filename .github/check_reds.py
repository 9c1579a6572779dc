"""Fail unless the failed and errored cases of a pytest JUnit XML report are
exactly the acceptance sub-checks that are red by design (see ROADMAP.md).

The test steps are red while those sub-checks fail, so a further failure,
error or collection error would not change their colour; this check does.

Usage: python .github/check_reds.py REPORT.xml
"""

import sys
import xml.etree.ElementTree as ET

EXPECTED_REDS = (
    "tests/test_acceptance.py::test_criterion_2_improvement_ratio_any_placement",
    "tests/test_acceptance.py::test_criterion_8_flocking_cohesion",
)


def junit_name(node_id: str) -> str:
    """The ``classname::name`` pytest's JUnit report gives a node id."""
    path, *names = node_id.split("::")
    classname = ".".join([path.removesuffix(".py").replace("/", "."), *names[:-1]])
    return f"{classname}::{names[-1]}"


def main(report: str) -> int:
    red = {
        f"{case.get('classname')}::{case.get('name')}"
        for case in ET.parse(report).getroot().iter("testcase")
        if case.find("failure") is not None or case.find("error") is not None
    }
    expected = {junit_name(node_id) for node_id in EXPECTED_REDS}
    for name in sorted(red - expected):
        print(f"unexpected failure or error: {name}")
    for name in sorted(expected - red):
        print(f"expected red case did not fail: {name}")
    return 0 if red == expected else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
