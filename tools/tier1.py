"""Run the tier-1 suite and pass only when its one known failure is all that fails.

    python3 tools/tier1.py

Runs ``python -m pytest -q --continue-on-collection-errors`` from the
repository root with ``src`` first on ``PYTHONPATH``, no cache plugin,
and a JUnit report in a temporary directory.  It deselects, skips and
xfails nothing.  The exit status is 0 only when the set of tests that
fail or error is exactly :data:`EXPECTED_FAILURES`: another failure, a
collection error, a missing report, or the expected failure passing
all exit 1.  Criterion 8 asserts an ordering of the fidelity curves
that the exact physics contradicts (see the README), so it must keep
failing until the physics says otherwise.  Standard library only.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED_FAILURES = frozenset({"tests/test_acceptance.py::test_criterion_8_fidelity_figure"})


def _node_id(case: ET.Element) -> str:
    """pytest's node id of a JUnit ``testcase`` written with ``junit_family=xunit1``."""
    path = case.get("file") or ""
    module = path.removesuffix(".py").replace("/", ".")
    classname = case.get("classname") or ""
    inner = classname[len(module) + 1 :].split(".") if path and classname.startswith(module + ".") else []
    return "::".join(filter(None, [path or classname, *inner, case.get("name")]))


def failing_tests(report: Path) -> tuple[set[str], int]:
    """Node ids of the tests that failed or errored, and how many test cases ran."""
    cases = list(ET.parse(report).getroot().iter("testcase"))
    failing = {_node_id(case) for case in cases if case.find("failure") is not None or case.find("error") is not None}
    return failing, len(cases)


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory(prefix="tier1-") as scratch:
        report = Path(scratch) / "tier1.xml"
        command = [
            sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
            "-p", "no:cacheprovider", f"--junitxml={report}", "-o", "junit_family=xunit1",
        ]
        done = subprocess.run(command, cwd=ROOT, env=env)
        if not report.is_file():
            print(f"tier1: pytest exited {done.returncode} without a JUnit report", file=sys.stderr)
            return 1
        failing, ran = failing_tests(report)
    unexpected = sorted(failing - EXPECTED_FAILURES)
    passing = sorted(EXPECTED_FAILURES - failing)
    for node in unexpected:
        print(f"tier1: unexpected failure: {node}", file=sys.stderr)
    for node in passing:
        print(f"tier1: expected failure no longer fails: {node}", file=sys.stderr)
    if unexpected or passing:
        return 1
    print(f"tier1: {ran} test cases, only the expected failures failed: {', '.join(sorted(EXPECTED_FAILURES))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
