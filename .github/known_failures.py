"""Pass a pytest run only when exactly the named tests failed.

    PYTEST_EXIT=<status> python .github/known_failures.py <junit.xml> <node id>...

``PYTEST_EXIT`` is the exit status of the pytest run that wrote the junit
report.  The gate passes when that status is 1 and the tests that failed or
errored in the report are exactly the node ids given
(``path/to/test_x.py::name``): any other status, one more failure, or a named
test that passed fails it.
"""

import os
import sys
import xml.etree.ElementTree as ET


def main(junit: str, *known: str) -> int:
    cases = list(ET.parse(junit).getroot().iter("testcase"))
    failed = {
        f"{case.get('classname', '').replace('.', '/')}.py::{case.get('name')}"
        for case in cases
        if case.find("failure") is not None or case.find("error") is not None
    }
    exit_code = os.environ["PYTEST_EXIT"]
    print(f"{len(cases)} tests, pytest exit {exit_code}, failed: {sorted(failed)}")
    if exit_code != "1" or failed != set(known):
        print(f"expected exactly {sorted(known)} to fail (pytest exit 1)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
