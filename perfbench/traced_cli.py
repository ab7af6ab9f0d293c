"""Run ``bredon.cli.main`` with every public function traced, then write the spans.

    python perfbench/traced_cli.py SPANS.json [bredon arguments...]

With no bredon arguments it only imports ``bredon`` and ``bredon.cli``.
The exit code is the command's; stdout is the command's, unchanged.
"""

from __future__ import annotations

import sys

from checkout import use_source_tree
from tracer import Tracer


def main(argv: list[str]) -> int:
    spans_path, command = argv[0], argv[1:]
    use_source_tree()
    from bredon import cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(command) if command else 0
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
