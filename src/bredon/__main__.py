"""The process entry, which ``python -m bredon`` and the ``bredon`` script both call.
``run`` freezes the heap when ``cli.main`` returns, so the interpreter's exit-time
collections walk nothing; cycles left then die with the process, which holds no
finalizer-backed resource.  ``cli.main``, for in-process callers, never freezes."""

import gc

from .cli import main


def run() -> int:
    try:
        return main()
    finally:  # also after a SystemExit from argparse's help or usage error
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(run())
