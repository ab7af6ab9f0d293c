"""Locate the checkout the benchmark runs against and import ``bredon`` from its ``src/``."""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for generated inputs, captured output and span files (git-ignored).
OUT = ROOT / ".perfbench-out"


class CheckoutError(RuntimeError):
    pass


def use_source_tree() -> None:
    """Put ``src/`` first on ``sys.path`` and make sure ``bredon`` resolves there."""
    if not (SRC / "bredon" / "__init__.py").is_file():
        raise CheckoutError(f"no bredon sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import bredon

    if Path(bredon.__file__).resolve().parent != SRC / "bredon":
        raise CheckoutError(f"bredon imported from {bredon.__file__}, not from {SRC}")


def child_env() -> dict[str, str]:
    """Environment for child interpreters: ``src/`` first on the path, fixed hash seed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    return env


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py")))
