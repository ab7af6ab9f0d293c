"""Import-time breakdown of ``bredon.cli`` from ``python -X importtime``."""

from __future__ import annotations

import statistics
import subprocess
import sys

import speed
from checkout import ROOT, child_env

PROBES = 3


def parse(stderr: str) -> dict[str, tuple[float, float]]:
    """module -> (self ms, cumulative ms) from ``-X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us, cumulative_us = int(fields[0]), int(fields[1])
        except ValueError:  # the header line
            continue
        out[fields[2].strip()] = (self_us / 1000, cumulative_us / 1000)
    return out


def metrics_from(table: dict[str, tuple[float, float]]) -> dict[str, float]:
    return {
        "import.bredon_ms": table["bredon"][1],
        "import.chartab_self_ms": table["bredon.chartab"][0],
        "import.schemas_ms": table["bredon.schemas"][1],
        "import.cli_ms": table["bredon.cli"][1],
    }


def measure() -> dict[str, float]:
    """Median over a few fresh interpreters importing ``bredon.cli``, speed-scaled."""
    runs = []
    for _ in range(PROBES):
        before = speed.sample(0.02)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import bredon.cli"],
            capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=120, check=True,
        )
        factor = speed.scale(before, speed.sample(0.02))
        runs.append({k: v * factor for k, v in metrics_from(parse(proc.stderr)).items()})
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}
