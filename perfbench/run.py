#!/usr/bin/env python3
"""bredon benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload wallpaper_warm --seed 1 --seconds 12 --trace 0

Workloads: cli_cold, wallpaper_warm, complex_subdivided, snf_dense (see
perfbench/README.md).  The program is imported from this checkout's
``src/``, never from an installed copy.

--trace 0 measures whole passes over the workload's inputs until the timed
operations add up to --seconds and prints the end-to-end metrics.
--trace 1 measures untraced passes for half of --seconds, then exactly one
traced pass (so its counts repeat exactly for a seed), and prints the
per-layer metrics.  Every output is checked outside the timed region; the
last stdout line is one JSON object, and the exit code is 1 if any check
failed, 2 if the checkout holds no ``src/bredon``.
"""

from __future__ import annotations

import os
import time

import speed

NPROC = len(os.sched_getaffinity(0))
if __name__ == "__main__":  # not when the tests import this module
    # One CPU for this process and every child it starts, so that the speed
    # calibration runs where the measured work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    CALIBRATION_AT_START = speed.sample(0.02)
    T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from checkout import OUT, ROOT, SRC, CheckoutError, src_lines  # noqa: E402

#: Set-ups per --trace 0 run (this process plus fresh interpreters); setup_s is their median.
SETUP_REPS = 3
#: A run stops its passes after this much wall time even if it wants more.
WALL_CAP_S = 120
#: A run measured by time makes whole passes until it has at least this many
#: operations, so latency_p90_ms is the 90th percentile at any machine speed.
MIN_OPS = 100

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "chartab.induction_calls": "count",
    "chartab.induction_ms": "ms",
    "chartab.induction_distinct": "count",
    "chartab.induction_reuse_ratio": "ratio",
    "chartab.inner_product_calls": "count",
    "chartab.inner_product_ms": "ms",
    "cyclotomic.mul_calls": "count",
    "import.bredon_ms": "ms",
    "import.chartab_self_ms": "ms",
    "import.schemas_ms": "ms",
    "import.cli_ms": "ms",
    "gcw.assemble_calls": "count",
    "gcw.assemble_self_ms": "ms",
    "gcw.validate_calls": "count",
    "gcw.validate_self_ms": "ms",
    "gcw.from_json_ms": "ms",
    "schemas.check_calls": "count",
    "schemas.check_ms": "ms",
    "intlinalg.snf_calls": "count",
    "intlinalg.snf_calls_per_op": "count",
    "intlinalg.snf_ms": "ms",
    "intlinalg.snf_ms.le8": "ms",
    "intlinalg.snf_ms.le16": "ms",
    "intlinalg.snf_ms.le32": "ms",
    "intlinalg.snf_ms.gt32": "ms",
    "intlinalg.max_transform_bits": "bits",
    "intlinalg.kernel_calls": "count",
    "intlinalg.cokernel_calls": "count",
    "intlinalg.solve_calls": "count",
    "intlinalg.matmul_ms": "ms",
    "homology.compute_calls": "count",
    "homology.compute_self_ms": "ms",
    "homology.verify_basis_calls": "count",
    "homology.verify_basis_self_ms": "ms",
    "homology.report_json_ms": "ms",
    "cli.main_self_ms": "ms",
    "cli.import_ms_p50": "ms",
    "cli.compute_all_ms_p50": "ms",
    "cli.verify_ms_p50": "ms",
    "trace.overhead_ratio": "ratio",
    "src.lines": "count",
}

CLI_KINDS = {"import": "cli.import_ms_p50", "compute": "cli.compute_all_ms_p50", "verify": "cli.verify_ms_p50"}


@dataclass
class Measured:
    #: Speed-scaled op times in seconds (see speed.py); ``raw`` holds the measured ones.
    latencies: list[float] = field(default_factory=list)
    raw: list[float] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    busy: float = 0.0

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies) if self.latencies else 0.0

    @property
    def scale(self) -> float:
        """Mean factor from measured to speed-scaled time over the whole run."""
        return sum(self.latencies) / sum(self.raw) if self.raw else 1.0

    def p50_ms_by_kind(self) -> dict[str, tuple[float, int]]:
        out = {}
        for kind in sorted(set(self.kinds)):
            xs = [x for x, k in zip(self.latencies, self.kinds) if k == kind]
            out[kind] = (statistics.median(xs) * 1000, len(xs))
        return out


def tail_rank(n: int) -> int:
    """1-based nearest rank of the tail latency: p90 with at least 100 samples,
    else the highest rank that leaves at least 10 samples above it (never
    below the median)."""
    if n >= 100:
        return math.ceil(0.9 * n)
    return max(n - 10, math.ceil(n / 2))


def measure(wl, *, seconds: float = 0.0, min_ops: int = 0, passes: int | None = None, tracer=None) -> Measured:
    """Whole passes over the inputs: a fixed number, or until the timed ops reach ``seconds``
    (and number at least ``min_ops``)."""
    m = Measured()
    started = time.monotonic()
    index = 0
    before = speed.sample()
    while True:
        for item in wl.pass_items(index):
            m.attempted += 1
            attempt = time.perf_counter()
            try:
                elapsed, out = wl.timed_op(item, tracer)
            except Exception as exc:  # a raising op is a failed op, not a crashed benchmark
                m.busy += time.perf_counter() - attempt
                m.failures.append(f"{wl.key(item)}: {exc!r}")
                continue
            after = speed.sample(speed.budget(elapsed))
            m.busy += elapsed
            m.raw.append(elapsed)
            m.latencies.append(elapsed * speed.scale(before, after))
            m.kinds.append(wl.kind(item))
            before = after
            problems = wl.check(item, out)
            if problems:
                m.failures.append("; ".join(problems))
        index += 1
        done = index >= passes if passes is not None else m.busy >= seconds and m.attempted >= min_ops
        if done or time.monotonic() - started > WALL_CAP_S:
            return m


def setup_elsewhere(args, wl) -> list[float]:
    """setup_s of one fresh interpreter running this script with --setup-only
    (empty, with the problem recorded, if that set-up fails)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=120)
    if proc.returncode != 0:
        wl.setup_problems.append(f"set-up in a fresh interpreter failed: {proc.stderr.strip()[-500:]}")
        return []
    return [json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]]


def end_to_end(setups: list[float], m: Measured, wl) -> tuple[dict[str, float], list[str]]:
    lat_ms = sorted(x * 1000 for x in m.latencies)
    n = len(lat_ms)
    rank = tail_rank(n)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": m.ops_per_s,
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": lat_ms[rank - 1],
        "peak_rss_mb": wl.peak_rss_mb(),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "ops_per_s": f"{n} ops in {m.busy:.2f} s of timed work, {n / m.busy:.4g}/s unscaled",
        "latency_p50_ms": f"n={n}, {statistics.median(m.raw) * 1000:.4g} ms unscaled",
        "latency_p90_ms": f"p{100 * rank / n:.1f}: rank {rank} of {n}, {n - rank} samples above",
        "peak_rss_mb": "max RSS of the command processes" if wl.name == "cli_cold" else "max RSS of this process",
    }
    lines = [f"speed scale = {m.scale:.4g} (times below are at the reference speed; see speed.py)"]
    lines += [f"{k} = {v:.6g} {END_TO_END_UNITS[k]} ({notes[k]})" for k, v in values.items()]
    lines.append(f"fail_ratio = {len(m.failures) / m.attempted:.6g} ({len(m.failures)} of {m.attempted} ops failed)")
    for kind, (p50, count) in m.p50_ms_by_kind().items():
        if kind in CLI_KINDS:
            lines.append(f"{CLI_KINDS[kind]} = {p50:.6g} ms (n={count})")
    return values, lines


def per_layer(untraced: Measured, traced: Measured, tracer) -> dict[str, float]:
    import importtime
    from tracer import layer_metrics

    values = layer_metrics(tracer.summary(), len(traced.latencies))
    values = {k: v * traced.scale if PER_LAYER_UNITS[k] == "ms" else v for k, v in values.items()}
    values.update(importtime.measure())
    by_kind = untraced.p50_ms_by_kind()
    for kind, name in CLI_KINDS.items():
        values[name] = by_kind[kind][0] if kind in by_kind else 0.0
    values["trace.overhead_ratio"] = traced.ops_per_s / untraced.ops_per_s if untraced.ops_per_s else 0.0
    values["src.lines"] = src_lines()
    return {k: values[k] for k in PER_LAYER_UNITS}


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv: list[str]) -> int:
    if not (SRC / "bredon" / "__init__.py").is_file():
        print(f"perfbench: no bredon sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    args = parse_args(argv)
    from tracer import Tracer
    from workloads import WORKLOADS

    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        try:
            wl.setup()
        except CheckoutError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        setups = [(time.perf_counter() - T0) * speed.scale(CALIBRATION_AT_START, speed.sample(0.02))]
        if args.setup_only:
            for problem in wl.setup_problems:
                print(f"SETUP FAILED {problem}", file=sys.stderr)
            print(json.dumps({"setup_s": setups[0]}))
            return 1 if wl.setup_problems else 0

        if args.trace == 0:
            for _ in range(SETUP_REPS - 1):
                setups += setup_elsewhere(args, wl)
            runs = [measure(wl, seconds=args.seconds, min_ops=MIN_OPS, passes=wl.passes_for(args.seconds))]
            values, lines = end_to_end(setups, runs[0], wl)
            units = END_TO_END_UNITS
        else:
            tracer = Tracer()
            runs = [measure(wl, seconds=args.seconds / 2)]
            runs.append(measure(wl, passes=1, tracer=tracer))
            tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
            values = per_layer(runs[0], runs[1], tracer)
            units = PER_LAYER_UNITS
            lines = [f"{k} = {v:.6g} {units[k]}" for k, v in values.items()]
            lines.append(f"traced pass: {len(runs[1].latencies)} ops; spans in {OUT.name}/")

        attempted = sum(m.attempted for m in runs)
        failures = [f for m in runs for f in m.failures]
        for problem in (wl.setup_problems + failures)[:20]:
            print(f"CHECK FAILED {problem}", file=sys.stderr)
        correct = not (wl.setup_problems or failures)
        env = {"python": platform.python_version(), "nproc": NPROC, "seed": args.seed,
               "src.lines": src_lines()}
        print(f"# workload={args.workload} seconds={args.seconds:g} trace={args.trace} "
              + " ".join(f"{k}={v}" for k, v in env.items()))
        for line in lines:
            print(line)
        result = {
            "correct": correct,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        }
        record = OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
        record.write_text(json.dumps({"environment": env, **result}, indent=2), encoding="utf-8")
        print(json.dumps(result))
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
