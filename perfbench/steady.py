#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, the way the acceptance check computes it.

    python3 perfbench/steady.py --workloads cli_cold snf_dense --seeds 1-10 --out set1.json
    python3 perfbench/steady.py --compare set1.json set2.json

For each workload it runs ``perfbench/run.py`` once per seed (one after the
other), then prints for each metric the median and the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a share
of the median, next to a third of the metric's bound from BENCHMARK.json.
``--compare`` prints how far the second set's median lies from the first's,
in the worse direction, against the full bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from checkout import ROOT


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(workloads: list[str], seed_list: list[int], seconds: int) -> dict:
    results: dict = {}
    for w in workloads:
        for s in seed_list:
            cmd = [*spec()["command"], "--workload", w, "--seed", str(s), "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not last["correct"]:
                sys.exit(f"{w} seed {s}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            for name, m in last["metrics"].items():
                results.setdefault(w, {}).setdefault(name, []).append(m["value"])
            print(f"{w} seed {s}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in last["metrics"].items()), flush=True)
    return results


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def report(results: dict) -> bool:
    bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    steady = True
    for w, metrics in results.items():
        for name, values in metrics.items():
            s = spread(values)
            ok = name == "setup_s" or s < bounds[name] / 3
            steady &= ok
            print(f"{w:20s} {name:16s} median {statistics.median(values):10.4g}  spread {s:6.3f}  "
                  f"bound/3 {bounds[name] / 3:6.3f}  {'ok' if ok else 'WIDE'}")
    return steady


def compare(first: dict, second: dict) -> bool:
    spec_by_name = {m["name"]: m for m in spec()["end_to_end"]}
    agree = True
    for w, metrics in first.items():
        for name, values in metrics.items():
            a, b = statistics.median(values), statistics.median(second[w][name])
            worse = (b - a) / a if spec_by_name[name]["better"] == "lower" else (a - b) / a
            ok = worse <= spec_by_name[name]["bound"]
            agree &= ok
            print(f"{w:20s} {name:16s} {a:10.4g} -> {b:10.4g}  worse by {worse:+.3f}  "
                  f"bound {spec_by_name[name]['bound']:.2f}  {'ok' if ok else 'REGRESSED'}")
    return agree


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec()["workloads"]])
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--out", type=Path, help="save the raw values as JSON")
    p.add_argument("--compare", nargs=2, type=Path, metavar=("FIRST", "SECOND"))
    args = p.parse_args()
    if args.compare:
        first, second = (json.loads(path.read_text(encoding="utf-8")) for path in args.compare)
        return 0 if compare(first, second) else 1
    results = run_set(args.workloads, seeds(args.seeds), spec()["run_seconds"])
    if args.out:
        args.out.write_text(json.dumps(results, indent=1), encoding="utf-8")
    return 0 if report(results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
