"""The four workloads.  All are closed loops: one caller, one process
(or one child process at a time), no worker threads (``cli_cold`` only
starts a watchdog timer per child); the next operation starts when the
previous one has finished.

Each workload generates its inputs from the seed in ``setup``, exposes one
pass over them with ``pass_items``, times one operation with ``timed_op``
and checks an output with ``check`` (outside the timed region).  Outputs
of an input seen before are compared by digest with the first output,
which got the full check.
"""

from __future__ import annotations

import compileall
import io
import json
import os
import random
import resource
import subprocess
import sys
import threading
import time
from contextlib import redirect_stdout
from pathlib import Path

import checks
import inputs
from checkout import HERE, OUT, ROOT, SRC, child_env, use_source_tree

CHILD_TIMEOUT_S = 120


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.setup_problems: list[str] = []
        self._first_digest: dict[object, str] = {}

    def setup(self) -> None:
        """Warm ``.pyc`` files, import, generate inputs and run one warm-up op."""
        compileall.compile_dir(str(SRC), quiet=1)
        use_source_tree()

    def pass_items(self, index: int) -> list:
        raise NotImplementedError

    def passes_for(self, seconds: float) -> int | None:
        """A fixed pass count for a --trace 0 run, or None to measure for ``seconds``
        of operations (and at least ``run.MIN_OPS``)."""
        return None

    def op(self, item):
        raise NotImplementedError

    def timed_op(self, item, tracer) -> tuple[float, object]:
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            out = self.op(item)
            elapsed = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        return elapsed, out

    def full_check(self, item, out) -> list[str]:
        raise NotImplementedError

    def digest(self, out) -> str:
        raise NotImplementedError

    def check(self, item, out) -> list[str]:
        key = self.key(item)
        digest = self.digest(out)
        if key not in self._first_digest:
            problems = self.full_check(item, out)
            if not problems:
                self._first_digest[key] = digest
            return problems
        if digest != self._first_digest[key]:
            return [f"{key}: output differs from the first run of the same input"]
        return []

    def key(self, item):
        return item

    def kind(self, item) -> str:
        """Label used to report latency per command (cli_cold only)."""
        return self.name

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _capture_cli(argv: list[str]) -> tuple[int, str]:
    from bredon import cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse exits on a usage error
            code = exc.code
    return code, buf.getvalue()


class WallpaperWarm(Workload):
    name = "wallpaper_warm"
    why = "in-process round robin over the 17 built-in groups: character-table induction dominates, SNF is ~2%"

    def setup(self) -> None:
        super().setup()
        from bredon import homology, reference, wallpaper

        self.groups = wallpaper.list_groups()
        rng = random.Random(f"wallpaper:{self.seed}")
        self.order = list(self.groups)
        rng.shuffle(self.order)
        self.rows = reference.HOMOLOGY_ROWS
        # The in-process equivalent of `compute --all --format json` doubles as
        # the warm-up and pins every expected report to the seed digest.
        docs = [homology.report_to_json_dict(homology.compute_homology(wallpaper.get_group(g)[0])) for g in self.groups]
        if checks.sha256(json.dumps(docs, indent=2) + "\n") != checks.COMPUTE_ALL_SHA256:
            self.setup_problems.append("in-process compute --all output does not match the pinned digest")
        self.expected = dict(zip(self.groups, docs))

    def pass_items(self, index: int) -> list:
        return self.order

    def op(self, group):
        from bredon import homology, wallpaper

        report = homology.compute_homology(wallpaper.get_group(group)[0])
        doc = homology.report_to_json_dict(report)
        _, _, h1_basis, _, h0_basis = self.rows[group]
        verdicts = (homology.verify_basis(report, 1, h1_basis).accepted, homology.verify_basis(report, 0, h0_basis).accepted)
        return doc, verdicts

    def check(self, group, out) -> list[str]:
        doc, verdicts = out
        problems = checks.iso_type_problems(doc, group, self.rows)
        if doc != self.expected[group]:
            problems.append(f"{group}: report differs from the pinned compute --all output")
        want = tuple((group, d) not in checks.REJECTED_REFERENCE_BASES for d in (1, 0))
        if verdicts != want:
            problems.append(f"{group}: verify_basis verdicts (H_1, H_0) = {verdicts}, seed gave {want}")
        return problems


class ComplexSubdivided(Workload):
    name = "complex_subdivided"
    why = "dump --from-file on seeded subdivisions of the 17 complexes: schema check, validate and SNF on d1 of 11-95 rows"
    #: Passes per second of --seconds (8 at 12 s): a pass of 17 takes about 2.3 s at
    #: the reference speed, and the extra passes steady latency_p90_ms, which falls
    #: among the samples of the two costliest inputs.
    PASSES_PER_SECOND = 0.7

    def setup(self) -> None:
        super().setup()
        from bredon import gcw, reference, wallpaper

        self.rows = reference.HOMOLOGY_ROWS
        builtins = {g: gcw.to_json_dict(wallpaper.get_group(g)[0]) for g in wallpaper.list_groups()}
        self.items = []
        for group, depth, data in inputs.subdivided_complexes(builtins, self.seed):
            path = self.workdir / f"{group}-k{depth}.json"
            path.write_text(json.dumps(data), encoding="utf-8")
            self.items.append((group, depth, str(path), data))
        warm = min(self.items, key=lambda it: it[1])
        self.setup_problems += self.check(warm, self.op(warm))

    def pass_items(self, index: int) -> list:
        return self.items

    def passes_for(self, seconds: float) -> int:
        # A fixed count keeps both latencies the same order statistics of the
        # same inputs at any machine speed.
        return max(2, round(seconds * self.PASSES_PER_SECOND))

    def key(self, item):
        return item[2]

    def op(self, item):
        return _capture_cli(["dump", "--from-file", item[2], "--format", "json"])

    def digest(self, out) -> str:
        return f"{out[0]}:{checks.sha256(out[1])}"

    def full_check(self, item, out) -> list[str]:
        from bredon import gcw, homology

        group, depth, path, data = item
        code, text = out
        if code != 0:
            return [f"{path}: exit code {code}"]
        problems = checks.iso_type_problems(json.loads(text), group, self.rows)
        report = homology.compute_homology(gcw.from_json_dict(data))
        if homology.report_to_json(report) + "\n" != text:
            problems.append(f"{path}: dump output differs from compute_homology on the same complex")
        for degree in (0, 1, 2):
            g = report.group(degree)
            verdict = homology.verify_basis(report, degree, g.torsion_basis + g.basis)
            if not verdict:
                problems.append(f"{path}: own H_{degree} basis rejected ({verdict.detail})")
        return problems


class SnfDense(Workload):
    name = "snf_dense"
    why = "bredon snf on seeded dense matrices, sides 16-32, entries +-99: coefficient growth in SNF, no chartab work"

    def setup(self) -> None:
        super().setup()
        self.items = []
        for i, rows in enumerate(inputs.dense_matrices(self.seed)):
            path = self.workdir / f"m{i}-{len(rows)}x{len(rows[0])}.json"
            path.write_text(json.dumps(rows), encoding="utf-8")
            self.items.append((str(path), rows))
        warm = min(self.items, key=lambda it: len(it[1]) * len(it[1][0]))
        self.setup_problems += self.check(warm, self.op(warm))

    def pass_items(self, index: int) -> list:
        return self.items

    def key(self, item):
        return item[0]

    def op(self, item):
        return _capture_cli(["snf", item[0], "--format", "json"])

    def digest(self, out) -> str:
        return f"{out[0]}:{checks.sha256(out[1])}"

    def full_check(self, item, out) -> list[str]:
        from bredon.intlinalg import IntegerMatrix, smith_normal_form

        path, rows = item
        code, text = out
        if code != 0:
            return [f"{path}: exit code {code}"]
        witness = smith_normal_form(IntegerMatrix.from_rows(rows))
        problems = checks.snf_problems(rows, json.loads(text), witness.P_inv.to_rows(), witness.Q_inv.to_rows())
        return [f"{path}: {p}" for p in problems]


class CliCold(Workload):
    name = "cli_cold"
    why = "fresh interpreters per command: import bredon, compute --all --format json, verify; import-time work shows here"
    commands = {
        "import": (["-c", "import bredon"], None),
        "compute": (["-m", "bredon", "compute", "--all", "--format", "json"], ["compute", "--all", "--format", "json"]),
        "verify": (["-m", "bredon", "verify"], ["verify"]),
    }

    def setup(self) -> None:
        compileall.compile_dir(str(SRC), quiet=1)
        self.env = child_env()
        self.rss_kb = 0
        self.count = 0
        out = self._spawn(["-c", "import bredon.cli"])
        if out[0] != 0:
            self.setup_problems.append(f"import bredon.cli failed: {out[2]}")

    def pass_items(self, index: int) -> list:
        order = list(self.commands)
        random.Random(f"cli:{self.seed}:{index}").shuffle(order)
        return order

    def kind(self, item) -> str:
        return item

    def passes_for(self, seconds: float) -> int:
        # One round of the three commands takes about 1 s at the reference speed.
        # latency_p90_ms is the value with 10 samples above it.  With at least
        # 11 rounds those 10 are verify runs, and with a count that does not
        # depend on machine speed it is always the same order statistic of them.
        return max(11, round(seconds))

    def _spawn(self, args: list[str]) -> tuple[int, str, str, int]:
        """Run ``python <args>`` to completion; (exit code, stdout, stderr, max RSS in KB)."""
        self.count += 1
        out_path = self.workdir / f"cli{self.count}.out"
        err_path = self.workdir / f"cli{self.count}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err, env=self.env, cwd=ROOT)
            # A blocking wait4 reaps the child and reports its own peak RSS; the
            # timer only fires for a child that hangs.
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
                watchdog.join()
            proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_text(encoding="utf-8")
        stderr = err_path.read_text(encoding="utf-8")
        out_path.unlink()
        err_path.unlink()
        return proc.returncode, stdout, stderr, usage.ru_maxrss

    def timed_op(self, item, tracer) -> tuple[float, object]:
        plain, traced = self.commands[item]
        if tracer is None:
            args = plain
        else:
            spans = OUT / f"spans-{self.name}-seed{self.seed}-{item}.json"
            args = [str(HERE / "traced_cli.py"), str(spans), *(traced or [])]
        start = time.perf_counter()
        out = self._spawn(args)
        elapsed = time.perf_counter() - start
        if tracer is None:
            self.rss_kb = max(self.rss_kb, out[3])
        elif spans.exists():
            tracer.add_external(json.loads(spans.read_text(encoding="utf-8"))["summary"])
        return elapsed, out

    def check(self, item, out) -> list[str]:
        code, stdout, stderr, _ = out
        want_code, want_out = {
            "import": (0, checks.sha256("")),
            "compute": (0, checks.COMPUTE_ALL_SHA256),
            "verify": (checks.VERIFY_EXIT, checks.VERIFY_SHA256),
        }[item]
        problems = []
        if code != want_code:
            problems.append(f"{item}: exit code {code}, expected {want_code}")
        if checks.sha256(stdout) != want_out:
            problems.append(f"{item}: stdout digest {checks.sha256(stdout)[:12]}..., expected {want_out[:12]}...")
        if stderr:
            problems.append(f"{item}: unexpected stderr: {stderr.strip()[:200]}")
        return problems

    def peak_rss_mb(self) -> float:
        return self.rss_kb / 1024


WORKLOADS = {w.name: w for w in (CliCold, WallpaperWarm, ComplexSubdivided, SnfDense)}
