"""Spans around the public functions of every ``bredon`` module.

``Tracer.install`` wraps each public function of each ``bredon`` module in
every module namespace that binds it (``homology`` imports
``smith_normal_form``, ``validate`` and friends by name, so patching the
defining module alone would miss those calls), plus two operators:
``IntegerMatrix.__matmul__`` gets a span and ``Cyclotomic.__mul__`` a bare
call counter.  ``uninstall`` puts every original back.

A span is (name, start_ns, end_ns, parent index).  Spans stay in memory
until ``dump``; self time (duration minus the time of direct children) is
accumulated as spans close.  Work the tracer does after a call returns,
such as measuring transform bit sizes, is charged to neither the span nor
its parent.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

#: Aggregates keyed by span name: [calls, inclusive ns, self ns].
Aggregate = dict[str, list[int]]

SNF_BUCKETS = ((8, "le8"), (16, "le16"), (32, "le32"), (None, "gt32"))


def _bredon_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "bredon" or name.startswith("bredon.")]


def _public_functions(module) -> dict[str, object]:
    """Public functions (including ``lru_cache`` wrappers) defined by ``module``."""
    out = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            out[name] = obj
    return out


def _snf_bucket(rows: int, cols: int) -> str:
    size = max(rows, cols)
    for bound, label in SNF_BUCKETS:
        if bound is None or size <= bound:
            return label
    raise AssertionError("unreachable")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int] | None] = []
        self.agg: Aggregate = {}
        self.counts: Counter[str] = Counter()
        self.embeddings: set[str] = set()
        self.snf_buckets: Aggregate = {label: [0, 0, 0] for _, label in SNF_BUCKETS}
        self.max_transform_bits = 0
        self._stack: list[list[int]] = []  # [span index, child ns]
        self._wrappers: list[tuple[object, str, object]] | None = None
        self._originals: list[tuple[object, str, object]] = []
        self._external: list[dict] = []

    # -- wrapping -----------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        name_id = len(self.names)
        self.names.append(name)
        agg = self.agg.setdefault(name, [0, 0, 0])
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            idx = len(spans)
            spans.append(None)
            frame = [idx, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                spans[idx] = (name_id, start, end, parent)
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                hook_start = clock()
                after(args, result, duration)
                if stack:
                    stack[-1][1] += clock() - hook_start
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_induction(self, args, result, duration) -> None:
        self.embeddings.add(args[0].embedding_id)

    def _after_snf(self, args, result, duration) -> None:
        bucket = self.snf_buckets[_snf_bucket(args[0].rows, args[0].cols)]
        bucket[0] += 1
        bucket[1] += duration
        bits = max(
            (abs(v).bit_length() for m in (result.P, result.P_inv, result.Q, result.Q_inv) for v in m.entries),
            default=0,
        )
        self.max_transform_bits = max(self.max_transform_bits, bits)

    def _plan(self) -> list[tuple[object, str, object]]:
        from bredon.cyclotomic import Cyclotomic
        from bredon.intlinalg import IntegerMatrix

        after = {
            "bredon.chartab.induction_matrix": self._after_induction,
            "bredon.intlinalg.smith_normal_form": self._after_snf,
        }
        modules = _bredon_modules()
        wrapped: dict[int, object] = {}
        for module in modules:
            for name, fn in _public_functions(module).items():
                qualified = f"{module.__name__}.{name}"
                wrapped[id(fn)] = self._span(qualified.removeprefix("bredon."), fn, after.get(qualified))
        plan = [
            (module, attr, wrapped[id(value)])
            for module in modules
            for attr, value in vars(module).items()
            if id(value) in wrapped
        ]
        plan.append((IntegerMatrix, "__matmul__", self._span("intlinalg.IntegerMatrix.__matmul__", IntegerMatrix.__matmul__)))
        mul = self._counter("cyclotomic.mul_calls", Cyclotomic.__mul__)
        plan += [(Cyclotomic, "__mul__", mul), (Cyclotomic, "__rmul__", mul)]
        return plan

    def install(self) -> None:
        """Wrap every public ``bredon`` function wherever a module binds it."""
        if self._wrappers is None:
            self._wrappers = self._plan()
        for owner, attr, wrapper in self._wrappers:
            self._originals.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def add_external(self, summary: dict) -> None:
        """Fold in the summary of a traced child process."""
        self._external.append(summary)

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Mergeable raw aggregates, including those of traced child processes."""
        own = {
            "agg": {k: list(v) for k, v in self.agg.items() if v[0]},
            "counts": dict(self.counts),
            "embeddings": sorted(self.embeddings),
            "snf_buckets": {k: list(v) for k, v in self.snf_buckets.items()},
            "max_transform_bits": self.max_transform_bits,
        }
        return functools.reduce(merge, self._external, own)

    def dump(self, path) -> None:
        """Write the spans (compact: [name index, start ns, end ns, parent]) and the summary."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans, "summary": self.summary()}, fh)


def merge(a: dict, b: dict) -> dict:
    agg = {k: list(v) for k, v in a["agg"].items()}
    for k, v in b["agg"].items():
        agg[k] = [x + y for x, y in zip(agg.get(k, [0, 0, 0]), v)]
    counts = Counter(a["counts"])
    counts.update(b["counts"])
    return {
        "agg": agg,
        "counts": dict(counts),
        "embeddings": sorted(set(a["embeddings"]) | set(b["embeddings"])),
        "snf_buckets": {
            k: [x + y for x, y in zip(a["snf_buckets"][k], b["snf_buckets"][k])] for k in a["snf_buckets"]
        },
        "max_transform_bits": max(a["max_transform_bits"], b["max_transform_bits"]),
    }


def layer_metrics(summary: dict, ops: int) -> dict[str, float]:
    """Per-layer figures for one traced pass of ``ops`` operations."""
    agg = summary["agg"]

    def calls(name: str) -> int:
        return agg.get(name, [0, 0, 0])[0]

    def incl_ms(name: str) -> float:
        return agg.get(name, [0, 0, 0])[1] / 1e6

    def self_ms(name: str) -> float:
        return agg.get(name, [0, 0, 0])[2] / 1e6

    induction_calls = calls("chartab.induction_matrix")
    distinct = len(summary["embeddings"])
    snf_calls = calls("intlinalg.smith_normal_form")
    out = {
        "chartab.induction_calls": induction_calls,
        "chartab.induction_ms": incl_ms("chartab.induction_matrix"),
        "chartab.induction_distinct": distinct,
        "chartab.induction_reuse_ratio": distinct / induction_calls if induction_calls else 0.0,
        "chartab.inner_product_calls": calls("chartab.inner_product"),
        "chartab.inner_product_ms": incl_ms("chartab.inner_product"),
        "cyclotomic.mul_calls": summary["counts"].get("cyclotomic.mul_calls", 0),
        "gcw.assemble_calls": calls("gcw.assemble_differential"),
        "gcw.assemble_self_ms": self_ms("gcw.assemble_differential"),
        "gcw.validate_calls": calls("gcw.validate"),
        "gcw.validate_self_ms": self_ms("gcw.validate"),
        "gcw.from_json_ms": incl_ms("gcw.from_json_dict"),
        "schemas.check_calls": calls("schemas.check"),
        "schemas.check_ms": incl_ms("schemas.check"),
        "intlinalg.snf_calls": snf_calls,
        "intlinalg.snf_calls_per_op": snf_calls / ops if ops else 0.0,
        "intlinalg.snf_ms": incl_ms("intlinalg.smith_normal_form"),
    }
    for label, (_, ns, _) in summary["snf_buckets"].items():
        out[f"intlinalg.snf_ms.{label}"] = ns / 1e6
    out.update(
        {
            "intlinalg.max_transform_bits": summary["max_transform_bits"],
            "intlinalg.kernel_calls": calls("intlinalg.kernel_basis"),
            "intlinalg.cokernel_calls": calls("intlinalg.cokernel"),
            "intlinalg.solve_calls": calls("intlinalg.solve_integer"),
            "intlinalg.matmul_ms": incl_ms("intlinalg.IntegerMatrix.__matmul__"),
            "homology.compute_calls": calls("homology.compute_homology"),
            "homology.compute_self_ms": self_ms("homology.compute_homology"),
            "homology.verify_basis_calls": calls("homology.verify_basis"),
            "homology.verify_basis_self_ms": self_ms("homology.verify_basis"),
            # report_to_json calls report_to_json_dict: its self time is the dumps.
            "homology.report_json_ms": incl_ms("homology.report_to_json_dict") + self_ms("homology.report_to_json"),
            # Every cli span's self time: argument parsing plus the rendering in cmd_*.
            "cli.main_self_ms": sum(v[2] for k, v in agg.items() if k.startswith("cli.")) / 1e6,
        }
    )
    return out
