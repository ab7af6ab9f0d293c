"""Command-line interface.

Subcommands:

* ``compute`` -- homology of one group or all 17, text table or JSON;
* ``verify``  -- recompute and diff against the embedded reference tables
  (``--table3`` induced characters, ``--table4`` homology isomorphism
  types, ``--bases`` recorded generator lists);
* ``dump``    -- emit cell structures / character tables as JSON, or load a
  user complex from a file and compute it;
* ``snf``     -- Smith normal form of a matrix given as a JSON row list.

Exit codes: 0 success / all checks pass, 1 verification mismatch (or a
computed homology that fails the Euler identity, reported on stderr by
every command, or a reader that closed stdout early, as ``| head`` does),
2 usage error (including an option the chosen mode would ignore:
``--show-differentials`` or ``--show-snf`` with ``compute --format json``,
``--format`` with ``dump --dump-complex`` or ``--dump-tables``), 3 invalid
input.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import chartab, gcw, homology, reference, schemas, wallpaper
from .intlinalg import IntegerMatrix, smith_normal_form

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_INVALID_INPUT = 3


def _fail_usage(message: str) -> int:
    print(message, file=sys.stderr)
    return EXIT_USAGE


def _fail_input(message: str) -> int:
    print(message, file=sys.stderr)
    return EXIT_INVALID_INPUT


class _UnreadableInput(ValueError):
    """A user file that cannot be read or parsed as JSON; maps to exit 3."""


def _read_json(path: str, stdin: bool = False):
    """Parse the JSON document at ``path`` (``-`` is stdin when ``stdin``)."""
    import json

    try:
        if stdin and path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise _UnreadableInput(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise _UnreadableInput(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # an integer literal over the digit limit; nesting too deep
        raise _UnreadableInput(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# compute


def _aligned(rows: list[list[str]]) -> str:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in rows)


def _report_rows(reports) -> str:
    rows = [["group", "H_2", "H_1", "basis H_1", "H_0", "basis H_0"]]
    for rep in reports:
        h0, h1, h2 = rep.group(0), rep.group(1), rep.group(2)
        rows.append(
            [
                rep.group_name,
                h2.describe(),
                h1.describe(),
                homology.basis_cell(h1),
                h0.describe(),
                homology.basis_cell(h0),
            ]
        )
    return _aligned(rows)


def _print_extras(rep, show_differentials: bool, show_snf: bool) -> None:
    if show_differentials:
        for degree, mat in ((1, rep.d1), (2, rep.d2)):
            print(f"\n{rep.group_name}: matrix of d_{degree} ({mat.rows}x{mat.cols}, rows = degree-{degree - 1} generators)")
            print(mat)
    if show_snf:
        for name, mat, factors in (
            ("d_1", rep.d1, rep.invariant_factors_d1),
            ("d_2", rep.d2, rep.invariant_factors_d2),
        ):
            print(f"\n{rep.group_name}: Smith normal form of {name}: invariant factors {list(factors)}")
            print(IntegerMatrix.diagonal(mat.rows, mat.cols, factors))


def cmd_compute(args) -> int:
    if args.group is None and not args.all:
        return _fail_usage("compute: give a group name or --all")
    if args.group is not None and args.all:
        return _fail_usage(f"compute: give a group name or --all, not both (got {args.group!r} and --all)")
    if not args.all and args.group not in wallpaper.list_groups():
        return _fail_usage(f"unknown group {args.group!r}; valid names: {', '.join(wallpaper.list_groups())}")
    if args.format == "json" and (args.show_differentials or args.show_snf):
        return _fail_usage("compute: --show-differentials and --show-snf print text, not --format json")
    names = wallpaper.list_groups() if args.all else [args.group]
    reports = [homology.compute_homology(wallpaper.get_group(name)[0]) for name in names]
    if args.format == "json":
        payload = [homology.report_to_json_dict(rep) for rep in reports]
        print(schemas.dumps(payload[0] if not args.all else payload))
    else:
        print(_report_rows(reports))
        for rep in reports:
            _print_extras(rep, args.show_differentials, args.show_snf)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _verify_table3() -> tuple[int, int, list[str]]:
    lines_total = sorted({row[0] for row in reference.INDUCED_CHARACTER_ROWS})
    failures = []
    failed_lines = set()
    for line, emb_id, source, expected in reference.INDUCED_CHARACTER_ROWS:
        emb = chartab.get_embedding(emb_id)
        sub = chartab.build_table(emb.sub)
        sup = chartab.build_table(emb.sup)
        matrix = chartab.induction_matrix(emb)
        j = sub.irreducible_names().index(source)
        computed = {name: v for name, v in zip(sup.irreducible_names(), matrix.col(j)) if v}
        if computed != expected:
            failed_lines.add(line)
            failures.append(
                f"line {line} ({emb_id}, {source}): computed {computed}, reference {expected}"
            )
    return len(lines_total) - len(failed_lines), len(lines_total), failures


def _verify_table4(reports) -> tuple[int, int, list[str]]:
    failures = []
    passed = 0
    for name, rep in reports.items():
        h2, h1, _, h0, _ = reference.HOMOLOGY_ROWS[name]
        computed = (rep.group(2).iso_type(), rep.group(1).iso_type(), rep.group(0).iso_type())
        if computed == (h2, h1, h0):
            passed += 1
        else:
            failures.append(f"{name}: computed (H2,H1,H0) = {computed}, reference {(h2, h1, h0)}")
    return passed, len(reports), failures


def _verify_bases(reports) -> tuple[int, int, list[str]]:
    failures = []
    checks = 0
    for name, rep in reports.items():
        _, _, h1_basis, _, h0_basis = reference.HOMOLOGY_ROWS[name]
        for degree, basis in ((1, h1_basis), (0, h0_basis)):
            checks += 1
            verdict = homology.verify_basis(rep, degree, basis)
            if not verdict:
                failures.append(f"{name} H_{degree}: {verdict.verdict} ({verdict.detail})")
    return checks - len(failures), checks, failures


def cmd_verify(args) -> int:
    run_all = not (args.table3 or args.table4 or args.bases)
    status = EXIT_OK
    reports = {}
    if args.table4 or args.bases or run_all:  # both passes read one report per group
        reports = {name: homology.compute_homology(wallpaper.get_group(name)[0]) for name in wallpaper.list_groups()}
    for flag, label, runner in (
        (args.table3 or run_all, "induced characters", _verify_table3),
        (args.table4 or run_all, "homology isomorphism types", lambda: _verify_table4(reports)),
        (args.bases or run_all, "reference bases", lambda: _verify_bases(reports)),
    ):
        if not flag:
            continue
        passed, total, failures = runner()
        print(f"{label}: {passed}/{total} PASS")
        for msg in failures:
            print(f"  MISMATCH {msg}")
        if failures:
            status = EXIT_MISMATCH
    return status


# ---------------------------------------------------------------------------
# dump


def _serialize_tables() -> dict:
    tables = []
    for gid in chartab.GROUP_IDS:
        t = chartab.build_table(gid)
        tables.append(
            {
                "group": t.group_id,
                "order": t.order,
                "classes": [
                    {"label": c.label, "size": c.size, "element_order": c.element_order}
                    for c in t.classes
                ],
                "irreducibles": [
                    {"name": chi.name, "values": [[str(f) for f in v.coeffs] for v in chi.values]}
                    for chi in t.irreducibles
                ],
            }
        )
    return {"tables": tables}


def cmd_dump(args) -> int:
    chosen = [x for x in (args.dump_complex, "tables" if args.dump_tables else None, args.from_file) if x]
    if len(chosen) != 1:
        return _fail_usage("dump: give exactly one of --dump-complex, --dump-tables, --from-file")
    if args.format is not None and not args.from_file:
        mode = "--dump-complex" if args.dump_complex else "--dump-tables"
        return _fail_usage(f"dump: {mode} always writes JSON; --format applies to --from-file only")
    if args.dump_complex:
        name = args.dump_complex
        if name not in wallpaper.list_groups():
            return _fail_usage(f"unknown group {name!r}; valid names: {', '.join(wallpaper.list_groups())}")
        print(gcw.to_json(wallpaper.get_group(name)[0]))
        return EXIT_OK
    if args.dump_tables:
        print(schemas.dumps(_serialize_tables()))
        return EXIT_OK

    try:
        rep = homology.compute_homology(gcw.from_json_dict(_read_json(args.from_file)))
    except _UnreadableInput as exc:
        return _fail_input(str(exc))
    except schemas.SchemaError as exc:
        return _fail_input(f"{args.from_file}: {exc}")
    except gcw.InvalidComplexError as exc:
        return _fail_input("\n".join(f"{args.from_file}: {v}" for v in exc.violations))
    if args.format == "json":
        print(homology.report_to_json(rep))
    else:
        print(_report_rows([rep]))
    return EXIT_OK


# ---------------------------------------------------------------------------
# snf


def cmd_snf(args) -> int:
    try:
        data = _read_json(args.matrix, stdin=True)
        schemas.check(data, "matrix")
        matrix = IntegerMatrix.from_rows(data)
    except ValueError as exc:  # unreadable input or schema violations
        return _fail_input(str(exc))
    snf = smith_normal_form(matrix)
    factors, matrices = list(snf.invariant_factors), {"D": snf.D, "P": snf.P, "Q": snf.Q}
    # The int-to-string digit limit bounds the entries of the input, not those
    # of the result, so it is lifted while the result is rendered.
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digit_limit:
        sys.set_int_max_str_digits(0)
    try:
        if args.format == "json":
            payload = {"invariant_factors": factors, **{name: mat.to_rows() for name, mat in matrices.items()}}
            print(schemas.dumps(payload))
        else:
            print(f"invariant factors: {factors}")
            for name, mat in matrices.items():
                print(f"{name} =\n{mat}")
    finally:
        if digit_limit:
            sys.set_int_max_str_digits(digit_limit)
    return EXIT_OK


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; ``main`` looks up each command's function."""
    parser = argparse.ArgumentParser(
        prog="bredon",
        description="Exact Bredon homology of the 17 wallpaper groups with representation-ring coefficients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute homology of one group or all 17")
    p_compute.add_argument("group", nargs="?", help="wallpaper group name, e.g. p4m")
    p_compute.add_argument("--all", action="store_true", help="compute every group")
    p_compute.add_argument("--format", choices=("text", "json"), default="text")
    p_compute.add_argument("--show-differentials", action="store_true")
    p_compute.add_argument("--show-snf", action="store_true")

    p_verify = sub.add_parser("verify", help="diff recomputed results against the embedded reference tables")
    p_verify.add_argument("--table3", action="store_true", help="induced character rows")
    p_verify.add_argument("--table4", action="store_true", help="homology isomorphism types")
    p_verify.add_argument("--bases", action="store_true", help="reference homology bases")

    p_dump = sub.add_parser("dump", help="emit or load JSON data")
    p_dump.add_argument("--dump-complex", metavar="NAME", help="emit a built-in cell structure")
    p_dump.add_argument("--dump-tables", action="store_true", help="emit all nine character tables")
    p_dump.add_argument("--from-file", metavar="PATH", help="load a complex and compute its homology")
    p_dump.add_argument("--format", choices=("text", "json"), help="report format for --from-file (default text)")

    p_snf = sub.add_parser("snf", help="Smith normal form of a JSON matrix (list of integer rows)")
    p_snf.add_argument("matrix", help="path to a JSON file, or - for stdin")
    p_snf.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return status
    except homology.EulerIdentityError as exc:
        print(exc, file=sys.stderr)
        return EXIT_MISMATCH
    except BrokenPipeError:
        # The reader closed stdout.  As the SIGPIPE notes of the ``signal``
        # docs advise, point it at devnull so the final flush stays silent;
        # a stdout the caller redirected is left alone.
        if sys.stdout is sys.__stdout__:
            import os

            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_MISMATCH


if __name__ == "__main__":
    raise SystemExit(main())
