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
every command, or a stdout closed early, as ``| head`` does, or at start),
2 usage error (including an option the chosen mode would ignore:
``--show-differentials`` or ``--show-snf`` with ``compute --format json``,
``--format`` with ``dump --dump-complex`` or ``--dump-tables``), 3 invalid
input.

The grammar is declared once, in ``_COMMANDS``.  ``main`` parses an argv
written out in full by hand and leaves every other argv (help, usage errors,
abbreviations, ``--opt=value``) to argparse, so ``argparse`` is imported only
for those, and each help, usage and error text is argparse's own.
"""

from __future__ import annotations

import functools
import os
import sys
import types

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
            if sys.stdin is None:  # fd 0 was closed at start
                raise OSError("standard input is closed")
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
        docs = [homology.report_doc(rep) for rep in reports]
        print(schemas.dumps(docs if args.all else docs[0]))
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
        computed = {name: r[j] for name, r in zip(sup.irreducible_names(), matrix.nonzeros) if j in r}
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
        print(schemas.dumps(homology.report_doc(rep)))
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
            print(schemas.dumps({"invariant_factors": factors, **matrices}))
        else:
            print(f"invariant factors: {factors}")
            for name, mat in matrices.items():
                print(f"{name} =\n{mat}")
    finally:
        if digit_limit:
            sys.set_int_max_str_digits(digit_limit)
    return EXIT_OK


# ---------------------------------------------------------------------------


#: The grammar, declared once: per command, its help line and the name and keywords
#: of each ``add_argument`` call, in order.  ``build_parser`` passes them to argparse,
#: and ``_parse`` reads their ``action``, ``choices``, ``nargs`` and ``default``.
_COMMANDS = {
    "compute": ("compute homology of one group or all 17", (
        ("group", {"nargs": "?", "help": "wallpaper group name, e.g. p4m"}),
        ("--all", {"action": "store_true", "help": "compute every group"}),
        ("--format", {"choices": ("text", "json"), "default": "text"}),
        ("--show-differentials", {"action": "store_true"}),
        ("--show-snf", {"action": "store_true"}),
    )),
    "verify": ("diff recomputed results against the embedded reference tables", (
        ("--table3", {"action": "store_true", "help": "induced character rows"}),
        ("--table4", {"action": "store_true", "help": "homology isomorphism types"}),
        ("--bases", {"action": "store_true", "help": "reference homology bases"}),
    )),
    "dump": ("emit or load JSON data", (
        ("--dump-complex", {"metavar": "NAME", "help": "emit a built-in cell structure"}),
        ("--dump-tables", {"action": "store_true", "help": "emit all nine character tables"}),
        ("--from-file", {"metavar": "PATH", "help": "load a complex and compute its homology"}),
        ("--format", {"choices": ("text", "json"), "help": "report format for --from-file (default text)"}),
    )),
    "snf": ("Smith normal form of a JSON matrix (list of integer rows)", (
        ("matrix", {"help": "path to a JSON file, or - for stdin"}),
        ("--format", {"choices": ("text", "json"), "default": "text"}),
    )),
}


@functools.cache
def build_parser():
    """The argparse parser of ``_COMMANDS``, built once per process and only for an argv
    that ``_parse`` leaves to it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="bredon",
        description="Exact Bredon homology of the 17 wallpaper groups with representation-ring coefficients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, arguments) in _COMMANDS.items():
        command_parser = sub.add_parser(command, help=help_line)
        for name, keywords in arguments:
            command_parser.add_argument(name, **keywords)
    return parser


def _parse(argv) -> types.SimpleNamespace | None:
    """The namespace argparse gives for an argv written out in full, else None.  In full:
    a command, then tokens that are each an exact option of that command, given once;
    a value option's value, not led by ``-`` and among its ``choices``; or the command's
    one positional, not led by ``-``.  So help, abbreviations, ``--opt=value``, ``--``,
    ``-``, a repeat and a missing or extra positional are all None."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    arguments = dict(_COMMANDS[argv[0]][1])
    positional = next((name for name in arguments if name[0] != "-"), None)
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            name = positional
        elif arguments.get(token, {}).get("action") == "store_true":
            name, token = token, True
        elif token in arguments:
            name, token = token, next(tokens, "-")  # a missing value is left to argparse, as "-" is
            if token[:1] == "-" or token not in arguments[name].get("choices", (token,)):
                return None
        else:
            return None
        if name is None or name in given:
            return None
        given[name] = token
    if positional is not None and positional not in given and "nargs" not in arguments[positional]:
        return None
    values = {}
    for name, spec in arguments.items():
        default = spec.get("default", False if spec.get("action") == "store_true" else None)
        values[name.lstrip("-").replace("-", "_")] = given.get(name, default)
    return types.SimpleNamespace(command=argv[0], **values)


def main(argv: list[str] | tuple[str, ...] | None = None) -> int:
    if argv is None:  # the console script passes no arguments
        argv = sys.argv[1:]
    if sys.stdout is None:  # fd 1 was closed at start: all output, help too, goes nowhere, so nothing succeeds
        sys.stdout = open(os.devnull, "w")
        try:
            return main(argv) or EXIT_MISMATCH
        except SystemExit as exc:  # argparse's help, or its usage error
            return exc.code or EXIT_MISMATCH
        finally:
            sys.stdout.close()
            sys.stdout = None
    args = _parse(argv) or build_parser().parse_args(argv)
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
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_MISMATCH


if __name__ == "__main__":
    raise SystemExit(main())
