"""Argvs drawn from the CLI's grammar and its mutations, and the parity check of
``cli._parse`` against argparse on them.

Needs only the standard library, so the same check runs as a seeded loop on any
supported Python::

    PYTHONPATH=src:tests python -c "import cli_argv; print(cli_argv.parity_counts(seed=1, count=20000))"
"""

import collections
import contextlib
import io
import random

from bredon import cli

COMMANDS = list(cli._COMMANDS)
OPTIONS = sorted({name for _, arguments in cli._COMMANDS.values() for name, _ in arguments if name[0] == "-"})
#: Positionals and values besides the commands' own choices: names, odd words and dash-led tokens.
WORDS = ["p1", "p4m", "cm", "x.json", "json", "text", "yaml", "", "a b", "compute", "verify", "-", "-5", "-a b"]
#: Tokens argparse takes in its own ways: help, abbreviations, ``=`` forms, ``--`` and short options.
ODD = ["-h", "--help", "--", "-", "--form", "--fo", "--a", "--show", "--dump", "--from", "--table",
       "--format=json", "--format=text", "--all=1", "--from-file=x.json", "-f", "--bogus", "---all"]


def _token(rnd: random.Random, command: str) -> list[str]:
    """One to two tokens: mostly the command's own arguments, sometimes a mutation."""
    arguments = dict(cli._COMMANDS.get(command, ("", ()))[1])
    roll = rnd.random()
    if roll < 0.75 and arguments:
        name, spec = rnd.choice(list(arguments.items()))
        if name[0] != "-":
            return [rnd.choice(WORDS)]
        if spec.get("action") == "store_true":
            return [name]
        values = list(spec.get("choices", ())) or WORDS
        return [name, rnd.choice(values)] if rnd.random() < 0.85 else [name, rnd.choice(WORDS + ODD)]
    if roll < 0.85:
        return [rnd.choice(OPTIONS)]  # often another command's option, or a value option with no value
    if roll < 0.92:
        return [rnd.choice(WORDS)]
    return [rnd.choice(ODD)]


def draw(rnd: random.Random) -> list[str]:
    """An argv: a command (rarely something else, or nothing) and up to seven tokens, one of them sometimes repeated."""
    roll = rnd.random()
    if roll < 0.03:
        return []
    head = rnd.choice(COMMANDS) if roll < 0.9 else rnd.choice(["", "comp", "-h", "--help", "--all", "p1"])
    argv = [head]
    for _ in range(rnd.randint(0, 3)):
        argv += _token(rnd, head)
    if len(argv) > 1 and rnd.random() < 0.1:
        argv.append(rnd.choice(argv[1:]))
    return argv


def parity(argv) -> str:
    """``cli._parse(argv)`` is None or argparse's namespace, and None whenever argparse exits.
    Returns which: ``"same"``, ``"deferred"`` or ``"exits"``."""
    fast = cli._parse(argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            expected = vars(cli.build_parser().parse_args(argv))
    except SystemExit:
        assert fast is None, (argv, vars(fast))
        return "exits"
    if fast is None:
        return "deferred"
    assert vars(fast) == expected, (argv, vars(fast), expected)
    return "same"


def parity_counts(seed: int, count: int) -> dict[str, int]:
    rnd = random.Random(seed)
    return dict(collections.Counter(parity(draw(rnd)) for _ in range(count)))
